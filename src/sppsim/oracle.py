"""Closed-form reference solution for a vertical dipole over an infinite conducting sheet.

Everything here lives in Fourier space with respect to the coordinate along the
sheet.  The machinery provides, in rescaled units (free-space wave number 1):

* the square-root branch consistent with outgoing/decaying waves,
* the surface-wave (SPP) dispersion root k_m,
* the per-region Fourier amplitudes of the fields for a unit vertical dipole,
* the two physically distinct parts of the scattered tangential electric field
  on the sheet: the residue at the dispersion pole (the SPP proper) and the
  wrap around the branch cut emanating from the free-space wave number (the
  slowly decaying radiation part).

The branch-cut wrap consists of a finite integral over tangential wave numbers
inside the light cone plus a tail along the imaginary axis where the integrand
decays like exp(-sqrt(mu*eps)*x*s).  Both are evaluated with a summed
trapezoidal rule whose step is halved until the total changes by less than a
configurable relative tolerance; the tail is truncated at s = 1/sqrt(h*x).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class OracleError(Exception):
    """Base error for the reference-solution machinery."""


class PoleOnAxisError(OracleError):
    """The dispersion denominator vanishes on the integration path."""


class QuadratureError(OracleError):
    """Step halving did not reach the requested relative change."""

    def __init__(self, message, last_two=None):
        super().__init__(message)
        self.last_two = last_two


def branch_sqrt(xi, k):
    """sqrt(k^2 - xi^2) on the branch with Im >= 0, positive when real.

    Accepts scalars or arrays; the measure-zero real case takes the positive
    root, which is the limit of vanishing losses.
    """
    val = np.asarray(k, dtype=complex) ** 2 - np.asarray(xi, dtype=complex) ** 2
    b = np.sqrt(val)
    b = np.where(b.imag < 0, -b, b)
    if b.ndim == 0:
        return complex(b)
    return b


def spp_wavenumber(sigma_r: complex, mu_r: complex = 1.0, eps_r: complex = 1.0,
                   mode: str = "exact") -> complex:
    """Wave number k_m of the surface plasmon-polariton sustained by the sheet.

    mode="exact" evaluates sqrt(mu*eps - 4*mu^2*eps^2/sigma^2) with the root
    chosen so Re k_m > 0; mode="asymptotic" returns 2i*mu*eps/sigma, valid for
    |sigma| << 2*sqrt(mu*eps).
    """
    if sigma_r == 0:
        raise ValueError("sheet conductivity must be nonzero for an SPP")
    me = complex(mu_r) * complex(eps_r)
    if mode == "asymptotic":
        return 2j * me / sigma_r
    if mode != "exact":
        raise ValueError(f"unknown dispersion mode {mode!r}")
    km = complex(np.sqrt(complex(me - 4.0 * me * me / sigma_r**2)))
    if km.real < 0:
        km = -km
    return km


def dispersion_residual(km: complex, sigma_r: complex, mu_r: complex = 1.0,
                        eps_r: complex = 1.0) -> float:
    """|k^2 beta1 + k^2 beta2 + sigma beta1 beta2| at xi = km, identical half spaces.

    In rescaled variables the exact SPP root zeroes this combination.
    """
    k = np.sqrt(complex(mu_r) * complex(eps_r))
    b = branch_sqrt(km, k)
    return abs(2.0 * k * k * b + sigma_r * b * b)


@dataclass(frozen=True)
class FourierCoefficients:
    """Field amplitudes at one tangential wave number for a unit vertical dipole.

    Region 1 is the half space containing the source (distance a from the
    sheet), region 2 the other one.  Conventions follow the unrescaled
    transform with unit frequency, so the magnetic-field jump across the sheet
    is mu*sigma times the tangential electric field.
    """

    xi: complex
    k1: complex
    k2: complex
    mu: complex
    sigma: complex
    a: float
    beta1: complex
    beta2: complex
    c_reflected: complex
    c_transmitted: complex

    def Bz(self, y):
        if y >= 0:
            direct = -(self.xi * self.mu / (2 * self.beta1)) * np.exp(1j * self.beta1 * abs(y - self.a))
            return self.c_reflected * np.exp(1j * self.beta1 * y) + direct
        return self.c_transmitted * np.exp(-1j * self.beta2 * y)

    def Ex(self, y):
        if y >= 0:
            sgn = 1.0 if y > self.a else -1.0
            dBz = (1j * self.beta1 * self.c_reflected * np.exp(1j * self.beta1 * y)
                   - (self.xi * self.mu / (2 * self.beta1)) * 1j * self.beta1 * sgn
                   * np.exp(1j * self.beta1 * abs(y - self.a)))
            return 1j / self.k1**2 * dBz
        dBz = -1j * self.beta2 * self.c_transmitted * np.exp(-1j * self.beta2 * y)
        return 1j / self.k2**2 * dBz

    def Ey(self, y):
        # valid away from the source plane y = a
        if y >= 0:
            return self.xi / self.k1**2 * self.Bz(y)
        return self.xi / self.k2**2 * self.Bz(y)


def fourier_coefficients(xi: complex, k1: complex, k2: complex, mu: complex,
                         sigma: complex, a: float) -> FourierCoefficients:
    """Reflected and transmitted amplitudes determined by the interface conditions.

    Raises PoleOnAxisError when the dispersion denominator vanishes at the
    given wave number; the caller must then deform the path or split off the
    pole explicitly.
    """
    b1 = branch_sqrt(xi, k1)
    b2 = branch_sqrt(xi, k2)
    den = k2**2 * b1 + k1**2 * b2 + mu * sigma * b1 * b2
    scale = abs(k2**2 * b1) + abs(k1**2 * b2) + abs(mu * sigma * b1 * b2)
    if abs(den) <= 1e-12 * scale:
        raise PoleOnAxisError(f"dispersion denominator vanishes at xi={xi}")
    num = k2**2 * b1 - k1**2 * b2 + mu * sigma * b1 * b2
    phase = np.exp(1j * b1 * a)
    c_gt = -(xi * mu / (2 * b1)) * (num / den) * phase
    c_lt = -mu * k2**2 * xi * phase / den
    return FourierCoefficients(xi=xi, k1=k1, k2=k2, mu=mu, sigma=sigma, a=a,
                               beta1=b1, beta2=b2,
                               c_reflected=complex(c_gt), c_transmitted=complex(c_lt))


def pole_contribution(x, a: float, sigma_r: complex, mu_r: complex = 1.0,
                      eps_r: complex = 1.0, mode: str = "exact"):
    """Residue part of the scattered tangential field on the sheet, x > 0.

    -2i*(mu*eps/sigma^2) * exp(i*k_m*x - (2i/sigma)*a) with k_m from the
    dispersion relation.  Scalar or array x.
    """
    xs = np.asarray(x, dtype=float)
    if np.any(xs < 0):
        raise ValueError("pole contribution is stated for x >= 0")
    km = spp_wavenumber(sigma_r, mu_r, eps_r, mode=mode)
    me = complex(mu_r) * complex(eps_r)
    val = -2j * (me / sigma_r**2) * np.exp(1j * km * xs - (2j / sigma_r) * a)
    if np.ndim(x) == 0:
        return complex(val)
    return val


@dataclass(frozen=True)
class QuadratureSpec:
    """Trapezoid step control for the branch-cut integrals."""

    h0: float = 0.05
    rel_tol: float = 5e-3
    max_halvings: int = 22

    def __post_init__(self):
        if not (self.h0 > 0 and self.rel_tol > 0):
            raise ValueError("step and tolerance must be positive")


def _trig_factor(rad, a, sigma, sqme):
    # rad = sqrt(1 -+ t^2); shared by both integrands
    arg = sqme * a * rad
    return 4.0 * sqme * np.cos(arg) - 2j * sigma * rad * np.sin(arg)


def finite_integrand(xi, x, a, sigma, mu=1.0, eps=1.0):
    """Integrand of the light-cone part of the branch-cut wrap, xi in (0, 1)."""
    xi = np.asarray(xi, dtype=float)
    sqme = np.sqrt(complex(mu) * complex(eps))
    rad = np.sqrt(1.0 - xi**2 + 0j)
    den = xi**2 + 4.0 * mu * eps / sigma**2 - 1.0
    return xi * rad * np.exp(1j * sqme * x * xi) / den * _trig_factor(rad, a, sigma, sqme)


def tail_integrand(s, x, a, sigma, mu=1.0, eps=1.0):
    """Integrand of the decaying tail of the branch-cut wrap, s in (0, inf)."""
    s = np.asarray(s, dtype=float)
    sqme = np.sqrt(complex(mu) * complex(eps))
    rad = np.sqrt(1.0 + s**2)
    den = s**2 - 4.0 * mu * eps / sigma**2 + 1.0
    return s * rad * np.exp(-sqme * x * s) / den * _trig_factor(rad, a, sigma, sqme)


# largest trapezoid grid one halving step may build; non-convergence beyond it
# is reported instead of allocating further
MAX_GRID_POINTS = 2**22


def _grid_intervals(x, h):
    """Intervals of the light-cone grid and of the tail grid, and the tail cutoff."""
    s_max = 1.0 / np.sqrt(h * x)
    return max(int(np.ceil(1.0 / h)), 2), max(int(np.ceil(s_max / h)), 2), s_max


def _branchcut_once(x, a, sigma, mu, eps, h):
    n1, n2, s_max = _grid_intervals(x, h)
    grid1 = np.linspace(0.0, 1.0, n1 + 1)
    grid2 = np.linspace(0.0, s_max, n2 + 1)
    den_min = np.min(np.abs(grid2**2 - 4.0 * mu * eps / sigma**2 + 1.0))
    if den_min < 1e-9:
        raise PoleOnAxisError("branch-cut tail denominator vanishes on the path")
    i1 = np.trapezoid(finite_integrand(grid1, x, a, sigma, mu, eps), grid1)
    i2 = np.trapezoid(tail_integrand(grid2, x, a, sigma, mu, eps), grid2)
    return (1.0 / (4.0 * np.pi * sigma)) * (i1 - i2)


def branchcut_contribution(x, a: float, sigma_r: complex, mu_r: complex = 1.0,
                           eps_r: complex = 1.0, quad: QuadratureSpec | None = None):
    """Branch-cut part of the scattered tangential field on the sheet, x > 0.

    The step h is halved (and the tail cutoff 1/sqrt(h*x) co-refined) until the
    total changes by less than quad.rel_tol relative; non-convergence within
    quad.max_halvings steps or MAX_GRID_POINTS grid points raises
    QuadratureError carrying the last two iterates.
    """
    spec = quad or QuadratureSpec()
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xs <= 0):
        raise ValueError("branch-cut contribution is stated for x > 0")
    out = np.empty(xs.shape, dtype=complex)
    for idx, xv in enumerate(xs):
        h = spec.h0
        last_two = (None, _branchcut_once(xv, a, sigma_r, mu_r, eps_r, h))
        for _ in range(spec.max_halvings):
            h *= 0.5
            if max(_grid_intervals(xv, h)[:2]) + 1 > MAX_GRID_POINTS:
                raise QuadratureError(
                    f"trapezoid halving at x={xv} needs more than {MAX_GRID_POINTS} "
                    "grid points", last_two=last_two)
            cur = _branchcut_once(xv, a, sigma_r, mu_r, eps_r, h)
            last_two = (last_two[1], cur)
            if cur == 0.0 or abs(cur - last_two[0]) < spec.rel_tol * abs(cur):
                break
        else:
            raise QuadratureError(f"trapezoid halving did not converge at x={xv}",
                                  last_two=last_two)
        out[idx] = cur
    if np.ndim(x) == 0:
        return complex(out[0])
    return out


def interface_field(xs, a: float, sigma_r: complex, mu_r: complex = 1.0,
                    eps_r: complex = 1.0, quad: QuadratureSpec | None = None,
                    mode: str = "exact"):
    """Scattered tangential electric field on the sheet at the given positions.

    Returns (pole, branchcut, total) arrays.  The field is odd in x for the
    vertical dipole, so negative positions are filled by antisymmetry.
    x = 0 is not allowed.
    """
    xs = np.asarray(xs, dtype=float)
    if np.any(xs == 0):
        raise ValueError("the on-sheet field is evaluated away from x = 0")
    absx = np.abs(xs)
    sign = np.sign(xs)
    pole = np.asarray(pole_contribution(absx, a, sigma_r, mu_r, eps_r, mode=mode))
    bc = np.asarray(branchcut_contribution(absx, a, sigma_r, mu_r, eps_r, quad=quad))
    pole = pole * sign
    bc = bc * sign
    return pole, bc, pole + bc
