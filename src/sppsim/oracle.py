"""Closed-form reference solution for a vertical dipole over an infinite conducting sheet.

Everything here lives in Fourier space with respect to the coordinate along the
sheet.  The sheet lies in vacuum, and in rescaled units (mu = eps = 1,
free-space wave number 1) the machinery provides:

* the square-root branch consistent with outgoing/decaying waves,
* the surface-wave (SPP) dispersion root k_m,
* the per-region Fourier amplitudes of the fields for a unit vertical dipole,
* the two physically distinct parts of the scattered tangential electric field
  on the sheet: the residue at the dispersion pole (the SPP proper) and the
  wrap around the branch cut emanating from the free-space wave number (the
  slowly decaying radiation part).

The branch-cut wrap consists of a finite integral over tangential wave numbers
inside the light cone plus a tail along the imaginary axis where the integrand
decays like exp(-x*s).  The light-cone part is taken in xi = sin(theta), which
removes the sqrt(1 - xi^2) endpoint singularity, with Gauss-Legendre in theta
on [0, pi/2]; the tail is taken in u = x*s, so every position sees the same
exp(-u) decay, with an exp-sinh trapezoid u = exp(pi/2*sinh(t)).  Both rules
converge exponentially.  All positions are evaluated in one array pass per
refinement, chunked so that no (position, node) grid exceeds MAX_NODES
values.  The light-cone nodes are shared by all positions, so their node-only
factors are computed once per node and only exp(i*x*xi) and the products run
on the grid; the tail's nodes depend on x, and its cos and sin run in real
arithmetic.  Neither changes a bit of the result.  The node counts are
doubled only for the positions whose last two iterates still differ by more
than a configurable relative tolerance.  A pole of either denominator on the
path is detected in closed form before any node is built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_legendre


class OracleError(Exception):
    """Base error for the reference-solution machinery."""


class PoleOnAxisError(OracleError):
    """The dispersion denominator vanishes on the integration path."""


class QuadratureError(OracleError):
    """Node doubling did not reach the requested relative change within its limits."""

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


def spp_wavenumber(sigma_r: complex, mode: str = "exact") -> complex:
    """Wave number k_m of the surface plasmon-polariton sustained by the sheet.

    mode="exact" evaluates sqrt(1 - 4/sigma^2) with the root chosen so
    Re k_m > 0; mode="asymptotic" returns 2i/sigma, valid for |sigma| << 2.
    """
    if sigma_r == 0:
        raise ValueError("sheet conductivity must be nonzero for an SPP")
    if mode == "asymptotic":
        return 2j / sigma_r
    if mode != "exact":
        raise ValueError(f"unknown dispersion mode {mode!r}")
    km = complex(np.sqrt(complex(1.0 - 4.0 / sigma_r**2)))
    if km.real < 0:
        km = -km
    return km


def dispersion_residual(km: complex, sigma_r: complex) -> float:
    """|beta1 + beta2 + sigma beta1 beta2| at xi = km, vacuum on both sides.

    In rescaled variables the exact SPP root zeroes this combination.
    """
    b = branch_sqrt(km, 1.0)
    return abs(2.0 * b + sigma_r * b * b)


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


def pole_contribution(x, a: float, sigma_r: complex):
    """Residue part of the scattered tangential field on the sheet, x > 0.

    -2i/sigma^2 * exp(i*k_m*x - (2i/sigma)*a) with k_m from the dispersion
    relation.  Scalar or array x.
    """
    xs = np.asarray(x, dtype=float)
    if np.any(xs < 0):
        raise ValueError("pole contribution is stated for x >= 0")
    km = spp_wavenumber(sigma_r)
    val = -2j * (1.0 / sigma_r**2) * np.exp(1j * km * xs - (2j / sigma_r) * a)
    if np.ndim(x) == 0:
        return complex(val)
    return val


# first step of both branch-cut rules: the light cone starts with
# ceil(pi/(2*H0)) Gauss-Legendre nodes in theta and the tail with an exp-sinh
# trapezoid of step close to H0; each refinement doubles both node counts
H0 = 1.0 / 32.0


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance of the branch-cut integrals: the node counts of a position are
    doubled until its last two iterates differ by less than rel_tol relative."""

    rel_tol: float = 5e-3

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise ValueError("tolerance must be positive")


def _trig_factor(rad, a, sigma):
    # rad = sqrt(1 -+ t^2); shared by both integrands.  On the tail rad is
    # real, so cos and sin run in real arithmetic, which gives the real parts
    # of the complex ones bit for bit
    arg = a * rad
    return 4.0 * np.cos(arg) - 2j * sigma * rad * np.sin(arg)


def finite_integrand(xi, x, a, sigma):
    """Integrand of the light-cone part of the branch-cut wrap, xi in (0, 1)."""
    xi = np.asarray(xi, dtype=float)
    rad = np.sqrt(1.0 - xi**2 + 0j)
    den = xi**2 + 4.0 / sigma**2 - 1.0
    return xi * rad * np.exp(1j * x * xi) / den * _trig_factor(rad, a, sigma)


def tail_integrand(s, x, a, sigma):
    """Integrand of the decaying tail of the branch-cut wrap, s in (0, inf)."""
    s = np.asarray(s, dtype=float)
    s2 = s**2
    rad = np.sqrt(1.0 + s2)
    den = s2 - 4.0 / sigma**2 + 1.0
    # complex exp (libm cexp) on purpose: numpy's real exp differs from it in
    # the last bit at some nodes, which moves the reference trace
    return s * rad * np.exp(-x * s + 0j) / den * _trig_factor(rad, a, sigma)


# largest node array one evaluation builds: positions are processed in row
# chunks below it, and a position needing more nodes than this raises
MAX_NODES = 2**13

# The tail runs over u = x*s in [U_MIN, U_MAX], mapped by
# u = exp(pi/2*sinh(t)).  Below U_MIN the integrand is O(u) and the cut part is
# O(U_MIN^2) of the integral; beyond U_MAX the factor exp(-u) is below 1e-19.
U_MIN, U_MAX = 1e-10, 45.0
_T_LO, _T_HI = np.arcsinh(2.0 / np.pi * np.log([U_MIN, U_MAX]))


def _node_counts(level):
    """Gauss-Legendre nodes of the light cone and exp-sinh steps of the tail."""
    n_theta = int(np.ceil(0.5 * np.pi / H0))
    n_t = int(np.ceil((_T_HI - _T_LO) / H0))
    return n_theta << level, n_t << level


@lru_cache(maxsize=16)
def _light_cone_rule(n):
    """Nodes xi = sin(theta) and weights of n-point Gauss-Legendre on theta in [0, pi/2]."""
    t, w = roots_legendre(n)
    theta = 0.25 * np.pi * (t + 1.0)
    xi, wt = np.sin(theta), 0.25 * np.pi * w * np.cos(theta)
    xi.flags.writeable = wt.flags.writeable = False
    return xi, wt


@lru_cache(maxsize=16)
def _tail_rule(n_t):
    """Nodes u and weights of the exp-sinh trapezoid with n_t steps."""
    h = (_T_HI - _T_LO) / n_t
    t = _T_LO + h * np.arange(n_t + 1)
    u = np.exp(0.5 * np.pi * np.sinh(t))
    wu = 0.5 * np.pi * h * np.cosh(t) * u
    u.flags.writeable = wu.flags.writeable = False
    return u, wu


def _wrap(xs, a, sigma, level):
    """Branch-cut wrap at each of the positions xs with the rules of one level."""
    n_theta, n_t = _node_counts(level)
    xi, w_xi = _light_cone_rule(n_theta)
    u, w_u = _tail_rule(n_t)
    rows = max(1, MAX_NODES // max(xi.size, u.size))
    out = np.empty(xs.size, dtype=complex)
    for lo in range(0, xs.size, rows):
        x = xs[lo:lo + rows, None]
        # the light-cone nodes are the same for every position: passed as one
        # row, their node-only factors are computed once per node and only
        # exp(i*x*xi) and the products run on the full grid
        f = finite_integrand(xi, x, a, sigma)
        g = tail_integrand(u / x, x, a, sigma)
        out[lo:lo + rows] = (f * w_xi).sum(axis=1) - (g * w_u).sum(axis=1) / x[:, 0]
    return out / (4.0 * np.pi * sigma)


def _failure(message, xs, last_two):
    """QuadratureError for the unconverged position whose last iterates differ most."""
    prev, cur = last_two
    if cur is None:
        return QuadratureError(message, last_two=(None, None))
    with np.errstate(invalid="ignore", divide="ignore"):
        i = int(np.argmax(~np.isfinite(cur) if prev is None
                          else np.abs(cur - prev) / np.abs(cur)))
    return QuadratureError(f"{message} (x={xs[i]})",
                           last_two=(None if prev is None else complex(prev[i]),
                                     complex(cur[i])))


def branchcut_contribution(x, a: float, sigma_r: complex,
                           quad: QuadratureSpec | None = None):
    """Branch-cut part of the scattered tangential field on the sheet, x > 0.

    All positions are evaluated together; the node counts are doubled for
    the positions whose last two iterates still differ by quad.rel_tol or more
    relative.  A pole of the integrand on the path raises PoleOnAxisError
    before any node is built; needing more than MAX_NODES nodes per position
    raises QuadratureError carrying the last two iterates of the worst
    position.
    """
    spec = quad or QuadratureSpec()
    xs = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    if np.any(xs <= 0):
        raise ValueError("branch-cut contribution is stated for x > 0")
    # both denominators are +-(tau - c) with tau = -xi^2 in [-1, 0] on the light
    # cone and tau = s^2 >= 0 on the tail
    c = complex(4.0 / sigma_r**2 - 1.0)
    if abs(c - max(c.real, -1.0)) < 1e-9:
        raise PoleOnAxisError("branch-cut denominator vanishes on the path")
    out = np.empty(xs.shape, dtype=complex)
    todo = np.arange(xs.size)
    last_two = (None, None)
    for level in itertools.count():     # ends at convergence or at the node cap
        n_theta, n_t = _node_counts(level)
        if max(n_theta, n_t + 1) > MAX_NODES:
            raise _failure(f"branch-cut quadrature needs more than {MAX_NODES} grid points "
                           "per position", xs[todo], last_two)
        cur = _wrap(xs[todo], a, sigma_r, level)
        if not np.all(np.isfinite(cur)):
            raise _failure("branch-cut quadrature produced a non-finite value",
                           xs[todo], (last_two[1], cur))
        prev = last_two[1]
        if prev is None:
            last_two = (None, cur)
            continue
        done = (cur == 0.0) | (np.abs(cur - prev) < spec.rel_tol * np.abs(cur))
        out[todo[done]] = cur[done]
        todo, last_two = todo[~done], (prev[~done], cur[~done])
        if todo.size == 0:
            break
    if np.ndim(x) == 0:
        return complex(out[0])
    return out.reshape(np.shape(x))


def interface_field(xs, a: float, sigma_r: complex,
                    quad: QuadratureSpec | None = None):
    """Scattered tangential electric field on the sheet at the given positions.

    Returns (pole, branchcut, total) arrays.  The field is odd in x for the
    vertical dipole, so negative positions are filled by antisymmetry.
    x = 0 is not allowed.
    """
    xs = np.asarray(xs, dtype=float)
    if np.any(xs == 0):
        raise ValueError("the on-sheet field is evaluated away from x = 0")
    # each |x| is evaluated once; the field is odd in x
    absx, inverse = np.unique(np.abs(xs), return_inverse=True)
    inverse = inverse.reshape(xs.shape)
    sign = np.sign(xs)
    pole = pole_contribution(absx, a, sigma_r)[inverse] * sign
    bc = branchcut_contribution(absx, a, sigma_r, quad=quad)[inverse] * sign
    return pole, bc, pole + bc
