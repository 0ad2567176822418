"""Radial complex coordinate stretch in the outer annulus of the disk.

The stretch acts for r >= rho = 0.8 R with the quadratic profile
s(r) = s0 (r - rho)^2 / (R - rho)^2.  Its antiderivative is a cubic
and is always evaluated in closed form.  The two stretch factors are

    d(r)    = 1 + i s(r),
    dbar(r) = 1 + (i/r) * integral_rho^r s(t) dt,

and the map has the Jacobian J = diag(d, dbar) in the (radial, tangential)
frame.  Pulling the vacuum curl-curl form (mu = eps = 1 in rescaled units)
back through it (Collino & Monk, SIAM J. Sci. Comput. 19, 1998) turns its
coefficients into

    1      -> 1/(d dbar)                    on the 2D curl, as curl E =
                                            det J curl E~,
    1      -> diag(dbar/d, d/dbar)          on the field, det J J^-1 J^-T in
                                            the (radial, tangential) frame,
    sigma  -> sigma/d                       on sheet faces inside the layer,
                                            as ds~ = d ds and E~_t = E_t/d.

Inside r <= rho every factor is exactly one and the coefficients are exactly
vacuum's.  This module is the one place that knows it: stretch_arrays and
material_arrays evaluate the profile only at the points beyond rho and give
every other point one and the identity, so a caller neither tests radii nor
forms the identity itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PmlSpec:
    """Outer radius and strength of the absorbing layer on 0.8 R <= r <= R."""

    R: float
    s0: float = 2.0

    def __post_init__(self):
        if not 0 < self.R < np.inf:
            raise ValueError(f"disk radius must be positive and finite, got {self.R}")
        if not 0 <= self.s0 < np.inf:
            raise ValueError(f"stretch strength must be finite and nonnegative, got {self.s0}")

    @property
    def rho(self) -> float:
        """Inner radius of the layer."""
        return 0.8 * self.R


def profile(r, spec: PmlSpec):
    """Stretch profile s(r); vanishes with its derivative at the inner rim."""
    r = np.asarray(r, dtype=float)
    width = spec.R - spec.rho
    s = spec.s0 * np.clip(r - spec.rho, 0.0, None) ** 2 / width**2
    return s if s.ndim else float(s)


def profile_integral(r, spec: PmlSpec):
    """Closed-form integral of s from rho to r (cubic antiderivative)."""
    r = np.asarray(r, dtype=float)
    width = spec.R - spec.rho
    out = spec.s0 * np.clip(r - spec.rho, 0.0, None) ** 3 / (3.0 * width**2)
    return out if out.ndim else float(out)


def _layer(pts: np.ndarray, spec: PmlSpec):
    """The points beyond rho: their mask (n,), and their radii r, stretch
    factors d and dbar, one entry per point in the layer."""
    r = np.hypot(pts[:, 0], pts[:, 1])
    layer = r > spec.rho
    r = r[layer]
    return layer, r, 1.0 + 1j * profile(r, spec), 1.0 + 1j * profile_integral(r, spec) / r


def stretch_arrays(pts: np.ndarray, spec: PmlSpec):
    """Vectorized stretch factors d (n,) and dbar (n,); exactly one where r <= rho."""
    layer, _, d_layer, dbar_layer = _layer(np.asarray(pts, dtype=float), spec)
    d, dbar = np.ones((2, len(layer)), dtype=complex)
    d[layer], dbar[layer] = d_layer, dbar_layer
    return d, dbar


def material_arrays(pts: np.ndarray, spec: PmlSpec):
    """PML-modified volume coefficients of vacuum at many points.

    Returns (inv_mu_eff (n,), eps_eff (n,2,2)): one and the identity where
    r <= rho, evaluated only at the points beyond it.  eps_eff is complex
    symmetric by construction.
    """
    pts = np.asarray(pts, dtype=float)
    layer, r, d, dbar = _layer(pts, spec)
    inv_mu = np.ones(len(pts), dtype=complex)
    eps_eff = np.tile(np.eye(2, dtype=complex), (len(pts), 1, 1))
    e_r = pts[layer] / r[:, None]
    outer = e_r[:, :, None] * e_r[:, None, :]
    inv_mu[layer] = 1.0 / (d * dbar)
    eps_eff[layer] = ((d / dbar)[:, None, None] * np.eye(2)[None, :, :]
                      + (dbar / d - d / dbar)[:, None, None] * outer)
    return inv_mu, eps_eff


def sheet_arrays(pts: np.ndarray, sigma_r: complex, spec: PmlSpec):
    """PML-modified sheet conductivity sigma/d at points on the sheet."""
    d, _ = stretch_arrays(pts, spec)
    return sigma_r / d
