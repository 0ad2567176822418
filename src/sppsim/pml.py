"""Radial complex coordinate stretch in the outer annulus of the disk.

The stretch acts for r >= rho = 0.8 R with the quadratic profile
s(r) = s0 (r - rho)^2 / (R - rho)^2.  Its antiderivative is a cubic
and is always evaluated in closed form.  The two stretch factors are

    d(r)    = 1 + i s(r),
    dbar(r) = 1 + (i/r) * integral_rho^r s(t) dt,

and they turn the vacuum coefficients of the curl-curl form (mu = eps = 1 in
rescaled units) into

    1      -> 1/d                           on the 2D curl,
    1      -> diag(dbar^2/d, d)             on the field, in the (radial,
                                            tangential) frame,
    sigma  -> sigma * dbar/d                on sheet faces inside the layer.

Outside the layer every factor is exactly one.
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
        if not self.R > 0:
            raise ValueError("disk radius must be positive")
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


def stretch_arrays(pts: np.ndarray, spec: PmlSpec):
    """Vectorized stretch factors: d (n,), dbar (n,), radial direction (n,2)."""
    pts = np.asarray(pts, dtype=float)
    r = np.hypot(pts[:, 0], pts[:, 1])
    d = 1.0 + 1j * profile(r, spec)
    central = r < 1e-12 * spec.R   # identity region; radial direction immaterial
    safe_r = np.where(central, 1.0, r)
    dbar = 1.0 + 1j * profile_integral(r, spec) / safe_r
    e_r = np.where(central[:, None], np.array([1.0, 0.0])[None, :],
                   pts / safe_r[:, None])
    return d, dbar, e_r


def material_arrays(pts: np.ndarray, spec: PmlSpec):
    """PML-modified volume coefficients of vacuum at many points.

    Returns (inv_mu_eff (n,), eps_eff (n,2,2)); one and the identity outside
    the layer.  eps_eff is complex symmetric by construction.
    """
    d, dbar, e_r = stretch_arrays(pts, spec)
    eps_rad = dbar**2 / d
    eye = np.eye(2)[None, :, :]
    outer = e_r[:, :, None] * e_r[:, None, :]
    eps_eff = d[:, None, None] * eye + (eps_rad - d)[:, None, None] * outer
    return 1.0 / d, eps_eff


def sheet_arrays(pts: np.ndarray, sigma_r: complex, spec: PmlSpec):
    """PML-modified sheet conductivity sigma * dbar/d at points on the sheet."""
    d, dbar, _ = stretch_arrays(pts, spec)
    return sigma_r * dbar / d
