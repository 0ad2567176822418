"""Test helpers shared by several test modules (not collected by pytest)."""

import numpy as np

from sppsim.fespace import N_DOFS_CELL, REF, face_quadrature, gauss01
from sppsim.mesh import cell_geometry


def interpolate(space, fun) -> np.ndarray:
    """Dof-moment interpolation of an analytic vector field fun(points)->(n,2)."""
    mesh, cids = space.mesh, space.active
    n = len(cids)
    local = np.empty((n, N_DOFS_CELL), dtype=complex)
    te, _ = gauss01(3)
    for ledge in range(4):
        _, phys, wds, tangent = face_quadrature(mesh, cids, np.full(n, ledge), 3)
        ftan = wds * np.einsum("npi,npi->np", fun(phys.reshape(-1, 2)).reshape(phys.shape),
                               tangent)
        sign = 1 - 2 * ((space.orient_idx >> ledge) & 1)   # global edge direction
        local[:, 2 * ledge] = sign * ftan.sum(axis=1)
        local[:, 2 * ledge + 1] = ftan @ (2 * te - 1)
    phys, jac = cell_geometry(mesh, cids, REF._bulk_pts)
    pull = np.einsum("npji,npj->npi", jac, fun(phys.reshape(-1, 2)).reshape(phys.shape))
    xi, eta = REF._bulk_pts.T
    w = REF._bulk_wts
    local[:, 8] = pull[:, :, 0] @ w
    local[:, 9] = pull[:, :, 0] @ (w * (2 * xi - 1))
    local[:, 10] = pull[:, :, 1] @ w
    local[:, 11] = pull[:, :, 1] @ (w * (2 * eta - 1))
    coeffs = np.zeros(space.n_dofs, dtype=complex)
    coeffs[space.cell_dofs] = local
    return coeffs
