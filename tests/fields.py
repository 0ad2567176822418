"""Test helpers shared by several test modules (not collected by pytest)."""

import numpy as np
import scipy.sparse as sp

from sppsim import pml as pml_mod
from sppsim.assembly import _volume_local
from sppsim.fespace import (N_DOFS_CELL, REF, build_constraints, dof_signs, face_quadrature,
                            gauss01)
from sppsim.mesh import cell_geometry, jacobian_det, jacobian_inv


def interpolate(space, fun) -> np.ndarray:
    """Dof-moment interpolation of an analytic vector field fun(points)->(n,2)."""
    mesh, cids = space.mesh, space.active
    n = len(cids)
    local = np.empty((n, N_DOFS_CELL), dtype=complex)
    te, _ = gauss01(3)
    for ledge in range(4):
        _, phys, wds, tangent, _ = face_quadrature(mesh, cids, np.full(n, ledge), 3)
        ftan = wds * np.einsum("npi,npi->np", fun(phys.reshape(-1, 2)).reshape(phys.shape),
                               tangent)
        local[:, 2 * ledge] = ftan.sum(axis=1)
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
    # the constant edge moments are taken along the global edge direction
    coeffs[space.cell_dofs] = local * dof_signs(space, cids)
    return coeffs


def shape_eval(space, cids, ref_pts):
    """Mapped basis values (n, p, 12, 2) and curls (n, p, 12) on many cells.

    The reference that the reference-frame kernels are checked against: the
    reference basis times each cell's dof signs is evaluated at its points
    and mapped point by point, phi = J^{-T} v and curl phi = curl v / det J.
    ref_pts is (p, 2) shared by all cells or (n, p, 2) per cell.
    """
    cids = np.asarray(cids, dtype=np.int64)
    ref_pts = np.asarray(ref_pts, dtype=float)
    _, jac = cell_geometry(space.mesh, cids, ref_pts)
    det = jacobian_det(jac)
    jinv = jacobian_inv(jac, det)
    n, p = det.shape
    signs = dof_signs(space, cids)
    vals = np.empty((n, p, N_DOFS_CELL, 2))
    curls = np.empty((n, p, N_DOFS_CELL))
    for k in range(n):
        pts = ref_pts[k] if ref_pts.ndim == 3 else ref_pts
        vref, cref = REF.basis_at(pts)
        vals[k] = (vref * signs[k][:, None]) @ jinv[k]
        curls[k] = cref * signs[k] / det[k][:, None]
    return vals, curls


def _scatter_full(space, cids, local):
    dofs = space.cell_dofs[space.rank[cids]]
    return sp.coo_matrix((local.ravel(), (np.repeat(dofs, N_DOFS_CELL, axis=1).ravel(),
                                          np.tile(dofs, (1, N_DOFS_CELL)).ravel())),
                         shape=(space.n_dofs, space.n_dofs)).tocsr()


def uncondensed_matrix(space, model):
    """The 12-dof system matrix over all dofs: volume, rim and sheet terms.

    The reference that condensation is checked against, and the only
    assembly of the uncondensed system: each active cell's local matrix
    (assembly._volume_local) is scattered on all twelve of its dofs, and the
    face terms take the tangential traces of all twelve mapped basis
    functions (shape_eval), interior ones included.
    """
    mat = _scatter_full(space, space.active, _volume_local(space, model, space.active))
    faces = [(space.rim_faces, lambda pts: np.full(pts.shape[:2], -1j))]
    if model.sigma_r != 0:
        faces.append((space.sheet_faces, lambda pts: -1j * pml_mod.sheet_arrays(
            pts.reshape(-1, 2), model.sigma_r, model.pml).reshape(pts.shape[:2])))
    for table, coef in faces:
        ref, phys, wds, tangent, _ = face_quadrature(space.mesh, table.owner, table.ledge)
        tang = np.einsum("fpbi,fpi->fpb", shape_eval(space, table.owner, ref)[0], tangent)
        local = np.einsum("fp,fpb,fpd->fbd", wds * coef(phys), tang, tang)
        mat = mat + _scatter_full(space, table.owner, local)
    return mat


def uncondensed_constraints(space):
    """Constraint map (n_dofs, n_master + 4 n_active) of the 12-dof system: the
    hanging-edge map on the edge masters, then the identity on the interior dofs."""
    n_interior = space.n_dofs - space.n_edge_dofs
    interior = sp.csr_matrix((np.ones(n_interior),
                              (np.arange(space.n_edge_dofs, space.n_dofs),
                               np.arange(n_interior))),
                             shape=(space.n_dofs, n_interior))
    return sp.hstack([build_constraints(space).matrix, interior]).tocsr()
