"""Test helpers shared by several test modules (not collected by pytest)."""

import dataclasses

import numpy as np
import scipy.sparse as sp

from sppsim import pml as pml_mod
from sppsim.assembly import (ComplexSystem, Interior, _constraint_map, _volume_local,
                             assemble_interface, assemble_volume, assemble_volume_boundary,
                             condense, inner_cells)
from sppsim.fespace import (N_DOFS_CELL, N_EDGE_DOFS, REF, build_constraints, dof_signs,
                            face_quadrature, gauss01)
from sppsim.mesh import cell_geometry, jacobian_det


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
    jinv = np.linalg.inv(jac)
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


def field_values(sol, cids, ref_pts):
    """Values (n, p, 2) of the field sol (a FieldSolution) at reference points
    of the cells cids, (p, 2) shared by all cells or (n, p, 2) per cell.

    The reference evaluator of the tests: the mapped basis (shape_eval)
    contracted with each cell's coefficients.
    """
    space = sol.space
    vals, _ = shape_eval(space, cids, ref_pts)
    local = sol.coeffs[space.cell_dofs[space.rank[np.asarray(cids, dtype=np.int64)]]]
    return np.einsum("npbc,nb->npc", vals, local)


def scatter_full(space, ranks, local, slots=None):
    """The local matrices local[k] (n, d, d) on the dofs in the slots slots[k]
    (n, d) of the active cell of rank ranks[k], its first d dofs by default,
    summed into one CSR matrix over all dofs.  A face term (ranks, local
    matrices, slots) of assembly fits the arguments as they are."""
    dofs = space.cell_dofs[ranks, :local.shape[1]]
    if slots is not None:
        dofs = np.take_along_axis(space.cell_dofs[ranks], slots, axis=1)
    return sp.coo_matrix((local.ravel(), (np.repeat(dofs, dofs.shape[1], axis=1).ravel(),
                                          np.tile(dofs, (1, dofs.shape[1])).ravel())),
                         shape=(space.n_dofs, space.n_dofs)).tocsr()


def split_volume(space, model):
    """The condensed volume term of all active cells, in rank order, as a solve
    pair splits it: the inner cells once per shape class
    (assemble_volume_boundary) and the outer cells one by one
    (assemble_volume).  Returns (Schur complements, Interior)."""
    inner = inner_cells(space, model)
    schur_in, interior_in = assemble_volume_boundary(space, model, space.active[inner])
    schur_out, interior_out = assemble_volume(space, model, space.active[~inner])
    n, e, i = len(space.active), N_EDGE_DOFS, N_DOFS_CELL - N_EDGE_DOFS
    schur = np.empty((n, e, e), dtype=complex)
    k_ii = np.empty((n, i, i), dtype=complex)
    w = np.empty((n, i, e), dtype=complex)
    schur[inner], k_ii[inner], w[inner] = schur_in, interior_in.k_ii, interior_in.w
    schur[~inner], k_ii[~inner], w[~inner] = schur_out, interior_out.k_ii, interior_out.w
    return schur, Interior(cids=space.active, k_ii=k_ii, w=w)


def pair_terms(space, model):
    """A solve pair's terms over all active cells in one part: the condensed
    volume (split_volume) and the sheet faces."""
    return split_volume(space, model), assemble_interface(space, model)


def one_part_system(space, cs, model):
    """The load-free system of a solve pair condensed in one part, without
    assemble_fixed's split into a fixed and a per-model part."""
    volume, faces = pair_terms(space, model)
    matrix, rows = condense(space, cs, volume, faces)
    return ComplexSystem(matrix=matrix, space=space, k_ii=volume[1].k_ii,
                         constraints=dataclasses.replace(
                             cs, matrix=_constraint_map(space, cs, rows)))


def full_dof_matrix(space, model):
    """A solve pair's Schur complements and sheet term summed over all dofs."""
    (schur, _), faces = pair_terms(space, model)
    return (scatter_full(space, space.rank[space.active], schur)
            + scatter_full(space, *faces))


def product_reference(space, cs, model):
    """A solve pair's matrix and constraint map P, multiplied out globally.

    The reference that the cell-by-cell condensation (assembly.condense) is
    checked against: C^T (full_dof_matrix) C, and P = C + coupling C with
    coupling holding -W of each cell on its edge dofs in each of its
    interior rows, both by sparse matrix products.
    """
    c = cs.matrix
    matrix = (c.T @ full_dof_matrix(space, model) @ c).tocsc()
    w = split_volume(space, model)[1].w
    e, i, n = N_EDGE_DOFS, N_DOFS_CELL - N_EDGE_DOFS, len(space.active)
    coupling = sp.csr_matrix(
        (-w.ravel(), np.repeat(space.cell_dofs[:, None, :e], i, axis=1).ravel(),
         np.concatenate([np.zeros(space.n_edge_dofs, dtype=np.int64),
                         e * np.arange(i * n + 1)])),
        shape=(space.n_dofs, space.n_dofs))
    return matrix, (c + coupling @ c).tocsr()


def uncondensed_matrix(space, model):
    """The 12-dof system matrix over all dofs: volume and sheet terms.

    The reference that condensation is checked against, and the only
    assembly of the uncondensed system: each active cell's local matrix
    (assembly._volume_local) is scattered on all twelve of its dofs, and the
    sheet term takes the tangential traces of all twelve mapped basis
    functions (shape_eval), interior ones included.
    """
    mat = scatter_full(space, space.rank[space.active],
                       _volume_local(space, model, space.active))
    if model.sigma_r == 0:
        return mat
    table = space.sheet_faces
    ref, phys, wds, tangent, _ = face_quadrature(space.mesh, table.owner, table.ledge)
    sigma_eff = pml_mod.sheet_arrays(phys.reshape(-1, 2), model.sigma_r,
                                     model.pml).reshape(phys.shape[:2])
    tang = np.einsum("fpbi,fpi->fpb", shape_eval(space, table.owner, ref)[0], tangent)
    local = np.einsum("fp,fpb,fpd->fbd", -1j * wds * sigma_eff, tang, tang)
    return mat + scatter_full(space, space.rank[table.owner], local)


def uncondensed_constraints(space):
    """Constraint map (n_dofs, n_master + 4 n_active) of the 12-dof system: the
    hanging-edge map on the edge masters, then the identity on the interior dofs."""
    n_interior = space.n_dofs - space.n_edge_dofs
    interior = sp.csr_matrix((np.ones(n_interior),
                              (np.arange(space.n_edge_dofs, space.n_dofs),
                               np.arange(n_interior))),
                             shape=(space.n_dofs, n_interior))
    return sp.hstack([build_constraints(space).matrix, interior]).tocsr()
