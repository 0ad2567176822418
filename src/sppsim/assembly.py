"""Assembly of the complex linear system for the sheet-scattering weak form.

The sesquilinear form, with all coefficients PML-modified inside the layer, is

    A(E, v) =   int_Omega  (1/mu_eff) (curl E)(curl conj v)
              - int_Omega  (eps_eff E) . conj v
              - i int_Sheet   sigma_eff E_t conj(v_t)
              - i int_Rim     sqrt(eps_r/mu_r) E_t conj(v_t)

and the dipole right-hand side is F(v) = i int j_reg . conj v with a cosine
bump regularization of the point dipole.  Basis functions are real, so the
assembled matrix is complex symmetric (M = M^T entrywise, not Hermitian).

The sheet integral runs over leaf faces and is evaluated from the finest
adjacent cell; in the constrained space the tangential trace is single valued
across every face, so the choice of side does not matter.  The rim impedance
coefficient is deliberately unstretched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import pml as pml_mod
from .fespace import (N_DOFS_CELL, REF, ConstraintSet, EdgeFESpace,
                      FieldSolution, _mapped_basis, face_quadrature, shape_eval)
from .mesh import (SHAPE_RESOLUTION, boundary_faces, cell_diameters,
                   cells_intersecting_disk)
from .pml import PmlSpec

DIPOLE_NORM = 1.0 / (np.pi / 2.0 - 2.0 / np.pi)


class AssemblyError(Exception):
    pass


@dataclass(frozen=True)
class DipoleSpec:
    """Regularized vertical dipole at (0, height) with unit strength."""

    height: float
    radius: float

    def __post_init__(self):
        if not self.height > 0:
            raise ValueError("dipole must sit strictly above the sheet")
        if not self.radius > 0:
            raise ValueError("regularization radius must be positive")

    @property
    def position(self) -> np.ndarray:
        return np.array([0.0, self.height])

    def density(self, pts: np.ndarray) -> np.ndarray:
        """Cosine-squared bump of unit mass."""
        r = np.linalg.norm(np.asarray(pts, dtype=float) - self.position, axis=-1)
        out = np.zeros_like(r)
        inside = r < self.radius
        out[inside] = (DIPOLE_NORM / self.radius**2
                       * np.cos(np.pi * r[inside] / (2 * self.radius)) ** 2)
        return out


@dataclass(frozen=True)
class SheetModel:
    """Rescaled configuration shared by the solver and the reference solution."""

    sigma_r: complex
    pml: PmlSpec
    dipole: DipoleSpec
    mu_r: complex = 1.0
    eps_r: complex = 1.0

    def __post_init__(self):
        if complex(self.sigma_r).imag < 0:
            raise ValueError("passive sheets require Im(sigma_r) >= 0")


@dataclass
class ComplexSystem:
    """Condensed complex sparse system with its constraint handler."""

    matrix: sp.csc_matrix
    rhs: np.ndarray
    space: EdgeFESpace
    constraints: ConstraintSet


CHUNK_CELLS = 16384


def _volume_tables(space: EdgeFESpace, cids=None):
    """Geometry and physical bases at the standard quadrature points, batched."""
    if cids is None:
        cids = space.active
    ranks = space.rank[cids]
    return (ranks,) + _mapped_basis(space, cids, REF.quad_pts, REF.basis_at_quad)


def iter_volume_tables(space: EdgeFESpace, cids=None):
    """Chunked _volume_tables; bounds peak memory on large meshes."""
    if cids is None:
        cids = space.active
    for lo in range(0, len(cids), CHUNK_CELLS):
        yield _volume_tables(space, cids[lo:lo + CHUNK_CELLS])


def _gram(basis, weighted) -> np.ndarray:
    """Local matrices sum_q basis[n, q, b] weighted[n, q, d] as batched matmuls.

    basis is real; the real and imaginary parts of weighted go through two
    real matmuls, which spares a complex copy of basis.
    """
    basis_t = basis.transpose(0, 2, 1)
    out = np.empty(basis_t.shape[:2] + weighted.shape[2:], dtype=complex)
    out.real = basis_t @ weighted.real
    out.imag = basis_t @ weighted.imag
    return out


def _scatter(space: EdgeFESpace, dofs, local) -> sp.csc_matrix:
    """Global matrix of the local matrices local[k] on the dof rows dofs[k]."""
    rows = np.repeat(dofs, N_DOFS_CELL, axis=1).ravel()
    cols = np.tile(dofs, (1, N_DOFS_CELL)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)),
                         shape=(space.n_dofs, space.n_dofs)).tocsc()


def _face_matrix(space: EdgeFESpace, faces, coef) -> sp.csc_matrix:
    """Sum over faces of int coef(x) (phi_b . t)(phi_d . t) ds on each owner edge."""
    cids = np.array([f.owner for f in faces], dtype=np.int64)
    ref, phys, wds, tangent = face_quadrature(space.mesh, cids,
                                              [f.owner_edge for f in faces])
    vals, _ = shape_eval(space, cids, ref)
    tang = np.einsum("fpbi,fpi->fpb", vals, tangent)
    local = _gram(tang, (wds * coef(phys))[:, :, None] * tang)
    return _scatter(space, space.cell_dofs[space.rank[cids]], local)


def _volume_local(model: SheetModel, phys, det, vals, curls) -> np.ndarray:
    """Curl-curl minus mass local matrices (n, 12, 12) from the volume tables."""
    n, p = det.shape
    inv_mu, eps_eff = pml_mod.material_arrays(phys.reshape(-1, 2), model.mu_r,
                                              model.eps_r, model.pml)
    wdet = REF.quad_wts[None, :] * det
    stiff = _gram(curls, (wdet * inv_mu.reshape(n, p))[:, :, None] * curls)
    # mass: the 2-vector values of the p points stacked into 2p rows
    weighted = np.einsum("npij,npbj->npib",
                         wdet[:, :, None, None] * eps_eff.reshape(n, p, 2, 2), vals)
    mass = _gram(vals.transpose(0, 1, 3, 2).reshape(n, 2 * p, N_DOFS_CELL),
                 weighted.reshape(n, 2 * p, N_DOFS_CELL))
    return stiff - mass


def inner_cells(space: EdgeFESpace, model: SheetModel, cids=None) -> np.ndarray:
    """Mask over the active cells cids (default all) on which the stretch is one.

    A cell without an arc edge whose corners all lie within the layer's inner
    radius stays inside that disk, so its local matrix does not depend on the
    layer strength.  Every other cell is an outer cell.
    """
    if cids is None:
        cids = space.active
    mesh = space.mesh
    corners = mesh.cell_corners(cids)
    return (~mesh.arc[cids].any(axis=1)
            & np.all(np.hypot(corners[..., 0], corners[..., 1]) <= model.pml.rho,
                     axis=1))


def shape_classes(space: EdgeFESpace, model: SheetModel, cids=None):
    """Representative cell ids and the class of every active cell in cids.

    An inner cell (inner_cells) with straight parallelogram edges has an affine
    map and constant coefficients, so its local matrix depends only on its two
    edge vectors and its edge-orientation signature.  Such cells share one
    class per (edge vectors quantised to SHAPE_RESOLUTION * R, orient_idx);
    every other cell is a class of its own.  Returns (reps, inverse) with
    reps[inverse[k]] the representative of cids[k] (default space.active).
    """
    if cids is None:
        cids = space.active
    corners = space.mesh.cell_corners(cids)
    quantum = SHAPE_RESOLUTION * space.mesh.R
    v0, v1, v2, v3 = corners.transpose(1, 0, 2)
    shared = (inner_cells(space, model, cids)
              & np.all(np.abs(v0 + v2 - v1 - v3) <= quantum, axis=1))
    key = np.zeros((len(corners), 6), dtype=np.int64)
    key[:, :4] = np.round(np.hstack([v1 - v0, v3 - v0]) / quantum)
    key[:, 4] = space.orient_idx[space.rank[cids]]
    key[:, 5] = np.where(shared, 0, 1 + np.arange(len(corners)))
    _, first, inverse = np.unique(key, axis=0, return_index=True,
                                  return_inverse=True)
    return cids[first], inverse.reshape(-1)


def assemble_volume(space: EdgeFESpace, model: SheetModel, cids) -> sp.csc_matrix:
    """Curl-curl minus mass term of the active cells cids, over all dofs.

    Local matrices are computed once per shape class (shape_classes) and
    scattered chunk by chunk in the order of cids.
    """
    if len(cids) == 0:
        return sp.csc_matrix((space.n_dofs, space.n_dofs), dtype=complex)
    reps, inverse = shape_classes(space, model, cids)
    local = np.concatenate([_volume_local(model, *tables[1:])
                            for tables in iter_volume_tables(space, reps)])
    dofs = space.cell_dofs[space.rank[cids]]
    return sum(_scatter(space, dofs[lo:lo + CHUNK_CELLS],
                        local[inverse[lo:lo + CHUNK_CELLS]])
               for lo in range(0, len(cids), CHUNK_CELLS))


def _rim_matrix(space: EdgeFESpace, model: SheetModel) -> sp.csc_matrix:
    """Rim impedance term -i sqrt(eps_r/mu_r) int E_t conj(v_t), unstretched."""
    impedance = complex(np.sqrt(complex(model.eps_r) / complex(model.mu_r)))
    return _face_matrix(space, boundary_faces(space.mesh), lambda x: -1j * impedance)


def assemble_volume_boundary(space: EdgeFESpace, model: SheetModel) -> sp.csc_matrix:
    """Volume and rim terms over all dofs: the sum of the parts of a solve pair."""
    inner = inner_cells(space, model)
    return (assemble_volume(space, model, space.active[inner])
            + _rim_matrix(space, model)
            + assemble_volume(space, model, space.active[~inner]))


def assemble_interface(space: EdgeFESpace, model: SheetModel) -> sp.csc_matrix:
    """Sheet term -i int sigma_eff E_t conj(v_t) over leaf faces, full dof set."""
    if model.sigma_r == 0:
        return sp.csc_matrix((space.n_dofs, space.n_dofs), dtype=complex)
    return _face_matrix(
        space, space.sheet_faces,
        lambda x: -1j * pml_mod.sheet_arrays(x.reshape(-1, 2), model.sigma_r,
                                             model.pml).reshape(x.shape[:2]))


def assemble_dipole_rhs(space: EdgeFESpace, model: SheetModel) -> np.ndarray:
    """F_i = i int j_reg . conj(phi_i)."""
    dip = model.dipole
    cids = cells_intersecting_disk(space.mesh, dip.position, dip.radius)
    if len(cids) == 0:
        raise AssemblyError("no cells near the dipole; mesh does not cover it")
    dmax = cell_diameters(space.mesh, cids).max()
    if dmax > 0.5 * dip.radius:
        raise AssemblyError(
            f"dipole regularization unresolved: cell diameter {dmax:.3g} exceeds "
            f"half the radius {dip.radius:.3g}; refine the mesh near the dipole")
    rhs = np.zeros(space.n_dofs, dtype=complex)
    ranks, phys, det, vals, _ = _volume_tables(space, cids)
    dens = dip.density(phys.reshape(-1, 2)).reshape(det.shape)
    local = 1j * np.einsum("np,npb->nb", REF.quad_wts[None, :] * det * dens,
                           vals[:, :, :, 1])
    np.add.at(rhs, space.cell_dofs[ranks].ravel(), local.ravel())
    return rhs


def assemble_dual_rhs(space: EdgeFESpace, primal: FieldSolution, weight) -> np.ndarray:
    """Derivative of the goal functional int w |curl E|^2 at the discrete primal.

    Component i is int w (curl phi_i) conj(curl E_H); linear in conj(E_H).
    """
    w_q = REF.quad_wts
    rhs = np.zeros(space.n_dofs, dtype=complex)
    for ranks, phys, det, vals, curls in iter_volume_tables(space):
        wvals = weight(phys.reshape(-1, 2)).reshape(det.shape)
        local_coeffs = primal.coeffs[space.cell_dofs[ranks]]
        curl_e = np.einsum("nb,npb->np", local_coeffs, curls)
        local = np.einsum("np,npb->nb", w_q[None, :] * det * wvals * np.conj(curl_e),
                          curls)
        np.add.at(rhs, space.cell_dofs[ranks].ravel(), local.ravel())
    return rhs


def condense(matrix: sp.spmatrix, rhs: np.ndarray, constraints: ConstraintSet):
    """C^T matrix C as a canonical CSC matrix, and C^T rhs (None stays None).

    The CSC arrays of C^T A C are the CSR arrays of C^T A^T C, which three CSR
    operands give directly: A^T is the transpose view of the CSC of A.
    """
    ct = constraints.transpose
    product = (ct @ (sp.csc_matrix(matrix).T @ constraints.matrix)).T
    product.sort_indices()
    return product, None if rhs is None else ct @ rhs


@dataclass
class FixedPart:
    """The condensed part of a solve pair that the layer strength and the
    conductivity leave unchanged: inner-cell volume, rim and dipole terms.

    It is built once per mesh and serves every model that shares its
    materials, dipole and layer radii.
    """

    space: EdgeFESpace
    constraints: ConstraintSet
    matrix: sp.csc_matrix      # condensed inner volume + rim
    rhs: np.ndarray            # condensed dipole right-hand side
    outer: np.ndarray          # active cell ids left to the per-model part
    key: tuple


def _fixed_key(model: SheetModel) -> tuple:
    return (model.mu_r, model.eps_r, model.dipole, model.pml.R, model.pml.rho)


def assemble_fixed(space: EdgeFESpace, constraints: ConstraintSet,
                   model: SheetModel) -> FixedPart:
    """Assemble and condense the model-independent part of a solve pair once."""
    rhs = assemble_dipole_rhs(space, model)
    inner = inner_cells(space, model)
    matrix, rhs_c = condense(assemble_volume(space, model, space.active[inner])
                             + _rim_matrix(space, model), rhs, constraints)
    return FixedPart(space=space, constraints=constraints, matrix=matrix,
                     rhs=rhs_c, outer=space.active[~inner], key=_fixed_key(model))


def assemble_pair(fixed: FixedPart, model: SheetModel):
    """Condensed matrices (without sheet, with sheet) of one model on fixed's mesh.

    Only the outer cells' volume term and the sheet term are assembled here;
    each is condensed on its own and added to the fixed part.
    """
    if _fixed_key(model) != fixed.key:
        raise ValueError("the fixed part was built for other materials, dipole "
                         "or layer radii")
    space, cs = fixed.space, fixed.constraints
    outer, _ = condense(assemble_volume(space, model, fixed.outer), None, cs)
    sheet, _ = condense(assemble_interface(space, model), None, cs)
    mat_0 = fixed.matrix + outer
    return mat_0, mat_0 + sheet
