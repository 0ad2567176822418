"""Assembly of the complex linear system for the sheet-scattering weak form.

The medium around the sheet is vacuum (mu = eps = 1 in rescaled units).  The
sesquilinear form, with all coefficients PML-modified inside the layer, is

    A(E, v) =   int_Omega  (1/mu_eff) (curl E)(curl conj v)
              - int_Omega  (eps_eff E) . conj v
              - i int_Sheet   sigma_eff E_t conj(v_t)
              - i int_Rim     E_t conj(v_t)

and the dipole right-hand side is F(v) = i int j_reg . conj v with a cosine
bump regularization of the point dipole.  Basis functions are real, so the
assembled matrix is complex symmetric (M = M^T entrywise, not Hermitian).

The scattered field E_sc = E - E_inc of the sheet solves the same form with
the sheet load i int_Sheet sigma_eff E_inc,t conj(v_t), where E_inc is the
closed-form field of the unit point dipole in free space (incident_ex).

The sheet integral runs over leaf faces and is evaluated from the finest
adjacent cell; in the constrained space the tangential trace is single valued
across every face, so the choice of side does not matter.  The rim term is
the unstretched vacuum impedance condition.

No mapped basis is ever formed.  With E = J^{-T} E_ref and curl E =
curl_ref E_ref / det J, every integral is a per-cell geometry coefficient
contracted with a reference table of the cell's orientation signature
(fespace.ReferenceElement): the local matrix is [w mu^-1 / det J,
-w det J J^{-1} eps J^{-T}] at the quadrature points times the table of basis
curl and value products, the dipole load takes det J phi_y = (adj J^T v)_y,
the dual load needs no det J at all, and a face integral uses the tangential
trace phi_b . t = (v_b . e) / |dx/dt|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.special import hankel1

from . import pml as pml_mod
from .fespace import (N_DOFS_CELL, REF, ConstraintSet, EdgeFESpace, FaceQuadrature,
                      FieldSolution, face_traces, gemm_real, orientation_groups,
                      positive_det)
from .mesh import cell_diameters, cell_geometry, cells_intersecting_disk
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
# shape-class keys are quantised to this fraction of the disk radius
SHAPE_RESOLUTION = 1e-12


def _scatter(space: EdgeFESpace, dofs, local) -> sp.csc_matrix:
    """Global matrix of the local matrices local[k] on the dof rows dofs[k]."""
    rows = np.repeat(dofs, N_DOFS_CELL, axis=1).ravel()
    cols = np.tile(dofs, (1, N_DOFS_CELL)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)),
                         shape=(space.n_dofs, space.n_dofs)).tocsc()


def _face_matrix(space: EdgeFESpace, quad: FaceQuadrature, coef) -> sp.csc_matrix:
    """Sum over faces of int coef (phi_b . t)(phi_d . t) ds on each owner edge.

    coef is a scalar or (f, p) values at the points quad.phys.
    """
    weighted = (quad.weights * coef)[:, :, None] * quad.traces
    local = gemm_real(weighted.transpose(0, 2, 1), quad.traces)
    return _scatter(space, space.cell_dofs[space.rank[quad.owner]], local)


def _pullback(jac: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """adj(J) eps adj(J)^T = det^2 J^{-1} eps J^{-T} for stacks (..., 2, 2),
    summed elementwise over leading component axes."""
    adj = np.stack([np.stack([jac[..., 1, 1], -jac[..., 0, 1]]),
                    np.stack([-jac[..., 1, 0], jac[..., 0, 0]])])
    eps = np.moveaxis(eps, (-2, -1), (0, 1))
    half = adj[:, 0, None] * eps[None, 0] + adj[:, 1, None] * eps[None, 1]
    out = half[:, None, 0] * adj[None, :, 0] + half[:, None, 1] * adj[None, :, 1]
    return np.moveaxis(out, (0, 1), (-2, -1))


def _volume_local(space: EdgeFESpace, model: SheetModel, cids) -> np.ndarray:
    """Curl-curl minus mass local matrices (n, 12, 12) of the cells cids.

    One coefficient row per cell, [w mu^-1 / det J | -(w / det J) adj eps
    adj^T] at the quadrature points, times REF.volume_products.
    """
    phys, jac = cell_geometry(space.mesh, cids, REF.quad_pts)
    det = positive_det(jac)
    n, p = det.shape
    inv_mu, eps_eff = pml_mod.material_arrays(phys.reshape(-1, 2), model.pml)
    w_det = REF.quad_wts / det
    coef = np.empty((n, 5 * p), dtype=complex)
    coef[:, :p] = w_det * inv_mu.reshape(n, p)
    coef[:, p:] = (-w_det[..., None, None]
                   * _pullback(jac, eps_eff.reshape(n, p, 2, 2))).reshape(n, 4 * p)
    local = np.empty((n, N_DOFS_CELL * N_DOFS_CELL), dtype=complex)
    for oidx, rows in orientation_groups(space, cids):
        local[rows] = gemm_real(coef[rows], REF.volume_products(oidx))
    return local.reshape(n, N_DOFS_CELL, N_DOFS_CELL)


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
    local = np.concatenate([_volume_local(space, model, reps[lo:lo + CHUNK_CELLS])
                            for lo in range(0, len(reps), CHUNK_CELLS)])
    dofs = space.cell_dofs[space.rank[cids]]
    return sum(_scatter(space, dofs[lo:lo + CHUNK_CELLS],
                        local[inverse[lo:lo + CHUNK_CELLS]])
               for lo in range(0, len(cids), CHUNK_CELLS))


def _rim_matrix(space: EdgeFESpace) -> sp.csc_matrix:
    """Rim impedance term -i int E_t conj(v_t), unstretched."""
    return _face_matrix(space, face_traces(space, space.rim_faces), -1j)


def assemble_volume_boundary(space: EdgeFESpace, model: SheetModel) -> sp.csc_matrix:
    """Volume and rim terms over all dofs: the sum of the parts of a solve pair."""
    inner = inner_cells(space, model)
    return (assemble_volume(space, model, space.active[inner])
            + _rim_matrix(space)
            + assemble_volume(space, model, space.active[~inner]))


def assemble_interface(space: EdgeFESpace, model: SheetModel) -> sp.csc_matrix:
    """Sheet term -i int sigma_eff E_t conj(v_t) over leaf faces, full dof set."""
    if model.sigma_r == 0:
        return sp.csc_matrix((space.n_dofs, space.n_dofs), dtype=complex)
    quad = space.sheet_quadrature
    sigma_eff = pml_mod.sheet_arrays(quad.phys.reshape(-1, 2), model.sigma_r, model.pml)
    return _face_matrix(space, quad, -1j * sigma_eff.reshape(quad.weights.shape))


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
    phys, jac = cell_geometry(space.mesh, cids, REF.quad_pts)
    positive_det(jac)
    n, p = len(cids), len(REF.quad_wts)
    wdens = 1j * REF.quad_wts * dip.density(phys.reshape(-1, 2)).reshape(n, p)
    # w det J phi_y = w (adj(J)^T v)_y = w (-J_01 v_x + J_00 v_y)
    coef = np.stack([-jac[..., 0, 1] * wdens, jac[..., 0, 0] * wdens], axis=-1)
    local = np.empty((n, N_DOFS_CELL), dtype=complex)
    for oidx, rows in orientation_groups(space, cids):
        vals = REF.basis_at_quad(oidx)[0].transpose(0, 2, 1).reshape(2 * p, N_DOFS_CELL)
        local[rows] = gemm_real(coef[rows].reshape(-1, 2 * p), vals)
    rhs = np.zeros(space.n_dofs, dtype=complex)
    np.add.at(rhs, space.cell_dofs[space.rank[cids]].ravel(), local.ravel())
    return rhs


def incident_ex(x, height: float, pml: PmlSpec) -> np.ndarray:
    """PML-transformed E_x on the sheet of the unit point dipole at (0, height).

    In free space E_inc = (I + grad div)(G i e_y) with G = (i/4) H0(r), so on
    y = 0 E_x = -(1/4) d_x d_y H0 = (a x/4) (2 H1(r)/r - H0(r))/r^2 with
    a = height and r = sqrt(x^2 + a^2).  Inside the layer it is taken at the
    stretched x~ = x dbar(x), with r~ on the principal branch, and times
    d(x), the Jacobian of x -> x~; outside it every factor is one.
    """
    x = np.asarray(x, dtype=float)
    d, dbar, _ = pml_mod.stretch_arrays(np.column_stack([x, np.zeros_like(x)]), pml)
    xt = x * dbar
    r = np.sqrt(xt**2 + height**2)
    # no r**3: numpy's complex cube is r*r*r and its real one libm pow, and
    # outside the layer this must give the free-space formula's bits
    return d * (height * xt / 4 * (2 * hankel1(1, r) / r - hankel1(0, r)) / r**2)


def assemble_sheet_load(space: EdgeFESpace, model: SheetModel) -> np.ndarray:
    """Load i int_Sheet sigma_eff E_inc,t (phi_i . t) ds of the scattered field.

    Over leaf sheet faces, full dof set; E_inc is incident_ex.  It is the
    negative sheet term of the matrix applied to E_inc.
    """
    quad = space.sheet_quadrature
    pts = quad.phys.reshape(-1, 2)
    coef = 1j * (pml_mod.sheet_arrays(pts, model.sigma_r, model.pml)
                 * incident_ex(pts[:, 0], model.dipole.height, model.pml))
    # the sheet is {y = 0}, so E_inc,t = E_x t_x
    local = np.einsum("fp,fpb->fb",
                      quad.weights * coef.reshape(quad.weights.shape) * quad.tangent[..., 0],
                      quad.traces)
    rhs = np.zeros(space.n_dofs, dtype=complex)
    np.add.at(rhs, space.cell_dofs[space.rank[quad.owner]].ravel(), local.ravel())
    return rhs


def _band_cells(space: EdgeFESpace, half_width: float) -> np.ndarray:
    """Active cells that can meet the band |y| <= half_width: every arc cell,
    and the straight cells whose corners' y range meets the band (a bilinear
    map keeps each point's y between its corners' y)."""
    mesh, cids = space.mesh, space.active
    ys = mesh.cell_corners(cids)[..., 1]
    reach = half_width + mesh._tol
    meets = (ys.min(axis=1) <= reach) & (ys.max(axis=1) >= -reach)
    return cids[meets | mesh.arc[cids].any(axis=1)]


def assemble_dual_rhs(space: EdgeFESpace, primal: FieldSolution, weight) -> np.ndarray:
    """Derivative of the goal functional int w |curl E|^2 at the discrete primal.

    Component i is int w (curl phi_i) conj(curl E_H); linear in conj(E_H).
    weight (a dwr.WeightFunction) vanishes outside |y| <= weight.half_width,
    so only the cells that can meet that band are visited (_band_cells).
    """
    return _dual_rhs(space, primal, weight, _band_cells(space, weight.half_width))


def _dual_rhs(space: EdgeFESpace, primal: FieldSolution, weight, cids) -> np.ndarray:
    """The dual right-hand side summed over the cells cids, in chunks.

    With curl phi_b = curl_ref v_b / det J the weight w det J cancels one
    det J: the load is w conj(curl E_H) per point times the reference curls.
    The contractions are einsums, not BLAS products, so that a cell's
    numbers do not depend on the other cells of its chunk, and the band
    cells alone give the all-cells sum bit for bit (off the band the weight
    is exactly zero).
    """
    rhs = np.zeros(space.n_dofs, dtype=complex)
    for lo in range(0, len(cids), CHUNK_CELLS):
        chunk = cids[lo:lo + CHUNK_CELLS]
        phys, jac = cell_geometry(space.mesh, chunk, REF.quad_pts)
        det = positive_det(jac)
        wvals = REF.quad_wts * weight(phys.reshape(-1, 2)).reshape(det.shape)
        dofs = space.cell_dofs[space.rank[chunk]]
        local = np.empty(dofs.shape, dtype=complex)
        for oidx, rows in orientation_groups(space, chunk):
            curls = REF.basis_at_quad(oidx)[1]
            curl_e = np.einsum("nb,pb->np", primal.coeffs[dofs[rows]], curls) / det[rows]
            local[rows] = np.einsum("np,pb->nb", wvals[rows] * np.conj(curl_e), curls)
        np.add.at(rhs, dofs.ravel(), local.ravel())
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

    It is built once per mesh and serves every model that shares its dipole
    and disk radius.
    """

    space: EdgeFESpace
    constraints: ConstraintSet
    matrix: sp.csc_matrix      # condensed inner volume + rim
    rhs: np.ndarray            # condensed dipole right-hand side
    outer: np.ndarray          # active cell ids left to the per-model part
    key: tuple


def _fixed_key(model: SheetModel) -> tuple:
    return (model.dipole, model.pml.R)


def assemble_fixed(space: EdgeFESpace, constraints: ConstraintSet,
                   model: SheetModel) -> FixedPart:
    """Assemble and condense the model-independent part of a solve pair once."""
    rhs = assemble_dipole_rhs(space, model)
    inner = inner_cells(space, model)
    matrix, rhs_c = condense(assemble_volume(space, model, space.active[inner])
                             + _rim_matrix(space), rhs, constraints)
    return FixedPart(space=space, constraints=constraints, matrix=matrix,
                     rhs=rhs_c, outer=space.active[~inner], key=_fixed_key(model))


def assemble_pair(fixed: FixedPart, model: SheetModel) -> sp.csc_matrix:
    """Condensed system matrix of one model: the matrix the solver factorizes.

    Only the outer cells' volume term and the sheet term depend on the
    model; they are assembled together, condensed once and added to the
    fixed part.
    """
    if _fixed_key(model) != fixed.key:
        raise ValueError("the fixed part was built for another dipole or disk "
                         "radius")
    space = fixed.space
    varying, _ = condense(assemble_volume(space, model, fixed.outer)
                          + assemble_interface(space, model), None, fixed.constraints)
    return fixed.matrix + varying
