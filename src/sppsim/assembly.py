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

The four interior dofs of every cell are condensed in the volume kernel.
With the local matrix split into its edge (e, 8) and interior (i, 4) blocks,
W = K_ii^{-1} K_ie is a batched LU solve per shape class, never an explicit
inverse, and the Schur complement S = K_ee - K_ei W is scattered on the edge
dofs alone.  The face terms and the sheet load touch only the edge dofs: an
interior function has no tangential trace.  So the solver factorizes
C_e^T S C_e on the unconstrained edge dofs, and nothing else: the
ComplexSystem owns the condensation.  It keeps a constraint map P whose
interior rows are -W C_e, so P^T f is the eliminated load (with_load), and
the interior block K_ii of every cell, so that it back-substitutes
x_i = K_ii^{-1} (f_i - K_ie x_e) as P x_e plus K_ii^{-1} f_i on the cells
whose load has an interior part (coefficients).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.special import hankel1

from . import pml as pml_mod
from .fespace import (N_DOFS_CELL, N_EDGE_DOFS, REF, ConstraintSet, EdgeFESpace,
                      FaceQuadrature, FieldSolution, evaluate_fields, gemm_real,
                      orientation_groups, positive_det)
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
    """Schur complement system on the edge master dofs, with one eliminated load.

    matrix is C_e^T S C_e (S the cells' Schur complements plus the face
    terms), constraints the map P from the edge masters to all dofs, whose
    interior rows are -W C_e, and k_ii (n_active, 4, 4) the interior block of
    every active cell's local matrix, in rank order.  rhs is the eliminated
    load P^T f and rhs_interior its interior part f_i (n_active, 4), which
    back-substitution needs; both are None until with_load.  This is the one
    place that eliminates a load and restores the interior dofs; the solver
    sees only matrix and rhs.
    """

    matrix: sp.csc_matrix
    space: EdgeFESpace
    constraints: ConstraintSet
    k_ii: np.ndarray
    rhs: np.ndarray | None = None
    rhs_interior: np.ndarray | None = None

    def with_load(self, load: np.ndarray) -> "ComplexSystem":
        """This system with the load (over all dofs) eliminated.

        P^T is the transpose view of the CSR map P, so no copy of it is made.
        """
        return dataclasses.replace(self, rhs=self.constraints.matrix.T @ load,
                                   rhs_interior=self.space.interior(load))

    def coefficients(self, x: np.ndarray) -> np.ndarray:
        """All coefficients from the edge masters x, which solve matrix x = rhs.

        The constraint map gives the edge dofs and x_i = -W x_e; the cells with
        an interior load add K_ii^{-1} f_i, so that x_i = K_ii^{-1} (f_i - K_ie x_e).
        """
        full = self.constraints.distribute(x)
        loaded = np.flatnonzero(np.any(self.rhs_interior != 0, axis=1))
        interior = self.space.interior(full)      # a view: updates write into full
        interior[loaded] += np.linalg.solve(self.k_ii[loaded],
                                            self.rhs_interior[loaded, :, None])[..., 0]
        return full


@dataclass
class Interior:
    """The condensed interior dofs of the active cells cids: the interior
    blocks K_ii (n, 4, 4) of their local matrices and W = K_ii^{-1} K_ie
    (n, 4, 8)."""

    cids: np.ndarray
    k_ii: np.ndarray
    w: np.ndarray


CHUNK_CELLS = 16384
# shape-class keys are quantised to this fraction of the disk radius
SHAPE_RESOLUTION = 1e-12


def _scatter(space: EdgeFESpace, dofs, local) -> sp.csc_matrix:
    """Global matrix of the local matrices local[k] on the dof rows dofs[k]."""
    rows = np.repeat(dofs, dofs.shape[1], axis=1).ravel()
    cols = np.tile(dofs, (1, dofs.shape[1])).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)),
                         shape=(space.n_dofs, space.n_dofs)).tocsc()


def _face_matrix(space: EdgeFESpace, quad: FaceQuadrature, coef) -> sp.csc_matrix:
    """Sum over faces of int coef (phi_b . t)(phi_d . t) ds on each owner edge.

    coef is a scalar or (f, p) values at the points quad.phys; b and d run
    over the owner's edge dofs.
    """
    weighted = (quad.weights * coef)[:, :, None] * quad.traces
    local = gemm_real(weighted.transpose(0, 2, 1), quad.traces)
    return _scatter(space, space.cell_dofs[space.rank[quad.owner], :N_EDGE_DOFS], local)


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


def _condense_local(local: np.ndarray):
    """Schur complements (n, 8, 8), W = K_ii^{-1} K_ie (n, 4, 8) and interior
    blocks K_ii (n, 4, 4) of the local matrices (n, 12, 12).

    W is one LU solve per matrix, never an explicit inverse of K_ii (that
    raises the residual of the 12-dof system a thousandfold), and
    S = K_ee - K_ei W takes K_ei as assembled: the local matrices are
    symmetric only up to rounding.
    """
    e = N_EDGE_DOFS
    k_ii = local[:, e:, e:]
    w = np.linalg.solve(k_ii, local[:, e:, :e])
    return local[:, :e, :e] - local[:, :e, e:] @ w, w, k_ii


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


def assemble_volume(space: EdgeFESpace, model: SheetModel, cids):
    """Curl-curl minus mass term of the active cells cids, interior dofs condensed.

    Returns the cells' Schur complements over all dofs (edge entries only)
    and their Interior.  Local matrices are computed and condensed once per
    shape class (shape_classes) and scattered chunk by chunk in the order of
    cids.
    """
    e, i = N_EDGE_DOFS, N_DOFS_CELL - N_EDGE_DOFS
    if len(cids) == 0:
        return (sp.csc_matrix((space.n_dofs, space.n_dofs), dtype=complex),
                Interior(cids=cids, k_ii=np.empty((0, i, i), dtype=complex),
                         w=np.empty((0, i, e), dtype=complex)))
    reps, inverse = shape_classes(space, model, cids)
    schur, w, k_ii = (np.concatenate(part) for part in zip(*(
        _condense_local(_volume_local(space, model, reps[lo:lo + CHUNK_CELLS]))
        for lo in range(0, len(reps), CHUNK_CELLS))))
    dofs = space.cell_dofs[space.rank[cids], :e]
    matrix = sum(_scatter(space, dofs[lo:lo + CHUNK_CELLS],
                          schur[inverse[lo:lo + CHUNK_CELLS]])
                 for lo in range(0, len(cids), CHUNK_CELLS))
    return matrix, Interior(cids=cids, k_ii=k_ii[inverse], w=w[inverse])


def _rim_matrix(space: EdgeFESpace) -> sp.csc_matrix:
    """Rim impedance term -i int E_t conj(v_t), unstretched."""
    return _face_matrix(space, space.rim_quadrature, -1j)


def assemble_volume_boundary(space: EdgeFESpace, model: SheetModel) -> sp.csc_matrix:
    """Volume and rim terms over all dofs, interior dofs condensed: the sum of
    the parts of a solve pair."""
    inner = inner_cells(space, model)
    return (assemble_volume(space, model, space.active[inner])[0]
            + _rim_matrix(space)
            + assemble_volume(space, model, space.active[~inner])[0])


def assemble_interface(space: EdgeFESpace, model: SheetModel) -> sp.csc_matrix:
    """Sheet term -i int sigma_eff E_t conj(v_t) over leaf faces, on the edge dofs."""
    if model.sigma_r == 0:
        return sp.csc_matrix((space.n_dofs, space.n_dofs), dtype=complex)
    quad = space.sheet_quadrature
    sigma_eff = pml_mod.sheet_arrays(quad.phys.reshape(-1, 2), model.sigma_r, model.pml)
    return _face_matrix(space, quad, -1j * sigma_eff.reshape(quad.weights.shape))


def _dipole_cells(space: EdgeFESpace, dip: DipoleSpec) -> np.ndarray:
    """The active cells that meet the dipole's bump; AssemblyError unless they
    resolve it."""
    cids = cells_intersecting_disk(space.mesh, dip.position, dip.radius)
    if len(cids) == 0:
        raise AssemblyError("no cells near the dipole; mesh does not cover it")
    dmax = cell_diameters(space.mesh, cids).max()
    if dmax > 0.5 * dip.radius:
        raise AssemblyError(
            f"dipole regularization unresolved: cell diameter {dmax:.3g} exceeds "
            f"half the radius {dip.radius:.3g}; refine the mesh near the dipole")
    return cids


def _add_loads(rhs: np.ndarray, space: EdgeFESpace, cids, local: np.ndarray):
    """rhs plus the local loads local (n, k) of the cells cids on their first
    k dofs, added in place."""
    np.add.at(rhs, space.cell_dofs[space.rank[cids], :local.shape[1]].ravel(),
              local.ravel())
    return rhs


def _add_cell_loads(rhs: np.ndarray, space: EdgeFESpace, cids, coef: np.ndarray,
                    table):
    """rhs plus the loads coef[k] @ table(oidx) of the cells cids[k] on all
    their dofs, added in place: coef (n, q) per cell and table(oidx) (q, 12)
    the reference table of orientation signature oidx, one real matmul pair
    per signature."""
    local = np.empty((len(cids), N_DOFS_CELL), dtype=complex)
    for oidx, rows in orientation_groups(space, cids):
        local[rows] = gemm_real(coef[rows], table(oidx))
    return _add_loads(rhs, space, cids, local)


def assemble_dipole_rhs(space: EdgeFESpace, model: SheetModel) -> np.ndarray:
    """F_i = i int j_reg . conj(phi_i), over all dofs."""
    dip = model.dipole
    cids = _dipole_cells(space, dip)
    phys, jac = cell_geometry(space.mesh, cids, REF.quad_pts)
    positive_det(jac)
    n, p = len(cids), len(REF.quad_wts)
    wdens = 1j * REF.quad_wts * dip.density(phys.reshape(-1, 2)).reshape(n, p)
    # w det J phi_y = w (adj(J)^T v)_y = w (-J_01 v_x + J_00 v_y)
    coef = np.stack([-jac[..., 0, 1] * wdens, jac[..., 0, 0] * wdens], axis=-1)

    def values(oidx):   # row 2q + c: component c of the basis at point q
        return REF.basis_at_quad(oidx)[0].transpose(0, 2, 1).reshape(2 * p, N_DOFS_CELL)
    return _add_cell_loads(np.zeros(space.n_dofs, dtype=complex), space, cids,
                           coef.reshape(n, 2 * p), values)


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

    Over leaf sheet faces, on the edge dofs; E_inc is incident_ex.  It is
    the negative sheet term of the matrix applied to E_inc.
    """
    quad = space.sheet_quadrature
    pts = quad.phys.reshape(-1, 2)
    coef = 1j * (pml_mod.sheet_arrays(pts, model.sigma_r, model.pml)
                 * incident_ex(pts[:, 0], model.dipole.height, model.pml))
    # the sheet is {y = 0}, so E_inc,t = E_x t_x
    local = np.einsum("fp,fpb->fb",
                      quad.weights * coef.reshape(quad.weights.shape) * quad.tangent[..., 0],
                      quad.traces)
    return _add_loads(np.zeros(space.n_dofs, dtype=complex), space, quad.owner, local)


def assemble_dual_rhs(space: EdgeFESpace, primal: FieldSolution, weight) -> np.ndarray:
    """Derivative of the goal functional int w |curl E|^2 at the discrete primal.

    Component i is int w (curl phi_i) conj(curl E_H); linear in conj(E_H).
    With curl phi_i = curl_ref v_i / det J the weight w det J cancels the
    det J: the load is w conj(curl E_H) per point times the reference curls.
    curl E_H comes from evaluate_fields, chunk by chunk over the active cells.
    """
    rhs = np.zeros(space.n_dofs, dtype=complex)
    for lo in range(0, len(space.active), CHUNK_CELLS):
        chunk = space.active[lo:lo + CHUNK_CELLS]
        phys, det, _, curls = evaluate_fields(space, chunk, REF.quad_pts, (primal.coeffs,))
        coef = REF.quad_wts * weight(phys.reshape(-1, 2)).reshape(det.shape) * np.conj(curls[0])
        _add_cell_loads(rhs, space, chunk, coef, lambda oidx: REF.basis_at_quad(oidx)[1])
    return rhs


def condense(matrix: sp.spmatrix, rhs: np.ndarray, constraints: ConstraintSet):
    """C^T matrix C as a canonical CSC matrix, and C^T rhs (None stays None).

    The CSC arrays of C^T A C are the CSR arrays of C^T A^T C, which three CSR
    operands give directly: A^T is the transpose view of the CSC of A.  The
    CSR copy of C^T lives only for this call.
    """
    ct = constraints.matrix.T.tocsr()
    product = (ct @ (sp.csc_matrix(matrix).T @ constraints.matrix)).T
    product.sort_indices()
    return product, None if rhs is None else ct @ rhs


@dataclass
class FixedPart:
    """The condensed part of a solve pair that the layer strength and the
    conductivity leave unchanged: the inner cells' volume term and the rim
    term on the edge masters, and the inner cells' Interior.

    It is built once per mesh and serves every model that shares its dipole
    and disk radius.
    """

    space: EdgeFESpace
    constraints: ConstraintSet
    matrix: sp.csc_matrix      # condensed inner volume + rim
    inner: Interior
    outer: np.ndarray          # active cell ids left to the per-model part
    key: tuple


def _fixed_key(model: SheetModel) -> tuple:
    return (model.dipole, model.pml.R)


def assemble_fixed(space: EdgeFESpace, constraints: ConstraintSet,
                   model: SheetModel) -> FixedPart:
    """Assemble and condense the model-independent part of a solve pair once.

    A pair solves against the sheet load, so no dipole load is built here;
    a mesh that does not resolve the dipole is still rejected up front.
    """
    _dipole_cells(space, model.dipole)
    inner = inner_cells(space, model)
    volume, interior = assemble_volume(space, model, space.active[inner])
    matrix, _ = condense(volume + _rim_matrix(space), None, constraints)
    return FixedPart(space=space, constraints=constraints, matrix=matrix,
                     inner=interior, outer=space.active[~inner], key=_fixed_key(model))


def _system(space: EdgeFESpace, matrix: sp.csc_matrix, constraints: ConstraintSet,
            parts) -> ComplexSystem:
    """The load-free system of a condensed matrix on the edge masters; the
    Interior parts cover every active cell once."""
    e, i = N_EDGE_DOFS, N_DOFS_CELL - N_EDGE_DOFS
    n = len(space.active)
    k_ii = np.empty((n, i, i), dtype=complex)
    w = np.empty((n, i, e), dtype=complex)
    for part in parts:
        k_ii[space.rank[part.cids]] = part.k_ii
        w[space.rank[part.cids]] = part.w
    # the interior dofs follow the edge dofs in rank order; each of their
    # rows holds -W of its cell on the cell's edge dofs
    indptr = np.concatenate([np.zeros(space.n_edge_dofs, dtype=np.int64),
                             e * np.arange(i * n + 1)])
    indices = np.repeat(space.cell_dofs[:, None, :e], i, axis=1).ravel()
    coupling = sp.csr_matrix((-w.ravel(), indices, indptr),
                             shape=(space.n_dofs, space.n_dofs))
    # P = C + coupling C keeps the edge rows of C; its interior rows are -W C_e
    p = (constraints.matrix + coupling @ constraints.matrix).tocsr()
    return ComplexSystem(matrix=matrix, space=space, k_ii=k_ii,
                         constraints=dataclasses.replace(constraints, matrix=p))


def assemble_pair(fixed: FixedPart, model: SheetModel) -> ComplexSystem:
    """The load-free system of one model (ComplexSystem.with_load adds a load).

    Only the outer cells' volume term and the sheet term depend on the
    model; they are assembled together, condensed once and added to the
    fixed part.
    """
    if _fixed_key(model) != fixed.key:
        raise ValueError("the fixed part was built for another dipole or disk "
                         "radius")
    space = fixed.space
    volume, outer = assemble_volume(space, model, fixed.outer)
    varying, _ = condense(volume + assemble_interface(space, model), None,
                          fixed.constraints)
    del volume
    return _system(space, fixed.matrix + varying, fixed.constraints, (fixed.inner, outer))
