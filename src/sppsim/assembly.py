"""Assembly of the complex linear system for the sheet-scattering weak form.

The medium around the sheet is vacuum (mu = eps = 1 in rescaled units).  The
sesquilinear form, with all coefficients PML-modified inside the layer, is

    A(E, v) =   int_Omega  (1/mu_eff) (curl E)(curl conj v)
              - int_Omega  (eps_eff E) . conj v
              - i int_Sheet   sigma_eff E_t conj(v_t)

and the dipole right-hand side is F(v) = i int j_reg . conj v with a cosine
bump regularization of the point dipole.  Basis functions are real, so the
assembled matrix is complex symmetric (M = M^T entrywise, not Hermitian).

The scattered field E_sc = E - E_inc of the sheet solves the same form with
the sheet load i int_Sheet sigma_eff E_inc,t conj(v_t), where E_inc is the
closed-form field of the unit point dipole in free space (incident_ex).

The sheet integral runs over leaf faces and reads the traces of each face's
two moment functions (fespace.moment_traces); in the constrained space the
tangential trace is single valued across every face.  The outer circle
carries no boundary term: the matched layer absorbs the outgoing field
before it, and the weak form imposes the natural condition H_z = 0 there, as
on x = 0.

No mapped basis is ever formed.  With E = J^{-T} E_ref and curl E =
curl_ref E_ref / det J, every integral is a per-cell geometry coefficient
contracted with the one reference table (fespace.ReferenceElement), times
the cell's dof signs (fespace.dof_signs): the local matrix is [w mu^-1 /
det J, -w det J J^{-1} eps J^{-T}] at the quadrature points times the table
of basis curl and value products, the dipole load takes det J phi_y =
(adj J^T v)_y and the dual load needs no det J at all.

The four interior dofs of every cell are condensed in the volume kernel.
With the local matrix split into its edge (e, 8) and interior (i, 4) blocks,
W = K_ii^{-1} K_ie is a batched LU solve per cell (per shape class on the
inner cells, which the layer leaves alone), never an explicit inverse, and
the Schur complement S = K_ee - K_ei W lives on the edge dofs alone.  A
face block (2, 2) and a face load (2,) touch only the face's two dofs.  The
hanging-edge constraints are applied cell by cell, as deal.II's
distribute_local_to_global does: a cell's edge dofs are T x_m for its eight
master columns x_m (fespace.ConstraintSet), so condense turns each local
matrix S into T^T S T (T = I on a cell without a hanging edge, and T
restricted to the face's two slots for a face block) and scatters them all
once into the matrix on the edge masters that the solver factorizes.  No
matrix over all dofs is formed.  The ComplexSystem owns the condensation.
It keeps a constraint map P, C's edge rows and interior rows -W T written
straight into CSR, so P^T f is the eliminated load (with_load), and the
interior block K_ii of every cell, so that it back-substitutes x_i =
K_ii^{-1} (f_i - K_ie x_e) as P x_e plus K_ii^{-1} f_i on the cells whose
load has an interior part (coefficients).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.special import hankel1

from . import pml as pml_mod
from .fespace import (N_DOFS_CELL, N_EDGE_DOFS, REF, ConstraintSet, EdgeFESpace,
                      FaceQuadrature, FieldSolution, dof_signs, evaluate_fields,
                      gemm_real, positive_det)
from .mesh import cell_diameters, cell_geometry, cells_intersecting_disk
from .pml import PmlSpec

DIPOLE_NORM = 1.0 / (np.pi / 2.0 - 2.0 / np.pi)
# the dipole load needs every cell that meets the bump to be at most its
# radius / DIPOLE_RESOLUTION across
DIPOLE_RESOLUTION = 2.0


class AssemblyError(Exception):
    pass


@dataclass(frozen=True)
class DipoleSpec:
    """Regularized vertical dipole at (0, height) with unit strength."""

    height: float
    radius: float

    def __post_init__(self):
        if not 0 < self.height < np.inf:
            raise ValueError(f"dipole must sit strictly above the sheet at a finite "
                             f"height, got height {self.height}")
        if not 0 < self.radius < np.inf:
            raise ValueError(f"regularization radius must be positive and finite, "
                             f"got {self.radius}")

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
        if not np.isfinite(complex(self.sigma_r)):
            raise ValueError(f"sigma_r must be finite, got {self.sigma_r}")
        if complex(self.sigma_r).imag < 0:
            raise ValueError(f"passive sheets require Im(sigma_r) >= 0, got {self.sigma_r}")


@dataclass
class ComplexSystem:
    """Schur complement system on the edge master dofs, with one eliminated load.

    matrix is the sum of T^T S T over the cells (S a cell's Schur complement
    plus its face terms, condense), constraints the map P from the edge
    masters to all dofs, whose interior rows are -W T, and k_ii (n_active,
    4, 4) the interior block of every active cell's local matrix, in rank
    order.  rhs is the eliminated load P^T f and rhs_interior its interior
    part f_i (n_active, 4), which back-substitution needs; both are None
    until with_load.  This is the one place that eliminates a load and
    restores the interior dofs; the solver sees only matrix and rhs.
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


# shape-class keys are quantised to this fraction of the disk radius
SHAPE_RESOLUTION = 1e-12


def _face_local(space: EdgeFESpace, quad: FaceQuadrature, coef):
    """int coef (phi_b . t)(phi_d . t) ds on each face, b and d over the face's
    two moment functions: the owners' ranks, the local matrices (f, 2, 2)
    and the owners' slots of the face's dofs (f, 2).

    coef is (f, p) values at the points quad.phys.
    """
    weighted = (quad.weights * coef)[:, :, None] * quad.traces
    return (space.rank[quad.owner], gemm_real(weighted.transpose(0, 2, 1), quad.traces),
            quad.slots)


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
    adj^T] at the quadrature points, times REF.volume_products, times the
    dof signs of the row and of the column.
    """
    phys, jac = cell_geometry(space.mesh, cids, REF.quad_pts)
    det = positive_det(jac)
    n, p = det.shape
    inv_mu, eps_eff = pml_mod.material_arrays(phys.reshape(-1, 2), model.pml)
    inv_mu, eps_eff = inv_mu.reshape(n, p), eps_eff.reshape(n, p, 2, 2)
    w_det = REF.quad_wts / det
    coef = np.empty((n, 5 * p), dtype=complex)
    coef[:, :p] = w_det * inv_mu
    coef[:, p:] = (-w_det[..., None, None] * _pullback(jac, eps_eff)).reshape(n, 4 * p)
    signs = dof_signs(space, cids)
    local = gemm_real(coef, REF.volume_products).reshape(n, N_DOFS_CELL, N_DOFS_CELL)
    local *= signs[:, :, None] * signs[:, None, :]
    return local


def _condense_local(local: np.ndarray):
    """Schur complements (n, 8, 8), W = K_ii^{-1} K_ie (n, 4, 8) and interior
    blocks K_ii (n, 4, 4) of the local matrices (n, 12, 12).

    W is one LU solve per matrix, never an explicit inverse of K_ii (that
    raises the residual of the 12-dof system a thousandfold), and
    S = K_ee - K_ei W takes K_ei as assembled: the local matrices are
    symmetric only up to rounding.  K_ii is a copy, not a view, so that the
    local matrices are freed before the Schur complements are scattered.
    """
    e = N_EDGE_DOFS
    k_ii = local[:, e:, e:].copy()
    w = np.linalg.solve(k_ii, local[:, e:, :e])
    return local[:, :e, :e] - local[:, :e, e:] @ w, w, k_ii


def inner_cells(space: EdgeFESpace, model: SheetModel) -> np.ndarray:
    """Mask over the active cells: no corner beyond the layer's inner radius.

    Such a cell stays inside that disk, so its local matrix does not depend
    on the layer strength.  Every other cell is an outer cell.
    """
    corners = space.mesh.cell_corners(space.active)
    return np.all(np.hypot(corners[..., 0], corners[..., 1]) <= model.pml.rho, axis=1)


def shape_classes(space: EdgeFESpace, cids):
    """Representative cell ids and the class of every inner cell in cids.

    An inner cell (inner_cells) that is a parallelogram has an affine map and
    constant coefficients, so its local matrix depends only on its two
    edge vectors, up to its dof signs.  Such cells share one class per (edge
    vectors quantised to SHAPE_RESOLUTION * R, orient_idx); every other cell
    is a class of its own.  Returns (reps, inverse) with
    reps[inverse[k]] the representative of cids[k].
    """
    key = _shape_key(space, cids)
    # the classes of np.unique(key, axis=0): rows in lexicographic order, the
    # stable sort putting each class's first row first
    order = np.lexsort(key.T[::-1])
    ranked = key[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[order] = np.cumsum(starts) - 1
    return cids[order[starts]], inverse


def _shape_key(space: EdgeFESpace, cids) -> np.ndarray:
    """Class key (n, 6) of the inner cells cids: quantised edge vectors,
    orient_idx, and 0 for a parallelogram or the cell's own 1-based position."""
    corners = space.mesh.cell_corners(cids)
    quantum = SHAPE_RESOLUTION * space.mesh.R
    v0, v1, v2, v3 = corners.transpose(1, 0, 2)
    shared = np.all(np.abs(v0 + v2 - v1 - v3) <= quantum, axis=1)
    key = np.zeros((len(corners), 6), dtype=np.int64)
    key[:, :4] = np.round(np.hstack([v1 - v0, v3 - v0]) / quantum)
    # a representative's local matrix carries its dof signs; merging classes
    # across signatures saves only 3-10 % of them (2,654 -> 2,616 in cycle 5 of
    # the default run) and moves the local matrices of cells that change
    # representative by up to 9e-15 relative, which would change the artifacts
    key[:, 4] = space.orient_idx[space.rank[cids]]
    key[:, 5] = np.where(shared, 0, 1 + np.arange(len(corners)))
    return key


def assemble_volume(space: EdgeFESpace, model: SheetModel, cids):
    """Curl-curl minus mass term of the active cells cids, interior dofs condensed.

    Returns the cells' Schur complements (n, 8, 8) on their edge dofs and
    their Interior, both in the order of cids.  Each cell's local matrix is
    computed and condensed, all in one batch.
    """
    schur, w, k_ii = _condense_local(_volume_local(space, model, cids))
    return schur, Interior(cids=cids, k_ii=k_ii, w=w)


def assemble_volume_boundary(space: EdgeFESpace, model: SheetModel, cids):
    """Volume term of the inner cells cids (inner_cells), as assemble_volume
    returns it, assembled once per shape class (shape_classes) and given to
    every cell of the class."""
    reps, inverse = shape_classes(space, cids)
    schur, interior = assemble_volume(space, model, reps)
    return schur[inverse], Interior(cids=cids, k_ii=interior.k_ii[inverse],
                                    w=interior.w[inverse])


def assemble_interface(space: EdgeFESpace, model: SheetModel):
    """Sheet term -i int sigma_eff E_t conj(v_t) over leaf faces (_face_local):
    the owners' ranks and local matrices on their edge dofs."""
    quad = space.sheet_quadrature
    sigma_eff = pml_mod.sheet_arrays(quad.phys.reshape(-1, 2), model.sigma_r, model.pml)
    return _face_local(space, quad, -1j * sigma_eff.reshape(quad.weights.shape))


def _add_cell_loads(rhs: np.ndarray, space: EdgeFESpace, cids, coef: np.ndarray,
                    table: np.ndarray):
    """rhs plus the loads (coef[k] @ table) times the dof signs of the cells
    cids[k] on all their dofs, added in place: coef (n, q) per cell and table
    (q, 12) a reference table, one real matmul pair over all cells."""
    local = gemm_real(coef, table) * dof_signs(space, cids)
    np.add.at(rhs, space.cell_dofs[space.rank[cids]].ravel(), local.ravel())
    return rhs


def assemble_dipole_rhs(space: EdgeFESpace, model: SheetModel) -> np.ndarray:
    """F_i = i int j_reg . conj(phi_i), over all dofs; AssemblyError unless
    the cells that meet the bump resolve it (DIPOLE_RESOLUTION)."""
    dip = model.dipole
    cids = cells_intersecting_disk(space.mesh, dip.position, dip.radius)
    if len(cids) == 0:
        raise AssemblyError("no cells near the dipole; mesh does not cover it")
    dmax = cell_diameters(space.mesh, cids).max()
    if dmax > dip.radius / DIPOLE_RESOLUTION:
        raise AssemblyError(
            f"dipole regularization unresolved: cell diameter {dmax:.3g} exceeds "
            f"the radius {dip.radius:.3g} / {DIPOLE_RESOLUTION:g}; refine the mesh "
            f"near the dipole")
    phys, jac = cell_geometry(space.mesh, cids, REF.quad_pts)
    positive_det(jac)
    n, p = len(cids), len(REF.quad_wts)
    wdens = 1j * REF.quad_wts * dip.density(phys.reshape(-1, 2)).reshape(n, p)
    # w det J phi_y = w (adj(J)^T v)_y = w (-J_01 v_x + J_00 v_y)
    coef = np.stack([-jac[..., 0, 1] * wdens, jac[..., 0, 0] * wdens], axis=-1)
    # row 2q + c: component c of the basis at point q
    values = REF.basis_at_quad[0].transpose(0, 2, 1).reshape(2 * p, N_DOFS_CELL)
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
    d, dbar = pml_mod.stretch_arrays(np.column_stack([x, np.zeros_like(x)]), pml)
    xt = x * dbar
    r = np.sqrt(xt**2 + height**2)
    # no r**3: numpy's complex cube is r*r*r and its real one libm pow, and
    # outside the layer this must give the free-space formula's bits
    return d * (height * xt / 4 * (2 * hankel1(1, r) / r - hankel1(0, r)) / r**2)


def assemble_sheet_load(space: EdgeFESpace, model: SheetModel) -> np.ndarray:
    """Load i int_Sheet sigma_eff E_inc,t (phi_i . t) ds of the scattered field.

    Over leaf sheet faces, on each face's two dofs; E_inc is incident_ex.
    It is the negative sheet term of the matrix applied to E_inc.
    """
    quad = space.sheet_quadrature
    pts = quad.phys.reshape(-1, 2)
    coef = 1j * (pml_mod.sheet_arrays(pts, model.sigma_r, model.pml)
                 * incident_ex(pts[:, 0], model.dipole.height, model.pml))
    # the sheet is {y = 0}, so E_inc,t = E_x t_x
    rhs = np.zeros(space.n_dofs, dtype=complex)
    # the faces are distinct, and so are their dofs
    rhs[quad.dofs] = np.einsum(
        "fp,fpk->fk", quad.weights * coef.reshape(quad.weights.shape) * quad.tangent[..., 0],
        quad.traces)
    return rhs


def assemble_dual_rhs(space: EdgeFESpace, primal: FieldSolution, weight) -> np.ndarray:
    """Derivative of the goal functional int w |curl E|^2 at the discrete primal.

    Component i is int w (curl phi_i) conj(curl E_H); linear in conj(E_H).
    With curl phi_i = curl_ref v_i / det J the weight w det J cancels the
    det J: the load is w conj(curl E_H) per point times the reference curls.
    curl E_H comes from one evaluate_fields pass over the active cells.
    """
    phys, det, _, curls = evaluate_fields(space, space.active, REF.quad_pts, (primal.coeffs,))
    coef = REF.quad_wts * weight(phys.reshape(-1, 2)).reshape(det.shape) * np.conj(curls[0])
    return _add_cell_loads(np.zeros(space.n_dofs, dtype=complex), space, space.active,
                           coef, REF.basis_at_quad[1])


def _on_masters(constraints: ConstraintSet, ranks, local: np.ndarray, slots):
    """T^T S T of the local matrices S = local (k, d, d), in place, T the map
    of the cell of rank ranks[k] restricted to its edge slots slots[k], as
    COO triplets on their master columns; and the rows hit whose T is not the
    identity, with those T."""
    index = constraints.map_index[ranks]
    hit = np.flatnonzero(index >= 0)
    maps = constraints.cell_maps[index[hit, None, None], slots[hit, :, None], slots[hit, None, :]]
    local[hit] = maps.transpose(0, 2, 1) @ local[hit] @ maps
    masters, d = np.take_along_axis(constraints.cell_masters[ranks], slots, axis=1), local.shape[2]
    return ((local.ravel(), np.repeat(masters, d, axis=1).ravel(),
             np.tile(masters, (1, d)).ravel()), hit, maps)


def condense(space: EdgeFESpace, constraints: ConstraintSet, volume, *faces):
    """One volume term and any face terms on the edge masters, cell by cell.

    volume is assemble_volume's (Schur complements, Interior) and each of
    faces a face term (_face_local); all are transformed in place
    (_on_masters), each local matrix of a cell with a hanging edge into
    T^T S T, and scattered once.  Returns the canonical CSC matrix
    (n_master, n_master), without the entries that sum to exactly zero, and
    the interior rows -W T of P (n, 4, 8) of the volume's cells, in their
    order.
    """
    schur, interior = volume
    slots = np.broadcast_to(np.arange(N_EDGE_DOFS), (len(schur), N_EDGE_DOFS))
    cells, hit, maps = _on_masters(constraints, space.rank[interior.cids], schur, slots)
    data, ri, ci = (np.concatenate(c) for c in
                    zip(cells, *(_on_masters(constraints, *face)[0] for face in faces)))
    matrix = sp.coo_matrix((data, (ri, ci)),
                           shape=(constraints.n_master, constraints.n_master)).tocsc()
    matrix.eliminate_zeros()
    rows = -interior.w
    rows[hit] = rows[hit] @ maps
    return matrix, rows


@dataclass
class FixedPart:
    """The condensed part of a solve pair that the layer strength and the
    conductivity leave unchanged: the inner cells' volume term on the edge
    masters, and their interior blocks K_ii and interior rows -W T of P
    (condense).

    It is built once per mesh and serves every model that shares its disk
    radius, which sets the inner cells through rho = 0.8 R.
    """

    space: EdgeFESpace
    constraints: ConstraintSet
    matrix: sp.csc_matrix      # condensed inner volume
    k_ii: np.ndarray           # (n_active, 4, 4) in rank order, the outer cells' unset
    rows: np.ndarray           # (n_active, 4, 8) -W T in rank order, the outer cells' unset
    outer: np.ndarray          # active cell ids left to the per-model part
    key: float


def _fixed_key(model: SheetModel) -> float:
    return model.pml.R


def assemble_fixed(space: EdgeFESpace, constraints: ConstraintSet,
                   model: SheetModel) -> FixedPart:
    """Assemble and condense the model-independent part of a solve pair once.

    No load is built here, so the dipole is not read: a mesh that does not
    resolve it serves a pair, and only assemble_dipole_rhs rejects it.
    """
    inner = inner_cells(space, model)
    volume = assemble_volume_boundary(space, model, space.active[inner])
    matrix, rows = condense(space, constraints, volume)
    n, e, i = len(space.active), N_EDGE_DOFS, N_DOFS_CELL - N_EDGE_DOFS
    k_ii = np.empty((n, i, i), dtype=complex)
    k_ii[inner] = volume[1].k_ii
    all_rows = np.empty((n, i, e), dtype=complex)
    all_rows[inner] = rows
    return FixedPart(space=space, constraints=constraints, matrix=matrix, k_ii=k_ii,
                     rows=all_rows, outer=space.active[~inner], key=_fixed_key(model))


def _constraint_map(space: EdgeFESpace, constraints: ConstraintSet,
                    rows: np.ndarray) -> sp.csr_matrix:
    """P over all dofs in CSR: the edge rows of C, then the interior rows
    rows (n_active, 4, 8) of each active cell, in rank order, on its master
    columns.  C's interior rows are empty, so its arrays end at the edge rows."""
    c = constraints.matrix
    n_rows = rows.shape[0] * rows.shape[1]
    indptr = np.concatenate([c.indptr[:space.n_edge_dofs + 1],
                             c.nnz + N_EDGE_DOFS * np.arange(1, n_rows + 1)])
    cols = np.broadcast_to(constraints.cell_masters[:, None, :], rows.shape)
    return sp.csr_matrix((np.concatenate([c.data, rows.ravel()]),
                          np.concatenate([c.indices, cols.ravel()]), indptr),
                         shape=c.shape)


def assemble_pair(fixed: FixedPart, model: SheetModel) -> ComplexSystem:
    """The load-free system of one model (ComplexSystem.with_load adds a load).

    Only the outer cells' volume term and the sheet term depend on the
    model; they are condensed together once and added to the fixed part.
    """
    if _fixed_key(model) != fixed.key:
        raise ValueError("the fixed part was built for another disk radius")
    space, constraints = fixed.space, fixed.constraints
    volume = assemble_volume(space, model, fixed.outer)
    varying, rows = condense(space, constraints, volume, assemble_interface(space, model))
    outer = space.rank[fixed.outer]
    k_ii, all_rows = fixed.k_ii.copy(), fixed.rows.copy()
    k_ii[outer], all_rows[outer] = volume[1].k_ii, rows
    p = _constraint_map(space, constraints, all_rows)
    return ComplexSystem(matrix=fixed.matrix + varying, space=space, k_ii=k_ii,
                         constraints=dataclasses.replace(constraints, matrix=p))
