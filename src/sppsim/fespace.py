"""Order-2 curl-conforming (edge) elements on the quad-tree mesh.

The reference element on [0,1]^2 spans Q_{1,2} x Q_{2,1} (12 functions): the
x-component has degree (1,2), the y-component degree (2,1).  Degrees of
freedom are tangential moments against the constant and the linear Legendre
weight on each edge (8) plus four interior moments.  Edge moments are taken
with respect to the GLOBAL edge direction (lower vertex id to higher), so two
cells sharing an edge reference literally the same functionals and assembly
needs no sign bookkeeping; the per-cell basis is built from the orientation
signature of its four edges (16 cached variants).

Fields map to physical cells with the covariant transform E = J^{-T} E_ref,
which preserves tangential line integrals; the scalar 2D curl then transforms
as curl E = (curl_ref E_ref)/det J for any (also curved) reference map.  The
basis itself is never mapped: the reference element caches its tables once
per orientation signature (values and curls at the quadrature points, their
products, tangential traces on the edges), a cell contributes only its
geometry (J, det J at its points), and a field is contracted with the
reference basis before J^{-T} and 1/det J are applied to the result.

Hanging edges on 1-irregular meshes are constrained: the two child-edge
moment pairs are fixed linear images of the parent-edge pair, which makes the
tangential trace globally continuous.  The interior moments are never
constrained; assembly condenses them cell by cell, so the unknowns of the
factorized system are the unconstrained edge dofs alone, and the constraint
map of a condensed system also carries each cell's interior dofs
(ConstraintSet.with_interior).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp

from .mesh import (EDGE_CORNERS, FaceTable, GeometryError, Mesh, boundary_faces,
                   cell_geometry, interface_faces, jacobian_det)

# exponent tables: x-component in Q_{1,2}, y-component in Q_{2,1}
_UX = ((0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2))
_VY = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 1))

# order-3 counterparts (used only for patchwise reconstruction)
_UX3 = tuple((i, j) for j in range(4) for i in range(3))
_VY3 = tuple((i, j) for i in range(4) for j in range(3))

# reference corners and edge tangents
_CORNER_XY = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
_EDGE_TANGENT = ((1.0, 0.0), (0.0, 1.0), (1.0, 0.0), (0.0, 1.0))

N_DOFS_CELL = 12
# the edge moments come first in a cell's dofs, the four interior moments last
N_EDGE_DOFS = 8
# Gauss points per face (face_quadrature, ReferenceElement.edge_traces)
FACE_POINTS = 4


def gauss01(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _monomials(exps, pts):
    pts = np.asarray(pts, dtype=float)
    out = np.empty((pts.shape[0], len(exps)))
    for m, (i, j) in enumerate(exps):
        out[:, m] = pts[:, 0] ** i * pts[:, 1] ** j
    return out


def _monomial_dx(exps, pts):
    pts = np.asarray(pts, dtype=float)
    out = np.zeros((pts.shape[0], len(exps)))
    for m, (i, j) in enumerate(exps):
        if i > 0:
            out[:, m] = i * pts[:, 0] ** (i - 1) * pts[:, 1] ** j
    return out


def _monomial_dy(exps, pts):
    pts = np.asarray(pts, dtype=float)
    out = np.zeros((pts.shape[0], len(exps)))
    for m, (i, j) in enumerate(exps):
        if j > 0:
            out[:, m] = j * pts[:, 0] ** i * pts[:, 1] ** (j - 1)
    return out


def vector_monomials(pts, order: int = 2):
    """Values (npts, nmono, 2) and scalar curls (npts, nmono) of the monomial fields."""
    ux, vy = (_UX, _VY) if order == 2 else (_UX3, _VY3)
    nu, nv = len(ux), len(vy)
    npts = np.asarray(pts).shape[0]
    vals = np.zeros((npts, nu + nv, 2))
    vals[:, :nu, 0] = _monomials(ux, pts)
    vals[:, nu:, 1] = _monomials(vy, pts)
    curls = np.zeros((npts, nu + nv))
    curls[:, :nu] = -_monomial_dy(ux, pts)
    curls[:, nu:] = _monomial_dx(vy, pts)
    return vals, curls


def _edge_ref_points(ledge: int, t):
    a = np.asarray(_CORNER_XY[EDGE_CORNERS[ledge][0]])
    b = np.asarray(_CORNER_XY[EDGE_CORNERS[ledge][1]])
    t = np.asarray(t, dtype=float)
    return (1 - t)[:, None] * a[None, :] + t[:, None] * b[None, :]


class ReferenceElement:
    """Dof functionals and cached bases for the 16 edge-orientation variants."""

    def __init__(self, quad_order: int = 4):
        x, w = gauss01(quad_order)
        XI, ETA = np.meshgrid(x, x, indexing="ij")
        self.quad_pts = np.column_stack([XI.ravel(), ETA.ravel()])
        self.quad_wts = np.outer(w, w).ravel()
        tb, wb = gauss01(3)
        XB, YB = np.meshgrid(tb, tb, indexing="ij")
        self._bulk_pts = np.column_stack([XB.ravel(), YB.ravel()])
        self._bulk_wts = np.outer(wb, wb).ravel()

    def dof_matrix(self, orient) -> np.ndarray:
        """V[i, m] = functional_i applied to monomial field m, given edge signs."""
        V = np.empty((N_DOFS_CELL, N_DOFS_CELL))
        te, we = gauss01(3)
        for ledge in range(4):
            pts = _edge_ref_points(ledge, te)
            tau = np.asarray(_EDGE_TANGENT[ledge])
            vals, _ = vector_monomials(pts)
            tang = vals @ tau  # (npts, 12)
            o = orient[ledge]
            V[2 * ledge] = o * we @ tang
            V[2 * ledge + 1] = we @ (tang * (2 * te - 1)[:, None])
        vals, _ = vector_monomials(self._bulk_pts)
        w = self._bulk_wts
        xi = self._bulk_pts[:, 0]
        eta = self._bulk_pts[:, 1]
        # interior moments weight each component along its own direction;
        # traces on the opposite edge pair already pin the transverse behavior
        V[8] = w @ vals[:, :, 0]
        V[9] = (w * (2 * xi - 1)) @ vals[:, :, 0]
        V[10] = w @ vals[:, :, 1]
        V[11] = (w * (2 * eta - 1)) @ vals[:, :, 1]
        return V

    @lru_cache(maxsize=16)
    def coeffs(self, oidx: int) -> np.ndarray:
        """Monomial coefficients of the nodal basis for one orientation signature."""
        orient = tuple(-1.0 if (oidx >> e) & 1 else 1.0 for e in range(4))
        V = self.dof_matrix(orient)
        try:
            return np.linalg.inv(V)
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise GeometryError("edge-element dof set is not unisolvent") from exc

    def basis_at(self, oidx: int, pts):
        """(npts, 12, 2) values and (npts, 12) curls on the reference square."""
        C = self.coeffs(oidx)
        vals, curls = vector_monomials(pts)
        return np.einsum("mb,pmc->pbc", C, vals), curls @ C

    @lru_cache(maxsize=16)
    def basis_at_quad(self, oidx: int):
        vals, curls = self.basis_at(oidx, self.quad_pts)
        return vals, curls

    @lru_cache(maxsize=16)
    def volume_products(self, oidx: int) -> np.ndarray:
        """Basis products at the quadrature points, (5p, 144), columns b * 12 + d.

        Row q < p holds curl_b curl_d at point q and row p + 4q + 2i + j holds
        v_b,i v_d,j, so a local matrix is one coefficient row per cell times
        this table.
        """
        vals, curls = self.basis_at_quad(oidx)
        p = len(self.quad_wts)
        curl = curls[:, :, None] * curls[:, None, :]
        val = vals[:, :, None, :, None] * vals[:, None, :, None, :]     # (p, b, d, i, j)
        return np.concatenate([curl.reshape(p, -1),
                               val.transpose(0, 3, 4, 1, 2).reshape(4 * p, -1)])

    @cached_property
    def edge_traces(self) -> np.ndarray:
        """Tangential traces v_b . e (16, 4, FACE_POINTS, 8) of each orientation's
        edge basis functions at the Gauss points of each local edge, e its
        reference tangent.

        The interior functions have zero moments on every edge, so their
        degree-1 traces vanish; evaluated they are rounding noise (below 1e-15).
        """
        te, _ = gauss01(FACE_POINTS)
        pts = np.concatenate([_edge_ref_points(e, te) for e in range(4)])
        tangents = np.repeat(np.asarray(_EDGE_TANGENT), len(te), axis=0)
        return np.stack([np.einsum("pbi,pi->pb", self.basis_at(oidx, pts)[0][:, :N_EDGE_DOFS],
                                   tangents)
                         for oidx in range(16)]).reshape(16, 4, len(te), N_EDGE_DOFS)


REF = ReferenceElement()


def gemm_real(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for complex a and real b, as two real matmuls (no complex copy of b)."""
    real = a.real @ b
    out = np.empty(real.shape, dtype=complex)
    out.real = real
    out.imag = a.imag @ b
    return out


def orientation_groups(space: "EdgeFESpace", cids):
    """(oidx, rows): the rows of cids whose cells have orientation signature oidx."""
    orient = space.orient_idx[space.rank[cids]]
    for oidx in np.unique(orient):
        yield int(oidx), np.flatnonzero(orient == oidx)


def positive_det(jac: np.ndarray) -> np.ndarray:
    """det J of a stack of Jacobians; GeometryError unless every one is positive."""
    det = jacobian_det(jac)
    if np.any(det <= 0):
        raise GeometryError("nonpositive Jacobian")
    return det


@dataclass
class EdgeFESpace:
    """Global dof layout: two moments per leaf face, then four per active cell.

    rank maps every cell id to its row in cell_dofs/orient_idx; inactive cells
    map to n_active, one past the last row, so using them raises IndexError.
    """

    mesh: Mesh
    active: np.ndarray         # (n_active,) cell ids, ascending
    rank: np.ndarray           # (n_cells,)
    cell_dofs: np.ndarray      # (n_active, 12) global indices
    orient_idx: np.ndarray     # (n_active,) edge-orientation signature
    face_keys: np.ndarray      # (n_faces, 2) sorted vertex-id pair of each face
    n_faces: int
    n_dofs: int

    @cached_property
    def sheet_faces(self) -> FaceTable:
        """The mesh's leaf faces on the sheet (interface_faces), built once."""
        return interface_faces(self.mesh)

    @cached_property
    def rim_faces(self) -> FaceTable:
        """The mesh's leaf faces on the outer circle (boundary_faces), built once."""
        return boundary_faces(self.mesh)

    @cached_property
    def sheet_quadrature(self) -> "FaceQuadrature":
        """Quadrature and basis traces on the sheet faces (face_traces), built once."""
        return face_traces(self, self.sheet_faces)

    @property
    def n_edge_dofs(self) -> int:
        """The edge dofs come first: dofs 0 .. n_edge_dofs - 1."""
        return 2 * self.n_faces

    def interior(self, vec: np.ndarray) -> np.ndarray:
        """The interior part (n_active, 4) of a vector over all dofs, in rank order."""
        return vec[self.n_edge_dofs:].reshape(len(self.active), -1)


def distribute_dofs(mesh: Mesh) -> EdgeFESpace:
    """Deterministic global enumeration over the active mesh.

    Faces are numbered in order of first appearance over (active cell, local
    edge); that numbering fixes the dof ids and with them the LU ordering.
    """
    active = mesh.active_ids()
    n = len(active)
    keys = mesh.edge_keys(active).reshape(-1, 2)
    _, first, inverse = np.unique(keys[:, 0] * len(mesh.vertices) + keys[:, 1],
                                  return_index=True, return_inverse=True)
    by_appearance = np.argsort(first)
    face_of = np.empty_like(by_appearance)
    face_of[by_appearance] = np.arange(len(first))
    faces = face_of[inverse].reshape(n, 4)
    n_faces = len(first)
    cell_dofs = np.empty((n, N_DOFS_CELL), dtype=np.int64)
    cell_dofs[:, 0:8:2] = 2 * faces
    cell_dofs[:, 1:8:2] = 2 * faces + 1
    cell_dofs[:, 8:] = 2 * n_faces + 4 * np.arange(n)[:, None] + np.arange(4)
    ends = mesh.cells[active][:, np.array(EDGE_CORNERS)]
    orient = ((ends[..., 0] > ends[..., 1]) << np.arange(4)).sum(axis=1).astype(np.int8)
    rank = np.full(len(mesh.cells), n, dtype=np.int64)
    rank[active] = np.arange(n)
    return EdgeFESpace(mesh=mesh, active=active, rank=rank,
                       cell_dofs=cell_dofs, orient_idx=orient,
                       face_keys=keys[first[by_appearance]], n_faces=n_faces,
                       n_dofs=2 * n_faces + 4 * n)


@dataclass
class FieldSolution:
    """Coefficients over all global dofs (constraints already distributed)."""

    space: EdgeFESpace
    coeffs: np.ndarray

    def values(self, cids, ref_pts):
        """Field values (n, p, 2) at reference points of the cells cids."""
        return evaluate_fields(self.space, cids, ref_pts, (self.coeffs,))[2][0]


def evaluate_fields(space: EdgeFESpace, cids, ref_pts, coeffs):
    """Physical points, det J, and the values and curls of several fields.

    ref_pts is (p, 2) shared by all cells or (n, p, 2) per cell; coeffs holds
    s global coefficient vectors.  Returns phys (n, p, 2), det (n, p), values
    (s, n, p, 2) and curls (s, n, p).  The basis of orientation signature
    oidx is REF.coeffs(oidx) times the monomial fields, so each field's local
    coefficients are turned into monomial coefficients and contracted with
    the monomials at the points (one real matmul pair on shared points);
    only the results are mapped, E = J^{-T} E_ref and curl E = curl_ref
    E_ref / det J.
    """
    cids = np.asarray(cids, dtype=np.int64)
    ref_pts = np.asarray(ref_pts, dtype=float)
    phys, jac = cell_geometry(space.mesh, cids, ref_pts)
    det = positive_det(jac)
    n, p = det.shape
    dofs = space.cell_dofs[space.rank[cids]]
    mono = np.empty((len(coeffs), n, N_DOFS_CELL), dtype=complex)
    for oidx, rows in orientation_groups(space, cids):
        transform = REF.coeffs(oidx).T
        for k, c in enumerate(coeffs):
            mono[k, rows] = gemm_real(c[dofs[rows]], transform)
    mono_vals, mono_curls = vector_monomials(ref_pts.reshape(-1, 2))
    vals = np.empty((len(coeffs), n, p, 2), dtype=complex)
    curls = np.empty((len(coeffs), n, p), dtype=complex)
    if ref_pts.ndim == 2:
        table = np.hstack([mono_vals.transpose(1, 0, 2).reshape(N_DOFS_CELL, 2 * p),
                           mono_curls.T])
        for k in range(len(coeffs)):
            out = gemm_real(mono[k], table)
            vals[k] = out[:, :2 * p].reshape(n, p, 2)
            curls[k] = out[:, 2 * p:]
    else:
        mono_vals = mono_vals.reshape(n, p, N_DOFS_CELL, 2)
        mono_curls = mono_curls.reshape(n, p, N_DOFS_CELL)
        for k in range(len(coeffs)):
            vals[k] = np.einsum("nm,npmc->npc", mono[k], mono_vals)
            curls[k] = np.einsum("nm,npm->np", mono[k], mono_curls)
    # J^{-T} = adj(J)^T / det J, written out for the 2x2 stack
    vx, vy = vals[..., 0].copy(), vals[..., 1].copy()
    vals[..., 0] = (jac[..., 1, 1] * vx - jac[..., 1, 0] * vy) / det
    vals[..., 1] = (jac[..., 0, 0] * vy - jac[..., 0, 1] * vx) / det
    return phys, det, vals, curls / det


@dataclass
class ConstraintSet:
    """All dofs expressed through the master dofs, the unconstrained edge dofs.

    build_constraints ties each hanging edge's dofs to its parent edge's and
    leaves the interior rows empty; with_interior fills them for a condensed
    system.
    """

    n_dofs: int
    matrix: sp.csr_matrix        # (n_dofs, n_master)
    master_dofs: np.ndarray
    transpose: sp.csr_matrix = field(init=False, repr=False)   # (n_master, n_dofs)

    def __post_init__(self):
        self.transpose = self.matrix.T.tocsr()

    @property
    def n_master(self) -> int:
        return len(self.master_dofs)

    def distribute(self, reduced: np.ndarray) -> np.ndarray:
        return self.matrix @ reduced

    def restrict(self, full: np.ndarray) -> np.ndarray:
        return full[self.master_dofs]

    def with_interior(self, coupling: sp.spmatrix) -> "ConstraintSet":
        """This map with the interior rows coupling @ matrix.

        coupling (n_dofs, n_dofs) holds -W = -K_ii^{-1} K_ie of each condensed
        cell in its interior rows and edge columns, so the interior rows of
        the result are -W C_e.  Its transpose eliminates a load f into
        C_e^T (f_e - W^T f_i), and it distributes the edge masters of a
        solution with zero interior load.
        """
        return ConstraintSet(n_dofs=self.n_dofs, master_dofs=self.master_dofs,
                             matrix=(self.matrix + coupling @ self.matrix).tocsr())


def _child_transfer(alpha: float, gamma: float) -> np.ndarray:
    """Child-edge moments of a degree-1 trace given parent moments.

    The child parameterizes the parent edge as s = alpha + gamma*s_child.
    """
    return np.array([[gamma, 3.0 * gamma * (2 * alpha + gamma - 1.0)],
                     [0.0, gamma * gamma]])


_T_LO = _child_transfer(0.0, 0.5)    # child from parent's low vertex to midpoint
_T_HI = _child_transfer(1.0, -0.5)   # child from parent's high vertex to midpoint


def build_constraints(space: EdgeFESpace) -> ConstraintSet:
    """Tie child-edge dofs on hanging faces to the parent-edge dofs.

    The masters are the unconstrained edge dofs; the interior dofs are no
    masters, and their rows stay empty until with_interior.
    """
    keys = space.face_keys
    mids = space.mesh.edge_midpoints(keys)
    parent = np.flatnonzero(mids >= 0)
    # midpoint ids are created after their edge endpoints
    assert np.all(mids[parent] > keys[parent, 1]), "midpoint id ordering violated"
    codes = keys[:, 0] * len(space.mesh.vertices) + keys[:, 1]
    by_code = np.argsort(codes)
    # (p, 2 halves, 2): (lo, mid) and (hi, mid)
    halves = np.stack([keys[parent], np.stack([mids[parent], mids[parent]], axis=1)], axis=2)
    half_codes = halves[..., 0] * len(space.mesh.vertices) + halves[..., 1]
    pos = np.minimum(np.searchsorted(codes[by_code], half_codes), len(codes) - 1)
    hanging = (codes[by_code][pos] == half_codes).all(axis=1)
    child = by_code[pos[hanging]]                                  # (h, 2)
    parent = parent[hanging]
    # dof 2 child + j = sum_k T[j, k] * dof 2 parent + k, for the nonzero T[j, k]
    T = np.stack([_T_LO, _T_HI])                                   # (2 halves, 2, 2)
    j, k = np.arange(2)[:, None], np.arange(2)[None, :]
    slave = np.broadcast_to(2 * child[:, :, None, None] + j, (len(parent), 2, 2, 2))
    master = np.broadcast_to(2 * parent[:, None, None, None] + k, slave.shape)
    coef = np.broadcast_to(T, slave.shape)
    nonzero = coef != 0.0
    slave, master, coef = slave[nonzero], master[nonzero], coef[nonzero]
    constrained = np.zeros(space.n_edge_dofs, dtype=bool)
    constrained[slave] = True
    assert not constrained[master].any(), "constraint chains are not allowed"
    master_dofs = np.flatnonzero(~constrained)
    col_of = -np.ones(space.n_edge_dofs, dtype=np.int64)
    col_of[master_dofs] = np.arange(len(master_dofs))
    ri = np.concatenate([master_dofs, slave])
    ci = col_of[np.concatenate([master_dofs, master])]
    data = np.concatenate([np.ones(len(master_dofs)), coef])
    matrix = sp.csr_matrix((data, (ri, ci)), shape=(space.n_dofs, len(master_dofs)))
    return ConstraintSet(n_dofs=space.n_dofs, matrix=matrix, master_dofs=master_dofs)


def face_quadrature(mesh: Mesh, cids, ledges, n: int = FACE_POINTS):
    """Gauss rule with n points on the local edge ledges[k] of cell cids[k].

    Returns reference points (f, n, 2), physical points (f, n, 2), weights
    times the edge speed |dx/dt| (f, n), unit tangents (f, n, 2) along the
    reference edge direction and the edge speeds (f, n).
    """
    te, we = gauss01(n)
    ledges = np.asarray(ledges, dtype=np.int64)
    ref = np.stack([_edge_ref_points(e, te) for e in range(4)])[ledges]
    phys, jac = cell_geometry(mesh, cids, ref)
    dxdt = np.einsum("fpij,fj->fpi", jac, np.asarray(_EDGE_TANGENT)[ledges])
    # a straight edge's tangent is its chord; the blended map reproduces the
    # chord only up to rounding where the edge meets an arc
    cids = np.asarray(cids, dtype=np.int64)
    straight = ~mesh.arc[cids, ledges]
    start, end = np.array(EDGE_CORNERS)[ledges].T
    corners = mesh.cell_corners(cids)
    rows = np.arange(len(ledges))
    chord = corners[rows, end] - corners[rows, start]
    dxdt[straight] = chord[straight][:, None, :]
    speed = np.linalg.norm(dxdt, axis=2)
    return ref, phys, we * speed, dxdt / speed[..., None], speed


@dataclass(frozen=True)
class FaceQuadrature:
    """Gauss rule on the owner edge of each face, with the owner's basis traces.

    owner (f,) are the owner cells, ref and phys (f, p, 2) the reference and
    physical points, weights (f, p) the Gauss weights times the edge speed,
    tangent (f, p, 2) the unit tangents along the reference edge and traces
    (f, p, 8) the tangential traces phi_b . t of the owner's edge basis
    functions (the interior ones have none).
    """

    owner: np.ndarray
    ref: np.ndarray
    phys: np.ndarray
    weights: np.ndarray
    tangent: np.ndarray
    traces: np.ndarray


def face_traces(space: EdgeFESpace, faces: FaceTable) -> FaceQuadrature:
    """face_quadrature on each face's owner edge, and the owner's basis traces.

    Along the edge x(t) of reference tangent e the covariant basis has the
    trace phi_b . t = (v_b . e) / |dx/dt|: the reference table
    REF.edge_traces over the edge speed.
    """
    ref, phys, weights, tangent, speed = face_quadrature(space.mesh, faces.owner,
                                                         faces.ledge)
    orient = space.orient_idx[space.rank[faces.owner]]
    traces = REF.edge_traces[orient, faces.ledge] / speed[..., None]
    return FaceQuadrature(owner=faces.owner, ref=ref, phys=phys, weights=weights,
                          tangent=tangent, traces=traces)


def sheet_ref_points(mesh: Mesh, cids, xs) -> np.ndarray:
    """Reference points (m, 2) of the sheet positions xs[k] in the cells cids[k].

    Each point lies on the cell's edge on {y = 0}; KeyError if a cell has none.
    """
    xs = np.asarray(xs, dtype=float)
    corners = mesh.cell_corners(cids)
    on_sheet = np.abs(corners[:, :, 1]) <= mesh._tol
    start, end = np.array(EDGE_CORNERS).T
    hit = on_sheet[:, start] & on_sheet[:, end]
    if not np.all(hit.any(axis=1)):
        raise KeyError("cell has no edge on the sheet")
    ledge = hit.argmax(axis=1)
    rows = np.arange(len(xs))
    xa = corners[rows, start[ledge], 0]
    xb = corners[rows, end[ledge], 0]
    t = (xs - xa) / (xb - xa)
    ref_corners = np.asarray(_CORNER_XY)
    return (1 - t)[:, None] * ref_corners[start[ledge]] + t[:, None] * ref_corners[end[ledge]]
