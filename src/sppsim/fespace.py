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
as curl E = (curl_ref E_ref)/det J for any (also curved) reference map.

Hanging edges on 1-irregular meshes are constrained: the two child-edge
moment pairs are fixed linear images of the parent-edge pair, which makes the
tangential trace globally continuous.

On a mesh symmetric under the mirror x -> -x the pullback of a discrete field
by the mirror is again a discrete field, and its dofs are a signed
permutation of the field's dofs; mirror_even restricts the constrained space
to the fields the mirror leaves unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp

from .mesh import (EDGE_CORNERS, SHAPE_RESOLUTION, Face, GeometryError, Mesh, _edge_code,
                   _find, cell_geometry, interface_faces, jacobian_det, jacobian_inv)

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


REF = ReferenceElement()


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
    def sheet_faces(self) -> list[Face]:
        """The mesh's leaf faces on the sheet (interface_faces), built once."""
        return interface_faces(self.mesh)


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

    def _local(self, cids):
        return self.coeffs[self.space.cell_dofs[self.space.rank[cids]]]

    def values(self, cids, ref_pts):
        """Field values (n, p, 2) at reference points of the cells cids."""
        vals, _ = shape_eval(self.space, cids, ref_pts)
        return np.einsum("nb,npbc->npc", self._local(cids), vals)

    def curls(self, cids, ref_pts):
        """Scalar curls (n, p) at reference points of the cells cids."""
        _, curls = shape_eval(self.space, cids, ref_pts)
        return np.einsum("nb,npb->np", self._local(cids), curls)


def _mapped_basis(space: EdgeFESpace, cids, ref_pts, shared_basis=None):
    """Physical points, det J, basis values and curls on many cells at once.

    ref_pts is (p, 2) shared by all cells or (n, p, 2) per cell.  Returns
    phys (n, p, 2), det (n, p), vals (n, p, 12, 2) and curls (n, p, 12); the
    reference basis is evaluated once per edge-orientation signature, by
    shared_basis(oidx) when given (a cache for fixed shared points).
    """
    ref_pts = np.asarray(ref_pts, dtype=float)
    phys, jac = cell_geometry(space.mesh, cids, ref_pts)
    det = jacobian_det(jac)
    if np.any(det <= 0):
        raise GeometryError("nonpositive Jacobian")
    jinv = jacobian_inv(jac, det)
    n, p = det.shape
    vals = np.empty((n, p, N_DOFS_CELL, 2))
    curls = np.empty((n, p, N_DOFS_CELL))
    orient = space.orient_idx[space.rank[cids]]
    for oidx in np.unique(orient):
        sel = np.nonzero(orient == oidx)[0]
        if ref_pts.ndim == 3:
            vref, cref = REF.basis_at(int(oidx), ref_pts[sel].reshape(-1, 2))
        elif shared_basis is not None:
            vref, cref = shared_basis(int(oidx))
        else:
            vref, cref = REF.basis_at(int(oidx), ref_pts)
        vals[sel] = vref.reshape(-1, p, N_DOFS_CELL, 2) @ jinv[sel]
        curls[sel] = cref.reshape(-1, p, N_DOFS_CELL) / det[sel][:, :, None]
    return phys, det, vals, curls


def shape_eval(space: EdgeFESpace, cids, ref_pts):
    """Physical basis values (n, p, 12, 2) and curls (n, p, 12) on many cells.

    ref_pts is (p, 2) shared by all cells or (n, p, 2) per cell.
    """
    _, _, vals, curls = _mapped_basis(space, cids, ref_pts)
    return vals, curls


@dataclass
class ConstraintSet:
    """Hanging-edge dofs expressed through their parent-edge dofs."""

    n_dofs: int
    matrix: sp.csr_matrix        # (n_dofs, n_master)
    master_dofs: np.ndarray
    transpose: sp.csr_matrix = field(init=False, repr=False)   # (n_master, n_dofs)

    def __post_init__(self):
        self.transpose = self.matrix.T.tocsr()

    @property
    def n_master(self) -> int:
        return len(self.master_dofs)

    @property
    def rows(self) -> dict[int, list[tuple[int, float]]]:
        """Each constrained dof with its (master dof, coefficient) terms."""
        constrained = np.setdiff1d(np.arange(self.n_dofs), self.master_dofs)
        rows = self.matrix[constrained]
        return {dof: [(int(self.master_dofs[c]), float(v))
                      for c, v in zip(rows.indices[lo:hi], rows.data[lo:hi])]
                for dof, lo, hi in zip(constrained.tolist(), rows.indptr[:-1].tolist(),
                                       rows.indptr[1:].tolist())}

    def distribute(self, reduced: np.ndarray) -> np.ndarray:
        return self.matrix @ reduced

    def restrict(self, full: np.ndarray) -> np.ndarray:
        return full[self.master_dofs]


def _child_transfer(alpha: float, gamma: float) -> np.ndarray:
    """Child-edge moments of a degree-1 trace given parent moments.

    The child parameterizes the parent edge as s = alpha + gamma*s_child.
    """
    return np.array([[gamma, 3.0 * gamma * (2 * alpha + gamma - 1.0)],
                     [0.0, gamma * gamma]])


_T_LO = _child_transfer(0.0, 0.5)    # child from parent's low vertex to midpoint
_T_HI = _child_transfer(1.0, -0.5)   # child from parent's high vertex to midpoint


def build_constraints(space: EdgeFESpace) -> ConstraintSet:
    """Tie child-edge dofs on hanging faces to the parent-edge dofs."""
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
    constrained = np.zeros(space.n_dofs, dtype=bool)
    constrained[slave] = True
    assert not constrained[master].any(), "constraint chains are not allowed"
    master_dofs = np.flatnonzero(~constrained)
    col_of = -np.ones(space.n_dofs, dtype=np.int64)
    col_of[master_dofs] = np.arange(len(master_dofs))
    ri = np.concatenate([master_dofs, slave])
    ci = col_of[np.concatenate([master_dofs, master])]
    data = np.concatenate([np.ones(len(master_dofs)), coef])
    matrix = sp.csr_matrix((data, (ri, ci)), shape=(space.n_dofs, len(master_dofs)))
    return ConstraintSet(n_dofs=space.n_dofs, matrix=matrix, master_dofs=master_dofs)


# The mirror carries a cell onto its mirror cell through one of the four
# reflections of the reference square, told apart by the mirror cell's corner
# that corner 0 goes to.  Per reflection, indexed by that corner: where each
# corner goes, and for each interior moment 8..11 of the cell the moment of
# the mirror cell it reads and its sign.  The reflections are
# (xi, eta) -> (eta, xi), (1 - xi, eta), (1 - eta, 1 - xi), (xi, 1 - eta).
_REFLECT_CORNERS = np.array([(0, 3, 2, 1), (1, 0, 3, 2), (2, 1, 0, 3), (3, 2, 1, 0)])
_REFLECT_SOURCE = np.array([(2, 3, 0, 1), (0, 1, 2, 3), (2, 3, 0, 1), (0, 1, 2, 3)])
_REFLECT_SIGN = np.array([(1, 1, 1, 1), (-1, 1, 1, 1), (-1, 1, -1, 1), (1, 1, -1, 1)])


def _mirror_vertices(mesh: Mesh) -> np.ndarray:
    """Id of the vertex at (-x, y) for each vertex, -1 where there is none.

    Coordinates are keyed on a grid of SHAPE_RESOLUTION * R; a mirror vertex
    rounded into a neighbouring grid cell is found there too.
    """
    x, y = mesh.vertices.T / (SHAPE_RESOLUTION * mesh.R)
    keys = np.round(x) + 1j * np.round(y)
    by_key = np.argsort(keys)
    mirror = np.full(len(keys), -1, dtype=np.int64)
    for shift in np.add.outer([-1, 0, 1], [-1j, 0, 1j]).ravel():
        pos = _find(keys[by_key], np.round(-x) + 1j * np.round(y) + shift)
        mirror[pos >= 0] = by_key[pos[pos >= 0]]
    return mirror


def _mirror_dofs(space: EdgeFESpace):
    """The mirror on the dofs: (perm, sign) with the dofs of the mirrored field
    E(-x, y) * (-1, 1) equal to sign * dofs[perm]; None without an exact mirror.

    A constant edge moment flips its sign when the mirror reverses the global
    direction of its face; a linear edge moment is independent of the
    direction.  Interior moments follow the cell's reflection (_REFLECT_*).
    """
    mesh, keys = space.mesh, space.face_keys
    vertex = _mirror_vertices(mesh)
    ends = vertex[keys]
    codes = _edge_code(keys)
    by_code = np.argsort(codes)
    pos = _find(codes[by_code], _edge_code(np.sort(ends, axis=1)))
    if (ends < 0).any() or (pos < 0).any():
        return None
    face = by_code[pos]
    # a cell is the only one with its lowest and highest face
    faces = space.cell_dofs[:, 0:8:2] // 2
    codes = faces.min(axis=1) * space.n_faces + faces.max(axis=1)
    by_code = np.argsort(codes)
    pos = _find(codes[by_code], face[faces].min(axis=1) * space.n_faces
                + face[faces].max(axis=1))
    if (pos < 0).any():
        return None
    cell = by_code[pos]
    corners = mesh.cells[space.active]
    hit = corners[cell][:, None, :] == vertex[corners][:, :, None]
    case = hit[:, 0].argmax(axis=1)
    arc = np.zeros(space.n_faces, dtype=bool)
    arc[faces] = mesh.arc[space.active]
    if not ((hit.argmax(axis=2) == _REFLECT_CORNERS[case]).all() and hit.any(axis=2).all()
            and np.array_equal(arc[face], arc)):
        return None
    perm = np.empty(space.n_dofs, dtype=np.int64)
    sign = np.ones(space.n_dofs)
    perm[0:2 * space.n_faces:2] = 2 * face
    perm[1:2 * space.n_faces:2] = 2 * face + 1
    sign[0:2 * space.n_faces:2] = np.where(ends[:, 0] < ends[:, 1], 1.0, -1.0)
    interior = space.cell_dofs[:, 8:]
    perm[interior] = 2 * space.n_faces + 4 * cell[:, None] + _REFLECT_SOURCE[case]
    sign[interior] = _REFLECT_SIGN[case]
    return perm, sign


def mirror_even(space: EdgeFESpace, constraints: ConstraintSet) -> ConstraintSet:
    """constraints restricted to the fields that the mirror x -> -x leaves unchanged.

    The dipole problem is mirror symmetric: the sheet, the radial layer, the
    rim and the source all are, so every term of the weak form is invariant
    and its solution lies in this subspace.  The returned set's matrix is
    C Q, with Q mapping one coefficient per mirror orbit of master dofs onto
    the masters (1 on the orbit's lower master, the mirror sign on the other;
    a master that the mirror maps to its own negative is zero), and its
    master dofs are the orbits' lower masters.  A mesh without an exact
    mirror gets constraints back unchanged.
    """
    mirror = _mirror_dofs(space)
    if mirror is None:
        return constraints
    perm, sign = mirror
    masters = constraints.master_dofs
    own = np.arange(len(masters))
    col = np.full(space.n_dofs, -1, dtype=np.int64)
    col[masters] = own
    partner, sign = col[perm[masters]], sign[masters]
    if (partner < 0).any():     # already reduced: its masters' mirrors are not masters
        return constraints
    lower = np.minimum(own, partner)
    rep = (own < partner) | ((own == partner) & (sign > 0))
    live = rep[lower]
    q = sp.csr_matrix((np.where(own == lower, 1.0, sign)[live],
                       (own[live], (np.cumsum(rep) - 1)[lower[live]])),
                      shape=(len(masters), int(rep.sum())))
    return ConstraintSet(n_dofs=constraints.n_dofs, matrix=(constraints.matrix @ q).tocsr(),
                         master_dofs=masters[rep])


def interpolate(space: EdgeFESpace, fun) -> np.ndarray:
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


def face_quadrature(mesh: Mesh, cids, ledges, n: int = 4):
    """Gauss rule with n points on the local edge ledges[k] of cell cids[k].

    Returns reference points (f, n, 2), physical points (f, n, 2), weights
    times the edge speed |dx/dt| (f, n) and unit tangents (f, n, 2) along the
    reference edge direction.
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
    return ref, phys, we * speed, dxdt / speed[..., None]


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


def tangential_trace(sol: FieldSolution, face, xs, side: str = "above") -> np.ndarray:
    """E·e_x sampled at positions xs on a sheet face, from the requested side."""
    cid = face.above if side == "above" else face.below
    if cid is None:
        raise ValueError(f"face has no cell on side {side!r}")
    ref = sheet_ref_points(sol.space.mesh, [cid] * len(xs), xs)
    return sol.values([cid], ref[None])[0, :, 0]
