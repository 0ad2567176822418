"""Order-2 curl-conforming (edge) elements on the quad-tree mesh.

The reference element on [0,1]^2 spans Q_{1,2} x Q_{2,1} (12 functions): the
x-component has degree (1,2), the y-component degree (2,1).  Degrees of
freedom are tangential moments against the constant and the linear Legendre
weight on each edge (8) plus four interior moments.  Edge moments are taken
with respect to the GLOBAL edge direction (lower vertex id to higher), so two
cells sharing an edge reference literally the same functionals: a cell's basis
is the one reference basis times a +-1 per dof (dof_signs), -1 on the
constant moment of each local edge that runs against the global direction.

Fields map to physical cells with the covariant transform E = J^{-T} E_ref,
which preserves tangential line integrals; the scalar 2D curl then transforms
as curl E = (curl_ref E_ref)/det J.  The basis itself is never mapped: the
reference element caches each table once (values and curls at the
quadrature points and their products), a cell contributes only its geometry
(J, det J at its points) and its dof signs, and a field is contracted with
the reference basis before J^{-T} and 1/det J are applied to the result.

The tangential trace on an edge is fixed by that edge's two moments alone
(moment_traces): face terms, loads and sampled traces read a face's two dofs.

Hanging edges on 1-irregular meshes are constrained: the two child-edge
moment pairs are fixed linear images of the parent-edge pair, which makes the
tangential trace globally continuous.  The interior moments are never
constrained; assembly condenses them cell by cell, so the unknowns of the
factorized system are the unconstrained edge dofs alone, and the constraint
map of a condensed system (assembly.ComplexSystem) also carries each cell's
interior dofs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp

from .mesh import (EDGE_CORNERS, FaceTable, GeometryError, Mesh, cell_geometry,
                   covariant_map, interface_faces, jacobian_det)

# the element's monomial space Q_{1,2} x Q_{2,1}: the exponents (i, j) of the
# x-component's monomials x^i y^j, then the y-component's (vector_monomials)
ELEMENT_SPACE = (((0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)),
                 ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 1)))

# reference corners and edge tangents
_CORNER_XY = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
_EDGE_TANGENT = ((1.0, 0.0), (0.0, 1.0), (1.0, 0.0), (0.0, 1.0))

N_DOFS_CELL = 12
# the edge moments come first in a cell's dofs, the four interior moments last
N_EDGE_DOFS = 8
# Gauss points per face (face_quadrature)
FACE_POINTS = 4
# Gauss points per direction of the cell rule (ReferenceElement.quad_pts)
CELL_POINTS = 4


@lru_cache(maxsize=16)
def gauss01(n: int):
    """Nodes and weights of n-point Gauss-Legendre on [0, 1], read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    t, wt = 0.5 * (x + 1.0), 0.5 * w
    t.flags.writeable = wt.flags.writeable = False
    return t, wt


def vector_monomials(pts, space):
    """Values (npts, m, 2) and scalar curls (npts, m) of the monomial fields of
    a space, a pair of exponent tables: x^i y^j e_x for each (i, j) of the
    first, then x^i y^j e_y for each of the second.

    Each power x^k and y^k is taken once; the curl of x^i y^j e_x is
    -j x^i y^(j-1), -0.0 where j = 0.
    """
    pts = np.asarray(pts, dtype=float)
    ux, vy = space
    degrees = range(1 + np.max(ux + vy))
    x = [pts[:, 0] ** k for k in degrees]
    y = [pts[:, 1] ** k for k in degrees]
    vals = np.zeros((len(pts), len(ux) + len(vy), 2))
    curls = np.empty((len(pts), len(ux) + len(vy)))
    for m, (i, j) in enumerate(ux):
        vals[:, m, 0] = x[i] * y[j]
        curls[:, m] = -j * x[i] * y[j - 1] if j else -0.0
    for m, (i, j) in enumerate(vy, len(ux)):
        vals[:, m, 1] = x[i] * y[j]
        curls[:, m] = i * x[i - 1] * y[j] if i else 0.0
    return vals, curls


def _edge_ref_points(ledge: int, t):
    a = np.asarray(_CORNER_XY[EDGE_CORNERS[ledge][0]])
    b = np.asarray(_CORNER_XY[EDGE_CORNERS[ledge][1]])
    t = np.asarray(t, dtype=float)
    return (1 - t)[:, None] * a[None, :] + t[:, None] * b[None, :]


class ReferenceElement:
    """Dof functionals and cached tables of the one reference basis."""

    def __init__(self):
        x, w = gauss01(CELL_POINTS)
        XI, ETA = np.meshgrid(x, x, indexing="ij")
        self.quad_pts = np.column_stack([XI.ravel(), ETA.ravel()])
        self.quad_wts = np.outer(w, w).ravel()
        tb, wb = gauss01(3)
        XB, YB = np.meshgrid(tb, tb, indexing="ij")
        self._bulk_pts = np.column_stack([XB.ravel(), YB.ravel()])
        self._bulk_wts = np.outer(wb, wb).ravel()

    def dof_matrix(self) -> np.ndarray:
        """V[i, m] = functional_i applied to monomial field m."""
        V = np.empty((N_DOFS_CELL, N_DOFS_CELL))
        te, we = gauss01(3)
        for ledge in range(4):
            pts = _edge_ref_points(ledge, te)
            tau = np.asarray(_EDGE_TANGENT[ledge])
            vals, _ = vector_monomials(pts, ELEMENT_SPACE)
            tang = vals @ tau  # (npts, 12)
            V[2 * ledge] = we @ tang
            V[2 * ledge + 1] = we @ (tang * (2 * te - 1)[:, None])
        vals, _ = vector_monomials(self._bulk_pts, ELEMENT_SPACE)
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

    @cached_property
    def coeffs(self) -> np.ndarray:
        """Monomial coefficients (12, 12) of the nodal basis, one column per function."""
        try:
            return np.linalg.inv(self.dof_matrix())
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise GeometryError("edge-element dof set is not unisolvent") from exc

    def basis_at(self, pts):
        """(npts, 12, 2) values and (npts, 12) curls on the reference square."""
        C = self.coeffs
        vals, curls = vector_monomials(pts, ELEMENT_SPACE)
        return np.einsum("mb,pmc->pbc", C, vals), curls @ C

    @cached_property
    def basis_at_quad(self):
        return self.basis_at(self.quad_pts)

    @cached_property
    def volume_products(self) -> np.ndarray:
        """Basis products at the quadrature points, (5p, 144), columns b * 12 + d.

        Row q < p holds curl_b curl_d at point q and row p + 4q + 2i + j holds
        v_b,i v_d,j, so a local matrix is one coefficient row per cell times
        this table, times the signs of b and d.
        """
        vals, curls = self.basis_at_quad
        p = len(self.quad_wts)
        curl = curls[:, :, None] * curls[:, None, :]
        val = vals[:, :, None, :, None] * vals[:, None, :, None, :]     # (p, b, d, i, j)
        return np.concatenate([curl.reshape(p, -1),
                               val.transpose(0, 3, 4, 1, 2).reshape(4 * p, -1)])


REF = ReferenceElement()


def gemm_real(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for complex a and real b, as two real matmuls (no complex copy of b)."""
    real = a.real @ b
    out = np.empty(real.shape, dtype=complex)
    out.real = real
    out.imag = a.imag @ b
    return out


def dof_signs(space: "EdgeFESpace", cids) -> np.ndarray:
    """Signs (n, 12) of the basis functions of the cells cids against REF's:
    -1 on the constant moment of a local edge that runs against the global
    direction, +1 elsewhere (the linear moment's weight 2t - 1 flips too)."""
    orient = space.orient_idx[space.rank[cids]]
    signs = np.ones((len(orient), N_DOFS_CELL))
    signs[:, 0:N_EDGE_DOFS:2] = 1 - 2 * ((orient[:, None] >> np.arange(4)) & 1)
    return signs


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
    orient_idx: np.ndarray     # (n_active,) bit e set: edge e against the global direction
    face_keys: np.ndarray      # (n_faces, 2) sorted vertex-id pair of each face
    n_faces: int
    n_dofs: int

    @cached_property
    def sheet_faces(self) -> FaceTable:
        """The mesh's leaf faces on the sheet (interface_faces), built once."""
        return interface_faces(self.mesh)

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


def evaluate_fields(space: EdgeFESpace, cids, ref_pts, coeffs):
    """Physical points, det J, and the values and curls of several fields.

    ref_pts (p, 2) is shared by all cells; coeffs holds s global coefficient
    vectors.  Returns phys (n, p, 2), det (n, p), values (s, n, p, 2) and
    curls (s, n, p).  A cell's basis is REF.coeffs times the monomial fields,
    up to dof_signs, so each field's signed local coefficients are turned
    into monomial coefficients and contracted with the monomials at the
    points, one real matmul pair each; only the results are mapped, E =
    J^{-T} E_ref and curl E = curl_ref E_ref / det J.
    """
    phys, jac = cell_geometry(space.mesh, cids, ref_pts)
    det = positive_det(jac)
    n, p = det.shape
    dofs = space.cell_dofs[space.rank[cids]]
    signs = dof_signs(space, cids)
    mono = np.stack([gemm_real(c[dofs] * signs, REF.coeffs.T) for c in coeffs])
    mono_vals, mono_curls = vector_monomials(ref_pts, ELEMENT_SPACE)
    table = np.hstack([mono_vals.transpose(1, 0, 2).reshape(N_DOFS_CELL, 2 * p),
                       mono_curls.T])
    vals = np.empty((len(coeffs), n, p, 2), dtype=complex)
    curls = np.empty((len(coeffs), n, p), dtype=complex)
    for k in range(len(coeffs)):
        out = gemm_real(mono[k], table)
        vals[k] = out[:, :2 * p].reshape(n, p, 2)
        curls[k] = out[:, 2 * p:]
    vals[..., 0], vals[..., 1] = covariant_map(jac, det, vals[..., 0], vals[..., 1])
    return phys, det, vals, curls / det


@dataclass
class ConstraintSet:
    """All dofs expressed through the master dofs, the unconstrained edge dofs.

    build_constraints ties each hanging edge's dofs to its parent edge's and
    leaves the interior rows empty; the constraint map of a condensed system
    (assembly.ComplexSystem) fills them.  Cell by cell the same map reads:
    the edge dofs x_e of active cell r are T x_m, where x_m holds the masters
    cell_masters[r] and T is cell_maps[map_index[r]] for a cell with a
    hanging edge (map_index[r] >= 0) and the identity otherwise.
    """

    n_dofs: int
    matrix: sp.csr_matrix        # (n_dofs, n_master)
    master_dofs: np.ndarray
    cell_masters: np.ndarray     # (n_active, 8) master column of each edge dof
    map_index: np.ndarray        # (n_active,) row in cell_maps, or -1
    cell_maps: np.ndarray        # (n_hanging, 8, 8) block-diagonal T

    @property
    def n_master(self) -> int:
        return len(self.master_dofs)

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
    """Tie child-edge dofs on hanging faces to the parent-edge dofs.

    Mesh.coarser_neighbors gives each hanging child face, as a (cell, local
    edge) of the finer side, with the coarser cell edge that contains it, the
    parent face.  The child at the parent's lower vertex id is its low half.
    Each such edge sets its cell's 2x2 block of T to _T_LO or _T_HI, its two
    master columns to the parent face's, and its two rows of C to that block
    on the parent's dofs.  The masters are the unconstrained edge dofs; the
    interior dofs' rows stay empty.
    """
    coarse, ledge = space.mesh.coarser_neighbors(space.active)
    fine, fine_edge = np.nonzero(coarse >= 0)
    child = space.cell_dofs[fine, 2 * fine_edge] // 2
    parent = space.cell_dofs[space.rank[coarse[fine, fine_edge]],
                             2 * ledge[fine, fine_edge]] // 2
    high = ~(space.face_keys[child] == space.face_keys[parent, :1]).any(axis=1)
    T = np.stack([_T_LO, _T_HI])[high.astype(int)]                 # (h, 2, 2)
    hanging, slot = np.unique(fine, return_inverse=True)
    pair = 2 * fine_edge[:, None] + np.arange(2)                   # the edge's local dofs
    cell_maps = np.tile(np.eye(N_EDGE_DOFS), (len(hanging), 1, 1))
    cell_maps[slot[:, None, None], pair[:, :, None], pair[:, None, :]] = T
    map_index = np.full(len(space.active), -1, dtype=np.int64)
    map_index[hanging] = np.arange(len(hanging))
    parent_dofs = 2 * parent[:, None] + np.arange(2)
    # dof 2 child + j = sum_k T[j, k] * dof 2 parent + k, for the nonzero T[j, k]
    slave = np.broadcast_to((2 * child[:, None] + np.arange(2))[:, :, None], T.shape)
    master = np.broadcast_to(parent_dofs[:, None, :], T.shape)
    nonzero = T != 0.0
    slave, master, coef = slave[nonzero], master[nonzero], T[nonzero]
    constrained = np.zeros(space.n_edge_dofs, dtype=bool)
    constrained[slave] = True
    assert not constrained[master].any(), "constraint chains are not allowed"
    master_dofs = np.flatnonzero(~constrained)
    col_of = -np.ones(space.n_edge_dofs, dtype=np.int64)
    col_of[master_dofs] = np.arange(len(master_dofs))
    cell_masters = col_of[space.cell_dofs[:, :N_EDGE_DOFS]]
    cell_masters[fine[:, None], pair] = col_of[parent_dofs]
    ri = np.concatenate([master_dofs, slave])
    ci = col_of[np.concatenate([master_dofs, master])]
    data = np.concatenate([np.ones(len(master_dofs)), coef])
    matrix = sp.csr_matrix((data, (ri, ci)), shape=(space.n_dofs, len(master_dofs)))
    return ConstraintSet(n_dofs=space.n_dofs, matrix=matrix, master_dofs=master_dofs,
                         cell_masters=cell_masters, map_index=map_index,
                         cell_maps=cell_maps)


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
    # the bilinear map's derivative along an edge is the edge's chord
    dxdt = np.einsum("fpij,fj->fpi", jac, np.asarray(_EDGE_TANGENT)[ledges])
    speed = np.linalg.norm(dxdt, axis=2)
    return ref, phys, we * speed, dxdt / speed[..., None], speed


@dataclass(frozen=True)
class FaceQuadrature:
    """Gauss rule on the owner edge of each face, with the face's trace.

    owner (f,) are the owner cells, slots (f, 2) the owner's edge slots of
    the face's two dofs and dofs (f, 2) those dofs, ref and phys (f, p, 2)
    the reference and physical points, weights (f, p) the Gauss weights
    times the edge speed, tangent (f, p, 2) the unit tangents along the
    reference edge and traces (f, p, 2) the traces of the face's two moment
    functions (moment_traces), the only ones the owner has there.
    """

    owner: np.ndarray
    slots: np.ndarray
    dofs: np.ndarray
    ref: np.ndarray
    phys: np.ndarray
    weights: np.ndarray
    tangent: np.ndarray
    traces: np.ndarray


def moment_traces(space: EdgeFESpace, owner, ledge, t, speed) -> np.ndarray:
    """Tangential traces phi . t (f, p, 2) of the two moment functions of the
    local edge ledge[k] of the cell owner[k] at the parameters t (f, p) along
    its reference direction, speed (f, p) the edge speed |dx/dt| there.

    The degree-1 traces with one unit moment, against 1 or 2t - 1, and a zero
    one are 1 and 3 (2t - 1); every other function has zero moments, and so
    no trace, on the edge.  The map divides by the speed, the dof sign flips
    the first.
    """
    sign = 1 - 2 * ((space.orient_idx[space.rank[owner]] >> ledge) & 1)
    pair = np.stack([np.broadcast_to(sign[:, None], t.shape), 3 * (2 * t - 1)], axis=-1)
    return pair / speed[..., None]


def face_traces(space: EdgeFESpace, faces: FaceTable) -> FaceQuadrature:
    """face_quadrature on each face's owner edge, its two dofs and their traces."""
    ref, phys, weights, tangent, speed = face_quadrature(space.mesh, faces.owner,
                                                         faces.ledge)
    slots = 2 * faces.ledge[:, None] + np.arange(2)
    t = np.broadcast_to(gauss01(FACE_POINTS)[0], speed.shape)
    return FaceQuadrature(owner=faces.owner, slots=slots,
                          dofs=space.cell_dofs[space.rank[faces.owner][:, None], slots],
                          ref=ref, phys=phys, weights=weights, tangent=tangent,
                          traces=moment_traces(space, faces.owner, faces.ledge, t, speed))


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
