"""Hierarchical quadrilateral mesh of the half disk x >= 0, sheet aligned to faces.

The problem is symmetric under the mirror x -> -x, and its solution is the
mirror-even one, so only the half disk is meshed; the line x = 0 is a
magnetic wall that the weak form imposes naturally (see harness).  The coarse
layout glues a quarter-disk quad pattern to its mirror image in {y = 0}, so
the sheet is a union of cell edges from the start.  Cells refine into four
children (quad-tree); neighboring active cells never differ by more than one
refinement level (closure refinement restores this after every call).  Cells
touching the outer circle carry arc edges; their reference map adds a
transfinite (Coons) term on each arc edge to the bilinear map of the corners,
which is the whole map of every other cell.

The mesh is stored as numpy columns indexed by vertex or cell id (a linear
quad-tree): ``vertices`` (nv, 2); per cell ``cells`` (nc, 4) corner vertex
ids, ``level``, ``parent`` (-1 for a root cell), ``children`` (nc, 4; -1
while the cell is active) and ``arc`` (nc, 4) flags.  Ids are append-only, so
every cell ever created keeps its row.  Every split edge is a row of one
sorted edge table (edge key, midpoint id) queried with ``searchsorted``; a
midpoint is the newer end of both its half edges, which finds hanging edges.
``refine`` is one array pass per call: a closure walk on cell ids fixes the
split order, then each split cell gets, in that order, ids for its new edge
midpoints (in local edge order), its centre and its four children.

Local conventions on the reference square [0,1]^2 with corners numbered
counterclockwise from the origin:

    edge 0: corner 0 -> 1 (bottom), edge 1: corner 1 -> 2 (right),
    edge 2: corner 3 -> 2 (top),    edge 3: corner 0 -> 3 (left).

Children are stored in quadrant order (0,0), (1,0), (1,1), (0,1) and keep
their reference frames aligned with the parent.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


class GeometryError(Exception):
    """Degenerate or inconsistent mesh geometry."""


# local edge -> (start corner, end corner) in reference direction
EDGE_CORNERS = ((0, 1), (1, 2), (3, 2), (0, 3))
# children quadrant offsets, aligned with parent reference coordinates
CHILD_OFFSETS = ((0, 0), (1, 0), (1, 1), (0, 1))

# corners of the four children among (v0, v1, v2, v3, m0, m1, m2, m3, centre)
# of the parent, m_e being the midpoint of its local edge e
_CHILD_CORNERS = np.array([(0, 4, 8, 7), (4, 1, 5, 8), (8, 5, 2, 6), (7, 8, 6, 3)])
# child q keeps the arc flag of parent edge e where it lies on that edge
_CHILD_ON_EDGE = np.array([(1, 0, 0, 1), (1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)],
                          dtype=bool)

# per-cell columns: name -> (row shape, dtype)
_CELL_COLUMNS = {"cells": ((4,), np.int64), "level": ((), np.int64),
                 "parent": ((), np.int64), "children": ((4,), np.int64),
                 "arc": ((4,), bool)}


def _grown(arr: np.ndarray, rows: int) -> np.ndarray:
    """arr with its row capacity doubled until it holds rows (amortised appends)."""
    while len(arr) < rows:
        arr = np.concatenate([arr, np.empty_like(arr)])
    return arr


def _edge_code(keys) -> np.ndarray:
    """One int64 per sorted vertex-id pair (..., 2), ordered like the pairs."""
    keys = np.asarray(keys, dtype=np.int64)
    return keys[..., 0] << 32 | keys[..., 1]


def _find(sorted_codes: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Position of each code in sorted_codes, -1 where it is absent."""
    if len(sorted_codes) == 0:
        return np.full(np.shape(codes), -1, dtype=np.int64)
    pos = np.minimum(np.searchsorted(sorted_codes, codes), len(sorted_codes) - 1)
    return np.where(sorted_codes[pos] == codes, pos, -1)


def _split_order(marked: list[int], coarser: dict[int, list[int]]) -> list[int]:
    """Cells to split: each marked cell (ascending) after the coarser
    neighbours across its local edges 0..3, each with its own closure first.

    coarser maps a cell to its four coarser neighbours (-1 for none).  It may
    be taken before the walk: a split removes its own cell as a coarser
    neighbour and creates none, as its children could only be coarser
    neighbours of cells two levels finer than it, which 1-irregularity bars.
    """
    order: list[int] = []
    done: set[int] = set()

    def visit(cid):     # recursion depth is bounded by the number of levels
        if cid not in done:
            for coarse in coarser.get(cid, ()):
                if coarse >= 0:
                    visit(coarse)
            done.add(cid)
            order.append(cid)

    for root in marked:
        visit(root)
    return order


def _cell_column(name):
    return property(lambda self: self._cols[name][:self._nc],
                    doc=f"per-cell column {name!r} over all cells created")


class Mesh:
    """Quad-tree forest over a disk of radius R; single-writer mutation."""

    def __init__(self, R: float):
        if not R > 0:
            raise ValueError("disk radius must be positive")
        self.R = float(R)
        self._xy = np.empty((16, 2))
        self._nv = 0
        self._cols = {name: np.empty((16,) + shape, dtype=dtype)
                      for name, (shape, dtype) in _CELL_COLUMNS.items()}
        self._nc = 0
        # edge table: codes of every split edge, ascending, and their midpoints
        self._split_code = np.empty(0, dtype=np.int64)
        self._split_mid = np.empty(0, dtype=np.int64)
        self._tol = 1e-9 * float(R)

    vertices = property(lambda self: self._xy[:self._nv], doc="(nv, 2) coordinates")
    cells = _cell_column("cells")
    level = _cell_column("level")
    parent = _cell_column("parent")
    children = _cell_column("children")
    arc = _cell_column("arc")

    # -- construction ------------------------------------------------------

    def add_vertex(self, x: float, y: float) -> int:
        return self._append_vertices(np.array([[x, y]]))[0]

    def add_cell(self, verts, level, parent, arc) -> int:
        """Append a cell; parent is -1 for a root cell."""
        return self._append_cells([verts], [level], [parent], [arc])[0]

    def _append_vertices(self, xy: np.ndarray) -> range:
        start, self._nv = self._nv, self._nv + len(xy)
        self._xy = _grown(self._xy, self._nv)
        self._xy[start:self._nv] = xy
        return range(start, self._nv)

    def _append_cells(self, verts, level, parent, arc) -> range:
        start, self._nc = self._nc, self._nc + len(level)
        self._cols = {name: _grown(col, self._nc) for name, col in self._cols.items()}
        rows = {"cells": verts, "level": level, "parent": parent, "children": -1,
                "arc": arc}
        for name, value in rows.items():
            self._cols[name][start:self._nc] = value
        return range(start, self._nc)

    # -- queries -----------------------------------------------------------

    def active_ids(self) -> np.ndarray:
        """Ids of the active (unsplit) cells, ascending."""
        return np.flatnonzero(self.children[:, 0] < 0)

    def n_active(self) -> int:
        return len(self.active_ids())

    def cell_corners(self, cids) -> np.ndarray:
        """Corner coordinates (n, 4, 2) of the cells cids."""
        return self.vertices[self.cells[np.asarray(cids, dtype=np.int64)]]

    def edge_keys(self, cids) -> np.ndarray:
        """Sorted vertex-id pairs (n, 4, 2) of the four edges of the cells cids."""
        ends = self.cells[np.asarray(cids, dtype=np.int64)][:, np.array(EDGE_CORNERS)]
        return np.sort(ends, axis=2)

    def edge_midpoints(self, keys) -> np.ndarray:
        """Midpoint vertex id of each sorted edge key (..., 2); -1 if never split."""
        pos = _find(self._split_code, _edge_code(keys))
        return np.append(self._split_mid, -1)[pos]     # pos -1 picks the -1

    def coarser_neighbors(self, cids):
        """Active cell and its local edge across each hanging edge of the cells cids.

        An edge is a hanging half when its newer end is the midpoint of a split
        edge that contains its other end, and some active cell still has that
        parent edge.  Returns (cell, ledge), both (n, 4), -1 on other edges.
        """
        keys = self.edge_keys(cids).reshape(-1, 2)
        parent_of = np.full(self._nv, -1, dtype=np.int64)   # split edge of a midpoint
        parent_of[self._split_mid] = self._split_code
        parent = parent_of[keys[:, 1]]
        half = (parent >= 0) & (((parent >> 32) == keys[:, 0])
                                | ((parent & 0xFFFFFFFF) == keys[:, 0]))
        active = self.active_ids()
        codes = _edge_code(self.edge_keys(active)).ravel()
        by_code = np.argsort(codes, kind="stable")
        pos = _find(codes[by_code], np.where(half, parent, -1))
        flat = np.where(pos >= 0, by_code[pos], -1)
        cell = np.where(flat >= 0, active[flat // 4], -1)
        ledge = np.where(flat >= 0, flat % 4, -1)
        return cell.reshape(-1, 4), ledge.reshape(-1, 4)

    def on_boundary(self) -> np.ndarray:
        """Mask over vertices: on the outer circle."""
        x, y = self.vertices.T
        return np.abs(np.hypot(x, y) - self.R) <= self._tol

    def on_interface(self) -> np.ndarray:
        """Mask over vertices: on the sheet {y = 0}."""
        return np.abs(self.vertices[:, 1]) <= self._tol

    def content_hash(self) -> str:
        corners = self.cell_corners(self.active_ids())
        return hashlib.sha256(np.round(corners, 12).tobytes()).hexdigest()

    # -- refinement --------------------------------------------------------

    def refine(self, marked) -> "Mesh":
        """Split each marked active cell into 4; closure keeps 1-irregularity.

        marked holds integer cell ids in [0, len(cells)), else ValueError;
        repeated ids and ids of cells already split are skipped.
        """
        ids = np.asarray(marked)
        if ids.ndim == 0:
            ids = np.asarray(list(marked))
        ids = ids.ravel()
        if ids.size and ids.dtype.kind not in "iu":
            raise ValueError(f"cell ids must be integers, got dtype {ids.dtype}")
        if np.any((ids < 0) | (ids >= self._nc)):
            raise ValueError(f"cell ids must lie in [0, {self._nc})")
        ids = np.unique(ids.astype(np.int64))
        ids = ids[self.children[ids, 0] < 0]
        if len(ids) == 0:
            return self
        active = self.active_ids()
        coarse, _ = self.coarser_neighbors(active)
        hanging = (coarse >= 0).any(axis=1)
        coarser = dict(zip(active[hanging].tolist(), coarse[hanging].tolist()))
        self._split_cells(np.array(_split_order(ids.tolist(), coarser), dtype=np.int64))
        return self

    def _split_cells(self, order: np.ndarray):
        """Split the active cells order, giving out ids in that order."""
        n = len(order)
        keys = self.edge_keys(order).reshape(-1, 2)
        codes = _edge_code(keys)
        mids = self.edge_midpoints(keys)
        _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
        fresh = np.zeros(4 * n, dtype=bool)
        fresh[first] = True
        fresh &= mids < 0
        # per cell: its new midpoints in local edge order, then its centre
        slots = np.ones((n, 5), dtype=bool)
        slots[:, :4] = fresh.reshape(n, 4)
        vid = (self._nv - 1 + np.cumsum(slots.ravel())).reshape(n, 5)
        new_mid = vid[:, :4].ravel()
        mids = np.where(mids >= 0, mids, new_mid[first][inverse])

        xy = np.empty((slots.sum(), 2))
        xy[new_mid[fresh] - self._nv] = _edge_points(
            self.vertices[keys[fresh, 0]], self.vertices[keys[fresh, 1]],
            self.arc[order].ravel()[fresh], np.array([[0.5]]), self.R)[0][:, 0]
        xy[vid[:, 4] - self._nv] = _split_centres(self, order)
        self._append_vertices(xy)

        table = np.concatenate([self._split_code, codes[fresh]])
        by_code = np.argsort(table, kind="stable")
        self._split_code = table[by_code]
        self._split_mid = np.concatenate([self._split_mid, new_mid[fresh]])[by_code]

        points = np.concatenate([self.cells[order], mids.reshape(n, 4), vid[:, 4:]], axis=1)
        kids = self._append_cells(
            points[:, _CHILD_CORNERS].reshape(-1, 4),
            np.repeat(self.level[order] + 1, 4), np.repeat(order, 4),
            (self.arc[order][:, None, :] & _CHILD_ON_EDGE).reshape(-1, 4))
        self.children[order] = np.reshape(kids, (n, 4))

    def uniform_refine(self, times: int = 1) -> "Mesh":
        for _ in range(times):
            self.refine(self.active_ids())
        return self


def build_disk_mesh(R: float, initial_refines: int = 0) -> Mesh:
    """Coarse half disk x >= 0 whose cell edges cover the radius {y = 0, x >= 0}."""
    if initial_refines < 0:
        raise ValueError("initial_refines must be nonnegative")
    mesh = Mesh(R)
    c = 0.5 * R
    s = R / np.sqrt(2.0)
    C = mesh.add_vertex(0.0, 0.0)
    D = mesh.add_vertex(c, 0.0)
    E = mesh.add_vertex(R, 0.0)
    G = mesh.add_vertex(0.0, c)
    H = mesh.add_vertex(c, c)
    K = mesh.add_vertex(0.0, R)
    J = mesh.add_vertex(s, s)
    upper = [
        ((C, D, H, G), (False, False, False, False)),
        ((D, E, J, H), (False, True, False, False)),
        ((G, H, J, K), (False, False, True, False)),
    ]
    mirror = {}

    def mirrored(vid):
        if vid not in mirror:
            x, y = mesh.vertices[vid]
            mirror[vid] = vid if abs(y) <= mesh._tol else mesh.add_vertex(x, -y)
        return mirror[vid]

    for verts, arc in upper:
        mesh.add_cell(verts, 0, -1, arc)
    for (w0, w1, w2, w3), (a0, a1, a2, a3) in upper:
        verts = (mirrored(w0), mirrored(w3), mirrored(w2), mirrored(w1))
        mesh.add_cell(verts, 0, -1, (a3, a2, a1, a0))
    mesh.uniform_refine(initial_refines)
    return mesh


# -- reference-to-physical geometry -----------------------------------------

def _edge_points(a, b, arc_mask, t, R):
    """Curve positions/derivatives for a batch of edges.

    a, b: (n, 2) endpoint arrays in reference direction; t: (1, p) shared or
    (n, p) per-edge parameters.  Straight chords by default, circle arcs of
    radius R where flagged.
    """
    n, p = a.shape[0], t.shape[1]
    tt = t[:, :, None]
    pos = (1.0 - tt) * a[:, None, :] + tt * b[:, None, :]
    dpos = np.broadcast_to((b - a)[:, None, :], (n, p, 2)).copy()
    if np.any(arc_mask):
        idx = np.nonzero(arc_mask)[0]
        aa, bb = a[idx], b[idx]
        ta = np.arctan2(aa[:, 1], aa[:, 0])
        tb = np.arctan2(bb[:, 1], bb[:, 0])
        dt = (tb - ta + np.pi) % (2 * np.pi) - np.pi
        ang = ta[:, None] + np.broadcast_to(t, (n, p))[idx] * dt[:, None]
        pos[idx, :, 0] = R * np.cos(ang)
        pos[idx, :, 1] = R * np.sin(ang)
        dpos[idx, :, 0] = -R * dt[:, None] * np.sin(ang)
        dpos[idx, :, 1] = R * dt[:, None] * np.cos(ang)
    return pos, dpos


# per local edge: the reference coordinate along it, and its Coons blend
# b0 + slope * (the other coordinate), which is one on the edge, zero opposite
_EDGE_BLEND = ((0, 1.0, -1.0), (1, 0.0, 1.0), (0, 0.0, 1.0), (1, 1.0, -1.0))


def cell_geometry(mesh: Mesh, cids, ref_pts: np.ndarray):
    """Physical coordinates and Jacobians of the reference map for many cells.

    ref_pts: (p, 2) reference points shared by all cells, or (n, p, 2) one set
    per cell.  Returns (phys (n,p,2), jac (n,p,2,2)).  The map is the bilinear
    map of the corners plus, on each edge flagged arc, the Coons term
    blend * (arc - chord) (transfinite interpolation); a cell without arc
    edges is bilinear.  Each cell's numbers depend only on that cell and its
    points, not on the other cells of the batch.
    """
    cids = np.asarray(cids, dtype=np.int64)
    corners = mesh.cell_corners(cids)
    ref = np.asarray(ref_pts, dtype=float)
    # bilinear positions are shape-function weights times the corners, and
    # its derivatives weights times the edge vectors, which keeps the
    # Jacobian of a small cell far from the origin free of cancellation;
    # the sums run elementwise over a trailing cell axis, as a BLAS product
    # would round each cell differently with the size of the batch
    v = np.ascontiguousarray(corners.transpose(1, 2, 0))          # (4, 2, n)
    e0, e1, e2, e3 = v[1] - v[0], v[2] - v[1], v[2] - v[3], v[3] - v[0]
    xi, eta = (ref[..., k].T[:, None, :] if ref.ndim == 3 else ref[:, k, None, None]
               for k in (0, 1))                                    # (p, 1, n or 1)
    phys = ((1 - xi) * (1 - eta) * v[0] + xi * (1 - eta) * v[1]
            + xi * eta * v[2] + (1 - xi) * eta * v[3])             # (p, 2, n)
    dxi = (1 - eta) * e0 + eta * e2
    deta = (1 - xi) * e3 + xi * e1
    phys = np.ascontiguousarray(phys.transpose(2, 0, 1))
    jac = np.ascontiguousarray(np.stack([dxi, deta], axis=-1).transpose(2, 0, 1, 3))
    arcs = mesh.arc[cids]
    for ledge, (along, b0, slope) in enumerate(_EDGE_BLEND):
        rows = np.flatnonzero(arcs[:, ledge])
        if len(rows) == 0:
            continue
        a, b = (corners[rows, k] for k in EDGE_CORNERS[ledge])
        at = ref[rows] if ref.ndim == 3 else ref[None]
        t, other = at[..., along], at[..., 1 - along]
        pos, dpos = _edge_points(a, b, np.ones(len(rows), dtype=bool), t, mesh.R)
        tt = t[..., None]
        gap = pos - ((1.0 - tt) * a[:, None, :] + tt * b[:, None, :])
        blend = (b0 + slope * other)[..., None]
        phys[rows] += blend * gap
        jac[rows, :, :, along] += blend * (dpos - (b - a)[:, None, :])
        jac[rows, :, :, 1 - along] += slope * gap
    return phys, jac


def _split_centres(mesh: Mesh, cids) -> np.ndarray:
    """Centre vertices (n, 2) that splitting the cells cids creates.

    The centre is the image of (1/2, 1/2) under the transfinite map: the sum
    of the edge curves' midpoints over two less the corner sum over four,
    summed in this fixed order.  cell_geometry gives the same point up to
    rounding; vertex placement keeps this rounding, on which the mesh's
    content hash depends.
    """
    corners = mesh.cell_corners(cids)
    arcs = mesh.arc[np.asarray(cids, dtype=np.int64)]
    m0, m1, m2, m3 = (_edge_points(corners[:, a], corners[:, b], arcs[:, e],
                                   np.array([[0.5]]), mesh.R)[0][:, 0]
                      for e, (a, b) in enumerate(EDGE_CORNERS))
    v0, v1, v2, v3 = (corners[:, k] for k in range(4))
    return (0.5 * m0 + 0.5 * m2 + 0.5 * m3 + 0.5 * m1
            - (0.25 * v0 + 0.25 * v1 + 0.25 * v2 + 0.25 * v3))


def jacobian_det(jac: np.ndarray) -> np.ndarray:
    return jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]


def jacobian_inv(jac: np.ndarray, det: np.ndarray) -> np.ndarray:
    """Inverses of a stack of 2x2 Jacobians: the adjugate over the determinant."""
    adj = np.empty_like(jac)
    adj[..., 0, 0] = jac[..., 1, 1]
    adj[..., 0, 1] = -jac[..., 0, 1]
    adj[..., 1, 0] = -jac[..., 1, 0]
    adj[..., 1, 1] = jac[..., 0, 0]
    return adj / det[..., None, None]


# -- face extraction ---------------------------------------------------------

@dataclass(frozen=True)
class FaceTable:
    """Leaf mesh faces as columns, one row per face.

    owner is an active cell having the exact edge and ledge its local edge;
    above and below are the active cells on the y > 0 and y < 0 sides (either
    may be coarser), -1 where a side has no cell, and x_lo < x_hi the face's x
    range.  boundary_faces fills only owner and ledge.
    """

    owner: np.ndarray
    ledge: np.ndarray
    above: np.ndarray | None = None
    below: np.ndarray | None = None
    x_lo: np.ndarray | None = None
    x_hi: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.owner)


def _leaf_edges(mesh: Mesh, on_vertex: np.ndarray):
    """Leaf faces whose both ends satisfy the vertex mask.

    Returns keys (f, 2), in order of first appearance over (active cell, local
    edge), and owners (f, 2, 2): the (cid, ledge) pairs having the exact edge
    in that order, the second (-1, -1) when only one active cell has it.
    """
    active = mesh.active_ids()
    keys = mesh.edge_keys(active)
    rows, ledges = np.nonzero(on_vertex[keys].all(axis=2))
    keys = keys[rows, ledges]
    codes = _edge_code(keys)
    _, first = np.unique(codes, return_index=True)
    _, last = np.unique(codes[::-1], return_index=True)
    last = len(codes) - 1 - last
    # an active edge that was split is a coarse cell's side of a hanging
    # pair: by 1-irregularity its two halves are active edges, and the leaves
    leaf = mesh.edge_midpoints(keys[first]) < 0
    by_appearance = np.argsort(first[leaf])
    first, last = first[leaf][by_appearance], last[leaf][by_appearance]
    owners = np.stack([np.stack([active[rows[first]], ledges[first]], axis=1),
                       np.stack([active[rows[last]], ledges[last]], axis=1)], axis=1)
    owners[last == first, 1] = -1
    return keys[first], owners


def interface_faces(mesh: Mesh) -> FaceTable:
    """Active leaf faces on the sheet {y = 0}, sorted by x, oriented with +x."""
    keys, owners = _leaf_edges(mesh, mesh.on_interface())
    if len(keys) == 0:
        raise GeometryError("mesh has no faces on the sheet; disk layout is broken")
    # hanging face: the missing side is a coarser cell over the parent edge
    sides = owners[:, :, 0].copy()
    single = np.flatnonzero(sides[:, 1] < 0)
    coarse, _ = mesh.coarser_neighbors(sides[single, 0])
    sides[single, 1] = coarse[np.arange(len(single)), owners[single, 0, 1]]
    center_y = np.where(sides >= 0, mesh.vertices[mesh.cells[sides], 1].mean(axis=2), 0.0)
    up, down = center_y > 0, center_y < 0
    rows = np.arange(len(keys))
    above = np.where(up.any(axis=1), sides[rows, up.argmax(axis=1)], -1)
    below = np.where(down.any(axis=1), sides[rows, down.argmax(axis=1)], -1)
    # the cell above owns the face when it has the exact edge, else the first owner
    second_above = up[:, 1] & ~up[:, 0] & (owners[:, 1, 0] >= 0)
    owner = owners[rows, second_above.astype(np.int64)]
    xs = np.sort(mesh.vertices[keys, 0], axis=1)
    order = np.argsort(xs.sum(axis=1), kind="stable")    # by face midpoint
    return FaceTable(owner=owner[order, 0], ledge=owner[order, 1], above=above[order],
                     below=below[order], x_lo=xs[order, 0], x_hi=xs[order, 1])


def boundary_faces(mesh: Mesh) -> FaceTable:
    """Active leaf faces on the outer circle (arc edges), each owned by one cell."""
    keys, owners = _leaf_edges(mesh, mesh.on_boundary())
    order = np.lexsort((keys[:, 1], keys[:, 0]))
    return FaceTable(owner=owners[order, 0, 0], ledge=owners[order, 0, 1])


def cells_intersecting_disk(mesh: Mesh, center, radius: float) -> np.ndarray:
    """Active cells whose bounding circle meets the given disk."""
    center = np.asarray(center, dtype=float)
    cids = mesh.active_ids()
    corners = mesh.cell_corners(cids)
    mids = corners.mean(axis=1)
    rads = np.linalg.norm(corners - mids[:, None, :], axis=2).max(axis=1)
    hit = np.linalg.norm(mids - center[None, :], axis=1) <= radius + rads
    return cids[hit]


def cell_diameters(mesh: Mesh, cids) -> np.ndarray:
    corners = mesh.cell_corners(cids)
    d1 = np.linalg.norm(corners[:, 0] - corners[:, 2], axis=1)
    d2 = np.linalg.norm(corners[:, 1] - corners[:, 3], axis=1)
    return np.maximum(d1, d2)


def write_vtk(mesh: Mesh, path, cell_data: dict | None = None):
    """Dump the active mesh as a legacy ASCII VTK unstructured grid.

    Points, cells and each scalar column are formatted in one pass with one
    %-template per block (floats as %.16g), and the file is written at once.
    """
    active = mesh.active_ids()
    n = len(active)
    used, local = np.unique(mesh.cells[active], return_inverse=True)
    data = dict(cell_data or {})
    data.setdefault("level", mesh.level[active])
    parts = ["# vtk DataFile Version 3.0\nsppsim mesh\nASCII\nDATASET UNSTRUCTURED_GRID\n"
             f"POINTS {len(used)} double\n",
             "%.16g %.16g 0\n" * len(used) % tuple(mesh.vertices[used].ravel().tolist()),
             f"CELLS {n} {5 * n}\n",
             "4 %d %d %d %d\n" * n % tuple(local.ravel().tolist()),
             f"CELL_TYPES {n}\n" + "9\n" * n + f"CELL_DATA {n}\n"]
    for name, values in data.items():
        values = np.asarray(values, dtype=float)
        parts.append(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n"
                     + "%.16g\n" * len(values) % tuple(values.tolist()))
    with open(path, "w") as fh:
        fh.write("".join(parts))
