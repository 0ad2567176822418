"""Hierarchical quadrilateral mesh of the half disk x >= 0, sheet aligned to faces.

The problem is symmetric under the mirror x -> -x, and its solution is the
mirror-even one, so only the half disk is meshed; the line x = 0 is a
magnetic wall that the weak form imposes naturally (see harness).  The coarse
layout glues a quarter-disk quad pattern to its mirror image in {y = 0}, so
the sheet is a union of cell edges from the start.  Cells refine into four
children (quad-tree); neighboring active cells never differ by more than one
refinement level (closure refinement restores this after every call).  Every
edge is straight and every cell's reference map is the bilinear map of its
corners.  The outer circle is a polygon whose vertices lie on it: splitting an
edge with both ends on the circle puts its midpoint on the circle, at the
bisecting angle, and every other midpoint is the chord's.

The mesh is stored as numpy columns indexed by vertex or cell id (a linear
quad-tree): ``vertices`` (nv, 2); per cell ``cells`` (nc, 4) corner vertex
ids, ``level``, ``parent`` (-1 for a root cell) and ``children`` (nc, 4; -1
while the cell is active).  Each column is a plain array of exact length: an
append extends it by one concatenation, and ``refine`` appends its new
vertices and cells as one block each.  Ids are append-only, so every cell
ever created keeps its row.  Every split edge is a row of one sorted edge
table (edge key, midpoint id) queried with ``searchsorted``; a midpoint is
the newer end of both its half edges, which finds hanging edges.  The codes
of the active cells' edges, sorted, form the second table that
``coarser_neighbors`` queries; it is built on the first query after a change
and kept until cells are next appended, so every query on one mesh state
(the constraints, the sheet faces, the next refine) shares one sort.
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
_EDGE_START, _EDGE_END = np.array(EDGE_CORNERS).T
# children quadrant offsets, aligned with parent reference coordinates
CHILD_OFFSETS = ((0, 0), (1, 0), (1, 1), (0, 1))

# corners of the four children among (v0, v1, v2, v3, m0, m1, m2, m3, centre)
# of the parent, m_e being the midpoint of its local edge e
_CHILD_CORNERS = np.array([(0, 4, 8, 7), (4, 1, 5, 8), (8, 5, 2, 6), (7, 8, 6, 3)])

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


def _active_edge_table(mesh: "Mesh"):
    """Active cell ids, the codes of their edges ascending, and the flat
    position (rank * 4 + local edge) of each sorted code."""
    active = mesh.active_ids()
    codes = _edge_code(mesh.edge_keys(active)).ravel()
    by_code = np.argsort(codes, kind="stable")
    return active, codes[by_code], by_code


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


class Mesh:
    """Quad-tree forest over a disk of radius R; single-writer mutation."""

    def __init__(self, R: float):
        if not R > 0:
            raise ValueError("disk radius must be positive")
        self.R = float(R)
        self.vertices = np.empty((0, 2))
        self.cells = np.empty((0, 4), dtype=np.int64)
        self.level = np.empty(0, dtype=np.int64)
        self.parent = np.empty(0, dtype=np.int64)
        self.children = np.empty((0, 4), dtype=np.int64)
        # edge table: codes of every split edge, ascending, and their midpoints
        self._split_code = np.empty(0, dtype=np.int64)
        self._split_mid = np.empty(0, dtype=np.int64)
        # active-edge table (_active_edge_table), None until queried after a change
        self._edges: tuple | None = None
        self._tol = 1e-9 * float(R)

    # -- construction ------------------------------------------------------

    def add_vertex(self, x: float, y: float) -> int:
        return self._append_vertices(np.array([[x, y]]))[0]

    def add_cell(self, verts, level, parent) -> int:
        """Append a cell; parent is -1 for a root cell."""
        return self._append_cells([verts], [level], [parent])[0]

    def _append_vertices(self, xy: np.ndarray) -> range:
        start = len(self.vertices)
        self.vertices = np.concatenate([self.vertices, xy])
        return range(start, len(self.vertices))

    def _append_cells(self, verts, level, parent) -> range:
        # every change appends cells (_split_cells marks the parents split
        # right after, with no query between), so this drops the stale table
        self._edges = None
        start = len(self.cells)
        self.cells = np.concatenate([self.cells, verts])
        self.level = np.concatenate([self.level, level])
        self.parent = np.concatenate([self.parent, parent])
        self.children = np.concatenate([self.children, np.full((len(level), 4), -1)])
        return range(start, len(self.cells))

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
        corners = self.cells[np.asarray(cids, dtype=np.int64)]
        start, end = corners[:, _EDGE_START], corners[:, _EDGE_END]
        return np.stack([np.minimum(start, end), np.maximum(start, end)], axis=2)

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
        # split edge of each midpoint
        parent_of = np.full(len(self.vertices), -1, dtype=np.int64)
        parent_of[self._split_mid] = self._split_code
        parent = parent_of[keys[:, 1]]
        half = (parent >= 0) & (((parent >> 32) == keys[:, 0])
                                | ((parent & 0xFFFFFFFF) == keys[:, 0]))
        if self._edges is None:
            self._edges = _active_edge_table(self)
        active, codes, by_code = self._edges
        pos = _find(codes, np.where(half, parent, -1))
        flat = np.where(pos >= 0, by_code[pos], -1)
        cell = np.where(flat >= 0, active[flat // 4], -1)
        ledge = np.where(flat >= 0, flat % 4, -1)
        return cell.reshape(-1, 4), ledge.reshape(-1, 4)

    def on_interface(self) -> np.ndarray:
        """Mask over vertices: on the sheet {y = 0}."""
        return np.abs(self.vertices[:, 1]) <= self._tol

    def on_rim(self) -> np.ndarray:
        """Mask over vertices: on the outer circle r = R."""
        return np.abs(np.hypot(self.vertices[:, 0], self.vertices[:, 1]) - self.R) <= self._tol

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
        if np.any((ids < 0) | (ids >= len(self.cells))):
            raise ValueError(f"cell ids must lie in [0, {len(self.cells)})")
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
        nv = len(self.vertices)
        vid = (nv - 1 + np.cumsum(slots.ravel())).reshape(n, 5)
        new_mid = vid[:, :4].ravel()
        mids = np.where(mids >= 0, mids, new_mid[first][inverse])

        xy = np.empty((slots.sum(), 2))
        xy[new_mid[fresh] - nv] = _midpoints(self, keys[fresh])
        # the centre, m0..m3 the cell's edge midpoints and v0..v3 its corners,
        # summed in this fixed order (the vertices' bits fix the content hash)
        m0, m1, m2, m3 = np.concatenate([self.vertices, xy])[mids.reshape(n, 4).T]
        v0, v1, v2, v3 = self.vertices[self.cells[order].T]
        xy[vid[:, 4] - nv] = 0.5 * (m0 + m2 + m3 + m1) - 0.25 * (v0 + v1 + v2 + v3)
        self._append_vertices(xy)

        table = np.concatenate([self._split_code, codes[fresh]])
        by_code = np.argsort(table, kind="stable")
        self._split_code = table[by_code]
        self._split_mid = np.concatenate([self._split_mid, new_mid[fresh]])[by_code]

        points = np.concatenate([self.cells[order], mids.reshape(n, 4), vid[:, 4:]], axis=1)
        kids = self._append_cells(points[:, _CHILD_CORNERS].reshape(-1, 4),
                                  np.repeat(self.level[order] + 1, 4), np.repeat(order, 4))
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
    upper = [(C, D, H, G), (D, E, J, H), (G, H, J, K)]
    mirror = {}

    def mirrored(vid):
        if vid not in mirror:
            x, y = mesh.vertices[vid]
            mirror[vid] = vid if abs(y) <= mesh._tol else mesh.add_vertex(x, -y)
        return mirror[vid]

    for verts in upper:
        mesh.add_cell(verts, 0, -1)
    for w0, w1, w2, w3 in upper:
        mesh.add_cell((mirrored(w0), mirrored(w3), mirrored(w2), mirrored(w1)), 0, -1)
    mesh.uniform_refine(initial_refines)
    return mesh


def _midpoints(mesh: Mesh, keys) -> np.ndarray:
    """New vertices (n, 2) of the edges keys (n, 2): on the circle at the
    bisecting angle where both ends lie on it, the chord's midpoint elsewhere."""
    a, b = mesh.vertices[keys[:, 0]], mesh.vertices[keys[:, 1]]
    xy = 0.5 * (a + b)
    rim = np.flatnonzero(mesh.on_rim()[keys].all(axis=1))
    ta = np.arctan2(a[rim, 1], a[rim, 0])
    tb = np.arctan2(b[rim, 1], b[rim, 0])
    angle = ta + 0.5 * ((tb - ta + np.pi) % (2 * np.pi) - np.pi)
    xy[rim] = mesh.R * np.column_stack([np.cos(angle), np.sin(angle)])
    return xy


# -- reference-to-physical geometry -----------------------------------------

def cell_geometry(mesh: Mesh, cids, ref_pts: np.ndarray):
    """Physical coordinates and Jacobians of the reference map for many cells.

    ref_pts: (p, 2) reference points shared by all cells, or (n, p, 2) one set
    per cell.  Returns (phys (n,p,2), jac (n,p,2,2)).  The map is the bilinear
    map of the corners, so its derivative along each edge is the edge's chord.
    Each cell's numbers depend only on that cell and its points, not on the
    other cells of the batch.
    """
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
    return phys, jac


def jacobian_det(jac: np.ndarray) -> np.ndarray:
    return jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]


def covariant_map(jac: np.ndarray, det: np.ndarray, hx, hy):
    """J^{-T} h = adj(J)^T h / det J of a field with reference-frame
    components (hx, hy), written out for the 2x2 stack."""
    return ((jac[..., 1, 1] * hx - jac[..., 1, 0] * hy) / det,
            (jac[..., 0, 0] * hy - jac[..., 0, 1] * hx) / det)


# -- face extraction ---------------------------------------------------------

@dataclass(frozen=True)
class FaceTable:
    """Leaf mesh faces as columns, one row per face.

    owner is an active cell having the exact edge and ledge its local edge;
    above and below are the active cells on the y > 0 and y < 0 sides (either
    may be coarser), -1 where a side has no cell, and x_lo < x_hi the face's x
    range.
    """

    owner: np.ndarray
    ledge: np.ndarray
    above: np.ndarray
    below: np.ndarray
    x_lo: np.ndarray
    x_hi: np.ndarray

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
