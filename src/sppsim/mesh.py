"""Hierarchical quadrilateral mesh of a disk with the sheet aligned to mesh faces.

The coarse layout glues two mirrored half-disk quad patterns along the diameter
{y = 0}, so the sheet is a union of cell edges from the start.  Cells refine
into four children (quad-tree); neighboring active cells never differ by more
than one refinement level (closure refinement restores this after every call).
Cells touching the outer circle carry arc edges and use a transfinite
(polar-blended) reference map; all other cells are bilinear.

The mesh is stored as numpy columns indexed by vertex or cell id (a linear
quad-tree): ``vertices`` (nv, 2); per cell ``cells`` (nc, 4) corner vertex
ids, ``level``, ``parent`` (-1 for a root cell), ``children`` (nc, 4; -1
while the cell is active) and ``arc`` (nc, 4) flags.  Ids are append-only, so
every cell ever created keeps its row.

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

# per-cell columns: name -> (row shape, dtype)
_CELL_COLUMNS = {"cells": ((4,), np.int64), "level": ((), np.int64),
                 "parent": ((), np.int64), "children": ((4,), np.int64),
                 "arc": ((4,), bool)}


def _grown(arr: np.ndarray) -> np.ndarray:
    """arr with its row capacity doubled (amortised O(1) appends)."""
    return np.concatenate([arr, np.empty_like(arr)])


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
        self.edge_mid: dict[tuple[int, int], int] = {}
        self.mid_of: dict[int, tuple[int, int]] = {}
        self.edge_to_cells: dict[tuple[int, int], set[int]] = {}
        self._tol = 1e-9 * float(R)

    vertices = property(lambda self: self._xy[:self._nv], doc="(nv, 2) coordinates")
    cells = _cell_column("cells")
    level = _cell_column("level")
    parent = _cell_column("parent")
    children = _cell_column("children")
    arc = _cell_column("arc")

    # -- construction ------------------------------------------------------

    def add_vertex(self, x: float, y: float) -> int:
        if self._nv == len(self._xy):
            self._xy = _grown(self._xy)
        self._xy[self._nv] = (x, y)
        self._nv += 1
        return self._nv - 1

    def add_cell(self, verts, level, parent, arc) -> int:
        """Append a cell; parent is -1 for a root cell."""
        cid = self._nc
        if cid == len(self._cols["cells"]):
            self._cols = {name: _grown(col) for name, col in self._cols.items()}
        row = {"cells": verts, "level": level, "parent": parent, "children": -1,
               "arc": arc}
        for name, value in row.items():
            self._cols[name][cid] = value
        self._nc += 1
        for key in self._keys_of(cid):
            self.edge_to_cells.setdefault(key, set()).add(cid)
        return cid

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

    def _keys_of(self, cid: int) -> list[tuple[int, int]]:
        """Edge keys of one cell as tuples, for the edge dictionaries."""
        return [tuple(key) for key in self.edge_keys([cid])[0].tolist()]

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

    def _edge_midpoint(self, cid: int, ledge: int) -> int:
        key = self._keys_of(cid)[ledge]
        mid = self.edge_mid.get(key)
        if mid is not None:
            return mid
        (ax, ay), (bx, by) = self.vertices[list(key)].tolist()
        if self.arc[cid, ledge]:
            ta = np.arctan2(ay, ax)
            tb = np.arctan2(by, bx)
            dt = (tb - ta + np.pi) % (2 * np.pi) - np.pi
            tm = ta + 0.5 * dt
            mid = self.add_vertex(self.R * np.cos(tm), self.R * np.sin(tm))
        else:
            mid = self.add_vertex(0.5 * (ax + bx), 0.5 * (ay + by))
        self.edge_mid[key] = mid
        self.mid_of[mid] = key
        return mid

    def _coarser_neighbor(self, cid: int, ledge: int):
        """(cid, ledge) of the active cell owning the parent edge if this edge
        is a hanging child, else None."""
        key = self._keys_of(cid)[ledge]
        for vid in key:
            parent_key = self.mid_of.get(vid)
            other = key[0] if key[1] == vid else key[1]
            if parent_key is None or other not in parent_key:
                continue
            # only active cells are registered under an edge
            for coarse in self.edge_to_cells.get(parent_key, ()):
                return coarse, self._keys_of(coarse).index(parent_key)
        return None

    def _split(self, cid: int):
        if self.children[cid, 0] >= 0:
            return
        level = self.level[cid]
        # closure: neighbors across each edge must reach this cell's level first
        for ledge in range(4):
            coarse = self._coarser_neighbor(cid, ledge)
            if coarse is not None and self.level[coarse[0]] < level:
                self._split(coarse[0])
        v0, v1, v2, v3 = self.cells[cid].tolist()
        m0, m1, m2, m3 = (self._edge_midpoint(cid, ledge) for ledge in range(4))
        center_xy = cell_geometry(self, [cid], np.array([[0.5, 0.5]]))[0][0, 0]
        cc = self.add_vertex(center_xy[0], center_xy[1])
        a0, a1, a2, a3 = self.arc[cid].tolist()
        spec = [
            ((v0, m0, cc, m3), (a0, False, False, a3)),
            ((m0, v1, m1, cc), (a0, a1, False, False)),
            ((cc, m1, v2, m2), (False, a1, a2, False)),
            ((m3, cc, m2, v3), (False, False, a2, a3)),
        ]
        for key in self._keys_of(cid):
            self.edge_to_cells[key].discard(cid)
        kids = [self.add_cell(verts, level + 1, cid, arc) for verts, arc in spec]
        self.children[cid] = kids

    def refine(self, marked) -> "Mesh":
        """Split each marked active cell into 4; closure keeps 1-irregularity."""
        for cid in sorted(set(int(c) for c in marked)):
            self._split(cid)    # no-op for a cell already split by closure
        return self

    def uniform_refine(self, times: int = 1) -> "Mesh":
        for _ in range(times):
            self.refine(self.active_ids())
        return self


def build_disk_mesh(R: float, initial_refines: int = 0) -> Mesh:
    """Coarse disk mesh whose cell edges cover the full diameter {y = 0}."""
    if initial_refines < 0:
        raise ValueError("initial_refines must be nonnegative")
    mesh = Mesh(R)
    c = 0.5 * R
    s = R / np.sqrt(2.0)
    A = mesh.add_vertex(-R, 0.0)
    B = mesh.add_vertex(-c, 0.0)
    C = mesh.add_vertex(0.0, 0.0)
    D = mesh.add_vertex(c, 0.0)
    E = mesh.add_vertex(R, 0.0)
    F = mesh.add_vertex(-c, c)
    G = mesh.add_vertex(0.0, c)
    H = mesh.add_vertex(c, c)
    I = mesh.add_vertex(-s, s)
    K = mesh.add_vertex(0.0, R)
    J = mesh.add_vertex(s, s)
    upper = [
        ((A, B, F, I), (False, False, False, True)),
        ((B, C, G, F), (False, False, False, False)),
        ((C, D, H, G), (False, False, False, False)),
        ((D, E, J, H), (False, True, False, False)),
        ((F, G, K, I), (False, False, True, False)),
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


def cell_geometry(mesh: Mesh, cids, ref_pts: np.ndarray):
    """Physical coordinates and Jacobians of the reference map for many cells.

    ref_pts: (p, 2) reference points shared by all cells, or (n, p, 2) one set
    per cell.  Returns (phys (n,p,2), jac (n,p,2,2)).  The map blends the four
    edge curves (transfinite interpolation); with straight edges it reduces to
    the bilinear map.
    """
    cids = np.asarray(cids, dtype=np.int64)
    corners = mesh.cell_corners(cids)
    arcs = mesh.arc[cids]
    ref = np.asarray(ref_pts, dtype=float)
    if ref.ndim == 2:
        ref = ref[None]
    xi, eta = ref[..., 0], ref[..., 1]
    v0, v1, v2, v3 = (corners[:, k] for k in range(4))

    c0, d0 = _edge_points(v0, v1, arcs[:, 0], xi, mesh.R)
    c2, d2 = _edge_points(v3, v2, arcs[:, 2], xi, mesh.R)
    c1, d1 = _edge_points(v1, v2, arcs[:, 1], eta, mesh.R)
    c3, d3 = _edge_points(v0, v3, arcs[:, 3], eta, mesh.R)

    xi_ = xi[..., None]
    eta_ = eta[..., None]
    bl = ((1 - xi_) * (1 - eta_) * v0[:, None] + xi_ * (1 - eta_) * v1[:, None]
          + xi_ * eta_ * v2[:, None] + (1 - xi_) * eta_ * v3[:, None])
    phys = (1 - eta_) * c0 + eta_ * c2 + (1 - xi_) * c3 + xi_ * c1 - bl

    dbl_dxi = (-(1 - eta_) * v0[:, None] + (1 - eta_) * v1[:, None]
               + eta_ * v2[:, None] - eta_ * v3[:, None])
    dbl_deta = (-(1 - xi_) * v0[:, None] - xi_ * v1[:, None]
                + xi_ * v2[:, None] + (1 - xi_) * v3[:, None])
    dxdxi = (1 - eta_) * d0 + eta_ * d2 + (c1 - c3) - dbl_dxi
    dxdeta = (1 - xi_) * d3 + xi_ * d1 + (c2 - c0) - dbl_deta

    jac = np.empty((len(cids), xi.shape[1], 2, 2))
    jac[..., 0] = dxdxi
    jac[..., 1] = dxdeta
    return phys, jac


def jacobian_det(jac: np.ndarray) -> np.ndarray:
    return jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]


# -- face extraction ---------------------------------------------------------

@dataclass(frozen=True)
class Face:
    """A leaf mesh face: an edge of some active cell with no active sub-edges."""

    key: tuple[int, int]
    x_lo: float
    x_hi: float
    owner: int          # active cell having this exact edge, preferring y > 0 side
    owner_edge: int
    above: int | None   # active cell on the y > 0 side (may be coarser)
    below: int | None
    length: float


def _leaf_edges(mesh: Mesh, on_vertex: np.ndarray):
    """Leaf faces whose both ends satisfy the vertex mask, with their (cid, ledge) owners."""
    active = mesh.active_ids()
    keys = mesh.edge_keys(active)
    rows, ledges = np.nonzero(on_vertex[keys].all(axis=2))
    present = {}
    for cid, ledge, key in zip(active[rows].tolist(), ledges.tolist(),
                               keys[rows, ledges].tolist()):
        present.setdefault(tuple(key), []).append((cid, ledge))
    leaves = {}
    for key, owners in present.items():
        mid = mesh.edge_mid.get(key)
        if mid is not None:
            lo, hi = key
            k1 = (lo, mid) if lo < mid else (mid, lo)
            k2 = (hi, mid) if hi < mid else (mid, hi)
            if k1 in present and k2 in present:
                continue  # parent of active sub-edges
        leaves[key] = owners
    return leaves


def interface_faces(mesh: Mesh) -> list[Face]:
    """Active leaf faces on the sheet {y = 0}, sorted by x, oriented with +x."""
    verts = mesh.vertices
    center_y = verts[mesh.cells, 1].mean(axis=1)
    faces = []
    for key, owners in _leaf_edges(mesh, mesh.on_interface()).items():
        xs = sorted((verts[key[0], 0], verts[key[1], 0]))
        sides = list(owners)
        if len(owners) == 1:
            # hanging face: the missing side is a coarser cell over the parent edge
            coarse = mesh._coarser_neighbor(*owners[0])
            if coarse is not None:
                sides.append(coarse)
        above = next((s for s in sides if center_y[s[0]] > 0), None)
        below = next((s for s in sides if center_y[s[0]] < 0), None)
        owner = above if above in owners else owners[0]
        faces.append(Face(key=key, x_lo=xs[0], x_hi=xs[1],
                          owner=owner[0], owner_edge=owner[1],
                          above=above[0] if above else None,
                          below=below[0] if below else None,
                          length=xs[1] - xs[0]))
    if not faces:
        raise GeometryError("mesh has no faces on the sheet; disk layout is broken")
    faces.sort(key=lambda f: 0.5 * (f.x_lo + f.x_hi))
    return faces


def boundary_faces(mesh: Mesh) -> list[Face]:
    """Active leaf faces on the outer circle (arc edges), each owned by one cell."""
    verts = mesh.vertices
    faces = []
    for key, owners in _leaf_edges(mesh, mesh.on_boundary()).items():
        cid, ledge = owners[0]
        xs = sorted((verts[key[0], 0], verts[key[1], 0]))
        faces.append(Face(key=key, x_lo=xs[0], x_hi=xs[1], owner=cid,
                          owner_edge=ledge, above=None, below=None,
                          length=xs[1] - xs[0]))
    faces.sort(key=lambda f: f.key)
    return faces


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
    """Dump the active mesh as a legacy ASCII VTK unstructured grid."""
    active = mesh.active_ids()
    cells = mesh.cells[active]
    used, local = np.unique(cells, return_inverse=True)
    lines = ["# vtk DataFile Version 3.0", "sppsim mesh", "ASCII",
             "DATASET UNSTRUCTURED_GRID", f"POINTS {len(used)} double"]
    lines.extend(f"{x:.16g} {y:.16g} 0" for x, y in mesh.vertices[used].tolist())
    lines.append(f"CELLS {len(active)} {5 * len(active)}")
    lines.extend("4 " + " ".join(map(str, vs))
                 for vs in local.reshape(cells.shape).tolist())
    lines.append(f"CELL_TYPES {len(active)}")
    lines.extend(["9"] * len(active))
    data = dict(cell_data or {})
    data.setdefault("level", mesh.level[active])
    lines.append(f"CELL_DATA {len(active)}")
    for name, values in data.items():
        values = np.asarray(values)
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        lines.extend(f"{float(v):.16g}" for v in values)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
