"""Hierarchical quadrilateral mesh of a disk with the sheet aligned to mesh faces.

The coarse layout glues two mirrored half-disk quad patterns along the diameter
{y = 0}, so the sheet is a union of cell edges from the start.  Cells refine
into four children (quad-tree); neighboring active cells never differ by more
than one refinement level (closure refinement restores this after every call).
Cells touching the outer circle carry arc edges and use a transfinite
(polar-blended) reference map; all other cells are bilinear.

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


class Cell:
    __slots__ = ("id", "level", "verts", "parent", "children", "arc")

    def __init__(self, cid, level, verts, parent, arc):
        self.id = cid
        self.level = level
        self.verts = tuple(verts)
        self.parent = parent
        self.children = None
        self.arc = tuple(arc)

    @property
    def active(self):
        return self.children is None

    def edge_key(self, ledge):
        a, b = EDGE_CORNERS[ledge]
        va, vb = self.verts[a], self.verts[b]
        return (va, vb) if va < vb else (vb, va)


class Mesh:
    """Quad-tree forest over a disk of radius R; single-writer mutation."""

    def __init__(self, R: float):
        if not R > 0:
            raise ValueError("disk radius must be positive")
        self.R = float(R)
        self._verts: list[tuple[float, float]] = []
        self._vert_cache: np.ndarray | None = None
        self.cells: list[Cell] = []
        self.edge_mid: dict[tuple[int, int], int] = {}
        self.mid_of: dict[int, tuple[int, int]] = {}
        self.edge_to_cells: dict[tuple[int, int], set[int]] = {}
        self._tol = 1e-9 * float(R)

    # -- construction ------------------------------------------------------

    def add_vertex(self, x: float, y: float) -> int:
        self._verts.append((float(x), float(y)))
        self._vert_cache = None
        return len(self._verts) - 1

    def add_cell(self, verts, level, parent, arc) -> int:
        cid = len(self.cells)
        cell = Cell(cid, level, verts, parent, arc)
        self.cells.append(cell)
        for ledge in range(4):
            self.edge_to_cells.setdefault(cell.edge_key(ledge), set()).add(cid)
        return cid

    # -- queries -----------------------------------------------------------

    @property
    def vertices(self) -> np.ndarray:
        if self._vert_cache is None or len(self._vert_cache) != len(self._verts):
            self._vert_cache = np.asarray(self._verts, dtype=float)
        return self._vert_cache

    def active_ids(self) -> list[int]:
        return [c.id for c in self.cells if c.active]

    def n_active(self) -> int:
        return sum(1 for c in self.cells if c.active)

    def cell_corners(self, cid: int) -> np.ndarray:
        return self.vertices[list(self.cells[cid].verts)]

    def on_boundary(self, vid: int) -> bool:
        x, y = self._verts[vid]
        return abs(np.hypot(x, y) - self.R) <= self._tol

    def on_interface(self, vid: int) -> bool:
        return abs(self._verts[vid][1]) <= self._tol

    def cell_edge_index(self, cid: int, key) -> int:
        cell = self.cells[cid]
        for ledge in range(4):
            if cell.edge_key(ledge) == key:
                return ledge
        raise KeyError(f"edge {key} not on cell {cid}")

    def content_hash(self) -> str:
        h = hashlib.sha256()
        verts = self.vertices
        for cid in self.active_ids():
            h.update(np.round(verts[list(self.cells[cid].verts)], 12).tobytes())
        return h.hexdigest()

    # -- refinement --------------------------------------------------------

    def _edge_midpoint(self, cell: Cell, ledge: int) -> int:
        key = cell.edge_key(ledge)
        mid = self.edge_mid.get(key)
        if mid is not None:
            return mid
        va, vb = key
        ax, ay = self._verts[va]
        bx, by = self._verts[vb]
        if cell.arc[ledge]:
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

    def _coarser_neighbor(self, cell: Cell, ledge: int):
        """Active cell owning the parent edge if this edge is a hanging child."""
        key = cell.edge_key(ledge)
        for vid in key:
            parent_key = self.mid_of.get(vid)
            if parent_key is None:
                continue
            other = key[0] if key[1] == vid else key[1]
            if other in parent_key:
                owners = self.edge_to_cells.get(parent_key, ())
                for cid in owners:
                    if self.cells[cid].active:
                        return cid
        return None

    def _split(self, cid: int):
        cell = self.cells[cid]
        if not cell.active:
            return
        # closure: neighbors across each edge must reach this cell's level first
        for ledge in range(4):
            coarse = self._coarser_neighbor(cell, ledge)
            if coarse is not None and self.cells[coarse].level < cell.level:
                self._split(coarse)
        v0, v1, v2, v3 = cell.verts
        m0 = self._edge_midpoint(cell, 0)
        m1 = self._edge_midpoint(cell, 1)
        m2 = self._edge_midpoint(cell, 2)
        m3 = self._edge_midpoint(cell, 3)
        center_xy = cell_geometry(self, [cid], np.array([[0.5, 0.5]]))[0][0, 0]
        cc = self.add_vertex(center_xy[0], center_xy[1])
        a0, a1, a2, a3 = cell.arc
        spec = [
            ((v0, m0, cc, m3), (a0, False, False, a3)),
            ((m0, v1, m1, cc), (a0, a1, False, False)),
            ((cc, m1, v2, m2), (False, a1, a2, False)),
            ((m3, cc, m2, v3), (False, False, a2, a3)),
        ]
        for ledge in range(4):
            self.edge_to_cells[cell.edge_key(ledge)].discard(cid)
        kids = tuple(self.add_cell(verts, cell.level + 1, cid, arc)
                     for verts, arc in spec)
        cell.children = kids

    def refine(self, marked) -> "Mesh":
        """Split each marked active cell into 4; closure keeps 1-irregularity."""
        for cid in sorted(set(int(c) for c in marked)):
            if not self.cells[cid].active:
                continue  # already split by closure
            self._split(cid)
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
            x, y = mesh._verts[vid]
            mirror[vid] = vid if abs(y) <= mesh._tol else mesh.add_vertex(x, -y)
        return mirror[vid]

    for verts, arc in upper:
        mesh.add_cell(verts, 0, None, arc)
    for (w0, w1, w2, w3), (a0, a1, a2, a3) in upper:
        verts = (mirrored(w0), mirrored(w3), mirrored(w2), mirrored(w1))
        mesh.add_cell(verts, 0, None, (a3, a2, a1, a0))
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
    cids = list(cids)
    corners = _corner_array(mesh, cids)
    arcs = np.array([mesh.cells[cid].arc for cid in cids], dtype=bool).reshape(-1, 4)
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


def _leaf_edges(mesh: Mesh, predicate):
    present = {}
    for cid in mesh.active_ids():
        cell = mesh.cells[cid]
        for ledge in range(4):
            key = cell.edge_key(ledge)
            if predicate(key):
                present.setdefault(key, []).append((cid, ledge))
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

    def on_sheet(key):
        return mesh.on_interface(key[0]) and mesh.on_interface(key[1])

    verts = mesh.vertices
    faces = []
    for key, owners in _leaf_edges(mesh, on_sheet).items():
        xs = sorted((verts[key[0], 0], verts[key[1], 0]))
        above = below = None
        for cid, ledge in owners:
            cy = mesh.cell_corners(cid)[:, 1].mean()
            if cy > 0:
                above = (cid, ledge)
            else:
                below = (cid, ledge)
        if above is None or below is None:
            # hanging face: the missing side is a coarser cell over the parent edge
            for vid in key:
                parent_key = mesh.mid_of.get(vid)
                if parent_key is None:
                    continue
                other = key[0] if key[1] == vid else key[1]
                if other not in parent_key:
                    continue
                for cid in mesh.edge_to_cells.get(parent_key, ()):
                    if not mesh.cells[cid].active:
                        continue
                    ledge = mesh.cell_edge_index(cid, parent_key)
                    cy = mesh.cell_corners(cid)[:, 1].mean()
                    if cy > 0 and above is None:
                        above = (cid, ledge)
                    elif cy < 0 and below is None:
                        below = (cid, ledge)
        owner = above if above is not None and above[0] in [o[0] for o in owners] else owners[0]
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

    def on_rim(key):
        return mesh.on_boundary(key[0]) and mesh.on_boundary(key[1])

    verts = mesh.vertices
    faces = []
    for key, owners in _leaf_edges(mesh, on_rim).items():
        cid, ledge = owners[0]
        xs = sorted((verts[key[0], 0], verts[key[1], 0]))
        faces.append(Face(key=key, x_lo=xs[0], x_hi=xs[1], owner=cid,
                          owner_edge=ledge, above=None, below=None,
                          length=xs[1] - xs[0]))
    faces.sort(key=lambda f: f.key)
    return faces


def _corner_array(mesh: Mesh, cids) -> np.ndarray:
    idx = np.array([mesh.cells[cid].verts for cid in cids], dtype=np.int64)
    return mesh.vertices[idx.reshape(-1, 4)]


def cells_intersecting_disk(mesh: Mesh, center, radius: float) -> list[int]:
    """Active cells whose bounding circle meets the given disk."""
    center = np.asarray(center, dtype=float)
    cids = mesh.active_ids()
    corners = _corner_array(mesh, cids)
    mids = corners.mean(axis=1)
    rads = np.linalg.norm(corners - mids[:, None, :], axis=2).max(axis=1)
    hit = np.linalg.norm(mids - center[None, :], axis=1) <= radius + rads
    return [cid for cid, h in zip(cids, hit) if h]


def cell_diameters(mesh: Mesh, cids) -> np.ndarray:
    corners = _corner_array(mesh, cids)
    d1 = np.linalg.norm(corners[:, 0] - corners[:, 2], axis=1)
    d2 = np.linalg.norm(corners[:, 1] - corners[:, 3], axis=1)
    return np.maximum(d1, d2)


def write_vtk(mesh: Mesh, path, cell_data: dict | None = None):
    """Dump the active mesh as a legacy ASCII VTK unstructured grid."""
    active = mesh.active_ids()
    verts = mesh.vertices
    used = sorted({v for cid in active for v in mesh.cells[cid].verts})
    remap = {v: i for i, v in enumerate(used)}
    lines = ["# vtk DataFile Version 3.0", "sppsim mesh", "ASCII",
             "DATASET UNSTRUCTURED_GRID", f"POINTS {len(used)} double"]
    for v in used:
        x, y = verts[v]
        lines.append(f"{x:.16g} {y:.16g} 0")
    lines.append(f"CELLS {len(active)} {5 * len(active)}")
    for cid in active:
        vs = [remap[v] for v in mesh.cells[cid].verts]
        lines.append("4 " + " ".join(str(v) for v in vs))
    lines.append(f"CELL_TYPES {len(active)}")
    lines.extend(["9"] * len(active))
    data = dict(cell_data or {})
    data.setdefault("level", np.array([mesh.cells[cid].level for cid in active]))
    lines.append(f"CELL_DATA {len(active)}")
    for name, values in data.items():
        values = np.asarray(values)
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        lines.extend(f"{float(v):.16g}" for v in values)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
