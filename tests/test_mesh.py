import hashlib

import numpy as np
import pytest

from sppsim import mesh as msh
from sppsim.fespace import build_constraints, distribute_dofs
from sppsim.harness import RunConfig, band_refine, build_initial_mesh

R = 8 * np.pi


def gauss01(n=4):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def quad_pts(n=4):
    x, w = gauss01(n)
    XI, ETA = np.meshgrid(x, x, indexing="ij")
    WW = np.outer(w, w).ravel()
    return np.column_stack([XI.ravel(), ETA.ravel()]), WW


def total_area(m):
    pts, w = quad_pts()
    _, jac = msh.cell_geometry(m, m.active_ids(), pts)
    det = msh.jacobian_det(jac)
    return float(np.sum(det @ w))


def assert_one_irregular(m):
    keys = m.edge_keys(m.active_ids()).reshape(-1, 2)
    active_edges = {tuple(key) for key in keys.tolist()}
    mids = m.edge_midpoints(keys)
    for key, mid in zip(keys.tolist(), mids.tolist()):
        if mid < 0:
            continue
        lo, hi = key
        child_keys = np.sort([[lo, mid], [mid, hi]], axis=1)
        split = [tuple(ck) in active_edges for ck in child_keys.tolist()]
        assert split[0] == split[1], "face split on one side only"
        if not split[0]:
            continue
        # the split children must not be split again toward the same coarse edge
        for ck, cmid in zip(child_keys.tolist(), m.edge_midpoints(child_keys).tolist()):
            if cmid < 0:
                continue
            grand = [tuple(sorted((ck[0], cmid))), tuple(sorted((cmid, ck[1])))]
            assert not (grand[0] in active_edges and grand[1] in active_edges), \
                "active face split twice across one coarse edge"


def assert_no_straddle(m):
    ys = m.cell_corners(m.active_ids())[:, :, 1]
    assert np.all(np.all(ys >= -m._tol, axis=1) | np.all(ys <= m._tol, axis=1))


def cascade_toward_rim():
    """Refine the active cell nearest (0, 0.9 R) five times in a row: the
    closure chains cross up to three levels, and three calls split rim cells."""
    m = msh.build_disk_mesh(R, 1)
    for _ in range(5):
        ids = m.active_ids()
        centers = m.cell_corners(ids).mean(axis=1)
        m.refine([ids[np.argmin(np.linalg.norm(centers - (0.0, 0.9 * R), axis=1))]])
    return m


class TestJacobianInverse:
    def test_adjugate_inverse_matches_lapack_on_arc_pml_and_hanging_cells(self):
        # fields are mapped by J^{-T} h through the adjugate (covariant_map),
        # so the unit vectors give the columns of J^{-T}, the rows of J^{-1};
        # "arc" cells are the rim cells, which have an edge on the outer circle
        m = cascade_toward_rim()
        ids = m.active_ids()
        pts, _ = quad_pts()
        _, jac = msh.cell_geometry(m, ids, pts)
        det = msh.jacobian_det(jac)
        inv = np.stack([np.stack(msh.covariant_map(jac, det, *e), axis=-1)
                        for e in ((1.0, 0.0), (0.0, 1.0))], axis=-2)
        ref = np.linalg.inv(jac)
        err = np.abs(inv - ref).max(axis=(2, 3)) / np.abs(ref).max(axis=(2, 3))
        corners = m.cell_corners(ids)
        kinds = {"arc": m.on_rim()[m.edge_keys(ids)].all(axis=2).any(axis=1),
                 "pml": np.hypot(corners[..., 0], corners[..., 1]).max(axis=1) > 0.8 * R,
                 "hanging": (m.coarser_neighbors(ids)[0] >= 0).any(axis=1)}
        for name, kind in kinds.items():
            assert kind.any(), name
            assert err[kind].max() <= 1e-14, name
        assert err.max() <= 1e-14


class TestBilinearMap:
    def test_edge_derivative_is_the_chord(self):
        # along each edge the bilinear map's derivative is exactly the edge's
        # chord, so face quadrature needs no chord of its own
        m = cascade_toward_rim()
        ids = m.active_ids()
        corners = m.cell_corners(ids)
        t = np.random.default_rng(3).random(5)
        for ledge, (start, end) in enumerate(msh.EDGE_CORNERS):
            along = ledge % 2
            ref = np.zeros((len(t), 2))
            ref[:, along] = t
            ref[:, 1 - along] = 1.0 if ledge in (1, 2) else 0.0
            _, jac = msh.cell_geometry(m, ids, ref)
            chord = corners[:, end] - corners[:, start]
            assert np.array_equal(jac[..., along], np.broadcast_to(chord[:, None], jac.shape[:3]))

    def test_cells_do_not_depend_on_their_batch(self):
        m = cascade_toward_rim()
        ids = m.active_ids()
        pts = np.random.default_rng(4).random((len(ids), 3, 2))
        whole = msh.cell_geometry(m, ids, pts)
        for k in (0, 7, len(ids) - 1):
            for a, b in zip(msh.cell_geometry(m, ids[k:k + 1], pts[k:k + 1]), whole):
                assert np.array_equal(a[0], b[k])


class TestBuild:
    def test_coarse_cells_do_not_straddle_sheet(self):
        m = msh.build_disk_mesh(R, 0)
        assert m.n_active() == 6
        assert_no_straddle(m)
        assert m.vertices[:, 0].min() == 0.0    # the half disk x >= 0

    def test_two_uniform_refines_multiply_cell_count(self):
        m = msh.build_disk_mesh(R, 2)
        assert m.n_active() == 6 * 16
        assert_no_straddle(m)

    def test_positive_jacobians_everywhere(self):
        m = msh.build_disk_mesh(R, 2)
        pts, _ = quad_pts()
        _, jac = msh.cell_geometry(m, m.active_ids(), pts)
        assert msh.jacobian_det(jac).min() > 0

    def test_area_converges_to_disk(self):
        # the half disk's inscribed polygon of n = 4 2^k equal chords, a fan
        # of n triangles of area R^2 sin(pi / n) / 2 about the centre
        errs = []
        for k in range(3):
            n = 4 * 2**k
            area = total_area(msh.build_disk_mesh(R, k))
            assert area == pytest.approx(0.5 * n * R**2 * np.sin(np.pi / n), rel=1e-13)
            errs.append(0.5 * np.pi * R**2 - area)
        assert 0 < errs[2] < errs[1] < errs[0]

    def test_deterministic_construction(self):
        h1 = msh.build_disk_mesh(R, 2).content_hash()
        h2 = msh.build_disk_mesh(R, 2).content_hash()
        assert h1 == h2

    def test_boundary_midpoints_stay_on_circle(self):
        # 3 refines split each of the 4 coarse rim edges into 8, every new
        # vertex on the circle, so 32 leaf edges have both ends on it
        m = msh.build_disk_mesh(R, 3)
        keys = m.edge_keys(m.active_ids()).reshape(-1, 2)
        radius = np.hypot(*m.vertices[keys].transpose(2, 0, 1))
        rim = np.all(np.abs(radius - R) <= 1e-12 * R, axis=1)
        assert rim.sum() == 32


class TestRefine:
    def test_empty_marking_is_identity(self):
        m = msh.build_disk_mesh(R, 1)
        before = m.content_hash()
        m.refine([])
        assert m.content_hash() == before

    def test_single_interior_mark_adds_three_cells(self):
        m = msh.build_disk_mesh(R, 1)
        n0 = m.n_active()
        # pick a cell away from coarse-pattern seams so no closure triggers
        m.refine([m.active_ids()[0]])
        assert m.n_active() == n0 + 3

    def test_closure_refines_coarser_neighbor_chain(self):
        m = msh.build_disk_mesh(R, 0)
        left_square, right_square = 0, 1
        m.refine([left_square])
        # child along the shared edge with the untouched right square
        child = m.children[left_square, 1]
        assert m.children[right_square, 0] == -1
        m.refine([child])
        assert m.children[right_square, 0] != -1
        assert_one_irregular(m)

    def test_random_marking_keeps_invariants(self):
        rng = np.random.default_rng(7)
        m = msh.build_disk_mesh(R, 1)
        for _ in range(4):
            ids = m.active_ids()
            marked = rng.choice(ids, size=max(1, len(ids) // 6), replace=False)
            m.refine(marked)
            assert_one_irregular(m)
            assert_no_straddle(m)
        pts, _ = quad_pts()
        _, jac = msh.cell_geometry(m, m.active_ids(), pts)
        assert msh.jacobian_det(jac).min() > 0

    @pytest.mark.parametrize("bad", [[-1], [30], [2.7], [0, 2.5], [True]])
    def test_bad_ids_are_rejected(self, bad):
        m = msh.build_disk_mesh(R, 1)
        assert len(m.cells) == 30
        before = (len(m.cells), len(m.vertices), m.content_hash())
        with pytest.raises(ValueError):
            m.refine(bad)
        assert (len(m.cells), len(m.vertices), m.content_hash()) == before

    def test_split_and_repeated_ids_are_no_ops(self):
        m = msh.build_disk_mesh(R, 1)
        cid = int(m.active_ids()[0])
        m.refine([cid, cid, np.int64(cid)])
        after = (len(m.cells), len(m.vertices), m.content_hash())
        assert after[0] == 34
        m.refine([cid])
        m.refine(np.array([0, cid]))     # 0 is a root cell, split at build time
        assert (len(m.cells), len(m.vertices), m.content_hash()) == after

    def test_cell_split_by_closure_is_not_split_again(self):
        def refined(*calls):
            m = msh.build_disk_mesh(R, 0)
            m.refine([0])       # children 6..9; 6 and 7 lie on the sheet
            for marked in calls:
                m.refine(marked)
            return m
        # both children hang on the lower square 3: the closure of 6 splits
        # it, and the closure of 7 in the same call must not split it again
        # (the closure of 7 also splits the right square 1)
        one_call = refined([6, 7])
        two_calls = refined([6], [7])
        assert len(one_call.cells) == 10 + 4 * 4
        assert one_call.children[3, 0] != -1
        assert np.array_equal(one_call.cells, two_calls.cells)
        assert np.array_equal(one_call.vertices, two_calls.vertices)

    def test_arc_midpoints_lie_on_the_circle(self):
        # a split edge with both ends on the circle gets its midpoint on it, at
        # the bisecting angle; every other split edge its chord's midpoint
        m = cascade_toward_rim()
        split = np.flatnonzero(m.children[:, 0] >= 0)
        split = split[split >= 6]       # the 6 root cells split at build time
        kids = m.children[split]
        # the midpoints of local edges 0..3 are corners 1, 2, 3, 0 of children 0..3
        mids = np.stack([m.cells[kids[:, 0], 1], m.cells[kids[:, 1], 2],
                         m.cells[kids[:, 2], 3], m.cells[kids[:, 3], 0]], axis=1)
        keys = m.edge_keys(split)
        on_rim = m.on_rim()[keys].all(axis=2)
        assert on_rim.sum() >= 3
        mid = m.vertices[mids]
        radius = np.hypot(mid[..., 0], mid[..., 1])
        assert np.all(np.abs(radius[on_rim] - R) <= 1e-14 * R)
        ends = np.arctan2(m.vertices[keys, 1], m.vertices[keys, 0])[on_rim]
        angle = np.arctan2(mid[on_rim, 1], mid[on_rim, 0])
        assert np.abs(angle - ends.mean(axis=1)).max() <= 1e-15 * np.pi
        chord = 0.5 * m.vertices[keys].sum(axis=2)
        assert np.array_equal(mid[~on_rim], chord[~on_rim])

    def test_levels_increase_and_parents_recorded(self):
        m = msh.build_disk_mesh(R, 0)
        cid = m.active_ids()[0]
        m.refine([cid])
        kids = m.children[cid]
        assert np.all(kids >= 0)
        assert np.all(m.level[kids] == 1) and np.all(m.parent[kids] == cid)


class RecursiveSplit:
    """The former refinement, one recursive split at a time with edge
    dictionaries; the reference for the ids and coordinates of ``refine``."""

    def __init__(self, m):
        self.m = m
        self.edge_mid, self.mid_of, self.owners = {}, {}, {}
        for cid in m.active_ids().tolist():
            self.register(cid)

    def keys_of(self, cid):
        return [tuple(key) for key in self.m.edge_keys([cid])[0].tolist()]

    def register(self, cid):
        for key in self.keys_of(cid):
            self.owners.setdefault(key, set()).add(cid)

    def coarser_neighbor(self, cid, ledge):
        key = self.keys_of(cid)[ledge]
        for vid in key:
            parent_key = self.mid_of.get(vid)
            other = key[0] if key[1] == vid else key[1]
            if parent_key is not None and other in parent_key:
                for coarse in self.owners.get(parent_key, ()):
                    return coarse
        return None

    def midpoint(self, cid, ledge):
        m, key = self.m, self.keys_of(cid)[ledge]
        if key not in self.edge_mid:
            (ax, ay), (bx, by) = m.vertices[list(key)].tolist()
            if all(abs(np.hypot(x, y) - m.R) <= m._tol for x, y in ((ax, ay), (bx, by))):
                ta, tb = np.arctan2(ay, ax), np.arctan2(by, bx)
                tm = ta + 0.5 * ((tb - ta + np.pi) % (2 * np.pi) - np.pi)
                mid = m.add_vertex(m.R * np.cos(tm), m.R * np.sin(tm))
            else:
                mid = m.add_vertex(0.5 * (ax + bx), 0.5 * (ay + by))
            self.edge_mid[key], self.mid_of[mid] = mid, key
        return self.edge_mid[key]

    def split(self, cid):
        m = self.m
        if m.children[cid, 0] >= 0:
            return
        for ledge in range(4):
            coarse = self.coarser_neighbor(cid, ledge)
            if coarse is not None and m.level[coarse] < m.level[cid]:
                self.split(coarse)
        v0, v1, v2, v3 = m.cells[cid].tolist()
        m0, m1, m2, m3 = (self.midpoint(cid, ledge) for ledge in range(4))
        x = m.vertices
        cc = m.add_vertex(*(0.5 * (x[m0] + x[m2] + x[m3] + x[m1])
                            - 0.25 * (x[v0] + x[v1] + x[v2] + x[v3])))
        for key in self.keys_of(cid):
            self.owners[key].discard(cid)
        spec = [(v0, m0, cc, m3), (m0, v1, m1, cc), (cc, m1, v2, m2), (m3, cc, m2, v3)]
        kids = [m.add_cell(verts, m.level[cid] + 1, cid) for verts in spec]
        for kid in kids:
            self.register(kid)
        m.children[cid] = kids

    def refine(self, marked):
        for cid in sorted(set(int(c) for c in marked)):
            self.split(cid)


class TestAgainstRecursiveSplit:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_marks_give_identical_meshes(self, seed):
        rng = np.random.default_rng(seed)
        batched, reference = msh.build_disk_mesh(R, 0), msh.build_disk_mesh(R, 0)
        recursive = RecursiveSplit(reference)
        for step in range(7):
            ids = batched.active_ids()
            deep = ids[batched.level[ids] == batched.level[ids].max()]
            # uniform first, then a few scattered marks and the finest cells
            marked = ids if step == 0 else np.concatenate([
                rng.choice(ids, size=max(1, len(ids) // 8), replace=False),
                rng.choice(deep, size=min(3, len(deep)), replace=False)])
            batched.refine(marked)
            recursive.refine(marked)
            for name in ("vertices", "cells", "level", "parent", "children"):
                assert np.array_equal(getattr(batched, name), getattr(reference, name)), name
        assert batched.level.max() >= 5

    @pytest.mark.parametrize("seed", range(2))
    def test_coarser_neighbors_after_refine_match_the_rebuilt_mesh(self, seed, monkeypatch):
        # each state's active-edge table is built by its first query and
        # dropped by the next refine; the recursive split rebuilds the same
        # mesh from the same marks and finds coarser neighbours its own way
        builds = []
        table = msh._active_edge_table
        monkeypatch.setattr(msh, "_active_edge_table",
                            lambda mesh: builds.append(1) or table(mesh))
        rng = np.random.default_rng(seed)
        batched, reference = msh.build_disk_mesh(R, 1), msh.build_disk_mesh(R, 1)
        recursive = RecursiveSplit(reference)
        for step in range(4):
            ids = batched.active_ids()
            batched.coarser_neighbors(ids[:1])
            marked = rng.choice(ids, size=max(1, len(ids) // 6), replace=False)
            batched.refine(marked)
            recursive.refine(marked)
            ids = batched.active_ids()
            del builds[:]
            coarse, _ = batched.coarser_neighbors(ids)
            assert len(builds) == 1
            want = [[-1 if (c := recursive.coarser_neighbor(cid, ledge)) is None else c
                     for ledge in range(4)] for cid in ids.tolist()]
            assert np.array_equal(coarse, want)
            assert (coarse >= 0).any()


class TestInterfaceFaces:
    def test_faces_tile_the_diameter(self):
        # the half of the diameter in the half disk, 0 <= x <= R
        for refines in (0, 2):
            m = msh.build_disk_mesh(R, refines)
            faces = msh.interface_faces(m)
            xs = np.append(faces.x_lo, faces.x_hi[-1])
            assert xs[0] == 0.0
            assert xs[-1] == pytest.approx(R)
            for hi, lo_next in zip(faces.x_hi[:-1], faces.x_lo[1:]):
                assert hi == pytest.approx(lo_next, abs=1e-12 * R)
            total = np.sum(faces.x_hi - faces.x_lo)
            assert total == pytest.approx(R, rel=1e-12)

    def test_refining_interface_cell_splits_face(self):
        m = msh.build_disk_mesh(R, 1)
        faces = msh.interface_faces(m)
        n0 = len(faces)
        k = len(faces) // 2
        lo, hi = faces.x_lo[k], faces.x_hi[k]
        m.refine([faces.owner[k]])
        faces2 = msh.interface_faces(m)
        assert len(faces2) == n0 + 1
        covering = (faces2.x_lo >= lo - 1e-12) & (faces2.x_hi <= hi + 1e-12)
        assert np.count_nonzero(covering) == 2
        assert np.sum(faces2.x_hi[covering] - faces2.x_lo[covering]) == pytest.approx(hi - lo)

    def test_hanging_interface_face_knows_both_sides(self):
        m = msh.build_disk_mesh(R, 1)
        faces = msh.interface_faces(m)
        k = np.flatnonzero((faces.x_lo > -0.3 * R) & (faces.x_hi < 0.3 * R))[0]
        lo, hi = faces.x_lo[k], faces.x_hi[k]
        m.refine([faces.above[k]])
        faces2 = msh.interface_faces(m)
        for j in np.flatnonzero((faces2.x_lo >= lo - 1e-12) & (faces2.x_hi <= hi + 1e-12)):
            above, below = faces2.above[j], faces2.below[j]
            assert above >= 0 and below >= 0
            assert m.level[above] == m.level[below] + 1
            assert faces2.owner[j] == above  # finer side owns the leaf face

    def test_consistent_orientation(self):
        m = msh.build_disk_mesh(R, 1)
        faces = msh.interface_faces(m)
        assert np.all(faces.x_hi > faces.x_lo)


class TestVtk:
    def test_write_legacy_vtk(self, tmp_path):
        m = msh.build_disk_mesh(R, 1)
        out = tmp_path / "mesh.vtk"
        eta = np.arange(m.n_active(), dtype=float)
        msh.write_vtk(m, out, {"eta": eta})
        text = out.read_text().splitlines()
        assert text[0].startswith("# vtk DataFile")
        assert any(line.startswith(f"CELLS {m.n_active()} ") for line in text)
        assert "SCALARS eta double 1" in text


def former_vtk_text(mesh, cell_data):
    """write_vtk's text as it was built line by line, with one f-string per row."""
    active = mesh.active_ids()
    cells = mesh.cells[active]
    used, local = np.unique(cells, return_inverse=True)
    lines = ["# vtk DataFile Version 3.0", "sppsim mesh", "ASCII",
             "DATASET UNSTRUCTURED_GRID", f"POINTS {len(used)} double"]
    lines.extend(f"{x:.16g} {y:.16g} 0" for x, y in mesh.vertices[used].tolist())
    lines.append(f"CELLS {len(active)} {5 * len(active)}")
    lines.extend("4 " + " ".join(map(str, vs)) for vs in local.reshape(cells.shape).tolist())
    lines.append(f"CELL_TYPES {len(active)}")
    lines.extend(["9"] * len(active))
    data = dict(cell_data)
    data.setdefault("level", mesh.level[active])
    lines.append(f"CELL_DATA {len(active)}")
    for name, values in data.items():
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        lines.extend(f"{float(v):.16g}" for v in np.asarray(values))
    return "\n".join(lines) + "\n"


def test_vtk_bytes_match_the_former_line_by_line_writer(tmp_path):
    awkward = [-0.0, 1e-300, 3.0, -7.0, 1e22, 5e-324, 0.1, -2.5e-17, 123456789.0,
               2.0**53 + 2, float("inf"), float("nan")]
    m = msh.Mesh(100.0)
    ids = [m.add_vertex(x, y) for x, y in ((0, 0), (1, 0), (1, 1), (0, 1))]
    m.add_cell(tuple(ids), 0, -1)
    m.refine([0])                   # the parent's corners stay in use
    m.add_vertex(0.5, 7.0)          # no cell uses this one
    # cells with awkward corner coordinates; add_cell checks no geometry
    for a in awkward[:10]:
        ids = [m.add_vertex(x, y) for x, y in ((a, -0.0), (-a, 1e-300), (a, 2.0), (5e-324, a))]
        m.add_cell(tuple(ids), 0, -1)
    n = m.n_active()
    data = {"eta": np.resize(awkward, n), "ints": np.arange(n) - 3}
    path = tmp_path / "mesh.vtk"
    msh.write_vtk(m, path, data)
    assert path.read_bytes() == former_vtk_text(m, data).encode()
    assert b"\n-0 -0 0\n" in path.read_bytes()


def layout_hash(space):
    """Digest of the cell order, dof ids, edge orientations and unconstrained
    dofs: the edge masters, then the interior dofs."""
    h = hashlib.sha256()
    h.update(np.asarray(space.active, dtype=np.int64).tobytes())
    h.update(space.cell_dofs.tobytes())
    h.update(np.asarray(space.orient_idx, dtype=np.int8).tobytes())
    h.update(build_constraints(space).master_dofs.tobytes())
    h.update(np.arange(space.n_edge_dofs, space.n_dofs).tobytes())
    return h.hexdigest()[:16]


def constraint_hash(space):
    """Digest of the constraint map's CSR arrays, in their stored order, and
    of its master dofs."""
    constraints = build_constraints(space)
    h = hashlib.sha256()
    for ids in (constraints.matrix.indptr, constraints.matrix.indices,
                constraints.master_dofs):
        h.update(np.asarray(ids, dtype=np.int64).tobytes())
    h.update(constraints.matrix.data.tobytes())
    return h.hexdigest()[:16]


class TestNumbering:
    """Vertex, cell, face and dof ids fix the edge orientations and the LU
    ordering; these sequences pin them, and the constraint map built on them."""

    def check(self, m, n_cells, n_verts, n_dofs, content, layout, constraints):
        space = distribute_dofs(m)
        assert (len(m.cells), len(m.vertices), space.n_dofs) == (n_cells, n_verts, n_dofs)
        assert m.content_hash()[:16] == content
        assert layout_hash(space) == layout
        assert constraint_hash(space) == constraints

    def test_random_refinement_sequence(self):
        m = msh.build_disk_mesh(R, 2)
        rng = np.random.default_rng(0)
        for _ in range(4):
            ids = m.active_ids()
            m.refine(rng.choice(ids, len(ids) // 5, replace=False))
        self.check(m, 1610, 1531, 11404, "0929d59acc3ab5e8", "019eff02f884848d",
                   "79c8d7ca2f2a936a")

    def test_band_refined_initial_mesh(self):
        m = build_initial_mesh(RunConfig(sigma_r=0.15j))
        band_refine(m, 1.5625, 0.4)
        self.check(m, 3598, 2888, 22498, "8e1fa1f5f2f1f1f5", "9a349ea23e700d13",
                   "f96a71cf302ce02d")

    def test_cascading_closure_toward_the_rim(self):
        self.check(cascade_toward_rim(), 70, 78, 512, "4a788a0bc8d13147",
                   "14a13352925cd9c4", "5b71f158d5eb8237")

    def test_inactive_cell_has_no_rank(self):
        m = msh.build_disk_mesh(R, 1)
        parent = 0
        space = distribute_dofs(m)
        assert m.children[parent, 0] != -1
        with pytest.raises(IndexError):
            space.cell_dofs[space.rank[parent]]
        with pytest.raises(IndexError):
            space.orient_idx[space.rank[[parent]]]
