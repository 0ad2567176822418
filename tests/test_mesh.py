import hashlib

import numpy as np
import pytest

from sppsim import mesh as msh
from sppsim.fespace import build_constraints, distribute_dofs, face_quadrature
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
    closure chains cross up to three levels, and three calls split arc cells."""
    m = msh.build_disk_mesh(R, 1)
    for _ in range(5):
        ids = m.active_ids()
        centers = m.cell_corners(ids).mean(axis=1)
        m.refine([ids[np.argmin(np.linalg.norm(centers - (0.0, 0.9 * R), axis=1))]])
    return m


class TestJacobianInverse:
    def test_adjugate_inverse_matches_lapack_on_arc_pml_and_hanging_cells(self):
        m = cascade_toward_rim()
        ids = m.active_ids()
        pts, _ = quad_pts()
        _, jac = msh.cell_geometry(m, ids, pts)
        inv = msh.jacobian_inv(jac, msh.jacobian_det(jac))
        ref = np.linalg.inv(jac)
        err = np.abs(inv - ref).max(axis=(2, 3)) / np.abs(ref).max(axis=(2, 3))
        corners = m.cell_corners(ids)
        kinds = {"arc": m.arc[ids].any(axis=1),
                 "pml": np.hypot(corners[..., 0], corners[..., 1]).max(axis=1) > 0.8 * R,
                 "hanging": (m.coarser_neighbors(ids)[0] >= 0).any(axis=1)}
        for name, kind in kinds.items():
            assert kind.any(), name
            assert err[kind].max() <= 1e-14, name
        assert err.max() <= 1e-14


def transfinite_geometry(m, cids, ref):
    """The transfinite map written out: the four edge curves blended, minus
    the bilinear corner term; a reference for cell_geometry."""
    corners = m.cell_corners(cids)
    arcs = m.arc[cids]
    ref = ref[None] if ref.ndim == 2 else ref
    xi, eta = ref[..., 0], ref[..., 1]
    v0, v1, v2, v3 = (corners[:, k] for k in range(4))
    c0, d0 = msh._edge_points(v0, v1, arcs[:, 0], xi, m.R)
    c2, d2 = msh._edge_points(v3, v2, arcs[:, 2], xi, m.R)
    c1, d1 = msh._edge_points(v1, v2, arcs[:, 1], eta, m.R)
    c3, d3 = msh._edge_points(v0, v3, arcs[:, 3], eta, m.R)
    xi_, eta_ = xi[..., None], eta[..., None]
    bl = ((1 - xi_) * (1 - eta_) * v0[:, None] + xi_ * (1 - eta_) * v1[:, None]
          + xi_ * eta_ * v2[:, None] + (1 - xi_) * eta_ * v3[:, None])
    phys = (1 - eta_) * c0 + eta_ * c2 + (1 - xi_) * c3 + xi_ * c1 - bl
    dbl_dxi = (-(1 - eta_) * v0[:, None] + (1 - eta_) * v1[:, None]
               + eta_ * v2[:, None] - eta_ * v3[:, None])
    dbl_deta = (-(1 - xi_) * v0[:, None] - xi_ * v1[:, None]
                + xi_ * v2[:, None] + (1 - xi_) * v3[:, None])
    jac = np.stack([(1 - eta_) * d0 + eta_ * d2 + (c1 - c3) - dbl_dxi,
                    (1 - xi_) * d3 + xi_ * d1 + (c2 - c0) - dbl_deta], axis=-1)
    return phys, jac


class TestBilinearPlusArcTerms:
    def test_matches_the_transfinite_map(self):
        m = cascade_toward_rim()
        ids = m.active_ids()
        assert m.arc[ids].any() and not m.arc[ids].all()
        rng = np.random.default_rng(3)
        for ref in (quad_pts()[0], rng.random((len(ids), 5, 2))):
            got = msh.cell_geometry(m, ids, ref)
            for g, want in zip(got, transfinite_geometry(m, ids, ref)):
                assert np.abs(g - want).max() <= 1e-14 * np.abs(want).max()

    def test_cells_do_not_depend_on_their_batch(self):
        m = cascade_toward_rim()
        ids = m.active_ids()
        pts = np.random.default_rng(4).random((len(ids), 3, 2))
        whole = msh.cell_geometry(m, ids, pts)
        for k in (0, 7, len(ids) - 1):
            for a, b in zip(msh.cell_geometry(m, ids[k:k + 1], pts[k:k + 1]), whole):
                assert np.array_equal(a[0], b[k])

    def test_split_centres_keep_the_transfinite_rounding(self):
        m = cascade_toward_rim()
        ids = m.active_ids()
        centre = np.array([[0.5, 0.5]])
        want = transfinite_geometry(m, ids, centre)[0][:, 0]
        assert np.array_equal(msh._split_centres(m, ids), want)
        got = msh.cell_geometry(m, ids, centre)[0][:, 0]
        assert np.abs(got - want).max() <= 1e-14 * R


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
        errs = []
        for k in range(3):
            m = msh.build_disk_mesh(R, k)
            errs.append(abs(total_area(m) - 0.5 * np.pi * R**2))
        assert errs[1] < errs[0] and errs[2] < errs[1]
        assert errs[2] < 1e-4 * 0.5 * np.pi * R**2

    def test_deterministic_construction(self):
        h1 = msh.build_disk_mesh(R, 2).content_hash()
        h2 = msh.build_disk_mesh(R, 2).content_hash()
        assert h1 == h2

    def test_boundary_midpoints_stay_on_circle(self):
        m = msh.build_disk_mesh(R, 3)
        rim = msh.boundary_faces(m)
        keys = m.edge_keys(rim.owner)[np.arange(len(rim)), rim.ledge]
        for vid in keys.ravel():
            assert np.hypot(*m.vertices[vid]) == pytest.approx(R, rel=1e-12)


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
        m = cascade_toward_rim()
        split = np.flatnonzero(m.children[:, 0] >= 0)
        split = split[split >= 6]       # the 6 root cells split at build time
        kids = m.children[split]
        # the midpoints of local edges 0..3 are corners 1, 2, 3, 0 of children 0..3
        mids = np.stack([m.cells[kids[:, 0], 1], m.cells[kids[:, 1], 2],
                         m.cells[kids[:, 2], 3], m.cells[kids[:, 3], 0]], axis=1)
        on_arc = m.arc[split]
        assert on_arc.sum() >= 3
        radius = np.hypot(*m.vertices[mids[on_arc]].T)
        assert np.all(np.abs(radius - R) <= m._tol)

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
            if m.arc[cid, ledge]:
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
        cc = m.add_vertex(*msh._split_centres(m, [cid])[0])
        a0, a1, a2, a3 = m.arc[cid].tolist()
        for key in self.keys_of(cid):
            self.owners[key].discard(cid)
        spec = [((v0, m0, cc, m3), (a0, False, False, a3)),
                ((m0, v1, m1, cc), (a0, a1, False, False)),
                ((cc, m1, v2, m2), (False, a1, a2, False)),
                ((m3, cc, m2, v3), (False, False, a2, a3))]
        kids = [m.add_cell(verts, m.level[cid] + 1, cid, arc) for verts, arc in spec]
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
            for name in ("vertices", "cells", "level", "parent", "children", "arc"):
                assert np.array_equal(getattr(batched, name), getattr(reference, name)), name
        assert batched.level.max() >= 5


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


class TestRimFaces:
    @pytest.mark.parametrize("layout", ["uniform0", "uniform2", "uniform3", "local"])
    def test_rim_rows_are_arc_edges_covering_the_half_circle(self, layout):
        m = cascade_toward_rim() if layout == "local" else msh.build_disk_mesh(R, int(layout[-1]))
        rim = msh.boundary_faces(m)
        assert np.all(m.children[rim.owner, 0] < 0)
        assert np.all(m.arc[rim.owner, rim.ledge])
        _, _, wds, _, _ = face_quadrature(m, rim.owner, rim.ledge)
        assert wds.sum() == pytest.approx(np.pi * R, rel=1e-13)


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
    m.add_cell(tuple(ids), 0, -1, (False,) * 4)
    m.refine([0])                   # the parent's corners stay in use
    m.add_vertex(0.5, 7.0)          # no cell uses this one
    # cells with awkward corner coordinates; add_cell checks no geometry
    for a in awkward[:10]:
        ids = [m.add_vertex(x, y) for x, y in ((a, -0.0), (-a, 1e-300), (a, 2.0), (5e-324, a))]
        m.add_cell(tuple(ids), 0, -1, (False,) * 4)
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


class TestNumbering:
    """Vertex, cell, face and dof ids fix the edge orientations and the LU
    ordering; these sequences pin them."""

    def check(self, m, n_cells, n_verts, n_dofs, content, layout):
        space = distribute_dofs(m)
        assert (len(m.cells), len(m.vertices), space.n_dofs) == (n_cells, n_verts, n_dofs)
        assert m.content_hash()[:16] == content
        assert layout_hash(space) == layout

    def test_random_refinement_sequence(self):
        m = msh.build_disk_mesh(R, 2)
        rng = np.random.default_rng(0)
        for _ in range(4):
            ids = m.active_ids()
            m.refine(rng.choice(ids, len(ids) // 5, replace=False))
        self.check(m, 1610, 1531, 11404, "0929d59acc3ab5e8", "019eff02f884848d")

    def test_band_refined_initial_mesh(self):
        m = build_initial_mesh(RunConfig(sigma_r=0.15j))
        band_refine(m, 1.5625, 0.4)
        self.check(m, 3598, 2888, 22498, "8e1fa1f5f2f1f1f5", "9a349ea23e700d13")

    def test_cascading_closure_toward_the_rim(self):
        self.check(cascade_toward_rim(), 70, 78, 512, "4a788a0bc8d13147",
                   "14a13352925cd9c4")

    def test_inactive_cell_has_no_rank(self):
        m = msh.build_disk_mesh(R, 1)
        parent = 0
        space = distribute_dofs(m)
        assert m.children[parent, 0] != -1
        with pytest.raises(IndexError):
            space.cell_dofs[space.rank[parent]]
        with pytest.raises(IndexError):
            space.orient_idx[space.rank[[parent]]]
