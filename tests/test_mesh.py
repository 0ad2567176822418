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
    active_edges = {tuple(key) for key in m.edge_keys(m.active_ids()).reshape(-1, 2).tolist()}
    for key in active_edges:
        mid = m.edge_mid.get(key)
        if mid is None:
            continue
        lo, hi = key
        child_keys = [tuple(sorted((lo, mid))), tuple(sorted((mid, hi)))]
        split = [ck in active_edges for ck in child_keys]
        assert split[0] == split[1], "face split on one side only"
        if not split[0]:
            continue
        # the split children must not be split again toward the same coarse edge
        for ck in child_keys:
            cmid = m.edge_mid.get(ck)
            if cmid is None:
                continue
            grand = [tuple(sorted((ck[0], cmid))), tuple(sorted((cmid, ck[1])))]
            assert not (grand[0] in active_edges and grand[1] in active_edges), \
                "active face split twice across one coarse edge"


def assert_no_straddle(m):
    ys = m.cell_corners(m.active_ids())[:, :, 1]
    assert np.all(np.all(ys >= -m._tol, axis=1) | np.all(ys <= m._tol, axis=1))


class TestBuild:
    def test_coarse_cells_do_not_straddle_sheet(self):
        m = msh.build_disk_mesh(R, 0)
        assert m.n_active() == 12
        assert_no_straddle(m)

    def test_two_uniform_refines_multiply_cell_count(self):
        m = msh.build_disk_mesh(R, 2)
        assert m.n_active() == 12 * 16
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
            errs.append(abs(total_area(m) - np.pi * R**2))
        assert errs[1] < errs[0] and errs[2] < errs[1]
        assert errs[2] < 1e-4 * np.pi * R**2

    def test_deterministic_construction(self):
        h1 = msh.build_disk_mesh(R, 2).content_hash()
        h2 = msh.build_disk_mesh(R, 2).content_hash()
        assert h1 == h2

    def test_boundary_midpoints_stay_on_circle(self):
        m = msh.build_disk_mesh(R, 3)
        verts = m.vertices
        for f in msh.boundary_faces(m):
            for vid in f.key:
                assert np.hypot(*verts[vid]) == pytest.approx(R, rel=1e-12)


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
        left_square, right_square = 1, 2
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

    def test_levels_increase_and_parents_recorded(self):
        m = msh.build_disk_mesh(R, 0)
        cid = m.active_ids()[0]
        m.refine([cid])
        kids = m.children[cid]
        assert np.all(kids >= 0)
        assert np.all(m.level[kids] == 1) and np.all(m.parent[kids] == cid)


class TestInterfaceFaces:
    def test_faces_tile_the_diameter(self):
        for refines in (0, 2):
            m = msh.build_disk_mesh(R, refines)
            faces = msh.interface_faces(m)
            xs = np.array([f.x_lo for f in faces] + [faces[-1].x_hi])
            assert xs[0] == pytest.approx(-R)
            assert xs[-1] == pytest.approx(R)
            for f, fnext in zip(faces, faces[1:]):
                assert f.x_hi == pytest.approx(fnext.x_lo, abs=1e-12 * R)
            total = sum(f.length for f in faces)
            assert total == pytest.approx(2 * R, rel=1e-12)

    def test_refining_interface_cell_splits_face(self):
        m = msh.build_disk_mesh(R, 1)
        faces = msh.interface_faces(m)
        n0 = len(faces)
        target = faces[len(faces) // 2]
        m.refine([target.owner])
        faces2 = msh.interface_faces(m)
        assert len(faces2) == n0 + 1
        covering = [f for f in faces2 if f.x_lo >= target.x_lo - 1e-12
                    and f.x_hi <= target.x_hi + 1e-12]
        assert len(covering) == 2
        assert sum(f.length for f in covering) == pytest.approx(target.length)

    def test_hanging_interface_face_knows_both_sides(self):
        m = msh.build_disk_mesh(R, 1)
        faces = msh.interface_faces(m)
        target = next(f for f in faces if f.x_lo > -0.3 * R and f.x_hi < 0.3 * R)
        above_before = target.above
        m.refine([above_before])
        for f in msh.interface_faces(m):
            if f.x_lo >= target.x_lo - 1e-12 and f.x_hi <= target.x_hi + 1e-12:
                assert f.above is not None and f.below is not None
                assert m.level[f.above] == m.level[f.below] + 1
                assert f.owner == f.above  # finer side owns the leaf face

    def test_consistent_orientation(self):
        m = msh.build_disk_mesh(R, 1)
        for f in msh.interface_faces(m):
            assert f.x_hi > f.x_lo


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


def layout_hash(space):
    """Digest of the cell order, dof ids, edge orientations and master dofs."""
    h = hashlib.sha256()
    h.update(np.asarray(space.active, dtype=np.int64).tobytes())
    h.update(space.cell_dofs.tobytes())
    h.update(np.asarray(space.orient_idx, dtype=np.int8).tobytes())
    h.update(build_constraints(space).master_dofs.tobytes())
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
        self.check(m, 2884, 2690, 20286, "fd0f066522dc7666", "7e7c8c21325266fe")

    def test_band_refined_initial_mesh(self):
        m = build_initial_mesh(RunConfig(sigma_r=0.15j))
        band_refine(m, 1.5625, 0.4)
        self.check(m, 7196, 5709, 44864, "fb9a52f74321864e", "4f5617c278d41b8a")

    def test_inactive_cell_has_no_rank(self):
        m = msh.build_disk_mesh(R, 1)
        parent = 0
        space = distribute_dofs(m)
        assert m.children[parent, 0] != -1
        with pytest.raises(IndexError):
            space.cell_dofs[space.rank[parent]]
        with pytest.raises(IndexError):
            space.orient_idx[space.rank[[parent]]]
