import numpy as np
import pytest
import scipy.sparse as sp

from sppsim import fespace as fes
from sppsim import harness as hn
from sppsim import mesh as msh
from sppsim.fespace import (REF, FieldSolution, build_constraints,
                            distribute_dofs, sheet_ref_points, vector_monomials)
from sppsim.mesh import EDGE_CORNERS
from sppsim.solver import Factorization

from fields import interpolate, shape_eval


def grid_mesh(nx, ny, sx=1.0, sy=1.0, x0=0.0, y0=0.0):
    m = msh.Mesh(10.0)
    ids = {}
    for j in range(ny + 1):
        for i in range(nx + 1):
            ids[(i, j)] = m.add_vertex(x0 + sx * i, y0 + sy * j)
    for j in range(ny):
        for i in range(nx):
            m.add_cell((ids[(i, j)], ids[(i + 1, j)], ids[(i + 1, j + 1)], ids[(i, j + 1)]),
                       0, -1, (False, False, False, False))
    return m


def rand_pts(n, rng, lo=0.05, hi=0.95):
    return rng.uniform(lo, hi, size=(n, 2))


def edge_param_of_point(mesh, cid, ledge, p):
    a, b = EDGE_CORNERS[ledge]
    va, vb = mesh.cell_corners([cid])[0, [a, b]]
    d = vb - va
    return float(np.dot(p - va, d) / np.dot(d, d))


def trace_jumps(space, sol):
    """Max tangential-trace jump over all interior leaf faces, both kinds."""
    mesh = space.mesh
    verts = mesh.vertices
    t_samples = np.linspace(0.12, 0.88, 5)
    worst = 0.0
    keys, owners = msh._leaf_edges(mesh, np.ones(len(verts), dtype=bool))
    coarse, coarse_edge = mesh.coarser_neighbors(owners[:, 0, 0])
    for key, pair, across, across_edge in zip(keys.tolist(), owners.tolist(),
                                              coarse.tolist(), coarse_edge.tolist()):
        pa, pb = verts[key[0]], verts[key[1]]
        tau = (pb - pa) / np.linalg.norm(pb - pa)
        phys = pa[None, :] + t_samples[:, None] * (pb - pa)[None, :]

        def trace_from(cid, ledge):
            ts = np.array([edge_param_of_point(mesh, cid, ledge, p) for p in phys])
            ref = fes._edge_ref_points(ledge, ts)
            return sol.values([cid], ref[None])[0] @ tau

        sides = [trace_from(cid, ledge) for cid, ledge in pair if cid >= 0]
        if len(sides) == 1:
            ledge = pair[0][1]
            if across[ledge] >= 0:
                sides.append(trace_from(across[ledge], across_edge[ledge]))
        if len(sides) == 2:
            worst = max(worst, float(np.max(np.abs(sides[0] - sides[1]))))
    return worst


class TestDofLayout:
    def test_single_cell_has_twelve_dofs(self):
        space = distribute_dofs(grid_mesh(1, 1))
        assert space.n_dofs == 12
        assert space.n_faces == 4

    def test_shared_edge_counted_once(self):
        space = distribute_dofs(grid_mesh(2, 1))
        assert space.n_dofs == 2 * 7 + 4 * 2

    def test_dof_count_grows_under_refinement(self):
        m = msh.build_disk_mesh(8 * np.pi, 1)
        n1 = distribute_dofs(m).n_dofs
        m.uniform_refine()
        assert distribute_dofs(m).n_dofs > n1

    def test_count_formula(self):
        m = msh.build_disk_mesh(8 * np.pi, 2)
        m.refine(m.active_ids()[::5])
        space = distribute_dofs(m)
        assert space.n_dofs == 2 * space.n_faces + 4 * len(space.active)

    def test_all_orientation_variants_unisolvent(self):
        for oidx in range(16):
            C = REF.coeffs(oidx)
            assert np.all(np.isfinite(C))


class TestShapeFunctions:
    def test_nodal_property(self):
        # dof_i(basis_j) = delta_ij for every orientation variant
        for oidx in (0, 5, 12, 15):
            V = REF.dof_matrix(tuple(-1.0 if (oidx >> e) & 1 else 1.0 for e in range(4)))
            C = REF.coeffs(oidx)
            assert np.allclose(V @ C, np.eye(12), atol=1e-12)

    def test_curl_matches_finite_differences(self):
        space = distribute_dofs(grid_mesh(1, 1))
        rng = np.random.default_rng(0)
        pts = rand_pts(20, rng, 0.1, 0.9)
        vals, curls = shape_eval(space, [0], pts)
        h = 1e-5
        for axis, sgn in ((0, 1), (1, -1)):
            pass
        dxp = pts.copy(); dxp[:, 0] += h
        dxm = pts.copy(); dxm[:, 0] -= h
        dyp = pts.copy(); dyp[:, 1] += h
        dym = pts.copy(); dym[:, 1] -= h
        vy_x = (shape_eval(space, [0], dxp)[0][0, :, :, 1]
                - shape_eval(space, [0], dxm)[0][0, :, :, 1]) / (2 * h)
        vx_y = (shape_eval(space, [0], dyp)[0][0, :, :, 0]
                - shape_eval(space, [0], dym)[0][0, :, :, 0]) / (2 * h)
        fd = vy_x - vx_y
        assert np.max(np.abs(fd - curls[0])) < 1e-6

    def test_gradient_fields_have_zero_curl_on_affine_cell(self):
        # gradients of biquadratic scalars lie in the space; their curl vanishes
        space = distribute_dofs(grid_mesh(1, 1, sx=0.7, sy=1.3))
        rng = np.random.default_rng(3)
        c = rng.standard_normal((3, 3))

        def grad_p(pts):
            x, y = pts[:, 0], pts[:, 1]
            gx = np.zeros_like(x)
            gy = np.zeros_like(y)
            for i in range(3):
                for j in range(3):
                    if i > 0:
                        gx += c[i, j] * i * x ** (i - 1) * y ** j
                    if j > 0:
                        gy += c[i, j] * j * x ** i * y ** (j - 1)
            return np.column_stack([gx, gy])

        coeffs = interpolate(space, grad_p)
        sol = FieldSolution(space, coeffs)
        pts = rand_pts(40, rng)
        _, curls = shape_eval(space, [0], pts)
        assert np.max(np.abs(curls[0] @ coeffs[space.cell_dofs[space.rank[0]]])) < 1e-10
        assert np.max(np.abs(sol.values([0], pts)[0] - grad_p(
            msh.cell_geometry(space.mesh, [0], pts)[0][0]))) < 1e-10

    def test_edge_moments_preserved_on_mapped_cell(self):
        # interpolation matches the tangential moments of the target field
        m = msh.Mesh(10.0)
        vs = [m.add_vertex(*p) for p in [(0, 0), (1.1, -0.15), (1.3, 0.9), (-0.2, 1.05)]]
        m.add_cell(tuple(vs), 0, -1, (False,) * 4)
        space = distribute_dofs(m)

        def f(pts):
            x, y = pts[:, 0], pts[:, 1]
            return np.column_stack([0.4 * x * y - 0.2 * y * y, 1.1 * x * x + 0.3 * x - y])

        coeffs = interpolate(space, f)
        sol = FieldSolution(space, coeffs)
        t, w = fes.gauss01(6)
        for ledge in range(4):
            ref = fes._edge_ref_points(ledge, t)
            phys, jac = msh.cell_geometry(m, [0], ref)
            tau = np.asarray(fes._EDGE_TANGENT[ledge])
            dxdt = np.einsum("pij,j->pi", jac[0], tau)
            m0_true = np.sum(w * np.einsum("pi,pi->p", f(phys[0]), dxdt))
            m0_interp = np.sum(w * np.einsum("pi,pi->p", sol.values([0], ref)[0], dxdt))
            assert m0_interp == pytest.approx(m0_true, abs=1e-12)

    def test_exact_sequence_gradients_representable(self):
        rng = np.random.default_rng(1)
        pts = rand_pts(60, rng, 0.0, 1.0)
        vals, _ = vector_monomials(pts)
        A = vals.reshape(pts.shape[0] * 2, 12, order="F")
        A = np.concatenate([vals[:, :, 0], vals[:, :, 1]], axis=0)
        for i in range(3):
            for j in range(3):
                if i == 0 and j == 0:
                    continue
                gx = i * pts[:, 0] ** max(i - 1, 0) * pts[:, 1] ** j if i else np.zeros(len(pts))
                gy = j * pts[:, 0] ** i * pts[:, 1] ** max(j - 1, 0) if j else np.zeros(len(pts))
                b = np.concatenate([gx, gy])
                _, res, _, _ = np.linalg.lstsq(A, b, rcond=None)
                resid = np.linalg.norm(A @ np.linalg.lstsq(A, b, rcond=None)[0] - b)
                assert resid < 1e-10


class TestEvaluateFields:
    """Field values and curls from monomial coefficients against the mapped basis."""

    @pytest.fixture(scope="class")
    def space(self):
        # straight, hanging, arc-edge and layer cells
        m = msh.build_disk_mesh(8 * np.pi, 2)
        rng = np.random.default_rng(1)
        for _ in range(2):
            ids = m.active_ids()
            m.refine(rng.choice(ids, size=len(ids) // 6, replace=False))
        space = distribute_dofs(m)
        assert build_constraints(space).n_master < space.n_dofs
        assert m.arc[space.active].any()
        return space

    @pytest.mark.parametrize("shared", [True, False])
    def test_values_and_curls(self, space, shared):
        rng = np.random.default_rng(2)
        sols = [rng.standard_normal(space.n_dofs) + 1j * rng.standard_normal(space.n_dofs)
                for _ in range(2)]
        cids = space.active
        pts = REF.quad_pts if shared else rng.random((len(cids), 3, 2))
        _, det, vals, curls = fes.evaluate_fields(space, cids, pts, sols)
        basis, basis_curls = shape_eval(space, cids, pts)
        for k, c in enumerate(sols):
            local = c[space.cell_dofs[space.rank[cids]]]
            want = np.einsum("nb,npbc->npc", local, basis)
            want_curl = np.einsum("nb,npb->np", local, basis_curls)
            for got, ref in ((vals[k], want), (curls[k], want_curl)):
                assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.array_equal(FieldSolution(space, sols[1]).values(cids, pts), vals[1])


class TestConstraints:
    def test_uniform_mesh_has_no_constraints(self):
        m = msh.build_disk_mesh(8 * np.pi, 1)
        space = distribute_dofs(m)
        cs = build_constraints(space)
        # every edge dof is a master; the interior dofs are condensed, no masters
        assert cs.n_dofs == space.n_dofs
        assert np.array_equal(cs.master_dofs, np.arange(space.n_edge_dofs))
        assert (cs.matrix[:space.n_edge_dofs] != sp.eye(space.n_edge_dofs)).nnz == 0
        assert cs.matrix[space.n_edge_dofs:].nnz == 0

    def test_single_hanging_edge_reproduces_parent_trace(self):
        m = grid_mesh(2, 1)
        m.refine([0])
        space = distribute_dofs(m)
        cs = build_constraints(space)
        # two hanging faces after closure-free split
        assert space.n_edge_dofs - cs.n_master == 4
        rng = np.random.default_rng(5)
        reduced = rng.standard_normal(cs.n_master) + 1j * rng.standard_normal(cs.n_master)
        sol = FieldSolution(space, cs.distribute(reduced))
        assert trace_jumps(space, sol) < 1e-12 * np.linalg.norm(sol.coeffs)

    def test_random_constrained_vectors_tangentially_continuous(self):
        m = msh.build_disk_mesh(8 * np.pi, 1)
        rng = np.random.default_rng(11)
        for _ in range(2):
            ids = m.active_ids()
            m.refine(rng.choice(ids, size=len(ids) // 5, replace=False))
        space = distribute_dofs(m)
        cs = build_constraints(space)
        assert cs.n_master < cs.n_dofs
        for seed in range(3):
            r = np.random.default_rng(seed)
            reduced = r.standard_normal(cs.n_master) + 1j * r.standard_normal(cs.n_master)
            sol = FieldSolution(space, cs.distribute(reduced))
            assert trace_jumps(space, sol) < 1e-10 * np.linalg.norm(sol.coeffs)

    def test_patch_test_linear_fields_exact(self):
        m = grid_mesh(2, 2, sx=0.8, sy=0.6)
        m.refine([3])
        space = distribute_dofs(m)
        cs = build_constraints(space)

        def f(pts):
            x, y = pts[:, 0], pts[:, 1]
            return np.column_stack([0.3 + 1.2 * x - 0.7 * y, -0.5 + 0.4 * x + 0.9 * y])

        coeffs = interpolate(space, f)
        # interpolant satisfies the hanging-edge constraints identically
        assert cs.n_master < cs.n_dofs
        edge = slice(0, space.n_edge_dofs)
        assert np.max(np.abs(cs.distribute(cs.restrict(coeffs))[edge] - coeffs[edge])) <= 1e-12
        sol = FieldSolution(space, coeffs)
        rng = np.random.default_rng(2)
        for cid in space.active:
            pts = rand_pts(10, rng)
            phys = msh.cell_geometry(m, [cid], pts)[0][0]
            assert np.max(np.abs(sol.values([cid], pts)[0] - f(phys))) < 1e-12


def tangential_trace(sol, faces, k, xs, side="above"):
    """E·e_x sampled at positions xs on sheet face k, from the requested side."""
    cid = int((faces.above if side == "above" else faces.below)[k])
    if cid < 0:
        raise ValueError(f"face has no cell on side {side!r}")
    ref = sheet_ref_points(sol.space.mesh, [cid] * len(xs), xs)
    return sol.values([cid], ref[None])[0, :, 0]


class TestTangentialTrace:
    def setup_method(self):
        self.m = msh.build_disk_mesh(8 * np.pi, 2)
        self.space = distribute_dofs(self.m)
        self.faces = msh.interface_faces(self.m)

    def test_zero_solution_zero_trace(self):
        sol = FieldSolution(self.space, np.zeros(self.space.n_dofs, dtype=complex))
        k = len(self.faces) // 2
        xs = np.linspace(self.faces.x_lo[k] + 0.1, self.faces.x_hi[k] - 0.1, 4)
        assert np.all(tangential_trace(sol, self.faces, k, xs) == 0)

    def test_uniform_field_unit_trace(self):
        coeffs = interpolate(self.space, lambda p: np.column_stack(
            [np.ones(len(p)), np.zeros(len(p))]))
        sol = FieldSolution(self.space, coeffs)
        k = len(self.faces) // 3
        xs = np.linspace(self.faces.x_lo[k] + 0.05, self.faces.x_hi[k] - 0.05, 5)
        assert np.max(np.abs(tangential_trace(sol, self.faces, k, xs) - 1.0)) < 1e-11

    def test_above_equals_below_on_conforming_faces(self):
        space = self.space
        cs = build_constraints(space)
        rng = np.random.default_rng(8)
        sol = FieldSolution(space, cs.distribute(
            rng.standard_normal(cs.n_master) + 1j * rng.standard_normal(cs.n_master)))
        for k in range(6):
            xs = np.linspace(self.faces.x_lo[k] + 0.02, self.faces.x_hi[k] - 0.02, 4)
            up = tangential_trace(sol, self.faces, k, xs, side="above")
            dn = tangential_trace(sol, self.faces, k, xs, side="below")
            assert np.max(np.abs(up - dn)) < 1e-11 * max(np.linalg.norm(sol.coeffs), 1.0)


def extended_matvec(matrix, x):
    """matrix @ x with products and sums in extended precision."""
    csr = matrix.tocsr()
    prod = csr.data.astype(np.clongdouble) * x.astype(np.clongdouble)[csr.indices]
    out = np.zeros(csr.shape[0], dtype=np.clongdouble)
    rows = np.flatnonzero(np.diff(csr.indptr))
    out[rows] = np.add.reduceat(prod, csr.indptr[rows])
    return out


def extended_refined_solve(self, b, refine_steps=8):
    """Factorization.solve with residuals in extended precision."""
    ext_b = np.asarray(b).astype(np.clongdouble)
    x = self.lu.solve(b)
    for _ in range(refine_steps):
        r = ext_b - extended_matvec(self.matrix, x)
        x = x + self.lu.solve(r.astype(complex))
    r = ext_b - extended_matvec(self.matrix, x)
    return x, float(np.linalg.norm(r.astype(complex)) / np.linalg.norm(b))


def direct_trace(field, xs):
    """Sheet trace of field at every x from the cell above it, no parity."""
    space = field.space
    faces = space.sheet_faces
    idx = np.clip(np.searchsorted(faces.x_lo, xs, side="right") - 1, 0, len(faces) - 1)
    cids = faces.above[idx]
    ref = sheet_ref_points(space.mesh, cids, xs)
    return field.values(cids, ref[:, None, :])[:, 0, 0]


def corner_keys(mesh, cids):
    """Each cell's corners as a sorted tuple of (|x|, y), rounded: equal for
    a cell and its mirror image."""
    corners = np.round(mesh.cell_corners(cids), 9)
    corners[..., 0] = np.abs(corners[..., 0])
    return [tuple(sorted(map(tuple, c))) for c in (corners + 0.0).tolist()]


def full_disk_mesh(half):
    """The full-disk mesh that mirrors the half mesh half in x = 0.

    Its root cells are half's and their mirror images; it is refined until
    it splits exactly the cells that half splits and their mirror images.
    """
    full = msh.Mesh(half.R)
    vid = {}

    def vertex(x, y):
        key = (round(x, 9) + 0.0, round(y, 9))
        if key not in vid:
            vid[key] = full.add_vertex(x, y)
        return vid[key]

    roots = np.flatnonzero(half.parent < 0)
    for sign in (1.0, -1.0):
        for cid in roots.tolist():
            corners = [vertex(sign * x, y) for x, y in half.cell_corners([cid])[0].tolist()]
            arc = half.arc[cid].tolist()
            if sign < 0:    # the mirror reverses the corner order
                corners = [corners[0], corners[3], corners[2], corners[1]]
                arc = arc[::-1]
            full.add_cell(corners, 0, -1, arc)
    split = set(corner_keys(half, np.flatnonzero(half.children[:, 0] >= 0)))
    while True:
        ids = full.active_ids()
        marked = [c for c, key in zip(ids.tolist(), corner_keys(full, ids)) if key in split]
        if not marked:
            break
        full.refine(marked)
    assert full.n_active() == 2 * half.n_active()
    return full


@pytest.fixture(scope="module")
def adaptive_mesh():
    """The half mesh of cycle 3 of the default run."""
    meshes = []
    build = hn.build_initial_mesh
    hn.build_initial_mesh = lambda config: meshes.append(build(config)) or meshes[-1]
    try:
        hn.run_adaptive(hn.RunConfig(cycles=3, write_artifacts=False))
    finally:
        hn.build_initial_mesh = build
    return meshes[0]


class TestMirrorEven:
    def test_even_solve_matches_full_solve(self, adaptive_mesh, monkeypatch):
        # the mirror-even solve is the solve on the half disk with free moments
        # on x = 0; the full disk is solved on its whole constrained space.  In
        # double precision refinement stalls at a residual of about 1e-11 and
        # the full solve is accurate only to a few 1e-9 relative, depending on
        # the BLAS rounding; refined with extended-precision residuals, both
        # solves are accurate far below the tolerance compared here
        monkeypatch.setattr(Factorization, "solve", extended_refined_solve)
        cfg = hn.RunConfig()
        half = distribute_dofs(adaptive_mesh)
        full = distribute_dofs(full_disk_mesh(adaptive_mesh))
        assert build_constraints(half).n_master < half.n_dofs    # hanging faces
        assert hn._full_disk_counts(half) == (len(full.active), full.n_dofs)
        xs = hn.trace_grid(cfg)
        reduced = hn.scattered_trace(hn.solve_pair(half, build_constraints(half),
                                                   cfg.model())[0], xs).values
        # the full solve's own trace at every x, x < 0 included, so that the
        # parity the half solve relies on is checked too
        whole = direct_trace(hn.solve_pair(full, build_constraints(full),
                                           cfg.model())[0], xs)
        assert np.abs(reduced - whole).max() <= 1e-9 * np.abs(whole).max()
