import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from sppsim import fespace as fes
from sppsim import harness as hn
from sppsim import mesh as msh
from sppsim.assembly import assemble_fixed, assemble_pair
from sppsim.fespace import (REF, FieldSolution, build_constraints,
                            distribute_dofs, interpolate, mirror_even, shape_eval,
                            tangential_trace, vector_monomials)
from sppsim.mesh import EDGE_CORNERS
from sppsim.solver import Factorization


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
        assert np.max(np.abs(sol.curls([0], pts)[0])) < 1e-10
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


class TestConstraints:
    def test_uniform_mesh_has_no_constraints(self):
        m = msh.build_disk_mesh(8 * np.pi, 1)
        space = distribute_dofs(m)
        cs = build_constraints(space)
        assert not cs.rows
        assert cs.n_master == space.n_dofs

    def test_single_hanging_edge_reproduces_parent_trace(self):
        m = grid_mesh(2, 1)
        m.refine([0])
        space = distribute_dofs(m)
        cs = build_constraints(space)
        assert len(cs.rows) == 4  # two hanging faces after closure-free split
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
        assert cs.rows
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
        for dof, terms in cs.rows.items():
            recon = sum(coef * coeffs[master] for master, coef in terms)
            assert coeffs[dof] == pytest.approx(recon, abs=1e-12)
        sol = FieldSolution(space, coeffs)
        rng = np.random.default_rng(2)
        for cid in space.active:
            pts = rand_pts(10, rng)
            phys = msh.cell_geometry(m, [cid], pts)[0][0]
            assert np.max(np.abs(sol.values([cid], pts)[0] - f(phys))) < 1e-12


class TestTangentialTrace:
    def setup_method(self):
        self.m = msh.build_disk_mesh(8 * np.pi, 2)
        self.space = distribute_dofs(self.m)
        self.faces = msh.interface_faces(self.m)

    def test_zero_solution_zero_trace(self):
        sol = FieldSolution(self.space, np.zeros(self.space.n_dofs, dtype=complex))
        f = self.faces[len(self.faces) // 2]
        xs = np.linspace(f.x_lo + 0.1, f.x_hi - 0.1, 4)
        assert np.all(tangential_trace(sol, f, xs) == 0)

    def test_uniform_field_unit_trace(self):
        coeffs = interpolate(self.space, lambda p: np.column_stack(
            [np.ones(len(p)), np.zeros(len(p))]))
        sol = FieldSolution(self.space, coeffs)
        f = self.faces[len(self.faces) // 3]
        xs = np.linspace(f.x_lo + 0.05, f.x_hi - 0.05, 5)
        assert np.max(np.abs(tangential_trace(sol, f, xs) - 1.0)) < 1e-11

    def test_above_equals_below_on_conforming_faces(self):
        space = self.space
        cs = build_constraints(space)
        rng = np.random.default_rng(8)
        sol = FieldSolution(space, cs.distribute(
            rng.standard_normal(cs.n_master) + 1j * rng.standard_normal(cs.n_master)))
        for f in self.faces[:6]:
            xs = np.linspace(f.x_lo + 0.02, f.x_hi - 0.02, 4)
            up = tangential_trace(sol, f, xs, side="above")
            dn = tangential_trace(sol, f, xs, side="below")
            assert np.max(np.abs(up - dn)) < 1e-11 * max(np.linalg.norm(sol.coeffs), 1.0)


def mirrored_grid(nx=4, ny=4):
    """Grid on [-nx/2, nx/2] x [0, ny], symmetric under x -> -x.

    The cells right of x = 0 in row j list their corners from corner j mod 4
    on, so the mirror pairs meet all four reflections of the reference square.
    """
    m = msh.Mesh(10.0)
    ids = {(i, j): m.add_vertex(i - nx / 2, j) for j in range(ny + 1) for i in range(nx + 1)}
    for j in range(ny):
        for i in range(nx):
            ring = [ids[i, j], ids[i + 1, j], ids[i + 1, j + 1], ids[i, j + 1]]
            k = j % 4 if 2 * i >= nx else 0
            m.add_cell(ring[k:] + ring[:k], 0, -1, (False,) * 4)
    return m


def mirror_matrices(space, cs):
    """The mirror on all dofs, and on the master dofs of cs, as sparse matrices."""
    perm, sign = fes._mirror_dofs(space)
    n = space.n_dofs
    full = sp.csr_matrix((sign, (np.arange(n), perm)), shape=(n, n))
    return full, full[cs.master_dofs][:, cs.master_dofs]


def reference_points(mesh, cids, phys, steps=20):
    """Reference points (n, p, 2) of the physical points phys (n, p, 2) in cells cids."""
    ref = np.full(phys.shape, 0.5)
    for _ in range(steps):
        x, jac = msh.cell_geometry(mesh, cids, ref)
        ref = ref - np.linalg.solve(jac, (x - phys)[..., None])[..., 0]
    return ref


def fitted_mirror_blocks(space, cids):
    """Mirror cells of cids and, per cell, the (12, 12) L with which the cell's
    basis reproduces the mirrored basis of its mirror cell, by least squares."""
    mesh = space.mesh
    centres = mesh.cell_corners(space.active).mean(axis=1)
    want = mesh.cell_corners(cids).mean(axis=1) * [-1.0, 1.0]
    mirror = space.active[np.argmin(np.linalg.norm(
        centres[None] - want[:, None], axis=2), axis=1)]
    phys, _, vals, _ = fes._mapped_basis(space, cids, REF.quad_pts)
    ref = reference_points(mesh, mirror, phys * [-1.0, 1.0])
    mvals, _ = shape_eval(space, mirror, ref)
    mvals = mvals * [-1.0, 1.0]
    blocks = []
    for a, b in zip(vals.transpose(0, 1, 3, 2), mvals.transpose(0, 1, 3, 2)):
        a, b = a.reshape(-1, 12), b.reshape(-1, 12)
        fit = np.linalg.lstsq(a, b, rcond=None)[0]
        assert np.abs(a @ fit - b).max() < 1e-10 * np.abs(b).max()
        blocks.append(fit)
    return mirror, np.array(blocks)


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


@pytest.fixture(scope="module")
def mirror_meshes():
    """The pml_sweep benchmark mesh and the mesh of cycle 3 of the default run."""
    cfg = hn.RunConfig(sigma_r=0.15j)
    band = hn.build_initial_mesh(cfg)
    hn.band_refine(band, cfg.d_w, 0.4)
    meshes = []
    build = hn.build_initial_mesh
    hn.build_initial_mesh = lambda config: meshes.append(build(config)) or meshes[-1]
    try:
        hn.run_adaptive(hn.RunConfig(cycles=3, write_artifacts=False))
    finally:
        hn.build_initial_mesh = build
    return {"pml_sweep": band, "adaptive": meshes[0]}


class TestMirrorEven:
    @pytest.mark.parametrize("name", ["pml_sweep", "adaptive"])
    def test_mirror_is_an_involution_commuting_with_constraints(self, mirror_meshes, name):
        space = distribute_dofs(mirror_meshes[name])
        cs = build_constraints(space)
        full, masters = mirror_matrices(space, cs)
        assert (abs(full @ full - sp.identity(space.n_dofs)).max() == 0
                and abs(full @ cs.matrix - cs.matrix @ masters).max() == 0)
        if name == "adaptive":
            assert cs.rows    # hanging faces
        even = mirror_even(space, cs)
        fixed = masters.diagonal()
        assert 2 * even.n_master == cs.n_master + (fixed > 0).sum() - (fixed < 0).sum()
        y = np.random.default_rng(0).standard_normal(even.n_master)
        x = even.distribute(y)
        assert np.array_equal(even.restrict(x), y) and np.array_equal(full @ x, x)
        assert mirror_even(space, even) is even

    @pytest.mark.parametrize("name", ["pml_sweep", "adaptive"])
    def test_condensed_systems_are_mirror_invariant(self, mirror_meshes, name):
        space = distribute_dofs(mirror_meshes[name])
        cs = build_constraints(space)
        _, mirror = mirror_matrices(space, cs)
        cfg = hn.RunConfig()
        for s0 in (0.0, 2.0, 8.0):
            model = dataclasses.replace(cfg.model(s0=s0), mu_r=1.5, eps_r=2.25)
            fixed = assemble_fixed(space, cs, model)
            for mat in assemble_pair(fixed, model):
                assert abs(mirror @ mat @ mirror - mat).max() <= 1e-13 * abs(mat).max()
        rhs = fixed.rhs
        assert np.abs(mirror @ rhs - rhs).max() <= 1e-13 * np.abs(rhs).max()

    @pytest.mark.parametrize("name", ["grid", "pml_sweep"])
    def test_signs_match_least_squares_fit_of_mirrored_basis(self, mirror_meshes, name):
        mesh = mirrored_grid() if name == "grid" else mirror_meshes[name]
        space = distribute_dofs(mesh)
        if name == "grid":
            cids = space.active
        else:   # every cell with an arc edge and a spread of the others
            arc = mesh.arc[space.active].any(axis=1)
            cids = np.union1d(space.active[arc], space.active[::97])
        mirror, blocks = fitted_mirror_blocks(space, cids)
        perm, sign = fes._mirror_dofs(space)
        rows, cols = space.cell_dofs[space.rank[cids]], space.cell_dofs[space.rank[mirror]]
        combinatorial = sign[rows][:, :, None] * (perm[rows][:, :, None] == cols[:, None, :])
        assert np.abs(blocks - combinatorial).max() < 1e-9
        if name == "grid":    # all four reflections of the reference square
            interior = np.round(combinatorial[:, 8:, 8:]).astype(int)
            assert len(np.unique(interior, axis=0)) == 4

    def test_even_solve_matches_full_solve(self, mirror_meshes, monkeypatch):
        # in double precision refinement stalls at a residual of about 1e-11 and
        # the full solve is accurate only to a few 1e-9 relative, depending on
        # the BLAS rounding; refined with extended-precision residuals, both
        # solves are accurate far below the tolerance compared here
        monkeypatch.setattr(Factorization, "solve", extended_refined_solve)
        cfg = hn.RunConfig()
        space = distribute_dofs(mirror_meshes["adaptive"])
        cs = build_constraints(space)
        even = mirror_even(space, cs)
        assert even.n_master < cs.n_master
        xs = hn.trace_grid(cfg)
        full, reduced = (hn.scattered_trace(*hn.solve_pair(space, c, cfg.model())[:2], xs).values
                         for c in (cs, even))
        assert np.abs(reduced - full).max() <= 1e-9 * np.abs(full).max()

    def test_mesh_without_mirror_keeps_its_constraints(self):
        space = distribute_dofs(grid_mesh(3, 2))
        cs = build_constraints(space)
        assert mirror_even(space, cs) is cs
        disk = msh.build_disk_mesh(8 * np.pi, 1)
        ids = disk.active_ids()
        disk.refine(ids[disk.cell_corners(ids).mean(axis=1)[:, 0] > 0][:1])
        space = distribute_dofs(disk)
        cs = build_constraints(space)
        assert mirror_even(space, cs) is cs
