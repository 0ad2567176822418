import numpy as np
import pytest

from sppsim import dwr as dwr_mod
from sppsim import mesh as msh
from sppsim import pml as pml_mod
from sppsim.assembly import DipoleSpec, SheetModel
from sppsim.dwr import QuadData, WeightFunction, mark, qoi, reconstruct
from sppsim.fespace import (ELEMENT_SPACE, REF, FieldSolution, build_constraints,
                            distribute_dofs, sheet_ref_points, vector_monomials)
from sppsim.mesh import CHILD_OFFSETS, cell_geometry, jacobian_det
from sppsim.pml import PmlSpec

from fields import field_values, interpolate, shape_eval

D_W = 1.5625


def grid_mesh(n, size=1.0, R=50.0):
    m = msh.Mesh(R)
    ids = {}
    for j in range(n + 1):
        for i in range(n + 1):
            ids[(i, j)] = m.add_vertex(size * i / n, size * j / n)
    for j in range(n):
        for i in range(n):
            m.add_cell((ids[(i, j)], ids[(i + 1, j)], ids[(i + 1, j + 1)], ids[(i, j + 1)]),
                       0, -1)
    return m


def recover(sol):
    return reconstruct(QuadData(sol.space, (sol,)))


def nested_patch_space():
    """Root 0 (outer) holds two active children, the refined child 6 (a
    clean patch) and child 4 (inner), itself irregular around the clean
    patch of its child 20.  Returns the space and the outer and inner ids."""
    m = grid_mesh(2, size=2.0)
    m.uniform_refine(1)
    outer, inner, clean_in_outer = 0, 4, 6
    m.refine([inner])
    clean_in_inner = int(m.children[inner, 0])
    m.refine([clean_in_inner])
    m.refine([clean_in_outer])
    assert int(m.parent[clean_in_inner]) == inner
    return distribute_dofs(m), outer, inner


def random_solution(space, seed):
    rng = np.random.default_rng(seed)
    return FieldSolution(space, rng.standard_normal(space.n_dofs)
                         + 1j * rng.standard_normal(space.n_dofs))


def conforming_solution(space, seed):
    """random_solution with its edge dofs from random masters: a field of the
    constrained space, whose trace on a hanging face is one from both sides."""
    cs = build_constraints(space)
    sol = random_solution(space, seed)
    rng = np.random.default_rng(seed + 1)
    masters = rng.standard_normal(cs.n_master) + 1j * rng.standard_normal(cs.n_master)
    sol.coeffs[:space.n_edge_dofs] = cs.distribute(masters)[:space.n_edge_dofs]
    return sol


def quadratic_field(pts):
    # in the order-2 edge space of every affine cell
    x, y = pts[:, 0], pts[:, 1]
    return np.column_stack([0.4 * x * y - 0.2 * y * y + 0.3,
                            1.1 * x * x + 0.5 * y - 0.7])


def smooth_field(pts):
    x, y = pts[:, 0], pts[:, 1]
    return np.column_stack([np.sin(3 * x) * np.cos(2 * y), np.cos(3 * x) * y * y])


def order2_patch_differences(sol, parent):
    """pi u - u at the quadrature points of every active cell below parent.

    An independent, cell-by-cell version of the irregular-patch recovery: one
    order-2 least-squares fit in the parent's reference frame over all active
    descendants, weighted by the quadrature weights times the cell Jacobian.
    """
    mesh = sol.space.mesh
    cells, stack = [], [(parent, np.zeros(2), 1.0)]
    while stack:
        cid, offset, scale = stack.pop()
        if mesh.children[cid, 0] < 0:
            cells.append((cid, offset, scale))
            continue
        for quad, kid in enumerate(mesh.children[cid]):
            stack.append((kid, offset + 0.5 * scale * np.array(CHILD_OFFSETS[quad]),
                          0.5 * scale))
    rows_a, rows_b, frames = [], [], []
    for cid, offset, scale in cells:
        ppts = offset + scale * REF.quad_pts
        mono, mono_curl = vector_monomials(ppts, ELEMENT_SPACE)
        jac = cell_geometry(mesh, [parent], ppts)[1][0]
        wts = np.sqrt(REF.quad_wts * jacobian_det(cell_geometry(mesh, [cid], REF.quad_pts)[1])[0])
        pulled = np.einsum("pji,pj->pi", jac, field_values(sol, [cid], REF.quad_pts)[0])
        for comp in range(2):
            rows_a.append(mono[:, :, comp] * wts[:, None])
            rows_b.append(pulled[:, comp] * wts)
        frames.append((cid, mono, mono_curl, jac))
    coef = np.linalg.lstsq(np.vstack(rows_a), np.concatenate(rows_b), rcond=None)[0]
    out = {}
    for cid, mono, mono_curl, jac in frames:
        hat = np.einsum("pmc,m->pc", mono, coef)
        vals = np.linalg.solve(jac.transpose(0, 2, 1), hat[..., None])[..., 0]
        curls = mono_curl @ coef / jacobian_det(jac)
        _, basis_curls = shape_eval(sol.space, [cid], REF.quad_pts)
        local = sol.coeffs[sol.space.cell_dofs[sol.space.rank[cid]]]
        out[cid] = (vals - field_values(sol, [cid], REF.quad_pts)[0],
                    curls - basis_curls[0] @ local)
    return out


class TestWeight:
    def setup_method(self):
        self.w = WeightFunction(half_width=D_W)

    def at(self, y):
        return self.w(np.array([[0.0, y]]))[0]

    def test_center_is_one(self):
        assert self.at(0.0) == 1.0

    def test_band_edge_is_zero(self):
        assert self.at(D_W) == pytest.approx(0.0, abs=1e-30)
        assert self.at(-D_W) == pytest.approx(0.0, abs=1e-30)
        assert self.at(2 * D_W) == 0.0

    def test_half_width_value(self):
        assert self.at(D_W / 2) == pytest.approx(0.5)


class TestQoi:
    def setup_method(self):
        m = msh.build_disk_mesh(8 * np.pi, 2)
        self.space = distribute_dofs(m)
        self.w = WeightFunction(half_width=D_W)

    def test_zero_field(self):
        zero = FieldSolution(self.space, np.zeros(self.space.n_dofs, dtype=complex))
        assert qoi(zero, self.w) == 0.0

    def test_curl_free_field(self):
        # gradient of a smooth scalar interpolates to a nearly curl-free field
        def grad_p(pts):
            x, y = pts[:, 0], pts[:, 1]
            return np.column_stack([y + 0.2, x - 0.5])

        sol = FieldSolution(self.space, interpolate(self.space, grad_p))
        base = qoi(FieldSolution(self.space, interpolate(
            self.space, lambda p: np.column_stack([p[:, 1] ** 2, p[:, 0]]))), self.w)
        assert qoi(sol, self.w) < 1e-12 * max(base, 1.0)

    def test_quadratic_homogeneity(self):
        rng = np.random.default_rng(0)
        c = rng.standard_normal(self.space.n_dofs) + 1j * rng.standard_normal(self.space.n_dofs)
        j1 = qoi(FieldSolution(self.space, c), self.w)
        j2 = qoi(FieldSolution(self.space, 2 * c), self.w)
        assert j2 == pytest.approx(4 * j1, rel=1e-12)
        assert j1 >= 0


class TestReconstruction:
    def test_order2_slots_hold_the_element_fields_bit_for_bit(self):
        # an order-2 fit is stored in the columns ORDER2_SLOTS of the order-3
        # table, and the recovery is evaluated in RECOVERY_SPACE
        pts = np.random.default_rng(3).uniform(-1.0, 2.0, size=(40, 2))
        vals, curls = vector_monomials(pts, ELEMENT_SPACE)
        vals3, curls3 = vector_monomials(pts, dwr_mod.RECOVERY_SPACE)
        assert np.array_equal(vals3[:, dwr_mod.ORDER2_SLOTS], vals)
        assert np.array_equal(curls3[:, dwr_mod.ORDER2_SLOTS], curls)

    def test_parent_level_polynomial_reproduced(self):
        # the interpolant of a global quadratic lives in each parent's space
        m = grid_mesh(2, size=2.0)
        m.uniform_refine(1)
        space = distribute_dofs(m)

        sol = FieldSolution(space, interpolate(space, quadratic_field))
        rec = recover(sol)
        assert np.max(np.abs(rec.dvals_quad)) < 1e-10
        assert np.max(np.abs(rec.dcurls_quad)) < 1e-10

    def test_constant_field_difference_vanishes(self):
        # an unrefined mesh has no patches at all
        for refines in (1, 0):
            m = grid_mesh(2)
            m.uniform_refine(refines)
            space = distribute_dofs(m)
            sol = FieldSolution(space, interpolate(
                space, lambda p: np.column_stack([np.ones(len(p)), 2 * np.ones(len(p))])))
            rec = recover(sol)
            assert np.max(np.abs(rec.dvals_quad)) < 1e-12

    def test_irregular_patch_fallback_is_safe(self):
        m = grid_mesh(2, size=2.0)
        m.uniform_refine(1)
        m.refine([m.active_ids()[0]])
        space = distribute_dofs(m)
        rng = np.random.default_rng(1)
        sol = FieldSolution(space, rng.standard_normal(space.n_dofs) + 0j)
        rec = recover(sol)
        assert np.all(np.isfinite(rec.dvals_quad))

    def test_irregular_patch_reproduces_parent_space_field(self):
        # root 0 keeps three active children and one refined one: an irregular
        # patch whose order-2 fit contains the field exactly
        m = grid_mesh(2, size=2.0)
        m.uniform_refine(1)
        m.refine([m.active_ids()[0]])
        space = distribute_dofs(m)
        sol = FieldSolution(space, interpolate(space, quadratic_field))
        rec = recover(sol)
        below_root0 = list(order2_patch_differences(sol, 0))
        assert len(below_root0) == 7
        assert np.all(rec._order[space.rank[below_root0]] == 2)
        assert np.all(rec._parent[space.rank[below_root0]] == 0)
        assert np.max(np.abs(rec.dvals_quad)) < 1e-10
        assert np.max(np.abs(rec.dcurls_quad)) < 1e-10
        # the stored patch embeddings and coefficients reproduce it off the grid too
        pts = np.random.default_rng(2).random((5, 2))
        dvals = rec.at_points(space.active, pts)[0] - field_values(sol, space.active, pts)
        assert np.max(np.abs(dvals)) < 1e-10

    def test_nested_patches_take_the_later_irregular_fit(self):
        # Active cells come in ascending id, so the inner parent appears after
        # the outer one and its fit wins below it; both clean patches give way
        # to the order-2 fit of an irregular parent.
        space, outer, inner = nested_patch_space()
        sol = FieldSolution(space, interpolate(space, smooth_field))
        qd = QuadData(space, (sol,))
        rec = reconstruct(qd)
        by_outer = order2_patch_differences(sol, outer)
        by_inner = order2_patch_differences(sol, inner)
        assert set(by_inner) < set(by_outer) and len(by_outer) == 13
        scale = np.max(np.abs(qd.values[0]))
        # the two fits differ below the inner parent, so the test tells them apart
        assert max(np.max(np.abs(by_inner[c][0] - by_outer[c][0]))
                   for c in by_inner) > 1e-3 * scale
        for cid, (dvals, dcurls) in {**by_outer, **by_inner}.items():
            r = space.rank[cid]
            assert rec._order[r] == 2
            np.testing.assert_allclose(rec.dvals_quad[0, r], dvals, rtol=0,
                                       atol=1e-9 * scale)
            np.testing.assert_allclose(rec.dcurls_quad[0, r], dcurls, rtol=0,
                                       atol=1e-9 * scale)

    def test_fit_batch_size_does_not_change_the_recovery(self, monkeypatch):
        # the fit's row budget only bounds memory: one patch per batch must
        # give the default budget's numbers bit for bit
        space, _, _ = nested_patch_space()
        qd = QuadData(space, (random_solution(space, 4), random_solution(space, 5)))
        batches = []
        fit = dwr_mod.PatchReconstruction._fit
        monkeypatch.setattr(dwr_mod.PatchReconstruction, "_fit",
                            lambda self, *args: batches.append(1) or fit(self, *args))
        default = reconstruct(qd)
        n_default = len(batches)
        monkeypatch.setattr(dwr_mod, "FIT_BATCH_CELLS", 1)
        single = reconstruct(qd)
        # the clean patches share a group, so one patch per batch splits it
        assert len(batches) - n_default > n_default
        assert np.array_equal(single.dvals_quad, default.dvals_quad)
        assert np.array_equal(single.dcurls_quad, default.dcurls_quad)
        assert np.array_equal(single._coeffs, default._coeffs)

    def test_shared_fit_matches_single_fits_bitwise(self):
        # fitting e and z together shares the normal matrices; each solution
        # must still get exactly the numbers of its own recovery
        space, _, _ = nested_patch_space()
        e, z = random_solution(space, 4), random_solution(space, 5)
        both = reconstruct(QuadData(space, (e, z)))
        pts = np.random.default_rng(6).random((len(space.active), 3, 2))
        shared = both.at_points(space.active, pts)
        for k, sol in enumerate((e, z)):
            alone = reconstruct(QuadData(space, (sol,)))
            assert np.array_equal(both.dvals_quad[k], alone.dvals_quad[0])
            assert np.array_equal(both.dcurls_quad[k], alone.dcurls_quad[0])
            assert np.array_equal(shared[k], alone.at_points(space.active, pts)[0])

    def test_off_grid_differences_match_quadrature_differences(self):
        # the two evaluation paths of pi u - u agree for a field that no
        # patch space contains
        space, _, _ = nested_patch_space()
        sol = random_solution(space, 7)
        qd = QuadData(space, (sol,))
        rec = reconstruct(qd)
        vals = field_values(sol, space.active, REF.quad_pts)
        dvals = rec.at_points(space.active, REF.quad_pts)[0] - vals
        scale = np.max(np.abs(qd.values[0]))
        assert np.max(np.abs(rec.dvals_quad)) > 1e-2 * scale
        np.testing.assert_allclose(vals, qd.values[0], rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(dvals, rec.dvals_quad[0], rtol=0,
                                   atol=1e-12 * scale)

    def test_difference_shrinks_faster_than_interpolation_error(self):
        # measured on three uniform levels: the recovery difference stays below
        # the true interpolation error and the ratio keeps decreasing
        def f(pts):
            x, y = pts[:, 0], pts[:, 1]
            return np.column_stack([np.sin(3 * x) * np.cos(2 * y),
                                    np.cos(3 * x) * y * y])

        ratios = []
        for n in (2, 4, 8):
            m = grid_mesh(n)
            m.uniform_refine(1)
            space = distribute_dofs(m)
            sol = FieldSolution(space, interpolate(space, f))
            rec = recover(sol)
            err_true = 0.0
            err_rec = 0.0
            for i, cid in enumerate(space.active):
                phys, jac = cell_geometry(m, [cid], REF.quad_pts)
                det = jacobian_det(jac)[0]
                u = field_values(sol, [cid], REF.quad_pts)[0]
                err_true += np.sum(REF.quad_wts * det *
                                   np.sum(np.abs(u - f(phys[0])) ** 2, axis=1))
                err_rec += np.sum(REF.quad_wts * det *
                                  np.sum(np.abs(rec.dvals_quad[0, i]) ** 2, axis=1))
            ratios.append(np.sqrt(err_rec / err_true))
        assert all(r < 1.0 for r in ratios)
        assert ratios[2] < ratios[1] < ratios[0]


class TestIndicators:
    def test_zero_solutions_zero_indicators(self):
        m = msh.build_disk_mesh(8 * np.pi, 1)
        space = distribute_dofs(m)
        model = SheetModel(sigma_r=0.15j, pml=PmlSpec(R=8 * np.pi, s0=2.0),
                           dipole=DipoleSpec(height=1.0, radius=0.15625))
        zero = FieldSolution(space, np.zeros(space.n_dofs, dtype=complex))
        qd = QuadData(space, (zero, zero))
        eta = dwr_mod.indicators(qd, model, reconstruct(qd), WeightFunction(D_W))
        assert set(eta) == set(space.active)
        assert all(v == 0.0 for v in eta.values())

    def test_indicators_nonnegative(self):
        m = msh.build_disk_mesh(8 * np.pi, 1)
        space = distribute_dofs(m)
        model = SheetModel(sigma_r=0.15j, pml=PmlSpec(R=8 * np.pi, s0=2.0),
                           dipole=DipoleSpec(height=1.0, radius=0.15625))
        rng = np.random.default_rng(3)
        e = FieldSolution(space, rng.standard_normal(space.n_dofs)
                          + 1j * rng.standard_normal(space.n_dofs))
        z = FieldSolution(space, rng.standard_normal(space.n_dofs)
                          + 1j * rng.standard_normal(space.n_dofs))
        qd = QuadData(space, (e, z))
        eta = dwr_mod.indicators(qd, model, reconstruct(qd), WeightFunction(D_W))
        assert all(v >= 0.0 for v in eta.values())

    def test_keys_are_the_active_cells_in_order(self):
        # mark and the VTK writer read the values in key order
        m = msh.build_disk_mesh(8 * np.pi, 1)
        m.refine(m.active_ids()[::3])
        space = distribute_dofs(m)
        model = SheetModel(sigma_r=0.15j, pml=PmlSpec(R=8 * np.pi, s0=2.0),
                           dipole=DipoleSpec(height=1.0, radius=0.15625))
        qd = QuadData(space, (random_solution(space, 6), random_solution(space, 7)))
        eta = dwr_mod.indicators(qd, model, reconstruct(qd), WeightFunction(D_W))
        assert list(eta) == space.active.tolist() == sorted(m.active_ids().tolist())

    def test_face_terms_match_a_per_face_loop(self, monkeypatch):
        # with no material, no dipole in the disk and no goal weight the cell
        # terms vanish and eta holds the sheet face terms alone; a
        # refined cell above the sheet leaves coarse sides below its faces
        R = 8 * np.pi
        m = msh.build_disk_mesh(R, 1)
        ids = m.active_ids()
        corners = m.cell_corners(ids)
        on_sheet = np.sum(np.abs(corners[:, :, 1]) < 1e-12, axis=1) == 2
        m.refine([ids[np.flatnonzero(on_sheet & np.all(corners[:, :, 1] >= 0, axis=1))[0]]])
        space = distribute_dofs(m)
        model = SheetModel(sigma_r=2.56e-4 + 0.16j, pml=PmlSpec(R=R, s0=2.0),
                           dipole=DipoleSpec(height=10 * R, radius=0.15625))
        monkeypatch.setattr(dwr_mod.pml_mod, "material_arrays",
                            lambda pts, spec: (np.zeros(len(pts)), np.zeros((len(pts), 2, 2))))
        # the face pass reads u_t from a face's moments: a field of the
        # constrained space has the same trace from both sides of every face
        qd = QuadData(space, (conforming_solution(space, 8), conforming_solution(space, 9)))
        recon = reconstruct(qd)
        eta = dwr_mod.indicators(qd, model, recon, lambda pts: np.zeros(len(pts)))

        rho = dict.fromkeys(space.active.tolist(), 0j)
        rho_ast = dict.fromkeys(space.active.tolist(), 0j)

        def add(cid, ref, weights, tangent):
            # u from the side cell itself, pi u - u only on a cell with a patch
            vals = [field_values(sol, [cid], ref[None])[0] for sol in qd.sols]
            pis = recon.at_points([cid], ref[None])[:, 0]
            fitted = recon._order[space.rank[cid]] > 0
            e_t, z_t = (np.sum(v * tangent, axis=1) for v in vals)
            ve_t, wz_t = (fitted * np.sum((pi - v) * tangent, axis=1)
                          for pi, v in zip(pis, vals))
            rho[cid] += 1j * np.sum(weights * e_t * np.conj(wz_t))
            rho_ast[cid] += 1j * np.sum(weights * ve_t * np.conj(z_t))

        faces, quad = space.sheet_faces, space.sheet_quadrature
        n_coarse = 0
        for f in range(len(faces)):
            sigma = pml_mod.sheet_arrays(quad.phys[f], model.sigma_r, model.pml)
            for cid in (faces.above[f], faces.below[f]):
                if cid < 0:
                    continue
                ref = quad.ref[f]
                if cid != faces.owner[f]:
                    n_coarse += 1
                    ref = sheet_ref_points(m, np.full(len(ref), cid), quad.phys[f, :, 0])
                add(cid, ref, 0.5 * quad.weights[f] * sigma, np.array([1.0, 0.0]))
        assert n_coarse > 0
        want = {c: 0.5 * abs(rho[c] + rho_ast[c]) for c in rho}
        scale = max(want.values())
        assert scale > 0
        for c in want:
            assert abs(eta[c] - want[c]) <= 1e-12 * scale


class TestMarking:
    def setup_method(self):
        self.mesh = msh.build_disk_mesh(8 * np.pi, 2)
        self.weight = WeightFunction(D_W)
        self.active = sorted(self.mesh.active_ids())

    def centers(self):
        return self.mesh.cell_corners(self.active).mean(axis=1)

    def test_first_cycle_forces_whole_band(self):
        eta = {c: 0.0 for c in self.active}
        marked = set(mark(eta, self.mesh, self.weight, cycle=1))
        wvals = self.weight(self.centers())
        band = {c for c, w in zip(self.active, wvals) if w > 0}
        assert band <= marked

    def test_equal_indicators_mark_every_cell(self):
        eta = {c: 1.0 for c in self.active}
        far = WeightFunction(1e-9)  # effectively empty band
        assert mark(eta, self.mesh, far, cycle=5, fraction=0.15) == self.active

    def test_tie_straddling_the_cut_is_marked_whole(self):
        # distinct indicators, except that the last cell above the cut and the
        # first below it agree to rounding noise (a mirror pair)
        n_top = int(np.ceil(0.15 * len(self.active)))
        eta = np.linspace(2.0, 1.0, len(self.active))
        eta[n_top] = eta[n_top - 1] * (1 + 1e-14)
        far = WeightFunction(1e-9)
        marked = mark(dict(zip(self.active, eta)), self.mesh, far, cycle=5, fraction=0.15)
        assert marked == self.active[:n_top + 1]

    def test_marks_robust_to_noise_in_tied_indicators(self):
        # five distinct levels, so the top-15 % threshold cuts through a tie
        rng = np.random.default_rng(2)
        levels = rng.integers(1, 6, len(self.active)) / 5.0
        far = WeightFunction(1e-9)
        ref = mark(dict(zip(self.active, levels)), self.mesh, far, cycle=5)
        for _ in range(5):
            noisy = levels + 1e-12 * levels.max() * rng.uniform(-1, 1, len(levels))
            marked = mark(dict(zip(self.active, noisy)), self.mesh, far, cycle=5)
            assert marked == ref

    def test_late_cycles_select_only_peak_weight_cells(self):
        eta = {c: 0.0 for c in self.active}
        marked = set(mark(eta, self.mesh, self.weight, cycle=40, fraction=0.0))
        wvals = self.weight(self.centers())
        wmax = wvals.max()
        peak = {c for c, w in zip(self.active, wvals) if w >= wmax * (1 - 1e-12)}
        assert marked <= peak

    def test_marking_deterministic(self):
        rng = np.random.default_rng(0)
        eta = {c: float(v) for c, v in zip(self.active, rng.random(len(self.active)))}
        m1 = mark(eta, self.mesh, self.weight, cycle=3)
        m2 = mark(eta, self.mesh, self.weight, cycle=3)
        assert m1 == m2

    def test_level_cap_respected(self):
        eta = {c: 1.0 for c in self.active}
        marked = mark(eta, self.mesh, self.weight, cycle=1, level_cap=2)
        assert marked == []

    def test_cycle_must_be_positive(self):
        with pytest.raises(ValueError):
            mark({0: 1.0}, self.mesh, self.weight, cycle=0)
