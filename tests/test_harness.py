import csv
import dataclasses
import sys
import weakref

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import j0

from sppsim import fespace
from sppsim import harness as hn
from sppsim import mesh as msh
from sppsim import oracle as oracle_mod
from sppsim import solver
from sppsim.assembly import (DIPOLE_NORM, AssemblyError, assemble_dipole_rhs,
                             assemble_fixed, assemble_pair, incident_ex)
from sppsim.cli import main
from sppsim.fespace import FieldSolution, build_constraints, distribute_dofs

from fields import interpolate


def tiny_config(**kw):
    base = dict(sigma_r=0.15j, a=0.5, R=4 * np.pi, d_w=0.8, d_reg=0.5,
                cycles=1, initial_refines=1, samples=128, x_min=0.4,
                write_artifacts=False, dipole_resolve_factor=2.05)
    base.update(kw)
    return hn.RunConfig(**base)


def vtk_cell_scalars(path, name):
    """One CELL_DATA scalar column of a legacy ASCII VTK file written by write_vtk."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    n = int(next(line for line in lines if line.startswith("CELL_DATA")).split()[1])
    start = lines.index(f"SCALARS {name} double 1") + 2   # skip LOOKUP_TABLE
    return np.array([float(v) for v in lines[start:start + n]])


@pytest.fixture(scope="module")
def tiny_solutions():
    cfg = tiny_config()
    mesh = hn.build_initial_mesh(cfg)
    space = distribute_dofs(mesh)
    cs = build_constraints(space)
    scattered, _, _ = hn.solve_pair(space, cs, cfg.model())
    return cfg, space, scattered


@pytest.fixture(scope="module")
def band_space():
    """The tiny configuration's space, band-refined until the trace carries the SPP.

    On the unrefined tiny mesh (1,394 dofs) the trace errors are 35-55 %, so
    neither scattered trace resolves the surface wave there.
    """
    cfg = tiny_config()
    mesh = hn.build_initial_mesh(cfg)
    hn.band_refine(mesh, cfg.d_w, 0.25)
    space = distribute_dofs(mesh)
    return cfg, space, build_constraints(space)


def source_form_factor(d):
    """F = 2 pi int_0^d rho(r) J0(r) r dr of the unit-mass cos^2 bump of radius d."""
    dens = lambda r: DIPOLE_NORM / d**2 * np.cos(np.pi * r / (2 * d)) ** 2
    return 2 * np.pi * quad(lambda r: dens(r) * j0(r) * r, 0.0, d, epsabs=0.0,
                            epsrel=1e-13)[0]


class TestTraceGrid:
    def test_grid_properties(self):
        cfg = tiny_config(samples=64)
        xs = hn.trace_grid(cfg)
        assert len(xs) == 64
        assert np.all(np.diff(xs) > 0)
        assert np.all(np.abs(xs) >= cfg.x_min)
        assert xs[-1] == pytest.approx(0.8 * cfg.R)
        assert xs[0] == pytest.approx(-0.8 * cfg.R)


class TestL2Error:
    def grid(self):
        right = np.linspace(1.0, 5.0, 60)
        return np.concatenate([-right[::-1], right])

    def test_identical_traces(self):
        xs = self.grid()
        v = np.exp(1j * xs)
        t = hn.InterfaceTrace(xs, v)
        assert hn.l2_error(t, hn.InterfaceTrace(xs, v.copy()), "complex") == 0.0

    def test_constant_difference(self):
        xs = self.grid()
        c = 0.37
        t1 = hn.InterfaceTrace(xs, np.zeros_like(xs, dtype=complex))
        t2 = hn.InterfaceTrace(xs, np.full_like(xs, c, dtype=complex))
        # two intervals of length 4 each
        assert hn.l2_error(t1, t2, "complex") == pytest.approx(c * np.sqrt(8.0), rel=1e-12)
        assert hn.l2_error(t1, t2, "real") == pytest.approx(c * np.sqrt(8.0), rel=1e-12)

    def test_constant_difference_on_a_coarse_trace_grid(self):
        # few samples leave the core gap no wider than a sample spacing or
        # two; the integral still skips |x| < x_min
        cfg = hn.RunConfig(samples=64)
        xs = hn.trace_grid(cfg)
        c = 0.37
        t1 = hn.InterfaceTrace(xs, np.zeros_like(xs, dtype=complex))
        t2 = hn.InterfaceTrace(xs, np.full_like(xs, c, dtype=complex))
        # two intervals [x_min, rho], rho = 0.8 R
        assert hn.l2_error(t1, t2, "real") == pytest.approx(
            c * np.sqrt(2 * (0.8 * cfg.R - cfg.x_min)), rel=1e-12)

    def test_mismatched_grids_rejected(self):
        xs = self.grid()
        with pytest.raises(ValueError):
            hn.l2_error(hn.InterfaceTrace(xs, np.zeros_like(xs, dtype=complex)),
                        hn.InterfaceTrace(xs + 0.5, np.zeros_like(xs, dtype=complex)))

    def test_imaginary_part_ignored_for_real_component(self):
        xs = self.grid()
        t1 = hn.InterfaceTrace(xs, np.zeros_like(xs, dtype=complex))
        t2 = hn.InterfaceTrace(xs, 1j * np.ones_like(xs, dtype=complex))
        assert hn.l2_error(t1, t2, "real") == 0.0
        assert hn.l2_error(t1, t2, "complex") > 0


class TestScatteredTrace:
    def test_zero_field_zero_trace(self, tiny_solutions):
        cfg, space, _ = tiny_solutions
        zero = FieldSolution(space, np.zeros(space.n_dofs, dtype=complex))
        assert not np.any(hn.scattered_trace(zero, hn.trace_grid(cfg)).values)

    def test_linearity_in_field(self, tiny_solutions):
        cfg, space, scattered = tiny_solutions
        xs = hn.trace_grid(cfg)
        other = FieldSolution(space, np.random.default_rng(3).normal(size=space.n_dofs)
                              + 0j)
        combined = FieldSolution(space, (0.5 - 2j) * scattered.coeffs + other.coeffs)
        expected = ((0.5 - 2j) * hn.scattered_trace(scattered, xs).values
                    + hn.scattered_trace(other, xs).values)
        got = hn.scattered_trace(combined, xs).values
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-14 * np.abs(expected).max())

    def test_trace_parity_antisymmetric(self, tiny_solutions):
        cfg, space, scattered = tiny_solutions
        xs = hn.trace_grid(cfg)
        tr = hn.scattered_trace(scattered, xs)
        folded = tr.values + tr.values[::-1]
        scale = np.max(np.abs(tr.values))
        assert np.max(np.abs(folded)) < 0.02 * scale

    def test_linear_field_reproduced_on_hanging_sheet_faces(self):
        R = 4 * np.pi
        mesh = msh.build_disk_mesh(R, 1)
        ids = mesh.active_ids()
        ys = mesh.cell_corners(ids)[:, :, 1]
        below = ids[(ys.max(axis=1) <= 0) & (np.sum(ys == 0, axis=1) == 2)]
        mesh.refine(below[1:3])
        faces = msh.interface_faces(mesh)
        hanging = np.flatnonzero((faces.above >= 0)
                                 & (mesh.level[faces.above] < mesh.level[faces.owner]))
        assert len(hanging)
        space = distribute_dofs(mesh)

        def f(p):
            return np.column_stack([0.3 + 0.7 * p[:, 0] - 0.4 * p[:, 1],
                                    -0.2 + 0.5 * p[:, 0] + 0.9 * p[:, 1]])

        lin = FieldSolution(space, interpolate(space, f))
        # the trace at x < 0 is taken by parity, which this field lacks
        xs = np.linspace(0.01 * R, 0.95 * R, 301)
        assert any(np.any((xs > faces.x_lo[h]) & (xs < faces.x_hi[h])) for h in hanging)
        tr = hn.scattered_trace(lin, xs)
        exact = f(np.column_stack([xs, np.zeros_like(xs)]))[:, 0]
        assert np.max(np.abs(tr.values - exact)) < 1e-11

    @pytest.mark.parametrize("layout", ["disk", "turned"])
    def test_odd_linear_field_exact_at_every_sample(self, layout):
        # E_x = c x is odd in x, as the trace is, and the trace of each face's
        # two moments reproduces it at any sample.  Refining cells below the
        # sheet leaves hanging faces owned from below; the owners' edges run
        # along and against the global direction, and in the turned grid,
        # whose cells below the sheet are turned by half a turn, also along -x
        if layout == "disk":
            mesh = msh.build_disk_mesh(4 * np.pi, 1)
        else:
            mesh = msh.Mesh(10.0)
            v = {(i, j): mesh.add_vertex(float(i), float(j))
                 for i in range(5) for j in (-1, 0, 1)}
            for i in range(4):
                for corners in ((v[i, 0], v[i + 1, 0], v[i + 1, 1], v[i, 1]),
                                (v[i + 1, 0], v[i, 0], v[i, -1], v[i + 1, -1])):
                    mesh.add_cell(corners, 0, -1)
        ids = mesh.active_ids()
        ys = mesh.cell_corners(ids)[:, :, 1]
        mesh.refine(ids[(ys.max(axis=1) <= 0) & (np.sum(ys == 0, axis=1) == 2)][1:3])
        space = distribute_dofs(mesh)
        faces = space.sheet_faces
        hanging = (faces.above >= 0) & (mesh.level[faces.above] < mesh.level[faces.owner])
        assert np.any(hanging & (faces.owner == faces.below))
        flipped = (space.orient_idx[space.rank[faces.owner]] >> faces.ledge) & 1
        assert set(flipped.tolist()) == {0, 1}
        start, end = np.array(msh.EDGE_CORNERS)[faces.ledge].T
        x_ends = mesh.cell_corners(faces.owner)[np.arange(len(faces)), :, 0]
        rows = np.arange(len(faces))
        along = np.sign(x_ends[rows, end] - x_ends[rows, start])
        assert set(along.tolist()) == ({1.0} if layout == "disk" else {-1.0, 1.0})
        c = 0.7 - 0.3j
        lin = FieldSolution(space, interpolate(space, lambda p: np.column_stack(
            [c * p[:, 0], np.zeros(len(p))])))
        right = np.linspace(faces.x_lo[0] + 0.01, 0.9 * faces.x_hi[-1], 199)
        xs = np.concatenate([-right[::-1], right])
        assert all(np.any((xs > faces.x_lo[k]) & (xs < faces.x_hi[k]))
                   for k in np.flatnonzero(hanging))
        tr = hn.scattered_trace(lin, xs)
        assert np.max(np.abs(tr.values - c * xs)) <= 1e-13 * np.abs(c * xs).max()



class TestOneFactorization:
    """The scattered field from one LU against the difference of two solves.

    Both are scattered fields of the sheet on one mesh: the one-LU field is
    driven by the sheet load of the point dipole's closed-form field, the
    difference by the discrete field of the regularized dipole.  They differ
    by that field's discretization error and its form factor, not by more.
    """

    @pytest.fixture(scope="class")
    def traces(self, band_space):
        cfg, space, cs = band_space
        model = cfg.model()
        xs = hn.trace_grid(cfg)
        one = hn.scattered_trace(hn.solve_pair(space, cs, model)[0], xs)
        fixed = assemble_fixed(space, cs, model)
        load = assemble_dipole_rhs(space, model)
        # the sheet-free system is the pair without conductivity
        sheet_free = assemble_pair(fixed, dataclasses.replace(model, sigma_r=0j))
        primary = solver.solve(sheet_free.with_load(load), solver.factorize(sheet_free.matrix))
        sys_tot = assemble_pair(fixed, model).with_load(load)
        total = solver.solve(sys_tot, solver.factorize(sys_tot.matrix))
        diff = hn.scattered_trace(FieldSolution(space, total.coeffs - primary.coeffs), xs)
        return cfg, xs, one, diff

    def test_agrees_with_the_difference_of_two_solves(self, traces):
        # measured: 1.75e-2 relative (complex L2)
        cfg, xs, one, diff = traces
        zero = hn.InterfaceTrace(xs, np.zeros(len(xs), dtype=complex))
        rel = hn.l2_error(one, diff, "complex") / hn.l2_error(diff, zero, "complex")
        assert rel <= 0.025

    def test_no_farther_from_the_reference(self, traces):
        # measured real 2.192e-2 against 2.287e-2, complex 3.153e-2 against 3.252e-2
        cfg, xs, one, diff = traces
        ref = hn.oracle_trace(cfg, xs)
        for component in ("real", "complex"):
            assert hn.l2_error(one, ref, component) <= hn.l2_error(diff, ref, component)

    def test_sheet_free_trace_is_the_incident_field(self):
        """The absorbing layer needs no reference: without the sheet the solve is
        the regularized dipole's field, F times the point dipole's E_inc outside
        the bump, and a layer that reflects puts its echo on the trace.

        On the band mesh of the tiny configuration from initial_refines = 3
        (23,288 dofs) the coarse layer cells no longer decide the fit.
        Measured at s0 = 4: least-squares factor 0.98627-0.00002j against
        F = 0.98554 (0.075 % off), misfit 1.27e-3 of F E_inc on |x| < 3.  A
        layer with the coefficients times dbar (not pulled back) gives
        0.204 % and 3.67e-3, and the layer at s0 = 2 0.298 % and 8.3e-3.
        """
        cfg = tiny_config(initial_refines=3)
        mesh = hn.build_initial_mesh(cfg)
        hn.band_refine(mesh, cfg.d_w, 0.25)
        space = distribute_dofs(mesh)
        model, xs = cfg.model(), hn.trace_grid(cfg)
        sheet_free = assemble_pair(assemble_fixed(space, build_constraints(space), model),
                                   dataclasses.replace(model, sigma_r=0j))
        field = solver.solve(sheet_free.with_load(assemble_dipole_rhs(space, model)),
                             solver.factorize(sheet_free.matrix))
        trace = hn.scattered_trace(field, xs).values
        inc = incident_ex(xs, cfg.a, model.pml)
        form = source_form_factor(cfg.d_reg)
        fit = np.vdot(inc, trace) / np.vdot(inc, inc)
        assert abs(fit / form - 1) <= 0.0015
        near = np.abs(xs) < 3
        misfit = np.linalg.norm(trace[near] - form * inc[near]) / np.linalg.norm(form * inc[near])
        assert misfit <= 2.5e-3



class TestRunAdaptive:
    def test_single_cycle_run(self, tmp_path):
        cfg = tiny_config(cycles=1, out_dir=str(tmp_path), write_artifacts=True)
        records, artifacts = hn.run_adaptive(cfg)
        assert len(records) == 1
        assert records[0].cycle == 1
        assert np.isnan(records[0].rate)
        assert "convergence.csv" in artifacts
        assert "interface_trace_cycle1.csv" in artifacts
        assert "solution_cycle1.vtk" in artifacts

    def test_zero_conductivity_scatters_nothing(self):
        cfg = tiny_config(sigma_r=0.0j)
        mesh = hn.build_initial_mesh(cfg)
        space = distribute_dofs(mesh)
        cs = build_constraints(space)
        scattered, _, _ = hn.solve_pair(space, cs, cfg.model())
        assert not np.any(hn.scattered_trace(scattered, hn.trace_grid(cfg)).values)

    def test_one_cycle_builds_one_active_edge_table(self, monkeypatch):
        # the refine, the constraints and the sheet faces of a cycle share
        # the table of each mesh state; only the refined mesh needs a new one
        builds = []
        table = msh._active_edge_table
        monkeypatch.setattr(msh, "_active_edge_table",
                            lambda mesh: builds.append(1) or table(mesh))
        cycles = hn.adaptive_cycles(tiny_config(cycles=3))
        next(cycles)
        for _ in range(2):
            del builds[:]
            next(cycles)
            assert len(builds) == 1

    def test_deterministic_artifacts(self, tmp_path):
        cfg1 = tiny_config(cycles=2, out_dir=str(tmp_path / "r1"), write_artifacts=True)
        cfg2 = tiny_config(cycles=2, out_dir=str(tmp_path / "r2"), write_artifacts=True)
        hn.run_adaptive(cfg1)
        hn.run_adaptive(cfg2)
        # cycle 1 is followed by a refinement, so its VTK file carries eta
        for name in ("convergence.csv", "interface_trace_cycle2.csv",
                     "solution_cycle1.vtk"):
            b1 = (tmp_path / "r1" / name).read_bytes()
            b2 = (tmp_path / "r2" / name).read_bytes()
            assert b1 == b2

    def test_rate_column_recomputable(self, tmp_path):
        import csv
        cfg = tiny_config(cycles=3, out_dir=str(tmp_path), write_artifacts=True)
        records, artifacts = hn.run_adaptive(cfg)
        with open(artifacts["convergence.csv"]) as fh:
            rows = list(csv.DictReader(fh))
        for prev, cur in zip(rows, rows[1:]):
            expected = np.log2(float(prev["l2_error"]) / float(cur["l2_error"]))
            assert float(cur["rate"]) == pytest.approx(expected, rel=1e-5)

    def test_dipole_load_built_only_where_estimated(self, monkeypatch):
        built = []
        load = hn.assemble_dipole_rhs
        monkeypatch.setattr(hn, "assemble_dipole_rhs",
                            lambda space, model: built.append(space.n_dofs) or load(space, model))
        records, _ = hn.run_adaptive(tiny_config(cycles=3))
        # cycles 1 and 2 estimate; the last cycle solves no total field
        assert len(records) == 3
        assert len(built) == 2 and built[0] < built[1]

    def test_dof_cap_stops_run(self):
        cfg = tiny_config(cycles=8, dof_cap=3000)
        records, _ = hn.run_adaptive(cfg)
        assert len(records) < 8
        # the first cycle exceeding the cap is still solved and reported
        assert all(r.n_dofs <= 3000 for r in records[:-1])
        assert records[-1].n_dofs > 3000
        # only that terminal cycle is not estimated
        etas = [eta for _, _, _, eta in hn.adaptive_cycles(cfg)]
        assert [eta is None for eta in etas] == [False] * (len(records) - 1) + [True]

    def test_pml_study_on_each_cycle_mesh_reproduces_its_trace(self):
        # a study drives the loop: each yielded mesh, solved again at the
        # run's layer strength before the generator refines it, gives that
        # cycle's trace bit for bit
        cfg = tiny_config(cycles=3)
        cycles = []
        for cycle, space, trace, _ in hn.adaptive_cycles(cfg):
            study = hn.pml_study(cfg, [cfg.s0], mesh=space.mesh)[cfg.s0]
            assert np.array_equal(study.x, trace.x)
            assert np.array_equal(study.values, trace.values)
            cycles.append(cycle)
        assert cycles == [1, 2, 3]

    def test_sheet_quadrature_built_once_per_space(self, monkeypatch):
        # the sheet term and load of the matrix, the sampled trace and the
        # estimator's sheet residuals share the space's sheet quadrature;
        # every sppsim binding of face_quadrature is counted, so no module
        # builds a second one unseen
        original = fespace.face_quadrature
        sheets = []

        def counting(mesh, cids, ledges, *args, **kwargs):
            keys = mesh.edge_keys(cids)[np.arange(len(cids)), ledges]
            if mesh.on_interface()[keys].all():     # only sheet faces lie on y = 0
                sheets.append(mesh.n_active())
            return original(mesh, cids, ledges, *args, **kwargs)

        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("sppsim")
                    and getattr(mod, "face_quadrature", None) is original):
                monkeypatch.setattr(mod, "face_quadrature", counting)
        # cycle 1 estimates, cycle 2 only solves
        hn.run_adaptive(tiny_config(cycles=2))
        assert len(sheets) == len(set(sheets)) == 2

AWKWARD = [-0.0, 1e-300, 3.0, -7.0, 1e22, 5e-324, 0.1, -2.5e-17, 123456789.0,
           float("inf"), float("nan")]
AWKWARD_X = np.array([-2.0, -0.0, 1e-300, 1.0, 2.0, 3.0, 1e15, 1e16, 1e22, 2e22, 3e22])


def complex_of(re, im):     # without 1j * inf, which makes a nan real part
    out = np.empty(len(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def csv_writer_bytes(path, header, rows) -> bytes:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return path.read_bytes()


def g16(*values):
    return [f"{v:.16g}" for v in values]


def test_trace_csv_has_the_bytes_of_csv_writer(tmp_path):
    n = len(AWKWARD)
    xs = AWKWARD_X
    rng = np.random.default_rng(0)
    trace = hn.InterfaceTrace(xs, complex_of(AWKWARD, AWKWARD[::-1]))
    reference = hn.InterfaceTrace(xs, complex_of(rng.standard_normal(n), AWKWARD))
    path = tmp_path / "fast.csv"
    hn._write_trace_csv(str(path), trace, hn._trace_template(reference))
    want = csv_writer_bytes(
        tmp_path / "writer.csv", ["x", "re_ex_sc", "im_ex_sc", "re_oracle", "im_oracle"],
        [g16(x, v.real, v.imag, o.real, o.imag)
         for x, v, o in zip(trace.x, trace.values, reference.values)])
    assert path.read_bytes() == want


def test_cached_trace_csv_has_the_bytes_of_write_csv(tmp_path):
    # a writer formats its run's grid and reference columns once and reuses
    # them in every cycle; each run has its own reference
    n = len(AWKWARD)
    rng = np.random.default_rng(2)
    mesh = msh.build_disk_mesh(8.0, 0)
    ref_a = hn.InterfaceTrace(AWKWARD_X, complex_of(rng.standard_normal(n), AWKWARD))
    ref_b = hn.InterfaceTrace(AWKWARD_X, complex_of(AWKWARD[::-1], rng.standard_normal(n)))
    for run, reference in enumerate([ref_a, ref_b]):
        out = tmp_path / f"out{run}"
        writer = hn._ArtifactWriter(hn.RunConfig(out_dir=str(out)), reference)
        for cycle in (1, 2):
            trace = hn.InterfaceTrace(AWKWARD_X, complex_of(rng.standard_normal(n),
                                                            np.roll(AWKWARD, cycle)))
            writer.cycle_outputs(cycle, mesh, trace, None)
            want = tmp_path / f"plain{run}_{cycle}.csv"
            hn._write_csv(want, ["x", "re_ex_sc", "im_ex_sc", "re_oracle", "im_oracle"],
                          ",".join(["%.16g"] * 5),
                          [trace.x, trace.values.real, trace.values.imag,
                           reference.values.real, reference.values.imag])
            got = out / f"interface_trace_cycle{cycle}.csv"
            assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("layout", ["convergence", "pml_study", "oracle"])
def test_csv_layouts_have_the_bytes_of_csv_writer(tmp_path, monkeypatch, layout):
    # the other CSV artifacts go through the trace CSV's writer too
    n = len(AWKWARD)
    rng = np.random.default_rng(1)
    u = complex_of(AWKWARD, AWKWARD[::-1])
    v = complex_of(rng.standard_normal(n), AWKWARD)
    out = tmp_path / "fast"
    writer = hn._ArtifactWriter(hn.RunConfig(out_dir=str(out)))
    if layout == "convergence":
        records = [hn.ConvergenceRecord(cycle=k + 1, n_cells=4 * k, n_dofs=2**40 + k,
                                        l2_error=e, rate=r, l2_error_complex=c)
                   for k, (e, r, c) in enumerate(zip(AWKWARD, AWKWARD[::-1], v.real))]
        writer.convergence(records)
        path = out / "convergence.csv"
        header = ["cycle", "cells", "dofs", "l2_error", "rate", "l2_error_complex"]
        rows = [[r.cycle, r.n_cells, r.n_dofs, f"{r.l2_error:.10g}", f"{r.rate:.6g}",
                 f"{r.l2_error_complex:.10g}"] for r in records]
    elif layout == "pml_study":
        writer.pml_overlay({2.0: hn.InterfaceTrace(AWKWARD_X, u),
                            0.25: hn.InterfaceTrace(AWKWARD_X, v)})
        path = out / "pml_study.csv"
        header = ["x", "re_s0.25", "im_s0.25", "re_s2", "im_s2"]
        rows = [g16(x, b.real, b.imag, a.real, a.imag) for x, a, b in zip(AWKWARD_X, u, v)]
    else:
        monkeypatch.setattr(hn, "trace_grid", lambda config: AWKWARD_X)
        monkeypatch.setattr(oracle_mod, "interface_field",
                            lambda xs, a, sigma, quad: (u, v, u + v))
        path = tmp_path / "oracle.csv"
        assert main(["oracle", "--out", str(path)]) == 0
        header = ["x", "re_pole", "im_pole", "re_branchcut", "im_branchcut",
                  "re_total", "im_total"]
        rows = [g16(x, a.real, a.imag, b.real, b.imag, (a + b).real, (a + b).imag)
                for x, a, b in zip(AWKWARD_X, u, v)]
    assert path.read_bytes() == csv_writer_bytes(tmp_path / "writer.csv", header, rows)


class TestDefaultRun:
    # cycles 1-3 of the default configuration; the errors are those of the
    # scattered field solved against the sheet load of the incident field,
    # with the layer's pulled-back coefficients at s0 = 4 on the
    # straight-edged disk and no boundary term on the outer circle
    PINNED = ((1, 1080, 9034, 1.0925150447797783e-3, 3.6751976958883173e-3),
              (2, 2310, 19496, 1.0745019535650343e-3, 4.585189199731563e-3),
              (3, 3858, 32676, 1.7835514579205394e-3, 2.200630185017507e-3))

    # sum and max of the eta column in the VTK files of cycles 1 and 2
    ETA_PINNED = {1: (0.29638669069732126, 0.01179391399470801),
                  2: (0.22332575243344957, 0.003046256506237826)}

    def test_first_three_cycles_pinned(self, tmp_path):
        records, artifacts = hn.run_adaptive(
            hn.RunConfig(cycles=3, out_dir=str(tmp_path), write_artifacts=True))
        assert len(records) == len(self.PINNED)
        for r, (cycle, cells, dofs, err, err_cx) in zip(records, self.PINNED):
            assert (r.cycle, r.n_cells, r.n_dofs) == (cycle, cells, dofs)
            assert r.l2_error == pytest.approx(err, rel=1e-8, abs=0)
            assert r.l2_error_complex == pytest.approx(err_cx, rel=1e-8, abs=0)
        for cycle, (total, peak) in self.ETA_PINNED.items():
            eta = vtk_cell_scalars(artifacts[f"solution_cycle{cycle}.vtk"], "eta")
            assert eta.sum() == pytest.approx(total, rel=1e-8, abs=0)
            assert eta.max() == pytest.approx(peak, rel=1e-8, abs=0)


class TestPmlStudy:
    def test_fixed_mesh_multiple_strengths(self, tmp_path):
        cfg = tiny_config(out_dir=str(tmp_path), write_artifacts=True)
        mesh = hn.build_initial_mesh(cfg)
        traces = hn.pml_study(cfg, [0.0, 2.0], mesh=mesh)
        assert set(traces) == {0.0, 2.0}
        xs = hn.trace_grid(cfg)
        assert np.allclose(traces[0.0].x, xs)
        # the two runs genuinely differ (the layer does something)
        assert np.max(np.abs(traces[0.0].values - traces[2.0].values)) > 0
        assert (tmp_path / "pml_study.csv").exists()

    def test_empty_strength_list_rejected(self):
        with pytest.raises(ValueError):
            hn.pml_study(tiny_config(), [])

    def test_each_strength_solved_as_if_alone(self):
        # the fixed part is shared by all strengths; no state may leak between them
        cfg = tiny_config()
        mesh = hn.build_initial_mesh(cfg)
        together = hn.pml_study(cfg, [0.0, 2.0, 8.0], mesh=mesh)
        for s0 in (0.0, 2.0, 8.0):
            alone = hn.pml_study(cfg, [s0], mesh=mesh)
            assert np.array_equal(together[s0].values, alone[s0].values)

    def test_repeated_strength_solved_once(self, monkeypatch):
        solved = []
        solve_pair = hn.solve_pair

        def spy(space, constraints, model, fixed=None):
            solved.append(model.pml.s0)
            return solve_pair(space, constraints, model, fixed)

        monkeypatch.setattr(hn, "solve_pair", spy)
        cfg = tiny_config()
        traces = hn.pml_study(cfg, [2.0, 0.0, 2.0, 2], mesh=hn.build_initial_mesh(cfg))
        assert solved == [2.0, 0.0]
        assert list(traces) == [2.0, 0.0]

    def test_sheet_tables_built_once(self, monkeypatch):
        # only sigma_eff and E_inc depend on the strength; the sheet faces'
        # quadrature and basis traces are built once per space
        built = []
        face_traces = fespace.face_traces

        def counting(space, faces):
            built.append(faces is space.sheet_faces)
            return face_traces(space, faces)

        monkeypatch.setattr(fespace, "face_traces", counting)
        cfg = tiny_config()
        hn.pml_study(cfg, [0.0, 2.0, 8.0], mesh=hn.build_initial_mesh(cfg))
        assert built.count(True) == 1

    def test_no_dipole_load_built(self, monkeypatch):
        # a pml study solves only scattered fields, against the sheet load
        monkeypatch.setattr(hn, "assemble_dipole_rhs", self.fail_dipole_load)
        cfg = tiny_config()
        hn.pml_study(cfg, [0.0, 2.0], mesh=hn.build_initial_mesh(cfg))

    @staticmethod
    def fail_dipole_load(space, model):
        raise AssertionError("dipole load built")

    def test_unresolved_dipole_mesh_solves(self):
        # the scattered field never reads the bump; only the dipole load does
        cfg = tiny_config()
        mesh = msh.build_disk_mesh(cfg.R, cfg.initial_refines)
        traces = hn.pml_study(cfg, [0.0, 2.0], mesh=mesh)
        assert all(np.all(np.isfinite(tr.values)) for tr in traces.values())
        with pytest.raises(AssemblyError, match="unresolved"):
            assemble_dipole_rhs(distribute_dofs(mesh), cfg.model())


class TestObjectLifetimes:
    """Each fast factorization starts with no other factorization alive and,
    in an adaptive run, with only its own cycle's edge space.

    solver.factorize is wrapped where solver and harness bind it, and
    distribute_dofs where harness binds it; at every fast (safe=False) call
    the wrapper counts the factorizations and the edge spaces made before
    that are still referenced.  The safe fallback refactorizes while the fast
    factors are alive by design, so it is not checked.
    """

    @pytest.fixture
    def alive_at_factorize(self, monkeypatch):
        # weak references, not a WeakSet: a dataclass with eq is unhashable
        made = {"factors": [], "spaces": []}
        seen = {"factors": [], "spaces": []}
        real, real_distribute = solver.factorize, hn.distribute_dofs

        def factorize(matrix, safe=False):
            if not safe:
                for key, refs in made.items():
                    seen[key].append(sum(ref() is not None for ref in refs))
            fac = real(matrix, safe=safe)
            made["factors"].append(weakref.ref(fac))
            return fac

        def distribute_dofs(mesh):
            space = real_distribute(mesh)
            made["spaces"].append(weakref.ref(space))
            return space

        monkeypatch.setattr(solver, "factorize", factorize)
        monkeypatch.setattr(hn, "factorize", factorize)
        monkeypatch.setattr(hn, "distribute_dofs", distribute_dofs)
        return seen

    def test_adaptive_cycles_hold_one_factorization(self, alive_at_factorize):
        records, _ = hn.run_adaptive(tiny_config(cycles=3))
        assert len(records) == 3
        # one factorization per cycle, of the system with the sheet
        assert alive_at_factorize["factors"] == [0] * 3

    def test_adaptive_cycles_hold_one_space(self, alive_at_factorize):
        # run_adaptive drops the yielded space before it resumes the
        # generator, so the previous cycle's space is gone at each LU
        records, _ = hn.run_adaptive(tiny_config(cycles=3))
        assert len(records) == 3
        assert alive_at_factorize["spaces"] == [1] * 3

    def test_pml_study_holds_one_factorization(self, alive_at_factorize):
        cfg = tiny_config()
        hn.pml_study(cfg, [0.0, 2.0, 8.0], mesh=hn.build_initial_mesh(cfg))
        # one factorization per layer strength
        assert alive_at_factorize["factors"] == [0] * 3


class TestSpectralAmplitude:
    def test_recovers_pure_tone(self):
        xs = np.linspace(2.0, 18.0, 700)
        k0, amp = 13.3, 3.7e-4
        vals = amp * np.exp(1j * k0 * xs) + 1e-3 * np.exp(1j * 0.8 * xs)
        tr = hn.InterfaceTrace(xs, vals)
        a, k = hn.spectral_amplitude(tr, 11.0, 15.0, 2.0, 18.0)
        assert k == pytest.approx(k0, abs=0.05)
        assert a == pytest.approx(amp, rel=0.02)

    @pytest.mark.parametrize("n_inside", [0, 1, 2])
    def test_window_of_fewer_than_three_samples_rejected(self, n_inside):
        # the Hann window of 0 or 2 samples sums to zero; 1 sample holds no spectrum
        xs = np.concatenate([np.arange(n_inside) + 5.0, [20.0, 21.0]])
        tr = hn.InterfaceTrace(xs, np.exp(13j * xs))
        with pytest.raises(ValueError, match=f"holds {n_inside} trace samples"):
            hn.spectral_amplitude(tr, 11.0, 15.0, 2.0, 18.0)

    def test_three_samples_suffice(self):
        xs = np.array([4.0, 5.0, 6.0, 20.0])
        a, _ = hn.spectral_amplitude(hn.InterfaceTrace(xs, np.ones(4)), 11.0, 15.0, 2.0, 18.0)
        assert np.isfinite(a)


class TestConfigFile:
    def test_round_trip_and_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("""
# production-style configuration
sigma_r = 2.56e-4+0.16j
a = 1.0
cycles = 4
s0 = 2.0
samples = 256
""")
        cfg = hn.load_config(str(path))
        assert cfg.sigma_r == 2.56e-4 + 0.16j
        assert cfg.cycles == 4
        over = hn.load_config(str(path), cycles=7, out_dir="somewhere")
        assert over.cycles == 7
        assert over.out_dir == "somewhere"

    def test_bool_literals(self, tmp_path):
        path = tmp_path / "flags.cfg"
        for raw, value in (("1", True), ("0", False), ("TRUE", True),
                           ("false", False), ("Yes", True), ("no", False)):
            path.write_text(f"write_artifacts = {raw}\n")
            assert hn.load_config(str(path)).write_artifacts is value
        # a typo must not silently switch the outputs off
        path.write_text("write_artifacts = flase\n")
        with pytest.raises(ValueError, match="write_artifacts"):
            hn.load_config(str(path))

    @pytest.mark.parametrize("key,value", [("samples", 65),
                                           ("d_w", 0.0),
                                           ("d_w", -1.5625),
                                           ("d_w", float("nan")),
                                           # an infinite band weighs every cell 1
                                           ("d_w", float("inf")),
                                           ("d_reg", 0.0),
                                           ("d_reg", -0.1),
                                           ("d_reg", float("nan")),
                                           ("x_min", 0.0),
                                           ("x_min", -0.5),
                                           ("x_min", 0.8 * hn.RunConfig().R),
                                           # the bump must end within 0.8 R
                                           ("a", 0.8 * hn.RunConfig().R),
                                           ("d_reg", 0.8 * hn.RunConfig().R),
                                           ("dof_cap", 0),
                                           ("dipole_resolve_factor", 1.99),
                                           ("dipole_resolve_factor", float("nan")),
                                           # a target diameter of 0: only the
                                           # config is built, never a mesh
                                           ("dipole_resolve_factor", float("inf"))])
    def test_out_of_range_value_rejected_by_name(self, tmp_path, key, value):
        with pytest.raises(ValueError, match=key):
            hn.RunConfig(**{key: value})
        path = tmp_path / "bad.cfg"
        path.write_text(f"{key} = {value}\n")
        with pytest.raises(ValueError, match=key):
            hn.load_config(str(path))

    def test_range_ends_accepted(self):
        assert hn.trace_grid(hn.RunConfig(samples=64)).size == 64
        rho = 0.8 * hn.RunConfig().R
        cfg = hn.RunConfig(dof_cap=1, dipole_resolve_factor=2.0,
                           x_min=np.nextafter(rho, 0), d_w=1e-9)
        assert (cfg.dof_cap, cfg.dipole_resolve_factor) == (1, 2.0)
        # d_reg = 5/32 is a multiple of rho's ulp, so a + d_reg is rho exactly
        cfg = hn.RunConfig(a=rho - 0.15625, d_reg=0.15625)
        assert cfg.a + cfg.d_reg == rho

    @pytest.mark.parametrize("line", ["out_dir =", "out_dir", "cycles", "cycles = ",
                                      "sigma_r = # comment"])
    def test_key_without_value_rejected(self, tmp_path, line):
        # an empty out_dir would reach os.makedirs(''), an empty cycles int('')
        path = tmp_path / "empty.cfg"
        path.write_text(line + "\n")
        key = line.split("=")[0].strip()
        with pytest.raises(ValueError, match=f"config key '{key}' needs a value"):
            hn.load_config(str(path))

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        for line in ("definitely_not_a_key = 3", "seed_strips = ((1.0, 0.5),)"):
            path.write_text(line + "\n")
            with pytest.raises(KeyError):
                hn.load_config(str(path))
