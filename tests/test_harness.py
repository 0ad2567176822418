import csv
import dataclasses
import weakref

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import j0

from sppsim import fespace
from sppsim import harness as hn
from sppsim import mesh as msh
from sppsim import solver
from sppsim.assembly import (DIPOLE_NORM, AssemblyError, assemble_dipole_rhs,
                             assemble_fixed, assemble_pair, incident_ex)
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
        primary = solver.solve(sheet_free.with_load(load))
        total = solver.solve(assemble_pair(fixed, model).with_load(load))
        diff = hn.scattered_trace(FieldSolution(space, total.coeffs - primary.coeffs), xs)
        return cfg, xs, one, diff, hn.scattered_trace(primary, xs)

    def test_agrees_with_the_difference_of_two_solves(self, traces):
        # measured: 1.75e-2 relative (complex L2)
        cfg, xs, one, diff, _ = traces
        zero = hn.InterfaceTrace(xs, np.zeros(len(xs), dtype=complex))
        rel = hn.l2_error(one, diff, "complex") / hn.l2_error(diff, zero, "complex")
        assert rel <= 0.025

    def test_no_farther_from_the_reference(self, traces):
        # measured real 2.187e-2 against 2.284e-2, complex 3.150e-2 against 3.251e-2
        cfg, xs, one, diff, _ = traces
        ref = hn.oracle_trace(cfg, xs)
        for component in ("real", "complex"):
            assert hn.l2_error(one, ref, component) <= hn.l2_error(diff, ref, component)

    def test_sheet_free_trace_is_the_incident_field(self, traces):
        # the sheet-free solve is the regularized dipole's field, F times the
        # point dipole's outside the bump; measured: least-squares factor
        # 0.98196+0.00254j against F = 0.98554, misfit 2.9 % of F E_inc
        cfg, xs, _, _, sheet_free = traces
        inc = incident_ex(xs, cfg.a, cfg.model().pml)
        form = source_form_factor(cfg.d_reg)
        fit = np.vdot(inc, sheet_free.values) / np.vdot(inc, inc)
        assert abs(fit / form - 1) <= 0.005
        misfit = np.linalg.norm(sheet_free.values - form * inc) / np.linalg.norm(form * inc)
        assert misfit <= 0.04


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


def test_trace_csv_has_the_bytes_of_csv_writer(tmp_path):
    awkward = [-0.0, 1e-300, 3.0, -7.0, 1e22, 5e-324, 0.1, -2.5e-17, 123456789.0,
               float("inf"), float("nan")]
    n = len(awkward)
    xs = np.array([-2.0, -0.0, 1e-300, 1.0, 2.0, 3.0, 1e15, 1e16, 1e22, 2e22, 3e22])
    rng = np.random.default_rng(0)

    def complex_of(re, im):     # without 1j * inf, which makes a nan real part
        out = np.empty(n, dtype=complex)
        out.real, out.imag = re, im
        return out

    trace = hn.InterfaceTrace(xs, complex_of(awkward, awkward[::-1]))
    reference = hn.InterfaceTrace(xs, complex_of(rng.standard_normal(n), awkward))
    path = tmp_path / "fast.csv"
    hn._write_trace_csv(str(path), trace, reference)
    want = tmp_path / "writer.csv"
    with open(want, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "re_ex_sc", "im_ex_sc", "re_oracle", "im_oracle"])
        for x, v, o in zip(trace.x, trace.values, reference.values):
            w.writerow([f"{x:.16g}", f"{v.real:.16g}", f"{v.imag:.16g}",
                        f"{o.real:.16g}", f"{o.imag:.16g}"])
    assert path.read_bytes() == want.read_bytes()


class TestDefaultRun:
    # cycles 1-3 of the default configuration; the errors are those of the
    # scattered field solved against the sheet load of the incident field
    PINNED = ((1, 1080, 9034, 1.0892948046358037e-3, 3.6764192308534577e-3),
              (2, 2322, 19580, 1.072246416695761e-3, 4.585699764543794e-3),
              (3, 3882, 32832, 1.7769157003384248e-3, 2.1928554504067562e-3))

    # sum and max of the eta column in the VTK files of cycles 1 and 2
    ETA_PINNED = {1: (0.2940971931424526, 0.0117027503536654),
                  2: (0.20119595212974242, 0.003028371179260626)}

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

    def test_unresolved_dipole_rejected(self):
        cfg = tiny_config()
        mesh = msh.build_disk_mesh(cfg.R, cfg.initial_refines)
        with pytest.raises(AssemblyError, match="unresolved"):
            hn.pml_study(cfg, [0.0, 2.0], mesh=mesh)


class TestObjectLifetimes:
    """Each fast factorization starts with no other factorization alive.

    solver.factorize is wrapped where solver and harness bind it; the wrapper
    counts, at every fast (safe=False) call, the factorizations it made before
    that are still referenced.  The safe fallback refactorizes while the fast
    factors are alive by design, so it is not checked.
    """

    @pytest.fixture
    def alive_at_factorize(self, monkeypatch):
        # weak references, not a WeakSet: a dataclass with eq is unhashable
        made = []
        seen = []
        real = solver.factorize

        def factorize(matrix, safe=False):
            if not safe:
                seen.append(sum(ref() is not None for ref in made))
            fac = real(matrix, safe=safe)
            made.append(weakref.ref(fac))
            return fac

        monkeypatch.setattr(solver, "factorize", factorize)
        monkeypatch.setattr(hn, "factorize", factorize)
        return seen

    def test_adaptive_cycles_hold_one_factorization(self, alive_at_factorize):
        records, _ = hn.run_adaptive(tiny_config(cycles=3))
        assert len(records) == 3
        # one factorization per cycle, of the system with the sheet
        assert alive_at_factorize == [0] * 3

    def test_pml_study_holds_one_factorization(self, alive_at_factorize):
        cfg = tiny_config()
        hn.pml_study(cfg, [0.0, 2.0, 8.0], mesh=hn.build_initial_mesh(cfg))
        # one factorization per layer strength
        assert alive_at_factorize == [0] * 3


class TestSpectralAmplitude:
    def test_recovers_pure_tone(self):
        xs = np.linspace(2.0, 18.0, 700)
        k0, amp = 13.3, 3.7e-4
        vals = amp * np.exp(1j * k0 * xs) + 1e-3 * np.exp(1j * 0.8 * xs)
        tr = hn.InterfaceTrace(xs, vals)
        a, k = hn.spectral_amplitude(tr, 11.0, 15.0, 2.0, 18.0)
        assert k == pytest.approx(k0, abs=0.05)
        assert a == pytest.approx(amp, rel=0.02)


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

    @pytest.mark.parametrize("key,value", [("marking_fraction", -0.1),
                                           ("marking_fraction", 1.5),
                                           ("marking_fraction", float("nan")),
                                           ("samples", 65),
                                           ("d_w", 0.0),
                                           ("d_w", -1.5625),
                                           ("d_w", float("nan")),
                                           ("x_min", 0.0),
                                           ("x_min", -0.5),
                                           ("x_min", 0.8 * hn.RunConfig().R),
                                           ("level_cap", 0),
                                           ("dof_cap", 0),
                                           ("dipole_resolve_factor", 1.99),
                                           ("dipole_resolve_factor", float("nan"))])
    def test_out_of_range_value_rejected_by_name(self, tmp_path, key, value):
        with pytest.raises(ValueError, match=key):
            hn.RunConfig(**{key: value})
        path = tmp_path / "bad.cfg"
        path.write_text(f"{key} = {value}\n")
        with pytest.raises(ValueError, match=key):
            hn.load_config(str(path))

    def test_range_ends_accepted(self):
        for fraction in (0.0, 1.0):
            assert hn.RunConfig(marking_fraction=fraction).marking_fraction == fraction
        assert hn.trace_grid(hn.RunConfig(samples=64)).size == 64
        cfg = hn.RunConfig(level_cap=1, dof_cap=1, dipole_resolve_factor=2.0,
                           x_min=np.nextafter(0.8 * hn.RunConfig().R, 0), d_w=1e-9)
        assert (cfg.level_cap, cfg.dof_cap, cfg.dipole_resolve_factor) == (1, 1, 2.0)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        for line in ("definitely_not_a_key = 3", "seed_strips = ((1.0, 0.5),)"):
            path.write_text(line + "\n")
            with pytest.raises(KeyError):
                hn.load_config(str(path))
