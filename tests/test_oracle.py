import cmath
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import IntegrationWarning, quad as scalar_quad

from sppsim import oracle
from sppsim.oracle import (QuadratureSpec, branch_sqrt, branchcut_contribution,
                           dispersion_residual, finite_integrand,
                           fourier_coefficients, interface_field,
                           pole_contribution, spp_wavenumber, tail_integrand)
from sppsim.harness import InterfaceTrace, RunConfig, l2_error, trace_grid

# conductivities of the parameter study with the published surface-wave numbers
STUDY_ROWS = [
    (2.56e-4 + 0.160j, 12.5 + 0.02j),
    (1.78e-4 + 0.133j, 15.0 + 0.02j),
    (1.28e-3 + 0.160j, 12.5 + 0.10j),
    (8.89e-4 + 0.133j, 15.0 + 0.10j),
]

# conductivities of the benchmark's oracle table
TABLE_SIGMAS = [2.56e-4 + 0.16j, 2e-3 + 0.2j, 0.15j, 1e-3 + 0.08j]


class TestBranchSqrt:
    def test_inside_light_cone(self):
        assert branch_sqrt(0.0, 1.0) == pytest.approx(1.0)

    def test_evanescent_is_positive_imaginary(self):
        assert branch_sqrt(2.0, 1.0) == pytest.approx(1j * cmath.sqrt(3).real)

    def test_pythagorean_triple(self):
        assert branch_sqrt(0.6, 1.0) == pytest.approx(0.8)

    @given(st.floats(-50, 50), st.sampled_from([1.0, 2.0, 1.0 + 0.1j, 0.5 + 1.0j]))
    def test_branch_invariants(self, xi, k):
        b = branch_sqrt(xi, k)
        assert b.imag >= 0
        assert abs(b * b - (k * k - xi * xi)) <= 1e-13 * max(1.0, abs(k * k - xi * xi))

    def test_sweep_real_and_complex_k(self):
        xs = np.linspace(-30, 30, 1000)
        for k in (1.0, 1.0 + 0.05j):
            b = branch_sqrt(xs, k)
            assert np.all(b.imag >= 0)


class TestDispersion:
    @pytest.mark.parametrize("sigma,km_published", STUDY_ROWS)
    def test_asymptotic_matches_study_table(self, sigma, km_published):
        km = 2j / sigma                 # the study's asymptotic root
        assert abs(km.real - km_published.real) < 0.05
        assert abs(km.imag - km_published.imag) < 0.05

    def test_lossless_sheet_gives_real_wavenumber(self):
        km = spp_wavenumber(0.15j)
        assert km.imag == pytest.approx(0.0, abs=1e-14)
        assert km.real == pytest.approx(13.3708, abs=5e-4)

    def test_exact_root_for_strong_absorption(self):
        km = spp_wavenumber(2.0e-3 + 0.2j)
        # closed-form evaluation, consistent with the rounded 10.0 + 0.1i
        assert abs(km - (10.0 + 0.1j)) < 0.06
        assert km.real == pytest.approx(10.0488, abs=2e-3)
        assert km.imag == pytest.approx(0.09949, abs=2e-4)

    @pytest.mark.parametrize("sigma,_", STUDY_ROWS)
    def test_exact_root_zeroes_dispersion_relation(self, sigma, _):
        km = spp_wavenumber(sigma)
        assert dispersion_residual(km, sigma) < 1e-10

    @pytest.mark.parametrize("sigma,_", STUDY_ROWS)
    def test_asymptotic_within_two_percent_of_exact(self, sigma, _):
        exact = spp_wavenumber(sigma)
        asym = 2j / sigma
        assert abs(exact - asym) / abs(exact) < 0.02

    def test_zero_conductivity_rejected(self):
        with pytest.raises(ValueError):
            spp_wavenumber(0.0)

    def test_root_selection(self):
        km = spp_wavenumber(1.28e-3 + 0.160j)
        assert km.real > 0 and km.imag >= 0


class TestFourierCoefficients:
    def test_no_sheet_no_reflection(self):
        c = fourier_coefficients(0.7, k1=1.0, k2=1.0, mu=1.0, sigma=0.0, a=1.0)
        assert c.c_reflected == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_tangential_continuity_and_jump(self, seed):
        rng = np.random.default_rng(seed)
        k1 = 1.0 + 0.3 * rng.random()
        k2 = 1.0 + 0.3 * rng.random()
        mu = 1.0
        sigma = rng.random() * 0.01 + 0.2j * rng.random() + 0.05j
        a = 0.5 + rng.random()
        for xi in rng.uniform(-8.0, 8.0, size=200):
            c = fourier_coefficients(xi, k1, k2, mu, sigma, a)
            e1, e2 = c.Ex(0.0), c.Ex(-1e-300)
            scale = max(abs(e1), abs(e2), 1e-30)
            assert abs(e1 - e2) <= 1e-13 * scale
            jump = c.Bz(0.0) - c.Bz(-1e-300)
            target = mu * sigma * e1
            jscale = max(abs(c.Bz(0.0)), abs(c.Bz(-1e-300)), abs(target))
            assert abs(jump - target) <= 1e-13 * jscale

    def test_fields_decay_away_from_sheet(self):
        c = fourier_coefficients(3.0, 1.0, 1.0, 1.0, 0.05 + 0.2j, 1.0)
        assert abs(c.Bz(-5.0)) < abs(c.Bz(-1.0)) < abs(c.Bz(-1e-9))
        assert abs(c.Bz(40.0)) < abs(c.Bz(8.0))

    def test_reflected_field_odd_in_wavenumber(self):
        # parity of the scattered integrand justifies the antisymmetric trace
        for xi in (0.3, 1.7, 5.0):
            cp = fourier_coefficients(xi, 1.0, 1.0, 1.0, 0.05 + 0.2j, 1.0)
            cm = fourier_coefficients(-xi, 1.0, 1.0, 1.0, 0.05 + 0.2j, 1.0)
            refl_p = 1j * cp.beta1 * cp.c_reflected * 1j
            refl_m = 1j * cm.beta1 * cm.c_reflected * 1j
            assert refl_m == pytest.approx(-refl_p, rel=1e-12)

    def test_pole_detected_on_real_axis(self):
        sigma = 0.2j
        km = spp_wavenumber(sigma)
        assert abs(km.imag) < 1e-12
        with pytest.raises(oracle.PoleOnAxisError):
            fourier_coefficients(km.real, 1.0, 1.0, 1.0, sigma, 1.0)


class TestPoleContribution:
    def test_value_at_origin(self):
        # exponent vanishes; -2i/sigma^2 with sigma = 0.2i is 50i
        assert pole_contribution(0.0, 0.0, 0.2j) == pytest.approx(50j)

    def test_elevated_dipole_attenuation(self):
        val = pole_contribution(0.0, 1.0, 0.2j)
        assert val == pytest.approx(50j * np.exp(-10.0), rel=1e-12)
        assert abs(val) == pytest.approx(2.270e-3, rel=1e-3)

    def test_modulus_decay_follows_dispersion_root(self):
        sigma = 1.28e-3 + 0.160j
        km = spp_wavenumber(sigma)
        x1, x2 = 4.0, 11.0
        ratio = abs(pole_contribution(x2, 1.0, sigma)) / abs(pole_contribution(x1, 1.0, sigma))
        assert ratio == pytest.approx(np.exp(-km.imag * (x2 - x1)), rel=1e-12)

    def test_negative_position_rejected(self):
        with pytest.raises(ValueError):
            pole_contribution(-1.0, 1.0, 0.2j)


def _gauss_value(x, a, sigma, s_hi, **quad_kw):
    kw = dict(limit=800, **quad_kw)

    def cquad(f, lo, hi):
        re, _ = scalar_quad(lambda t: f(t).real, lo, hi, **kw)
        im, _ = scalar_quad(lambda t: f(t).imag, lo, hi, **kw)
        return re + 1j * im

    i1 = cquad(lambda t: complex(finite_integrand(t, x, a, sigma)), 0.0, 1.0)
    i2 = cquad(lambda t: complex(tail_integrand(t, x, a, sigma)), 0.0, s_hi)
    return (i1 - i2) / (4 * np.pi * sigma)


def _complex_trig(rad, a, sigma):
    arg = a * rad + 0j
    return 4.0 * np.cos(arg) - 2j * sigma * rad * np.sin(arg)


def _grid_wrap(xs, a, sigma, levels):
    """oracle._wrap with each level on its own grid, every factor on the full
    (position, node) grid and complex trig throughout: the plain statement of
    the formula."""
    out = []
    for level in levels:
        n_theta, n_t = oracle._node_counts(level)
        xi, w_xi = oracle._light_cone_rule(n_theta)
        u, w_u = oracle._tail_rule(n_t)
        x = xs[:, None]
        xi = np.broadcast_to(xi, (xs.size, xi.size))
        rad = np.sqrt(1.0 - xi**2 + 0j)
        den = xi**2 + 4.0 / sigma**2 - 1.0
        f = xi * rad * np.exp(1j * x * xi) / den * _complex_trig(rad, a, sigma)
        s = u / x
        rad = np.sqrt(1.0 + s**2)
        den = s**2 - 4.0 / sigma**2 + 1.0
        g = s * rad * np.exp(-x * s + 0j) / den * _complex_trig(rad, a, sigma)
        out.append((f * w_xi).sum(axis=1) - (g * w_u).sum(axis=1) / xs)
    return np.array(out) / (4.0 * np.pi * sigma)


class TestBranchcutContribution:
    def test_integrands_vanish_at_lower_endpoints(self):
        assert finite_integrand(0.0, 5.0, 1.0, 0.2j) == 0
        assert tail_integrand(0.0, 5.0, 1.0, 0.2j) == 0

    @pytest.mark.parametrize("sigma,_", STUDY_ROWS)
    def test_finite_denominator_bounded_away_from_zero(self, sigma, _):
        km = spp_wavenumber(sigma)
        xi = np.linspace(0.0, 1.0, 2001)
        den = np.abs(xi**2 + 4.0 / sigma**2 - 1.0)
        assert den.min() > 0.5 * (abs(km) ** 2 - 1.0)

    def test_halving_terminates_at_default_tolerance(self):
        val = branchcut_contribution(15.0, 1.0, 4.0e-4 + 0.2j)
        assert np.isfinite(val.real) and np.isfinite(val.imag)

    def test_stopping_rule_holds_at_termination(self):
        x, a, sigma = 9.0, 1.0, 2.56e-4 + 0.160j
        spec = QuadratureSpec()
        xs = np.array([x])
        prev = oracle._wrap(xs, a, sigma, (0,))[0, 0]
        for level in range(1, 64):
            n_theta, n_t = oracle._node_counts(level)
            if max(n_theta, n_t + 1) > oracle.MAX_NODES:
                pytest.fail("doubling loop reached the node cap")
            cur = oracle._wrap(xs, a, sigma, (level,))[0, 0]
            if abs(cur - prev) < spec.rel_tol * abs(cur):
                break
            prev = cur
        assert abs(cur - prev) < spec.rel_tol * abs(cur)
        assert branchcut_contribution(x, a, sigma) == pytest.approx(cur, rel=1e-12)

    def test_matches_adaptive_gauss_reference(self):
        x, a, sigma = 15.0, 1.0, 4.0e-4 + 0.2j
        tight = branchcut_contribution(x, a, sigma, quad=QuadratureSpec(rel_tol=1e-5))
        ref = _gauss_value(x, a, sigma, s_hi=8.0)
        assert abs(tight - ref) / abs(ref) < 1e-4

    @pytest.mark.parametrize("sigma", TABLE_SIGMAS)
    def test_matches_tight_scipy_quad(self, sigma):
        # also shows that the pole-on-path check passes these conductivities
        xs = np.array([0.5, 2.0, 20.0, 80.0])
        pole, bc, total = interface_field(xs, 1.0, sigma)
        assert np.all(np.isfinite(total))
        for x, b, t in zip(xs, bc, total):
            # exp(-x*s) is below 1e-19 beyond s = 45/x
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IntegrationWarning)
                ref = _gauss_value(x, 1.0, sigma, 45.0 / x, epsabs=0.0, epsrel=1e-11)
            assert abs(b - ref) < 1e-9 * abs(t)

    @pytest.mark.parametrize("sigma", TABLE_SIGMAS)
    def test_matches_full_grid_complex_trig_formula(self, sigma, monkeypatch):
        # node-only light-cone factors once per node and real tail trig change
        # no value
        xs = np.geomspace(0.5, 80.0, 40)
        quad = QuadratureSpec(rel_tol=1e-3)
        fast = branchcut_contribution(xs, 1.0, sigma, quad=quad)
        monkeypatch.setattr(oracle, "_wrap", _grid_wrap)
        ref = branchcut_contribution(xs, 1.0, sigma, quad=quad)
        np.testing.assert_allclose(fast, ref, rtol=1e-14, atol=0)

    def test_doubling_start_count_leaves_trace_unchanged(self, monkeypatch):
        config = RunConfig()
        xs = trace_grid(config)
        spec = QuadratureSpec()
        traces = [InterfaceTrace(xs, interface_field(xs, config.a, config.sigma_r,
                                                     quad=spec)[2])]
        # a start step half as long
        monkeypatch.setattr(oracle, "H0", oracle.H0 / 2)
        traces.append(InterfaceTrace(xs, interface_field(xs, config.a, config.sigma_r,
                                                         quad=spec)[2]))
        assert np.all(np.isfinite(traces[0].values))
        assert l2_error(*traces, "real") < 1e-9

    @pytest.mark.parametrize("sigma", [0.3, 0.5, 1.0])
    def test_real_conductivity_raises_before_any_node(self, sigma, monkeypatch):
        def no_nodes(*args):
            pytest.fail("quadrature nodes built for a pole on the path")
        monkeypatch.setattr(oracle, "_wrap", no_nodes)
        with pytest.raises(oracle.PoleOnAxisError):
            branchcut_contribution(5.0, 1.0, sigma)

    def _spy_integrands(self, monkeypatch):
        """The broadcast (position, node) shape of every integrand call, by name."""
        shapes = {"finite_integrand": [], "tail_integrand": []}
        for name, seen in shapes.items():
            def spy(nodes, x, *args, _f=getattr(oracle, name), _seen=seen):
                _seen.append(np.broadcast_shapes(np.shape(nodes), np.shape(x)))
                return _f(nodes, x, *args)
            monkeypatch.setattr(oracle, name, spy)
        return shapes

    def test_node_arrays_are_full_and_capped(self, monkeypatch):
        # the first pass gives every position its own row of the evaluated
        # grid (nodes broadcast against positions): one light-cone row of the
        # 51 + 102 Gauss nodes of levels 0 and 1, one tail row of level 1's
        # 321 exp-sinh nodes; no grid of any pass exceeds the cap
        shapes = self._spy_integrands(monkeypatch)
        xs = np.linspace(0.5, 20.0, 3000)
        branchcut_contribution(xs, 1.0, 2.56e-4 + 0.160j)
        n_theta = [oracle._node_counts(level)[0] for level in (0, 1)]
        assert n_theta == [51, 102]
        first = {"finite_integrand": sum(n_theta), "tail_integrand": 321}
        for name, seen in shapes.items():
            assert all(len(sh) == 2 for sh in seen)
            assert seen[0][1] == first[name]
            assert sum(sh[0] for sh in seen if sh[1] == first[name]) == xs.size
            assert max(sh[0] * sh[1] for sh in seen) <= oracle.MAX_NODES

    def test_run_stopping_at_level_one_builds_one_tail_grid(self, monkeypatch):
        # levels 0 and 1 read one tail grid: 321 tail nodes per position in
        # all, where a pass per level would take 161 + 321
        shapes = self._spy_integrands(monkeypatch)
        xs = trace_grid(RunConfig(samples=512))
        xs = np.unique(np.abs(xs))
        for sigma in TABLE_SIGMAS:
            shapes["tail_integrand"].clear()
            branchcut_contribution(xs, 1.0, sigma, quad=QuadratureSpec(rel_tol=1e-3))
            tail = shapes["tail_integrand"]
            assert sum(sh[0] * sh[1] for sh in tail) == 321 * xs.size

    @pytest.mark.parametrize("sigma", TABLE_SIGMAS)
    def test_two_level_pass_equals_one_level_passes(self, sigma):
        # 80 positions split into chunks of 25 rows for levels (0, 1) and (1,),
        # and of 50 rows for level 0 alone
        xs = np.geomspace(0.3, 80.0, 80)
        both = oracle._wrap(xs, 1.0, sigma, (0, 1))
        for row, level in zip(both, (0, 1)):
            alone = oracle._wrap(xs, 1.0, sigma, (level,))[0]
            assert np.array_equal(row.view(float), alone.view(float))

    def test_nonconvergence_reports_last_iterates(self):
        # 1e-14 is reachable by the exponentially convergent rules; 1e-20 is
        # below rounding, so the doubling runs to the node cap
        with pytest.raises(oracle.QuadratureError, match="grid points") as err:
            branchcut_contribution(9.0, 1.0, 2.56e-4 + 0.160j,
                                   quad=QuadratureSpec(rel_tol=1e-20))
        assert err.value.last_two is not None
        assert None not in err.value.last_two

    def test_unreachable_tolerance_stops_at_grid_cap(self):
        # the node count doubles until the next level would exceed MAX_NODES
        # per position; the last level built has 5121 tail nodes
        with pytest.raises(oracle.QuadratureError, match="grid points") as err:
            branchcut_contribution(2.0, 1.0, 2.56e-4 + 0.160j,
                                   quad=QuadratureSpec(rel_tol=1e-20))
        assert None not in err.value.last_two

    def test_nonfinite_iterate_raises_instead_of_returning_nan(self, monkeypatch):
        # a tail integrand that overflows at every node
        def overflowing(s, x, *args):
            return np.full(np.broadcast_shapes(np.shape(s), np.shape(x)), np.inf + 0j)
        monkeypatch.setattr(oracle, "tail_integrand", overflowing)
        with np.errstate(all="ignore"):
            with pytest.raises(oracle.QuadratureError, match="non-finite") as err:
                branchcut_contribution(np.array([2.0, 3.0]), 1.0, 0.01 + 0.2j)
        assert not np.isfinite(err.value.last_two[1])

    def test_position_below_the_grids_ends_in_error_not_nan(self):
        # the tail oscillates like cos(a*s) while exp(-x*s) decays over s ~ 1/x,
        # so x = 0.005 needs more than MAX_NODES nodes
        with pytest.raises(oracle.QuadratureError, match="grid points") as err:
            branchcut_contribution(0.005, 1.0, 2.56e-4 + 0.160j)
        assert np.all(np.isfinite(err.value.last_two))


class TestInterfaceField:
    def test_antisymmetric_in_position(self):
        xs = np.array([-12.0, -6.0, 6.0, 12.0])
        _, _, tot = interface_field(xs, 1.0, 2.0e-3 + 0.2j)
        assert tot[0] == -tot[3]
        assert tot[1] == -tot[2]

    def test_each_distinct_position_evaluated_once(self, monkeypatch):
        seen = []
        for name in ("pole_contribution", "branchcut_contribution"):
            def spy(x, *args, _f=getattr(oracle, name), **kwargs):
                seen.append(np.asarray(x))
                return _f(x, *args, **kwargs)
            monkeypatch.setattr(oracle, name, spy)
        xs = np.array([-12.0, -6.0, 6.0, 12.0, 6.0])
        interface_field(xs, 1.0, 2.0e-3 + 0.2j)
        assert [list(x) for x in seen] == [[6.0, 12.0]] * 2

    def test_far_field_is_branch_cut_dominated(self):
        sigma = 2.0e-3 + 0.2j
        pole, bc, tot = interface_field(np.array([80.0]), 1.0, sigma)
        assert abs(pole[0]) < 0.05 * abs(bc[0])
        assert abs(abs(tot[0]) - abs(bc[0])) < 0.06 * abs(bc[0])

    def test_pole_dominates_intermediate_range_then_loses(self):
        sigma = 2.0e-3 + 0.2j  # surface wave number about 10.0 + 0.1i
        xs = np.array([10.0, 15.0, 20.0, 25.0, 35.0, 50.0])
        pole, bc, _ = interface_field(xs, 1.0, sigma)
        assert np.all(np.abs(pole[:4]) > np.abs(bc[:4]))
        assert np.all(np.abs(pole[4:]) < np.abs(bc[4:]))

    def test_zero_position_rejected(self):
        with pytest.raises(ValueError):
            interface_field(np.array([0.0, 1.0]), 1.0, 0.2j)
