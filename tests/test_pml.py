import numpy as np
import pytest
from hypothesis import given, strategies as st

from sppsim.pml import (PmlSpec, material_arrays, profile, profile_integral,
                        sheet_arrays, stretch_arrays)

R = 8 * np.pi


def spec(s0=2.0):
    return PmlSpec(R=R, s0=s0)


def one(point):
    """A single point as a one-row (1, 2) array."""
    return np.array([point], dtype=float)


class TestStretch:
    def test_identity_inside(self):
        d, dbar = stretch_arrays(one((0.5 * R, 0.0)), spec())
        assert d[0] == 1.0 and dbar[0] == 1.0

    def test_rim_value(self):
        d, _ = stretch_arrays(one((R, 0.0)), spec(s0=2.0))
        assert d[0] == pytest.approx(1 + 2j)

    def test_rim_average_from_cubic_antiderivative(self):
        s0 = 2.0
        _, dbar = stretch_arrays(one((0.0, R)), spec(s0=s0))
        # (1/R) * integral_{0.8R}^{R} s = s0 * 0.2 / 3
        assert dbar[0] == pytest.approx(1 + 1j * s0 * 0.2 / 3.0)

    def test_profile_is_smooth_at_inner_rim(self):
        sp = spec()
        eps = 1e-8 * R
        assert profile(sp.rho + eps, sp) < 1e-14
        assert profile_integral(sp.rho + eps, sp) < 1e-20
        d, dbar = stretch_arrays(one((sp.rho + eps, 0.0)), sp)
        assert abs(d[0] - 1.0) < 1e-12 and abs(dbar[0] - 1.0) < 1e-12

    def test_exactly_one_up_to_rho_origin_included(self):
        # the identity region is one branch, with no guard against r = 0
        sp = spec()
        pts = np.array([[0.0, 0.0], [sp.rho, 0.0], [0.0, -0.5 * R], [0.6 * R, 0.6 * R]])
        d, dbar = stretch_arrays(pts, sp)
        assert d[:3].tolist() == dbar[:3].tolist() == [1.0] * 3
        assert d[3].imag > 0 and dbar[3].imag > 0
        inv_mu, eps = material_arrays(pts, sp)
        assert inv_mu[:3].tolist() == [1.0] * 3
        assert np.array_equal(eps[:3], np.broadcast_to(np.eye(2), (3, 2, 2)))
        assert sheet_arrays(pts[:3], 0.15j, sp).tolist() == [0.15j] * 3

    @given(st.floats(0.81, 0.999), st.floats(0.1, 8.0))
    def test_positive_imaginary_inside_layer(self, frac, s0):
        d, dbar = stretch_arrays(one((frac * R, 0.0)), PmlSpec(R=R, s0=s0))
        assert d[0].imag > 0
        assert dbar[0].imag > 0


class TestTransform:
    def test_identity_outside_layer(self):
        pt = one((0.3 * R, 0.1 * R))
        inv_mu, eps = material_arrays(pt, spec())
        assert 1.0 / inv_mu[0] == 1.0
        assert np.allclose(eps[0], np.eye(2))
        assert sheet_arrays(pt, 0.15j, spec())[0] == 0.15j

    def test_zero_strength_is_identity_everywhere(self):
        pt = one((0.99 * R, 0.0))
        inv_mu, eps = material_arrays(pt, spec(s0=0.0))
        assert 1.0 / inv_mu[0] == pytest.approx(1.0)
        assert np.allclose(eps[0], np.eye(2))
        assert sheet_arrays(pt, 0.15j, spec(s0=0.0))[0] == pytest.approx(0.15j)

    def test_sheet_coefficient_absorbs(self):
        sp = spec(s0=2.0)
        sig = sheet_arrays(one((R, 0.0)), 0.15j, sp)[0]
        d, _ = stretch_arrays(one((R, 0.0)), sp)
        assert sig == pytest.approx(0.15j / d[0])
        assert abs(sig / 0.15j) < 1.0

    def test_radial_frame_on_axis(self):
        sp = spec()
        r = 0.95 * R
        d, dbar = stretch_arrays(one((r, 0.0)), sp)
        inv_mu, eps = material_arrays(one((r, 0.0)), sp)
        assert inv_mu[0] == pytest.approx(1.0 / (d[0] * dbar[0]))
        assert eps[0, 0, 0] == pytest.approx(dbar[0] / d[0])
        assert eps[0, 1, 1] == pytest.approx(d[0] / dbar[0])
        assert eps[0, 0, 1] == pytest.approx(0.0, abs=1e-15)

    @given(st.floats(-0.99, 0.99), st.floats(-0.99, 0.99))
    def test_eps_complex_symmetric(self, fx, fy):
        pts = np.array([[fx * R, fy * R]])
        _, eps = material_arrays(pts, spec())
        assert abs(eps[0, 0, 1] - eps[0, 1, 0]) < 1e-14


def test_invalid_specs_rejected():
    for s0 in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="strength"):
            PmlSpec(R=1.0, s0=s0)
    for R_bad in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="disk radius"):
            PmlSpec(R=R_bad, s0=2.0)
