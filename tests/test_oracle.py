"""Tests for the quadrature oracle routes themselves."""

import math

import numpy as np
import pytest

from qplasma.dielectric import PlasmaParams, QueryPoint, epsilon_quantum
from qplasma.special_functions import dawson, lambda0, plasma_t, t_diff_over_q

from conftest import assert_cclose
from oracle import (
    DEFAULT_SPEC,
    QuadratureSpec,
    quad_J0,
    quad_dawson_integral,
    quad_epsilon_quantum,
    quad_lambda0,
    quad_t,
)


class TestQuadratureSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.abs_tol == 1e-13
        assert spec.rel_tol == 1e-11
        assert spec.truncation_radius == 12.0
        assert spec.max_subdivisions == 10000

    @pytest.mark.parametrize("kwargs", [
        {"abs_tol": 0.0},
        {"rel_tol": -1e-11},
        {"truncation_radius": 7.9},
        {"max_subdivisions": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)


class TestQuadT:
    def test_agrees_with_fast_path(self):
        assert_cclose(quad_t(5j), plasma_t(5j), rtol=1e-10)

    def test_near_pole_stress_converges(self):
        val, err = quad_t(0.1 + 0.001j, with_error=True)
        assert math.isfinite(val.real) and math.isfinite(val.imag)
        assert err < 1e-8

    def test_leading_order_bound(self):
        z = 1 + 1j
        assert abs(quad_t(z) + 1 / z) <= 1 / abs(z) ** 2

    def test_lower_half_rejected(self):
        with pytest.raises(ValueError):
            quad_t(1 - 1j)
        with pytest.raises(ValueError):
            quad_t(2.0 + 0j)

    def test_self_consistency_under_tighter_tolerances(self):
        z = 0.7 + 0.3j
        v1, e1 = quad_t(z, with_error=True)
        tight = QuadratureSpec(abs_tol=5e-14, rel_tol=5e-12)
        v2 = quad_t(z, spec=tight)
        assert abs(v1 - v2) <= max(e1, 1e-13)


class TestQuadLambda0:
    def test_agrees_with_fast_path(self):
        for z in (2 + 1j, 4j, -3 + 0.5j):
            assert_cclose(quad_lambda0(z), lambda0(z), rtol=1e-10)

    def test_lower_half_rejected(self):
        with pytest.raises(ValueError):
            quad_lambda0(-1j)


class TestQuadJ0:
    def test_cross_oracle_agreement(self):
        assert_cclose(quad_J0(2j, 0.5), t_diff_over_q(2j, 0.5), rtol=1e-9)

    def test_small_q_proxy_reaches_lambda0_limit(self):
        z = 1 + 1j
        assert abs(quad_J0(z, 1e-4) - 2 * lambda0(z)) <= 1e-6

    def test_crude_magnitude_bound(self):
        z, q, R = 3j, 2.0, DEFAULT_SPEC.truncation_radius
        val = quad_J0(z, q)
        sup = max(
            math.exp(-mu * mu) / abs((mu - z) ** 2 - q * q / 4.0)
            for mu in np.linspace(-R, R, 2001)
        )
        assert abs(val) <= sup * 2 * R / math.sqrt(math.pi)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            quad_J0(2j, 0.0)
        with pytest.raises(ValueError):
            quad_J0(2 - 1j, 0.5)

    def test_self_consistency_under_tighter_tolerances(self):
        v1, e1 = quad_J0(1 + 2j, 0.7, with_error=True)
        tight = QuadratureSpec(abs_tol=5e-14, rel_tol=5e-12)
        v2 = quad_J0(1 + 2j, 0.7, spec=tight)
        assert abs(v1 - v2) <= max(e1, 1e-13)

    def test_fast_path_agreement_grid(self):
        # relative disagreement <= 1e-9 over the documented test box
        for im in (0.02, 0.5, 10.0):
            for re in (0.0, 1.5, -4.0):
                for q in (1e-3, 0.3, 3.0):
                    z = complex(re, im)
                    ref = quad_J0(z, q)
                    assert abs(t_diff_over_q(z, q) - ref) <= 1e-9 * max(1.0, abs(ref))


class TestQuadDawson:
    def test_matches_fast_dawson(self):
        for u in (0.25, 0.5, 1.0, 2.0):
            assert_cclose(quad_dawson_integral(u), dawson(u), rtol=1e-12)


class TestQuadEpsilonQuantum:
    def test_reference_point(self):
        params = PlasmaParams(x_p=1.0, y=0.1)
        point = QueryPoint(x=1.0, q=0.5)
        ref = quad_epsilon_quantum(params, point)
        assert abs(epsilon_quantum(params, point) - ref) <= 1e-9 * abs(ref)

    def test_zero_plasma_frequency_is_unity(self):
        params = PlasmaParams(x_p=0.0, y=0.1)
        assert quad_epsilon_quantum(params, QueryPoint(x=0.7, q=0.4)) == 1.0 + 0j

    def test_drude_tail_bound(self):
        params = PlasmaParams(x_p=1.0, y=0.1)
        val = quad_epsilon_quantum(params, QueryPoint(x=10.0, q=0.5))
        assert abs(val - 1.0) <= 0.03

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            quad_epsilon_quantum(PlasmaParams(x_p=1.0, y=0.0), QueryPoint(x=1.0, q=0.5))
        with pytest.raises(ValueError):
            quad_epsilon_quantum(PlasmaParams(x_p=1.0, y=0.1), QueryPoint(x=1.0, q=0.0))
