"""Tests for the fast special-function evaluators.

Frozen reference values were computed once with mpmath at 30 digits
(w = exp(-z^2) erfc(-iz), t = i sqrt(pi) w, Dawson F via its defining
integral); the quadrature routes in tests/oracle.py provide the live
independent cross-checks.
"""

import bisect
import cmath
import math
import random
import re
import sys
import threading

import mpmath as mp
import pytest
from hypothesis import assume, example, given, strategies as st

from qplasma import special_functions
from qplasma.special_functions import (
    ASYMPTOTIC_SWITCH_Z,
    SQRT_PI,
    dawson,
    faddeeva_w,
    lambda0,
    plasma_t,
    t_derivatives,
    t_diff_and_lambda0,
    t_diff_over_q,
)

import mpref
import oracle
from conftest import assert_cclose

# frozen mpmath references (30 digits at derivation time)
W_AT_I = 0.42758357615580700441          # e * erfc(1)
T_AT_10I = 0.099507318782446974738j
T_AT_1_05I = -0.60772429894051395677 + 0.62904446167878790004j
LAM0_2_1I = -0.036294321581686167241 + 0.10327330431424889154j
LAM0_20I = 0.0012453415433722336474
LAM0_200I = 0.000012499531279294311812
F_HALF = 0.42443638350202229593
F_07 = 0.51050405755923176605
F_ARGMAX = 0.9241388730045918
F_MAX = 0.5410442246351817
TWO_LAM0_2I = 0.18929180007530168255
FOUR_F_HALF = 1.6977455340080891837
J0_1_1I_05 = 0.18333208655059784126 + 0.3359712833900016576j
W_FROZEN = {
    (7000.0, 20.0): 2.3027958988846535915e-7 + 8.0597854816122039135e-5j,
    (9999.0, -3.0): -1.6929071881837918297e-8 + 5.6424596017806992076e-5j,
    (0.5, -0.3): 1.0133165720153523118 + 0.80677576688829446153j,
    (3.0, -3.0): 1.2242309109051157425 - 1.4107381675391334464j,
}

complex_box = st.builds(
    complex,
    st.floats(-10, 10, allow_nan=False),
    st.floats(-3, 10, allow_nan=False),
)


class TestFaddeeva:
    def test_at_zero(self):
        assert faddeeva_w(0.0) == 1.0 + 0j

    def test_imaginary_axis_matches_scaled_erfc(self):
        assert_cclose(faddeeva_w(1j), W_AT_I, rtol=1e-13)

    def test_schwarz_reflection_point(self):
        z = 1 + 1j
        assert_cclose(faddeeva_w(-z.conjugate()), faddeeva_w(z).conjugate(), rtol=1e-13)

    @given(complex_box)
    def test_schwarz_reflection_property(self, z):
        lhs = faddeeva_w(-z.conjugate())
        rhs = faddeeva_w(z).conjugate()
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_frozen_spot_values(self):
        for (x, y), ref in W_FROZEN.items():
            assert_cclose(faddeeva_w(complex(x, y)), ref, rtol=2e-13)

    @pytest.mark.parametrize("k", [4, 9, 15, 22])
    def test_trapezoid_grid_switch_points(self, k):
        # nodes of both trapezoid grids (k*h, (k + 1/2)*h, h = 0.5), the grid
        # switch at Re z/h = k + 1/4, k + 3/4 approached from below and hit
        # exactly, and Im z on both sides of pi/h, where the pole correction
        # stops; mirrored into the shallow lower band
        h = 0.5
        for dx in (0.0, h / 4 - 1e-12, h / 4, h / 2, 3 * h / 4 - 1e-12, 3 * h / 4):
            for y in (0.0, 1e-8, 1e-3, math.pi / h - 1e-9, math.pi / h + 1e-9):
                for z in (complex(k * h + dx, y), complex(-(k * h + dx), y),
                          complex(k * h + dx, -y)):
                    if 1.8 < abs(z) < 12.0:
                        assert_cclose(faddeeva_w(z), mpref.w(z), rtol=5e-13)

    def test_imaginary_part_near_imaginary_axis(self):
        # the static model reads Im w here through Re t(q/2 + iv); Im w is
        # small against Re w, ~Re z |w|, so the Maclaurin strip |Re z| < 0.1
        # keeps it accurate where the trapezoid rule would lose ~1e-10 of it;
        # from Re z = 0.1 the trapezoid's relative Im error is ~6e-16
        for x in (1e-6, 1e-4, 1e-2, 0.1):
            for y in (0.01, 0.3, 1.0, 1.7):
                z = complex(x, y)
                ref = mpref.w(z).imag
                assert abs(faddeeva_w(z).imag - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("region", ["upper disk", "lower disk", "real axis",
                                        "band", "tail"])
    def test_random_points_against_live_mpmath(self, region):
        # below |z| = 12 and outside the Maclaurin strip (|Re z| < 0.1,
        # |z| <= 1.8) w is the trapezoid's, from |z| = 12 the tail series'.
        # The strip is excluded from this bound: there the series' terms
        # cancel up to ~100-fold towards |z| = 1.8 (the ring, continuity and
        # Im-near-axis tests cover it)
        rng = random.Random(f"w {region}")
        points = []
        while len(points) < 300:
            if region == "real axis":
                z = complex(rng.uniform(-3.0, 3.0), 0.0)
            elif region == "band":
                z = complex(rng.uniform(-12.0, 12.0), rng.uniform(-0.2, 0.2))
            elif region == "tail":
                r = math.exp(rng.uniform(math.log(12.0), math.log(1e4)))
                z = cmath.rect(r, rng.uniform(0.0, math.pi))
                # below the axis w = 2 exp(-z^2) - w(-z).  Where exp(-z^2)
                # counts, its exponent (y - x)(y + x) and phase 2xy carry
                # ~|z|^2 ulps of rounding, the condition number of w, so the
                # lower draws are kept where exp(-z^2) < 2e-22 lies below
                # 1e-17 |w|
                if rng.random() < 0.5:
                    z = z.conjugate()
                    if (z.imag - z.real) * (z.imag + z.real) > -50.0:
                        continue
            else:
                z = complex(rng.uniform(-1.8, 1.8), rng.uniform(0.0, 1.8))
                if abs(z) > 1.8:
                    continue
                if region == "lower disk":
                    z = z.conjugate()
            if abs(z.real) >= 0.1 or abs(z) > 1.8:
                points.append(z)
        for z in points:
            assert_cclose(faddeeva_w(z), mpref.w(z), rtol=2e-15)

    def test_continuity_across_strip_edges(self):
        # the series/trapezoid switch at |Re z| = 0.1 and at |z| = 1.8
        below = math.nextafter(0.1, 0.0)
        for y in (0.0, 0.3, 0.9, 1.5, 1.79, -0.5, -1.79):
            for s in (1.0, -1.0):
                assert_cclose(faddeeva_w(complex(s * below, y)),
                              faddeeva_w(complex(s * 0.1, y)), rtol=1e-14)
        for x in (0.0, 0.02, 0.05, 0.0999):
            for s in (1.0, -1.0):
                z = complex(x, s * math.sqrt(1.8 ** 2 - x * x))
                z *= 1.8 / abs(z)
                inside, outside = z * (1.0 - 4e-16), z * (1.0 + 4e-16)
                assert abs(inside) <= 1.8 < abs(outside)
                assert_cclose(faddeeva_w(inside), faddeeva_w(outside), rtol=1e-14)

    @given(complex_box)
    def test_finite_everywhere_in_physical_band(self, z):
        v = faddeeva_w(z)
        assert math.isfinite(v.real) and math.isfinite(v.imag)

    def test_nonfinite_input_rejected(self):
        with pytest.raises(ValueError):
            faddeeva_w(complex(math.nan, 0.0))
        with pytest.raises(ValueError):
            faddeeva_w(complex(0.0, math.inf))

    def test_unrepresentable_region_raises_not_inf(self):
        # deep lower half-plane where |w| exceeds double range
        with pytest.raises(OverflowError):
            faddeeva_w(complex(1.0, -30.0))

    def test_reflection_where_exp_underflows_at_any_phase(self):
        # Re(-z^2) ~ -2e300: exp(-z^2) underflows although its phase -2xy
        # is not finite, and w = -w(-z) ~ (-1 + i) 2.82e-156 is representable
        z = 1e155 - 9.999999999e154j
        assert faddeeva_w(z) == -faddeeva_w(-z)
        assert_cclose(faddeeva_w(z), 1j / (SQRT_PI * z), rtol=1e-15)

    @pytest.mark.parametrize("z", [3e154 * (1 - 1j), 1e200 * (1 - 1j)])
    @pytest.mark.parametrize("fn", [faddeeva_w, lambda0, lambda z: t_diff_over_q(z, 1.0)])
    def test_unrepresentable_phase_raises_overflow_naming_z(self, fn, z):
        # on the lower diagonal |exp(-z^2)| ~ 1 but its phase -2xy overflows
        with pytest.raises(OverflowError, match=re.escape(repr(z))):
            fn(z)


class TestPlasmaT:
    def test_at_zero_half_residue(self):
        assert_cclose(plasma_t(0.0), 1j * SQRT_PI, rtol=1e-15)

    def test_frozen_oracle_values(self):
        assert_cclose(plasma_t(10j), T_AT_10I, rtol=1e-10)
        assert_cclose(plasma_t(1 + 0.5j), T_AT_1_05I, rtol=1e-10)

    def test_against_live_quadrature(self):
        for z in (5j, 0.3 + 0.05j, -2 + 1j, 7 + 9j):
            assert_cclose(plasma_t(z), oracle.quad_t(z), rtol=1e-10)

    def test_continuation_consistency_grid(self):
        # upper half-plane grid: fast path vs literal integral
        for re in (-10, -5.5, -1, 0, 0.5, 4, 10):
            for im in (0.05, 0.3, 2.0, 10.0):
                z = complex(re, im)
                ref = oracle.quad_t(z)
                assert abs(plasma_t(z) - ref) <= 1e-10 * (1 + abs(ref))

    @given(complex_box)
    def test_reflection_antisymmetry(self, z):
        lhs = plasma_t(-z.conjugate())
        rhs = -plasma_t(z).conjugate()
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    @pytest.mark.parametrize("radius", [50.0, 80.0, 200.0, 1e3])
    @pytest.mark.parametrize("deg", [30, 60, 90])
    def test_asymptotic_tail_bound(self, radius, deg):
        th = math.radians(deg)
        z = radius * complex(math.cos(th), math.sin(th))
        assert abs(plasma_t(z) + 1 / z + 1 / (2 * z ** 3)) <= 2 / abs(z) ** 5

    def test_asymptotic_switch_continuity(self):
        # just past the |z| switch the tail series must match the Faddeeva path
        for th in (0.3, 1.2, 2.8):
            z = ASYMPTOTIC_SWITCH_Z * (1 + 1e-9) * cmath.exp(1j * th)
            assert_cclose(plasma_t(z), 1j * SQRT_PI * faddeeva_w(z), rtol=1e-12)


class TestLambda0:
    def test_at_zero(self):
        assert_cclose(lambda0(0.0), 1.0, rtol=1e-15)

    def test_identity_with_t(self):
        for z in (0.5, 2 + 2j, -3 + 0.1j, 1 - 0.4j, 40j, 90 + 5j):
            assert abs(lambda0(z) - 1.0 - z * plasma_t(z)) <= 1e-13

    def test_frozen_and_live_integral_oracle(self):
        assert_cclose(lambda0(2 + 1j), LAM0_2_1I, rtol=1e-12)
        assert_cclose(lambda0(2 + 1j), oracle.quad_lambda0(2 + 1j), rtol=1e-10)
        for z in (4j, -1 + 0.2j, 6 + 3j):
            assert_cclose(lambda0(z), oracle.quad_lambda0(z), rtol=1e-10)

    def test_tail_series_two_terms(self):
        # two-term tail -1/(2 z^2) - 3/(4 z^4); truncation is the next term,
        # (15/8)/z^6, i.e. ~2.4e-5 relative at |z| = 20 and ~2.3e-9 at 200
        for v, tol in ((20.0, 3e-5), (200.0, 1e-8)):
            z = complex(0.0, v)
            series = -1 / (2 * z ** 2) - 3 / (4 * z ** 4)
            assert abs(lambda0(z) - series) <= tol * abs(series)

    def test_tail_values_frozen(self):
        assert_cclose(lambda0(20j), LAM0_20I, rtol=1e-12)
        assert_cclose(lambda0(200j), LAM0_200I, rtol=1e-12)

    def test_tail_where_z_squared_overflows(self):
        # from |z| ~ 1.3e154 z^2 leaves double range, as inf - inf in its
        # real part; the tail then underflows to 0 and w stays i/(sqrt(pi) z)
        for z in (2e154 + 2e154j, 1e200 + 1e200j, 1e300 + 0j):
            inv = 1 / z
            assert_cclose(faddeeva_w(z), 1j / SQRT_PI * inv, rtol=1e-15)
            assert_cclose(lambda0(z), -0.5 * inv * inv, atol=1e-308)


class TestDawson:
    def test_at_zero(self):
        assert dawson(0.0) == 0.0

    def test_odd_symmetry_point(self):
        assert dawson(-0.7) == -dawson(0.7)
        assert_cclose(dawson(0.7), F_07, rtol=1e-13)

    @given(st.floats(0, 25, allow_nan=False))
    def test_odd_symmetry_property(self, u):
        assert dawson(-u) == -dawson(u)

    def test_frozen_half(self):
        assert_cclose(dawson(0.5), F_HALF, rtol=1e-13)

    def test_consistency_with_faddeeva_imaginary_part(self):
        # F(u) = (sqrt(pi)/2) Im w(u): cross-check of the two implementations
        for u in (0.1, 0.5, 0.9, 1.5, 3.0, 7.0, 9.9, 10.1, 20.0):
            ref = 0.5 * SQRT_PI * faddeeva_w(complex(u, 0.0)).imag
            assert_cclose(dawson(u), ref, rtol=1e-12)

    def test_peak_location_and_value(self):
        assert_cclose(dawson(F_ARGMAX), F_MAX, rtol=1e-12)
        # peak: nearby values are lower
        assert dawson(F_ARGMAX - 1e-3) < F_MAX
        assert dawson(F_ARGMAX + 1e-3) < F_MAX

    def test_live_quadrature_oracle(self):
        for u in (0.25, 1.0, 2.0):
            assert_cclose(dawson(u), oracle.quad_dawson_integral(u), rtol=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            dawson(math.inf)


class TestTDerivatives:
    def test_base_case_is_minus_two_lambda0(self):
        z = 1 + 1j
        d = t_derivatives(z, 1)
        assert abs(d[1] + 2 * lambda0(z)) <= 1e-12

    def test_against_finite_differences(self):
        # the central difference of t against t' = -2 lambda0
        h = 1e-5
        for z in (3j, 1 + 1j, -2 + 0.5j):
            d = t_derivatives(z, 1)
            fd = (t_derivatives(z + h, 0)[0] - t_derivatives(z - h, 0)[0]) / (2 * h)
            assert abs(d[1] - fd) <= 1e-7 * max(1.0, abs(fd))

    def test_first_derivative_fd_example(self):
        h = 1e-5
        fd = (plasma_t(3j + h) - plasma_t(3j - h)) / (2 * h)
        assert abs(t_derivatives(3j, 1)[1] - fd) <= 1e-8 * abs(fd)

    def test_one_faddeeva_call_below_the_tail(self, monkeypatch):
        # below |z| = 12, t_derivatives checks z once, evaluates w once (at
        # -z too below the axis, by the reflection) and takes t' = -2 lambda0
        calls, checks = [], []
        inner_w, inner_check = special_functions._w, special_functions._check_finite

        def counting(z):
            calls.append(z)
            return inner_w(z)

        def counting_check(*args):
            checks.append(args)
            return inner_check(*args)

        monkeypatch.setattr(special_functions, "_w", counting)
        monkeypatch.setattr(special_functions, "_check_finite", counting_check)
        for z in (2j, 1 + 1j, 5 - 0.2j, -3 + 0.01j, 11.9 + 0.5j, 0.05 + 1.7j):
            calls.clear()
            checks.clear()
            got = t_derivatives(z, 1)
            assert calls == ([z, -z] if z.imag < 0.0 else [z])
            assert len(checks) == 1
            assert got == [plasma_t(z), -2.0 * lambda0(z)]

    def test_tail_orders_underflow_where_z_squared_overflows(self):
        # t ~ -1/z, and t' ~ -1/z^2 underflows to 0
        z = 1e200 * (1 + 1j)
        d = t_derivatives(z, 1)
        assert_cclose(d[0], -1 / z, rtol=1e-15)
        assert d[1] == 0

    def test_tail_orders_raise_overflow_naming_z(self):
        # exp(-z^2) ~ 1e300 is representable, and so is t' there; at the
        # second z t' = -2 lambda0 is not, and was nan
        z = 100 - 103.4j
        assert len(t_derivatives(z, 1)) == 2
        z = -2.2612872579819108 - 26.69525566056445j
        with pytest.raises(OverflowError, match=re.escape(repr(z))):
            t_derivatives(z, 1)

    def test_order_bounds(self):
        assert len(t_derivatives(1j, 0)) == 1
        assert len(t_derivatives(1j, 1)) == 2
        for n in (2, -1):
            with pytest.raises(ValueError, match="^derivative order must be 0 or 1"):
                t_derivatives(1j, n)
        for n in (2.5, True):
            with pytest.raises(ValueError, match="^derivative order must be an integer"):
                t_derivatives(1j, n)


class TestTDiffOverQ:
    def test_small_q_limit_is_two_lambda0(self):
        assert_cclose(t_diff_over_q(2j, 1e-8), TWO_LAM0_2I, rtol=1e-12)

    def test_real_axis_dawson_identity(self):
        got = t_diff_over_q(0j, 1.0)
        assert_cclose(got, FOUR_F_HALF, rtol=1e-12)
        assert_cclose(got, 4 * dawson(0.5), rtol=1e-12)
        assert_cclose(got, 4 * oracle.quad_dawson_integral(0.5), rtol=1e-11)

    def test_frozen_and_live_quadrature(self):
        got = t_diff_over_q(1 + 1j, 0.5)
        assert_cclose(got, J0_1_1I_05, rtol=1e-12)
        assert_cclose(got, oracle.quad_J0(1 + 1j, 0.5), rtol=1e-10)

    def test_series_switch_continuity(self):
        for z in (2j, 1 + 1j, 5 - 0.2j):
            q_star = 1e-3 * (1 + abs(z))
            lo = t_diff_over_q(z, q_star * (1 - 1e-6))
            hi = t_diff_over_q(z, q_star * (1 + 1e-6))
            assert abs(lo - hi) <= 1e-10 * abs(hi)

    @given(complex_box, st.floats(1e-6, 3.0, allow_nan=False))
    def test_matches_literal_difference_when_safe(self, z, q):
        # in the regime where the literal difference is well-conditioned
        if q < 10 * 1e-3 * (1 + abs(z)):
            return
        lit = (plasma_t(z - q / 2) - plasma_t(z + q / 2)) / q
        assert abs(t_diff_over_q(z, q) - lit) <= 1e-11 * max(1.0, abs(lit))

    @pytest.mark.parametrize("radius", [12.0 * (1 + 1e-12), 20.0, 100.0, 1e3,
                                        1e4, 1e5, 1e6])
    def test_tail_band_against_live_mpmath(self, radius):
        # the tail difference from |z| = 12 on, up to the old Taylor switch
        # q = 1e-3 (1 + |z|); the recurrence of t_derivatives lost ~eps
        # |z|^4/120 there, the leading digit near |z| ~ 7e4
        q_star = 1e-3 * (1 + radius)
        for deg in range(-30, 181, 15):
            z = cmath.rect(radius, math.radians(deg))
            for q in (1e-6 * q_star, 1e-2 * q_star, (1 - 1e-9) * q_star):
                assert_cclose(t_diff_over_q(z, q), mpref.t_diff(z, q), rtol=1e-14)

    @pytest.mark.parametrize("x", [13.0, -13.0, 60.0, -150.0])
    def test_tail_landau_term_against_live_mpmath(self, x):
        # lower half-plane near |Re z| = |Im z|, where the continuation
        # 2i sqrt(pi) exp(-z^2) is O(1) and dominates; q z spans both the
        # sinh form (|Re qz| < 1) and the plain difference.  t's condition
        # number 2|z|^2 sets the tolerance
        q_star = 1e-3 * (1 + abs(x) * math.sqrt(2))
        for dy in (-2.0, 0.0, 3.0):
            z = complex(x, -abs(x) + dy / abs(x))
            for q in (1e-7, 1e-3 * q_star, 0.999 * q_star):
                rtol = 1e-15 * (1 + 2 * abs(z) ** 2)
                assert_cclose(t_diff_over_q(z, q), mpref.t_diff(z, q), rtol=rtol)

    @staticmethod
    @st.composite
    def _tail_points(draw):
        # |z| 12-2000 at any angle (kept off 12 itself, which cmath.rect may
        # round to just below the switch), q log-uniform from 1e-8 up to |z|
        r = draw(st.floats(12.0 * (1 + 1e-12), 2000.0))
        z = cmath.rect(r, draw(st.floats(-math.pi, math.pi)))
        q = 1e-8 * (r / 1e-8) ** draw(st.floats(0.0, 1.0))
        return z, min(q, r)

    @given(_tail_points())
    @example(((1 + 0.1j) / 0.0635, 0.0635))
    @example((12.0 * (1 + 1e-12) * cmath.exp(0.5j), 0.05))
    @example((12.0 * (1 + 1e-12) * cmath.exp(1.5j), 0.5))
    @example((12.0 * (1 + 1e-12) * cmath.exp(-0.1j), 2.0))
    @example((12.0 * (1 + 1e-12) * cmath.exp(3.0j), 11.0))
    @example((complex(12.0 * (1 + 1e-12), 0.0), 12.0 * (1 + 1e-12)))
    @example((cmath.rect(24.0, -math.pi / 2), 21.6))
    def test_tail_exact_in_q_against_live_mpmath(self, point):
        # from |z| = 12, for q <= 0.9|z|, the tail series differenced exactly
        # in q; the direct difference cancelled ~|z|/q-fold here (3.2e-14,
        # 5.2e-14 and 5.2e-15 at the first three examples).  Beyond 0.9|z|
        # the direct difference takes over: at z = q = 12 the series would
        # leave out t's exp(-s^2) part at s = z - q/2 = 6, 3.7e-15 of D.
        # Below the axis t's condition number 2|z|^2 sets the tolerance, on
        # the scale of the Landau terms 2i sqrt(pi) exp(-s^2)/q, whose
        # difference cancels where sin(q Im z) ~ 0 (at z = -24i, q = 21.6
        # one ulp of q moves D by 2.3e-12)
        z, q = point
        ends = (z - 0.5 * q, z + 0.5 * q)
        assume(all((s.imag - s.real) * (s.imag + s.real) < 700.0 for s in ends))
        ref = mpref.t_diff(z, q)
        if z.imag >= 0.0:
            assert_cclose(t_diff_over_q(z, q), ref, rtol=2e-15)
        else:
            landau = max(abs(cmath.exp(-s * s)) for s in ends) * 2 * SQRT_PI / q
            err = abs(t_diff_over_q(z, q) - ref)
            assert err <= 1e-15 * (1 + 2 * abs(z) ** 2) * max(abs(ref), landau)

    def test_tail_landau_term_beyond_sinh_form(self):
        # Re qz = 5e4: exp(-z^2 - q^2/4) underflows, yet exp(-(z - q/2)^2)
        # is O(1) and carries the whole value
        z, q = complex(1e4, -(1e4 - 2.5)), 5.0
        assert_cclose(t_diff_over_q(z, q), mpref.t_diff(z, q), rtol=1e-14)

    def test_tail_landau_term_where_q_im_z_overflows(self):
        # q Im z = -1e309 is not finite, and sinh(qz) would raise a bare
        # ValueError; exp(-z^2) overflows first and names z
        z = 0.01 - 1e308j
        with pytest.raises(OverflowError, match=re.escape(repr(z))):
            t_diff_over_q(z, 10.0)

    @pytest.mark.parametrize("z", [2e154 * (1 + 1j), 1e200 * (1 + 1j),
                                   1e200 * (1 - 0.5j)])
    def test_tail_where_a_b_overflows(self, z):
        # a b = (z - q/2)(z + q/2) leaves double range: D ~ -1/z^2 underflows
        # to 0 as lambda0 does, and the Landau terms underflow below the axis
        got = t_diff_over_q(z, 1.0)
        assert math.isfinite(got.real) and math.isfinite(got.imag)
        assert abs(got) <= 1e-300

    def test_imaginary_axis_real(self):
        # off the tail, D(iv, q) = -2 Re t(q/2 + iv)/q by t(-conj s) =
        # -conj t(s), real with no rounding residue
        for v in (0.05, 0.5, 1.0, 3.0, 8.0, 11.9):
            for q in (0.1, 0.5, 2.0, 5.0):
                assert t_diff_over_q(complex(0.0, v), q).imag == 0.0

    def test_nonpositive_q_rejected(self):
        with pytest.raises(ValueError):
            t_diff_over_q(1j, 0.0)
        with pytest.raises(ValueError):
            t_diff_over_q(1j, -0.5)



class TestTailHorner:
    # _tail and _t_diff_tail sum the tail series by Horner to a length that
    # one bisect on |w| = 1/|s|^2 picks: at each length's threshold the
    # omitted terms, against 30, stay below 1e-17 of the sum
    @staticmethod
    def _mp_t(s, n: int):
        # t(s) ~ -(1/s) sum_{m <= n} (1/2)_m s^(-2m), in mpmath
        w, acc, term = 1 / (s * s), 0, 1
        for m in range(n + 1):
            acc += term
            term *= (m + 0.5) * w
        return -acc / s

    @staticmethod
    def _length(table, w: complex) -> int:
        return len(special_functions._TAIL_HORNER[bisect.bisect_left(table, abs(w))])

    def test_each_tail_length_agrees_with_thirty_terms(self):
        table = special_functions._TAIL_W
        assert self._length(table, 1 / 144.0) == 13
        with mp.workdps(40):
            for n, w_max in enumerate(table, start=1):
                for deg in (0.0, 30.0, 75.0, 135.0):
                    z = cmath.rect(math.sqrt(1.0 / w_max) * (1 + 1e-12), math.radians(deg))
                    z2 = z * z
                    assert self._length(table, 1.0 / z2) == n
                    zz = mp.mpc(z.real, z.imag)
                    full = -zz * self._mp_t(zz, 30) - 1  # sum_{1 <= m <= 30}
                    cut = -zz * self._mp_t(zz, n) - 1
                    assert abs(cut - full) <= 1e-17 * abs(full), (n, z)
                    # and the float Horner sum is the series to rounding
                    assert_cclose(special_functions._tail(z2), complex(full), rtol=4e-16)

    def test_each_difference_length_agrees_with_thirty_terms(self):
        # the smaller of |a|, |b| = |z -+ q/2| at the threshold, q up to
        # 0.9|z| and Re z of either sign
        table = special_functions._D_W
        with mp.workdps(30):
            for n, w_max in enumerate(table, start=1):
                for deg, f in ((0.0, 0.9), (110.0, 1e-3), (170.0, 0.5)):
                    u = cmath.exp(1j * math.radians(deg))
                    side = -0.5 * f if u.real >= 0.0 else 0.5 * f
                    r = math.sqrt(1.0 / w_max) * (1 + 1e-12) / abs(u + side)
                    z, q = r * u, f * r
                    s = z + side * r
                    assert self._length(table, 1.0 / (s * s)) == n
                    zz, qq = mp.mpc(z.real, z.imag), mp.mpf(q)
                    a, b = zz - qq / 2, zz + qq / 2
                    full = (self._mp_t(a, 30) - self._mp_t(b, 30)) / qq
                    cut = (self._mp_t(a, n) - self._mp_t(b, n)) / qq
                    assert abs(cut - full) <= 1e-17 * abs(full), (n, z, q)
                    assert_cclose(special_functions._t_diff_tail(z, q), complex(full),
                                  rtol=1e-15)
        # below the last threshold, down to |s| = 6.6, 30 terms
        assert self._length(table, 1 / 6.6 ** 2) == 30

    @pytest.mark.parametrize("z", [1e155 - 9.999999999e154j, 2e154 + 2e154j, 1e300 + 0j])
    def test_zero_where_z_squared_is_inf(self, z):
        # z^2 inf, or inf - inf = nan in its real part: the series
        # underflows to 0, in _tail and in the difference, not nan
        assert cmath.isinf(z * z)
        assert special_functions._tail(z * z) == 0
        for zz in (z, -z.conjugate()):
            got = special_functions._t_diff_tail(zz, 1.0)
            assert got == 0 or cmath.isfinite(got) and abs(got) <= 1e-300, zz


def _seeded_points(seed: int, n: int = 400) -> list[complex]:
    # z over every region of w: the Maclaurin strip, trapezoid grids A (Re
    # z/h mod 1 in [1/4, 3/4)) and B, both half-planes, and both sides of
    # |z| = 12, within the lower band where exp(-z^2) stays representable
    rng = random.Random(seed)
    h = 0.5
    pts = []
    for _ in range(n):
        sign = rng.choice((1.0, -1.0))
        region = rng.randrange(4)
        if region == 0:
            z = complex(rng.uniform(-0.1, 0.1), sign * rng.uniform(0.0, 1.7))
        elif region in (1, 2):
            u = rng.uniform(0.25, 0.75) if region == 1 else rng.uniform(-0.25, 0.25)
            z = complex(h * (rng.randrange(-22, 23) + u), sign * rng.uniform(0.0, 3.0))
        else:
            z = cmath.rect(rng.uniform(11.0, 13.0), rng.uniform(-0.25, math.pi + 0.25))
        pts.append(z)
    return pts


def _in_strip(z: complex) -> bool:
    return abs(z) <= 1.8 and abs(z.real) < 0.1


class TestFlatKernels:
    # lambda0 and t_diff_over_q check their argument once and then call the
    # private kernels; where they keep the literal forms, those must equal
    # the public composition bit for bit

    def test_lambda0_is_exactly_one_at_zero(self):
        # the one point where lambda0 keeps the literal 1 + z t: the node
        # loop gives 1 + 2e-16 there.  Elsewhere below |z| = 12, the disk
        # |z| <= 0.5 included, lambda0 sums partial fractions, held to
        # mpmath by TestNodeLoop.  t_diff_and_lambda0 gives the same 1
        # beside each of D's forms: the subnormal-q limit, the disk series,
        # the node loop and the direct difference
        assert special_functions._node_loop(0j, 0.0, True)[1] != 1.0
        for z in (0j, -0j, complex(-0.0, -0.0), complex(0.0, -0.0)):
            assert repr(special_functions._lambda0(z)) == "(1+0j)", z
            for q in (5e-324, 0.5, 2.0, 13.0):
                assert repr(t_diff_and_lambda0(z, q)[1]) == "(1+0j)", (z, q)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_direct_difference_is_the_difference_of_t(self, seed):
        # the direct branch: above 0.9 |z| from |z| = 12 on, for q >= 12,
        # and where z -+ q/2 fall within h/8 of a node of z's grid (q > h/4,
        # |Im z| < h/8).  Everywhere else below |z| = 12 the node loop or
        # the disk takes over, held to mpmath by TestNodeLoop
        rng = random.Random(seed)
        h = 0.5
        n_rule = 0
        for z in _seeded_points(seed):
            az = abs(z)
            if az >= ASYMPTOTIC_SWITCH_Z:
                q = rng.uniform(0.9 * az, 0.9 * az + 3.0) * 1.0001
            elif _in_strip(z):
                continue
            elif rng.random() < 0.5 or z.real == 0.0:
                q = rng.uniform(12.0, 15.0)
            else:
                # Re a within h/32 of a node of z's grid, |Im z| <= 0.03:
                # z keeps h/4 from its nodes
                z = complex(z.real, math.copysign(min(abs(z.imag) * 0.01, 0.03), z.imag))
                off = 0.0 if 0.25 <= (z.real / h) % 1.0 < 0.75 else 0.5
                node = h * (math.floor(z.real / h - off) + off) - h * rng.randrange(1, 4)
                q = 2.0 * (z.real - node) + rng.uniform(-1.0, 1.0) * h / 16
                assert special_functions._node_loop(z, q, False) is None, (z, q)
                n_rule += 1
            lit = (plasma_t(z - q / 2) - plasma_t(z + q / 2)) / q
            assert repr(t_diff_over_q(z, q)) == repr(lit), (z, q)
        assert n_rule > 50

    @pytest.mark.parametrize("seed", [1, 2])
    def test_imaginary_axis_is_minus_two_re_t_over_q(self, seed):
        # t(-conj s) = -conj t(s) makes D(iv, q) = -2 Re t(q/2 + iv)/q real;
        # each form's result is set real there.  The one-w formula that
        # formed it was 4.3e-14 off mpmath
        rng = random.Random(seed)
        for _ in range(60):
            v = rng.uniform(-3.0, ASYMPTOTIC_SWITCH_Z)
            q = 1e-8 * (11.0 / 1e-8) ** rng.random()
            got = t_diff_over_q(complex(0.0, v), q)
            assert got.imag == 0.0, (v, q)
            assert_cclose(got, mpref.t_diff(complex(0.0, v), q), rtol=2e-15)

    @pytest.mark.parametrize("fn", [
        faddeeva_w, plasma_t, lambda0,
        lambda z: t_diff_over_q(z, 0.5), lambda z: t_derivatives(z, 1),
        lambda z: t_diff_and_lambda0(z, 0.5),
    ])
    @pytest.mark.parametrize("z", [math.nan, math.inf, complex(1.0, math.nan),
                                   complex(-math.inf, 1.0), complex(0.0, -math.inf)])
    def test_nonfinite_z_rejected(self, fn, z):
        with pytest.raises(ValueError, match=re.escape(f"z must be finite, got {complex(z)!r}")):
            fn(z)


class TestNodeLoop:
    # below |z| = 12, off the disk |z| <= 0.5, lambda0 and (where z -+ q/2
    # keep h/8 from the nodes of z's grid) D are the trapezoid rule summed
    # as partial fractions, exact in q.  The literal 1 + z t was 1e-13 off
    # here and the direct difference 1e-13 for D

    @staticmethod
    def _draw(rng, grid: str, lower: bool):
        # z with Re z / h mod 1 in grid A's [1/4, 3/4) or in grid B's
        # [-1/4, 1/4), |Im z| <= 3; q log-uniform from 1e-8 to 2.5
        h = 0.5
        while True:
            frac = rng.uniform(0.25, 0.75) if grid == "A" else rng.uniform(-0.25, 0.25)
            z = complex(h * (rng.randrange(-23, 23) + frac), rng.uniform(0.0, 3.0))
            if abs(z) < ASYMPTOTIC_SWITCH_Z and not _in_strip(z) and z.real != 0.0:
                break
        q = 1e-8 * (2.5 / 1e-8) ** rng.random()
        return (z.conjugate() if lower else z), q

    @pytest.mark.parametrize("grid", ["A", "B"])
    @pytest.mark.parametrize("lower", [False, True])
    def test_grids_and_half_planes_against_live_mpmath(self, grid, lower):
        # measured worst over these draws: D 2.1e-15 (A) and 5.5e-15 (B,
        # at Im z = 0.05, where a and b sit h/4 from a node and a^2 - t_k^2
        # cancels ~7-fold) from the node loop, 6.4e-16 from the direct
        # difference; lambda0 1.5e-15
        rng = random.Random(f"node loop {grid} {lower}")
        for _ in range(100):
            z, q = self._draw(rng, grid, lower)
            kernel = special_functions._node_loop(z, q, False) is not None
            rtol = 6e-15 if kernel else 2e-15
            ref = mpref.t_diff(z, q)
            err = abs(t_diff_over_q(z, q) - ref)
            assert err <= rtol * max(abs(ref), mpref.lower_scale(z, q)), (z, q)
            ref = mpref.lambda0(z)
            err = abs(lambda0(z) - ref)
            assert err <= 3e-15 * max(abs(ref), mpref.lower_scale(z)), z

    @pytest.mark.parametrize("seed", [1, 2])
    def test_lambda0_below_the_tail_against_live_mpmath(self, seed):
        # every seeded point below |z| = 12, Im z from -3.2 to 3, with the
        # disk |z| <= 0.5, the imaginary axis and z down to 1e-300: the
        # literal 1 + z t was up to ~1e-13 off near |z| = 12, and 7.5e-14
        # in the strip.  On the axis lambda0 is real
        pts = [z for z in _seeded_points(seed) if abs(z) < ASYMPTOTIC_SWITCH_Z]
        pts += [complex(0.0, v) for v in (-3.0, -0.5, -1e-8, 1e-300, 0.25, 0.5, 2.0, 3.0)]
        pts += [1e-300 + 0j, -1e-300j, 1e-20 + 1e-20j, 1e-10 - 3e-10j, -0.3 + 0.4j]
        assert len(pts) > 200 and sum(abs(z) <= 0.5 for z in pts) > 20
        for z in pts:
            ref = mpref.lambda0(z)
            got = lambda0(z)
            assert abs(got - ref) <= 3e-15 * max(abs(ref), mpref.lower_scale(z)), z
            assert z.real != 0.0 or got.imag == 0.0, z

    @pytest.mark.parametrize("lower", [False, True])
    def test_node_rule_each_side(self, lower):
        # Re a at h/8 (1 -+ 1e-3) from a node of z's grid, Im z = +-1e-3, b
        # clear of the nodes: the node loop just inside the rule, the direct
        # difference just outside it, both against mpmath.  Inside, a^2 -
        # t_k^2 cancels ~4|a|/h-fold and the node term, ~6|D|, cancels
        # against the pole correction: 8.7e-15 at z = 0.924 - 0.001i,
        # q = 0.2234 (5.1e-15 over these draws).  The direct difference is
        # held on the scale of the t values it subtracts
        h = 0.5
        rng = random.Random(f"node rule {lower}")
        n = 0
        while n < 30:
            grid_a = rng.random() < 0.5
            k = rng.randrange(-20, 20)
            x = h * (k + (rng.uniform(0.25, 0.75) if grid_a else rng.uniform(-0.25, 0.25)))
            node = h * (k - rng.randrange(1, 4) + (0.0 if grid_a else 0.5))
            z = complex(x, -1e-3 if lower else 1e-3)
            b = 2.0 * x - node
            if _in_strip(z) or abs((b / h + (0.5 if grid_a else 0.0)) % 1.0 - 0.5) < 0.25:
                continue
            n += 1
            for side, inside in ((1.001, True), (0.999, False)):
                q = 2.0 * (x - node - side * h / 8)
                assert (special_functions._node_loop(z, q, False) is not None) is inside
                ref = mpref.t_diff(z, q)
                if inside:
                    bound = 1e-14 * max(abs(ref), mpref.lower_scale(z, q))
                else:
                    bound = 2e-15 * (abs(plasma_t(z - q / 2)) + abs(plasma_t(z + q / 2))) / q
                assert abs(t_diff_over_q(z, q) - ref) <= bound, (z, q)
        z, q = 0.9242596729229737 - 0.001j, 0.22339434584594747
        assert special_functions._node_loop(z, q, False) is not None
        assert_cclose(t_diff_over_q(z, q), mpref.t_diff(z, q), rtol=1e-14)

    @staticmethod
    def _trim_points(seed: int):
        # below |z| = 12 in both half-planes, a quarter with |Re z| from 6 to
        # 7.5 (next to the last nodes kept), Im z from 1e-8 up or 0; a
        # quarter with a = z - q/2 at h/8 (1 + 1e-3) from a node of z's grid
        h = 0.5
        rng = random.Random(f"node trim {seed}")
        for i in range(2000):
            x = (rng.uniform(6.0, 7.5) * rng.choice((1, -1)) if i % 4 == 0
                 else rng.uniform(-11.0, 11.0))
            z = complex(x, rng.choice((0.0, 10.0 ** rng.uniform(-8, 0.5)))
                        * rng.choice((1, -1)))
            if i % 4 == 2:
                xs = x / h
                offset = 0.0 if 0.25 <= xs % 1.0 < 0.75 else 0.5
                node = h * (math.floor(xs) - rng.randrange(0, 8) + offset)
                q = 2.0 * (x - node - 1.001 * h / 8)
            else:
                q = 10.0 ** rng.uniform(-8, 0.4)
            if abs(z) < ASYMPTOTIC_SWITCH_Z and 0.0 < q < ASYMPTOTIC_SWITCH_Z:
                yield z, q

    @pytest.mark.parametrize("seed", [1, 2])
    def test_trimmed_node_tables_give_the_full_sums(self, seed, monkeypatch):
        # the node tables stop at t = 6.5.  Against tables to t = 7.25 the
        # sums move by at most 5.0e-18 (D), 2.0e-17 (lambda0) and 0 (w)
        # relative here
        h = 0.5
        full_a = [special_functions._node(k * h) for k in range(1, 15)]
        full_b = [special_functions._node((k + 0.5) * h) for k in range(15)]
        assert special_functions._NODES_A == full_a[:13]
        assert special_functions._NODES_B == full_b[:13]

        def sums():
            return [(special_functions._node_loop(z, q, True),
                     special_functions._w_trapezoid(z) if z.imag >= 0.0 else None)
                    for z, q in points]

        points = list(self._trim_points(seed))
        trimmed = sums()
        monkeypatch.setattr(special_functions, "_NODES_A", full_a)
        monkeypatch.setattr(special_functions, "_NODES_B", full_b)
        full = sums()
        summed = 0
        for (z, q), (pair, w), (pair_full, w_full) in zip(points, trimmed, full):
            assert w is None or abs(w - w_full) <= 5e-17 * abs(w_full), z
            if pair is None:  # the node rule refuses D here, on both tables
                assert pair_full is None
                continue
            summed += 1
            for got, ref in zip(pair, pair_full):
                assert abs(got - ref) <= 5e-17 * abs(ref), (z, q)
        assert summed > 1500

    def test_just_above_the_taylor_switch_and_just_below_twelve(self):
        # q just above 1e-3 (1 + |z|), where the Taylor form handed over
        for deg in range(-170, 181, 10):
            for r in (2.5, 7.0, 12.0 * (1 - 1e-12)):
                z = cmath.rect(r, math.radians(deg))
                if _in_strip(z) or z.imag < -3.0:
                    continue
                for q in (1e-3 * (1 + abs(z)) * (1 + 1e-9), 0.1, 1.0):
                    ref = mpref.t_diff(z, q)
                    err = abs(t_diff_over_q(z, q) - ref)
                    assert err <= 2e-15 * max(abs(ref), mpref.lower_scale(z, q)), (z, q)
                # lambda0 is 3.2e-15 off at z = 1.22 + 6.89i, just above Im z =
                # pi/h, where the rule drops its pole correction
                ref = mpref.lambda0(z)
                assert abs(lambda0(z) - ref) <= 4e-15 * max(abs(ref), mpref.lower_scale(z)), z

    def test_found_points(self):
        # fig 5/6 classical at x = 11.318: the literal lambda0 cancelled
        # ~2|z|^2-fold (1.0e-13 off); fig 1 at x = 1, q = 0.0884: the direct
        # difference cancelled ~|z|/q-fold (6.5e-14 off on eps)
        z = 11.318 + 0.01j
        assert_cclose(lambda0(z), mpref.lambda0(z), rtol=1e-15)
        q = 0.0884
        z = complex(1.0, 0.1) / q
        assert special_functions._node_loop(z, q, False) is not None
        assert_cclose(t_diff_over_q(z, q), mpref.t_diff(z, q), rtol=1e-15)
        # the strip just above the old Taylor switch: the direct difference
        # of two series values was 1.7e-12 off
        z, q = 0.0265 + 1.683j, 0.004
        assert_cclose(t_diff_over_q(z, q), mpref.t_diff(z, q), rtol=1e-15)
        # where the node rule refuses, the direct difference cancels
        # ~|z|/q-fold: 2.24e-14 off here, the worst such point seen
        z, q = -10.207392204665915 + 0.021797898706670205j, 0.37991995166060316
        assert special_functions._node_loop(z, q, False) is None
        assert_cclose(t_diff_over_q(z, q), mpref.t_diff(z, q), rtol=3e-14)

    @staticmethod
    def _property_points(seed: int):
        # every branch of D and lambda0: tail, disk, node loop, node rule,
        # imaginary axis, strip, q >= 12, subnormal q, both half-planes
        rng = random.Random(seed)
        for z in _seeded_points(seed, 200) + [complex(0.0, 3.0), complex(0.0, -2.0)]:
            q_star = 1e-3 * (1 + abs(z))
            for q in (0.5 * q_star, q_star * (2.5 / q_star) ** rng.random(), 0.5, 13.0,
                      5e-324):
                yield z, q

    @pytest.mark.parametrize("seed", [1, 2])
    def test_t_diff_and_lambda0_is_the_pair_bit_for_bit(self, seed, monkeypatch):
        raw = special_functions._lambda0
        for z, q in self._property_points(seed):
            monkeypatch.setattr(special_functions, "_pair_last", (None, None, None, None))
            ref = (repr(t_diff_over_q(z, q)), repr(raw(z)))
            assert tuple(map(repr, t_diff_and_lambda0(z, q))) == ref, (z, q)
            # both read from the entry the call above stored
            assert (repr(t_diff_over_q(z, q)), repr(lambda0(z))) == ref, (z, q)

    def test_t_derivatives_first_order_is_minus_two_lambda0(self):
        for z in _seeded_points(4, 200):
            assert repr(t_derivatives(z, 1)[1]) == repr(-2.0 * lambda0(z)), z


class TestPairEntry:
    # t_diff_and_lambda0 keeps its last (z, q, D, lambda0) in one entry,
    # which lambda0 and t_diff_over_q read and never write: the classical
    # and Mermin models, evaluated after the quantum one at one point, take
    # the quantum model's lambda0 and D from it

    @staticmethod
    def _clear(monkeypatch):
        monkeypatch.setattr(special_functions, "_pair_last", (None, None, None, None))

    @staticmethod
    def _raw_d(z, q):
        return special_functions._t_diff(complex(z), q, False)[0]

    @staticmethod
    def _unreachable(*args):
        raise AssertionError("entry miss")

    def test_reads_equal_the_unmemoised_values_including_signed_zeros(self, monkeypatch):
        raw_lambda0 = special_functions._lambda0
        rng = random.Random(8)
        xs = [0.0, 0.3, 11.99, 12.0, 30.0, 1e150]
        xs += [rng.uniform(-20.0, 20.0) for _ in range(150)]
        for x in xs + [-x for x in xs]:
            q = rng.choice((5e-324, 1e-6, 0.3, 2.0, 13.0))
            raw = {y: (repr(self._raw_d(complex(x, y), q)), repr(raw_lambda0(complex(x, y))))
                   for y in (0.0, -0.0)}
            # x + 0j and x - 0j match one entry: each must read the other's
            # values bit for bit, in either order, with no kernel run
            for a, b in ((0.0, -0.0), (-0.0, 0.0)):
                self._clear(monkeypatch)
                t_diff_and_lambda0(complex(x, a), q)
                with monkeypatch.context() as m:
                    m.setattr(special_functions, "_t_diff", self._unreachable)
                    m.setattr(special_functions, "_lambda0", self._unreachable)
                    for y in (a, b):
                        z = complex(x, y)
                        got = (repr(t_diff_over_q(z, q)), repr(lambda0(z)))
                        assert got == raw[y], (z, q)
        for z in _seeded_points(5, 200):
            # read past the entry (another q), then from it
            ref = repr(self._raw_d(z, 0.4)), repr(raw_lambda0(z))
            assert (repr(t_diff_over_q(z, 0.4)), repr(lambda0(z))) == ref, z
            t_diff_and_lambda0(z, 0.4)
            assert (repr(t_diff_over_q(z, 0.4)), repr(lambda0(z))) == ref, z

    def test_interleaved_calls_are_never_stale(self):
        raw_lambda0 = special_functions._lambda0
        calls = [(1 + 1j, 0.4), (1 + 1j, 0.5), (2 - 0.5j, 0.4), (2 - 0.5j, 0.4), (20j, 1.0),
                 (1 + 1j, 0.4), (20j, 1.0), (20j, 2.0), (30 + 1j, 2.0), (3.25 + 0.25j, 0.4),
                 (3.25 + 0.25j, 0.4), (0.05 + 0.3j, 0.1), (30 + 1j, 2.0), (3.25 + 0.25j, 0.4)]
        stored = special_functions._pair_last
        for i, (z, q) in enumerate(calls):
            zl = z + 1 if i % 3 == 2 else z  # every third lambda0 off D's point
            if i % 3 == 0:
                got, lam = t_diff_and_lambda0(z, q)
                stored = (z, q, got, lam)
            else:
                got, lam = t_diff_over_q(z, q), lambda0(zl)
            assert repr(got) == repr(self._raw_d(z, q)), (z, q)
            assert repr(lam) == repr(raw_lambda0(zl)), zl
            assert special_functions._pair_last == stored

    def test_readers_never_store(self, monkeypatch):
        t_diff_and_lambda0(1 + 1j, 0.5)
        before = special_functions._pair_last
        rng = random.Random(9)
        for z in _seeded_points(9, 100):
            q = rng.choice((5e-324, 1e-6, 0.3, 2.0, 13.0))
            lambda0(z)
            t_diff_over_q(z, q)
            special_functions._t_diff_over_q(z, q)
            t_derivatives(z, 1)
        assert special_functions._pair_last is before
        # (1 + 1j, 0.5) is still the entry, so no evaluation runs
        monkeypatch.setattr(special_functions, "_t_diff", self._unreachable)
        monkeypatch.setattr(special_functions, "_lambda0", self._unreachable)
        assert t_diff_over_q(1 + 1j, 0.5) is before[2]
        assert lambda0(1 + 1j) is before[3]

    @pytest.mark.parametrize("z, q", [(math.nan, 0.5), (complex(math.nan, 1.0), 0.5),
                                      (math.inf, 0.5), (complex(1.0, -math.inf), 0.5),
                                      (1 + 1j, math.nan), (1 + 1j, math.inf), (1 + 1j, 0.0)])
    def test_invalid_raises_on_every_call_and_is_never_cached(self, z, q):
        t_diff_and_lambda0(1 + 1j, 0.5)
        before = special_functions._pair_last
        fns = [t_diff_over_q, t_diff_and_lambda0]
        if not cmath.isfinite(z):
            fns.append(lambda z, q: lambda0(z))
        for _ in range(3):
            for fn in fns:
                with pytest.raises(ValueError):
                    fn(z, q)  # the same objects each time
        assert special_functions._pair_last is before

    def test_raised_fused_call_stores_nothing(self):
        t_diff_and_lambda0(1 + 1j, 0.5)
        before = special_functions._pair_last
        for z, q in TestNoSilentInfinities.D_REPROS + TestNoSilentInfinities.SHIFTED_REPROS:
            with pytest.raises(OverflowError):
                t_diff_and_lambda0(z, q)
        # D is finite here, ~6e305, but lambda0 leaves double range
        z, q = TestNoSilentInfinities.LAMBDA0_REPRO, 10.0
        assert cmath.isfinite(t_diff_over_q(z, q))
        with pytest.raises(OverflowError):
            t_diff_and_lambda0(z, q)
        assert special_functions._pair_last is before

    KERNELS = ("_t_diff", "_node_loop", "_t_diff_tail", "_t_diff_disk", "_tail", "_w",
               "_lambda0", "_exp_minus_z2", "_add_landau_diff", "_dawson_series",
               "_dawson_sampling", "_dawson_asymptotic")

    @pytest.mark.parametrize("omega, q", [(1.3, 0.4), (13.0, 0.5), (1.3 - 0.3j, 0.4),
                                          (13.0 - 0.3j, 0.5)],
                             ids=["node-loop", "tail", "node-loop-lower", "tail-lower"])
    def test_overlay_row_makes_one_fused_call(self, omega, q, monkeypatch):
        # the quantum, classical and Mermin models at one point (z = 3.25 +
        # 0.25i, 26 + 0.2i, 3.25 - 0.5i or 26 - 0.4i): the kernel calls of
        # one fused _t_diff and no other; D0 is held, as along a sweep
        from qplasma.dielectric import (eps_classical_omega, eps_mermin_omega,
                                        eps_quantum_omega, mermin_static_denominator)

        calls = []
        for name in self.KERNELS:
            def wrapper(*args, _inner=getattr(special_functions, name), _name=name):
                calls.append((_name, args))
                return _inner(*args)
            monkeypatch.setattr(special_functions, name, wrapper)
        monkeypatch.setattr("qplasma.dielectric._t_diff", special_functions._t_diff)
        x_p, y = 1.0, 0.1
        z = (omega + 1j * y) / q
        special_functions._t_diff(z, q, True)
        one = [name for name, _ in calls]
        assert one.count("_t_diff") == 1
        assert ("_node_loop" if abs(z) < 12.0 else "_t_diff_tail") in one
        mermin_static_denominator(q)
        self._clear(monkeypatch)
        calls.clear()
        for core in (eps_quantum_omega, eps_classical_omega, eps_mermin_omega):
            core(x_p, y, omega, q)
        assert calls[0] == ("_t_diff", (z, q, True))
        assert [name for name, _ in calls] == one
        # without the entry the classical model runs lambda0's own kernel
        self._clear(monkeypatch)
        calls.clear()
        eps_classical_omega(x_p, y, omega, q)
        assert [name for name, _ in calls][0] == "_lambda0"

    def test_concurrent_rows_read_no_other_points_values(self):
        # four threads evaluate overlay rows at two points in turn under a
        # short switch interval, so they often meet at one point: an entry
        # whose (z, q) a thread could read beside the other point's D or
        # lambda0 would change an eps
        from qplasma.dielectric import eps_classical_omega, eps_mermin_omega, eps_quantum_omega

        cores = (eps_quantum_omega, eps_classical_omega, eps_mermin_omega)
        row = [(1.0, 0.1, 1.3, 0.4), (1.0, 0.1, 1.7, 0.4)] * 150
        want = [[core(*p) for core in cores] for p in row]
        got = [None] * 4

        def run(k):
            got[k] = [[core(*p) for core in cores] for p in row]

        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(got))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [want] * len(got)


class TestUncheckedKernels:
    # the private kernels behind the checked public names give the same
    # bits, and _t_diff_over_q reads t_diff_and_lambda0's entry

    def test_unchecked_d_is_the_checked_d(self, monkeypatch):
        unchecked = special_functions._t_diff_over_q
        rng = random.Random(28)
        for z in _seeded_points(28, 300):
            q = rng.choice((5e-324, 1e-6, 0.3, 2.0, 13.0))
            monkeypatch.setattr(special_functions, "_pair_last", (None, None, None, None))
            D = unchecked(z, q)
            assert repr(t_diff_over_q(z, q)) == repr(D), (z, q)
            D = t_diff_and_lambda0(z, q)[0]
            assert unchecked(z, q) is D and t_diff_over_q(z, q) is D  # the entry's own

    def test_landau_difference_with_a_given_exp_is_the_same(self):
        # the node loop hands lambda0's exp(-z^2) to D's Landau block below
        # the axis; on both sides of |Re qz| = 1 the value is the same
        add = special_functions._add_landau_diff
        rng = random.Random(29)
        sides = [0, 0]
        for _ in range(400):
            z = complex(rng.uniform(-12.0, 12.0), -rng.uniform(0.0, 6.0))
            q = rng.choice((1e-3, 0.1, 0.5, 2.0, 8.0))
            v = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            e = special_functions._exp_minus_z2(z)
            assert repr(add(v, z, q, e)) == repr(add(v, z, q)), (v, z, q)
            sides[abs((q * z).real) < 1.0] += 1
        assert min(sides) > 50


class TestNoSilentInfinities:
    # deep below the axis exp(-z^2) is representable up to Re(-z^2) = 708,
    # but the Landau term 2i sqrt(pi) z exp(-z^2) of lambda0, its difference
    # over q in D, and t' = -2 lambda0 can leave double range there.  Each
    # public function returns a finite value or raises OverflowError naming
    # the point; these repros returned inf or nan
    LAMBDA0_REPRO = -2.2612872579819108 - 26.69525566056445j
    D_REPROS = [(-26.6j, 1e-3), (6.393028798601832 - 27.312731832145666j,
                                 2.0086431928966847e-94)]
    # D out of range where exp(-s^2) overflows at s = z + q/2 alone: the
    # tail's Landau terms one by one, and the direct difference; these
    # raised naming z + q/2 in place of z and q
    SHIFTED_REPROS = [(-4.529907864737164 - 27.063189670938268j, 2.431947686590233),
                      (-14.0 - 27.2j, 28.0)]

    @staticmethod
    def _points(seed: int, n: int):
        # Re(-z^2) = y^2 - x^2 from 690 to 712, |Re z| log-uniform from 1e-3
        # to 300, q log-uniform from 1e-320 to 30
        rng = random.Random(seed)
        for _ in range(n):
            x = rng.choice((1.0, -1.0)) * 10 ** rng.uniform(-3.0, 2.5)
            z = complex(x, -math.sqrt(rng.uniform(690.0, 712.0) + x * x))
            yield z, 10 ** rng.uniform(-320.0, 1.5)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_finite_or_overflow_error(self, seed):
        points = ([(self.LAMBDA0_REPRO, 1e-3)] + self.D_REPROS + self.SHIFTED_REPROS
                  + list(self._points(seed, 400)))
        raised = 0
        for z, q in points:
            for fn in (faddeeva_w, plasma_t, lambda0, lambda z: t_derivatives(z, 1),
                       lambda z: t_diff_over_q(z, q), lambda z: t_diff_and_lambda0(z, q)):
                try:
                    got = fn(z)
                except OverflowError as exc:
                    assert re.search(r"range at z=\(", str(exc)), (z, q, exc)
                    raised += 1
                    continue
                values = got if isinstance(got, (tuple, list)) else [got]
                assert all(map(cmath.isfinite, values)), (z, q, got)
        assert raised > 100

    def test_repros_raise_naming_z_and_q(self):
        z = self.LAMBDA0_REPRO
        t_diff_and_lambda0(1 + 1j, 0.5)
        before = special_functions._pair_last
        for fn in (lambda0, lambda z: t_derivatives(z, 1)):
            with pytest.raises(OverflowError, match=re.escape(f"at z={z!r};")):
                fn(z)
        for z, q in self.D_REPROS + self.SHIFTED_REPROS:
            for fn in (t_diff_over_q, t_diff_and_lambda0):
                with pytest.raises(OverflowError, match=re.escape(f"at z={z!r}, q={q!r};")):
                    fn(z, q)
        assert special_functions._pair_last is before  # a raised call stores nothing
