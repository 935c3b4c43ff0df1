"""Tests for the asymptotic dispersion formulas and the root solver."""

import cmath
import math
import random
import re

import pytest

import qplasma.dispersion as dispersion
from qplasma.dielectric import ModelKind, PlasmaParams
from qplasma.scan import ScanSpec
from qplasma.dispersion import (
    BranchLossError,
    ConvergenceError,
    DispersionRoot,
    NonPhysicalRootError,
    default_guess,
    gamma_asymptotic,
    omega_asymptotic,
    solve_root,
    trace_branch,
)

import mpref

SQRT2 = math.sqrt(2.0)

# frozen: -sqrt(pi/8)/0.027 * exp(-3/2 - 1/(2*0.09))  (mpmath, 30 digits)
GAMMA_LANDAU_K03 = -0.02002061131206702122
SQRT_2125 = 1.4577379737113251177


def count_eps_calls(monkeypatch) -> list[int]:
    """Count eps evaluations made by the solver; returns a one-item counter."""
    calls = [0]
    for name in ("eps_quantum_omega", "eps_classical_omega", "eps_mermin_omega"):
        inner = getattr(dispersion, name)

        def counted(*args, _inner=inner, **kwargs):
            calls[0] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(dispersion, name, counted)
    return calls


class TestOmegaAsymptotic:
    def test_long_wave_limit(self):
        assert omega_asymptotic(0.0, 0.0) == 1.0
        assert omega_asymptotic(0.0, 5.0) == 1.0

    def test_classical_value(self):
        assert omega_asymptotic(0.5, 0.0) == pytest.approx(SQRT_2125, rel=1e-15)

    def test_quantum_increment_first_order(self):
        # the Q term adds 6 k^4 Q^2/24 inside the square root, i.e. an
        # increment of that over 2*omega to first order
        kappa, Q = 0.3, 2.0
        base = omega_asymptotic(kappa, 0.0)
        shifted = omega_asymptotic(kappa, Q)
        expected = 6 * kappa ** 4 * (Q ** 2 / 24.0) / (2.0 * base)
        assert shifted - base == pytest.approx(expected, abs=1e-5)

    def test_solver_roots_meet_it_at_order_six(self):
        # the gap |Re omega/omega_p - omega_asymptotic| of nearly undamped
        # roots (y = 1e-12) shrinks like kappa^6 only if the kappa^4 term,
        # Q^2/24 included, is right: local orders read 6.02-6.11 over kappa
        # = 0.04-0.1.  With Q^2/20 in its place the quantum and Mermin
        # orders read from -7.9 to 13.7.  omega is in units of k_T v_T, so
        # omega_p is x_p and k/k_D = q/(sqrt(2) x_p); the classical model
        # has Q = 0
        kappas = (0.04, 0.05, 0.06, 0.07, 0.08, 0.1)
        for model in (ModelKind.QUANTUM, ModelKind.CLASSICAL, ModelKind.MERMIN):
            for x_p in (0.5, 1.0, 3.0):
                params = PlasmaParams(x_p, 1e-12)
                Q = 0.0 if model is ModelKind.CLASSICAL else params.quantum_parameter
                gaps = [abs(solve_root(params, k * SQRT2 * x_p, model).omega.real / x_p
                            - omega_asymptotic(k, Q)) for k in kappas]
                for k0, k1, g0, g1 in zip(kappas, kappas[1:], gaps, gaps[1:]):
                    order = math.log(g1 / g0) / math.log(k1 / k0)
                    assert 5.9 <= order <= 6.2, (model, x_p, k0, k1, order)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            omega_asymptotic(-0.1, 0.0)
        with pytest.raises(ValueError):
            omega_asymptotic(0.1, -1.0)


    @pytest.mark.parametrize("args", [(math.nan, 0.0), (math.inf, 0.0), (0.1, math.nan),
                                      (0.1, math.inf), (-math.inf, 0.0)])
    def test_nonfinite_inputs_rejected(self, args):
        # nan and inf returned nan and inf
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            omega_asymptotic(*args)

    @pytest.mark.parametrize("args", [(1e200, 0.0), (9e153, 0.0), (8.5e153, 0.0),
                                      (1e100, 1e200), (0.0, 1e200), (1e-200, 1e200)])
    def test_out_of_range_raises_naming_the_arguments(self, args):
        # kappa^4 or Q^2 leaves double range (0 * inf where kappa^4
        # underflows); 1e200 returned inf, (1e-200, 1e200) nan
        with pytest.raises(OverflowError, match=re.escape(f"k/k_D={args[0]!r}, Q={args[1]!r}")):
            omega_asymptotic(*args)


class TestGammaAsymptotic:
    def test_landau_value_frozen(self):
        # exponent checked by hand: -3/2 - 1/(2*0.09) = -7.0555...
        params = PlasmaParams(x_p=1.0, y=0.0)
        q = 0.3 * SQRT2  # k/k_D = 0.3
        got = gamma_asymptotic(params, q, quantum_factors=False)
        hand = -math.sqrt(math.pi / 8.0) / 0.027 * math.exp(-1.5 - 1.0 / 0.18)
        assert got == pytest.approx(hand, rel=1e-14)
        assert got == pytest.approx(GAMMA_LANDAU_K03, rel=1e-14)

    def test_collisional_floor_at_long_waves(self):
        params = PlasmaParams(x_p=1.0, y=0.1)
        got = gamma_asymptotic(params, 1e-3)
        assert got == pytest.approx(-0.05, rel=1e-12)

    def test_nonpositive_everywhere_tested(self):
        for x_p in (0.5, 1.0, 2.0):
            for kappa in (0.05, 0.1, 0.3, 0.5):
                for y in (0.0, 0.01, 0.1):
                    params = PlasmaParams(x_p=x_p, y=y)
                    assert gamma_asymptotic(params, kappa * SQRT2 * x_p) <= 0.0

    def test_quantum_factors_reduce_to_classical(self):
        params = PlasmaParams(x_p=1.0, y=0.02)
        q = 0.25 * SQRT2
        quantum = gamma_asymptotic(params, q, quantum_factors=True)
        classical = gamma_asymptotic(params, q, quantum_factors=False)
        assert quantum != classical
        # factors (1 - q^2/4)(1 + q^2 z^2/6) -> 1 as q -> 0 at fixed kappa
        # is not meaningful here; instead check they are O(q^2) close
        assert abs(quantum - classical) <= abs(classical) * 2.0

    @pytest.mark.parametrize("q", [1e-110, 1e-200, 5e-324])
    def test_tiny_q_is_the_collisional_floor(self, q):
        # below q ~ 1.8e-103 k_D, (k_D/k)^3 overflowed and raised a bare
        # OverflowError; the Landau term underflows there, and so does its
        # quantum factor's 0 * inf
        for quantum_factors in (True, False):
            assert gamma_asymptotic(PlasmaParams(1.0, 0.1), q, quantum_factors) == -0.05
            # q/k_D underflows to 0 here at 5e-324, and 1/kappa divided by 0
            assert gamma_asymptotic(PlasmaParams(100.0, 0.1), q, quantum_factors) == -0.05

    @pytest.mark.parametrize("x_p, q", [(1.0, 1e100), (1.0, 1e200), (5e-324, 1.0), (1e308, 1e307)])
    def test_out_of_range_raises_naming_the_arguments(self, x_p, q):
        # a term of the formula leaves double range: omega_k's kappa^4, k/k_D
        # itself at x_p = 5e-324 and Q = 2 x_p at 1e308; these returned inf
        # or nan (0 * inf in the quantum factor)
        with pytest.raises(OverflowError, match=re.escape(f"x_p={x_p!r}, y=0.1, q={q!r}")):
            gamma_asymptotic(PlasmaParams(x_p, 0.1), q)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gamma_asymptotic(PlasmaParams(1.0, 0.0), 0.0)
        with pytest.raises(ValueError):
            gamma_asymptotic(PlasmaParams(0.0, 0.0), 0.5)


class TestSolveRoot:
    def test_residual_contract(self):
        params = PlasmaParams(x_p=1.0, y=1e-4)
        root = solve_root(params, 0.1 * SQRT2, ModelKind.QUANTUM)
        assert isinstance(root, DispersionRoot)
        assert root.residual <= 1e-12
        assert root.omega.real > 0.0
        assert root.iterations <= 60

    def test_frequency_matches_asymptote_at_long_waves(self):
        params = PlasmaParams(x_p=1.0, y=1e-4)
        root = solve_root(params, 0.1 * SQRT2, ModelKind.QUANTUM)
        asym = omega_asymptotic(0.1, params.quantum_parameter)
        assert abs(root.omega.real - asym) / asym <= 1e-3

    def test_asymptote_error_shrinks_over_halving_sequence(self):
        # y <= 1e-3 x_p; error <= 1e-3 for k/k_D <= 0.15 and monotone
        # decreasing over a 4-point halving sequence
        params = PlasmaParams(x_p=1.0, y=1e-4)
        Q = params.quantum_parameter
        errs = []
        for kappa in (0.2, 0.1, 0.05, 0.025):
            root = solve_root(params, kappa * SQRT2, ModelKind.QUANTUM)
            asym = omega_asymptotic(kappa, Q)
            errs.append(abs(root.omega.real - asym) / asym)
            if kappa <= 0.15:
                assert errs[-1] <= 1e-3
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_damping_matches_asymptote_at_long_waves(self):
        params = PlasmaParams(x_p=1.0, y=1e-4)
        root = solve_root(params, 0.1 * SQRT2, ModelKind.QUANTUM)
        gam = gamma_asymptotic(params, 0.1 * SQRT2)
        assert abs(root.omega.imag - gam) / abs(gam) <= 0.15

    def test_custom_guess_converges(self):
        params = PlasmaParams(x_p=1.0, y=0.01)
        seed = default_guess(params, 0.3 * SQRT2, ModelKind.CLASSICAL) * 1.05
        root = solve_root(params, 0.3 * SQRT2, ModelKind.CLASSICAL, guess=seed)
        assert root.residual <= 1e-12

    def test_nonphysical_branch_detected(self):
        params = PlasmaParams(x_p=1.0, y=0.01)
        q = 0.3 * SQRT2
        good = solve_root(params, q, ModelKind.CLASSICAL)
        mirror = -good.omega.conjugate()  # the Re < 0 partner root
        with pytest.raises(NonPhysicalRootError):
            solve_root(params, q, ModelKind.CLASSICAL, guess=mirror)

    def test_nonconvergence_reports_last_iterate(self, monkeypatch):
        monkeypatch.setattr("qplasma.dispersion._MAX_ITER", 2)
        monkeypatch.setattr("qplasma.dispersion._RESIDUAL_TOL", 1e-14)
        params = PlasmaParams(x_p=1.0, y=0.01)
        with pytest.raises(ConvergenceError) as err:
            solve_root(params, 0.3 * SQRT2, ModelKind.CLASSICAL,
                       guess=40.0 + 3.0j)
        assert err.value.residual > 1e-14
        assert err.value.last_omega is not None

    def test_failed_solve_reports_finite_last_iterate(self):
        # from this upper-half-plane guess the iteration runs into the deep
        # lower half-plane, where eps overflows; the error must still name a
        # finite iterate and residual, never NaN
        params = PlasmaParams(6.46, 1.5712040501341884e-06)
        with pytest.raises(ConvergenceError) as err:
            solve_root(params, 0.363 * SQRT2 * 6.46, ModelKind.MERMIN,
                       guess=9.635121718278342 + 12.22661916695434j)
        last = err.value.last_omega
        assert math.isfinite(last.real) and math.isfinite(last.imag)
        assert math.isfinite(err.value.residual)

    def test_overflowing_guess_stops_at_once(self, monkeypatch):
        # exp(-z^2) overflows at the seed; no iteration can recover from it
        calls = count_eps_calls(monkeypatch)
        params = PlasmaParams(x_p=1.0, y=0.01)
        with pytest.raises(ConvergenceError) as err:
            solve_root(params, 0.3 * SQRT2, ModelKind.CLASSICAL, guess=1 - 50j)
        assert calls[0] <= 4
        assert err.value.last_omega == 1 - 50j

    def test_overflow_is_the_named_cause(self):
        params = PlasmaParams(x_p=1.0, y=0.01)
        with pytest.raises(ConvergenceError) as err:
            solve_root(params, 0.3 * SQRT2, ModelKind.CLASSICAL, guess=1 - 50j)
        assert isinstance(err.value.__cause__, OverflowError)
        assert str(err.value.__cause__) in str(err.value)

    @pytest.mark.parametrize("model, x_p, kappa", [
        (ModelKind.QUANTUM, 6.5, 0.36),
        (ModelKind.QUANTUM, 9.5, 0.45),
        (ModelKind.MERMIN, 5.0, 0.45),
        (ModelKind.MERMIN, 8.0, 0.4),
    ])
    def test_cold_start_beyond_long_waves_matches_continuation(self, model, x_p, kappa):
        # q > 2 here, where the quantum factor 1 - q^2/4 of the damping
        # decrement is negative; the default seed must stay below the axis
        params = PlasmaParams(x_p=x_p, y=1e-6)
        kD = params.debye_wavenumber
        assert kappa * kD > 2.0
        cold = solve_root(params, kappa * kD, model)
        continued = trace_branch(params, 0.1 * kD, kappa * kD, 9, model)[-1]
        assert abs(cold.omega - continued.omega) <= 1e-10 * abs(continued.omega)

    @pytest.mark.parametrize("model, q, guess", [
        (ModelKind.QUANTUM, 0.1 * SQRT2, None),
        (ModelKind.CLASSICAL, 0.3 * SQRT2, None),
        (ModelKind.MERMIN, 0.3 * SQRT2, 1.2 - 0.01j),
        (ModelKind.CLASSICAL, 0.3 * SQRT2, 1.2 - 0.01j),
    ])
    def test_evaluations_count_every_eps_call(self, model, q, guess, monkeypatch):
        calls = count_eps_calls(monkeypatch)
        params = PlasmaParams(x_p=1.0, y=0.01)
        root = solve_root(params, q, model, guess=guess)
        assert root.evaluations == calls[0]
        # two start points, one evaluation per step, at most one polish
        assert 2 + root.iterations <= root.evaluations <= 3 + root.iterations
        # polished or not, the residual is |eps| at the returned root
        assert root.residual == abs(dispersion._eps_core(model)(params.x_p, params.y, root.omega, q))

    @pytest.mark.parametrize("model, q, guess, slope", [
        (ModelKind.QUANTUM, 0.1 * SQRT2, 1.0 - 0.005j, 2.0),
        (ModelKind.MERMIN, 0.3 * SQRT2, 1.2 - 0.01j, 2.4 - 0.26j),
        (ModelKind.CLASSICAL, 0.3 * SQRT2, 1.2 - 0.01j, 2.4 - 0.26j),
    ])
    def test_slope_start_counts_every_eps_call(self, model, q, guess, slope, monkeypatch):
        calls = count_eps_calls(monkeypatch)
        params = PlasmaParams(x_p=1.0, y=0.01)
        root = dispersion._solve(params, q, model, guess, slope, dispersion._eps_core(model))
        assert root.evaluations == calls[0]
        # one start point, one evaluation per step, at most one polish
        assert 1 + root.iterations <= root.evaluations <= 2 + root.iterations
        assert root.residual == abs(dispersion._eps_core(model)(params.x_p, params.y, root.omega, q))

    @pytest.mark.parametrize("polish", [False, True])
    def test_seed_at_root_returns_or_polishes_by_the_slope(self, polish, monkeypatch):
        # a seed already at its rounding floor returns after one evaluation;
        # with a zero floor it is polished by the slope step from its one point
        params = PlasmaParams(x_p=1.0, y=0.01)
        q, model = 0.3 * SQRT2, ModelKind.CLASSICAL
        found = solve_root(params, q, model)
        assert found.slope is not None
        at_seed = abs(dispersion._eps_core(model)(params.x_p, params.y, found.omega, q))
        assert at_seed <= dispersion._ROUNDING_FLOOR
        if polish:
            monkeypatch.setattr("qplasma.dispersion._ROUNDING_FLOOR", 0.0)
        calls = count_eps_calls(monkeypatch)
        root = dispersion._solve(params, q, model, found.omega, found.slope,
                                 dispersion._eps_core(model))
        assert root.iterations == 0
        assert root.evaluations == calls[0] == 1 + polish
        assert root.residual <= at_seed
        assert root.slope == found.slope  # one point before the polish: no secant
        if not polish:
            assert root.omega == found.omega

    @pytest.mark.parametrize("q, kwargs, message", [
        (math.inf, {}, "q must be finite"),
        (math.nan, {}, "q must be finite"),
        (0.3, {"guess": complex(math.nan, 0.0)}, "guess must be finite"),
        (0.3, {"guess": math.inf}, "guess must be finite"),
    ])
    def test_bad_input_names_its_argument(self, q, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            solve_root(PlasmaParams(x_p=1.0, y=0.01), q, ModelKind.QUANTUM, **kwargs)

    def test_unsupported_model_rejected(self):
        with pytest.raises(ValueError):
            solve_root(PlasmaParams(1.0, 0.1), 0.5, ModelKind.DRUDE)
        with pytest.raises(ValueError):
            solve_root(PlasmaParams(1.0, 0.1), 0.0, ModelKind.QUANTUM)

    def test_mermin_model_solvable(self):
        params = PlasmaParams(x_p=1.0, y=0.01)
        root = solve_root(params, 0.3 * SQRT2, ModelKind.MERMIN)
        assert root.residual <= 1e-12

    def test_collision_shift_tracks_half_y(self):
        params_lo = PlasmaParams(x_p=1.0, y=1e-6)
        params_hi = PlasmaParams(x_p=1.0, y=1e-2)
        q = 0.1 * SQRT2
        lo = solve_root(params_lo, q, ModelKind.CLASSICAL)
        hi = solve_root(params_hi, q, ModelKind.CLASSICAL)
        shift = hi.omega.imag - lo.omega.imag
        expected = -0.5 * (1e-2 - 1e-6)
        assert abs(shift - expected) <= 0.1 * abs(expected)

    def test_classical_equals_quantum_in_series_branch(self):
        # at q = 5e-5 the quantum kernel's q^2 correction is ~1e-9 and the
        # roots must coincide to 1e-6
        params = PlasmaParams(x_p=1.0, y=1e-4)
        q = 0.5 * 1e-4
        rc = solve_root(params, q, ModelKind.CLASSICAL)
        rq = solve_root(params, q, ModelKind.QUANTUM)
        assert abs(rc.omega - rq.omega) <= 1e-6


    def test_tiny_q_cold_start(self):
        # default_guess's decrement raised OverflowError below q ~ 1.8e-103
        # k_D; at q = 1e-100 the same solve converged
        params = PlasmaParams(1.0, 0.1)
        for q in (1e-100, 1e-110, 1e-150):
            root = solve_root(params, q, ModelKind.QUANTUM)
            assert root.residual <= 1e-12
            # the long-wave root of omega (omega + i y) = x_p^2
            assert root.omega == pytest.approx(math.sqrt(1.0 - 0.0025) - 0.05j, rel=1e-12)
        roots = trace_branch(params, 1e-120, 1e-110, 3, ModelKind.CLASSICAL)
        assert len(roots) == 3 and roots[-1].q == 1e-110


class TestTraceBranch:
    def test_degenerate_two_point_trace(self):
        params = PlasmaParams(x_p=1.0, y=0.01)
        roots = trace_branch(params, 0.2 * SQRT2, 0.3 * SQRT2, 2, ModelKind.CLASSICAL)
        assert len(roots) == 2
        assert all(r.residual <= 1e-12 for r in roots)
        assert roots[0].q < roots[1].q

    def test_grid_ends_on_q_end_exactly(self):
        # the inner points are q_start + (q_end - q_start) i/(n - 1), which
        # at i = n - 1 here gives 0.89999999999999991, not q_end
        roots = trace_branch(PlasmaParams(1.0, 1e-3), 0.2, 0.9, 8, ModelKind.QUANTUM)
        assert [r.q for r in roots] == [0.2 + (0.9 - 0.2) * i / 7 for i in range(7)] + [0.9]

    def test_damping_grows_with_wavenumber(self):
        params = PlasmaParams(x_p=1.0, y=1e-8)
        roots = trace_branch(params, 0.1 * SQRT2, 0.5 * SQRT2, 9, ModelKind.CLASSICAL)
        mags = [abs(r.omega.imag) for r in roots]
        assert all(a < b for a, b in zip(mags, mags[1:]))

    def test_quantum_branch_sits_above_classical(self):
        params = PlasmaParams(x_p=1.0, y=1e-8)  # Q = 2
        qs = (0.1 * SQRT2, 0.5 * SQRT2)
        quantum = trace_branch(params, *qs, 9, ModelKind.QUANTUM)
        classical = trace_branch(params, *qs, 9, ModelKind.CLASSICAL)
        gaps = [rq.omega.real - rc.omega.real for rq, rc in zip(quantum, classical)]
        assert all(g > 0 for g in gaps)
        assert all(a < b for a, b in zip(gaps, gaps[1:]))

    def test_solve_failure_raises_branch_loss_with_its_q(self, monkeypatch):
        q_fail = 0.33 * SQRT2  # between the grid points 0.3 and 0.35 (x SQRT2)
        solve = dispersion._solve

        def failing_above(params, q, model, *args):
            if q > q_fail:
                raise ConvergenceError("forced failure", 0j, 1.0)
            return solve(params, q, model, *args)

        monkeypatch.setattr("qplasma.dispersion._solve", failing_above)
        params = PlasmaParams(x_p=1.0, y=0.01)
        with pytest.raises(BranchLossError) as err:
            trace_branch(params, 0.2 * SQRT2, 0.5 * SQRT2, 7, ModelKind.CLASSICAL)
        assert q_fail < err.value.q <= 0.35 * SQRT2

    def test_runaway_root_stops_within_the_solve_budget(self, monkeypatch):
        # the root moves as exp(1900 (q - 0.1)): a tame step is 5e-5 wide,
        # so q = 0.1..0.2 would need about 2000 solves; solve_root's cold
        # start enters the private loop too
        solved = []

        def runaway(params, q, model, *args):
            solved.append(q)
            return DispersionRoot(q, cmath.exp(1900.0 * (q - 0.1)), 0.0, 0)

        monkeypatch.setattr("qplasma.dispersion._solve", runaway)
        with pytest.raises(BranchLossError) as err:
            trace_branch(PlasmaParams(1.0, 0.0), 0.1, 0.2, 2, ModelKind.CLASSICAL)
        assert len(solved) <= 1 + dispersion._SOLVES_PER_STEP
        assert 0.1 < err.value.q <= 0.2

    def test_halving_solves_in_depth_first_order(self, monkeypatch):
        # a solver that converges only from a seed within 18% of q, standing
        # in for solve_root's cold start (no guess) and the private loop's
        # grid and halved steps (a seed)
        solved = []

        def near_seed_only(params, q, model, guess=None, *args):
            solved.append(q)
            if guess is not None and q - (-guess.imag) > 0.18 * -guess.imag:
                raise ConvergenceError("seed too far", guess, 1.0)
            return DispersionRoot(q, complex(1.0, -q), 0.0, 0)

        monkeypatch.setattr("qplasma.dispersion.solve_root", near_seed_only)
        monkeypatch.setattr("qplasma.dispersion._solve", near_seed_only)
        roots = trace_branch(PlasmaParams(1.0, 0.0), 0.1, 0.2, 2, ModelKind.CLASSICAL)
        assert [r.q for r in roots] == [0.1, 0.2]
        assert solved == [0.1, 0.2, 0.15000000000000002, 0.125, 0.1125, 0.125,
                          0.15000000000000002, 0.1375, 0.15000000000000002,
                          0.2, 0.17500000000000002, 0.2]

    @pytest.mark.parametrize("model", [ModelKind.QUANTUM, ModelKind.CLASSICAL,
                                       ModelKind.MERMIN])
    def test_eps_evaluations_per_root_bounded(self, model, monkeypatch):
        calls = count_eps_calls(monkeypatch)
        params = PlasmaParams(x_p=1.0, y=1e-8)
        roots = trace_branch(params, 0.1 * SQRT2, 0.5 * SQRT2, 9, model)
        assert calls[0] <= 8 * len(roots)
        # seeds through every root before (at most eight here; sixth-order
        # seeds read the same) and the carried slope: 4.9 evaluations per
        # root on these 9 points, extrapolated slope or not, against 5.3-5.4
        # from third-order seeds and two start points, and 6.7 with the
        # previous root as the seed and three start points
        assert calls[0] <= 6 * len(roots)
        assert calls[0] == sum(r.evaluations for r in roots)

    @pytest.mark.parametrize("model", [ModelKind.QUANTUM, ModelKind.CLASSICAL,
                                       ModelKind.MERMIN])
    def test_long_branch_costs_at_most_four_evaluations_per_root(self, model,
                                                                 monkeypatch):
        # 3.20-3.32 per root (quantum 3.32, classical 3.20, Mermin 3.29)
        # from twelfth-order seeds and the slope extrapolated through the
        # last four roots' slopes, 3.37-3.46 from sixth-order seeds,
        # 3.68-3.73 with the previous root's slope carried unchanged, 4.51
        # from third-order seeds and two start points
        calls = count_eps_calls(monkeypatch)
        params = PlasmaParams(x_p=1.0, y=1e-3)
        kD = params.debye_wavenumber
        roots = trace_branch(params, 0.1 * kD, 0.5 * kD, 41, model)
        assert len(roots) == 41
        assert calls[0] <= 3.32 * len(roots)

    def test_workload_domain_solves_once_per_grid_point(self, monkeypatch):
        # 90 branches drawn as the benchmark's branches workload draws them
        # (x_p 0.3-10, y 1e-8-0.1, windows in k/k_D from 0.05 to 0.7, 41
        # points): one private-loop solve per grid point, the cold start
        # included, so no step was halved, and no solve failed; the traced
        # solve_root spans see the cold starts only
        solve, solves, failures = dispersion._solve, [0], []

        def counted(*args):
            solves[0] += 1
            try:
                return solve(*args)
            except (ConvergenceError, NonPhysicalRootError) as exc:
                failures.append((args[1], args[2], exc))
                raise

        monkeypatch.setattr(dispersion, "_solve", counted)
        rng = random.Random("trace_branch workload domain")
        models = (ModelKind.QUANTUM, ModelKind.CLASSICAL, ModelKind.MERMIN)
        for i in range(90):
            params = PlasmaParams(10.0 ** rng.uniform(math.log10(0.3), 1.0),
                                  10.0 ** rng.uniform(-8.0, -1.0))
            kD = params.debye_wavenumber
            lo = rng.uniform(0.05, 0.2)
            hi = lo + rng.uniform(0.2, 0.5)
            solves[0] = 0
            roots = trace_branch(params, lo * kD, hi * kD, 41, models[i % 3])
            assert len(roots) == solves[0] == 41, (params, lo, hi, models[i % 3])
        assert failures == []

    @pytest.mark.parametrize("model", [ModelKind.LINDHARD, ModelKind.STATIC,
                                       ModelKind.DRUDE, "drude"])
    def test_unsolvable_model_refused_before_any_eps(self, model, monkeypatch):
        calls = count_eps_calls(monkeypatch)
        with pytest.raises(ValueError, match="^solve_root supports"):
            trace_branch(PlasmaParams(1.0, 0.01), 0.2, 0.5, 5, model)
        assert calls[0] == 0

    @pytest.mark.parametrize("model", [ModelKind.QUANTUM, ModelKind.CLASSICAL,
                                       ModelKind.MERMIN])
    def test_roots_against_mpmath_findroot(self, model):
        # a root that stops at |eps| <= 1e-12 was up to 2.0e-14 off here; the
        # polish above the rounding floor brings each within 4.3e-15 (quantum
        # and Mermin at q = 0.212, where double eps is 8.1e-15 at the exact
        # root).  On |omega| this is tighter than the root Im cell wherever
        # |Im omega| > 6e-6 |omega|, from k = 0.2 k_D on
        params = PlasmaParams(x_p=1.0, y=1e-8)
        for root in trace_branch(params, 0.1 * SQRT2, 0.5 * SQRT2, 9, model):
            ref = mpref.root(model.value, params.x_p, params.y, root.q, root.omega)
            assert abs(root.omega - ref) <= 5e-15 * abs(ref)

    def test_invalid_ranges_rejected(self):
        params = PlasmaParams(x_p=1.0, y=0.01)
        with pytest.raises(ValueError):
            trace_branch(params, 0.5, 0.2, 5, ModelKind.CLASSICAL)
        with pytest.raises(ValueError):
            trace_branch(params, 0.0, 0.2, 5, ModelKind.CLASSICAL)
        with pytest.raises(ValueError):
            trace_branch(params, 0.1, 0.2, 1, ModelKind.CLASSICAL)

    @pytest.mark.parametrize("q_start, q_end, name", [
        (0.2, math.inf, "q_end"),
        (0.2, math.nan, "q_end"),
        (math.nan, 0.5, "q_start"),
        (-math.inf, 0.5, "q_start"),
    ])
    def test_nonfinite_range_names_its_end(self, q_start, q_end, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            trace_branch(PlasmaParams(1.0, 0.01), q_start, q_end, 3, ModelKind.CLASSICAL)

    @pytest.mark.parametrize("n_points", [5.0, True, "5", None])
    def test_non_integer_point_count_rejected(self, n_points):
        with pytest.raises(ValueError, match="^n_points must be an integer"):
            trace_branch(PlasmaParams(1.0, 0.01), 0.2, 0.5, n_points, ModelKind.CLASSICAL)

    @pytest.mark.parametrize("q_end, n_points", [
        (math.nextafter(0.3, 1.0), 5),  # the grid held 0.3 twice
        (math.nextafter(math.nextafter(0.3, 1.0), 1.0), 4),
    ])
    def test_range_too_narrow_for_distinct_points_rejected(self, q_end, n_points, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved on a grid with repeated q")

        monkeypatch.setattr(dispersion, "solve_root", no_solve)
        with pytest.raises(ValueError, match=re.escape(
                f"q range [0.3, {q_end!r}] is too narrow for {n_points} distinct grid points")):
            trace_branch(PlasmaParams(1.0, 0.01), 0.3, q_end, n_points, ModelKind.QUANTUM)

    def test_adjacent_floats_hold_two_points(self):
        q_end = math.nextafter(0.3, 1.0)
        roots = trace_branch(PlasmaParams(1.0, 0.01), 0.3, q_end, 2, ModelKind.QUANTUM)
        assert [r.q for r in roots] == [0.3, q_end]

    def test_grid_is_scan_specs_q_sweep(self, monkeypatch):
        # the root q values are ScanSpec's linear q grid over the same range,
        # bit for bit, and both refuse the same ranges with their own words:
        # seeded wide ranges, 2-point grids, and for each n the narrowest
        # range that holds n distinct points beside the one a float narrower
        def spec(q_start, q_end, n):
            return ScanSpec(models=(ModelKind.QUANTUM,), fixed={"x_p": 1.0, "y": 0.01, "x": 1.0},
                            sweep_var="q", sweep_range=(q_start, q_end), n=n)

        def accepts(q_start, q_end, n):
            try:
                spec(q_start, q_end, n)
            except ValueError:
                return False
            return True

        # every solve converges at once on the grid point it is given
        monkeypatch.setattr(dispersion, "_solve", lambda params, q, model, *args:
                            DispersionRoot(q, 1.0 + 0j, 0.0, 0, 1, 1.0 + 0j))
        rng = random.Random("trace_branch grid")
        cases = []
        for _ in range(60):
            q_start, n = 10.0 ** rng.uniform(-3.0, 1.0), rng.choice((2, 3, 4, 7, 41))
            cases.append((q_start, q_start * (1.0 + 10.0 ** rng.uniform(-12.0, 1.0)), n))
            cases.append((q_start, math.nextafter(q_start, math.inf), 2))
            q_end = math.nextafter(q_start, math.inf)
            while not accepts(q_start, q_end, n):
                q_end = math.nextafter(q_end, math.inf)
            if math.nextafter(q_end, 0.0) > q_start:
                cases += [(q_start, q_end, n), (q_start, math.nextafter(q_end, 0.0), n)]
        refused = 0
        for q_start, q_end, n in cases:
            try:
                grid = spec(q_start, q_end, n).grid()
            except ValueError as exc:
                assert str(exc) == (f"sweep range [{q_start!r}, {q_end!r}] is too narrow "
                                    f"for {n} distinct grid points")
                with pytest.raises(ValueError, match=re.escape(
                        f"q range [{q_start!r}, {q_end!r}] is too narrow for {n} "
                        "distinct grid points")):
                    trace_branch(PlasmaParams(1.0, 0.01), q_start, q_end, n, ModelKind.QUANTUM)
                refused += 1
                continue
            roots = trace_branch(PlasmaParams(1.0, 0.01), q_start, q_end, n, ModelKind.QUANTUM)
            assert [r.q for r in roots] == grid
        assert 40 <= refused <= len(cases) - 100


class TestPrivateLoop:
    # trace_branch's grid solves skip solve_root's checks; from the same
    # seed they must give solve_root's root, field for field

    @staticmethod
    def _outcome(solve, *args):
        try:
            root = solve(*args)
        except (ConvergenceError, NonPhysicalRootError) as exc:
            return type(exc), str(exc)
        return tuple(getattr(root, name) for name in DispersionRoot.__slots__)

    @pytest.mark.parametrize("model", [ModelKind.QUANTUM, ModelKind.CLASSICAL,
                                       ModelKind.MERMIN])
    def test_equals_solve_root_from_the_same_seed_and_slope(self, model):
        # seeded branch states: the roots found so far on a drawn branch,
        # the extrapolated seed of the next grid point and the halved steps'
        # seed (the previous root), each also mirrored above the real axis,
        # each a two-point start, as solve_root's
        rng = random.Random(f"private loop {model.value}")
        eps = dispersion._eps_core(model)
        converged_below = set()  # Im seed < 0 of the starts that converged
        for _ in range(6):
            params = PlasmaParams(10.0 ** rng.uniform(math.log10(0.3), 1.0),
                                  10.0 ** rng.uniform(-8.0, -1.0))
            kD = params.debye_wavenumber
            lo = rng.uniform(0.05, 0.2)
            roots = trace_branch(params, lo * kD, (lo + rng.uniform(0.2, 0.5)) * kD, 21, model)
            for k in rng.sample(range(1, len(roots)), 4):
                seed = dispersion._extrapolate(roots[:k])[0]
                prev, q = roots[k - 1].omega, roots[k].q
                for guess in (seed, seed.conjugate(), prev, prev.conjugate()):
                    loop = self._outcome(dispersion._solve, params, q, model, guess, None, eps)
                    assert loop == self._outcome(solve_root, params, q, model, guess)
                    if not isinstance(loop[0], type):
                        converged_below.add(guess.imag < 0)
        assert converged_below == {True, False}


class TestExtrapolate:
    @pytest.mark.parametrize("m", range(1, dispersion._SEED_ORDER + 1))
    def test_reproduces_a_polynomial_through_m_roots(self, m):
        # the seed through m uniform roots is exact for degree m - 1, and the
        # slope through min(m, 4) slopes for degree min(m, 4) - 1, to the
        # rounding of weights that sum to 1 in absolute value 2^m - 1 (and
        # 2^min(m, 4) - 1): at m = 1-12 it read at most 0.73 ulps of the
        # largest value per unit of that sum on the seed, 1.07 on the slope
        coeffs = [complex(1.3 - 0.2 * j, 0.1 * j - 0.05) for j in range(m)]
        slope_coeffs = [complex(2.4 + 0.3 * j, 0.2 - 0.1 * j) for j in range(min(m, 4))]

        def poly(cs, q):
            return sum(c * q ** j for j, c in enumerate(cs))

        qs = [0.3 + 0.05 * i for i in range(m + 3)]
        roots = [DispersionRoot(q, poly(coeffs, q), 0.0, 0, 1, poly(slope_coeffs, q))
                 for q in qs]
        for n in range(m, len(qs)):
            seed, slope = dispersion._extrapolate(roots[:n])
            assert abs(seed - poly(coeffs, qs[n])) <= (
                (2 ** m - 1) * 2.2e-16 * max(abs(r.omega) for r in roots))
            assert abs(slope - poly(slope_coeffs, qs[n])) <= (
                2 * (2 ** min(m, 4) - 1) * 2.2e-16 * max(abs(r.slope) for r in roots))

    # slope fields of the roots found so far, oldest first, and the slope the
    # next solve must be given: the extrapolation, or the last slope where a
    # slope in the window is None or the extrapolation is 0 or not finite
    SLOPE_CASES = [
        pytest.param([1.0, 2.0, 3.0], 4.0, id="extrapolated"),
        pytest.param([2.0, 1.0], 1.0, id="zero"),
        pytest.param([2.0 - 1j, 1.0 - 0.5j], 1.0 - 0.5j, id="zero-complex"),
        pytest.param([None, 1.0, 2.0], 2.0, id="none-in-window"),
        pytest.param([None, 1.0, 2.0, 3.0, 4.0], 5.0, id="none-outside-window"),
        pytest.param([1.0, 1.0, None], None, id="none-last"),
        pytest.param([-1e308, 1e308], 1e308, id="overflow"),
        pytest.param([1.0, 1e308, 1e308], 1e308, id="nan"),
    ]

    @pytest.mark.parametrize("slopes, expected", SLOPE_CASES)
    def test_slope_falls_back_to_the_last(self, slopes, expected):
        roots = [DispersionRoot(0.1 * (i + 1), complex(1.0 + 0.01 * i, -0.01), 0.0, 0, 1, s)
                 for i, s in enumerate(slopes)]
        assert dispersion._extrapolate(roots)[1] == expected

    @pytest.mark.parametrize("slopes, expected", SLOPE_CASES)
    def test_trace_branch_gives_solve_root_only_valid_slopes(self, slopes, expected,
                                                            monkeypatch):
        # a stand-in for solve_root's cold start and the private loop's grid
        # solves whose roots carry the scripted slope fields; each slope it
        # is given must be None or finite and nonzero
        given = []

        def scripted(params, q, model, guess=None, slope=None, eps=None):
            assert slope is None or (slope != 0 and cmath.isfinite(slope))
            given.append(slope)
            i = len(given) - 1
            return DispersionRoot(q, complex(1.0 + 0.01 * i, -0.01), 0.0, 0, 1,
                                  slopes[i] if i < len(slopes) else None)

        monkeypatch.setattr("qplasma.dispersion.solve_root", scripted)
        monkeypatch.setattr("qplasma.dispersion._solve", scripted)
        n = len(slopes) + 1
        trace_branch(PlasmaParams(1.0, 0.0), 0.1, 0.1 * n, n, ModelKind.CLASSICAL)
        assert len(given) == n
        assert given[0] is None  # the cold start
        assert given[-1] == expected


class TestDegenerateSteps:
    # the solver's fallbacks where a step has no defined next point; no
    # workload reaches them

    NUDGED = 2.0 * (1.0 + 1e-6) + 1e-12  # x_last (1 + 1e-6) + 1e-12 at x_last = 2

    def test_secant_with_equal_values_nudges_the_last_point(self):
        assert dispersion._next_omega([(1.0 + 0j, 0.5j), (2.0 + 0j, 0.5j)], None) == self.NUDGED

    @pytest.mark.parametrize("xs", [(2.0, 2.0, 2.0), (1.0, 1.0, 2.0), (1.0, 2.0, 2.0)])
    def test_muller_with_repeated_points_nudges_the_last(self, xs):
        points = [(complex(x), complex(f)) for x, f in zip(xs, (3.0, 2.0, 1.0))]
        assert dispersion._next_omega(points, None) == self.NUDGED

    def test_muller_with_zero_denominator_nudges_the_last_point(self):
        # x = 0, 1, 2 and f = 4, 1, 0: b = f0 - 4 f1 = 0 and c = 2 f2 = 0,
        # so b +- sqrt(b^2 - 4ac) are both 0
        points = [(complex(x), complex(f)) for x, f in ((0.0, 4.0), (1.0, 1.0), (2.0, 0.0))]
        assert dispersion._next_omega(points, None) == self.NUDGED

    def test_last_slope_of_a_repeated_point_is_none(self):
        assert dispersion._last_slope([(1.0 + 0j, 1j), (1.0 + 0j, 2j)], 3.0) is None
        assert dispersion._last_slope([(1.0 + 0j, 1j)], 3.0) == 3.0

    def test_polish_that_raises_keeps_the_converged_root(self):
        # |eps| = 1e-13 at the seed: converged, and above the rounding floor,
        # so one polish step follows; eps raises there, and the root stays
        # at the seed
        seed = 1.2 - 0.01j

        def stand_in(x_p, y, omega, q):
            if omega == seed:
                return 1e-13 + 0j
            raise OverflowError("stand-in leaves range")

        root = dispersion._solve(PlasmaParams(1.0, 0.01), 0.3, ModelKind.QUANTUM, seed,
                                 1.0 + 0j, stand_in)
        assert (root.omega, root.residual, root.iterations, root.evaluations) == (
            seed, 1e-13, 0, 2)


class TestEpsRaises:
    # where eps raises, the solve ends in a ConvergenceError naming the
    # omega where it raised and the last point evaluated before it: at the
    # spread start, before any point, that is the seed at |eps| = inf

    SEED = 1.2 - 0.01j

    def _solve(self, raise_at: int, slope=None):
        omegas = []

        def stand_in(x_p, y, omega, q):
            omegas.append(omega)
            if len(omegas) == raise_at:
                raise OverflowError("stand-in leaves range")
            return (omega - 1.1) * (omega + 3.0)

        with pytest.raises(ConvergenceError) as raised:
            dispersion._solve(PlasmaParams(1.0, 0.01), 0.3, ModelKind.QUANTUM, self.SEED,
                              slope, stand_in)
        return raised.value, omegas

    @staticmethod
    def _expected(at, last_omega, residual):
        return (f"eps of quantum model raised OverflowError: stand-in leaves range "
                f"at omega={at!r} (last omega={last_omega!r}, |eps|={residual:.3e})")

    def test_at_the_spread_start(self):
        err, omegas = self._solve(1)
        assert omegas == [self.SEED + 1e-3 * abs(self.SEED)]
        assert (err.last_omega, err.residual) == (self.SEED, math.inf)
        assert str(err) == self._expected(omegas[0], self.SEED, math.inf)

    def test_at_the_seed(self):
        err, omegas = self._solve(2)
        start = omegas[0]
        residual = abs((start - 1.1) * (start + 3.0))
        assert omegas[1] == self.SEED
        assert (err.last_omega, err.residual) == (start, residual)
        assert str(err) == self._expected(self.SEED, start, residual)

    def test_at_the_seed_of_a_slope_start(self):
        err, omegas = self._solve(1, slope=4.0 + 0j)
        assert omegas == [self.SEED]
        assert (err.last_omega, err.residual) == (self.SEED, math.inf)
        assert str(err) == self._expected(self.SEED, self.SEED, math.inf)

    @pytest.mark.parametrize("raise_at", [3, 4])
    def test_at_a_loop_step(self, raise_at):
        # the secant step, then the first Muller step
        err, omegas = self._solve(raise_at)
        last = omegas[-2]
        residual = abs((last - 1.1) * (last + 3.0))
        assert (err.last_omega, err.residual) == (last, residual)
        assert str(err) == self._expected(omegas[-1], last, residual)
