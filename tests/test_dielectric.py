"""Tests for the permittivity models and their limits/degeneracies."""

import cmath
import math
import random
import re
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import IntegrationWarning, quad

from qplasma.dielectric import (
    ModelKind,
    PlasmaParams,
    QueryPoint,
    conductivity,
    epsilon_classical,
    epsilon_drude,
    epsilon_lindhard,
    epsilon_mermin,
    epsilon_quantum,
    epsilon_static,
    eps_classical_omega,
    eps_mermin_omega,
    eps_quantum_omega,
    evaluate,
    mermin_static_denominator,
)
from qplasma.dispersion import (
    default_guess,
    gamma_asymptotic,
    omega_asymptotic,
    solve_root,
    trace_branch,
)
from qplasma.scan import ScanSpec, run_roots
from qplasma.special_functions import (
    _MIN_NORMAL,
    dawson,
    faddeeva_w,
    lambda0,
    plasma_t,
    t_derivatives,
    t_diff_and_lambda0,
    t_diff_over_q,
)

import mpref
from conftest import assert_cclose
from oracle import quad_epsilon_quantum
from qplasma import dielectric, dispersion, special_functions

# regression baseline, pinned from the first converged implementation run:
# the quantum and Mermin models legitimately differ at this point
MERMIN_GOLDEN = -0.3785793565894593 + 0.6707245791560104j
MERMIN_QUANTUM_GAP = 1.615348e-3
# epsilon_static(1, y, 1e-3) at v = y/q = 142 and 1000, mpmath at 60 digits
STATIC_LARGE_V = {
    0.142: 2000000.9999752075525,
    1.0: 2000000.9999994999185,
}


def _fixed_z_points(z: complex, q: float, x_p: float = 1.0):
    params = PlasmaParams(x_p=x_p, y=z.imag * q)
    point = QueryPoint(x=z.real * q, q=q)
    return params, point


class TestDomainTypes:
    def test_derived_quantities(self):
        p = PlasmaParams(x_p=1.5, y=0.0)
        assert p.quantum_parameter == 3.0
        assert p.debye_wavenumber == pytest.approx(1.5 * math.sqrt(2.0), rel=1e-15)

    @pytest.mark.parametrize("kwargs", [
        {"x_p": -1.0, "y": 0.1},
        {"x_p": 1.0, "y": -0.1},
        {"x_p": math.nan, "y": 0.1},
    ])
    def test_params_validation(self, kwargs):
        with pytest.raises(ValueError):
            PlasmaParams(**kwargs)

    def test_point_validation(self):
        with pytest.raises(ValueError):
            QueryPoint(x=1.0, q=-0.5)
        with pytest.raises(ValueError):
            QueryPoint(x=math.inf, q=0.5)

    def test_z_requires_positive_q(self):
        assert QueryPoint(x=1.0, q=0.5).z(0.1) == (1.0 + 0.1j) / 0.5
        with pytest.raises(ValueError):
            QueryPoint(x=1.0, q=0.0).z(0.1)

    @pytest.mark.parametrize("make", [lambda v: PlasmaParams(v, v),
                                      lambda v: QueryPoint(v, v)])
    def test_records_store_floats_after_their_checks(self, make):
        # numpy and int inputs are stored as the float they equal; a str is
        # refused by the checks, not converted
        for v in (np.float64(0.25), np.float32(0.25), 1, True):
            record = make(v)
            assert [type(f) for f in record._values()] == [float, float]
            assert record._values() == (float(v), float(v))
        with pytest.raises(TypeError):
            make("0.25")


@pytest.mark.parametrize("fn", [
    lambda q: t_diff_over_q(1 + 1j, q),
    lambda q: t_diff_and_lambda0(1 + 1j, q),
    lambda q: eps_quantum_omega(1.0, 0.1, 1.0, q),
    lambda q: eps_classical_omega(1.0, 0.1, 1.0, q),
    lambda q: eps_mermin_omega(1.0, 0.1, 1.0, q),
    lambda q: epsilon_static(1.0, 0.1, q),
    lambda q: epsilon_lindhard(1.0, 1.0, q),
    mermin_static_denominator,
    lambda q: gamma_asymptotic(PlasmaParams(1.0, 0.1), q),
    lambda q: solve_root(PlasmaParams(1.0, 0.1), q, ModelKind.QUANTUM),
], ids=["t_diff_over_q", "t_diff_and_lambda0", "eps_quantum_omega",
        "eps_classical_omega", "eps_mermin_omega", "epsilon_static",
        "epsilon_lindhard", "mermin_static_denominator", "gamma_asymptotic",
        "solve_root"])
@pytest.mark.parametrize("q", [0.0, -0.5, math.inf, math.nan])
def test_one_q_rule(fn, q):
    # every function that takes a wave number q applies the one rule
    # 0 < q < inf; at q = inf the eps cores returned 1, gamma_asymptotic nan
    with pytest.raises(ValueError, match="^q must be finite and > 0"):
        fn(q)


#: each public function with one of its number arguments, given as s
_STR_CASES = {
    "faddeeva_w": faddeeva_w,
    "plasma_t": plasma_t,
    "lambda0": lambda0,
    "dawson": dawson,
    "t_derivatives": lambda s: t_derivatives(s, 1),
    "t_diff_over_q z": lambda s: t_diff_over_q(s, 0.5),
    "t_diff_over_q q": lambda s: t_diff_over_q(1 + 1j, s),
    "t_diff_and_lambda0 z": lambda s: t_diff_and_lambda0(s, 0.5),
    "t_diff_and_lambda0 q": lambda s: t_diff_and_lambda0(1 + 1j, s),
    "mermin_static_denominator": mermin_static_denominator,
    "PlasmaParams x_p": lambda s: PlasmaParams(s, 0.1),
    "PlasmaParams y": lambda s: PlasmaParams(1.0, s),
    "QueryPoint x": lambda s: QueryPoint(s, 0.5),
    "QueryPoint q": lambda s: QueryPoint(1.0, s),
    **{f"{f.__name__} {arg}": (lambda s, f=f, i=i: f(*[s if j == i else v for j, v in
                                                       enumerate((1.0, 0.1, 1.0, 0.5))]))
       for f in (eps_quantum_omega, eps_classical_omega, eps_mermin_omega)
       for i, arg in enumerate(("x_p", "y", "omega", "q"))},
    "epsilon_lindhard x_p": lambda s: epsilon_lindhard(s, 1.0, 0.5),
    "epsilon_lindhard x": lambda s: epsilon_lindhard(1.0, s, 0.5),
    "epsilon_lindhard q": lambda s: epsilon_lindhard(1.0, 1.0, s),
    "epsilon_static x_p": lambda s: epsilon_static(s, 0.1, 0.5),
    "epsilon_static y": lambda s: epsilon_static(1.0, s, 0.5),
    "epsilon_static q": lambda s: epsilon_static(1.0, 0.1, s),
    "epsilon_drude x_p": lambda s: epsilon_drude(s, 1.0, 0.1),
    "epsilon_drude x": lambda s: epsilon_drude(1.0, s, 0.1),
    "epsilon_drude y": lambda s: epsilon_drude(1.0, 1.0, s),
    "omega_asymptotic k/k_D": lambda s: omega_asymptotic(s, 2.0),
    "omega_asymptotic Q": lambda s: omega_asymptotic(0.1, s),
    "gamma_asymptotic": lambda s: gamma_asymptotic(PlasmaParams(1.0, 0.1), s),
    "default_guess": lambda s: default_guess(PlasmaParams(1.0, 0.01), s, ModelKind.QUANTUM),
    "solve_root q": lambda s: solve_root(PlasmaParams(1.0, 0.01), s, ModelKind.QUANTUM),
    "solve_root guess": lambda s: solve_root(PlasmaParams(1.0, 0.01), 0.3, ModelKind.QUANTUM,
                                             guess=s),
    "trace_branch q_start": lambda s: trace_branch(PlasmaParams(1.0, 0.01), s, 0.5, 3,
                                                   ModelKind.QUANTUM),
    "trace_branch q_end": lambda s: trace_branch(PlasmaParams(1.0, 0.01), 0.3, s, 3,
                                                 ModelKind.QUANTUM),
    "run_roots": lambda s: run_roots(PlasmaParams(1.0, 0.01), (ModelKind.QUANTUM,),
                                     (0.3, s), 3),
    "ScanSpec fixed": lambda s: ScanSpec((ModelKind.QUANTUM,), {"x_p": s, "y": 0.1, "x": 1.0},
                                         "q", (0.1, 1.0), 3),
    "ScanSpec sweep_range": lambda s: ScanSpec((ModelKind.QUANTUM,), {"x_p": 1.0, "y": 0.1,
                                                                     "x": 1.0}, "q", (0.1, s), 3),
}


@pytest.mark.parametrize("call", _STR_CASES.values(), ids=_STR_CASES.keys())
def test_str_number_raises_type_error(call):
    # a number given as a str is refused, not parsed: "0.5" is a valid
    # value of every argument here, as float or complex would read it
    with pytest.raises(TypeError):
        call("0.5")


class TestEpsilonQuantum:
    def test_no_plasma_is_vacuum(self):
        assert epsilon_quantum(PlasmaParams(0.0, 0.3), QueryPoint(1.0, 0.5)) == 1.0 + 0j

    def test_oracle_agreement_reference_point(self):
        params, point = PlasmaParams(1.0, 0.1), QueryPoint(1.0, 0.5)
        ref = quad_epsilon_quantum(params, point)
        assert abs(epsilon_quantum(params, point) - ref) <= 1e-9 * abs(ref)

    def test_oracle_agreement_grid(self):
        # 5x5x5 over (x, y, q) in [0.2,2] x [0.01,0.5] x [0.1,2], x_p = 1
        for x in np.linspace(0.2, 2.0, 5):
            for y in np.linspace(0.01, 0.5, 5):
                for q in np.linspace(0.1, 2.0, 5):
                    params, point = PlasmaParams(1.0, y), QueryPoint(x, q)
                    ref = quad_epsilon_quantum(params, point)
                    got = epsilon_quantum(params, point)
                    assert abs(got - ref) <= 1e-9 * abs(ref)

    def test_classical_limit_is_second_order_in_relative_terms(self):
        # fixed z, all frequencies co-scaled with q (the hbar -> 0 path):
        # the quantum/classical gap relative to the classical response falls
        # as q^2, i.e. successive halvings shrink it ~4x
        z = 2 + 2j
        rel = []
        for q in (0.2, 0.1, 0.05, 0.025):
            params, point = _fixed_z_points(z, q)
            dq = epsilon_quantum(params, point)
            dc = epsilon_classical(params, point)
            rel.append(abs(dq - dc) / abs(dc - 1.0))
        for a, b in zip(rel, rel[1:]):
            assert 3.5 <= a / b <= 4.5

    def test_nonpositive_q_rejected(self):
        with pytest.raises(ValueError):
            epsilon_quantum(PlasmaParams(1.0, 0.1), QueryPoint(1.0, 0.0))

    def test_long_wave_series_branch_continuity(self):
        # at long waves the model is continuous in q, here across q = 1e-4
        params = PlasmaParams(1.0, 0.05)
        above = epsilon_quantum(params, QueryPoint(1.2, 1e-4 * 1.01))
        below = epsilon_quantum(params, QueryPoint(1.2, 1e-4 * 0.99))
        assert abs(above - below) <= 1e-9 * abs(above - 1.0)

    @given(st.floats(0.1, 3.0), st.floats(0.0, 1.0), st.floats(0.05, 3.0),
           st.floats(0.0, 2.0))
    def test_finite_on_physical_box(self, x, y, q, x_p):
        val = epsilon_quantum(PlasmaParams(x_p, y), QueryPoint(x, q))
        assert math.isfinite(val.real) and math.isfinite(val.imag)


class TestNonFiniteFrequency:
    # a non-finite omega must raise ValueError, never come back as nan: a nan
    # part at the special functions' one check per call, an infinite one at
    # the prefactor's range test before it, not as a q that is too small

    @pytest.mark.parametrize("core", [eps_quantum_omega, eps_classical_omega,
                                      eps_mermin_omega])
    @pytest.mark.parametrize("y", [0.0, 0.1])
    @pytest.mark.parametrize("omega", [
        math.nan, complex(1.0, math.nan), complex(math.nan, -0.5),
        math.inf, -math.inf, complex(1.0, -math.inf), complex(math.inf, math.nan),
    ])
    def test_nonfinite_omega_raises(self, core, y, omega):
        with pytest.raises(ValueError, match="must be finite"):
            core(1.0, y, omega, 0.5)


class TestNonFiniteArguments:
    # a non-finite x_p (or Drude's x + iy) is no question of range: it
    # raises ValueError naming itself, where it raised OverflowError as an
    # eps out of range (nan) or as a q that is too small (inf)

    @pytest.mark.parametrize("x_p", [math.nan, math.inf])
    @pytest.mark.parametrize("core", [eps_quantum_omega, eps_classical_omega,
                                      eps_mermin_omega])
    @pytest.mark.parametrize("y", [0.0, 0.1])
    def test_bgk_cores(self, core, x_p, y):
        with pytest.raises(ValueError, match=f"^x_p must be finite, got {x_p!r}"):
            core(x_p, y, 1.0, 0.5)

    @pytest.mark.parametrize("x_p", [math.nan, math.inf])
    def test_static(self, x_p):
        with pytest.raises(ValueError, match=f"^x_p must be finite, got {x_p!r}"):
            epsilon_static(x_p, 1.0, 0.5)

    @pytest.mark.parametrize("x_p, x, y, name", [
        (math.nan, 1.0, 0.1, "x_p"), (math.inf, 1.0, 0.1, "x_p"),
        (1.0, math.nan, 0.1, "x + iy"), (1.0, -math.inf, 0.1, "x + iy"),
        (1.0, 1.0, math.nan, "x + iy"), (1.0, 1.0, math.inf, "x + iy"),
    ])
    def test_drude(self, x_p, x, y, name):
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be finite"):
            epsilon_drude(x_p, x, y)


class TestNegativePlasmaFrequency:
    # x_p enters as x_p^2, so a negative x_p gave the value at |x_p|;
    # the functions that take a raw x_p reject it as PlasmaParams does

    @pytest.mark.parametrize("fn", [
        lambda x_p: eps_quantum_omega(x_p, 0.0, 1.0, 0.5),
        lambda x_p: eps_quantum_omega(x_p, 0.1, 1.0 - 0.2j, 0.5),
        lambda x_p: eps_classical_omega(x_p, 0.0, 1.0, 0.5),
        lambda x_p: eps_classical_omega(x_p, 0.1, 1.0 - 0.2j, 0.5),
        lambda x_p: eps_mermin_omega(x_p, 0.0, 1.0, 0.5),
        lambda x_p: eps_mermin_omega(x_p, 0.1, 1.0 - 0.2j, 0.5),
        lambda x_p: epsilon_static(x_p, 1.0, 0.5),
        lambda x_p: epsilon_lindhard(x_p, 1.0, 0.5),
        lambda x_p: epsilon_drude(x_p, 1.0, 0.1),
    ], ids=["quantum-y0", "quantum", "classical-y0", "classical", "mermin-y0",
            "mermin", "static", "lindhard", "drude"])
    def test_rejected_with_plasma_params_message(self, fn):
        with pytest.raises(ValueError) as raised:
            PlasmaParams(-1.0)
        assert str(raised.value) == "x_p must be finite and >= 0, got -1.0"
        with pytest.raises(ValueError, match=r"^x_p must be finite and >= 0, got -1\.0$"):
            fn(-1.0)
        with pytest.raises(ValueError, match="^x_p must be finite and >= 0, got -inf$"):
            fn(-math.inf)

    @pytest.mark.parametrize("fn", [
        lambda x_p: eps_quantum_omega(x_p, 0.1, 1.0, 0.5),
        lambda x_p: eps_classical_omega(x_p, 0.1, 1.0, 0.5),
        lambda x_p: eps_mermin_omega(x_p, 0.1, 1.0, 0.5),
        lambda x_p: epsilon_static(x_p, 1.0, 0.5),
        lambda x_p: epsilon_lindhard(x_p, 1.0, 0.5),
    ], ids=["quantum", "classical", "mermin", "static", "lindhard"])
    def test_negative_zero_is_vacuum(self, fn):
        assert repr(fn(-0.0)) == repr(1.0 + 0j)

    def test_static_was_the_value_at_the_magnitude(self):
        # the reported point: 8.928148946544287 at x_p = 1 and at x_p = -1
        assert epsilon_static(1.0, 1.0, 0.5) == 8.928148946544287
        with pytest.raises(ValueError, match="^x_p must be finite and >= 0"):
            epsilon_static(-1.0, 1.0, 0.5)


class TestNegativeCollisionFrequency:
    # Drude takes a raw y: a negative one gave a value (0.2 - 0.4j at x_p =
    # x = 1, y = -0.5), where PlasmaParams and epsilon_static refuse it

    @pytest.mark.parametrize("y", [-0.5, -5e-324, -math.inf])
    def test_drude_rejected_with_plasma_params_message(self, y):
        message = f"^y must be finite and >= 0, got {re.escape(repr(y))}$"
        with pytest.raises(ValueError, match=message):
            PlasmaParams(1.0, y)
        with pytest.raises(ValueError, match=message):
            epsilon_drude(1.0, 1.0, y)


def _forget_pair(monkeypatch):
    monkeypatch.setattr(special_functions, "_pair_last", (None, None, None, None))


class TestOneCheck:
    # the BGK evaluator checks q, x_p and x + iy once, in its one range
    # test, and calls kernels that do not check again

    def _counters(self, monkeypatch) -> dict:
        counts = {}
        for module in (dielectric, special_functions, dispersion):
            for name in ("_check_q", "_check_finite", "_finite"):
                inner = getattr(module, name, None)
                if inner is None:
                    continue

                def counted(*args, _inner=inner, _key=(module.__name__, name)):
                    counts[_key] = counts.get(_key, 0) + 1
                    return _inner(*args)

                monkeypatch.setattr(module, name, counted)
        return counts

    @pytest.mark.parametrize("core", [eps_quantum_omega, eps_mermin_omega])
    @pytest.mark.parametrize("omega", [1.0, 1.0 + 0.3j, 1.0 - 0.3j, 30.0 - 0.1j])
    def test_valid_call_makes_no_check_call(self, core, omega, monkeypatch):
        _forget_pair(monkeypatch)
        counts = self._counters(monkeypatch)
        core(1.0, 0.1, omega, 0.5)
        assert counts == {}

    @pytest.mark.parametrize("omega", [1.0, 1.0 + 0.3j, 1.0 - 0.3j, 30.0 - 0.1j])
    def test_classical_checks_only_in_its_traced_lambda0(self, omega, monkeypatch):
        # the classical core calls lambda0 through dielectric's global name,
        # which the span tracer wraps; lambda0 checks z where it misses the
        # fused call's entry
        _forget_pair(monkeypatch)
        counts = self._counters(monkeypatch)
        eps_classical_omega(1.0, 0.1, omega, 0.5)
        assert counts == {("qplasma.special_functions", "_check_finite"): 1}

    @pytest.mark.parametrize("model", [ModelKind.QUANTUM, ModelKind.CLASSICAL,
                                       ModelKind.MERMIN])
    def test_one_solve_checks_q_once(self, model, monkeypatch):
        # a guess, several evaluations
        counts = self._counters(monkeypatch)
        root = solve_root(PlasmaParams(1.0, 0.01), 0.3, model, guess=1.2 - 0.01j)
        assert root.evaluations >= 2
        q_checks = {key: n for key, n in counts.items() if key[1] == "_check_q"}
        assert q_checks == {("qplasma.dispersion", "_check_q"): 1}

    @pytest.mark.parametrize("core", [eps_quantum_omega, eps_classical_omega,
                                      eps_mermin_omega])
    def test_int_q_gives_the_float_bits(self, core, monkeypatch):
        rng = random.Random(28)
        for _ in range(100):
            x_p, q = rng.uniform(0.3, 3.0), rng.randint(1, 11)
            y = rng.choice([0.0, rng.uniform(1e-6, 0.5)])
            omega = complex(rng.uniform(-3.0 * q, 3.0 * q), rng.uniform(-1.0, 1.0))
            _forget_pair(monkeypatch)
            as_float = core(x_p, y, omega, float(q))
            _forget_pair(monkeypatch)
            assert repr(core(x_p, y, omega, q)) == repr(as_float)


    def test_numpy_q_at_the_public_surface_gives_the_float_bits(self, monkeypatch):
        # QueryPoint and epsilon_lindhard hand the cores a float q: numpy
        # scalar arithmetic would round differently
        rng = random.Random(30)
        for _ in range(100):
            x_p, x, q = rng.uniform(0.3, 3.0), rng.uniform(-3.0, 3.0), rng.uniform(0.05, 3.0)
            params = PlasmaParams(x_p, rng.choice([0.0, rng.uniform(1e-4, 0.5)]))
            for fn in (lambda q: epsilon_quantum(params, QueryPoint(x, q)),
                       lambda q: epsilon_classical(params, QueryPoint(x, q)),
                       lambda q: epsilon_mermin(params, QueryPoint(x, q)),
                       lambda q: epsilon_lindhard(x_p, x, q)):
                _forget_pair(monkeypatch)
                as_float = fn(q)
                _forget_pair(monkeypatch)
                got = fn(np.float64(q))
                assert type(got) is complex and repr(got) == repr(as_float)

    def test_numpy_raw_arguments_to_drude_and_lindhard_give_the_float_bits(self, monkeypatch):
        # epsilon_drude and epsilon_lindhard take raw numbers, not records:
        # a numpy x_p, x or q is converted as the records convert it (numpy's
        # complex division moved 123 of these 300 Drude values), and a str is
        # refused with TypeError, not converted
        rng = random.Random("numpy drude lindhard")
        for _ in range(300):
            x_p, x, y = rng.uniform(0.3, 3.0), rng.uniform(0.05, 3.0), rng.uniform(1e-4, 0.5)
            got = epsilon_drude(np.float64(x_p), x, y)
            assert type(got) is complex and repr(got) == repr(epsilon_drude(x_p, x, y))
        for _ in range(50):
            args = [rng.uniform(0.3, 3.0), rng.uniform(-3.0, 3.0), rng.uniform(0.05, 3.0)]
            _forget_pair(monkeypatch)
            as_float = epsilon_lindhard(*args)
            for i in range(3):
                _forget_pair(monkeypatch)
                got = epsilon_lindhard(*(np.float64(v) if j == i else v
                                         for j, v in enumerate(args)))
                assert type(got) is complex and repr(got) == repr(as_float), (i, args)
        for i in range(3):
            with pytest.raises(TypeError):
                epsilon_drude(*("1.0" if j == i else 1.0 for j in range(3)))
            with pytest.raises(TypeError):
                epsilon_lindhard(*("1.0" if j == i else 0.5 for j in range(3)))

    @pytest.mark.parametrize("field", ["x_p", "y", "x", "q"])
    def test_numpy_fields_at_the_public_surface_give_the_float_bits(self, field,
                                                                     monkeypatch):
        # PlasmaParams and QueryPoint store floats: a numpy scalar in a record
        # would carry numpy's scalar arithmetic and type into eps
        rng = random.Random(f"numpy {field}")
        for _ in range(50):
            at = {"x_p": rng.uniform(0.3, 3.0), "y": rng.choice([0.0, rng.uniform(1e-4, 0.5)]),
                  "x": rng.uniform(0.05, 3.0), "q": rng.uniform(0.05, 3.0)}
            as_np = {**at, field: np.float64(at[field])}
            for model in ModelKind:
                if model is ModelKind.STATIC and at["y"] == 0.0:
                    continue
                results = []
                for vals in (at, as_np):
                    _forget_pair(monkeypatch)
                    results.append(evaluate(model, PlasmaParams(vals["x_p"], vals["y"]),
                                            QueryPoint(vals["x"], vals["q"])))
                as_float, got = results
                assert type(got) is complex and repr(got) == repr(as_float), (model, at)
            params, point = PlasmaParams(as_np["x_p"], as_np["y"]), QueryPoint(as_np["x"],
                                                                               as_np["q"])
            for fn in (epsilon_quantum, epsilon_classical, epsilon_mermin):
                assert type(fn(params, point)) is complex


class TestEpsilonClassical:
    def test_no_plasma_is_vacuum(self):
        assert epsilon_classical(PlasmaParams(0.0, 0.3), QueryPoint(1.0, 0.5)) == 1.0 + 0j

    def test_long_wave_high_frequency_is_drude_like(self):
        params, point = PlasmaParams(1.0, 0.01), QueryPoint(5.0, 0.05)
        got = epsilon_classical(params, point)
        ref = 1.0 - 1.0 / ((5.0 + 0.01j) * 5.0)
        assert abs(got - ref) <= 0.01 * abs(ref)

    def test_quantum_model_approaches_it_as_q_vanishes(self):
        z = 2 + 2j
        q = 0.01
        params, point = _fixed_z_points(z, q)
        dq = epsilon_quantum(params, point)
        dc = epsilon_classical(params, point)
        assert abs(dq - dc) / abs(dc - 1.0) <= 1e-4


class TestEpsilonLindhard:
    def test_equals_collisionless_quantum(self):
        got = epsilon_lindhard(1.0, 1.0, 0.7)
        ref = epsilon_quantum(PlasmaParams(1.0, 0.0), QueryPoint(1.0, 0.7))
        assert abs(got - ref) <= 1e-12 * abs(ref)

    def test_landau_absorption_region(self):
        assert epsilon_lindhard(1.0, 0.5, 0.5).imag > 0.0

    def test_transparent_high_frequency(self):
        got = epsilon_lindhard(1.0, 20.0, 0.1)
        ref = 1.0 - 1.0 / 400.0
        assert abs(got - ref) <= 0.005 * abs(ref)

    def test_both_forms_agree(self):
        # kernel path against the literal difference of the two t values
        for (x, q) in ((1.0, 0.7), (0.5, 0.5), (2.5, 1.3), (0.1, 2.0)):
            a = epsilon_lindhard(1.0, x, q)
            z = complex(x / q, 0.0)
            b = 1.0 + (plasma_t(z - 0.5 * q) - plasma_t(z + 0.5 * q)) / q ** 3
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_real_axis_point_against_live_mpmath(self):
        # z - q/2 = 1.5906 lies on the real axis inside |z| < 1.8: the
        # Maclaurin series would lose Im w there to ~1e-15, the trapezoid
        # keeps it
        x_p, x, q = 0.9419874832407676, 1.146831683187969, 0.6056962518002704
        with mp.workdps(60):
            ref = complex(mpref.eps(ModelKind.LINDHARD, x_p, 0.0, x, q))
        got = epsilon_lindhard(x_p, x, q)
        assert abs(got - ref) <= 1e-15 * max(abs(ref), abs(ref - 1.0))

    def test_bad_form_and_domain(self):
        with pytest.raises(ValueError):
            epsilon_lindhard(1.0, 1.0, 0.0)


class TestEpsilonStatic:
    def test_no_plasma_is_vacuum(self):
        assert repr(epsilon_static(0.0, 0.1, 0.5)) == "(1+0j)"

    def test_exactly_real_by_construction(self):
        for y in (0.01, 0.1, 0.3, 1.0):
            for q in (0.1, 0.5, 1.0, 2.0):
                assert epsilon_static(1.0, y, q).imag == 0.0

    def test_matches_quantum_at_zero_frequency(self):
        # static is the quantum model's real part at x = 0, bit for bit, or
        # the same error: seeded states with y from below 2^-600 (where the
        # BGK products would go subnormal) to 10, and x_p/q just below
        # 1e154, where 1 + pre K/M overflows and the _rescaled fallback
        # names the point
        def outcome(f, *args):
            try:
                return f(*args)
            except OverflowError as exc:
                return str(exc)

        rng = random.Random("static is quantum at x = 0")
        kinds = set()
        for i in range(600):
            q = 10.0 ** rng.uniform(-3.0, 0.7)
            x_p = q * 10.0 ** rng.uniform(153.5, 154.0) if i % 5 == 0 else rng.uniform(0.1, 10.0)
            y = 10.0 ** (rng.uniform(-320.0, -181.0) if i % 3 == 0 else rng.uniform(-4.0, 1.0))
            es = outcome(epsilon_static, x_p, y, q)
            eq = outcome(lambda: complex(
                epsilon_quantum(PlasmaParams(x_p, y), QueryPoint(0.0, q)).real, 0.0))
            assert es == eq, (x_p, y, q)
            kinds.add((y < 2.0 ** -600, type(es) is str))
        assert kinds == {(False, False), (False, True), (True, False), (True, True)}

    def test_screening_exceeds_unity_on_grid(self):
        for y in (0.01, 0.1, 1.0):
            for q in (0.1, 0.5, 1.0, 2.0):
                assert epsilon_static(1.0, y, q).real > 1.0

    def test_large_v_frozen_mpmath(self):
        # the literal lambda0(iv) = 1 - sqrt(pi) v w(iv) loses ~2 v^2 ulps here
        for y, ref in STATIC_LARGE_V.items():
            assert_cclose(epsilon_static(1.0, y, 1e-3), ref, rtol=1e-12)

    @pytest.mark.parametrize("q", [1e-100, 1e-120, 1e-140, 1e-150])
    def test_tiny_q_matches_quantum_at_zero_frequency(self, q):
        # Re t(q/2 + iv) ~ -(q/2)/v^2 underflows below q ~ 1e-120 at y = 0.1
        assert_cclose(epsilon_static(1.0, 0.1, q), eps_quantum_omega(1.0, 0.1, 0.0, q),
                      rtol=1e-13)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            epsilon_static(1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            epsilon_static(1.0, 0.1, 0.0)


class TestEpsilonDrude:
    def test_root_at_plasma_frequency(self):
        assert epsilon_drude(1.0, 1.0, 0.0) == 0.0 + 0j

    def test_simple_value(self):
        assert epsilon_drude(1.0, 2.0, 0.0) == 0.75 + 0j

    def test_quantum_long_wave_limit(self):
        got = epsilon_quantum(PlasmaParams(1.0, 0.05), QueryPoint(1.2, 1e-3))
        ref = epsilon_drude(1.0, 1.2, 0.05)
        assert abs(got - ref) <= 1e-4

    def test_zero_frequency_rejected(self):
        with pytest.raises(ValueError):
            epsilon_drude(1.0, 0.0, 0.1)

    @pytest.mark.parametrize("x_p, x, y, exact", [
        # (x + iy) x = 1e-320i keeps ~11 bits: the plain form gave
        # 1 + 1.0000111e300i
        (1e-10, 1e-200, 1e-120, complex(-1e220, 1e300)),
        # x^2 = 9e-324 is two subnormal ulps
        (1e-150, -3e-162, 0.0, complex(1.0 - (1e-150 / 3e-162) ** 2, 0.0)),
    ])
    def test_subnormal_denominator(self, x_p, x, y, exact):
        assert abs(epsilon_drude(x_p, x, y) - exact) <= 1e-15 * abs(exact)


class TestEpsilonMermin:
    @pytest.mark.parametrize("y", [0.0, 0.3])
    def test_no_plasma_is_vacuum(self, y):
        assert repr(eps_mermin_omega(0.0, y, 1.0 - 0.2j, 0.5)) == "(1+0j)"

    def test_collisionless_degeneracy(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = rng.uniform(0.1, 3.0)
            q = rng.uniform(0.1, 2.5)
            em = epsilon_mermin(PlasmaParams(1.0, 0.0), QueryPoint(x, q))
            el = epsilon_lindhard(1.0, x, q)
            eq = epsilon_quantum(PlasmaParams(1.0, 0.0), QueryPoint(x, q))
            assert abs(em - el) <= 1e-12 * max(1.0, abs(el))
            assert abs(em - eq) <= 1e-12 * max(1.0, abs(eq))

    def test_classical_limit_in_relative_terms(self):
        z = 2 + 2j
        rel = []
        for q in (0.2, 0.1, 0.05, 0.025):
            params, point = _fixed_z_points(z, q)
            dm = epsilon_mermin(params, point)
            dc = epsilon_classical(params, point)
            rel.append(abs(dm - dc) / abs(dc - 1.0))
        for a, b in zip(rel, rel[1:]):
            assert 3.5 <= a / b <= 4.5

    def test_golden_regression_value(self):
        params, point = PlasmaParams(1.0, 0.1), QueryPoint(1.0, 0.5)
        em = epsilon_mermin(params, point)
        assert_cclose(em, MERMIN_GOLDEN, rtol=5e-13)
        gap = abs(em - epsilon_quantum(params, point))
        assert gap == pytest.approx(MERMIN_QUANTUM_GAP, rel=1e-5)

    def test_static_denominator_variants(self):
        q = 0.5
        assert mermin_static_denominator(q) == pytest.approx(4 * dawson(0.25) / q)

    def test_static_denominator_memo(self, monkeypatch):
        # one entry: a repeated q reuses D0 without a Dawson evaluation, a new
        # q never gets a stale value, a rejected q raises every time and
        # reaches no cache
        from qplasma import dielectric

        calls = []

        def counting(u):
            calls.append(u)
            return dawson(u)

        cached = dielectric._mermin_static_denominator
        monkeypatch.setattr(dielectric, "dawson", counting)
        cached.cache_clear()
        for q in (0.5, 0.5, 0.7, 0.5, 1e-6, 1e-6, 3):
            assert repr(mermin_static_denominator(q)) == repr(4.0 * dawson(0.5 * q) / q)
        assert len(calls) == 5
        assert cached.cache_info()[:4] == (2, 5, 1, 1)  # hits, misses, maxsize, size
        for bad in (0.0, -0.5, math.nan):
            for _ in range(2):
                with pytest.raises(ValueError):
                    mermin_static_denominator(bad)
        assert cached.cache_info()[:2] == (2, 5)
        assert repr(mermin_static_denominator(3.0)) == repr(4.0 * dawson(1.5) / 3.0)
        assert cached.cache_info()[:2] == (3, 5) and len(calls) == 5
        cached.cache_clear()  # forget the value computed through the counter

    def test_static_denominator_stores_a_float(self):
        # the Mermin core hands D0's cache its raw q; a numpy q equals its
        # float and shares its entry, so a stored numpy D0 came back from
        # the public function at the float q
        cached = dielectric._mermin_static_denominator
        cached.cache_clear()
        eps_mermin_omega(1.0, 0.1, 1.0, np.float64(0.37))
        got = mermin_static_denominator(0.37)
        assert cached.cache_info()[:2] == (1, 1)
        assert type(got) is float and repr(got) == repr(4.0 * dawson(0.5 * 0.37) / 0.37)
        cached.cache_clear()

    @pytest.mark.parametrize("q", [5e-324, 1e-315, 1e-310, math.nextafter(_MIN_NORMAL, 0.0)])
    def test_static_denominator_at_subnormal_q(self, q):
        # q/2 rounds below the smallest normal q, and 4 F(q/2)/q with it (0.0
        # at 5e-324, 1.9999999901 at 1e-315): D0 is its limit 2 there
        assert mermin_static_denominator(q) == 2.0

    def test_static_denominator_bits_at_normal_q(self):
        # from the smallest normal q on D0 is 4 F(q/2)/q, as it always was
        for q in (_MIN_NORMAL, 1e-300, 1e-8, 0.3, 2.0, 30.0):
            assert repr(mermin_static_denominator(q)) == repr(4.0 * dawson(0.5 * q) / q)

    def test_small_q_static_denominator_limit(self):
        # D0 -> 2 as q -> 0, matching -t'(0)
        assert mermin_static_denominator(1e-6) == pytest.approx(2.0, rel=1e-10)


class TestConductivity:
    def test_zero_plasma_frequency(self):
        s = conductivity(PlasmaParams(0.0, 0.1), QueryPoint(1.0, 0.5),
                         ModelKind.QUANTUM)
        assert s == 0.0 + 0j

    def test_lossless_drude_is_purely_imaginary(self):
        s = conductivity(PlasmaParams(1.0, 0.0), QueryPoint(2.0, 0.5),
                         ModelKind.DRUDE)
        assert s.real == 0.0
        assert s.imag == pytest.approx(1.0 / 2.0)  # x_p^2 / x

    def test_dissipation_positive_at_reference_point(self):
        s = conductivity(PlasmaParams(1.0, 0.1), QueryPoint(1.0, 0.5),
                         ModelKind.QUANTUM)
        assert s.real > 0.0

    def test_requires_positive_frequency(self):
        with pytest.raises(ValueError):
            conductivity(PlasmaParams(1.0, 0.1), QueryPoint(0.0, 0.5),
                         ModelKind.QUANTUM)


class TestEvaluate:
    def test_model_kind_and_its_value_dispatch_alike(self):
        params, point = PlasmaParams(1.0, 0.1), QueryPoint(1.3, 0.4)
        for model in ModelKind:
            assert repr(evaluate(model, params, point)) == repr(evaluate(model.value, params, point))

    def test_each_model_gives_its_public_functions_bits(self):
        # evaluate calls each model's evaluator straight from its table;
        # the public functions are the API, and the two agree bit for bit
        public = {
            ModelKind.QUANTUM: epsilon_quantum,
            ModelKind.CLASSICAL: epsilon_classical,
            ModelKind.MERMIN: epsilon_mermin,
            ModelKind.LINDHARD: lambda params, point: epsilon_lindhard(params.x_p, point.x,
                                                                       point.q),
            ModelKind.STATIC: lambda params, point: epsilon_static(params.x_p, params.y,
                                                                   point.q),
            ModelKind.DRUDE: lambda params, point: epsilon_drude(params.x_p, point.x,
                                                                 params.y),
        }
        rng = random.Random("evaluate cores")
        for _ in range(300):
            params = PlasmaParams(10.0 ** rng.uniform(-2, 1.5), 10.0 ** rng.uniform(-6, 0.5))
            point = QueryPoint(rng.choice((1, -1)) * 10.0 ** rng.uniform(-3, 1.5),
                               10.0 ** rng.uniform(-5, 0.7))
            for model, fn in public.items():
                assert repr(evaluate(model, params, point)) == repr(fn(params, point)), (
                    model, params, point)

    @pytest.mark.parametrize("model", ["nope", "QUANTUM", None, 3, ["quantum"], {}])
    def test_unknown_or_unhashable_model_raises_value_error(self, model):
        with pytest.raises(ValueError, match="is not a valid ModelKind"):
            evaluate(model, PlasmaParams(1.0, 0.1), QueryPoint(1.3, 0.4))


class TestHighFrequencyTransparency:
    MODELS = (ModelKind.QUANTUM, ModelKind.CLASSICAL, ModelKind.MERMIN,
              ModelKind.LINDHARD, ModelKind.DRUDE)

    @pytest.mark.parametrize("model", MODELS)
    def test_bounded_and_monotone(self, model):
        params = PlasmaParams(1.0, 0.1)
        xs = np.linspace(5.0, 100.0, 48)
        mags = []
        for x in xs:
            eps = evaluate(model, params, QueryPoint(float(x), 0.5))
            mags.append(abs(eps - 1.0))
            assert mags[-1] * x * x <= 2.5
        assert all(a > b for a, b in zip(mags, mags[1:]))


class TestPassivityDiagnostic:
    def test_record_sign_of_absorption(self, capsys):
        # diagnostic only: the coordinate-space BGK model is not proven
        # passive; count Im eps < 0 occurrences for x > 0 on the scan grid
        violations = []
        for x in np.linspace(0.2, 3.0, 8):
            for y in (0.01, 0.1, 0.5):
                for q in (0.1, 0.5, 1.0, 2.0):
                    eps = epsilon_quantum(PlasmaParams(1.0, y), QueryPoint(float(x), q))
                    assert math.isfinite(eps.real) and math.isfinite(eps.imag)
                    if eps.imag < 0:
                        violations.append((float(x), y, q, eps.imag))
        print(f"\npassivity diagnostic: {len(violations)} of 96 grid points "
              f"have Im eps < 0 for x > 0")
        for rec in violations[:5]:
            print(f"  x={rec[0]:.3f} y={rec[1]} q={rec[2]} Im={rec[3]:.3e}")


class TestSumRules:
    # causality and the tail eps - 1 ~ -x_p^2/x^2 fix two integrals of Im eps
    # over real x > 0 (Im eps is odd in x), for every model with a
    # frequency:
    #   f-sum rule:            int_0^inf x Im eps dx = (pi/2) x_p^2
    #   static Kramers-Kronig: Re eps(0) - 1 = (2/pi) int_0^inf Im eps/x dx
    # Each is taken by QUADPACK in u = x/(1 + x) at five seeded states and
    # held to its measured worst over the 20 cases (3.5e-16 and 2.3e-15),
    # rounded up once
    F_SUM_BOUND = 4e-16
    KRAMERS_KRONIG_BOUND = 3e-15
    MODELS = {
        "quantum": eps_quantum_omega,
        "classical": eps_classical_omega,
        "mermin": eps_mermin_omega,
        "lindhard": lambda x_p, y, x, q: epsilon_lindhard(x_p, x, q),
    }

    @staticmethod
    def _states():
        # (x_p, y, q): q from 0.05 to 2 and from 2 to 5 in turn; y from 1e-2
        # to 1, y -> 0 (1e-6 and 1e-3, beside q > 2, where Landau damping
        # keeps Im eps smooth) and y = 0.5.  Lindhard takes y = 0
        rng = random.Random("sum rules")
        for i, y in enumerate((None, 1e-6, None, 1e-3, 0.5)):
            x_p = rng.uniform(0.3, 3.0)
            q = rng.uniform(0.05, 2.0) if i % 2 == 0 else rng.uniform(2.0, 5.0)
            yield x_p, 10.0 ** rng.uniform(-2.0, 0.0) if y is None else y, q

    @staticmethod
    def _integral(f):
        # int_0^inf f(x) dx; a quadrature that does not converge fails
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            return quad(lambda u: f(u / (1.0 - u)) / (1.0 - u) ** 2 if u < 1.0 else 0.0,
                        0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)[0]

    @pytest.mark.parametrize("model", list(MODELS))
    def test_f_sum_and_static_kramers_kronig(self, model):
        eps = self.MODELS[model]
        for x_p, y, q in self._states():
            if model == "lindhard":
                y = 0.0
            f_sum = self._integral(lambda x: x * eps(x_p, y, x, q).imag)
            want = 0.5 * math.pi * x_p * x_p
            assert abs(f_sum - want) <= self.F_SUM_BOUND * want, (x_p, y, q)
            static = eps(x_p, y, 0.0, q).real - 1.0
            kk = 2.0 / math.pi * self._integral(
                lambda x: eps(x_p, y, x, q).imag / x if x > 0.0 else 0.0)
            assert abs(kk - static) <= self.KRAMERS_KRONIG_BOUND * abs(static), (x_p, y, q)


class TestModelIdentities:
    # exact identities of the three BGK models, each held to its measured
    # worst over its seeded cases, rounded up once
    CORES = {"quantum": eps_quantum_omega, "classical": eps_classical_omega,
             "mermin": eps_mermin_omega}
    STATIC_MERMIN_BOUND = 5e-16      # measured 4.4e-16
    STATIC_CLASSICAL_BOUND = 3e-16   # measured 2.0e-16
    CAUCHY_BOUND = 3e-15             # measured 2.2e-15
    WINDING_BOUND = 9e-16            # measured 8.9e-16
    WINDING_STEP = 0.04              # measured 0.034 rad

    def test_static_limits(self):
        # at x = 0, y > 0 the BGK factor of Mermin's model is D0(q), and
        # classical's is 1: Mermin is the collisionless static 1 + (x_p/q)^2
        # D0(q) and classical is Debye's 1 + 2 x_p^2/q^2.  y spans the
        # subnormal-product rung (below 2^-600) to y = 10, q from 1e-3 to 5
        rng = random.Random("static limits")
        for i in range(300):
            x_p, q = rng.uniform(0.3, 3.0), 10.0 ** rng.uniform(-3.0, 0.7)
            y = 10.0 ** (rng.uniform(-6.0, 1.0) if i % 10 else rng.uniform(-300.0, -200.0))
            mermin = 1.0 + (x_p / q) ** 2 * mermin_static_denominator(q)
            got = eps_mermin_omega(x_p, y, 0.0, q)
            assert abs(got - mermin) <= self.STATIC_MERMIN_BOUND * mermin, (x_p, y, q)
            debye = 1.0 + 2.0 * x_p * x_p / (q * q)
            got = eps_classical_omega(x_p, y, 0.0, q)
            assert abs(got - debye) <= self.STATIC_CLASSICAL_BOUND * debye, (x_p, y, q)

    @pytest.mark.parametrize("model", list(CORES))
    def test_cauchy_mean_across_the_axis(self, model):
        # eps is analytic in omega across the real axis, the Landau
        # continuation joining the lower half-plane to the upper: its mean on
        # a 128-point circle of radius 0.3 about omega = 1, which crosses the
        # axis, is eps(1), to the rounding of the largest |eps| summed
        eps = self.CORES[model]
        for x_p, y, q in ((1.0, 0.1, 0.5), (1.0, 0.3, 1.0), (2.0, 0.5, 2.0), (1.0, 1e-4, 0.3)):
            values = [eps(x_p, y, 1.0 + 0.3 * cmath.exp(2j * math.pi * k / 128), q)
                      for k in range(128)]
            err = abs(sum(values) / 128 - eps(x_p, y, 1.0, q))
            assert err <= self.CAUCHY_BOUND * max(map(abs, values)), (x_p, y, q)

    @pytest.mark.parametrize("model", list(CORES))
    def test_winding_number_about_branch_roots(self, model):
        # each root of a traced branch is a simple zero: eps winds once on a
        # 256-point circle of radius 0.05 |omega| about it, each step turning
        # its phase by far less than pi, so no turn is missed
        eps = self.CORES[model]
        rng = random.Random("winding")
        for _ in range(3):
            x_p, y = 10.0 ** rng.uniform(math.log10(0.3), 1.0), 10.0 ** rng.uniform(-8.0, -1.0)
            lo = rng.uniform(0.05, 0.2)
            k_d = math.sqrt(2.0) * x_p
            roots = trace_branch(PlasmaParams(x_p, y), lo * k_d,
                                 (lo + rng.uniform(0.2, 0.5)) * k_d, 3, ModelKind(model))
            for root in roots:
                circle = [eps(x_p, y, root.omega + 0.05 * abs(root.omega)
                              * cmath.exp(2j * math.pi * k / 256), root.q) for k in range(257)]
                steps = [cmath.phase(b / a) for a, b in zip(circle, circle[1:])]
                assert max(map(abs, steps)) <= self.WINDING_STEP, (x_p, y, root)
                winding = sum(steps) / (2.0 * math.pi)
                assert abs(winding - 1.0) <= self.WINDING_BOUND, (x_p, y, root)


class TestComplexFrequencyCore:
    def test_real_axis_consistency(self):
        params, point = PlasmaParams(1.0, 0.1), QueryPoint(1.0, 0.5)
        via_core = eps_quantum_omega(1.0, 0.1, 1.0 + 0j, 0.5)
        assert via_core == epsilon_quantum(params, point)

    def test_zero_frequency_without_collisions(self):
        # at y = 0 the BGK factor (x + iy)/(x + iy R) is exactly 1, also at x = 0
        params, point = PlasmaParams(1.0, 0.0), QueryPoint(0.0, 0.5)
        for model in (ModelKind.QUANTUM, ModelKind.MERMIN, ModelKind.LINDHARD):
            assert_cclose(evaluate(model, params, point), 8.674853234012744, rtol=1e-15)
        assert evaluate(ModelKind.CLASSICAL, params, point) == 9.0

    @pytest.mark.parametrize("model", [ModelKind.QUANTUM, ModelKind.CLASSICAL,
                                       ModelKind.MERMIN, ModelKind.LINDHARD])
    def test_q_below_double_range_raises_overflow(self, model):
        # x_p^2/q^2 overflows: no silent nan, no bare ZeroDivisionError
        with pytest.raises(OverflowError, match="q=1e-160"):
            evaluate(model, PlasmaParams(1.0, 0.1), QueryPoint(1.0, 1e-160))
        # here x_p^2/q^2 is finite but z^2 = (10/q)^2 is not
        with pytest.raises(OverflowError, match="q=1e-154"):
            evaluate(model, PlasmaParams(1.0, 0.1), QueryPoint(10.0, 1e-154))

    def test_analytic_off_axis(self):
        # Cauchy-Riemann smoke test: central differences along the two axes
        om = 1.1 - 0.05j
        h = 1e-6
        d_re = (eps_quantum_omega(1.0, 0.1, om + h, 0.5)
                - eps_quantum_omega(1.0, 0.1, om - h, 0.5)) / (2 * h)
        d_im = (eps_quantum_omega(1.0, 0.1, om + 1j * h, 0.5)
                - eps_quantum_omega(1.0, 0.1, om - 1j * h, 0.5)) / (2j * h)
        assert abs(d_re - d_im) <= 1e-6 * max(1.0, abs(d_re))


class TestSubnormalFrequencyAndCollisions:
    @pytest.mark.parametrize("core", [eps_quantum_omega, eps_classical_omega,
                                      eps_mermin_omega])
    def test_bgk_models_equal_the_collisionless_value(self, core):
        # x and y subnormal, so |z| = |x + iy|/q < 1e-166 and lambda0 = D/D0
        # = 1 to rounding: each BGK model is its collisionless value at
        # omega = x + iy.  Dividing by the subnormal x + iy lambda0 (Mermin:
        # x + iy D/D0) rounded subnormal products, up to 25% off here;
        # measured worst since: 4.9e-16 (quantum, Mermin), 3.5e-16 (classical)
        rng = random.Random(f"subnormal bgk {core.__name__}")
        lo, hi = math.log(5e-324), math.log(5e-319)
        for _ in range(2000):
            x, y = math.exp(rng.uniform(lo, hi)), math.exp(rng.uniform(lo, hi))
            q = 10.0 ** rng.uniform(-150, 1)
            ref = core(1.0, 0.0, complex(x, y), q)
            assert abs(core(1.0, y, x, q) - ref) <= 1e-15 * abs(ref), (x, y, q)


class TestOneBGKForm:
    # the three BGK cores are eps = 1 + pre xy K / (omega + iy M), xy =
    # omega + iy, with (pre, K, M) from the public kernels, and 1 + pre K at
    # y = 0, bit for bit; omega real, in the upper and in the lower half-plane

    @staticmethod
    def _expected(model, x_p, y, omega, q):
        xy = omega + 1j * y
        z = xy / q
        pre = x_p * x_p / (q * q)
        if model == "classical":
            pre, K, M = 2.0 * pre, lambda0(z), lambda0(z)
        elif model == "quantum":
            K, M = t_diff_over_q(z, q), lambda0(z)
        else:
            K = t_diff_over_q(z, q)
            M = K / mermin_static_denominator(q)
        if y == 0.0:
            return 1.0 + pre * K
        return 1.0 + pre * xy * K / (omega + 1j * y * M)

    @pytest.mark.parametrize("model, core", [("quantum", eps_quantum_omega),
                                             ("classical", eps_classical_omega),
                                             ("mermin", eps_mermin_omega)])
    @pytest.mark.parametrize("half", ["real", "upper", "lower"])
    @pytest.mark.parametrize("collisions", [False, True])
    def test_core_is_the_one_form(self, model, core, half, collisions):
        rng = random.Random(f"one bgk form {model} {half} {collisions}")
        points = []
        for _ in range(200):
            x_p, q = rng.uniform(0.1, 10.0), rng.uniform(0.02, 3.0)
            y = 10.0 ** rng.uniform(-5, 0) if collisions else 0.0
            x = rng.uniform(-3.0, 15.0)
            im = 10.0 ** rng.uniform(-4, -0.5)
            omega = {"real": x, "upper": complex(x, im), "lower": complex(x, -im)}[half]
            points.append((x_p, y, omega, q))
        # all the expected values first, so that (but at the last point) the
        # core finds none of them in the fused call's one entry
        expected = [self._expected(model, *p) for p in points]
        for p, want in zip(points, expected):
            assert repr(core(*p)) == repr(want), p


class TestNoSilentInfinities:
    # every model returns a finite eps or raises ValueError/OverflowError
    # naming its arguments.  Where x_p^2/q^2 is near the top of double range,
    # the plain form overflowed in pre * (x + iy) although eps is
    # representable; these repros returned nan or inf
    REPROS = [
        ("quantum", PlasmaParams(1e4, 1e4), QueryPoint(0.0, 1e-149), 2e306),
        ("mermin", PlasmaParams(970.7568074300232, 6.278181300367166e-05),
         QueryPoint(-39500.14736672992, 5.59742550218724e-150), 1.0),
        ("classical", PlasmaParams(970.7568074300232, 6.278181300367166e-05),
         QueryPoint(-39500.14736672992, 5.59742550218724e-150), 1.0),
        # ~1.9e308 beyond double range
        ("static", PlasmaParams(1.6511990652374073, 0.0005290735686110687),
         QueryPoint(0.0, 1.6956759234933524e-154), None),
        # (x + iy) x underflows to 0: a bare ZeroDivisionError before; |eps|
        # is 1e306 and 1e400 respectively
        ("drude", PlasmaParams(1e-12, 1e-130), QueryPoint(1e-200, 1.0), 1e306),
        ("drude", PlasmaParams(1.0, 1e-200), QueryPoint(1e-200, 1.0), None),
    ]

    @pytest.mark.parametrize("model, params, point, size", REPROS)
    def test_repros(self, model, params, point, size):
        if size is None:
            with pytest.raises(OverflowError, match=re.escape(f"at x_p={params.x_p!r}, ")):
                evaluate(model, params, point)
        else:
            got = evaluate(model, params, point)
            assert cmath.isfinite(got)
            assert abs(got) == pytest.approx(size, rel=1e-3)

    def test_seeded_wide_ranges(self):
        # x_p 1e-6..1e6, y 1e-12..1e6, |x| 1e-8..1e8 or 0, and q 1e-160..1e8,
        # half of it in 1e-160..1e-140 where x_p^2/q^2 and z^2 near the top
        # of double range
        rng = random.Random(24)

        def log_uniform(lo, hi):
            return 10.0 ** rng.uniform(lo, hi)

        counts = {"finite": 0, "raised": 0}
        for _ in range(2500):
            params = PlasmaParams(log_uniform(-6, 6), log_uniform(-12, 6))
            x = 0.0 if rng.random() < 0.1 else rng.choice((1, -1)) * log_uniform(-8, 8)
            q = log_uniform(-160, -140) if rng.random() < 0.5 else log_uniform(-160, 8)
            point = QueryPoint(x, q)
            for model in ModelKind:
                try:
                    got = evaluate(model, params, point)
                except OverflowError as exc:
                    assert f"x_p={params.x_p!r}" in str(exc), (model, params, point, exc)
                    if model is not ModelKind.DRUDE:
                        assert f"q={q!r}" in str(exc), (model, params, point, exc)
                    counts["raised"] += 1
                    continue
                except ValueError as exc:
                    # the long-wave limit at x = 0
                    assert model is ModelKind.DRUDE and x == 0.0, (model, params, point, exc)
                    continue
                assert cmath.isfinite(got), (model, params, point, got)
                counts["finite"] += 1
        assert min(counts.values()) > 1000, counts
