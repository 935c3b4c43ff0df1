"""Longitudinal permittivity models in dimensionless variables.

All models take the plasma state (x_p, y) and an evaluation point (x, q),
where frequencies are in units of k_T v_T and wave numbers in units of the
thermal wave number k_T.  The internal evaluators accept a complex frequency
so the dispersion solver can continue them off the real axis; the public
operations expose the physical real-frequency surface.  Each returns a
finite eps or raises OverflowError naming its arguments.

Normalization note (re-derivation of the classical form): with
omega -> x, nu -> y, omega_p -> x_p in units of k_T v_T and k -> q in units
of k_T, the prefactor 2 omega_p^2/(k^2 v_T^2) becomes 2 x_p^2/q^2 and
z = (omega + i nu)/(k v_T) = (x + i y)/q, giving

    eps_classical = 1 + (2 x_p^2/q^2) (x+iy) lambda0(z) / (x + i y lambda0(z))
    eps_quantum   = 1 + (x_p^2/q^2)  (x+iy) D(z,q)     / (x + i y lambda0(z))

with D(z,q) = [t(z-q/2) - t(z+q/2)]/q.  The quantum model, its hbar -> 0
limit (classical) and Mermin's are one BGK form,

    eps = 1 + pre (x+iy) K / (x + i y M)

    model       pre          K          M             at
    quantum     x_p^2/q^2    D(z,q)     lambda0(z)
    classical   2 x_p^2/q^2  lambda0(z) lambda0(z)
    mermin      x_p^2/q^2    D(z,q)     D(z,q)/D0(q)
    static      x_p^2/q^2    D(z,q)     lambda0(z)    x = 0 (real part)

evaluated by one function, _eps_bgk(model, x_p, y, omega, q), which the
three eps_*_omega cores, the public functions (static as the quantum model
at x = 0) and evaluate's table all call.

Accuracy cells (method: tests/test_accuracy.py), one per model, each on 150
seeded states, x_p from 0.1 to 10 and q from 1e-3 to 5, and pinned edge
points; the error is taken on max(|eps|, |eps - 1|).

    cell              states                                          bound
    eps quantum       |x|/q from 1e-2 to 30, y/q from 1e-3 to 10;     6e-15
                      x = 0 at y/q = 1e3 and 5e8
    eps classical     |x|/q from 1e-2 to 30, y/q from 1e-3 to 10      3e-15
    eps Mermin        as quantum, and |z| from 50 to 1e3 at q from    5e-15
                      1e-8 to 1e-4
    eps Lindhard      |x|/q from 1e-2 to 30, y = 0                    6e-15
    eps static        x = 0, y/q from 1e-3 to 100, 1e3 and 5e8        5e-15
    eps Drude         as classical: x and y from the same draws       3e-16
"""

from __future__ import annotations

import cmath
import functools
import math
from enum import Enum

from .special_functions import (
    _MIN_NORMAL,
    _check_q,
    _out_of_range,
    _t_diff,
    _t_diff_over_q,
    dawson,
    faddeeva_w,  # noqa: F401  bench/spans.py wraps this name; --trace 1 needs it
    lambda0,
    plasma_t,  # noqa: F401  bench/spans.py wraps this name; --trace 1 needs it
    t_diff_over_q,
)


class ModelKind(str, Enum):
    QUANTUM = "quantum"
    CLASSICAL = "classical"
    MERMIN = "mermin"
    LINDHARD = "lindhard_collisionless"
    STATIC = "static"
    DRUDE = "drude"


#: a record's __init__ sets its fields through this, past its own __setattr__
_set = object.__setattr__


class _Record:
    """Base of the immutable value types: __slots__ fields, named once in
    __match_args__ and set once by __init__; equality, hash and repr by
    field, as a frozen dataclass gives them; copy and pickle rebuild the
    record through its constructor."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class PlasmaParams(_Record):
    """Dimensionless plasma state: x_p = omega_p/(k_T v_T), y = nu/(k_T v_T)."""

    __slots__ = __match_args__ = ("x_p", "y")

    def __init__(self, x_p: float, y: float = 0.0):
        if not (math.isfinite(x_p) and x_p >= 0):
            raise ValueError(f"x_p must be finite and >= 0, got {x_p!r}")
        if not (math.isfinite(y) and y >= 0):
            raise ValueError(f"y must be finite and >= 0, got {y!r}")
        # floats: a numpy scalar would carry numpy's arithmetic and type into eps
        _set_x_p(self, float(x_p))
        _set_y(self, float(y))

    @property
    def quantum_parameter(self) -> float:
        # Q = hbar omega_p / (kappa T); with kappa T = m v_T^2 / 2 and
        # k_T = m v_T / hbar this reduces to 2 x_p
        return 2.0 * self.x_p

    @property
    def debye_wavenumber(self) -> float:
        # k_D / k_T = sqrt(2) omega_p / (v_T k_T) = sqrt(2) x_p
        return math.sqrt(2.0) * self.x_p


class QueryPoint(_Record):
    """Evaluation point: x = omega/(k_T v_T), q = k/k_T."""

    __slots__ = __match_args__ = ("x", "q")

    def __init__(self, x: float, q: float):
        if not math.isfinite(x):
            raise ValueError(f"x must be finite, got {x!r}")
        if not (math.isfinite(q) and q >= 0):
            raise ValueError(f"q must be finite and >= 0, got {q!r}")
        _set_x(self, float(x))
        _set_q(self, float(q))  # the cores do not convert q

    def z(self, y: float) -> complex:
        return complex(self.x, y) / _check_q(self.q)


#: the setters of the two records' slots: a construction sets each field
#: through its slot descriptor, past _Record.__setattr__ and a name lookup
_set_x_p, _set_y = (getattr(PlasmaParams, name).__set__ for name in PlasmaParams.__slots__)
_set_x, _set_q = (getattr(QueryPoint, name).__set__ for name in QueryPoint.__slots__)
_new = object.__new__


def _point(x: float, q: float) -> QueryPoint:
    # QueryPoint(x, q) without its checks, for a caller that has made them:
    # the fields its __init__ would store
    point = _new(QueryPoint)
    _set_x(point, float(x))
    _set_q(point, float(q))
    return point


def _finite(name: str, value) -> None:
    if not cmath.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _float(value) -> float:
    # float(value) for a raw public argument; a str is refused with the
    # records' TypeError (from math.isfinite), not converted
    math.isfinite(value)
    return float(value)


def _rescaled(pre: float, ratio: complex, x_p: float, xy: complex, q: float) -> complex:
    # eps = 1 + pre * ratio where a model's plain form pre * xy * K / den
    # (pre * K / M at omega = 0) was not finite: with the O(1) ratio formed
    # first, pre * xy no longer overflows.  Still not finite, eps itself is not
    # representable (the range test has checked x_p)
    eps = 1.0 + pre * ratio
    if cmath.isfinite(eps):
        return eps
    raise _out_of_range("eps", f"x_p={x_p!r}, x + iy={xy!r}, q={q!r}")


#: below this in y and |omega|, the products of the BGK factor go subnormal;
#: scaled by _BGK_SCALE, those inputs lie in [2^-474, 1)
_BGK_TINY = 2.0 ** -600
_BGK_SCALE = 2.0 ** 600
_QUANTUM, _CLASSICAL, _MERMIN = ModelKind.QUANTUM, ModelKind.CLASSICAL, ModelKind.MERMIN


def _eps_bgk(model: ModelKind, x_p: float, y: float, omega: complex, q: float) -> complex:
    # eps = 1 + pre * xy * K / (omega + iy M), xy = omega + iy: the one
    # evaluator of the three BGK models (see the module docstring), at
    # (possibly complex) frequency omega, in five rungs after the kernels
    if x_p == 0.0:
        _check_q(q)
        return 1.0 + 0j
    xy = omega + 1j * y
    # the one range test, of q, x_p and x + iy.  Below q = 1e-154 q^2 is
    # subnormal, and where x_p/q or |z| = |x + iy|/q passes 1e154, x_p^2/q^2
    # or z^2 in lambda0's tail overflows: fail loudly there rather than
    # return nan or lost digits.  A q outside 0 < q < inf, an x + iy or x_p
    # that is not finite and a negative x_p fail the same test (every
    # compare with nan is false) and are told apart after it
    bound = 1e154 * q
    if not (abs(xy) <= bound and 0.0 <= x_p <= bound and 1.0 <= bound < math.inf):
        q = _check_q(q)
        _finite("x + iy", xy)
        if x_p < 0.0:
            raise ValueError(f"x_p must be finite and >= 0, got {x_p!r}")
        _finite("x_p", x_p)
        if not max(abs(xy), 1.0, x_p) <= bound:  # not where only 1e154 q is inf
            raise OverflowError(
                f"q={q!r} is too small at x_p={x_p!r}, x + iy={xy!r}: q^2, "
                "x_p^2/q^2 or z^2 = ((x + iy)/q)^2 leaves double range"
            )
    pre = x_p * x_p / (q * q)
    z = xy / q  # finite: the range test checked x + iy
    if model is _QUANTUM:  # at y = 0, the traced t_diff_over_q, and no M
        K, M = _t_diff(z, q, True) if y else (t_diff_over_q(z, q), None)
    elif model is _CLASSICAL:
        pre = 2.0 * pre
        # lambda0 by the name bench/spans.py traces; it reads the pair entry
        K = M = lambda0(z)
    else:
        K = _t_diff_over_q(z, q)
        M = K / _mermin_static_denominator(q) if y else None  # y = 0 reads no M
    if y == 0.0:
        # the BGK factor xy/(omega + iy M) is exactly 1: collisionless, and
        # M is not read
        eps = 1.0 + pre * K
        return eps if cmath.isfinite(eps) else _rescaled(pre, K, x_p, xy, q)
    if omega == 0.0:
        # static: the BGK factor is exactly 1/M, and (pre K)/M involves no
        # product of y, however small y is
        eps = 1.0 + pre * K / M
        return eps if cmath.isfinite(eps) else _rescaled(pre, K / M, x_p, xy, q)
    if y < _BGK_TINY and abs(omega) < _BGK_TINY:
        # xy K and the division by the denominator would round subnormal
        # products.  The ratio is homogeneous of degree 0 in (omega, y), so
        # it is formed from both scaled by one exact power of two
        w, s = omega * _BGK_SCALE, y * _BGK_SCALE
        return _rescaled(pre, (w + 1j * s) * K / (w + 1j * s * M), x_p, xy, q)
    den = omega + 1j * y * M
    eps = 1.0 + pre * xy * K / den
    return eps if cmath.isfinite(eps) else _rescaled(pre, xy * K / den, x_p, xy, q)


# ---------------------------------------------------------------------------
# Complex-frequency cores: the root solver's and bench/spans.py's entry per
# eps evaluation.  They take numbers and check no type, so a str is refused
# only by the arithmetic it meets; the records and public functions check it
# ---------------------------------------------------------------------------

def eps_quantum_omega(x_p: float, y: float, omega: complex, q: float) -> complex:
    """Quantum-model permittivity at (possibly complex) frequency omega."""
    return _eps_bgk(_QUANTUM, x_p, y, omega, q)


def eps_classical_omega(x_p: float, y: float, omega: complex, q: float) -> complex:
    """Classical-model permittivity at (possibly complex) frequency omega."""
    return _eps_bgk(_CLASSICAL, x_p, y, omega, q)


def mermin_static_denominator(q: float) -> float:
    """D0(q) = [t(-q/2) - t(q/2)]/q = 4 F(q/2)/q (Dawson F), entering
    Mermin's number-conserving correction; D0 -> 2 as q -> 0.  The last
    result is kept (one entry)."""
    return _mermin_static_denominator(_check_q(q))


# D0 is constant along every root solve and every x or y sweep
@functools.lru_cache(maxsize=1)
def _mermin_static_denominator(q: float) -> float:
    # mermin_static_denominator at 0 < q < inf.  Below the smallest normal
    # q, q/2 rounds and 4 F(q/2)/q with it: D0 is its q -> 0 limit 2 to
    # rounding there, as D is 2 lambda0.  A float is stored: a numpy q
    # equals its float, and would hand its type to every later hit
    return 4.0 * dawson(0.5 * q) / float(q) if q >= _MIN_NORMAL else 2.0


def eps_mermin_omega(x_p: float, y: float, omega: complex, q: float) -> complex:
    """Mermin-model permittivity at (possibly complex) frequency omega."""
    return _eps_bgk(_MERMIN, x_p, y, omega, q)


# ---------------------------------------------------------------------------
# Public real-frequency surface
# ---------------------------------------------------------------------------

def epsilon_quantum(params: PlasmaParams, point: QueryPoint) -> complex:
    """Quantum longitudinal permittivity (coordinate-space BGK model)."""
    return _eps_bgk(_QUANTUM, params.x_p, params.y, point.x, point.q)


def epsilon_classical(params: PlasmaParams, point: QueryPoint) -> complex:
    """Classical (BGK) longitudinal permittivity; no quantum recoil."""
    return _eps_bgk(_CLASSICAL, params.x_p, params.y, point.x, point.q)


def epsilon_lindhard(x_p: float, x: float, q: float) -> complex:
    """Collisionless (Landau-continued) permittivity: the quantum model at
    y = 0, 1 + (x_p^2/q^2) D(x/q, q)."""
    return _eps_bgk(_QUANTUM, _float(x_p), 0.0, _float(x), _float(q))


def epsilon_static(x_p: float, y: float, q: float) -> complex:
    """Zero-frequency (screening) permittivity: the quantum model's real
    part at x = 0, 1 + (x_p^2/q^2) D(iv, q)/lambda0(iv) with v = y/q.

    On the imaginary axis the reflection symmetry t(-conj z) = -conj t(z)
    makes D and lambda0 real, so eps is real; y > 0 is required.
    """
    q = _check_q(q)
    y = _float(y)
    if not y > 0.0:
        raise ValueError(f"static limit requires y > 0, got {y!r}")
    return complex(_eps_bgk(_QUANTUM, x_p, y, 0.0, q).real, 0.0)


def epsilon_drude(x_p: float, x: float, y: float) -> complex:
    """Fully evaluated long-wave (k -> 0) limit, 1 - x_p^2/((x+iy) x).

    The static and long-wave limits do not commute, so x = 0 is rejected
    rather than silently mapped to the screening branch.
    """
    x = _float(x)
    if x == 0.0:
        raise ValueError(
            "drude limit is undefined at x = 0 (static and long-wave limits "
            "do not commute); use epsilon_static instead"
        )
    if x_p < 0.0:  # x_p^2 hides the sign; nan and inf fail below
        raise ValueError(f"x_p must be finite and >= 0, got {x_p!r}")
    if y < 0.0:  # as PlasmaParams; nan and +inf fail below
        raise ValueError(f"y must be finite and >= 0, got {y!r}")
    x_p = float(x_p)  # a str failed the compare
    xy = complex(x, y)
    den = xy * x
    if abs(den) >= _MIN_NORMAL:  # a subnormal den keeps few bits, and 0 none
        eps = 1.0 - x_p * x_p / den
        if cmath.isfinite(eps):
            return eps
    # |eps - 1| = r^2 with r = x_p/sqrt(|x + iy| |x|), times the unit phase
    # of 1/((x + iy) x): no intermediate leaves double range before eps does
    m = math.hypot(x, y)
    r = x_p / (math.sqrt(m) * math.sqrt(abs(x)))
    eps = 1.0 - r * r * (math.copysign(1.0, x) * xy.conjugate() / m)
    if cmath.isfinite(eps):
        return eps
    _finite("x_p", x_p)
    _finite("x + iy", xy)
    raise _out_of_range("eps", f"x_p={x_p!r}, x + iy={xy!r}")


def epsilon_mermin(params: PlasmaParams, point: QueryPoint) -> complex:
    """Mermin (momentum-space RTA) permittivity in the same variables."""
    return _eps_bgk(_MERMIN, params.x_p, params.y, point.x, point.q)


#: model -> its eps(x_p, y, x, q): the one BGK evaluator, bound to the model
#: by functools.partial (no Python frame in between), where it has one
_CORES = {
    **{model: functools.partial(_eps_bgk, model) for model in (_QUANTUM, _CLASSICAL, _MERMIN)},
    ModelKind.LINDHARD: lambda x_p, y, x, q: _eps_bgk(_QUANTUM, x_p, 0.0, x, q),
    ModelKind.STATIC: lambda x_p, y, x, q: epsilon_static(x_p, y, q),
    ModelKind.DRUDE: lambda x_p, y, x, q: epsilon_drude(x_p, x, y),
}


def evaluate(model: ModelKind, params: PlasmaParams, point: QueryPoint) -> complex:
    """Dispatch a permittivity model on (params, point); model is a
    ModelKind or its value.  The model's evaluator is called on (x_p, y,
    x, q) straight from the table, and its value is the public epsilon_*
    function's, bit for bit."""
    try:
        core = _CORES[model]  # a str ModelKind hashes and compares as its value
    except (KeyError, TypeError):
        raise ValueError(f"{model!r} is not a valid ModelKind") from None
    return core(params.x_p, params.y, point.x, point.q)


def conductivity(params: PlasmaParams, point: QueryPoint, model: ModelKind) -> complex:
    """Dimensionless longitudinal conductivity s = 4 pi sigma_l/(k_T v_T),
    defined through eps = 1 + i s / x, i.e. s = -i x (eps - 1).

    Only the eps-derived normalization is exposed; x > 0 required.
    """
    if not point.x > 0.0:
        raise ValueError(f"conductivity requires x > 0, got {point.x!r}")
    eps = evaluate(model, params, point)
    return -1j * point.x * (eps - 1.0)
