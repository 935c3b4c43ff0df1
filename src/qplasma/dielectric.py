"""Longitudinal permittivity models in dimensionless variables.

All models take the plasma state (x_p, y) and an evaluation point (x, q),
where frequencies are in units of k_T v_T and wave numbers in units of the
thermal wave number k_T.  The internal evaluators accept a complex frequency
so the dispersion solver can continue them off the real axis; the public
operations expose the physical real-frequency surface.

Normalization note (re-derivation of the classical form): with
omega -> x, nu -> y, omega_p -> x_p in units of k_T v_T and k -> q in units
of k_T, the prefactor 2 omega_p^2/(k^2 v_T^2) becomes 2 x_p^2/q^2 and
z = (omega + i nu)/(k v_T) = (x + i y)/q, giving

    eps_classical = 1 + (2 x_p^2/q^2) (x+iy) lambda0(z) / (x + i y lambda0(z))
    eps_quantum   = 1 + (x_p^2/q^2)  (x+iy) D(z,q)     / (x + i y lambda0(z))

with D(z,q) = [t(z-q/2) - t(z+q/2)]/q.
"""

from __future__ import annotations

import math
from enum import Enum

from .special_functions import (
    dawson,
    faddeeva_w,  # noqa: F401  bench/spans.py wraps this name; --trace 1 needs it
    lambda0,
    plasma_t,  # noqa: F401  bench/spans.py wraps this name; --trace 1 needs it
    t_diff_and_lambda0,
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
        _set(self, "x_p", x_p)
        _set(self, "y", y)

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
        _set(self, "x", x)
        _set(self, "q", q)

    def z(self, y: float) -> complex:
        if self.q <= 0:
            raise ValueError("z = (x + iy)/q is defined only for q > 0")
        return complex(self.x, y) / self.q


def _require_positive_q(q: float) -> float:
    q = float(q)
    if not q > 0.0:
        raise ValueError(f"wave number q must be strictly positive, got {q!r}")
    return q


def _prefactor(x_p: float, xy: complex, q: float) -> float:
    # x_p^2/q^2.  Below q = 1e-154 q^2 is subnormal, and where x_p/q or
    # |z| = |x + iy|/q passes 1e154, x_p^2/q^2 or z^2 in lambda0's tail
    # overflows: fail loudly there rather than return nan or lost digits.
    # An infinite x + iy fails the same test but is no question of range
    if max(1.0, x_p, abs(xy)) > 1e154 * q:
        if math.isinf(abs(xy)):
            raise ValueError(f"x + iy must be finite, got {xy!r}")
        raise OverflowError(
            f"q={q!r} is too small at x_p={x_p!r}, x + iy={xy!r}: q^2, "
            "x_p^2/q^2 or z^2 = ((x + iy)/q)^2 leaves double range"
        )
    return x_p * x_p / (q * q)


# ---------------------------------------------------------------------------
# Complex-frequency cores (used by the public surface and the root solver)
# ---------------------------------------------------------------------------

def eps_quantum_omega(x_p: float, y: float, omega: complex, q: float) -> complex:
    """Quantum-model permittivity at (possibly complex) frequency omega."""
    q = _require_positive_q(q)
    if x_p == 0.0:
        return 1.0 + 0j
    xy = omega + 1j * y
    pre = _prefactor(x_p, xy, q)
    z = xy / q
    if y == 0.0:
        # the BGK factor xy/(omega + iy lambda0) is exactly 1: collisionless
        return 1.0 + pre * t_diff_over_q(z, q)
    D, lam = t_diff_and_lambda0(z, q)
    return 1.0 + pre * xy * D / (omega + 1j * y * lam)


def eps_classical_omega(x_p: float, y: float, omega: complex, q: float) -> complex:
    """Classical-model permittivity at (possibly complex) frequency omega."""
    q = _require_positive_q(q)
    if x_p == 0.0:
        return 1.0 + 0j
    xy = omega + 1j * y
    pre = 2.0 * _prefactor(x_p, xy, q)
    lam = lambda0(xy / q)
    if y == 0.0:
        return 1.0 + pre * lam
    return 1.0 + pre * xy * lam / (omega + 1j * y * lam)


#: (q, D0(q)) of the last mermin_static_denominator call: D0 is constant
#: along every root solve and every x or y sweep
_d0_last = (None, None)


def mermin_static_denominator(q: float) -> float:
    """D0(q) = [t(-q/2) - t(q/2)]/q = 4 F(q/2)/q (Dawson F), entering
    Mermin's number-conserving correction; D0 -> 2 as q -> 0.  The last
    result is memoised (one entry)."""
    global _d0_last
    last_q, last = _d0_last
    if q == last_q:
        return last
    q = _require_positive_q(q)
    F = dawson(0.5 * q)
    val = 4.0 * F / q
    _d0_last = (q, val)
    return val


def eps_mermin_omega(x_p: float, y: float, omega: complex, q: float) -> complex:
    """Mermin-model permittivity at (possibly complex) frequency omega."""
    q = _require_positive_q(q)
    if x_p == 0.0:
        return 1.0 + 0j
    xy = omega + 1j * y
    pre = _prefactor(x_p, xy, q)
    D = t_diff_over_q(xy / q, q)
    if y == 0.0:
        return 1.0 + pre * D
    D0 = mermin_static_denominator(q)
    return 1.0 + pre * xy * D / (omega + 1j * y * D / D0)


# ---------------------------------------------------------------------------
# Public real-frequency surface
# ---------------------------------------------------------------------------

def epsilon_quantum(params: PlasmaParams, point: QueryPoint) -> complex:
    """Quantum longitudinal permittivity (coordinate-space BGK model)."""
    return eps_quantum_omega(params.x_p, params.y, point.x, point.q)


def epsilon_classical(params: PlasmaParams, point: QueryPoint) -> complex:
    """Classical (BGK) longitudinal permittivity; no quantum recoil."""
    return eps_classical_omega(params.x_p, params.y, point.x, point.q)


def epsilon_lindhard(x_p: float, x: float, q: float) -> complex:
    """Collisionless (Landau-continued) permittivity: the quantum model at
    y = 0, 1 + (x_p^2/q^2) D(x/q, q)."""
    return eps_quantum_omega(x_p, 0.0, x, q)


def epsilon_static(x_p: float, y: float, q: float) -> complex:
    """Zero-frequency (screening) permittivity; exactly real by construction.

    At x = 0 the argument is z = iy/q, and the reflection symmetry
    t(-conj z) = -conj t(z) makes both the kernel and lambda0 real:
    D(iv, q) = -2 Re t(q/2 + iv)/q and lambda0(iv) = 1 - sqrt(pi) v w(iv).
    Only the real parts enter.  Both come from one
    :func:`t_diff_and_lambda0` call, whose partial-fraction and tail forms
    avoid the underflow and cancellation of the literal ones.
    """
    q = _require_positive_q(q)
    y = float(y)
    if not y > 0.0:
        raise ValueError(f"static limit requires y > 0, got {y!r}")
    if x_p == 0.0:
        return 1.0 + 0j
    pre = _prefactor(x_p, complex(0.0, y), q)
    v = y / q
    kernel, lam = t_diff_and_lambda0(complex(0.0, v), q)
    return complex(1.0 + pre * kernel.real / lam.real, 0.0)


def epsilon_drude(x_p: float, x: float, y: float) -> complex:
    """Fully evaluated long-wave (k -> 0) limit, 1 - x_p^2/((x+iy) x).

    The static and long-wave limits do not commute, so x = 0 is rejected
    rather than silently mapped to the screening branch.
    """
    x = float(x)
    if x == 0.0:
        raise ValueError(
            "drude limit is undefined at x = 0 (static and long-wave limits "
            "do not commute); use epsilon_static instead"
        )
    return 1.0 - x_p * x_p / (complex(x, y) * x)


def epsilon_mermin(params: PlasmaParams, point: QueryPoint) -> complex:
    """Mermin (momentum-space RTA) permittivity in the same variables."""
    return eps_mermin_omega(params.x_p, params.y, point.x, point.q)


_EVALUATORS = {
    ModelKind.QUANTUM: epsilon_quantum,
    ModelKind.CLASSICAL: epsilon_classical,
    ModelKind.MERMIN: epsilon_mermin,
    ModelKind.LINDHARD: lambda params, point: epsilon_lindhard(params.x_p, point.x, point.q),
    ModelKind.STATIC: lambda params, point: epsilon_static(params.x_p, params.y, point.q),
    ModelKind.DRUDE: lambda params, point: epsilon_drude(params.x_p, point.x, params.y),
}


def evaluate(model: ModelKind, params: PlasmaParams, point: QueryPoint) -> complex:
    """Dispatch a permittivity model on (params, point); model is a
    ModelKind or its value."""
    try:
        fn = _EVALUATORS[model]  # a str ModelKind hashes and compares as its value
    except (KeyError, TypeError):
        raise ValueError(f"{model!r} is not a valid ModelKind") from None
    return fn(params, point)


def conductivity(params: PlasmaParams, point: QueryPoint, model: ModelKind) -> complex:
    """Dimensionless longitudinal conductivity s = 4 pi sigma_l/(k_T v_T),
    defined through eps = 1 + i s / x, i.e. s = -i x (eps - 1).

    Only the eps-derived normalization is exposed; x > 0 required.
    """
    if not point.x > 0.0:
        raise ValueError(f"conductivity requires x > 0, got {point.x!r}")
    eps = evaluate(model, params, point)
    return -1j * point.x * (eps - 1.0)
