"""Plasma dispersion function and its relatives, entire in the complex argument.

The workhorse is the Faddeeva function ``w(z) = exp(-z^2) erfc(-iz)``; the
plasma dispersion function is its rescaling ``t(z) = i sqrt(pi) w(z)``, which
for Im z > 0 equals the Hilbert-type integral of the Gaussian and elsewhere is
the analytic (Landau) continuation from the upper half-plane.  All evaluators
here are scalar, pure, and target ~1e-13 relative accuracy in double
precision; the slow quadrature cross-checks live in the test suite's
``tests/oracle.py``.

Each public function checks its argument once (``_check_finite``) and then
works on private kernels that assume a finite complex argument: ``_w`` is w
at finite z, and lambda0 and t_diff_over_q call it directly rather than
through faddeeva_w and plasma_t, whose checks and calls would repeat the
one already made.
"""

from __future__ import annotations

import cmath
import functools
import math
from math import gamma as _gamma

SQRT_PI = math.sqrt(math.pi)
_INV_PI = 1.0 / math.pi
_I_SQRT_PI = 1j * SQRT_PI
_TWO_I_SQRT_PI = 2j * SQRT_PI

#: t_diff_over_q switches to its Taylor form below q = SERIES_SWITCH_Q * (1 + |z|)
SERIES_SWITCH_Q = 1e-3
#: |z| from which faddeeva_w, lambda0 and t_diff_over_q sum the one
#: large-argument tail series sum_m (1/2)_m z^(-2m)
ASYMPTOTIC_SWITCH_Z = 12.0


def _check_finite(z: complex, name: str = "z") -> complex:
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"{name} must be finite, got {z!r}")
    return z


# ----------------------------------------------------------------------------
# Faddeeva function.  Region split:
#   |z| <= 1.8, |Re z| < 0.1      Maclaurin series (the strip along the
#                                 imaginary axis)
#   elsewhere |z| < 12, Im z >= 0 trapezoidal sampling of the defining
#                                 integral plus residue correction for the
#                                 poles inside the summation strip
#   |z| >= 12, Im z >= 0          tail series (i/sqrt(pi))(1 + _tail(z^2))/z
#                                 (12 is ASYMPTOTIC_SWITCH_Z, where lambda0
#                                 and t_diff_over_q sum the same series)
#   Im z < 0                      reflection w(z) = 2 exp(-z^2) - w(-z)
# _w(z) makes this split for finite z; faddeeva_w is _w behind the one
# _check_finite of its public call, and lambda0 and t_diff_over_q, having
# made their own check, call _w directly.
# The trapezoid step h = 0.5 puts the quadrature floor at exp(-pi^2/h^2)
# ~ 7e-18.  Two node grids, A at t = k*h and B at t = (k + 1/2)*h; each z
# takes the grid whose nodes lie at least h/4 from Re z, so neither a node
# term nor the correction, whose poles sit on that grid's nodes, comes near
# a pole.  The omitted nodes, |t| >= 7.5, weigh below exp(-56).
# The trapezoid's error is ~6e-17 |w| absolute, under 1e-15 relative, but
# near the imaginary axis Im w shrinks like Re z * |w|, so there its relative
# error in Im w grows like 6e-17 / |Re z|.  The series' error in Im w
# shrinks with Re z as well, so it keeps Im w accurate in the strip
# |Re z| < 0.1; elsewhere its terms cancel up to ~100-fold towards |z| = 1.8
# and it is the less accurate of the two.
# ----------------------------------------------------------------------------

_SERIES_RADIUS = 1.8
_SERIES_STRIP = 0.1
_H = 0.5
_PI_OVER_H = math.pi / _H
_MACLAURIN = [1.0 / _gamma(0.5 * n + 1.0) for n in range(66)]
# (|z| bound, coefficients from degree N down to 0); each N is one past the
# smallest n with r^n / Gamma(n/2 + 1) < 2e-19, so the omitted terms start
# below 1e-20
_SERIES_BANDS = [(r, _MACLAURIN[n::-1]) for r, n in
                 ((0.25, 22), (0.5, 29), (1.0, 42), (1.4, 53), (1.8, 65))]
# (t^2, 2 exp(-t^2)) for t > 0; grid A's t = 0 node is summed alone as 1/z
_GRID_A = [(t * t, 2.0 * math.exp(-t * t)) for t in (k * _H for k in range(1, 15))]
_GRID_B = [(t * t, 2.0 * math.exp(-t * t)) for t in ((k + 0.5) * _H for k in range(15))]


def _w_series(z: complex, az: float) -> complex:
    # w(z) = sum_n (iz)^n / Gamma(n/2 + 1), by Horner to the band's degree
    for r, coeffs in _SERIES_BANDS:
        if az <= r:
            break
    iz = 1j * z
    acc = 0j
    for c in coeffs:
        acc = acc * iz + c
    return acc


def _tail(z2: complex) -> complex:
    # sum_{m >= 1} (1/2)_m / z^(2m), (1/2)_m = (1/2)(3/2)...(m - 1/2), so
    # t(z) = -(1 + _tail(z^2))/z: 14 terms from |z| = 12, 0 where z^2 is inf
    if cmath.isinf(z2):
        return 0j
    term = acc = 0.5 + 0j
    for m in range(2, 15):
        term *= (m - 0.5) / z2
        acc += term
        if abs(term) < 1e-17 * abs(acc):
            break
    return acc / z2


def _w_trapezoid(z: complex) -> complex:
    on_a = 0.25 <= (z.real / _H) % 1.0 < 0.75
    z2 = z * z
    acc = 0j
    for t2, weight in _GRID_A if on_a else _GRID_B:
        acc += weight / (z2 - t2)
    acc *= z
    if on_a:
        acc += 1.0 / z
    w = (1j * _INV_PI * _H) * acc
    if z.imag >= _PI_OVER_H:
        # poles outside the summation strip; plain trapezoid already exact
        return w
    e = cmath.exp(-2j * math.pi * z / _H)
    ez2 = cmath.exp(-z2)
    if on_a:
        return w - 2.0 * ez2 / (e - 1.0)
    return w + 2.0 * ez2 / (e + 1.0)


def _w(z: complex) -> complex:
    # w at finite z, by the region split above
    if z.imag < 0.0:
        return 2.0 * _exp_minus_z2(z) - _w(-z)
    az = abs(z)
    if az <= _SERIES_RADIUS and abs(z.real) < _SERIES_STRIP:
        return _w_series(z, az)
    if az < ASYMPTOTIC_SWITCH_Z:
        return _w_trapezoid(z)
    return (1j / SQRT_PI) * (1.0 + _tail(z * z)) / z


def _exp_minus_z2(z: complex) -> complex:
    # exp(-z^2) with Re(-z^2) formed cancellation-free as (y-x)(y+x); 0
    # where it underflows, whatever its phase -2xy
    m = (z.imag - z.real) * (z.imag + z.real)
    if m < -745.0:
        return 0j
    phase = -2.0 * z.real * z.imag
    if not (m <= 708.0 and math.isfinite(phase)):
        raise OverflowError(
            f"exp(-z^2) exceeds double-precision range at z={z!r}; "
            "the function value itself is not representable there"
        )
    return cmath.exp(complex(m, phase))


def faddeeva_w(z: complex) -> complex:
    """Faddeeva function ``w(z) = exp(-z^2) erfc(-iz)``.

    Entire in z; relative accuracy ~1e-13 for |z| <= 1e4, from |z| =
    ASYMPTOTIC_SWITCH_Z by the tail series that lambda0 and t_diff_over_q
    also sum.  For Im z < 0 the reflection ``w(z) = 2 exp(-z^2) - w(-z)``
    is used with the exponent assembled cancellation-free, so no
    intermediate overflow occurs while the result is representable; where
    exp(-z^2) dominates, rounding its exponent and phase costs ~|z|^2 ulps,
    w's condition number.  Where the true value overflows double range
    (deep lower half-plane) an OverflowError is raised instead of returning
    infinities.
    """
    return _w(_check_finite(z))


# ----------------------------------------------------------------------------
# Plasma dispersion function t(z) and the Van Kampen function lambda0(z)
# ----------------------------------------------------------------------------

def plasma_t(z: complex) -> complex:
    """Entire (Landau) continuation of the plasma dispersion integral.

    For Im z > 0 this equals (1/sqrt(pi)) Int e^{-mu^2}/(mu - z) dmu; on the
    real axis and below it is the continuation from above, i.e.
    ``i sqrt(pi) w(z)``.
    """
    return _I_SQRT_PI * faddeeva_w(z)


@functools.lru_cache(maxsize=1)
def lambda0(z: complex) -> complex:
    """Van Kampen dispersion function, ``1 + z t(z)``.

    From |z| = ASYMPTOTIC_SWITCH_Z the tail series of faddeeva_w gives
    ``-1/(2 z^2) - 3/(4 z^4) - ...`` directly: the literal ``1 + z t``
    cancels ~2|z|^2-fold there, while the series is accurate to ~1e-15 from
    |z| = 12 on.  For Im z < 0 the series stands for lambda0(-z) and the
    Landau continuation term ``2i sqrt(pi) z exp(-z^2)`` is added.

    The last result is memoised (one entry): the quantum and classical
    models, evaluated one after the other at the same (x, y, q), ask for
    lambda0 at the same z, and the second call returns the first's value
    instead of a second w evaluation.  Non-finite z raises every time; a
    raised call stores nothing.
    """
    z = _check_finite(z)
    if abs(z) < ASYMPTOTIC_SWITCH_Z:
        return 1.0 + z * (_I_SQRT_PI * _w(z))
    val = -_tail(z * z)
    if z.imag < 0.0:
        val += z * (_TWO_I_SQRT_PI * _exp_minus_z2(z))
    return val


# ----------------------------------------------------------------------------
# Dawson integral F(u) = exp(-u^2) Int_0^u exp(s^2) ds, real argument.
# Independent of the Faddeeva path on purpose: the identity
# F(u) = (sqrt(pi)/2) Im w(u) is kept as a cross-check between the two
# implementations, not used as the evaluator.
# ----------------------------------------------------------------------------

_DAWSON_H = 0.27  # sampling step; rule floor exp(-pi^2/(4 h^2)) ~ 2e-15
# 1/(2n+1)!! for n = 19 down to 0; for |u| <= 1 the omitted terms start
# below 2^20/41!! ~ 8e-20
_DAWSON_SERIES = [1.0 / math.prod(range(1, 2 * n + 2, 2)) for n in range(19, -1, -1)]


def _dawson_series(u: float) -> float:
    # F(u) = u sum_n (-2u^2)^n / (2n+1)!!, by Horner in -2u^2
    m2 = -2.0 * u * u
    acc = 0.0
    for c in _DAWSON_SERIES:
        acc = acc * m2 + c
    return u * acc


def _dawson_sampling(u: float) -> float:
    # exponentially convergent sampling over odd multiples of the step
    h = _DAWSON_H
    n_lo = int(math.floor((u - 6.6) / h))
    n_hi = int(math.ceil((u + 6.6) / h))
    if n_lo % 2 == 0:
        n_lo += 1
    acc = 0.0
    for n in range(n_lo, n_hi + 1, 2):
        d = u - n * h
        acc += math.exp(-d * d) / n
    return acc / SQRT_PI


def _dawson_asymptotic(u: float) -> float:
    # F(u) ~ (1/(2u))(1 + 1/(2u^2) + 3/(4u^4) + ...)
    u2 = u * u
    term = 1.0
    acc = 1.0
    for m in range(1, 12):
        term *= (m - 0.5) / u2
        acc += term
        if term < 1e-17 * acc:
            break
    return acc / (2.0 * u)


def dawson(u: float) -> float:
    """Dawson integral F(u); odd, peaks at ~0.5410442246 near u ~ 0.9241."""
    u = float(u)
    if not math.isfinite(u):
        raise ValueError(f"u must be finite, got {u!r}")
    a = abs(u)
    if a <= 1.0:
        return _dawson_series(u)
    if a < 10.0:
        val = _dawson_sampling(a)
    else:
        val = _dawson_asymptotic(a)
    return math.copysign(val, u)


# ----------------------------------------------------------------------------
# Derivatives of t and the cancellation-safe symmetric difference
# ----------------------------------------------------------------------------

def _t_tail_derivatives(z: complex, n: int) -> list[complex]:
    # [t'', ..., t^(n)] from |z| = 12: the tail series differentiated term
    # by term, t^(k) = -(-1)^k sum_m (1/2)_m (2m+1)_k z^-(2m+1+k) with the
    # rising factorial (2m+1)_k, and below the axis the Landau term
    # 2i sqrt(pi) exp(-z^2) differentiated through the Hermite recurrence,
    # (d/dz)^k exp(-z^2) = (-1)^k H_k(z) exp(-z^2)
    inv_z = 1.0 / z
    inv_z2 = inv_z * inv_z
    out = []
    for k in range(2, n + 1):
        term = acc = math.factorial(k) * inv_z ** (k + 1)
        for m in range(40):
            term *= ((m + 0.5) * (2 * m + 1 + k) * (2 * m + 2 + k)
                     / ((2 * m + 1) * (2 * m + 2))) * inv_z2
            acc += term
            if abs(term) <= 1e-17 * abs(acc):
                break
        out.append(acc if k % 2 else -acc)
    if z.imag < 0.0 and n >= 2:
        g = [_exp_minus_z2(z)]  # g_k = H_k(z) exp(-z^2)
        g.append(2.0 * z * g[0])
        for k in range(1, n):
            g.append(2.0 * z * g[k] - 2.0 * k * g[k - 1])
        for k in range(2, n + 1):
            out[k - 2] += (-1) ** k * _TWO_I_SQRT_PI * g[k]
        if not all(cmath.isfinite(v) for v in out):
            raise OverflowError(
                f"a derivative of t exceeds double-precision range at z={z!r}"
            )
    return out


def t_derivatives(z: complex, n: int) -> list[complex]:
    """[t, t', ..., t^(n)] with t' = -2 lambda0.  Requires 0 <= n <= 6.

    Below |z| = ASYMPTOTIC_SWITCH_Z the higher orders follow the recurrence
    t^(m+1) = -2 (m t^(m-1) + z t^(m)); from there on, where each of its
    steps would cancel ~|z|^2-fold, they sum the tail series of t
    differentiated term by term, plus the Landau term's derivatives for
    Im z < 0.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"derivative order must be an integer, got {n!r}")
    if not 0 <= n <= 6:
        raise ValueError(f"derivative order must be in 0..6, got {n}")
    z = _check_finite(z)
    out = [plasma_t(z)]
    if abs(z) >= ASYMPTOTIC_SWITCH_Z:
        if n >= 1:
            out.append(-2.0 * lambda0(z))
        return out + _t_tail_derivatives(z, n)
    if n >= 1:
        # lambda0 is the literal 1 + z t here: form it from out[0]
        out.append(-2.0 * (1.0 + z * out[0]))
    for m in range(1, n):
        out.append(-2.0 * (m * out[m - 1] + z * out[m]))
    return out


def _t_diff_tail(z: complex, q: float) -> complex:
    # the tail series t(s) = -sum_{m >= 0} (1/2)_m s^-(2m+1) differenced
    # exactly in q: with a, b = z -+ q/2 and d_k = (a^-k - b^-k)/q, d_1 =
    # 1/(ab), d_2 = 2z/(ab)^2, d_(k+2) = d_k/a^2 + b^-k d_2 (nothing cancels)
    # and D = -sum_m (1/2)_m d_(2m+1).  For q <= 0.9|z|, |a|, |b| >= 6.6, so
    # 30 terms and the series' omitted exp(-s^2) part stay below 3e-18 of D
    # (at q = |z| = 12, |a| = 6, that part is 3.7e-15)
    a, b = z - 0.5 * q, z + 0.5 * q
    a2, b2 = a * a, b * b
    val = 0j
    # where a^2 or b^2 is inf, |ab| >= 0.38 max(|a|, |b|)^2 and the series,
    # ~ -1/(ab), underflows to 0 as in _tail
    if not (cmath.isinf(a2) or cmath.isinf(b2)):
        inv_a2, inv_b2 = 1.0 / a2, 1.0 / b2
        term = acc = 1.0 / (a * b)
        g = 2.0 * z * term * term / b  # (1/2)_(m-1) b^-(2m-1) d_2
        for m in range(1, 31):
            term = (m - 0.5) * (term * inv_a2 + g)  # (1/2)_m d_(2m+1)
            g *= (m - 0.5) * inv_b2
            acc += term
            if abs(term) < 1e-17 * abs(acc):
                break
        val = -acc
    if z.imag < 0.0:
        # the exact difference of the Landau terms 2i sqrt(pi) exp(-s^2) at
        # s = z -+ q/2: as 2 exp(-z^2 - q^2/4) sinh(qz) where it would
        # cancel, term by term otherwise
        qz = q * z
        if abs(qz.real) < 1.0:
            # exp(-z^2) first: where q Im z overflows, so does |z|^2, and its
            # OverflowError names z before sinh(qz) meets an infinite argument
            e = _exp_minus_z2(z)
            terms = ((e, 2.0 * math.exp(-0.25 * q * q) * cmath.sinh(qz)),)
        else:
            terms = ((_exp_minus_z2(z - 0.5 * q), 1.0),
                     (_exp_minus_z2(z + 0.5 * q), -1.0))
        for e, f in terms:
            val += f * _TWO_I_SQRT_PI * e / q
    return val


def t_diff_over_q(z: complex, q: float) -> complex:
    """[t(z - q/2) - t(z + q/2)] / q.

    The direct difference cancels ~|z|/q-fold.  From |z| =
    ASYMPTOTIC_SWITCH_Z, for q <= 0.9 |z|, the tail series of t is
    differenced exactly in q instead (:func:`_t_diff_tail`); below |z| = 12
    and q = SERIES_SWITCH_Q * (1 + |z|), the odd-order Taylor form
    -(t' + q^2 t'''/24 + q^4 t^(5)/1920) of :func:`t_derivatives`.  Each
    agrees with the direct difference within the accuracy target at its
    switch.  On the imaginary axis the direct difference is formed as the
    real -2 Re t(q/2 + iv)/q, from one w evaluation.
    """
    z = _check_finite(z)
    q = float(q)
    if not (q > 0.0):
        raise ValueError(f"q must be strictly positive, got {q!r}")
    az = abs(z)
    if az >= ASYMPTOTIC_SWITCH_Z and q <= 0.9 * az:
        return _t_diff_tail(z, q)
    if q < SERIES_SWITCH_Q * (1.0 + az):
        d = t_derivatives(z, 5)
        q2 = q * q
        return -(d[1] + q2 * (d[3] / 24.0 + q2 * d[5] / 1920.0))
    half = 0.5 * q
    if z.real == 0.0:
        # t(-conj s) = -conj t(s) makes D(iv) = -2 Re t(q/2 + iv)/q, real
        return complex(-2.0 * (_I_SQRT_PI * _w(complex(half, z.imag))).real / q, 0.0)
    return (_I_SQRT_PI * _w(z - half) - _I_SQRT_PI * _w(z + half)) / q
