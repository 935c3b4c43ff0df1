"""Plasma dispersion function and its relatives, entire in the complex argument.

The workhorse is the Faddeeva function ``w(z) = exp(-z^2) erfc(-iz)``; the
plasma dispersion function is its rescaling ``t(z) = i sqrt(pi) w(z)``, which
for Im z > 0 equals the Hilbert-type integral of the Gaussian and elsewhere is
the analytic (Landau) continuation from the upper half-plane.  All evaluators
here are scalar, pure, and target ~1e-13 relative accuracy in double
precision; against mpmath, w is within 2e-15 outside the Maclaurin strip,
and below |z| = 12 lambda0 is within ~7e-15 and the kernel D = [t(z -
q/2) - t(z + q/2)]/q within ~6e-15 (1e-14 next to the node rule's bound,
see _node_loop, and 2.3e-14 where the rule refuses and D is the direct
difference).  The slow quadrature cross-checks live in the test suite's
``tests/oracle.py``.

Each public function checks its argument once (``_check_finite``; a wave
number q by ``_check_q``, the package's one rule 0 < q < inf) and then
works on private kernels that assume a finite complex argument: ``_w`` is w
at finite z, and ``_node_loop`` sums w's trapezoid rule as partial
fractions, giving D and lambda0 at one z from one loop over its nodes.
lambda0, t_diff_over_q and t_diff_and_lambda0 call these directly rather
than through faddeeva_w and plasma_t, whose checks and calls would repeat
the one already made; the quantum and static models, which check their
own q and x + iy, call t_diff_and_lambda0's kernel ``_t_diff_and_lambda0``
the same way.  From |z| = 12 all of them sum one tail series by
Horner over one table of its coefficients, to a length that one lookup on
|z|^2 picks.  lambda0 and t_diff_over_q keep their last result (one-entry
memos, which t_diff_and_lambda0 fills and reads neither), so the models
evaluated one after the other at one point compute lambda0 and D once.
Deep below the real axis exp(-z^2) and the Landau terms built from it can
leave double range; there the functions raise OverflowError naming z (and
q) instead of returning inf or nan.
"""

from __future__ import annotations

import cmath
import math
import sys
from bisect import bisect_left
from math import gamma as _gamma

SQRT_PI = math.sqrt(math.pi)
_INV_PI = 1.0 / math.pi
_I_SQRT_PI = 1j * SQRT_PI
_TWO_I_SQRT_PI = 2j * SQRT_PI
_MIN_NORMAL = sys.float_info.min

#: |z| from which faddeeva_w, lambda0 and t_diff_over_q sum the one
#: large-argument tail series sum_m (1/2)_m z^(-2m)
ASYMPTOTIC_SWITCH_Z = 12.0


def _check_finite(z: complex, name: str = "z") -> complex:
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"{name} must be finite, got {z!r}")
    return z


def _check_q(q: float) -> float:
    # the package's one rule for a wave number q
    q = float(q)
    if not 0.0 < q < math.inf:
        raise ValueError(f"q must be finite and > 0, got {q!r}")
    return q


def _out_of_range(what: str, where: str) -> OverflowError:
    return OverflowError(f"{what} exceeds double-precision range at {where}; "
                         "the function value itself is not representable there")


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
# _check_finite of its public call.  lambda0 and t_diff_over_q share the
# tail, and below it, strip included, sum the trapezoid rule as partial
# fractions (_node_loop below), free of the cancellation of 1 + z t and of
# a difference of two t values.
# The trapezoid step h = 0.5 puts the quadrature floor at exp(-pi^2/h^2)
# ~ 7e-18.  Two node grids, A at t = k*h and B at t = (k + 1/2)*h; each z
# takes the grid whose nodes lie at least h/4 from Re z, so neither a node
# term nor the correction, whose poles sit on that grid's nodes, comes near
# a pole.  The tables stop at t = 6.5: the omitted nodes, |t| >= 6.75,
# weigh exp(-t^2) < exp(-45) and move D, lambda0 and w by at most ~2e-17
# relative.
# The trapezoid's error is ~6e-17 |w| absolute, under 1e-15 relative, but
# near the imaginary axis Im w shrinks like Re z * |w|, so there its relative
# error in Im w grows like 6e-17 / |Re z|.  The series' error in Im w
# shrinks with Re z as well, so it keeps Im w accurate in the strip
# |Re z| < 0.1; elsewhere its terms cancel up to ~100-fold towards |z| = 1.8
# and it is the less accurate of the two.
# ----------------------------------------------------------------------------

_H = 0.5
_PI_OVER_H = math.pi / _H
_MACLAURIN = [1.0 / _gamma(0.5 * n + 1.0) for n in range(66)]
# (|z| bound, coefficients from degree N down to 0); each N is one past the
# smallest n with r^n / Gamma(n/2 + 1) < 2e-19, so the omitted terms start
# below 1e-20
_SERIES_BANDS = [(r, _MACLAURIN[n::-1]) for r, n in
                 ((0.25, 22), (0.5, 29), (1.0, 42), (1.4, 53), (1.8, 65))]
# the disk |s| <= 0.5 of one band, where D is the series differenced
_DISK_RADIUS, _DISK_COEFFS = _SERIES_BANDS[1]


def _node(t: float) -> tuple[complex, complex, complex]:
    # (t^2, 2 exp(-t^2), 2 t^2 exp(-t^2)) as complex numbers: complex-complex
    # arithmetic is the faster, and gives the bits of the mixed float-complex
    # form
    wt = 2.0 * math.exp(-t * t)
    return complex(t * t), complex(wt), complex(wt * (t * t))


# the nodes t > 0 of grids A and B; grid A's t = 0 node is summed alone as 1/z
_NODES_A = [_node(k * _H) for k in range(1, 14)]
_NODES_B = [_node((k + 0.5) * _H) for k in range(13)]
_MINUS_H_OVER_SQRT_PI = complex(-_H / SQRT_PI)
_MINUS_2PI_I_OVER_H = -2j * math.pi / _H
_TWO_PI_I = 2j * math.pi
# (sigma, 2 sigma i sqrt(pi)) of c(s) on grids A and B
_POLES_A = (-1 + 0j, -_TWO_I_SQRT_PI)
_POLES_B = (1 + 0j, _TWO_I_SQRT_PI)


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


# The tail series t(s) = -(1/s) sum_{m >= 0} (1/2)_m w^m, w = 1/s^2 and
# (1/2)_m = (1/2)(3/2)...(m - 1/2), summed by Horner.  _TAIL_HORNER[n - 1]
# holds (1/2)_n, ..., (1/2)_1, the n terms from m = 1 on.  The |s|^2 below,
# for n = 1, 2, ..., are the smallest from which n terms keep the omitted
# ones, against 30 terms, below 1e-17 of _tail and of D (with |z/s| <=
# 20/11, as q <= 0.9|z| keeps it), rounded up; one bisect on |w| against
# their reciprocals picks the length, 13 at most for _tail (|s| >= 12) and
# 30 for D (|s| >= 6.6)
_HALF_POCHHAMMER = [math.prod(range(1, 2 * m, 2)) / 2 ** m for m in range(31)]
_TAIL_HORNER = [tuple(_HALF_POCHHAMMER[n:0:-1]) for n in range(1, 31)]
_TAIL_W = [1.0 / r2 for r2 in (1.51e17, 6.13e8, 1.1e6, 49300.0, 7990.0, 2450.0, 1070.0,
                               586.0, 371.0, 261.0, 197.0, 157.0)]
_D_W = [1.0 / r2 for r2 in (7.88e8, 1.31e6, 56600.0, 8930.0, 2690.0, 1160.0, 629.0, 396.0,
                            276.0, 207.0, 165.0, 136.0, 116.0, 102.0, 91.1, 82.9, 76.4,
                            71.3, 67.2, 63.8, 61.0, 58.7, 56.7, 55.1, 53.6, 52.3, 51.1,
                            49.9, 48.3)]


def _tail(z2: complex) -> complex:
    # sum_{m >= 1} (1/2)_m / z^(2m), so t(z) = -(1 + _tail(z^2))/z; 13 terms
    # at |z| = 12, fewer beyond, and 0 where z^2 is inf
    if cmath.isinf(z2):
        return 0j
    w = 1.0 / z2
    acc = 0j
    for c in _TAIL_HORNER[bisect_left(_TAIL_W, abs(w))]:
        acc = acc * w + c
    return acc * w


def _w_trapezoid(z: complex) -> complex:
    on_a = 0.25 <= (z.real / _H) % 1.0 < 0.75
    nodes, (sigma, _) = (_NODES_A, _POLES_A) if on_a else (_NODES_B, _POLES_B)
    z2 = z * z
    acc = 0j
    for t2, wt, _ in nodes:
        acc += wt / (z2 - t2)
    acc *= z
    if on_a:
        acc += 1.0 / z
    w = (1j * _INV_PI * _H) * acc
    if z.imag >= _PI_OVER_H:
        # poles outside the summation strip; plain trapezoid already exact
        return w
    e = cmath.exp(-2j * math.pi * z / _H)
    return w + sigma * 2.0 * cmath.exp(-z2) / (e + sigma)


def _w(z: complex) -> complex:
    # w at finite z, by the region split above
    if z.imag < 0.0:
        return 2.0 * _exp_minus_z2(z) - _w(-z)
    az = abs(z)
    if az <= 1.8 and abs(z.real) < 0.1:
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
        raise _out_of_range("exp(-z^2)", f"z={z!r}")
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
# The trapezoid rule as partial fractions: the kernel D and lambda0 from one
# node loop.  _w_trapezoid's rule is, in terms of t,
#   t(s) = -(h/sqrt(pi)) sum_k exp(-t_k^2)/(s - t_k) + c(s),
#   c(s) = 2 sigma i sqrt(pi) f(s)/g(s), f = exp(-s^2), g = e + sigma,
# with e(s) = exp(-2 pi i s/h), sigma = -1 on grid A and +1 on grid B, and
# c = 0 for Im s >= pi/h.  Pairing the nodes +-t_k (weights 2 exp(-t_k^2))
# gives, with a, b = z -+ q/2,
#   lambda0 = -(h/sqrt(pi)) sum_k 2 exp(-t_k^2) t_k^2/(z^2 - t_k^2) + z c(z),
#   D = -(h/sqrt(pi)) [1/(ab) on grid A + sum_k 2 exp(-t_k^2)(ab + t_k^2)
#       / ((a^2 - t_k^2)(b^2 - t_k^2))] + [c(a) - c(b)]/q.
# The leading 1 of lambda0 = 1 + z t cancels exactly against (h/sqrt(pi))
# sum_k exp(-t_k^2) = 1 + delta, delta = +-2 exp(-pi^2/h^2) ~ 1.4e-17 by
# Poisson summation.  delta is left out, since the rule's own aliasing
# error cancels it to leading order.  D is exact in q: no two t values are
# differenced, and for |Re qz| < 1 neither are the corrections, by
#   f(a) g(b) - f(b) g(a) = 2 exp(-z^2 - q^2/4)
#                           [e(z) sinh(qz - i pi q/h) + sigma sinh(qz)];
# for |Re qz| >= 1, |f(a)/f(b)| = exp(2 Re qz) keeps the plain difference
# from cancelling.  a and b use z's grid, so D needs them at least h/8
# (complex distance) from its nodes, where the correction's poles sit; z's
# grid keeps Re z h/4 from them, so only q > h/4 can fail that.  Below the
# axis both are reflected, lambda0(z) = lambda0(-z) + 2i sqrt(pi) z exp(-z^2)
# and D(z, q) = D(-z, q) plus the Landau block of _add_landau_diff.
# ----------------------------------------------------------------------------

def _node_loop(z: complex, q: float, with_lambda0: bool):
    """(D(z, q), lambda0(z)) from one loop over the nodes of z's grid, for
    finite z with |z| < 12 and, for D, 0 < q < 12.  q = 0 asks for lambda0
    alone, and without with_lambda0 only D is summed; what is not asked for
    is None.  Returns None instead where D is asked for but a or b lies
    nearer than h/8 to a node."""
    lower = z.imag < 0.0
    u = -z if lower else z
    y = u.imag
    xs = u.real / _H
    frac = xs % 1.0
    on_a = 0.25 <= frac < 0.75
    qs = 0.5 * q / _H
    if qs > 0.125 and y < 0.125 * _H:
        # Re a and Re b in steps, offset to the nearest node, against the
        # node rule's bound
        lim = 1.0 / 64.0 - (y / _H) ** 2
        off = 0.5 if on_a else 0.0
        fa = (xs + off - qs) % 1.0 - 0.5
        fb = (xs + off + qs) % 1.0 - 0.5
        if fa * fa < lim or fb * fb < lim:
            return None
    nodes = _NODES_A if on_a else _NODES_B
    u2 = u * u
    D = lam = None
    if q:
        half = 0.5 * q
        a, b = u - half, u + half
        ab, a2, b2 = a * b, a * a, b * b
        acc = 1.0 / ab if on_a else 0j
        if with_lambda0:
            acc_l = 0j
            for t2, wt, wt2 in nodes:
                acc += wt * (ab + t2) / ((a2 - t2) * (b2 - t2))
                acc_l += wt2 / (u2 - t2)
            lam = _MINUS_H_OVER_SQRT_PI * acc_l
        else:
            for t2, wt, _ in nodes:
                acc += wt * (ab + t2) / ((a2 - t2) * (b2 - t2))
        D = _MINUS_H_OVER_SQRT_PI * acc
    else:
        acc_l = 0j
        for t2, _, wt2 in nodes:
            acc_l += wt2 / (u2 - t2)
        lam = _MINUS_H_OVER_SQRT_PI * acc_l
    if y < _PI_OVER_H:
        # e(s) with its phase reduced to one period exactly: u less the
        # multiple of h below it is exact
        sigma, k = _POLES_A if on_a else _POLES_B
        e = cmath.exp(_MINUS_2PI_I_OVER_H * (u - _H * (xs - frac)))
        g = cmath.exp(-u2)
        if lam is not None:
            lam += k * u * g / (e + sigma)
        if D is not None:
            ith = _TWO_PI_I * (qs % 1.0)
            rot = cmath.exp(ith)  # e(a)/e(z) = exp(i pi q/h)
            ga, gb = e * rot + sigma, e / rot + sigma
            qu = q * u
            if abs(qu.real) < 1.0:
                diff = (2.0 * math.exp(-0.25 * q * q) * g
                        * (e * cmath.sinh(qu - ith) + sigma * cmath.sinh(qu)) / (ga * gb))
            else:
                diff = cmath.exp(-a2) / ga - cmath.exp(-b2) / gb
            D += k * diff / q
    if lower:
        if lam is not None:
            lam += z * (_TWO_I_SQRT_PI * _exp_minus_z2(z))
        if D is not None:
            D = _add_landau_diff(D, z, q)
    return D, lam


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


#: (z, lambda0(z)) of the last lambda0 evaluated, by lambda0 or by
#: t_diff_and_lambda0: the one-entry memo
_lambda0_last = (None, None)


def lambda0(z: complex) -> complex:
    """Van Kampen dispersion function, ``1 + z t(z)``.

    From |z| = ASYMPTOTIC_SWITCH_Z the tail series of faddeeva_w gives
    ``-1/(2 z^2) - 3/(4 z^4) - ...`` directly: the literal ``1 + z t``
    cancels ~2|z|^2-fold there, while the series is accurate to ~1e-15 from
    |z| = 12 on.  Below |z| = 12 the trapezoid rule of faddeeva_w is summed
    as partial fractions in which the leading 1 cancels exactly
    (:func:`_node_loop`), except at z = 0, where lambda0 is exactly 1 (the
    literal ``1 + z t``; the partial fractions give 1 + 2e-16).  For
    Im z < 0 the tail and the partial fractions stand for lambda0(-z) and
    the Landau continuation term ``2i sqrt(pi) z exp(-z^2)`` is added.

    The last result is memoised (one entry, which
    :func:`t_diff_and_lambda0` also fills): the quantum and classical
    models, evaluated one after the other at the same (x, y, q), ask for
    lambda0 at the same z, and the second call returns the first's value
    instead of a second node loop.  z + 0j and z - 0j share the entry, and give the same
    value.  Non-finite z raises every time; a raised call stores nothing.
    Deep below the real axis, where the Landau term leaves double range,
    OverflowError names z.
    """
    global _lambda0_last
    last_z, last = _lambda0_last
    if z == last_z:
        return last
    z = _check_finite(z)
    val = _lambda0(z)
    _lambda0_last = (z, val)
    return val


def _lambda0(z: complex) -> complex:
    # lambda0 at finite z, unmemoised
    az = abs(z)
    if az >= ASYMPTOTIC_SWITCH_Z:
        val = -_tail(z * z)
        if z.imag < 0.0:
            val += z * (_TWO_I_SQRT_PI * _exp_minus_z2(z))
            if not cmath.isfinite(val):
                raise _out_of_range("lambda0", f"z={z!r}")
        return val
    if az == 0.0:
        return 1.0 + 0j  # the node loop gives 1.0000000000000002
    return _node_loop(z, 0.0, True)[1]


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
# t and t', and the cancellation-safe symmetric difference
# ----------------------------------------------------------------------------

def t_derivatives(z: complex, n: int) -> list[complex]:
    """[t] for n = 0 and [t, t'] for n = 1, with t' = -2 lambda0."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"derivative order must be an integer, got {n!r}")
    if n not in (0, 1):
        raise ValueError(f"derivative order must be 0 or 1, got {n}")
    z = _check_finite(z)
    t = plasma_t(z)
    if n == 0:
        return [t]
    dt = -2.0 * _lambda0(z)
    if not cmath.isfinite(dt):
        raise _out_of_range("t' = -2 lambda0", f"z={z!r}")
    return [t, dt]


def _t_diff_tail(z: complex, q: float) -> complex:
    # the tail series t(s) = -(1/s) P(1/s^2) differenced exactly in q: with
    # a, b = z -+ q/2, wa, wb = 1/a^2, 1/b^2 and dd = [P(wa) - P(wb)]/(wa -
    # wb), carried by Horner as in _t_diff_disk, D = -[P(wa) + 2 dd (z/a)
    # wb]/(ab) (nothing cancels).  The smaller of |a|, |b| (|a| where Re z
    # >= 0) sets the length.  For q <= 0.9|z|, |a|, |b| >= 6.6, so 30 terms
    # and the series' omitted exp(-s^2) part stay below 3e-18 of D (at q =
    # |z| = 12, |a| = 6, that part is 3.7e-15)
    z += 0j  # x - 0j as x + 0j: on the axis D's imaginary part is a signed 0
    a, b = z - 0.5 * q, z + 0.5 * q
    a2, b2 = a * a, b * b
    val = 0j
    # where a^2 or b^2 is inf, |ab| >= 0.38 max(|a|, |b|)^2 and the series,
    # ~ -1/(ab), underflows to 0 as in _tail
    if not (cmath.isinf(a2) or cmath.isinf(b2)):
        wa, wb = 1.0 / a2, 1.0 / b2
        acc = dd = 0j
        for c in _TAIL_HORNER[bisect_left(_D_W, abs(wa if z.real >= 0.0 else wb))]:
            dd = dd * wb + acc
            acc = acc * wa + c
        dd = dd * wb + acc
        acc = acc * wa + 1.0  # (1/2)_0
        val = -(acc + 2.0 * dd * (z / a) * wb) / (a * b)
    if z.imag < 0.0:
        val = _add_landau_diff(val, z, q)
    return val


def _add_landau_diff(val: complex, z: complex, q: float) -> complex:
    # val plus the exact difference of the Landau terms 2i sqrt(pi) exp(-s^2)
    # at s = z -+ q/2, over q: as 2 exp(-z^2 - q^2/4) sinh(qz) where it
    # would cancel, term by term otherwise
    qz = q * z
    if abs(qz.real) < 1.0:
        # exp(-z^2) first: where q Im z overflows, so does |z|^2, and its
        # OverflowError names z before sinh(qz) meets an infinite argument
        e = _exp_minus_z2(z)
        terms = ((e, 2.0 * math.exp(-0.25 * q * q) * cmath.sinh(qz)),)
    else:
        try:
            terms = ((_exp_minus_z2(z - 0.5 * q), 1.0),
                     (_exp_minus_z2(z + 0.5 * q), -1.0))
        except OverflowError as exc:
            raise _t_diff_out_of_range(z, q) from exc
    for e, f in terms:
        val += f * _TWO_I_SQRT_PI * e / q
    return val


def _t_diff_out_of_range(z: complex, q: float) -> OverflowError:
    # D's error names the caller's z and q, not the shifted point z -+ q/2
    # whose exp(-s^2) left range
    return _out_of_range("[t(z - q/2) - t(z + q/2)]/q", f"z={z!r}, q={q!r}")


#: (z, q, D(z, q)) of the last D evaluated, by t_diff_over_q or by
#: t_diff_and_lambda0: the one-entry memo
_d_last = (None, None, None)


def t_diff_over_q(z: complex, q: float) -> complex:
    """[t(z - q/2) - t(z + q/2)] / q.

    The direct difference cancels ~|z|/q-fold, so D is formed exact in q
    by four forms on one split, with no switch on q.  From |z| =
    ASYMPTOTIC_SWITCH_Z, for q <= 0.9 |z|, the tail series of t is
    differenced exactly (:func:`_t_diff_tail`).  Below |z| = 12 with q < 12,
    on the disk |z| + q/2 <= 0.5 the Maclaurin series of w is differenced
    exactly (:func:`_t_diff_disk`), and everywhere else the trapezoid rule
    is summed as partial fractions (:func:`_node_loop`) where z -+ q/2 keep
    h/8 from the nodes of z's grid.  The direct difference is left where
    the node rule refuses, for q > h/4 = 0.125, where it cancels at most
    ~8|z|-fold and is within ~2.3e-14 of mpmath, and for q >= 12 > |z| and
    q > 0.9 |z| >= 10.8, where it cancels nothing.  Below the smallest
    normal double q (``sys.float_info.min``) q^2 underflows, and D is its
    q -> 0 limit 2 lambda0(z) to rounding.  On the imaginary axis
    t(-conj s) = -conj t(s) makes D real, and its imaginary part is set to 0.
    Raises ValueError unless 0 < q < inf, and OverflowError naming z and q
    where D leaves double range, deep below the real axis.

    The last result is memoised (one entry, which
    :func:`t_diff_and_lambda0` also fills): the Mermin model, evaluated
    after the quantum one at the same (x, y, q), asks for D at the same
    (z, q), and takes the quantum model's value.  z + 0j and z - 0j share the entry,
    and give the same value.  Non-finite z or q raises every time; a raised
    call stores nothing.
    """
    global _d_last
    last_z, last_q, last = _d_last
    if z == last_z and q == last_q:
        return last
    z = _check_finite(z)
    q = _check_q(q)
    D = _t_diff(z, q, False)[0]
    _d_last = (z, q, D)
    return D


def _t_diff_disk(z: complex, q: float) -> complex:
    # w's series on |s| <= 0.5 differenced exactly in q: Horner at xa, xb =
    # i(z -+ q/2) carrying dd = [P(xa) - P(xb)]/(xa - xb); D = sqrt(pi) dd
    xa, xb = 1j * (z - 0.5 * q), 1j * (z + 0.5 * q)
    acc = dd = 0j
    for c in _DISK_COEFFS:
        dd = dd * xb + acc
        acc = acc * xa + c
    return SQRT_PI * dd


def _t_diff(z: complex, q: float, with_lambda0: bool):
    # (D, lambda0) at finite z and q > 0 by t_diff_over_q's region split;
    # lambda0 comes from the node loop when with_lambda0 is set and z != 0
    # (lambda0(0) is exactly 1), or with D's q -> 0 limit, and is None
    # everywhere else
    az = abs(z)
    D = lam = None
    if q < _MIN_NORMAL:
        # q^2 underflows, and the forms below divide subnormal products by
        # q; D is its limit -t'(z) = 2 lambda0(z) to rounding
        lam = _lambda0(z)
        D = 2.0 * lam
    elif az >= ASYMPTOTIC_SWITCH_Z:
        if q <= 0.9 * az:
            D = _t_diff_tail(z, q)
    elif az + 0.5 * q <= _DISK_RADIUS:
        D = _t_diff_disk(z, q)
    elif q < ASYMPTOTIC_SWITCH_Z:
        D, lam = _node_loop(z, q, with_lambda0 and az > 0.0) or (None, None)
    if D is None:
        half = 0.5 * q
        try:
            D = (_I_SQRT_PI * _w(z - half) - _I_SQRT_PI * _w(z + half)) / q
        except OverflowError as exc:
            raise _t_diff_out_of_range(z, q) from exc
    if z.imag < 0.0 and not cmath.isfinite(D):
        # the Landau terms below the axis, or their difference over q
        raise _t_diff_out_of_range(z, q)
    if z.real == 0.0:
        D = complex(D.real, 0.0)
    return D, lam


def t_diff_and_lambda0(z: complex, q: float) -> tuple[complex, complex]:
    """``(t_diff_over_q(z, q), lambda0(z))``, bit for bit, from one call.

    Where t_diff_over_q sums its partial fractions (:func:`_node_loop`) at
    z != 0, lambda0's sum over the same nodes runs in the same loop.  D and
    lambda0 are stored in the memos of t_diff_over_q and lambda0, and read
    from neither: the quantum and static models call its kernel first at a
    point, and where lambda0 is already held, the same loop gives it at
    little cost.
    """
    return _t_diff_and_lambda0(_check_finite(z), _check_q(q))


def _t_diff_and_lambda0(z: complex, q: float) -> tuple[complex, complex]:
    # t_diff_and_lambda0 at finite complex z and 0 < q < inf, for callers
    # that have checked both
    global _d_last, _lambda0_last
    D, lam = _t_diff(z, q, True)
    if lam is None:
        lam = _lambda0(z)
    _lambda0_last = (z, lam)
    _d_last = (z, q, D)
    return D, lam
