"""Plasma dispersion function and its relatives, entire in the complex argument.

The workhorse is the Faddeeva function ``w(z) = exp(-z^2) erfc(-iz)``; the
plasma dispersion function is its rescaling ``t(z) = i sqrt(pi) w(z)``, which
for Im z > 0 equals the Hilbert-type integral of the Gaussian and elsewhere is
the analytic (Landau) continuation from the upper half-plane.  All evaluators
here are scalar, and pure but for t_diff_and_lambda0's pair entry.  The slow
quadrature cross-checks live in the test suite's ``tests/oracle.py``.

Each public function checks its argument once (a wave number q by
``_check_q``, the package's one rule 0 < q < inf) and calls private
kernels that take it as checked: ``_w`` is w at finite z, ``_node_loop``
sums w's trapezoid rule as partial fractions (D and lambda0 at one z from
one loop over its nodes), and from |z| = 12 one tail series is summed by
Horner.  The models call the kernels too, after their own one check.  Deep
below the real axis, where a value leaves double range, the functions raise
OverflowError naming z (and q).

Accuracy cells (method: tests/test_accuracy.py), one per function and
regime, for w, lambda0 = 1 + z t, the kernel D = [t(a) - t(b)]/q with a, b
= z -+ q/2, and Dawson's F.  Below the real axis the error is taken on
max(|value|, (1 + |z| + q)^2 max(|exp(-a^2)|, |exp(-b^2)|)), the rounding
that the Landau terms carry.

    cell              region                                          bound
    w strip           Maclaurin series: |Re z| < 0.1, |z| <= 1.8      9e-15
    w grid A          trapezoid, |z| < 12, (Re z/h) % 1 in [1/4, 3/4)  5e-16
    w grid B          trapezoid, |z| < 12, the rest off the strip     7e-16
    w tail            tail series, |z| from 12 to 1e4                 3e-16
    w lower           Im z < 0, 2 exp(-z^2) - w(-z)                   5e-16
    lambda0 grid A    node loop on grid A, |z| < 12                   7e-15
    lambda0 grid B    node loop on grid B, |z| < 12                   8e-15
    lambda0 tail      tail series, |z| from 12 to 1e4, below the      4e-16
                      axis where exp(-z^2) < 2e-22
    lambda0 lower     Im z < 0, |z| < 12                              2e-15
    D disk            series difference, |z| + q/2 <= 0.5             4e-16
    D node loop       |z| < 12, q < 12 where z's grid accepts, half   2e-14
                      of them at h/8 (1 + 1e-3) from a node
    D other grid      node loop on the other grid where z's refuses,  9e-16
                      half of them at h/4 (1 + 1e-3) from its node
    D refusal         direct difference where both grids refuse       3e-14
    D tail            tail difference, |z| >= 12, q <= 0.9 |z|;      5e-16
                      below the axis where exp(-z^2) < 2e-22
    D q >= 12         direct difference, q >= 12 or q > 0.9 |z|       5e-16
    D lower           Im z < 0, |z| < 12                              7e-16
    D lower tail      Im z < 0, |z| >= 12 near Im z = -|Re z|         3e-14
    D subnormal q     q < 2.2e-308, the limit 2 lambda0(z)            2e-15
    D q 1e-8..1e-3    |z| < 12                                        7e-16
    D q 1e-3..0.1     |z| < 12                                        5e-16
    D q 0.1..2        |z| < 12                                        9e-16
    D imaginary axis  z = iv, v from -3 to 12, q from 1e-8 to 11      6e-16
    F series          |u| <= 1                                        3e-16
    F sampling        1 < |u| < 10                                    4e-15
    F asymptotic      |u| >= 10                                       4e-16

Exactly on the real axis, from |x| = 12 on, the tail series omits Re w =
exp(-x^2) and its images, Im lambda0 = sqrt(pi) x exp(-x^2) and Im D from
exp(-(x -+ q/2)^2).  The absolute error is below 1e-60 for w and lambda0,
and below 1e-17 of |D| for D (2e-20 at x = 12, q = 10.8); a cell, which
takes the error on |value|, cannot see it.  Relative to the omitted part
it is 1: Im eps of the collisionless models (Lindhard, and quantum at
y = 0) reads 0 at real x/q >= 12.  At Im z = +-1e-19 all three are right
to 1e-16.
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


def _check_finite(z: complex) -> complex:
    # z is tested before it is converted: complex() would parse a str
    if not cmath.isfinite(z):
        raise ValueError(f"z must be finite, got {complex(z)!r}")
    return complex(z)


def _check_q(q: float) -> float:
    # the package's one rule for a wave number q; q is compared before it
    # is converted, so a str raises TypeError rather than parse
    if not 0.0 < q < math.inf:
        raise ValueError(f"q must be finite and > 0, got {float(q)!r}")
    return float(q)


def _out_of_range(what: str, where: str) -> OverflowError:
    return OverflowError(f"{what} exceeds double-precision range at {where}; "
                         "the function value itself is not representable there")


# ----------------------------------------------------------------------------
# Faddeeva function, by region (the table's w cells): the Maclaurin series in
# the strip |Re z| < 0.1, |z| <= 1.8; elsewhere below |z| = 12 the trapezoid
# rule of the defining integral, with a residue correction for the poles
# inside the summation strip; from |z| = 12 (ASYMPTOTIC_SWITCH_Z) the tail
# series (i/sqrt(pi))(1 + _tail(z^2))/z; below the axis the reflection
# w(z) = 2 exp(-z^2) - w(-z).  _w makes the split for finite z.
# The step h = 0.5 puts the quadrature floor at exp(-pi^2/h^2) ~ 7e-18.  Of
# two node grids, A at t = k h and B at t = (k + 1/2) h, z takes the one
# whose nodes lie at least h/4 from Re z, so no node term or correction,
# whose poles sit on those nodes, comes near a pole.  The tables stop at
# t = 6.5: the omitted nodes weigh exp(-t^2) < exp(-45).  Near the
# imaginary axis Im w shrinks like Re z |w| but the trapezoid's absolute
# error does not, so the strip keeps the series, whose terms cancel up to
# ~100-fold towards |z| = 1.8.
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
_POLES_A, _POLES_B = (-1 + 0j, -_TWO_I_SQRT_PI), (1 + 0j, _TWO_I_SQRT_PI)
# the constant factors of _w_trapezoid's rule, its pole correction and _w's
# tail, each product in the operand order of its formula, whose roundings
# the values carry
_I_H_OVER_PI = 1j * _INV_PI * _H
_MINUS_2PI_I = -2j * math.pi
_I_OVER_SQRT_PI = 1j / SQRT_PI


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
    nodes, sigma = (_NODES_A, _POLES_A[0]) if on_a else (_NODES_B, _POLES_B[0])
    z2 = z * z
    acc = 0j
    for t2, wt, _ in nodes:
        acc += wt / (z2 - t2)
    acc *= z
    if on_a:
        acc += 1.0 / z
    w = _I_H_OVER_PI * acc
    if z.imag >= _PI_OVER_H:
        # poles outside the summation strip; plain trapezoid already exact
        return w
    e = cmath.exp(_MINUS_2PI_I * z / _H)
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
    return _I_OVER_SQRT_PI * (1.0 + _tail(z * z)) / z


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
    """Faddeeva function ``w(z) = exp(-z^2) erfc(-iz)``, entire in z.

    For Im z < 0 the reflection ``w(z) = 2 exp(-z^2) - w(-z)`` is used with
    the exponent assembled cancellation-free, so nothing overflows while the
    result is representable; where it is not (deep lower half-plane),
    OverflowError is raised instead of returning infinities.
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
# from cancelling.  D needs a and b at least h/8 (complex distance) from
# the nodes of z's grid, where the correction's poles sit; z's grid keeps
# Re z h/4 from them, so only q > h/4 can fail that.  D has no pole at z,
# so where z's grid refuses, D takes the other grid, whose nodes lie half a
# step from those of z's, if a and b keep h/4 from them (h/8 there put the
# Mermin eps cell at 5.2e-15, over its bound); lambda0 stays on z's grid,
# in the same loop.  Below the axis both are reflected, lambda0(z) =
# lambda0(-z) + 2i sqrt(pi) z exp(-z^2) and D(z, q) = D(-z, q) plus the
# Landau block of _add_landau_diff.
# ----------------------------------------------------------------------------

def _node_loop(z: complex, q: float, with_lambda0: bool):
    """(D(z, q), lambda0(z)) from one node loop, lambda0's over the nodes of
    z's grid, for finite z with |z| < 12 and, for D, 0 < q < 12.  q = 0 asks
    for lambda0 alone, and without with_lambda0 only D is summed; what is
    not asked for, and D where both grids refuse it (the block above), is
    None."""
    lower = z.imag < 0.0
    u = -z if lower else z
    y = u.imag
    xs = u.real / _H
    frac = xs % 1.0
    on_a = d_on_a = 0.25 <= frac < 0.75
    qs = 0.5 * q / _H
    if qs > 0.125 and y < 0.125 * _H:
        # Re a and Re b in steps, offset to the nearest node of z's grid,
        # against the node rule's bound h/8; 1/2 less their sizes are the
        # offsets to the other grid's nearest node, against h/4
        lim = 1.0 / 64.0 - (y / _H) ** 2
        off = 0.5 if on_a else 0.0
        fa = (xs + off - qs) % 1.0 - 0.5
        fb = (xs + off + qs) % 1.0 - 0.5
        if fa * fa < lim or fb * fb < lim:
            fa, fb, lim = 0.5 - abs(fa), 0.5 - abs(fb), 1.0 / 16.0 - (y / _H) ** 2
            if fa * fa < lim or fb * fb < lim:
                if not with_lambda0:
                    return None, None
                q = 0.0  # both grids refuse D: lambda0 alone
            d_on_a = not on_a
    nodes = _NODES_A if on_a else _NODES_B
    d_nodes = _NODES_A if d_on_a else _NODES_B
    u2 = u * u
    D = lam = None
    if q:
        half = 0.5 * q
        a, b = u - half, u + half
        ab, a2, b2 = a * b, a * a, b * b
        acc = 1.0 / ab if d_on_a else 0j
        if with_lambda0:
            acc_l = 0j
            if d_nodes is nodes:
                for t2, wt, wt2 in nodes:
                    acc += wt * (ab + t2) / ((a2 - t2) * (b2 - t2))
                    acc_l += wt2 / (u2 - t2)
            else:
                for (t2, wt, _), (s2, _, wt2) in zip(d_nodes, nodes):
                    acc += wt * (ab + t2) / ((a2 - t2) * (b2 - t2))
                    acc_l += wt2 / (u2 - s2)
            lam = _MINUS_H_OVER_SQRT_PI * acc_l
        else:
            for t2, wt, _ in d_nodes:
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
            sigma, k = _POLES_A if d_on_a else _POLES_B
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
        e = None
        if lam is not None:
            e = _exp_minus_z2(z)
            lam += z * (_TWO_I_SQRT_PI * e)
        if D is not None:
            D = _add_landau_diff(D, z, q, e)
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


def lambda0(z: complex) -> complex:
    """Van Kampen dispersion function, ``1 + z t(z)``.

    From |z| = ASYMPTOTIC_SWITCH_Z the tail series gives ``-1/(2 z^2) -
    3/(4 z^4) - ...`` directly, where the literal ``1 + z t`` cancels
    ~2|z|^2-fold; below it the trapezoid rule is summed as partial fractions
    (:func:`_node_loop`), and lambda0(0) is exactly 1.  For Im z < 0 these
    stand for lambda0(-z), and the Landau term ``2i sqrt(pi) z exp(-z^2)``
    is added; where it leaves double range, OverflowError names z.  Reads
    the pair entry of :func:`t_diff_and_lambda0`.
    """
    last_z, _, _, last = _pair_last
    if z == last_z:
        return last
    return _lambda0(_check_finite(z))


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
    if not math.isfinite(u):  # before float(u), which would parse a str
        raise ValueError(f"u must be finite, got {float(u)!r}")
    u = float(u)
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
    t = _I_SQRT_PI * _w(z)
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


def _add_landau_diff(val: complex, z: complex, q: float, e: complex | None = None) -> complex:
    # val plus the exact difference of the Landau terms 2i sqrt(pi) exp(-s^2)
    # at s = z -+ q/2, over q: as 2 exp(-z^2 - q^2/4) sinh(qz) where it
    # would cancel, term by term otherwise; e is exp(-z^2) where the caller
    # has formed it
    qz = q * z
    if abs(qz.real) < 1.0:
        if e is None:
            # exp(-z^2) first: where q Im z overflows, so does |z|^2, and its
            # OverflowError names z before sinh(qz) meets an infinite argument
            e = _exp_minus_z2(z)
        f = 2.0 * math.exp(-0.25 * q * q) * cmath.sinh(qz)
        return val + f * _TWO_I_SQRT_PI * e / q
    try:
        ea, eb = _exp_minus_z2(z - 0.5 * q), _exp_minus_z2(z + 0.5 * q)
    except OverflowError as exc:
        raise _t_diff_out_of_range(z, q) from exc
    return val + _TWO_I_SQRT_PI * ea / q + -_TWO_I_SQRT_PI * eb / q


def _t_diff_out_of_range(z: complex, q: float) -> OverflowError:
    # D's error names the caller's z and q, not the shifted point z -+ q/2
    # whose exp(-s^2) left range
    return _out_of_range("[t(z - q/2) - t(z + q/2)]/q", f"z={z!r}, q={q!r}")


def t_diff_over_q(z: complex, q: float) -> complex:
    """[t(z - q/2) - t(z + q/2)] / q, the kernel D, formed exact in q by
    region (:func:`_t_diff`).

    Below the smallest normal q, D is its limit 2 lambda0(z).  On the
    imaginary axis D is real.  Raises ValueError unless 0 < q < inf, and
    OverflowError naming z and q where D leaves double range, deep below the
    real axis.  Reads the pair entry of :func:`t_diff_and_lambda0`.
    """
    return _t_diff_over_q(_check_finite(z), _check_q(q))


def _t_diff_over_q(z: complex, q: float) -> complex:
    # t_diff_over_q at finite complex z and 0 < q < inf, for callers that
    # have checked both
    last_z, last_q, last, _ = _pair_last
    if z == last_z and q == last_q:
        return last
    return _t_diff(z, q, False)[0]


def _t_diff_disk(z: complex, q: float) -> complex:
    # w's series on |s| <= 0.5 differenced exactly in q: Horner at xa, xb =
    # i(z -+ q/2) carrying dd = [P(xa) - P(xb)]/(xa - xb); D = sqrt(pi) dd
    xa, xb = 1j * (z - 0.5 * q), 1j * (z + 0.5 * q)
    acc = dd = 0j
    for c in _DISK_COEFFS:
        dd = dd * xb + acc
        acc = acc * xa + c
    return SQRT_PI * dd


#: the pair entry (z, q, D, lambda0): see t_diff_and_lambda0
_pair_last = (None, None, None, None)


def _t_diff(z: complex, q: float, with_lambda0: bool):
    # (D, lambda0) at finite z and 0 < q < inf.  The direct difference
    # cancels ~|z|/q-fold, so D is formed exact in q: the tail series
    # differenced from |z| = 12 for q <= 0.9 |z|, the Maclaurin series
    # differenced on the disk |z| + q/2 <= 0.5, the node loop elsewhere for
    # q < 12.  The direct difference is left where both node grids refuse (q
    # > h/4; it cancels at most ~8|z|-fold there) and for q >= 12 > |z| or q
    # > 0.9 |z|, where it cancels nothing.  with_lambda0 also returns lambda0,
    # from D's node loop at z != 0 (lambda0(0) is exactly 1), and writes the
    # pair entry; without it lambda0 is None except beside D's q -> 0 limit
    global _pair_last
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
        D, lam = _node_loop(z, q, with_lambda0 and az > 0.0)
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
    if with_lambda0:
        if lam is None:
            lam = _lambda0(z)
        _pair_last = (z, q, D, lam)
    return D, lam


def t_diff_and_lambda0(z: complex, q: float) -> tuple[complex, complex]:
    """``(t_diff_over_q(z, q), lambda0(z))``, bit for bit, from one call,
    which sums lambda0 in the node loop where that is D's region.

    The pair entry: this call, the quantum model's at y > 0 too, keeps its
    last (z, q, D, lambda0), stored whole after its last check, so a call
    that raises stores nothing; it never reads it.  lambda0 and
    t_diff_over_q read it and store nothing, matching z by == (z + 0j and
    z - 0j match), so that models evaluated one after the other at one
    point share the kernels.  A read that misses computes the same bits.
    """
    return _t_diff(_check_finite(z), _check_q(q), True)
