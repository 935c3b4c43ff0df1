"""The test suite's one mpmath reference for the special functions and the
permittivity models, from their closed forms:

    w(z) = exp(-z^2) erfc(-iz),  t = i sqrt(pi) w,  lambda0 = 1 + z t,
    D(z, q) = [t(z - q/2) - t(z + q/2)]/q,  F(u) = (sqrt(pi)/2) exp(-u^2) erfi(u).

w, lambda0, t_diff and dawson take doubles and return doubles.  Each works
at GUARD digits beyond the digits its closed form cancels: 1 + z t loses
~2|z|^2-fold, the difference of two t values ~|z|/q-fold, and the phase of
exp(-z^2) carries ~|z|^2 of the argument's rounding.  Where q (2|z| + 4)
<= 1e-5, D is its Taylor series in q to the q^2 term, from one t value,
and what that leaves out is below 1e-23 of D; on the imaginary axis the two
t values are mirror images, and D is -2 Re t(z + q/2)/q.  ``eps`` is a
model's permittivity in mpmath numbers, at the caller's precision, for
``mpmath.findroot``: the quantum, classical, Mermin, static, collisionless
and Drude models; ``epsilon`` is the same at doubles, at its own working
precision, and ``root`` is the dispersion root that findroot finds on
``eps`` from a double root.  ``lower_scale`` is the scale on which values
below the real axis are compared.  Nothing here imports qplasma.
"""

from __future__ import annotations

import math

import mpmath as mp

#: correct digits kept beyond the cancellation of each closed form
GUARD = 20


def _digits(x: float) -> int:
    return int(math.log10(1.0 + x)) + 1


def _mpc(z: complex):
    z = complex(z)
    return mp.mpc(z.real, z.imag)


def _t(s):
    return 1j * mp.sqrt(mp.pi) * mp.exp(-s * s) * mp.erfc(-1j * s)


def w(z: complex) -> complex:
    with mp.workdps(GUARD + 2 * _digits(abs(z))):
        s = _mpc(z)
        return complex(mp.exp(-s * s) * mp.erfc(-1j * s))


def lambda0(z: complex) -> complex:
    with mp.workdps(GUARD + 3 * _digits(abs(z))):
        s = _mpc(z)
        return complex(1 + s * _t(s))


def t_diff(z: complex, q: float) -> complex:
    """D(z, q) = [t(z - q/2) - t(z + q/2)]/q."""
    r = abs(z)
    if q * (2.0 * r + 4.0) <= 1e-5:
        # D = -t' - (q^2/24) t^(3) - (q^4/1920) t^(5) - ..., with t' = -2
        # lambda0 and t^(n+1) = -2z t^(n) - 2n t^(n-1); |t^(n+2)/t^(n)| <=
        # (2|z| + 4)^2, so the omitted terms stay below 1e-23 of D
        with mp.workdps(GUARD + 3 * _digits(r)):
            s = _mpc(z)
            t0 = _t(s)
            t1 = -2 * (1 + s * t0)
            t2 = -2 * s * t1 - 2 * t0
            t3 = -2 * s * t2 - 4 * t1
            return complex(-t1 - mp.mpf(q) ** 2 / 24 * t3)
    with mp.workdps(GUARD + 3 * _digits(r + q) + _digits((1.0 + r) / q)):
        s, qq = _mpc(z), mp.mpf(q)
        if z.real == 0.0:
            # t(-conj b) = -conj t(b): on the imaginary axis D = -2 Re t(b)/q
            return complex(-2 * mp.re(_t(s + qq / 2)) / qq, 0.0)
        return complex((_t(s - qq / 2) - _t(s + qq / 2)) / qq)


def dawson(u: float) -> float:
    with mp.workdps(GUARD + 2 * _digits(abs(u))):
        uu = mp.mpf(u)
        return float(mp.sqrt(mp.pi) / 2 * mp.exp(-uu * uu) * mp.erfi(uu))


def eps(model: str, x_p, y, omega, q):
    """The permittivity of a model (a ModelKind value) at complex frequency
    omega, in mpmath numbers at the working precision.  Static screening
    is the quantum form, which its callers take at omega = 0; Drude's is
    1 - x_p^2/((x + iy) x)."""
    x_p, y, q, omega = mp.mpf(x_p), mp.mpf(y), mp.mpf(q), mp.mpc(omega)
    xy = omega + 1j * y
    if model == "drude":
        return 1 - x_p * x_p / (xy * omega)
    z = xy / q
    pre = x_p * x_p / (q * q)
    lam = 1 + z * _t(z)
    if model == "classical":
        return 1 + 2 * pre * xy * lam / (omega + 1j * y * lam)
    D = (_t(z - q / 2) - _t(z + q / 2)) / q
    if model == "lindhard_collisionless":
        return 1 + pre * D
    if model in ("quantum", "static"):
        return 1 + pre * xy * D / (omega + 1j * y * lam)
    if model == "mermin":
        D0 = 2 * mp.sqrt(mp.pi) * mp.exp(-q * q / 4) * mp.erfi(q / 2) / q
        return 1 + pre * xy * D / (omega + 1j * y * D / D0)
    raise ValueError(f"no mpmath form for model {model!r}")


def epsilon(model: str, x_p: float, y: float, x: float, q: float) -> complex:
    """eps of a model at real frequency x, as a double: at 40 digits beyond
    those that lambda0 = 1 + z t, the phase of exp(-z^2) and the difference
    of two t values cancel, counted as t_diff counts them."""
    r = abs(complex(x, y)) / q
    with mp.workdps(40 + 3 * _digits(r + q) + _digits((1.0 + r) / q)):
        return complex(eps(model, x_p, y, x, q))


def root(model: str, x_p: float, y: float, q: float, omega: complex) -> complex:
    """The root of eps(omega) = 0 by mpmath.findroot from the double root
    omega: at GUARD digits, then from each solve's root at 10 digits more,
    until two solves round to the same double.  Each solve is a secant from
    r and r (1 + 1e-14), stopped once a step falls below 10^(6 - digits):
    its superlinear last step carries the rest."""
    r, prev = _mpc(omega), None
    for dps in range(GUARD, 200, 10):
        with mp.workdps(dps):
            r = mp.findroot(lambda w: eps(model, x_p, y, w, q),
                            (r, r * (1 + mp.mpf(10) ** -14)), tol=mp.mpf(10) ** (6 - dps))
        got = complex(r)
        if got == prev:
            return got
        prev = got
    raise ValueError(f"no two solves agree for the {model} root near {omega!r}")


def lower_scale(z: complex, q: float = 0.0) -> float:
    """0 on and above the real axis.  Below it, the Landau terms 2i sqrt(pi)
    exp(-s^2) at s = z -+ q/2 carry ~|s|^2 ulps of rounding in their
    exponent and phase: max |exp(-s^2)| (1 + |z| + q)^2, the scale on which
    w, lambda0 and D are compared there."""
    if z.imag >= 0.0:
        return 0.0
    m = max((s.imag - s.real) * (s.imag + s.real) for s in (z - q / 2, z + q / 2))
    return math.exp(m) * (1 + abs(z) + q) ** 2  # |exp(-s^2)| = exp(Im^2 - Re^2)
