"""Independent high-precision reference for the benchmark's accuracy check.

The closed forms of the six permittivity models are evaluated with mpmath:
w(z) = exp(-z^2) erfc(-iz), t = i sqrt(pi) w, lambda0 = 1 + z t,
D(z, q) = [t(z - q/2) - t(z + q/2)]/q and the Dawson integral
F(u) = (sqrt(pi)/2) exp(-u^2) erfi(u).  The working precision is raised
until two successive precisions agree, so cancellation in the literal
formulas (small q, large |z|) is resolved rather than inherited.
Dispersion roots are refined with ``mpmath.findroot`` from the fast root.
Nothing here calls qplasma.
"""

from __future__ import annotations

import math

import mpmath as mp

START_DPS = 30
STEP_DPS = 25
MAX_DPS = 230
#: successive precisions must agree to this relative distance
AGREE = 1e-22

#: A sampled value fails below this many correct decimal digits.  The
#: package's contract is ~1e-12 relative accuracy for the special functions;
#: the floor leaves one decade for the few roundings of the model formulas
#: and for root conditioning.
FLOOR_DIGITS = 11.0
#: -log10 of an error reported as exactly zero (below double resolution)
MAX_DIGITS = 17.0


def _t(z):
    return 1j * mp.sqrt(mp.pi) * mp.exp(-z * z) * mp.erfc(-1j * z)


def _lambda0(z):
    return 1 + z * _t(z)


def _kernel(z, q):
    return (_t(z - q / 2) - _t(z + q / 2)) / q


def _dawson(u):
    return mp.sqrt(mp.pi) / 2 * mp.exp(-u * u) * mp.erfi(u)


def _eps(model: str, x_p, y, omega, q):
    """Permittivity of one model at complex frequency omega, in mpmath."""
    pre = x_p * x_p / (q * q)
    if model == "drude":
        return 1 - x_p * x_p / ((omega + 1j * y) * omega)
    if model == "static":
        z = 1j * y / q
        return 1 + pre * _kernel(z, q) / _lambda0(z)
    if model == "lindhard_collisionless":
        return 1 + pre * _kernel(omega / q, q)
    xy = omega + 1j * y
    z = xy / q
    if model == "classical":
        lam = _lambda0(z)
        return 1 + 2 * pre * xy * lam / (omega + 1j * y * lam)
    D = _kernel(z, q)
    if model == "quantum":
        return 1 + pre * xy * D / (omega + 1j * y * _lambda0(z))
    if model == "mermin":
        D0 = 4 * _dawson(q / 2) / q
        return 1 + pre * xy * D / (omega + 1j * y * D / D0)
    raise ValueError(f"unknown model {model!r}")


def _converged(compute, scale):
    """Evaluate ``compute()`` at rising precision until two agree."""
    prev = None
    dps = START_DPS
    while dps <= MAX_DPS:
        with mp.workdps(dps):
            val = compute()
        if prev is not None and abs(val - prev) <= AGREE * scale(val):
            return complex(val)
        prev = val
        dps += STEP_DPS
    raise ArithmeticError("reference did not converge by raising precision")


def eps_reference(model: str, x_p: float, y: float, omega: complex, q: float) -> complex:
    args = (mp.mpf(x_p), mp.mpf(y), mp.mpc(complex(omega)), mp.mpf(q))
    return _converged(lambda: _eps(model, *args), lambda v: max(abs(v), abs(v - 1)))


def root_reference(model: str, x_p: float, y: float, q: float, omega: complex) -> complex:
    start = complex(omega)

    def refine():
        xp, yy, qq = mp.mpf(x_p), mp.mpf(y), mp.mpf(q)
        return mp.findroot(lambda w: _eps(model, xp, yy, w, qq), mp.mpc(start),
                           tol=mp.mpf(10) ** (-mp.mp.dps))

    return _converged(refine, abs)


def eps_error(value: complex, ref: complex) -> float:
    """Relative error of a permittivity value.  eps = 1 + chi is compared on
    the scale max(|eps|, |chi|): no double-precision evaluation can resolve
    eps better than a rounding of chi."""
    return abs(complex(value) - ref) / max(abs(ref), abs(ref - 1.0))


def root_error(omega: complex, ref: complex) -> float:
    return abs(complex(omega) - ref) / abs(ref)


def digits(err: float) -> float:
    """Correct decimal digits, -log10(err), within [0, MAX_DIGITS]; a NaN
    error (non-finite value) has none."""
    if math.isnan(err):
        return 0.0
    return MAX_DIGITS if err <= 0.0 else max(0.0, min(MAX_DIGITS, -math.log10(err)))


def check(sample) -> tuple[float, list[int]]:
    """Check a sample of (request id, Point or Root) pairs against the
    reference.  Returns the worst number of correct digits over the sample
    and the ids of the requests whose values fall below ``FLOOR_DIGITS``."""
    worst = MAX_DIGITS
    bad = []
    for rid, item in sample:
        try:
            if hasattr(item, "value"):
                ref = eps_reference(item.model, item.x_p, item.y, item.omega, item.q)
                d = digits(eps_error(item.value, ref))
            else:
                ref = root_reference(item.model, item.x_p, item.y, item.q, item.omega)
                d = digits(root_error(item.omega, ref))
        except (ArithmeticError, ValueError):
            d = 0.0  # no reference value or no root near the reported one
        worst = min(worst, d)
        if not d >= FLOOR_DIGITS:
            bad.append(rid)
    return worst, sorted(set(bad))
