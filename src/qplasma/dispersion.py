"""Plasma-oscillation dispersion: eps_l(omega, k) = 0.

Closed-form long-wave asymptotics for the oscillation frequency and damping
decrement, a derivative-free secant/Muller root solver, and wave-number
continuation along a branch from extrapolated seeds and slopes.

Accuracy cells (method: tests/test_accuracy.py), one per part of a root
omega that trace_branch returns, each on 45 seeded branches, a root of
each, and pinned roots; the error is relative to that part of the
reference, Im omega on |Im omega|.

    cell              roots                                           bound
    root Re           quantum, classical and Mermin branches: x_p     5e-15
                      from 0.3 to 10, y from 1e-12 to 0.1 and y = 0,
                      k/k_D from 0.1 to 0.7, 41 points each
    root Im           the same roots: the solve stops on |eps|, which  8e-10
                      leaves Im omega up to ~1 ulp of Re omega off
"""

import cmath
import math
import operator

from .dielectric import (
    _CLASSICAL,
    _MERMIN,
    _QUANTUM,
    ModelKind,
    PlasmaParams,
    _finite,
    _Record,
    eps_classical_omega,
    eps_mermin_omega,
    eps_quantum_omega,
)
from .special_functions import _check_q

_SQRT_PI_OVER_8 = math.sqrt(math.pi / 8.0)


#: solve_root converges when |eps| <= _RESIDUAL_TOL within _MAX_ITER steps
_RESIDUAL_TOL = 1e-12
_MAX_ITER = 60
#: |eps| at or below this sits at its rounding floor (~30 ulps of the unit
#: term of eps = 1 + chi); above it a converged root takes one polishing step
_ROUNDING_FLOOR = 3e-15
#: trace_branch halves a q step whose root moves by more than this fraction
_CONTINUATION_STEP = 0.1
#: trace_branch's solve budget per grid step, shared along the whole branch
_SOLVES_PER_STEP = 25
#: the start point beside the seed lies this * max(|seed|, 1) from it
_SEED_SPREAD = 1e-3
#: the most roots and slopes, in turn, that _extrapolate reads
_SEED_ORDER = 12
_SLOPE_ORDER = 4


class DispersionRoot(_Record):
    """One converged root omega = Re + i Im of eps(omega, q) = 0, with the
    residual |eps| at omega, the slope, secant and Muller steps taken to
    converge, the eps evaluations spent in all (start points and polish
    included), and the slope d eps/d omega of the secant through the solve's
    last two evaluations before the polish (None when that is not finite
    and nonzero; the given slope when the solve converged at its seed)."""

    __slots__ = __match_args__ = ("q", "omega", "residual", "iterations",
                                  "evaluations", "slope")

    def __init__(self, q: float, omega: complex, residual: float, iterations: int,
                 evaluations: int = 0, slope: complex | None = None):
        _set_q(self, q)
        _set_omega(self, omega)
        _set_residual(self, residual)
        _set_iterations(self, iterations)
        _set_evaluations(self, evaluations)
        _set_slope(self, slope)


#: the setters of DispersionRoot's slots: a construction sets each field
#: through its slot descriptor, past _Record.__setattr__ and a name lookup
(_set_q, _set_omega, _set_residual, _set_iterations, _set_evaluations,
 _set_slope) = (getattr(DispersionRoot, name).__set__ for name in DispersionRoot.__slots__)


class ConvergenceError(RuntimeError):
    def __init__(self, message: str, last_omega: complex, residual: float):
        super().__init__(f"{message} (last omega={last_omega!r}, |eps|={residual:.3e})")
        self.last_omega = last_omega
        self.residual = residual


class NonPhysicalRootError(RuntimeError):
    """Converged onto a branch with Re omega <= 0."""


class BranchLossError(RuntimeError):
    def __init__(self, message: str, q: float):
        super().__init__(f"{message} at q={q!r}")
        self.q = q


def omega_asymptotic(k_over_kD: float, Q: float) -> float:
    """Long-wave oscillation frequency over omega_p:
    sqrt(1 + 3 kappa^2 + 6 kappa^4 (1 + Q^2/24)), kappa = k/k_D.

    Q = 0 reproduces the classical Bohm-Gross form with its kappa^4 term.
    Raises ValueError unless both are finite and >= 0, and OverflowError
    naming them where a term of the formula leaves double range.
    """
    if not 0.0 <= k_over_kD < math.inf:
        raise ValueError(f"k/k_D must be finite and >= 0, got {k_over_kD!r}")
    if not 0.0 <= Q < math.inf:
        raise ValueError(f"Q must be finite and >= 0, got {Q!r}")
    k2 = k_over_kD * k_over_kD
    val = math.sqrt(1.0 + 3.0 * k2 + 6.0 * k2 * k2 * (1.0 + Q * Q / 24.0))
    if val < math.inf:  # nan where kappa^4 underflows and Q^2 overflows
        return val
    raise _leaves_range("omega_asymptotic", f"k/k_D={k_over_kD!r}, Q={Q!r}")


def gamma_asymptotic(params: PlasmaParams, q: float,
                     quantum_factors: bool = True) -> float:
    """Long-wave damping decrement in units of k_T v_T:

        -y/2 - sqrt(pi/8) x_p (k_D/k)^3 exp(-3/2 - (k_D/k)^2/2) * QF,

    QF = (1 - q^2/4)(1 + q^2 z^2/6) with z = omega_k/(k v_T) taken real
    (weak-damping regime), or 1 when ``quantum_factors`` is False, which
    gives the classical collisional decrement; y = 0 then reduces it to the
    Landau value.  Valid for k well below k_D.  QF is the paper's small-Q
    expansion: the leading term of exp(-q^2/4) sinh(qz)/(qz), the
    difference of the two Landau terms that D carries over its q -> 0
    limit.  As k -> 0, qz tends to Q/2, so QF misses the y = 0 roots'
    damping by a gap that does not close unless Q is small: at Q = 6 it
    reads 25% at k = 0.1 k_D and is still rising.  This function keeps the
    paper's formula, which is the gamma_asymptotic column of the roots
    table.  Where the exponential underflows, so does the Landau term, and
    the decrement is -y/2; where a term of the formula leaves double range,
    OverflowError names x_p, y and q.
    """
    q = _check_q(q)
    if not params.x_p > 0.0:
        raise ValueError("gamma_asymptotic requires x_p > 0")
    kD = params.debye_wavenumber
    kappa = q / kD
    ratio = 1.0 / kappa if kappa else math.inf  # k_D/k; kappa may underflow
    e = math.exp(-1.5 - 0.5 * ratio * ratio)
    if not e:  # below q ~ 0.026 k_D; ratio ** 3 overflows from 1.8e-103 k_D
        return -0.5 * params.y
    landau = _SQRT_PI_OVER_8 * params.x_p * ratio ** 3 * e
    if quantum_factors:
        try:
            omega_k = params.x_p * omega_asymptotic(kappa, params.quantum_parameter)
        except (OverflowError, ValueError):  # kappa, Q or a term left double range
            omega_k = math.inf
        z_real = omega_k / q
        landau *= (1.0 - 0.25 * q * q) * (1.0 + q * q * z_real * z_real / 6.0)
    gamma = -0.5 * params.y - landau
    if math.isfinite(gamma):
        return gamma
    raise _leaves_range("gamma_asymptotic", f"x_p={params.x_p!r}, y={params.y!r}, q={q!r}")


def _leaves_range(what: str, where: str) -> OverflowError:
    return OverflowError(f"a term of {what}'s formula leaves double range at {where}")


_SOLVABLE = (_QUANTUM, _CLASSICAL, _MERMIN)


def _solvable(model) -> ModelKind:
    # model as a ModelKind, refused unless solve_root can solve it
    model = ModelKind(model)
    if model not in _SOLVABLE:
        raise ValueError(
            f"solve_root supports {[m.value for m in _SOLVABLE]}, got {model.value!r}")
    return model


def _eps_core(model: ModelKind):
    # the model's eps(x_p, y, omega, q), read from the module globals at call
    # time: a wrapper set on those names is what the solver then calls
    if model is _QUANTUM:
        return eps_quantum_omega
    if model is _CLASSICAL:
        return eps_classical_omega
    return eps_mermin_omega


def default_guess(params: PlasmaParams, q: float, model: ModelKind) -> complex:
    """Asymptotic seed: omega_p-scaled long-wave frequency, quantum term per
    model, plus i times the classical damping decrement; its quantum factor
    1 - q^2/4 would flip the seed into the upper half-plane for q > 2."""
    Q = params.quantum_parameter if model is not _CLASSICAL else 0.0
    kappa = q / params.debye_wavenumber
    re = params.x_p * omega_asymptotic(kappa, Q)
    im = gamma_asymptotic(params, q, quantum_factors=False)
    return complex(re, im)


def _next_omega(points, slope):
    # the slope step from one (omega, eps) point, the secant from two,
    # Muller's from the last three on; where a step is undefined (equal
    # values, a repeated point, a zero denominator) the last point is nudged
    x2, f2 = points[-1]
    if len(points) == 1:
        return x2 - f2 / slope
    x1, f1 = points[-2]
    if len(points) == 2:
        if f2 != f1:
            return x2 - f2 * (x2 - x1) / (f2 - f1)
    else:
        x0, f0 = points[-3]
        if x1 != x0 and x2 != x1:
            q_r = (x2 - x1) / (x1 - x0)
            a = q_r * f2 - q_r * (1.0 + q_r) * f1 + q_r * q_r * f0
            b = (2.0 * q_r + 1.0) * f2 - (1.0 + q_r) ** 2 * f1 + q_r * q_r * f0
            c = (1.0 + q_r) * f2
            disc = cmath.sqrt(b * b - 4.0 * a * c)
            den_plus = b + disc
            den_minus = b - disc
            den = den_plus if abs(den_plus) >= abs(den_minus) else den_minus
            if den != 0:
                return x2 - (x2 - x1) * (2.0 * c / den)
    return x2 * (1.0 + 1e-6) + 1e-12


def _last_slope(points, slope):
    # d eps/d omega of the secant through the last two points; one point
    # keeps the slope it was given
    if len(points) < 2:
        return slope
    (x0, f0), (x1, f1) = points[-2:]
    if x1 == x0:
        return None
    s = (f1 - f0) / (x1 - x0)
    return s if s != 0 and cmath.isfinite(s) else None


def solve_root(params: PlasmaParams, q: float, model: ModelKind,
               guess: complex | None = None) -> DispersionRoot:
    """Solve eps(omega, q) = 0 for complex omega at fixed q.

    Derivative-free, one eps evaluation per step: from the seed (the guess,
    or default_guess) and a point beside it, a secant step, then Muller
    steps (:func:`_solve`).  Converges when |eps| <= _RESIDUAL_TOL
    within _MAX_ITER steps; a root whose |eps| is still above
    _ROUNDING_FLOOR then takes one more step by the same rule, kept only if
    its eps is finite and no larger.  The returned residual is |eps| at the
    returned omega.  Raises ValueError unless 0 < q < inf and for a guess
    that is not finite, ConvergenceError without convergence or where eps
    raises, naming the last evaluated iterate, and NonPhysicalRootError if
    the root has Re omega <= 0.
    """
    q = _check_q(q)
    model = _solvable(model)
    if guess is not None:
        _finite("guess", guess)
    seed = complex(guess) if guess is not None else default_guess(params, q, model)
    return _solve(params, q, model, seed, None, _eps_core(model))


def _solve(params: PlasmaParams, q: float, model: ModelKind, seed: complex,
           slope: complex | None, eps) -> DispersionRoot:
    # solve_root's loop from a checked q, model and seed, every eps
    # evaluation through eps: trace_branch's grid solves enter here.  The
    # start is eps at the point _SEED_SPREAD beside the seed, then at the
    # seed; a slope (d eps/d omega near the root, finite and nonzero) drops
    # the point beside it, and the first step, omega - eps/slope, counts as
    # an iteration
    x_p, y = params.x_p, params.y
    points: list[tuple[complex, complex]] = []  # (omega, eps), newest last
    omega = seed + _SEED_SPREAD * max(abs(seed), 1.0) if slope is None else seed
    try:
        if slope is None:
            points.append((omega, eps(x_p, y, omega, q)))
            omega = seed
        f = eps(x_p, y, omega, q)
        points.append((omega, f))
        residual = abs(f)
        iterations = 0
        while not residual <= _RESIDUAL_TOL and iterations < _MAX_ITER:
            iterations += 1
            omega = _next_omega(points, slope)
            f = eps(x_p, y, omega, q)
            points.append((omega, f))
            residual = abs(f)
    except (OverflowError, ValueError, ZeroDivisionError) as exc:
        # named by the last point evaluated before omega, if any
        last_omega, last_f = points[-1] if points else (seed, math.inf)
        raise ConvergenceError(
            f"eps of {model.value} model raised {type(exc).__name__}: {exc} "
            f"at omega={omega!r}", last_omega, abs(last_f),
        ) from exc

    if not residual <= _RESIDUAL_TOL:
        raise ConvergenceError(
            f"no root of {model.value} model within {_MAX_ITER} iterations",
            omega, residual,
        )
    evaluations = len(points)
    # a polish step is ulps long: its secant slope would be rounding noise
    root_slope = _last_slope(points, slope)
    if residual > _ROUNDING_FLOOR:
        evaluations += 1
        polished = _next_omega(points, slope)
        try:
            f = abs(eps(x_p, y, polished, q))
        except (OverflowError, ValueError, ZeroDivisionError):
            f = math.inf
        if f <= residual:
            omega, residual = polished, f
    if omega.real <= 0.0:
        raise NonPhysicalRootError(
            f"converged to nonphysical branch Re omega = {omega.real!r} <= 0"
        )
    return DispersionRoot(q, omega, residual, iterations, evaluations, root_slope)


#: the weights (-1)^(j+1) C(m, j) of w_-1 .. w_-m, indexed by m
_EXTRAPOLATION_WEIGHTS = [
    tuple((-1) ** (j + 1) * math.comb(m, j) for j in range(1, m + 1))
    for m in range(_SEED_ORDER + 1)
]


def _extrapolate(roots: list[DispersionRoot]) -> tuple[complex, complex | None]:
    # the next root and slope on a uniform q grid, by the polynomials through
    # the last min(_SEED_ORDER, len(roots)) roots and the last
    # min(_SLOPE_ORDER, len(roots)) slopes (the previous root after one, 2
    # w_-1 - w_-2 after two); the slope is the last root's where a slope in
    # its window is None or the polynomial gives 0 or a value not finite
    n = len(roots)
    seed = slope = 0j
    for w, r in zip(_EXTRAPOLATION_WEIGHTS[n if n < _SEED_ORDER else _SEED_ORDER],
                    reversed(roots)):
        seed += w * r.omega
    for w, r in zip(_EXTRAPOLATION_WEIGHTS[n if n < _SLOPE_ORDER else _SLOPE_ORDER],
                    reversed(roots)):
        s = r.slope
        if s is None:
            return seed, roots[-1].slope
        slope += w * s
    if slope == 0 or not cmath.isfinite(slope):
        slope = roots[-1].slope
    return seed, slope


def _sweep_grid(lo: float, hi: float, n: int, scale: str, n_name: str,
                range_name: str) -> tuple[float, ...]:
    # ScanSpec's and trace_branch's n points over finite lo < hi, each
    # message naming the caller's n and range; the ends are lo and hi exactly,
    # which the rounding of lo + (hi - lo) and of exp(log hi) would move
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"{n_name} must be an integer, got {n!r}")
    if n < 2:
        raise ValueError(f"{n_name} must be >= 2, got {n!r}")
    if scale not in ("linear", "log"):
        raise ValueError(f"scale must be 'linear' or 'log', got {scale!r}")
    if scale == "log" and not lo > 0:
        raise ValueError("log scale requires lo > 0")
    m = n - 1
    if scale == "log":
        llo, lhi = math.log(lo), math.log(hi)
        inner = [math.exp(llo + (lhi - llo) * i / m) for i in range(1, m)]
    else:
        inner = [lo + (hi - lo) * i / m for i in range(1, m)]
    grid = (lo, *inner, hi)
    if not all(map(operator.lt, grid, grid[1:])):
        raise ValueError(
            f"{range_name} [{lo!r}, {hi!r}] is too narrow for {n} distinct grid points")
    return grid


def trace_branch(params: PlasmaParams, q_start: float, q_end: float,
                 n_points: int, model: ModelKind) -> list[DispersionRoot]:
    """Continue a dispersion branch from q_start to q_end on n_points: the
    grid of ScanSpec's linear sweep over (q_start, q_end), from the same
    function, q_start and q_end exact.

    The model is refused before any eps evaluation unless solve_root solves
    it, and its eps core is read once.  The first root is solve_root's from
    default_guess; each later grid point is solved from the seed and slope
    that :func:`_extrapolate` gives from the roots found.  If the root moves
    by more than _CONTINUATION_STEP (fractionally) from the previous root or
    the solve fails, the q step is halved until the motion is tame; the
    solves inside a halved step are seeded with the previous root, without
    a slope.  The whole branch may spend _SOLVES_PER_STEP solves per grid
    step; when they run out, BranchLossError names the q of the last failed
    solve.  Raises ValueError unless n_points is an integer >= 2, 0 <
    q_start < q_end < inf and the grid's n_points q values are distinct.
    """
    _finite("q_start", q_start)
    _finite("q_end", q_end)
    if not (0.0 < q_start < q_end):
        raise ValueError(f"need 0 < q_start < q_end, got {q_start!r}, {q_end!r}")
    qs = _sweep_grid(q_start, q_end, n_points, "linear", "n_points", "q range")
    model = _solvable(model)
    eps = _eps_core(model)
    prev = solve_root(params, qs[0], model)
    roots = [prev]
    budget = _SOLVES_PER_STEP * (n_points - 1)
    for q_target in qs[1:]:
        pending = [q_target]  # q values still to reach, nearest last
        while pending:
            if budget == 0:
                raise BranchLossError(
                    f"branch lost: root jump or solve failure persists after "
                    f"{_SOLVES_PER_STEP} solves per grid step",
                    q_failed,
                )
            budget -= 1
            q = pending[-1]
            if len(pending) > 1 or prev is not roots[-1]:
                seed, slope = prev.omega, None  # inside a halved step
            else:
                seed, slope = _extrapolate(roots)
            try:
                root = _solve(params, q, model, seed, slope, eps)
                jump = abs(root.omega - prev.omega) / max(abs(prev.omega), 1e-300)
            except (ConvergenceError, NonPhysicalRootError):
                jump = math.inf
            if jump <= _CONTINUATION_STEP:
                prev = root
                pending.pop()
            else:
                q_failed = q
                pending.append(0.5 * (prev.q + q))
        roots.append(prev)
    return roots
