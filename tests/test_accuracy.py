"""The one accuracy table, enforced: the tables in the docstrings of
qplasma.special_functions, qplasma.dielectric and qplasma.dispersion.

One cell per (function, regime) of the special_functions table, per model
of the dielectric one and per part of a root of the dispersion one.  Each
cell draws a fixed seeded sample of its regime, points just past each
switch into it and pinned edge points included, evaluates the public
function (a model through ``evaluate``, a root by ``trace_branch``) and
the mpmath reference (tests/mpref.py), and asserts that the worst error is
at most the cell's bound.  A bound is the worst error measured over the
cell's sample, rounded up once.  The error is |got - ref|/|ref|, for a
root on its Re or Im part, with ref from mpmath.findroot seeded by the
double root at a precision raised until two solves agree; below the real
axis, for w, lambda0 and D, it is taken on max(|ref|, mpref.lower_scale),
the size of the rounding that the Landau terms carry, and for eps on
max(|ref|, |ref - 1|), with ref at 40 digits beyond those its closed form
cancels.

    python tools/accuracy.py    # prints every cell: points, worst, bound
"""

from __future__ import annotations

import cmath
import functools
import importlib.util
import math
import pathlib
import random
import re

import mpmath as mp
import pytest

import mpref
from conftest import node_grid
from qplasma import dielectric, dispersion, special_functions as sf
from qplasma.dielectric import ModelKind, PlasmaParams, QueryPoint, evaluate

H = 0.5  # the trapezoid step: nodes at t = k h (grid A) and (k + 1/2) h (grid B)
POLE_Y = math.pi / H  # from Im z = pi/h on the pole correction is 0
SWITCH = sf.ASYMPTOTIC_SWITCH_Z
TINY = sf._MIN_NORMAL


def _grid(x: float) -> str:
    # grid A takes Re z/h mod 1 in [1/4, 3/4), grid B the rest
    return "A" if 0.25 <= (x / H) % 1.0 < 0.75 else "B"


def _in_strip(z: complex) -> bool:
    return abs(z) <= 1.8 and abs(z.real) < 0.1


def _below(z: complex) -> bool:
    return abs(z) < SWITCH


def _shallow(z: complex) -> bool:
    # exp(-z^2) < 2e-22: the tail cells below the axis stop there
    return (z.imag - z.real) * (z.imag + z.real) < -50.0


def _tail_side(z: complex) -> bool:
    # the tail cells' region: the whole upper half-plane, shallow below it
    return z.imag >= 0.0 or _shallow(z)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** rng.random()


def _sample(rng: random.Random, n: int, makers: list, keep=lambda p: True) -> list:
    # n draws, taken from the makers in turn, that keep accepts
    pts = []
    while len(pts) < n:
        p = makers[len(pts) % len(makers)](rng)
        if keep(p):
            pts.append(p)
    return pts


#: z for |z| < 12: in turn on the real axis, within 0.2 of it, on |z| <=
#: 1.8, from Im z = pi/h up, and anywhere up to Im z = 7
UPPER = [
    lambda rng: complex(rng.uniform(-SWITCH, SWITCH), 0.0),
    lambda rng: complex(rng.uniform(-SWITCH, SWITCH), rng.uniform(0.0, 0.2)),
    lambda rng: cmath.rect(1.8 * math.sqrt(rng.random()), rng.uniform(0.0, math.pi)),
    lambda rng: complex(rng.uniform(-SWITCH, SWITCH), rng.uniform(POLE_Y, SWITCH)),
    lambda rng: complex(rng.uniform(-SWITCH, SWITCH), rng.uniform(0.0, 7.0)),
]
#: below the axis: within 0.2 of it, on |z| <= 1.8, and down to Im z = -3
LOWER = [
    lambda rng: complex(rng.uniform(-SWITCH, SWITCH), -rng.uniform(0.0, 0.2)),
    lambda rng: cmath.rect(1.8 * math.sqrt(rng.random()), -rng.uniform(0.0, math.pi)),
    lambda rng: complex(rng.uniform(-SWITCH, SWITCH), -rng.uniform(0.0, 3.0)),
]


def _tail(r_max: float, lower: bool = False):
    # z with |z| log-uniform from 12 to r_max, at any angle of one half-plane
    def make(rng):
        r = SWITCH * (r_max / SWITCH) ** rng.random()
        return cmath.rect(r, rng.uniform(-math.pi, 0.0) if lower else rng.uniform(0.0, math.pi))
    return make


def _with_q(makers: list, lo: float, hi: float) -> list:
    # each maker's z with q log-uniform over [lo, hi)
    return [lambda rng, m=m: (m(rng), _log_uniform(rng, lo, hi)) for m in makers]


def _on_grid(grid: str):
    return lambda z: _below(z) and _grid(z.real) == grid and not _in_strip(z)


#: |z| = 12 (1 -+ 1e-12), each side of the tail switch: above the axis at
#: every 10 degrees, below it where exp(-z^2) < 2e-22
RING_IN, RING_OUT = ([cmath.rect(SWITCH * f, math.radians(d))
                      for d in [*range(0, 181, 10), -10, -20, -30, -150, -160, -170]]
                     for f in (1 - 1e-12, 1 + 1e-12))


def _grid_edges(grid: str) -> list:
    # the switch into the grid at Re z/h = k + 1/4 (A) or k + 3/4 (B), each
    # side of Im z = pi/h, just outside the strip and just inside |z| = 12
    off = 0.25 if grid == "A" else 0.75
    pts = [complex(H * (k + off), y) for k in (-23, -9, 0, 3, 14, 22)
           for y in (0.0, 1e-8, 0.3, POLE_Y * (1 - 1e-9), POLE_Y * (1 + 1e-9))]
    pts += [complex(0.1, y) for y in (0.0, 0.9, 1.79)] + [complex(-0.1, 1.5)]
    pts += [cmath.rect(1.8 * (1 + 4e-16), math.radians(d)) for d in (80.0, 88.0, 92.0)]
    return [z for z in pts + RING_IN if z.imag >= 0.0 and _on_grid(grid)(z)]


def _args(points: list) -> list:
    return [p if isinstance(p, tuple) else (p,) for p in points]


# -- w ---------------------------------------------------------------------

def _strip_z(rng):
    return complex(rng.uniform(-0.1, 0.1), rng.uniform(0.0, 1.8))


def _w_strip(rng, n):
    edges = [complex(s * math.nextafter(0.1, 0.0), y) for s in (1, -1) for y in (0.0, 0.9, 1.7)]
    edges += [cmath.rect(1.8 * (1 - 4e-16), math.radians(d)) for d in (87.0, 90.0, 93.0)]
    return _sample(rng, n, [_strip_z], _in_strip) + edges


#: Re z of either sign at a node of either grid, at the switch into grid A
#: (k + 1/4) or B (k + 3/4) and 1e-12 before it, at Im z = 0, 1e-8, 1e-3 and
#: pi/h -+ 1e-9, and mirrored below the axis for Re z > 0
W_SWITCHES = [z for k in (4, 9, 15, 22)
              for dx in (0.0, H / 4 - 1e-12, H / 4, H / 2, 3 * H / 4 - 1e-12, 3 * H / 4)
              for y in (0.0, 1e-8, 1e-3, POLE_Y - 1e-9, POLE_Y + 1e-9)
              for z in (complex(k * H + dx, y), complex(-(k * H + dx), y), complex(k * H + dx, -y))
              if 1.8 < abs(z) < SWITCH]


def _w_grid(grid):
    return lambda rng, n: _sample(rng, n, UPPER, _on_grid(grid)) + [
        z for z in _grid_edges(grid) + W_SWITCHES if z.imag >= 0.0 and _on_grid(grid)(z)]


def _w_tail(rng, n):
    return _sample(rng, n, [_tail(1e4)]) + [z for z in RING_OUT if z.imag >= 0.0]


def _deep_z(rng):
    return complex(rng.uniform(-SWITCH, SWITCH), -rng.uniform(0.0, 6.5))


def _w_lower(rng, n):
    # w(z) = 2 exp(-z^2) - w(-z) from every regime above: below the strip
    # and the grids down to Im z = -6.5, and below the tail
    return _sample(rng, n, LOWER + [_deep_z, _tail(1e4, lower=True)],
                   lambda z: _below(z) or _shallow(z)) + [
        z for z in RING_IN + RING_OUT + W_SWITCHES if z.imag < 0.0]


# -- lambda0 ---------------------------------------------------------------

def _lam_grid(grid):
    # the node loop on one grid above the axis, the strip and the disk
    # included; z = 0 is exactly 1
    def keep(z):
        return _below(z) and _grid(z.real) == grid

    def draw(rng, n):
        edges = [complex(0.0, v) for v in (1e-300, 0.25, 0.5, 2.0, POLE_Y * (1 + 1e-9))]
        edges += [1e-300 + 0j, 1e-20 + 1e-20j, 1.22 + 6.89j, 0.05 + 1.7j]
        return _sample(rng, n, UPPER, keep) + [z for z in edges + _grid_edges(grid) if keep(z)]
    return draw


def _lam_tail(rng, n):
    # and |z| from 13 to 100 at every 15 degrees from -30 to 180
    band = [cmath.rect(r, math.radians(d)) for r in (13.0, 15.0, 20.0, 35.0, 50.0, 75.0, 100.0)
            for d in range(-30, 181, 15)]
    return _sample(rng, n, [_tail(1e4), _tail(1e4, lower=True)], _tail_side) + RING_OUT + band


def _lam_lower(rng, n):
    edges = [-1e-300j, 1e-10 - 3e-10j, complex(0.0, -0.5), complex(0.0, -3.0)]
    return _sample(rng, n, LOWER, _below) + edges + [z for z in RING_IN if z.imag < 0.0]


# -- D ---------------------------------------------------------------------

def _node_sums(grid: str | None):
    # off the disk below |z| = 12, where node_grid reads grid
    return lambda p: (_below(p[0]) and abs(p[0]) + p[1] / 2 > 0.5 and not _in_strip(p[0])
                      and node_grid(*p) == grid)


def _d_disk(rng, n):
    # |z| + q/2 <= 0.5 on both sides of the axis, q from 1e-8 to 0.9
    def make(rng):
        q = _log_uniform(rng, 1e-8, 0.9)
        return cmath.rect((0.5 - q / 2) * math.sqrt(rng.random()), rng.uniform(-math.pi, math.pi)), q
    return _sample(rng, n, [make], lambda p: abs(p[0]) + p[1] / 2 <= 0.5)


def _d_node(rng, n):
    # above the axis off the disk, q from 1e-8 to 2.5, where the node rule
    # accepts; as many points just inside the rule, a at h/8 (1 + 1e-3)
    # from a node, on either side of the axis; and the worst such point
    # found on each side
    return _sample(rng, n, _with_q(UPPER, 1e-8, 2.5), lambda p: (
        _below(p[0]) and abs(p[0]) + p[1] / 2 > 0.5 and node_grid(*p) == "z")) + _sample(
        rng, n, [_near_node([1.001])], lambda p: (
            0.25 < p[1] and not _in_strip(p[0]) and node_grid(*p) == "z")) + [
        (-0.5019858781526931 + 0.001j, 0.37090324369461375),
        (0.9242596729229737 - 0.001j, 0.22339434584594747)]


def _near_node(side: list, other: bool = False):
    # (z, q) with a = z - q/2 at side * h/8 from a node of z's grid (of the
    # other grid with other), 1 to 3 nodes to its left, and |Im z| <= 0.03
    # on either side of the axis
    def make(rng):
        x = rng.uniform(-11.0, 11.0)
        y = rng.choice((1e-3, rng.uniform(0.0, 0.03))) * rng.choice((1.0, -1.0))
        off = 0.0 if (_grid(x) == "A") != other else 0.5
        node = H * (math.floor(x / H - off) + off - rng.randrange(0, 3))
        return complex(x, y), 2.0 * (x - node - rng.choice(side) * H / 8)
    return make


def _d_other(rng, n):
    # where z's grid refuses and the other grid takes D: a within h/8 of a
    # node of z's grid, just within (0.999 h/8) or deeper; as many points
    # with a at h/4 (1 + 1e-3) from a node of the other grid; and the
    # direct difference's worst point before the other grid took it
    return _sample(rng, n, [_near_node([0.999, 0.5, 0.1])], _node_sums("other")) + _sample(
        rng, n, [_near_node([2.002], other=True)], _node_sums("other")) + [
        (-10.207392204665915 + 0.021797898706670205j, 0.37991995166060316)]


def _d_refusal(rng, n):
    # where both grids refuse: a within h/8 of a node of z's grid, just
    # within (0.999 h/8) or deeper, and b within h/4 of one of the other's
    return _sample(rng, n, [_near_node([0.999, 0.5, 0.1])], _node_sums(None)) + [
        (9.919833466364693 + 0.012582179656779805j, 0.2771669327293864)]


def _d_tail(rng, n):
    # the tail difference above the axis and below it where exp(-z^2) <
    # 2e-22: |z| from 12 to 1e6, q log-uniform from 1e-8 to 0.9 |z|
    def make(lower):
        def m(rng):
            z = _tail(1e6, lower)(rng)
            return z, _log_uniform(rng, 1e-8, 0.9 * abs(z))
        return m
    return _sample(rng, n, [make(False), make(True)], lambda p: _tail_side(p[0])) + [
        (z, q) for z in RING_OUT[:19:3] for q in (1e-8, 0.05, 10.7)]


def _d_direct(rng, n):
    # the direct difference where it cancels nothing: q from 12 to 15 below
    # |z| = 12, and q > 0.9 |z| from |z| = 12 to 40 above the axis
    def far(rng):
        z = _tail(40.0)(rng)
        return z, 0.9 * abs(z) * (1 + 1e-12) + rng.uniform(0.0, 3.0)
    return _sample(rng, n, _with_q(UPPER + LOWER, SWITCH, 15.0) + [far],
                   lambda p: _below(p[0]) or p[1] > 0.9 * abs(p[0]))


def _d_lower(rng, n):
    # the node loop, the direct difference and the disk below the axis, q
    # from 1e-8 to 2.5
    return _sample(rng, n, _with_q(LOWER, 1e-8, 2.5), lambda p: _below(p[0]))


def _d_lower_tail(rng, n):
    # the tail's Landau terms near |Re z| = |Im z|, in sinh form (|Re qz| <
    # 1) and term by term, where exp(-(z -+ q/2)^2) stays in double range
    def make(rng):
        x = rng.choice((1.0, -1.0)) * _log_uniform(rng, 13.0, 150.0)
        z = complex(x, -abs(x) + rng.uniform(-2.0, 3.0) / abs(x))
        return z, _log_uniform(rng, 1e-7, 0.9 * abs(z))
    return _sample(rng, n, [make], lambda p: all(
        (s.imag - s.real) * (s.imag + s.real) < 700.0 for s in (p[0] - p[1] / 2, p[0] + p[1] / 2)))


def _d_subnormal(rng, n):
    # q below the smallest normal double, z in every regime
    def q(rng):
        return rng.choice((5e-324, 1e-310, rng.uniform(0.0, TINY) or 5e-324))
    makers = UPPER + LOWER + [_tail(1e3), _tail(1e3, lower=True)]
    return [(z, q(rng)) for z in _sample(rng, n, makers, lambda z: _below(z) or _shallow(z))]


def _d_band(lo, hi):
    # |z| < 12 on both sides of the axis, q log-uniform over [lo, hi)
    return lambda rng, n: _sample(rng, n, _with_q(UPPER + LOWER, lo, hi), lambda p: _below(p[0]))


def _axis_z(rng):
    return complex(0.0, rng.uniform(-3.0, SWITCH))


def _d_axis(rng, n):
    # z = iv, v from -3 to 12, q from 1e-8 to 11
    return _sample(rng, n, _with_q([_axis_z], 1e-8, 11.0)) + [
        (complex(0.0, v), q) for v in (0.05, 3.0, 11.9) for q in (0.1, 5.0)]


# -- F ---------------------------------------------------------------------

def _f_series(rng, n):
    return [rng.uniform(-1.0, 1.0) for _ in range(n)] + [1.0, -1.0, 1e-8]


def _f_range(lo, hi, edges):
    return lambda rng, n: [rng.choice((1.0, -1.0)) * _log_uniform(rng, lo, hi)
                           for _ in range(n)] + edges


# -- eps -------------------------------------------------------------------

def _eps_states(rng, n, with_x, v_range):
    # n states (x_p, y, x, q): x_p from 0.1 to 10 and q from 1e-3 to 5; x/q
    # of either sign from 1e-2 to ~30, or x = 0; y/q over 10^v_range, or y = 0
    states = []
    for _ in range(n):
        x_p, q = 10.0 ** rng.uniform(-1.0, 1.0), 10.0 ** rng.uniform(-3.0, 0.7)
        x = rng.choice((-1.0, 1.0)) * q * 10.0 ** rng.uniform(-2.0, 1.5) if with_x else 0.0
        y = q * 10.0 ** rng.uniform(*v_range) if v_range else 0.0
        states.append((x_p, y, x, q))
    return states


def _eps(seed, with_x=True, v_range=(-3.0, 1.0), edges=()):
    # each cell keeps the seed of the test it replaced: no sample is redrawn
    return lambda rng, n: _eps_states(random.Random(seed), n, with_x, v_range) + list(edges)


#: x = 0 and |z| = y/q >= 12, where D takes the tail series differenced
#: exactly in q (a Taylor form on the t_derivatives recurrence was off by
#: 7.6e-11 and 1.3e-6 here)
EPS_IMAGINARY_TAIL = [(1.0, 100.0, 0.0, 0.1), (1.0, 925.47, 0.0, 1.8937e-6)]
#: |z| from 50 to 1e3 at q from 1e-8 to 1e-4: D's tail series differenced
#: exactly in q, and lambda0's tail series
EPS_LONG_WAVE = [(1.3, r * q * math.sin(th), r * q * math.cos(th), q)
                 for q in (1e-8, 1e-6, 1e-5, 1e-4) for r in (50.0, 70.0, 100.0, 1e3)
                 for th in map(math.radians, (0, 10, 45, 80, 135))]


def _eps_fns(model: ModelKind):
    # eps at a state (x_p, y, x, q), and mpref's
    return (lambda x_p, y, x, q: evaluate(model, PlasmaParams(x_p, y), QueryPoint(x, q)),
            functools.partial(mpref.epsilon, model))


# -- roots -----------------------------------------------------------------

#: (model, x_p, y, lo, hi, i): cold starts (i = 0) where both of D's node grids
#: refuse (quantum, x_p = 1, k/k_D = 0.15), next to z's h/8 bound (x_p = 3,
#: 0.2) and at k/k_D = 0.1, y = 0, where Im omega ~ -3e-20; and a classical
#: grid root whose solve stops at |eps| ~ 1e-15 with Im omega 7.3e-10 off
ROOT_PINS = (("quantum", 1.0, 1e-12, 0.15, 0.5, 0), ("quantum", 3.0, 1e-12, 0.2, 0.5, 0),
             ("classical", 1.0, 0.0, 0.1, 0.5, 0), ("quantum", 1.0, 0.0, 0.1, 0.5, 0),
             ("classical", 3.224810466938584, 1.3663198854492992e-10, 0.1175307662873778,
              0.5467140016056673, 4))


@functools.cache
def _root_points(n, pins):
    # (model, x_p, y, q, omega) of root i of trace_branch's 41 roots from
    # k/k_D = lo to hi, for n seeded branches over the branches workload's
    # domain and the pins: the three models in turn, x_p from 0.3 to 10, y
    # log-uniform from 1e-12 to 0.1 or (one in four) 0, lo from 0.1 to 0.2
    # and hi - lo from 0.2 to 0.5
    rng, specs = random.Random("roots"), []
    for i in range(n):
        x_p = _log_uniform(rng, 0.3, 10.0)
        y = 0.0 if rng.random() < 0.25 else _log_uniform(rng, 1e-12, 0.1)
        lo = rng.uniform(0.1, 0.2)
        specs.append((("quantum", "classical", "mermin")[i % 3], x_p, y, lo,
                      lo + rng.uniform(0.2, 0.5), rng.randrange(41)))
    points = []
    for model, x_p, y, lo, hi, i in specs + list(pins):
        k_d = math.sqrt(2.0) * x_p
        root = dispersion.trace_branch(PlasmaParams(x_p, y), lo * k_d, hi * k_d, 41,
                                       ModelKind(model))[i]
        points.append((model, x_p, y, root.q, root.omega))
    return tuple(points)


def _roots(_, n):
    # both root cells draw this one sample, and read one reference per root
    return _root_points(n, ROOT_PINS)


_root_ref = functools.cache(mpref.root)


def _root_fns(part: str):
    # Re or Im of the double root and of mpref's
    attr = "real" if part == "Re" else "imag"
    return lambda *p: getattr(p[-1], attr), lambda *p: getattr(_root_ref(*p), attr)


#: (cell, draw, random points); each cell's fixed edge points come on top
CELLS = [
    ("w strip", _w_strip, 60),
    ("w grid A", _w_grid("A"), 45),
    ("w grid B", _w_grid("B"), 45),
    ("w tail", _w_tail, 70),
    ("w lower", _w_lower, 60),
    ("lambda0 grid A", _lam_grid("A"), 20),
    ("lambda0 grid B", _lam_grid("B"), 20),
    ("lambda0 tail", _lam_tail, 80),
    ("lambda0 lower", _lam_lower, 24),
    ("D disk", _d_disk, 16),
    ("D node loop", _d_node, 12),
    ("D other grid", _d_other, 50),
    ("D refusal", _d_refusal, 12),
    ("D tail", _d_tail, 20),
    ("D q >= 12", _d_direct, 12),
    ("D lower", _d_lower, 12),
    ("D lower tail", _d_lower_tail, 12),
    ("D subnormal q", _d_subnormal, 30),
    ("D q 1e-8..1e-3", _d_band(1e-8, 1e-3), 12),
    ("D q 1e-3..0.1", _d_band(1e-3, 0.1), 12),
    ("D q 0.1..2", _d_band(0.1, 2.0), 12),
    ("D imaginary axis", _d_axis, 24),
    ("F series", _f_series, 310),
    ("F sampling", _f_range(1.0, 10.0, [math.nextafter(1.0, 2.0), 9.99]), 40),
    ("F asymptotic", _f_range(10.0, 1e6, [10.0, -10.0]), 40),
    ("eps quantum", _eps("quantum mpmath", edges=EPS_IMAGINARY_TAIL), 150),
    ("eps classical", _eps("classical mpmath"), 150),
    ("eps Mermin", _eps("mermin mpmath", edges=EPS_LONG_WAVE + EPS_IMAGINARY_TAIL), 150),
    ("eps Lindhard", _eps("lindhard mpmath", v_range=None), 150),
    ("eps static", _eps("static mpmath", False, (-3.0, 2.0), EPS_IMAGINARY_TAIL), 150),
    ("eps Drude", _eps("drude"), 150),
    ("root Re", _roots, 45),
    ("root Im", _roots, 45),
]

_FUNCTIONS = {
    "w": (sf.faddeeva_w, mpref.w),
    "lambda0": (sf.lambda0, mpref.lambda0),
    "D": (sf.t_diff_over_q, mpref.t_diff),
    "F": (sf.dawson, mpref.dawson),
}


def measure(name: str, draw, n: int) -> tuple[int, float, tuple]:
    """(points, worst error, its arguments) over a cell's sample."""
    kind, model = name.split()[:2]
    fn, ref_fn = (_eps_fns(ModelKind[model.upper()]) if kind == "eps" else
                  _root_fns(model) if kind == "root" else _FUNCTIONS[kind])
    worst, at = 0.0, ()
    points = _args(draw(random.Random(name), n))
    for args in points:
        got, ref = fn(*args), ref_fn(*args)
        scale = abs(ref)
        if isinstance(args[0], complex):
            scale = max(scale, mpref.lower_scale(*args))
        elif kind == "eps":
            scale = max(scale, abs(ref - 1.0))
        err = abs(got - ref) / scale
        if err > worst:
            worst, at = err, args
    return len(points), worst, at


def table(*modules) -> dict[str, float]:
    """{cell: bound} from the tables in the docstrings of modules, by
    default special_functions', dielectric's and then dispersion's."""
    rows = (re.fullmatch(r"    (\S+ .+?)  +.+  +(\de-\d\d)", line)
            for module in modules or (sf, dielectric, dispersion)
            for line in module.__doc__.splitlines())
    return {m[1]: float(m[2]) for m in rows if m}


def test_one_cell_per_table_row():
    names = [name for name, _, _ in CELLS]
    assert list(table()) == names
    assert list(table(dielectric)) == [name for name in names if name.startswith("eps ")]
    assert list(table(dispersion)) == [name for name in names if name.startswith("root ")]


@pytest.mark.parametrize("name, draw, n", CELLS, ids=[name for name, _, _ in CELLS])
def test_cell(name, draw, n):
    points, worst, at = measure(name, draw, n)
    bound = table()[name]
    assert worst <= bound, f"{name}: worst {worst:.3g} > {bound:g} at {at} ({points} points)"


@pytest.mark.parametrize("model, state", [
    ("quantum", EPS_IMAGINARY_TAIL[1]),
    ("mermin", EPS_LONG_WAVE[17]),
    ("classical", (2.0, 0.05, 1.1, 0.5)),
], ids=["imaginary tail", "long wave", "plasmon"])
def test_eps_reference_holds_at_150_digits(model, state):
    # mpref.epsilon's working precision, the eps cells' and tools/drift.py's
    # reference, already gives the double that 150 digits give: at the
    # largest |z| and smallest q of the cells' edges, and at a plasmon state
    with mp.workdps(150):
        assert mpref.epsilon(model, *state) == complex(mpref.eps(model, *state))


def test_tool_prints_the_cells(monkeypatch, capsys):
    # tools/accuracy.py reads this module's cell list; here one small cell
    # of each table
    path = pathlib.Path(__file__).resolve().parents[1] / "tools" / "accuracy.py"
    spec = importlib.util.spec_from_file_location("accuracy_tool", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool.test_accuracy, "CELLS", [
        ("D disk", _d_disk, 3), ("eps Drude", _eps("drude"), 3),
        ("root Im", lambda _, n: _root_points(n, ()), 1)])
    tool.main()
    header, disk, drude, root = capsys.readouterr().out.splitlines()
    assert header.split()[:4] == ["cell", "points", "worst", "bound"]
    assert disk.startswith("D disk") and disk.split()[2:5:2] == ["3", "4e-16"]
    assert drude.startswith("eps Drude") and drude.split()[2:5:2] == ["3", "3e-16"]
    assert root.startswith("root Im") and root.split()[2:5:2] == ["1", "8e-10"]
