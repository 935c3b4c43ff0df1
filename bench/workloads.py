"""Seeded request streams for the three benchmark workloads.

Each workload is a closed loop with one client: the next request is sent
only after the previous one has returned.  A request stream is a pure
function of the seed, so the same seed always yields the same inputs.

* ``figures``  -- ``qplasma.cli.main(["--figure", k, "--n", "400", ...])``
  for the 14 presets, each pass in a seeded order.  The paper's own
  product: long uniform grids, mostly in the upper half-plane, with the
  special functions doing most of the work.  The dispersion solver is idle.
* ``regimes``  -- one short ``run_scan(ScanSpec(...))`` per request,
  n = 16..64, cycling through six kinds of draw so that every numerical
  regime switch is visited (long-wave kernel and small-q Taylor form, the
  |z| > 100 asymptotic tail, x = 0 screening, y = 0 Lindhard on the real
  axis, Mermin with its Dawson denominator, Drude).  Many small requests
  load the per-call cost of scan, dielectric and regime dispatch.
* ``branches`` -- one ``trace_branch(params, lo*k_D, hi*k_D, 41, model)``
  per request for the quantum, classical and Mermin models.  The root
  solver and complex-frequency permittivity (including the lower
  half-plane) do the work; scan and cli are idle.

Inputs are drawn only inside each model's documented domain.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import os
import random
import sys
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import qplasma  # noqa: E402
import qplasma.cli  # noqa: E402
import qplasma.dispersion  # noqa: E402
import qplasma.scan  # noqa: E402

WORKLOADS = ("figures", "regimes", "branches")
FIGURE_N = 400
BRANCH_POINTS = 41
REGIME_KINDS = ("long_wave", "tail", "static", "lindhard", "mermin", "drude")
BRANCH_MODELS = ("quantum", "classical", "mermin")

# Regime thresholds of the evaluation core, used only to classify the
# points a workload sends into the dielectric layer (dielectric.share_*).
_Q_MIN = 1e-4            # long-wave kernel below this q ...
_KERNEL_Z_MIN = 50.0     # ... when |z| is at least this
_TAIL_Z = 100.0          # asymptotic t / lambda0 beyond this |z|
_TAYLOR_Q = 1e-3         # t-difference Taylor form below q = this * (1 + |z|)
_KERNEL_MODELS = ("quantum", "classical")
_T_DIFF_MODELS = ("quantum", "mermin", "lindhard_collisionless")


def loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


@dataclass(frozen=True)
class Point:
    """One permittivity value with the inputs that produced it."""

    model: str
    x_p: float
    y: float
    omega: complex
    q: float
    value: complex


@dataclass(frozen=True)
class Root:
    """One converged dispersion root omega(q) of a model."""

    model: str
    x_p: float
    y: float
    q: float
    omega: complex


def classify(model: str, y: float, omega: complex, q: float):
    """(lower_half, long_wave, tail, taylor) flags of one evaluation point."""
    if model == "drude" or q <= 0.0:
        return False, False, False, False
    if model == "static":
        z = complex(0.0, y) / q
    elif model == "lindhard_collisionless":
        z = complex(omega) / q
    else:
        z = (complex(omega) + 1j * y) / q
    az = abs(z)
    long_wave = model in _KERNEL_MODELS and q < _Q_MIN and az >= _KERNEL_Z_MIN
    taylor = (model in _T_DIFF_MODELS and not long_wave
              and q < _TAYLOR_Q * (1.0 + az))
    return z.imag < 0.0, long_wave, az > _TAIL_Z, taylor


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

def _row_points(models, fixed: dict, sweep_var: str, row) -> list[Point]:
    """The points of one table row: the sweep value, then Re/Im per model."""
    vals = dict(fixed)
    vals[sweep_var] = row[0]
    return [Point(model, vals["x_p"], vals.get("y", 0.0), vals.get("x", 0.0),
                  vals.get("q", 1.0), complex(row[1 + 2 * i], row[2 + 2 * i]))
            for i, model in enumerate(models)]


def read_figure_csv(path: str) -> list[Point]:
    """Points of one CSV written by ``qplasma --figure``, rebuilt from its
    commented header (fixed parameters) and its columns."""
    fixed: dict[str, float] = {}
    models: list[str] = []
    sweep_var = None
    columns = None
    points: list[Point] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("# model: "):
                models = line[len("# model: "):].split(",")
            elif line.startswith("# sweep: "):
                sweep_var = line[len("# sweep: "):].split()[0]
            elif line.startswith("# ") and ": " in line:
                key, val = line[2:].split(": ", 1)
                if key in ("x_p", "y", "x", "q"):
                    fixed[key] = float(val)
            elif columns is None:
                columns = line.split(",")
            elif line:
                row = [float(tok) for tok in line.split(",")]
                points.extend(_row_points(models, fixed, sweep_var, row))
    if columns is None or columns[0] != sweep_var or len(columns) != 1 + 2 * len(models):
        raise ValueError(f"unexpected CSV layout in {path}")
    return points


class _Workload:
    """A seeded request stream: ``requests()`` yields inputs, ``run(req)``
    sends one request and returns its output (raising on failure),
    ``count(req)`` is the output points it produces and ``points(req, out)``
    rebuilds them for the reference check."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def warm_up(self) -> None:
        """Untimed requests from another seed's stream, so that lazy set-up
        is done before timing."""
        for req in itertools.islice(type(self)(-1 - self.seed).requests(), 6):
            self.run(req)


class Figures(_Workload):
    name = "figures"

    def __init__(self, seed: int, out_dir: str):
        super().__init__(seed)
        self.out_dir = out_dir
        self.sizes: dict[int, int] = {}

    def warm_up(self) -> None:
        """One untimed pass, which also records the points of each figure."""
        self.sizes = {fig: len(self.points(fig, self.run(fig))) for fig in range(1, 15)}

    def count(self, fig: int) -> int:
        return self.sizes[fig]

    def requests(self):
        rng = random.Random(f"figures:{self.seed}")
        while True:
            order = list(range(1, 15))
            rng.shuffle(order)
            yield from order

    def run(self, fig: int):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = qplasma.cli.main(["--figure", str(fig), "--n", str(FIGURE_N),
                                   "--out", self.out_dir])
        if rc != 0:
            raise RuntimeError(f"figure {fig}: exit code {rc}")
        written = [ln[len("wrote "):] for ln in buf.getvalue().splitlines()
                   if ln.startswith("wrote ")]
        if not written:
            raise RuntimeError(f"figure {fig}: no CSV written")
        return written

    def points(self, fig: int, written) -> list[Point]:
        return [p for path in written for p in read_figure_csv(path)]


# ---------------------------------------------------------------------------
# regimes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegimeRequest:
    kind: str
    models: tuple[str, ...]
    fixed: tuple[tuple[str, float], ...]
    sweep_var: str
    sweep_range: tuple[float, float]
    n: int
    scale: str


def regime_request(kind: str, rng: random.Random) -> RegimeRequest:
    n = rng.randint(16, 64)
    x_p = loguniform(rng, 0.3, 3.0)
    if kind == "long_wave":
        # q from 1e-6: Q_MIN long-wave kernel, small-q Taylor form, |z| tail
        return RegimeRequest(kind, ("quantum", "classical", "mermin"),
                             (("x_p", x_p), ("y", loguniform(rng, 1e-4, 0.1)),
                              ("x", rng.uniform(0.5, 2.0))),
                             "q", (1e-6, loguniform(rng, 1e-3, 1e-2)), n, "log")
    if kind == "tail":
        # q <= 0.05 and x >= 6 keep |z| = |x + iy|/q above 100
        return RegimeRequest(kind, ("quantum", "classical", "mermin",
                                    "lindhard_collisionless"),
                             (("x_p", x_p), ("y", loguniform(rng, 1e-3, 0.1)),
                              ("q", rng.uniform(0.01, 0.05))),
                             "x", (6.0, rng.uniform(8.0, 12.0)), n, "linear")
    if kind == "static":
        # v = y/q <= 100: beyond it the static model is known to lose
        # accuracy (see edges.py)
        y = loguniform(rng, 1e-3, 1.0)
        q_lo = max(loguniform(rng, 1e-3, 1e-1), y / 100.0)
        return RegimeRequest(kind, ("static",), (("x_p", x_p), ("y", y)),
                             "q", (q_lo, rng.uniform(1.0, 3.0)), n, "log")
    if kind == "lindhard":
        return RegimeRequest(kind, ("lindhard_collisionless",),
                             (("x_p", x_p), ("y", 0.0), ("q", rng.uniform(0.1, 2.0))),
                             "x", (rng.uniform(0.01, 0.1), rng.uniform(2.0, 4.0)),
                             n, "linear")
    if kind == "mermin":
        return RegimeRequest(kind, ("mermin",),
                             (("x_p", x_p), ("x", rng.uniform(0.3, 2.0)),
                              ("q", rng.uniform(0.1, 2.0))),
                             "y", (1e-5, loguniform(rng, 1e-2, 1e-1)), n, "log")
    if kind == "drude":
        return RegimeRequest(kind, ("drude",),
                             (("x_p", x_p), ("y", loguniform(rng, 1e-4, 0.1))),
                             "x", (rng.uniform(0.05, 0.2), rng.uniform(2.0, 4.0)),
                             n, "linear")
    raise ValueError(f"unknown regime kind {kind!r}")


class Regimes(_Workload):
    name = "regimes"

    def count(self, req: RegimeRequest) -> int:
        return req.n * len(req.models)

    def requests(self):
        rng = random.Random(f"regimes:{self.seed}")
        for kind in itertools.cycle(REGIME_KINDS):
            yield regime_request(kind, rng)

    def run(self, req: RegimeRequest):
        spec = qplasma.scan.ScanSpec(
            models=req.models, fixed=dict(req.fixed), sweep_var=req.sweep_var,
            sweep_range=req.sweep_range, n=req.n, scale=req.scale,
        )
        table = qplasma.scan.run_scan(spec)
        if len(table.rows) != req.n:
            raise RuntimeError(f"{req.kind}: {len(table.rows)} rows, expected {req.n}")
        return table.rows

    def points(self, req: RegimeRequest, rows) -> list[Point]:
        fixed = dict(req.fixed)
        return [p for row in rows for p in _row_points(req.models, fixed, req.sweep_var, row)]


# ---------------------------------------------------------------------------
# branches
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BranchRequest:
    model: str
    x_p: float
    y: float
    lo: float  # window in k/k_D
    hi: float


class Branches(_Workload):
    name = "branches"

    def count(self, req: BranchRequest) -> int:
        return BRANCH_POINTS

    def requests(self):
        rng = random.Random(f"branches:{self.seed}")
        for model in itertools.cycle(BRANCH_MODELS):
            # a branch starts at k/k_D <= 0.2: its first root is seeded by the
            # long-wave asymptote, which holds only for k well below k_D
            lo = rng.uniform(0.05, 0.2)
            yield BranchRequest(model, loguniform(rng, 0.3, 10.0),
                                loguniform(rng, 1e-8, 1e-1), lo, lo + rng.uniform(0.2, 0.5))

    def run(self, req: BranchRequest):
        k_d = math.sqrt(2.0) * req.x_p
        roots = qplasma.dispersion.trace_branch(
            qplasma.PlasmaParams(x_p=req.x_p, y=req.y), req.lo * k_d, req.hi * k_d,
            BRANCH_POINTS, qplasma.ModelKind(req.model),
        )
        if len(roots) != BRANCH_POINTS:
            raise RuntimeError(f"{len(roots)} roots, expected {BRANCH_POINTS}")
        for r in roots:
            if not (math.isfinite(r.omega.real) and math.isfinite(r.omega.imag)
                    and r.omega.real > 0.0 and r.residual <= 1e-12):
                raise RuntimeError(f"bad root {r!r}")
        return [(r.q, r.omega) for r in roots]

    def points(self, req: BranchRequest, roots) -> list[Root]:
        return [Root(req.model, req.x_p, req.y, q, omega) for q, omega in roots]


def make(name: str, seed: int, out_dir: str) -> _Workload:
    if name == "figures":
        return Figures(seed, out_dir)
    if name == "regimes":
        return Regimes(seed)
    if name == "branches":
        return Branches(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
