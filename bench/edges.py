"""Seeded probes of the two input regions the timed workloads leave out,
because the program fails there at the commit that defined the benchmark.

* ``epsilon_static`` at v = y/q from 100 to 1000.  It computes lambda0(iv)
  literally, as 1 - sqrt(pi) v Re w(iv), instead of through the |z| > 100
  tail, and loses about 2 v^2 ulps to cancellation.  ``regimes`` keeps
  v <= 100, where the loss stays within the reference floor.
* Cold starts of ``solve_root`` at k/k_D = 0.2..0.35 with x_p = 3..10.
  The long-wave seed is far from the root there, and the solver can fail
  to converge or converge onto Re omega < 0.  ``branches`` starts every
  branch at k/k_D <= 0.2.

The probes report how wrong the program is in these regions.  A fix then
shows as a per-layer gain, and the workloads can be widened after it.
"""

from __future__ import annotations

import math
import random

import qplasma

import reference
from workloads import BRANCH_MODELS, Point, loguniform

STATIC_POINTS = 16
COLD_STARTS = 60


def static_large_v_digits(seed: int) -> float:
    """Worst correct digits of the static model at v = y/q in [100, 1000]."""
    rng = random.Random(f"edges:static:{seed}")
    sample = []
    for i in range(STATIC_POINTS):
        x_p = loguniform(rng, 0.3, 3.0)
        y = loguniform(rng, 0.1, 1.0)
        q = y / loguniform(rng, 100.0, 1000.0)
        value = qplasma.evaluate(qplasma.ModelKind.STATIC, qplasma.PlasmaParams(x_p, y),
                                 qplasma.QueryPoint(0.0, q))
        sample.append((i, Point("static", x_p, y, 0.0, q, value)))
    worst, _ = reference.check(sample)
    return worst


def cold_start_failures(seed: int) -> int:
    """Failed cold solves (long-wave seed) at k/k_D in [0.2, 0.35], x_p in [3, 10]."""
    rng = random.Random(f"edges:cold:{seed}")
    failures = 0
    for i in range(COLD_STARTS):
        x_p = loguniform(rng, 3.0, 10.0)
        params = qplasma.PlasmaParams(x_p, loguniform(rng, 1e-8, 1e-1))
        q = rng.uniform(0.2, 0.35) * math.sqrt(2.0) * x_p
        try:
            qplasma.solve_root(params, q, qplasma.ModelKind(BRANCH_MODELS[i % 3]))
        except (qplasma.ConvergenceError, qplasma.NonPhysicalRootError):
            failures += 1
    return failures


def run(seed: int) -> dict[str, float]:
    return {"dielectric.static.large_v_digits": static_large_v_digits(seed),
            "dispersion.cold_start_failures": cold_start_failures(seed)}
