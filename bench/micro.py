"""Per-call microbenchmarks of the special functions and the six models.

Each kernel runs over a seeded set of inputs inside one numerical region;
the reported time is the median over repeats of the mean time per call, in
reference microseconds (see ``calibration.py``).  Only public functions are
called.
"""

from __future__ import annotations

import math
import random
import statistics
import time

import qplasma

import calibration

N_INPUTS = 200
REPEATS = 7


def _per_call_us(fn, inputs) -> float:
    reps = []
    cal = calibration.loop()
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for args in inputs:
            fn(*args)
        elapsed = time.perf_counter() - t0
        cal_after = calibration.loop()
        reps.append(elapsed / len(inputs) * calibration.scale(cal, cal_after))
        cal = cal_after
    return statistics.median(reps) * 1e6


def _draw(rng, n, make):
    return [make(rng) for _ in range(n)]


def _upper(rng):
    return complex(rng.uniform(-6.0, 6.0), rng.uniform(0.0, 4.0))


def _model_inputs(model: str, rng: random.Random):
    params = qplasma.PlasmaParams(x_p=math.exp(rng.uniform(math.log(0.3), math.log(3.0))),
                                  y=math.exp(rng.uniform(math.log(1e-3), math.log(0.1))))
    point = qplasma.QueryPoint(x=rng.uniform(0.1, 3.0), q=rng.uniform(0.05, 2.0))
    return qplasma.ModelKind(model), params, point


def run(seed: int) -> dict[str, float]:
    rng = random.Random(f"micro:{seed}")
    upper = _draw(rng, N_INPUTS, lambda r: (_upper(r),))
    lower = _draw(rng, N_INPUTS, lambda r: (complex(r.uniform(-4.0, 4.0),
                                                    -r.uniform(0.01, 2.5)),))
    tail = _draw(rng, N_INPUTS, lambda r: (complex(r.choice((-1, 1)) * r.uniform(100.0, 1000.0),
                                                   r.uniform(0.0, 10.0)),))
    direct = _draw(rng, N_INPUTS, lambda r: (_upper(r), r.uniform(0.05, 2.0)))
    taylor = _draw(rng, N_INPUTS, lambda r: (_upper(r),
                                             math.exp(r.uniform(math.log(1e-7), math.log(1e-4)))))
    reals = _draw(rng, N_INPUTS, lambda r: (r.uniform(0.0, 12.0),))
    out = {
        "special_functions.faddeeva_w.upper_us": _per_call_us(qplasma.faddeeva_w, upper),
        "special_functions.faddeeva_w.lower_us": _per_call_us(qplasma.faddeeva_w, lower),
        "special_functions.faddeeva_w.tail_us": _per_call_us(qplasma.faddeeva_w, tail),
        "special_functions.plasma_t.us": _per_call_us(qplasma.plasma_t, upper),
        "special_functions.lambda0.us": _per_call_us(qplasma.lambda0, upper),
        "special_functions.dawson.us": _per_call_us(qplasma.dawson, reals),
        "special_functions.t_diff_over_q.direct_us": _per_call_us(qplasma.t_diff_over_q, direct),
        "special_functions.t_diff_over_q.taylor_us": _per_call_us(qplasma.t_diff_over_q, taylor),
    }
    for model in qplasma.ModelKind:
        inputs = _draw(rng, N_INPUTS, lambda r: _model_inputs(model.value, r))
        out[f"dielectric.{model.value}.us_per_point"] = _per_call_us(qplasma.evaluate, inputs)
    return out
