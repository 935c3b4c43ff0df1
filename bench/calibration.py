"""Machine-speed calibration for the benchmark's timings.

On a shared virtual machine, other tenants' work on the same host slows
interpreted code by up to 2x for seconds to minutes at a time (seen on a
2-vCPU Xeon VM).  Every timed interval is therefore bracketed by a fixed
calibration kernel that never touches qplasma, and reported in reference
seconds:

    reference seconds = measured seconds * REF / (kernel time measured
                        around the interval, mean of before and after)

On an uncontended machine, where the kernel takes REF, the two agree; under
contention the kernel slows with the measured work and the ratio cancels
most of the slowdown.  In-process work is bracketed by a pure-Python loop;
interpreter start-up is bracketed by the start of a bare interpreter,
which slows the same way.  The raw seconds are printed next to every
scaled value.
"""

from __future__ import annotations

import cmath
import subprocess
import sys
import time

# Kernel times on an uncontended 2-vCPU Xeon (2.0 GHz) VM, Python 3.11.
REF_LOOP_S = 0.0019
REF_START_S = 0.07


def loop() -> float:
    """Time one pass of a fixed complex-arithmetic loop (about 2 ms)."""
    t0 = time.perf_counter()
    acc = 0j
    for k in range(1, 1200):
        z = complex(k * 2.5e-3, 0.5)
        f = z
        for j in range(8, 0, -1):
            f = z - (0.5 * j) / f
        acc += cmath.exp(-z * z) / f
    return time.perf_counter() - t0


def interpreter_start() -> float:
    """Time the start of a bare interpreter, the same one as this process."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import sys"], check=True)
    return time.perf_counter() - t0


def scale(before: float, after: float, ref: float = REF_LOOP_S) -> float:
    """Factor from measured to reference seconds for an interval bracketed
    by kernel times ``before`` and ``after``."""
    return ref / (0.5 * (before + after))
