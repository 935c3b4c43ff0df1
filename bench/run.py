"""qplasma benchmark: one command for every end-to-end or per-layer metric.

Usage:
    python3 bench/run.py --workload {figures,regimes,branches} --seed N \\
                         --seconds S --trace {0,1}

Run from anywhere; the package is imported from ``src/`` next to this
directory.  Each workload is a seeded, closed loop with one client in one
single-threaded process (see ``workloads.py``).  Outputs are checked against
an independent mpmath reference on a seeded sample taken after the timed
region (``reference.py``).

--trace 0 prints the end-to-end metrics: set-up time of a fresh interpreter,
points per second, request latency percentiles, accuracy and peak memory.
--trace 1 prints the per-layer metrics instead: after the untraced run, its
per-call microbenchmarks (``micro.py``) and edge probes (``edges.py``), a
fixed prefix of the same request stream runs again in a second, traced
process (``spans.py``).
Times are in reference seconds, which cancel most of the machine's
contention (``calibration.py``); raw times are printed alongside.

Human-readable lines come first; the last line is one JSON object with the
keys correct, attempted, failed and metrics.  Files are written only under
``.bench_out/`` in the checkout: CSVs in a temporary directory that is
removed at exit, and the spans of the last traced run of each workload as
``trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

import calibration

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("figures", "regimes", "branches")

#: fresh interpreters timed for setup_s, after one untimed run
SETUP_RUNS = 9
#: requests in the traced run: two figure passes, 50 of each regime kind,
#: 30 branches per model
TRACED_REQUESTS = {"figures": 28, "regimes": 300, "branches": 90}
#: a worker must finish within its measuring time plus this
WORKER_SLACK_S = 120.0

#: the output points a request produces, per workload
POINT_KIND = {"figures": "eps values", "regimes": "eps values",
              "branches": "converged roots"}


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "mpmath": version("mpmath"), "commit": git_commit()}


def git_commit():
    """HEAD of the checkout, read from .git without leaving it; None when
    the checkout is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def setup_seconds() -> tuple[float, float]:
    """Median wall time for a fresh interpreter to import qplasma and its
    CLI, in reference and in raw seconds.  The first run is not timed: it
    may compile bytecode."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import qplasma, qplasma.cli"
    scaled, raw = [], []
    cal = calibration.interpreter_start()
    for i in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls and rounds the time up
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - t0
        cal_after = calibration.interpreter_start()
        if i:
            raw.append(elapsed)
            scaled.append(elapsed * calibration.scale(cal, cal_after,
                                                      calibration.REF_START_S))
        cal = cal_after
    return statistics.median(scaled), statistics.median(raw)


def worker(args: list[str], timeout: float) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited with {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(plain: dict, setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "points_per_s": (plain["points_per_s"], "1/s"),
        "request_p50_ms": (plain["request_p50_ms"], "ms"),
        "request_p90_ms": (plain["request_p90_ms"], "ms"),
        "accuracy_digits": (plain["accuracy_digits"], "digits"),
        "peak_rss_mb": (plain["peak_rss_mb"], "MB"),
    }


def unit_of(name: str) -> str:
    if name.endswith("_us") or name.endswith(".us") or name.endswith("us_per_point"):
        return "us"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if ".share_" in name:
        return "fraction"
    if name.endswith("_digits"):
        return "digits"
    if name.endswith(".calls") or name.endswith("failures"):
        return "count"
    return "ratio"


def per_layer(plain: dict, traced: dict) -> dict:
    m = min(len(traced["latencies_s"]), len(plain["latencies_s"]))
    overhead = sum(traced["latencies_s"][:m]) / sum(plain["latencies_s"][:m])
    metrics = {**traced["metrics"], **plain["micro"], "trace.overhead_frac": overhead}
    return {name: (value, unit_of(name)) for name, value in metrics.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description="qplasma benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "qplasma", "__init__.py")):
        print(f"error: no qplasma package under {SRC}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    env = environment()
    print("env: " + json.dumps(env))
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    timeout = args.seconds + WORKER_SLACK_S
    raw = {}
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        common += ["--out-dir", tmp]
        if args.trace:
            plain = worker(common + ["--seconds", str(args.seconds), "--micro"], timeout)
            trace_file = os.path.join(OUT, f"trace-{args.workload}.json")
            traced = worker(common + ["--traced", str(TRACED_REQUESTS[args.workload]),
                                      "--trace-file", trace_file], timeout)
            metrics = per_layer(plain, traced)
            print(f"traced run: {len(traced['latencies_s'])} requests, "
                  f"{traced['spans']} spans written to {os.path.relpath(trace_file, ROOT)}")
        else:
            setup_s, setup_raw = setup_seconds()
            plain = worker(common + ["--seconds", str(args.seconds)], timeout)
            metrics = end_to_end(plain, setup_s)
            raw = {**plain["raw"], "setup_s": setup_raw}

    attempted, failed = plain["attempted"], plain["failed"]
    print(f"workload {args.workload}, seed {args.seed}: closed loop, 1 client, "
          f"{attempted} requests in {plain['wall_s']:.2f} s, "
          f"{plain['points']} {POINT_KIND[args.workload]}")
    print(f"reference check: {plain['sample_size']} sampled values, "
          f"{plain['reference_s']:.2f} s")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} requests)")
    for err in plain["errors"]:
        print(f"  failure: {err}")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "setup_s":
            note = f"median of {SETUP_RUNS} fresh interpreters"
        elif name == "points_per_s":
            note = "roots_per_s" if args.workload == "branches" else "eps_points_per_s"
        elif name.startswith("request_"):
            note = f"of {attempted} requests"
        if name in raw:
            note += f"; {raw[name]:.6g} {unit} before calibration"
        print(f"{name:44s} {value:.6g} {unit}" + (f"  ({note})" if note else ""))

    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
