"""One workload process of the benchmark; ``run.py`` starts it and reads the
JSON line it prints last.

Usage: python3 bench/worker.py --workload NAME --seed N --out-dir DIR
                               (--seconds S [--micro] | --traced M --trace-file F)

Untraced: warm up, run the closed loop for S seconds, take the peak RSS,
then check a seeded sample of the outputs against the mpmath reference and,
with --micro, time the per-call microbenchmarks and run the edge probes.  Traced: install the span
wrappers, run the first M requests of the same stream, write the spans to
F and report the per-layer metrics.  Output files go to DIR.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import resource
import time

import calibration
import workloads

#: requests per round (about 0.25 s); each round is bracketed by
#: calibration loops that scale its times to reference seconds
ROUND = {"figures": 7, "regimes": 150, "branches": 20}
#: the first requests whose outputs are kept for the reference sample (a
#: figure's CSVs are rewritten by later requests with identical bytes)
KEEP = 60
#: reference sample size: permittivity values, dispersion roots
SAMPLE_EPS = 42
SAMPLE_ROOTS = 15


def _sample(wl, kept, rng):
    """Seeded (request id, Point or Root) pairs for the reference check."""
    size = SAMPLE_ROOTS if isinstance(wl, workloads.Branches) else SAMPLE_EPS
    out = []
    for _ in range(size if kept else 0):
        rid, req, result = rng.choice(kept)
        out.append((rid, rng.choice(wl.points(req, result))))
    return out


def _percentile(sorted_vals, p: float) -> float:
    i = min(len(sorted_vals) - 1, max(0, round(p * len(sorted_vals)) - 1))
    return sorted_vals[i]


def closed_loop(wl, send, seconds=None, requests=None, on_result=None) -> dict:
    """Send the workload's requests one after another through ``send``, in
    rounds of ``ROUND`` requests bracketed by calibration loops.  Stops after
    the round in which ``seconds`` ran out, or after ``requests`` requests.
    Latencies are per request, in request order."""
    raw, scaled, errors, failed = [], [], [], set()
    points, raw_time, scaled_time = 0, 0.0, 0.0
    stream = itertools.islice(enumerate(wl.requests()), requests)
    cal = calibration.loop()
    start = time.perf_counter()
    while True:
        lat = []
        r0 = time.perf_counter()
        for rid, req in itertools.islice(stream, ROUND[wl.name]):
            t0 = time.perf_counter()
            try:
                out = send(req)
            except Exception as exc:  # a failed request is counted, not fatal
                errors.append(f"request {rid} {req!r}: {type(exc).__name__}: {exc}")
                failed.add(rid)
                out = None
            lat.append(time.perf_counter() - t0)
            if out is not None:
                points += wl.count(req)
                if on_result is not None:
                    on_result(rid, req, out)
        r1 = time.perf_counter()
        if not lat:
            break
        cal_after = calibration.loop()
        factor = calibration.scale(cal, cal_after)
        cal = cal_after
        raw.extend(lat)
        scaled.extend(t * factor for t in lat)
        raw_time += r1 - r0
        scaled_time += (r1 - r0) * factor
        if seconds is not None and r1 - start >= seconds:
            break
    return {"raw": raw, "scaled": scaled, "errors": errors, "failed": failed,
            "points": points, "raw_time": raw_time, "scaled_time": scaled_time}


def run_plain(wl, seconds: float) -> dict:
    wl.warm_up()
    kept = []

    def keep(rid, req, out):
        if len(kept) < KEEP:
            kept.append((rid, req, out))

    loop = closed_loop(wl, wl.run, seconds=seconds, on_result=keep)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import reference  # mpmath is imported only after the RSS reading

    sample = _sample(wl, kept, random.Random(f"sample:{wl.name}:{wl.seed}"))
    t_ref = time.perf_counter()
    accuracy_digits, bad_ids = reference.check(sample)
    ref_s = time.perf_counter() - t_ref
    errors = loop["errors"] + [f"request {rid}: below {reference.FLOOR_DIGITS} digits"
                               for rid in bad_ids]

    raw, scaled = sorted(loop["raw"]), sorted(loop["scaled"])
    return {
        "attempted": len(raw),
        "failed": len(loop["failed"] | set(bad_ids)),
        "errors": errors[:20],
        "wall_s": loop["raw_time"],
        "points": loop["points"],
        "latencies_s": loop["scaled"],
        "points_per_s": loop["points"] / loop["scaled_time"],
        "request_p50_ms": _percentile(scaled, 0.5) * 1e3,
        "request_p90_ms": _percentile(scaled, 0.9) * 1e3,
        "raw": {"points_per_s": loop["points"] / loop["raw_time"],
                "request_p50_ms": _percentile(raw, 0.5) * 1e3,
                "request_p90_ms": _percentile(raw, 0.9) * 1e3},
        "peak_rss_mb": peak_rss_mb,
        "accuracy_digits": accuracy_digits,
        "sample_size": len(sample),
        "reference_s": ref_s,
    }


def run_traced(wl, requests: int, trace_file: str) -> dict:
    import spans

    wl.warm_up()
    tracer = spans.Tracer()
    tracer.install()
    loop = closed_loop(wl, lambda req: tracer.request(wl.run, req), requests=requests)
    tracer.dump(trace_file)
    time_scale = loop["scaled_time"] / loop["raw_time"]
    return {"latencies_s": loop["scaled"], "spans": len(tracer.spans),
            "metrics": spans.layer_metrics(tracer, time_scale)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--micro", action="store_true")
    ap.add_argument("--traced", type=int, metavar="M")
    ap.add_argument("--trace-file")
    args = ap.parse_args()

    wl = workloads.make(args.workload, args.seed, args.out_dir)
    if args.traced:
        result = run_traced(wl, args.traced, args.trace_file)
    else:
        result = run_plain(wl, args.seconds)
        if args.micro:
            import edges
            import micro

            result["micro"] = {**micro.run(args.seed), **edges.run(args.seed)}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
