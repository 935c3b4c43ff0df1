"""Alternating benchmark pairs of two trees of this repository.

    python tools/pairs.py BASE [HEAD] --workload W [--seed S] [--pairs N] [--seconds T]

BASE and HEAD are each a git revision or a checkout directory, as in
tools/drift.py; HEAD defaults to the checkout this file is in.  Each side
runs this checkout's bench/ against its own src/: both are copied into a
temporary directory per side, so the benchmark code is the same on both
and only the package differs.  Each pair runs `bench/run.py --workload W
--seed S --seconds T --trace 0` once per side, one after the other; the
first side alternates from pair to pair (BASE first in pair 1).

For each end-to-end metric of BENCHMARK.json the report gives each side's
median and quartiles over the pairs, the change of the medians in %, and
the pairs HEAD wins, ties and loses in the metric's `better` direction,
then the failed requests of each side.  The exit status is 0 whatever the
numbers say, and 1 if a run printed no result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from drift import REPO, _tree  # noqa: E402

#: the end-to-end metrics, each with its better direction and bound
END_TO_END = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


def order(pair: int) -> tuple[int, int]:
    """The sides of pair 0, 1, ... in the order they run: 0 is BASE."""
    return (0, 1) if pair % 2 == 0 else (1, 0)


def _stage(tree: str, tmp: str) -> str:
    # a directory holding this checkout's bench/ and the tree's src/
    root = tempfile.mkdtemp(dir=tmp)
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(os.path.join(tree, "src"), os.path.join(root, "src"), ignore=skip)
    shutil.copytree(REPO / "bench", os.path.join(root, "bench"), ignore=skip)
    return root


def run(root: str, workload: str, seed: int, seconds: float) -> dict:
    """The last line of one bench/run.py run under root, as a dict."""
    proc = subprocess.run([sys.executable, os.path.join(root, "bench", "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"pairs: no result from {root} (exit {proc.returncode}):\n"
                 f"{proc.stderr[-2000:]}")


def _quartiles(values: list[float]) -> str:
    # "median [q1, q3]"
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def summary(base: list[dict], head: list[dict]) -> list[str]:
    """One line per end-to-end metric over the pairs (base[i], head[i]) of
    run results, and one for the failed requests."""
    lines = [f"{'metric':<16} {'better':<6} {'base median [q1, q3]':>34} "
             f"{'head median [q1, q3]':>34} {'change':>7}  wins/ties/losses"]
    for metric in END_TO_END:
        name, higher = metric["name"], metric["better"] == "higher"
        b = [r["metrics"][name]["value"] for r in base]
        h = [r["metrics"][name]["value"] for r in head]
        wins = sum(y > x if higher else y < x for x, y in zip(b, h))
        ties = sum(y == x for x, y in zip(b, h))
        bm, hm = statistics.median(b), statistics.median(h)
        change = f"{100.0 * (hm - bm) / bm:+.1f}%" if bm else "n/a"
        lines.append(f"{name:<16} {metric['better']:<6} {_quartiles(b):>34} "
                     f"{_quartiles(h):>34} {change:>7}  {wins}/{ties}/{len(b) - wins - ties}")
    lines.append("failed requests: base {} of {}, head {} of {}".format(
        sum(r["failed"] for r in base), sum(r["attempted"] for r in base),
        sum(r["failed"] for r in head), sum(r["attempted"] for r in head)))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git revision or checkout directory")
    parser.add_argument("head", nargs="?", default=str(REPO),
                        help="git revision or checkout directory (default: this checkout)")
    parser.add_argument("--workload", required=True, choices=("figures", "regimes", "branches"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=4.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    results: tuple[list, list] = ([], [])
    with tempfile.TemporaryDirectory() as tmp:
        roots = [_stage(_tree(arg, tmp), tmp) for arg in (args.base, args.head)]
        for pair in range(args.pairs):
            for side in order(pair):
                results[side].append(run(roots[side], args.workload, args.seed, args.seconds))
    print(f"pairs {args.base} -> {args.head}: workload {args.workload}, seed {args.seed}, "
          f"{args.pairs} alternating pairs of {args.seconds:g} s")
    print("\n".join(summary(*results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
