"""Drift of the figure, model and root values between two trees of this
repository.

    python tools/drift.py BASE [HEAD] [--n N]

BASE and HEAD are each a git revision or a checkout directory; HEAD
defaults to the checkout this file is in.  A revision's src/ is exported
with `git archive` into a temporary directory.  A child process per tree
imports that tree's qplasma (checking qplasma.__file__), evaluates the 14
figure presets at N grid points (default 400, as the CLI), each of the six
models through `evaluate` on a fixed grid (x = 0 included for the BGK
models, where the static model is the quantum one) and the CI's dispersion
table (quantum, classical and Mermin at x_p = 1, y = 1e-3,
q = 0.1414:0.7071:41), and hands every value back.

Per section and model the report counts identical and moved values and
gives the worst move: |delta eps|/max(|eps|, |eps - 1|) for eps and
|delta omega|/|omega| for roots.  Each moved value is compared against
the test suite's mpmath reference, tests/mpref.py: eps with its
``epsilon``, a root with its ``root`` seeded by BASE's root.  Nearer or
farther says whether HEAD's value lies nearer to the reference than
BASE's, on the same scale; a value with no reference is neither.  The
exit status is 0 whatever moved.
"""

import argparse
import io
import json
import os
import pathlib
import subprocess
import sys
import tarfile
import tempfile

REPO = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "tests"))
import mpref  # noqa: E402

#: the child: argv = (src directory, n); prints {key: [section, model,
#: [x_p, y, x, q], re, im]} as JSON, whose floats round-trip exactly
_CHILD = r"""
import itertools, json, os, sys
src, n = sys.argv[1], int(sys.argv[2])
sys.path.insert(0, src)
import qplasma
if not os.path.abspath(qplasma.__file__).startswith(os.path.join(src, "")):
    sys.exit(f"imported {qplasma.__file__}, not the qplasma under {src}")
from qplasma.dielectric import ModelKind, PlasmaParams, QueryPoint, evaluate
from qplasma.scan import FIGURE_IDS, figure_preset, run_roots, run_scan
out = {}
for k in FIGURE_IDS:
    for i, spec in enumerate(figure_preset(k, n)):
        for row in run_scan(spec).rows:
            at = {"y": 0.0, "x": 0.0, "q": 1.0, **spec.fixed, spec.sweep_var: row[0]}
            inputs = [at["x_p"], at["y"], at["x"], at["q"]]
            for j, model in enumerate(spec.models):
                out[f"figure {k}/{i} {model.value} {spec.sweep_var}={row[0]!r}"] = [
                    "figures", model.value, inputs, row[1 + 2 * j], row[2 + 2 * j]]
for model in ModelKind:
    ys = (0.0,) if model is ModelKind.LINDHARD else (1e-3, 0.1, 1.0)
    xs = ((0.0,) if model is ModelKind.STATIC
          else (0.3, 1.0, 3.0) if model is ModelKind.DRUDE else (0.0, 0.3, 1.0, 3.0))
    qs = (1.0,) if model is ModelKind.DRUDE else (0.01, 0.3, 1.0, 3.0)
    for x_p, y, x, q in itertools.product((0.3, 1.0, 3.0), ys, xs, qs):
        eps = evaluate(model, PlasmaParams(x_p, y), QueryPoint(x, q))
        out[f"models {model.value} {x_p!r} {y!r} {x!r} {q!r}"] = [
            "models", model.value, [x_p, y, x, q], eps.real, eps.imag]
models = (ModelKind.QUANTUM, ModelKind.CLASSICAL, ModelKind.MERMIN)
_, rows = run_roots(PlasmaParams(1.0, 1e-3), models, (0.1414, 0.7071), 41)
for row in rows:
    for j, model in enumerate(models):
        out[f"roots {model.value} q={row[0]!r}"] = [
            "roots", model.value, [1.0, 1e-3, None, row[0]], row[2 + 2 * j], row[3 + 2 * j]]
json.dump(out, sys.stdout)
"""


def _tree(arg: str, tmp: str) -> str:
    # a checkout directory as it is, or a revision's src/ exported under tmp
    if os.path.isdir(arg):
        return os.path.abspath(arg)
    git = subprocess.run(["git", "-C", str(REPO), "archive", arg, "src"],
                         capture_output=True)
    if git.returncode:
        sys.exit(f"drift: {arg!r} is no directory or git revision: "
                 f"{git.stderr.decode().strip()}")
    dest = tempfile.mkdtemp(dir=tmp)
    tarfile.open(fileobj=io.BytesIO(git.stdout)).extractall(dest, filter="data")
    return dest


def evaluate(trees: list[str], n: int) -> list[dict]:
    """The values of each tree, from one child process per tree, run side
    by side."""
    children = [subprocess.Popen([sys.executable, "-c", _CHILD, os.path.join(t, "src"), str(n)],
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
                for t in trees]
    values = []
    for tree, child in zip(trees, children):
        out, err = child.communicate()
        if child.returncode:
            sys.exit(f"drift: the values of {tree} failed:\n{err}")
        values.append(json.loads(out))
    return values


def _identical(b: list, h: list) -> bool:
    # the same floats bit for bit: 0.0 and -0.0 differ, nan matches nan
    return repr(b[3:]) == repr(h[3:])


def _move(section: str, b: complex, h: complex) -> float:
    return abs(h - b) / (abs(b) if section == "roots" else max(abs(b), abs(b - 1.0)))


def compare(base: dict, head: dict) -> dict:
    """(section, model) -> counts of identical, moved, nearer and farther
    values and the worst move, over the keys both trees have.  Values are
    identical when their real and imaginary parts are the same floats, bit
    for bit."""
    stats = {}
    for key in sorted(base.keys() & head.keys()):
        section, model, inputs, b_re, b_im = base[key]
        s = stats.setdefault((section, model), dict(
            identical=0, moved=0, nearer=0, farther=0, worst=0.0))
        if _identical(base[key], head[key]):
            s["identical"] += 1
            continue
        b, h = complex(b_re, b_im), complex(*head[key][3:])
        s["moved"] += 1
        s["worst"] = max(s["worst"], _move(section, b, h))
        x_p, y, x, q = inputs
        try:
            ref = (mpref.root(model, x_p, y, q, b) if section == "roots"
                   else mpref.epsilon(model, x_p, y, x, q))
        except (ArithmeticError, ValueError):
            continue  # no reference value: neither nearer nor farther
        eb, eh = _move(section, ref, b), _move(section, ref, h)
        s["nearer"] += eh < eb
        s["farther"] += eh > eb
    return stats


def report(stats: dict, unmatched: int) -> list[str]:
    lines = [f"{'section':<8} {'model':<22} {'identical':>9} {'moved':>6} "
             f"{'nearer':>6} {'farther':>7} {'worst_move':>10}"]
    for (section, model), s in sorted(stats.items()):
        lines.append(f"{section:<8} {model:<22} {s['identical']:>9} {s['moved']:>6} "
                     f"{s['nearer']:>6} {s['farther']:>7} {s['worst']:>10.2e}")
    lines.append("worst_move: |d eps|/max(|eps|, |eps - 1|) for figures and models, "
                 "|d omega|/|omega| for roots")
    if unmatched:
        lines.append(f"{unmatched} values are in one tree only")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git revision or checkout directory")
    parser.add_argument("head", nargs="?", default=str(REPO),
                        help="git revision or checkout directory (default: this checkout)")
    parser.add_argument("--n", type=int, default=400, help="grid points per figure scan")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        base, head = evaluate([_tree(args.base, tmp), _tree(args.head, tmp)], args.n)
    print(f"drift {args.base} -> {args.head}: 14 figure presets at n={args.n}, "
          "six models on a fixed grid, 41-point roots table")
    print("\n".join(report(compare(base, head), len(base.keys() ^ head.keys()))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
