"""The measured accuracy table: the special functions', the permittivity
models' and the dispersion roots' cells.

    python tools/accuracy.py

Prints per cell of tests/test_accuracy.py (whose docstring gives the
method) the points drawn, the worst error against this checkout's src/,
the bound and the arguments of the worst point.  It exits 0 whatever the
cells measure; the test suite holds each cell to its bound.
"""

import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]

import test_accuracy  # noqa: E402


def main() -> None:
    bounds = test_accuracy.table()
    print(f"{'cell':18} {'points':>6} {'worst':>9} {'bound':>7}  worst at")
    for name, draw, n in test_accuracy.CELLS:
        points, worst, at = test_accuracy.measure(name, draw, n)
        above = "  ABOVE ITS BOUND" if worst > bounds[name] else ""
        print(f"{name:18} {points:6d} {worst:9.3g} {bounds[name]:7.0e}  {at}{above}")


if __name__ == "__main__":
    main()
