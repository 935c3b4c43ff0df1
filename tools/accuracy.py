"""The measured accuracy table: the special functions' cells, the
permittivity models' cells and the dispersion roots' cells.

    python tools/accuracy.py

Runs every cell of tests/test_accuracy.py, from that test's own cell list,
seeded samples and mpmath reference (tests/mpref.py), against this
checkout's src/, and prints per cell the points drawn, the worst error,
the bound that the table in the special_functions, the dielectric or the
dispersion docstring sets, and the arguments of the worst point.  The
exit status is 0 whatever the cells measure: the test suite is what holds
each cell to its bound.
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
