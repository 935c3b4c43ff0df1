#!/usr/bin/env python3
"""Regenerate all 14 preset figures as CSV (+ gnuplot scripts).

Usage:
    python scripts/make_figures.py [--out figures/] [--n 400]
"""

import argparse
import os
import sys

from qplasma.cli import main as cli_main


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="figures", help="output directory")
    ap.add_argument("--n", type=int, default=400)
    args = ap.parse_args()

    os.makedirs(args.out, exist_ok=True)
    for fig_id in range(1, 15):
        rc = cli_main([
            "--figure", str(fig_id), "--n", str(args.n),
            "--out", args.out, "--plot-script",
        ])
        if rc != 0:
            return rc
    print(f"all figures written to {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
