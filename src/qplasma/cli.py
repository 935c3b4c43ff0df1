"""Command-line front end for parameter sweeps, dispersion roots and figure
presets.  Figures and sweeps share one write path: run_scan, write_output
per CSV, then write_plot_script under --plot-script."""

import argparse
import functools
import os
import sys

from .dielectric import ModelKind, PlasmaParams
from .scan import (
    ScanSpec,
    figure_part,
    figure_preset,
    run_roots,
    run_scan,
    write_csv,
    write_output,
    write_plot_script,
)


def _parse_sweep(text: str):
    """var=lo:hi:n[:log] -> (var, (lo, hi), n, scale)"""
    try:
        var, rest = text.split("=", 1)
        parts = rest.split(":")
        if len(parts) not in (3, 4):
            raise ValueError
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        scale = "linear"
        if len(parts) == 4:
            if parts[3] != "log":
                raise ValueError
            scale = "log"
    except (ValueError, IndexError):
        raise argparse.ArgumentTypeError(
            f"sweep must look like var=lo:hi:n[:log], got {text!r}"
        )
    return var.strip(), (lo, hi), n, scale


def _parse_models(text: str) -> tuple[ModelKind, ...]:
    names = [tok.strip() for tok in text.split(",") if tok.strip()]
    try:
        return tuple(ModelKind(name) for name in names)
    except ValueError:
        valid = ", ".join(m.value for m in ModelKind)
        raise argparse.ArgumentTypeError(f"unknown model in {text!r}; valid: {valid}")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qplasma",
        description="Sweep longitudinal plasma permittivity models or trace "
                    "their dispersion roots, and write CSV tables (optionally "
                    "with gnuplot scripts).",
    )
    p.add_argument("--model", type=_parse_models, default=None,
                   help="model name or comma list for overlay "
                        "(quantum, classical, mermin, lindhard_collisionless, static, drude)")
    p.add_argument("--xp", type=float, default=None, help="plasma frequency x_p")
    p.add_argument("--y", type=float, default=None, help="collision frequency y")
    p.add_argument("--x", type=float, default=None, help="frequency x")
    p.add_argument("--q", type=float, default=None, help="wave number q")
    p.add_argument("--sweep", type=_parse_sweep, default=None,
                   metavar="VAR=LO:HI:N[:log]", help="sweep specification")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--figure", type=int, default=None, metavar="1..14",
                      help="run a preset figure instead of an explicit sweep")
    mode.add_argument("--roots", action="store_true",
                      help="trace the dispersion roots omega(q) of each model "
                           "(quantum, classical, mermin) over a linear q sweep")
    p.add_argument("--n", type=int, default=None,
                   help="grid size of a --figure preset (default 400)")
    p.add_argument("--out", default=None,
                   help="CSV path for sweeps, output directory for figures")
    p.add_argument("--plot-script", action="store_true",
                   help="also write a gnuplot script next to each CSV")
    return p


def _write_scans(args, specs, csv_paths, part: str, script_path: str) -> int:
    """Run each spec into its CSV, then the plot script if asked for."""
    for spec, path in zip(specs, csv_paths):
        write_output(run_scan(spec), path)
        print(f"wrote {path}")
    if args.plot_script:
        print(f"wrote {write_plot_script(csv_paths, specs[0], part, script_path)}")
    return 0


def _run_figure(args) -> int:
    if (args.model, args.xp, args.y, args.x, args.q, args.sweep) != (None,) * 6:
        raise ValueError("--figure takes no --model, --xp, --y, --x, --q or --sweep")
    fig_id = args.figure
    specs = figure_preset(fig_id, n=400 if args.n is None else args.n)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"fig{fig_id:02d}")
    if len(specs) > 1:
        csv_paths = [f"{stem}_curve{i}.csv" for i in range(1, len(specs) + 1)]
    else:
        csv_paths = [f"{stem}.csv"]
    return _write_scans(args, specs, csv_paths, figure_part(fig_id), f"{stem}.gp")


def _run_sweep(args) -> int:
    if args.sweep is None:
        raise ValueError("either --sweep or --figure is required")
    if args.model is None:
        raise ValueError("--model is required with --sweep")
    if args.out is None:
        raise ValueError("--out is required with --sweep")
    if args.n is not None:
        raise ValueError("--sweep takes no --n: VAR=LO:HI:N sets its grid size")
    var, rng, n, scale = args.sweep
    fixed = {}
    for key, val in (("x_p", args.xp), ("y", args.y), ("x", args.x), ("q", args.q)):
        if val is not None:
            fixed[key] = val
    spec = ScanSpec(models=args.model, fixed=fixed, sweep_var=var,
                    sweep_range=rng, n=n, scale=scale)
    script_path = os.path.splitext(args.out)[0] + ".gp"
    return _write_scans(args, [spec], [args.out], "both", script_path)


def _run_roots(args) -> int:
    if None in (args.model, args.xp, args.y, args.sweep, args.out):
        raise ValueError("--roots needs --model, --xp, --y, --sweep q=LO:HI:N and --out")
    if args.x is not None or args.q is not None or args.n is not None or args.plot_script:
        raise ValueError("--roots takes no --x, --q, --n or --plot-script")
    var, rng, n, scale = args.sweep
    if var != "q" or scale != "linear":
        raise ValueError(f"--roots needs a linear sweep in q, got a {scale} sweep in {var}")
    params = PlasmaParams(x_p=args.xp, y=args.y)
    columns, rows = run_roots(params, args.model, rng, n)
    write_csv(args.out, args.model, {"x_p": args.xp, "y": args.y}, columns, rows)
    print(f"wrote {args.out}")
    return 0


#: the one parser of the process, built on the first main call: parse_args
#: leaves a parser as it found it
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.figure is not None:
            return _run_figure(args)
        if args.roots:
            return _run_roots(args)
        return _run_sweep(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
