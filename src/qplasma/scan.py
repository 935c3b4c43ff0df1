"""Parameter sweeps over the permittivity models, dispersion-branch tables
and figure-preset tables.

A ScanSpec pins every model input except one sweep variable; run_scan
evaluates the requested models over the grid and returns an ordered table.
run_roots tabulates the roots omega(q) of eps(omega, q) = 0 per model.
Output is plain CSV with a commented header plus an optional gnuplot script,
both byte-deterministic for identical specs.
"""

import math

from . import __version__
from .dielectric import ModelKind, PlasmaParams, QueryPoint, _point, _Record, _set, evaluate
from .dispersion import _solvable, _sweep_grid, gamma_asymptotic, omega_asymptotic, trace_branch

_SWEEPABLE = ("x", "q", "y")
_PARAM_KEYS = ("x_p", "y", "x", "q")

#: model -> variables it actually consumes (x_p is universal)
_REQUIRED = {
    ModelKind.QUANTUM: ("x_p", "y", "x", "q"),
    ModelKind.CLASSICAL: ("x_p", "y", "x", "q"),
    ModelKind.MERMIN: ("x_p", "y", "x", "q"),
    ModelKind.LINDHARD: ("x_p", "x", "q"),
    ModelKind.STATIC: ("x_p", "y", "q"),
    ModelKind.DRUDE: ("x_p", "y", "x"),
}


def _models(models) -> tuple[ModelKind, ...]:
    # one model, or a tuple or list of them, as ModelKinds: at least one, and
    # none twice
    models = tuple(map(ModelKind, models if isinstance(models, (tuple, list)) else (models,)))
    if not models:
        raise ValueError("at least one model is required")
    for i, model in enumerate(models):
        if model in models[:i]:
            raise ValueError(f"model {model.value!r} is given twice")
    return models


class ScanError(RuntimeError):
    """Evaluation failed at a specific grid point."""


class ScanSpec(_Record):
    """n points of sweep_var over sweep_range for the models, the rest fixed;
    the grid, built once here, is trace_branch's too (_sweep_grid)."""

    __match_args__ = ("models", "fixed", "sweep_var", "sweep_range", "n", "scale")
    __slots__ = (*__match_args__, "_grid")

    def __init__(self, models: tuple[ModelKind, ...], fixed: dict[str, float],
                 sweep_var: str, sweep_range: tuple[float, float], n: int,
                 scale: str = "linear"):
        _set(self, "models", _models(models))
        _set(self, "fixed", dict(fixed))
        _set(self, "sweep_var", sweep_var)
        _set(self, "sweep_range", sweep_range)
        _set(self, "n", n)
        _set(self, "scale", scale)
        if sweep_var not in _SWEEPABLE:
            raise ValueError(f"sweep_var must be one of {_SWEEPABLE}, got {sweep_var!r}")
        lo, hi = sweep_range
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"sweep range must be finite, got [{lo!r}, {hi!r}]")
        if not lo < hi:
            raise ValueError(f"sweep range must satisfy lo < hi, got [{lo!r}, {hi!r}]")
        _set(self, "_grid", _sweep_grid(lo, hi, n, scale, "grid size n", "sweep range"))
        self.validate()

    def validate(self) -> tuple[float, ...]:
        """Check the fixed dict against the rest of the spec and return the
        grid.  Every other field is immutable and was checked once, and the
        grid built once, at construction; the fixed dict can change after
        it, so run_scan calls this again."""
        fixed, sweep_var = self.fixed, self.sweep_var
        if sweep_var in fixed:
            raise ValueError(f"sweep variable {sweep_var!r} must not appear in fixed")
        for key, val in fixed.items():
            if key not in _PARAM_KEYS:
                raise ValueError(f"unknown fixed parameter {key!r}")
            if not math.isfinite(val):
                raise ValueError(f"fixed parameter {key}={val!r} must be finite")
        available = set(fixed) | {sweep_var, "x_p"}
        for model in self.models:
            missing = [v for v in _REQUIRED[model] if v not in available]
            if missing:
                raise ValueError(f"model {model.value!r} needs {missing} fixed or swept")
        if "x_p" not in fixed:
            raise ValueError("x_p must be given in fixed")
        return self._grid

    def grid(self) -> list[float]:
        """The sweep values, from lo to hi."""
        return list(self._grid)


class ScanTable(_Record):
    __slots__ = __match_args__ = ("columns", "rows", "spec")

    def __init__(self, columns: tuple[str, ...], rows: tuple[tuple[float, ...], ...],
                 spec: ScanSpec):
        _set(self, "columns", columns)
        _set(self, "rows", rows)
        _set(self, "spec", spec)


def run_scan(spec: ScanSpec) -> ScanTable:
    """Evaluate the spec over its grid; rows come back in ascending sweep
    order.  The spec's fixed dict, the one field that can change after
    construction, is checked again (ScanSpec.validate)."""
    grid = spec.validate()
    fixed, var, models = spec.fixed, spec.sweep_var, spec.models
    x_p, y = fixed["x_p"], fixed.get("y", 0.0)
    x, q = fixed.get("x", 0.0), fixed.get("q", 1.0)
    # what the sweep holds fixed is built once: the plasma state of an x or
    # q sweep, the query point of a y sweep.  Of the swept query points only
    # the first is checked: the grid is finite and strictly increasing, so
    # the rule (finite; q >= 0) holds at every grid point if and only if it
    # holds at the first
    if var == "y":
        point = QueryPoint(x, q)
        inputs = [(PlasmaParams(x_p, v), point) for v in grid]
    else:
        params = PlasmaParams(x_p, y)
        if var == "x":
            inputs = [(params, QueryPoint(grid[0], q))]
            inputs += [(params, _point(v, q)) for v in grid[1:]]
        else:
            inputs = [(params, QueryPoint(x, grid[0]))]
            inputs += [(params, _point(x, v)) for v in grid[1:]]
    rows = []
    for v, (params, point) in zip(grid, inputs):
        row = [v]
        for model in models:
            try:
                eps = evaluate(model, params, point)
            except (ValueError, OverflowError, ZeroDivisionError) as exc:
                raise ScanError(
                    f"evaluation of {model.value} failed at "
                    f"{var}={v!r} with fixed={fixed!r}: {exc}"
                ) from exc
            row += (eps.real, eps.imag)
        rows.append(tuple(row))
    columns = [var]
    for model in models:
        columns.append(f"re_eps_{model.value}")
        columns.append(f"im_eps_{model.value}")
    return ScanTable(columns=tuple(columns), rows=tuple(rows), spec=spec)


def run_roots(params: PlasmaParams, models: tuple[ModelKind, ...],
              q_range: tuple[float, float], n: int) -> tuple[tuple[str, ...], tuple[tuple[float, ...], ...]]:
    """Trace one dispersion branch per model over n linear q points and
    return (columns, rows): q, k/k_D, Re and Im omega per model, and the
    long-wave omega_asymptotic and gamma_asymptotic.  models is one model,
    or a tuple or list of distinct ones that solve_root solves, all checked
    before any branch is traced."""
    models = tuple(map(_solvable, _models(models)))
    branches = [trace_branch(params, *q_range, n, model) for model in models]
    columns = ["q", "kappa"]
    for model in models:
        columns += [f"re_omega_{model.value}", f"im_omega_{model.value}"]
    columns += ["omega_asymptotic", "gamma_asymptotic"]
    kD = params.debye_wavenumber
    rows = []
    for roots in zip(*branches):
        q = roots[0].q
        kappa = q / kD
        row = [q, kappa]
        for root in roots:
            row += [root.omega.real, root.omega.imag]
        row.append(params.x_p * omega_asymptotic(kappa, params.quantum_parameter))
        row.append(gamma_asymptotic(params, q))
        rows.append(tuple(row))
    return tuple(columns), tuple(rows)


# ---------------------------------------------------------------------------
# Figure presets: fixed parameter families for the 14 standard plots.  The
# axis ranges and n = 400 are tool defaults.
# ---------------------------------------------------------------------------

FIGURE_IDS = range(1, 15)
_OVERLAY = (ModelKind.QUANTUM, ModelKind.CLASSICAL)
#: odd figure id -> (models, fixed, sweep_var, sweep_range, scale, curves);
#: the even id after it plots Im of the same scans.  curves = (var, values)
#: makes one scan per value of var added to fixed, None one overlay scan
_FIGURES = {
    1: ((ModelKind.QUANTUM,), {"x_p": 1.0, "y": 0.1}, "q", (0.02, 2.5), "linear",
        ("x", (1.0, 0.7, 1.3))),
    3: ((ModelKind.QUANTUM,), {"x_p": 1.0, "y": 0.1}, "x", (0.01, 3.0), "linear",
        ("q", (0.5, 0.6, 0.7))),
    5: (_OVERLAY, {"x_p": 10.0, "y": 0.01, "q": 1.0}, "x", (0.01, 15.0), "linear", None),
    7: (_OVERLAY, {"x_p": 1.0, "y": 0.01, "q": 1.0}, "x", (0.01, 3.0), "linear", None),
    9: (_OVERLAY, {"x_p": 1.0, "y": 0.01, "q": 0.5}, "x", (0.01, 3.0), "linear", None),
    11: (_OVERLAY, {"x_p": 1.0, "x": 1.0, "q": 0.5}, "y", (1e-5, 1e-1), "log", None),
    13: (_OVERLAY, {"x_p": 1.0, "x": 1.0, "y": 0.1}, "q", (0.02, 2.5), "linear", None),
}


def figure_preset(fig_id: int, n: int = 400) -> list[ScanSpec]:
    """Scan specs reproducing one of the 14 preset figures (1-based id)."""
    if fig_id not in FIGURE_IDS:
        raise ValueError(f"figure id must be in 1..14, got {fig_id!r}")
    models, fixed, sweep_var, sweep_range, scale, curves = _FIGURES[fig_id - 1 + fig_id % 2]
    if curves is None:
        families = [fixed]
    else:
        var, values = curves
        families = [{**fixed, var: v} for v in values]
    return [ScanSpec(models=models, fixed=f, sweep_var=sweep_var, sweep_range=sweep_range,
                     n=n, scale=scale) for f in families]


def figure_part(fig_id: int) -> str:
    """Which part a preset figure plots: odd ids are Re, even ids are Im."""
    if fig_id not in FIGURE_IDS:
        raise ValueError(f"figure id must be in 1..14, got {fig_id!r}")
    return "re" if fig_id % 2 == 1 else "im"


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def write_output(table: ScanTable, path: str) -> list[str]:
    """Write the table as CSV at path: a commented header from table.spec
    and 17-significant-digit rows.  Returns the written paths, [path]."""
    if not table.rows:
        raise ValueError("refusing to write an empty table")
    spec = table.spec
    note = "sweep: %s from %.17g to %.17g, n=%s, scale=%s" % (
        spec.sweep_var, *spec.sweep_range, spec.n, spec.scale)
    write_csv(path, spec.models, spec.fixed, table.columns, table.rows, [note])
    return [path]


def write_csv(path: str, models: tuple[ModelKind, ...], fixed: dict[str, float],
              columns, rows, notes=()) -> None:
    """Write a CSV: a commented header (models, fixed parameters, notes and
    the tool version), the column line and 17-significant-digit rows."""
    lines = [f"# model: {','.join(m.value for m in models)}"]
    lines += ["# %s: %.17g" % (key, fixed[key]) for key in sorted(fixed)]
    lines += [f"# {note}" for note in notes]
    lines.append(f"# tool: qplasma {__version__}")
    lines.append(",".join(columns))
    # one %-format per row, "%.17g" per value as in the header above
    template = ",".join(["%.17g"] * len(columns))
    lines += [template % tuple(row) for row in rows]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_plot_script(csv_paths: list[str], spec: ScanSpec, part: str,
                      script_path: str) -> str:
    """Write a gnuplot script at script_path plotting part ("re", "im" or
    "both") from the CSVs, referencing them by relative path; log x-scale
    iff the spec is log.  Returns script_path."""
    import os

    if part not in ("re", "im", "both"):
        raise ValueError(f"part must be re/im/both, got {part!r}")
    out_dir = os.path.dirname(os.path.abspath(script_path))
    rel = [os.path.relpath(p, out_dir) for p in csv_paths]
    lines = [
        "set datafile separator ','",
        f"set xlabel '{spec.sweep_var}'",
    ]
    if spec.scale == "log":
        lines.append("set logscale x")
    parts = ("re", "im") if part == "both" else (part,)
    for which in parts:
        lines.append(f"set ylabel '{which} eps'")
        plot_items = []
        for p in rel:
            for i, model in enumerate(spec.models):
                col = 2 + 2 * i + (0 if which == "re" else 1)
                title = f"{model.value}"
                plot_items.append(f"'{p}' using 1:{col} with lines title '{title}'")
        lines.append("plot " + ", \\\n     ".join(plot_items))
        if len(parts) > 1 and which == "re":
            lines.append("pause -1")
    with open(script_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return script_path


def read_csv(path: str) -> tuple[tuple[str, ...], tuple[tuple[float, ...], ...]]:
    """Parse a CSV written by write_output back into (columns, rows)."""
    columns: tuple[str, ...] = ()
    rows: list[tuple[float, ...]] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if not columns:
                columns = tuple(line.split(","))
                continue
            rows.append(tuple(float(tok) for tok in line.split(",")))
    return columns, tuple(rows)
