"""Parameter sweeps over the permittivity models, dispersion-branch tables
and figure-preset tables.

A ScanSpec pins every model input except one sweep variable; run_scan
evaluates the requested models over the grid and returns an ordered table.
run_roots tabulates the roots omega(q) of eps(omega, q) = 0 per model.
Output is plain CSV with a commented header plus an optional gnuplot script,
both byte-deterministic for identical specs.
"""

from __future__ import annotations

import cmath
import math

from . import __version__
from .dielectric import ModelKind, PlasmaParams, QueryPoint, _Record, _set, evaluate
from .dispersion import gamma_asymptotic, omega_asymptotic, trace_branch

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


class ScanError(RuntimeError):
    """Evaluation failed at a specific grid point."""


class ScanSpec(_Record):
    __slots__ = __match_args__ = ("models", "fixed", "sweep_var", "sweep_range",
                                  "n", "scale")

    def __init__(self, models: tuple[ModelKind, ...], fixed: dict[str, float],
                 sweep_var: str, sweep_range: tuple[float, float], n: int,
                 scale: str = "linear"):
        _set(self, "models", tuple(ModelKind(m) for m in (
            models if isinstance(models, (tuple, list)) else (models,)
        )))
        _set(self, "fixed", dict(fixed))
        _set(self, "sweep_var", sweep_var)
        _set(self, "sweep_range", sweep_range)
        _set(self, "n", n)
        _set(self, "scale", scale)
        self.validate()

    def validate(self) -> list[float]:
        """Check the spec and return its grid.  The fixed dict can change
        after construction, so run_scan checks again."""
        if not self.models:
            raise ValueError("at least one model is required")
        if self.sweep_var not in _SWEEPABLE:
            raise ValueError(f"sweep_var must be one of {_SWEEPABLE}, got {self.sweep_var!r}")
        if self.sweep_var in self.fixed:
            raise ValueError(f"sweep variable {self.sweep_var!r} must not appear in fixed")
        for key, val in self.fixed.items():
            if key not in _PARAM_KEYS:
                raise ValueError(f"unknown fixed parameter {key!r}")
            if not math.isfinite(float(val)):
                raise ValueError(f"fixed parameter {key}={val!r} must be finite")
        lo, hi = self.sweep_range
        if not lo < hi:
            raise ValueError(f"sweep range must satisfy lo < hi, got [{lo!r}, {hi!r}]")
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise ValueError(f"grid size n must be an integer, got {self.n!r}")
        if self.n < 2:
            raise ValueError(f"grid size n must be >= 2, got {self.n!r}")
        if self.scale not in ("linear", "log"):
            raise ValueError(f"scale must be 'linear' or 'log', got {self.scale!r}")
        if self.scale == "log" and not lo > 0:
            raise ValueError("log scale requires lo > 0")
        g = self.grid()
        if not all(u < v for u, v in zip(g, g[1:])):
            raise ValueError(
                f"sweep range [{lo!r}, {hi!r}] is too narrow for {self.n} "
                "distinct grid points"
            )
        available = set(self.fixed) | {self.sweep_var, "x_p"}
        for model in self.models:
            missing = [v for v in _REQUIRED[model] if v not in available]
            if missing:
                raise ValueError(f"model {model.value!r} needs {missing} fixed or swept")
        if "x_p" not in self.fixed:
            raise ValueError("x_p must be given in fixed")
        return g

    def grid(self) -> list[float]:
        # the endpoints are the requested values exactly; the rounding of
        # lo + (hi - lo) and of exp(log hi) would move them by an ulp
        lo, hi = self.sweep_range
        m = self.n - 1
        if self.scale == "log":
            llo, lhi = math.log(lo), math.log(hi)
            inner = [math.exp(llo + (lhi - llo) * i / m) for i in range(1, m)]
        else:
            inner = [lo + (hi - lo) * i / m for i in range(1, m)]
        return [lo, *inner, hi]


class ScanTable(_Record):
    __slots__ = __match_args__ = ("columns", "rows", "spec")

    def __init__(self, columns: tuple[str, ...], rows: tuple[tuple[float, ...], ...],
                 spec: ScanSpec):
        _set(self, "columns", columns)
        _set(self, "rows", rows)
        _set(self, "spec", spec)


def run_scan(spec: ScanSpec) -> ScanTable:
    """Evaluate the spec over its grid; rows come back in ascending sweep
    order."""
    grid = spec.validate()  # spec.fixed is a dict: check it again
    fixed, var, models = spec.fixed, spec.sweep_var, spec.models
    x_p, y = fixed["x_p"], fixed.get("y", 0.0)
    x, q = fixed.get("x", 0.0), fixed.get("q", 1.0)
    # what the sweep holds fixed is built once: the plasma state of an x or
    # q sweep, the query point of a y sweep
    if var == "y":
        point = QueryPoint(x, q)
        inputs = ((PlasmaParams(x_p, v), point) for v in grid)
    else:
        params = PlasmaParams(x_p, y)
        if var == "x":
            inputs = ((params, QueryPoint(v, q)) for v in grid)
        else:
            inputs = ((params, QueryPoint(x, v)) for v in grid)
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
            if not cmath.isfinite(eps):
                raise ScanError(
                    f"{model.value} returned non-finite value {eps!r} at {var}={v!r}"
                )
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
    long-wave omega_asymptotic and gamma_asymptotic."""
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

def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def write_output(table: ScanTable, path: str) -> list[str]:
    """Write the table as CSV at path: a commented header from table.spec
    and 17-significant-digit rows.  Returns the written paths, [path]."""
    if not table.rows:
        raise ValueError("refusing to write an empty table")
    spec = table.spec
    lo, hi = spec.sweep_range
    note = (f"sweep: {spec.sweep_var} from {_fmt(lo)} to {_fmt(hi)}, "
            f"n={spec.n}, scale={spec.scale}")
    write_csv(path, spec.models, spec.fixed, table.columns, table.rows, [note])
    return [path]


def write_csv(path: str, models: tuple[ModelKind, ...], fixed: dict[str, float],
              columns, rows, notes=()) -> None:
    """Write a CSV: a commented header (models, fixed parameters, notes and
    the tool version), the column line and 17-significant-digit rows."""
    lines = [f"# model: {','.join(m.value for m in models)}"]
    lines += [f"# {key}: {_fmt(fixed[key])}" for key in sorted(fixed)]
    lines += [f"# {note}" for note in notes]
    lines.append(f"# tool: qplasma {__version__}")
    lines.append(",".join(columns))
    # one %-format per row: "%.17g" % v gives the bytes of _fmt(v)
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
