"""Tests for sweeps, figure presets, CSV/gnuplot output, and the CLI."""

import math
import os
import random
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, strategies as st

from qplasma.cli import main
from qplasma.dielectric import ModelKind, PlasmaParams, QueryPoint, evaluate
from qplasma.dispersion import ConvergenceError, solve_root, trace_branch
from qplasma.scan import (
    ScanError,
    ScanSpec,
    figure_part,
    figure_preset,
    read_csv,
    run_scan,
    write_output,
    write_plot_script,
)


#: the long-wave branches at x_p = 1, y = 1e-6, k/k_D = 0.1..0.5 on 5 points
ROOTS = ["--roots", "--model", "quantum,classical,mermin", "--xp", "1",
         "--y", "1e-6", "--sweep", "q=0.14142135623730953:0.7071067811865476:5"]


def drude_spec(**over):
    base = dict(models=(ModelKind.DRUDE,), fixed={"x_p": 1.0, "y": 0.0},
                sweep_var="x", sweep_range=(1.0, 2.0), n=2)
    base.update(over)
    return ScanSpec(**base)


class TestScanSpecValidation:
    def test_accepts_single_model(self):
        spec = ScanSpec(models=ModelKind.DRUDE, fixed={"x_p": 1.0, "y": 0.0},
                        sweep_var="x", sweep_range=(1.0, 2.0), n=2)
        assert spec.models == (ModelKind.DRUDE,)

    @pytest.mark.parametrize("over, match", [
        ({"sweep_var": "nope"}, "sweep_var"),
        ({"fixed": {"x_p": 1.0, "y": 0.0, "x": 1.0}}, "must not appear"),
        ({"sweep_range": (2.0, 1.0)}, "lo < hi"),
        ({"n": 1}, "n must be"),
        ({"scale": "weird"}, "scale"),
        ({"sweep_range": (0.0, 1.0), "scale": "log"}, "log scale"),
        ({"fixed": {"x_p": 1.0, "nope": 2.0}}, "unknown fixed"),
        ({"fixed": {"y": 0.0}}, "x_p"),
        ({"models": ()}, "at least one model"),
        ({"sweep_range": (9.999999999999998, 10.0), "n": 3}, "too narrow"),
        # a non-finite end, at every n: n = 2 once built the grid [lo, hi]
        ({"sweep_var": "q", "fixed": {"x_p": 1.0, "y": 0.0, "x": 1.0},
          "sweep_range": (0.0, math.inf)}, re.escape("sweep range must be finite, got [0.0, inf]")),
        ({"sweep_range": (0.5, math.inf)}, re.escape("must be finite, got [0.5, inf]")),
        ({"sweep_range": (-math.inf, 1.0)}, re.escape("must be finite, got [-inf, 1.0]")),
        ({"sweep_range": (-math.inf, 1.0), "n": 3}, "sweep range must be finite"),
        ({"sweep_range": (0.5, math.inf), "n": 50, "scale": "log"}, "sweep range must be finite"),
        ({"sweep_range": (0.5, math.nan)}, re.escape("must be finite, got [0.5, nan]")),
    ])
    def test_rejections(self, over, match):
        with pytest.raises(ValueError, match=match):
            drude_spec(**over)

    @pytest.mark.parametrize("n", [2.5, 4.0, True, "8"])
    def test_non_integer_grid_size_rejected(self, n):
        with pytest.raises(ValueError, match="must be an integer"):
            drude_spec(n=n)

    def test_repeated_model_rejected(self):
        # two identical column pairs under one name, once written
        with pytest.raises(ValueError, match="^model 'drude' is given twice$"):
            drude_spec(models=(ModelKind.DRUDE, "drude"))

    @pytest.mark.parametrize("models", ["drude", ["drude"], ("drude",), [ModelKind.DRUDE]])
    def test_model_values_accepted(self, models):
        assert drude_spec(models=models).models == (ModelKind.DRUDE,)

    def test_model_variable_requirements(self):
        # quantum needs q; not provided fixed or swept
        with pytest.raises(ValueError, match="needs"):
            ScanSpec(models=(ModelKind.QUANTUM,), fixed={"x_p": 1.0, "y": 0.1},
                     sweep_var="x", sweep_range=(0.1, 1.0), n=4)

    @given(st.floats(1e-3, 10), st.floats(1e-3, 10), st.integers(2, 50),
           st.sampled_from(["linear", "log"]))
    @example(9.999999999999998, 10.0, 3, "linear")
    def test_grid_shape_property(self, a, b, n, scale):
        if not a < b:
            a, b = min(a, b), max(a, b)
            if a == b:
                return
        try:
            spec = drude_spec(sweep_range=(a, b), n=n, scale=scale)
        except ValueError:
            # no strictly increasing grid may exist only where a grid step
            # spans fewer than 4 rounding units; the log grid rounds in
            # log space, before exp
            if scale == "linear":
                steps = (b - a) / math.ulp(b)
            else:
                la, lb = math.log(a), math.log(b)
                steps = (lb - la) / max(math.ulp(la), math.ulp(lb), math.ulp(1.0))
            assert steps < 4 * (n - 1)
            return
        g = spec.grid()
        assert len(g) == n
        assert g[0] == pytest.approx(a, rel=1e-12)
        assert g[-1] == pytest.approx(b, rel=1e-12)
        assert all(u < v for u, v in zip(g, g[1:]))

    @given(st.floats(1e-6, 1e3), st.floats(1e-6, 1e3), st.integers(2, 50),
           st.sampled_from(["linear", "log"]))
    @example(1e-5, 0.1, 400, "log")
    def test_grid_endpoints_exact(self, a, b, n, scale):
        a, b = min(a, b), max(a, b)
        try:
            spec = drude_spec(sweep_range=(a, b), n=n, scale=scale)
        except ValueError:
            return
        g = spec.grid()
        assert (g[0], g[-1]) == (a, b)


class TestRunScan:
    def test_drude_rows_exact(self):
        table = run_scan(drude_spec())
        assert table.columns == ("x", "re_eps_drude", "im_eps_drude")
        assert table.rows == ((1.0, 0.0, 0.0), (2.0, 0.75, 0.0))

    def test_run_roots_without_models_rejected(self, monkeypatch):
        # as ScanSpec refuses no models; it wrote a header with no rows
        from qplasma import scan

        monkeypatch.setattr(scan, "trace_branch", None)  # nothing is traced
        with pytest.raises(ValueError, match="^at least one model is required$"):
            scan.run_roots(PlasmaParams(1.0, 0.01), (), (0.2, 0.5), 5)

    @pytest.mark.parametrize("models", ["quantum", ("quantum",), ["quantum"]])
    def test_run_roots_takes_model_values(self, models):
        # a value, not only a ModelKind, names its columns
        from qplasma.scan import run_roots

        params = PlasmaParams(1.0, 1e-3)
        got = run_roots(params, models, (0.2, 0.3), 3)
        assert got == run_roots(params, (ModelKind.QUANTUM,), (0.2, 0.3), 3)
        assert got[0][2:4] == ("re_omega_quantum", "im_omega_quantum")

    @pytest.mark.parametrize("models, match", [
        (("quantum", ModelKind.QUANTUM), "^model 'quantum' is given twice$"),
        ((ModelKind.QUANTUM, "static"),
         re.escape("solve_root supports ['quantum', 'classical', 'mermin'], got 'static'")),
        ("q", "'q' is not a valid ModelKind"),
    ])
    def test_run_roots_refuses_models_before_tracing(self, models, match, monkeypatch):
        from qplasma import scan

        monkeypatch.setattr(scan, "trace_branch", None)  # nothing is traced
        with pytest.raises(ValueError, match=match):
            scan.run_roots(PlasmaParams(1.0, 0.01), models, (0.2, 0.5), 5)

    def test_static_sweep_imaginary_column_is_zero(self):
        spec = ScanSpec(models=(ModelKind.STATIC,), fixed={"x_p": 1.0, "y": 0.1},
                        sweep_var="q", sweep_range=(0.1, 2.0), n=16)
        table = run_scan(spec)
        assert all(abs(row[2]) <= 1e-12 for row in table.rows)

    def test_rows_ascending_and_parallel_identical(self):
        spec = ScanSpec(models=(ModelKind.QUANTUM, ModelKind.CLASSICAL),
                        fixed={"x_p": 1.0, "y": 0.1, "x": 1.0},
                        sweep_var="q", sweep_range=(0.05, 2.5), n=40)
        first = run_scan(spec)
        assert run_scan(spec).rows == first.rows
        sweeps = [row[0] for row in first.rows]
        assert sweeps == sorted(sweeps)

    def test_evaluation_error_reports_coordinates(self):
        spec = ScanSpec(models=(ModelKind.DRUDE,), fixed={"x_p": 1.0, "y": 0.1},
                        sweep_var="x", sweep_range=(-1.0, 1.0), n=3)  # hits x=0
        with pytest.raises(ScanError, match="x=0.0"):
            run_scan(spec)

    def test_collisionless_sweep_through_zero_frequency(self):
        spec = ScanSpec(models=(ModelKind.QUANTUM,), fixed={"x_p": 1.0, "y": 0.0, "q": 0.5},
                        sweep_var="x", sweep_range=(-1.0, 1.0), n=3)  # hits x=0
        table = run_scan(spec)
        assert table.rows[1][:2] == (0.0, pytest.approx(8.674853234012744, rel=1e-15))

    @pytest.mark.parametrize("sweep_var", ["x", "q", "y"])
    @pytest.mark.parametrize("scale", ["linear", "log"])
    def test_rows_are_the_per_point_evaluations(self, sweep_var, scale):
        # run_scan builds what a sweep holds fixed once per scan; every row
        # must still equal evaluate at that row's own PlasmaParams and
        # QueryPoint, for all six models in a seeded order
        rng = random.Random(f"rows {sweep_var} {scale}")
        for _ in range(4):
            vals = {"x_p": rng.uniform(0.1, 3.0), "y": 10.0 ** rng.uniform(-4.0, -0.3),
                    "x": rng.uniform(0.05, 3.0), "q": rng.uniform(0.05, 2.5)}
            lo = vals.pop(sweep_var)
            spec = ScanSpec(models=tuple(rng.sample(list(ModelKind), 6)), fixed=vals,
                            sweep_var=sweep_var, sweep_range=(lo, lo * rng.uniform(1.5, 20.0)),
                            n=rng.randrange(2, 12), scale=scale)
            expected = []
            for v in spec.grid():
                at = {**vals, sweep_var: v}
                params, point = PlasmaParams(at["x_p"], at["y"]), QueryPoint(at["x"], at["q"])
                row = [v]
                for model in spec.models:
                    eps = evaluate(model, params, point)
                    row += [eps.real, eps.imag]
                expected.append(tuple(row))
            assert run_scan(spec).rows == tuple(expected), spec

    @pytest.mark.parametrize("fixed, sweep_var, sweep_range, message", [
        ({"x_p": 1.0, "y": -0.1, "q": 0.5}, "x", (0.1, 1.0), "y must be finite and >= 0, got -0.1"),
        ({"x_p": 1.0, "y": 0.1, "x": 1.0}, "q", (-1.0, 1.0), "q must be finite and >= 0, got -1.0"),
    ])
    def test_invalid_plasma_state_or_point_raises_value_error(self, fixed, sweep_var,
                                                              sweep_range, message):
        # a negative y or q is refused by PlasmaParams or QueryPoint, not by
        # a model, and is not wrapped as a ScanError
        spec = ScanSpec(models=(ModelKind.QUANTUM,), fixed=fixed, sweep_var=sweep_var,
                        sweep_range=sweep_range, n=3)
        with pytest.raises(ValueError, match=re.escape(message)):
            run_scan(spec)

    def test_y_sweep_error_reports_coordinates(self):
        spec = ScanSpec(models=(ModelKind.STATIC,), fixed={"x_p": 1.0, "q": 0.5},
                        sweep_var="y", sweep_range=(0.0, 1.0), n=3)  # hits y=0
        with pytest.raises(ScanError, match=re.escape("static failed at y=0.0")):
            run_scan(spec)

    @pytest.mark.parametrize("mutate, match", [
        (lambda fixed: fixed.update(x_p=math.nan), "must be finite"),
        (lambda fixed: fixed.update(nope=1.0), "unknown fixed"),
        (lambda fixed: fixed.pop("x_p"), "x_p must be given"),
        (lambda fixed: fixed.update(x=1.5), "must not appear"),
    ])
    def test_fixed_changed_after_construction_is_refused(self, mutate, match):
        # ScanSpec is frozen but its fixed dict is not: run_scan checks it
        # again
        spec = drude_spec()
        mutate(spec.fixed)
        with pytest.raises(ValueError, match=match):
            run_scan(spec)

    @pytest.mark.parametrize("fig_id", [1, 5, 11, 13])
    def test_a_spec_scans_alike_twice(self, fig_id):
        # the grid is built once, at construction, and kept: a second scan
        # of the same spec reads the same grid and gives the same bits
        spec = figure_preset(fig_id, n=7)[0]
        first, second = run_scan(spec), run_scan(spec)
        assert first == second and repr(first) == repr(second)
        assert [row[0] for row in first.rows] == spec.grid()

    @pytest.mark.parametrize("sweep_var, sweep_range", [("x", (1, 3)), ("q", (1, 4)),
                                                         ("y", (1, 2))])
    @pytest.mark.parametrize("scale", ["linear", "log"])
    def test_evaluate_receives_the_checked_records(self, sweep_var, sweep_range, scale,
                                                   monkeypatch):
        # only the first grid point goes through PlasmaParams or QueryPoint;
        # every point's records still equal those constructors' records, with
        # their float fields, here from int endpoints and int fixed values
        seen = []

        def recording(model, params, point):
            seen.append((model, params, point))
            return evaluate(model, params, point)

        monkeypatch.setattr("qplasma.scan.evaluate", recording)
        fixed = {"x_p": 2, "y": 1, "x": 3, "q": 2}
        fixed.pop(sweep_var)
        models = (ModelKind.QUANTUM, ModelKind.DRUDE)
        spec = ScanSpec(models=models, fixed=fixed, sweep_var=sweep_var,
                        sweep_range=sweep_range, n=5, scale=scale)
        table = run_scan(spec)
        expected = []
        for v in spec.grid():
            at = {**fixed, sweep_var: v}
            records = PlasmaParams(at["x_p"], at["y"]), QueryPoint(at["x"], at["q"])
            expected += [(model, *records) for model in models]
        assert seen == expected
        assert [repr(call) for call in seen] == [repr(call) for call in expected]
        for _, params, point in seen:
            assert (type(params), type(point)) == (PlasmaParams, QueryPoint)
            assert {type(f) for f in (*params._values(), *point._values())} == {float}
        assert [row[0] for row in table.rows] == spec.grid()

    @pytest.mark.parametrize("fixed, sweep_var, sweep_range, error, message, calls", [
        # the first point's record refuses it before any model runs
        ({"x_p": 1.0, "y": 0.1, "x": 1.0}, "q", (-1, 1), ValueError,
         "q must be finite and >= 0, got -1", 0),
        # q = 0 is a valid QueryPoint, and the model refuses it
        ({"x_p": 1.0, "y": 0.1, "x": 1.0}, "q", (0.0, 1.0), ScanError,
         "evaluation of quantum failed at q=0.0", 1),
        ({"x_p": 1.0, "x": 1.0, "q": 0.5}, "y", (-0.1, 1), ValueError,
         "y must be finite and >= 0, got -0.1", 0),
    ])
    def test_error_order_at_the_first_point(self, fixed, sweep_var, sweep_range, error,
                                            message, calls, monkeypatch):
        seen = []

        def recording(model, params, point):
            seen.append(point)
            return evaluate(model, params, point)

        monkeypatch.setattr("qplasma.scan.evaluate", recording)
        spec = ScanSpec(models=(ModelKind.QUANTUM,), fixed=fixed, sweep_var=sweep_var,
                        sweep_range=sweep_range, n=3)
        with pytest.raises(error, match=re.escape(message)) as info:
            run_scan(spec)
        assert type(info.value) is error
        assert len(seen) == calls

    def test_unexpected_error_propagates_unwrapped(self, monkeypatch):
        # only the errors the models raise become ScanError; a programming
        # error keeps its own type and traceback
        def broken(*args, **kwargs):
            raise TypeError("broken model")

        monkeypatch.setattr("qplasma.scan.evaluate", broken)
        with pytest.raises(TypeError, match="broken model"):
            run_scan(drude_spec())


class TestFigurePresets:
    def test_out_of_range(self):
        for bad in (0, 15, -3):
            with pytest.raises(ValueError):
                figure_preset(bad)

    def test_resonance_overlay_preset(self):
        specs = figure_preset(5)
        assert len(specs) == 1
        spec = specs[0]
        assert spec.models == (ModelKind.QUANTUM, ModelKind.CLASSICAL)
        assert spec.fixed == {"x_p": 10.0, "y": 0.01, "q": 1.0}
        assert spec.sweep_var == "x"
        assert spec.sweep_range[1] >= 10.0  # straddles the resonance

    def test_log_sweep_preset(self):
        spec = figure_preset(11)[0]
        assert spec.scale == "log"
        assert spec.sweep_var == "y"
        assert spec.fixed == {"x_p": 1.0, "x": 1.0, "q": 0.5}
        assert spec.sweep_range == (1e-5, 1e-1)

    def test_curve_families(self):
        specs = figure_preset(1)
        assert [s.fixed["x"] for s in specs] == [1.0, 0.7, 1.3]
        specs = figure_preset(3)
        assert [s.fixed["q"] for s in specs] == [0.5, 0.6, 0.7]

    def test_all_presets_valid_and_default_n(self):
        for fig_id in range(1, 15):
            for spec in figure_preset(fig_id):
                spec.validate()
                assert spec.n == 400

    @pytest.mark.parametrize("fig_id", range(1, 15))
    def test_every_preset_pinned(self, fig_id):
        # figures 2k - 1 and 2k plot Re and Im of the same scans
        q, c = ModelKind.QUANTUM, ModelKind.CLASSICAL
        expected = {
            1: [((q,), {"x_p": 1.0, "y": 0.1, "x": x}, "q", (0.02, 2.5), "linear")
                for x in (1.0, 0.7, 1.3)],
            3: [((q,), {"x_p": 1.0, "y": 0.1, "q": qv}, "x", (0.01, 3.0), "linear")
                for qv in (0.5, 0.6, 0.7)],
            5: [((q, c), {"x_p": 10.0, "y": 0.01, "q": 1.0}, "x", (0.01, 15.0), "linear")],
            7: [((q, c), {"x_p": 1.0, "y": 0.01, "q": 1.0}, "x", (0.01, 3.0), "linear")],
            9: [((q, c), {"x_p": 1.0, "y": 0.01, "q": 0.5}, "x", (0.01, 3.0), "linear")],
            11: [((q, c), {"x_p": 1.0, "x": 1.0, "q": 0.5}, "y", (1e-5, 1e-1), "log")],
            13: [((q, c), {"x_p": 1.0, "x": 1.0, "y": 0.1}, "q", (0.02, 2.5), "linear")],
        }[fig_id - 1 + fig_id % 2]
        got = [(s.models, s.fixed, s.sweep_var, s.sweep_range, s.scale, s.n)
               for s in figure_preset(fig_id)]
        assert got == [(*spec, 400) for spec in expected]
        assert [s.n for s in figure_preset(fig_id, n=7)] == [7] * len(expected)

    def test_parts_alternate(self):
        assert figure_part(1) == "re"
        assert figure_part(2) == "im"
        assert figure_part(13) == "re"

    @pytest.mark.parametrize("fig_id", [0, 15])
    def test_part_out_of_range(self, fig_id):
        with pytest.raises(ValueError, match=f"figure id must be in 1..14, got {fig_id}"):
            figure_part(fig_id)


class TestWriteOutput:
    def test_round_trip_exact(self, tmp_path):
        spec = drude_spec()
        table = run_scan(spec)
        paths = write_output(table, str(tmp_path / "drude.csv"))
        cols, rows = read_csv(paths[0])
        assert cols == table.columns
        assert rows == table.rows

    def test_header_records_fixed_parameters(self, tmp_path):
        spec = ScanSpec(models=(ModelKind.QUANTUM,),
                        fixed={"x_p": 1.0, "y": 0.1, "x": 1.3},
                        sweep_var="q", sweep_range=(0.1, 1.0), n=4)
        write_output(run_scan(spec), str(tmp_path / "scan.csv"))
        text = (tmp_path / "scan.csv").read_text()
        for line in ("# x: 1.3", "# x_p: 1", "# y: 0.1", "# model: quantum"):
            assert line in text
        assert "# tool: qplasma" in text

    def test_plot_script_relative_path_and_log_scale(self, tmp_path):
        spec = ScanSpec(models=(ModelKind.QUANTUM, ModelKind.CLASSICAL),
                        fixed={"x_p": 1.0, "x": 1.0, "q": 0.5},
                        sweep_var="y", sweep_range=(1e-5, 1e-1), n=4, scale="log")
        os.makedirs(tmp_path / "sub")
        paths = write_output(run_scan(spec), str(tmp_path / "sub" / "ysweep.csv"))
        write_plot_script(paths, spec, "both", str(tmp_path / "sub" / "ysweep.gp"))
        script = (tmp_path / "sub" / "ysweep.gp").read_text()
        assert "set logscale x" in script
        assert "'ysweep.csv'" in script  # relative, not absolute
        assert str(tmp_path) not in script

        lin = drude_spec()
        paths = write_output(run_scan(lin), str(tmp_path / "lin.csv"))
        write_plot_script(paths, lin, "both", str(tmp_path / "lin.gp"))
        assert "logscale" not in (tmp_path / "lin.gp").read_text()

    def test_plot_script_unknown_part_rejected(self, tmp_path):
        script = tmp_path / "x.gp"
        with pytest.raises(ValueError, match="part must be re/im/both, got 'x'"):
            write_plot_script([str(tmp_path / "x.csv")], drude_spec(), "x", str(script))
        assert not script.exists()

    def test_empty_table_rejected(self, tmp_path):
        spec = drude_spec()
        table = run_scan(spec)
        empty = type(table)(columns=table.columns, rows=(), spec=spec)
        with pytest.raises(ValueError):
            write_output(empty, str(tmp_path / "x.csv"))

    def test_row_template_gives_the_bytes_of_format_per_value(self, tmp_path):
        # write_csv formats each row with one "%.17g,...,%.17g" template; it
        # must write format(float(v), ".17g") for every value
        from qplasma.scan import run_roots, write_csv
        columns, rows = run_roots(PlasmaParams(x_p=1.0, y=1e-6), (ModelKind.QUANTUM,),
                                  (0.14142135623730953, 0.2), 2)
        assert len(columns) == 6
        rows = list(rows) + [
            (-0.0, 5e-324, 1.7976931348623157e308, 0.1, 7.0, -1e16),
            (2, 2.0 ** 53 + 2, -5e-324, math.inf, -math.inf, math.nan),
        ]
        path = tmp_path / "t.csv"
        write_csv(str(path), (ModelKind.QUANTUM,), {"x_p": 1.0}, columns, rows)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[-len(rows):] == [",".join(format(float(v), ".17g") for v in row)
                                      for row in rows]

    def test_determinism_byte_identical(self, tmp_path):
        spec = ScanSpec(models=(ModelKind.QUANTUM,),
                        fixed={"x_p": 1.0, "y": 0.1, "x": 1.0},
                        sweep_var="q", sweep_range=(0.05, 2.0), n=32)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_output(run_scan(spec), str(a))
        write_output(run_scan(spec), str(b))
        assert a.read_bytes() == b.read_bytes()


class TestCli:
    def test_sweep_run(self, tmp_path, capsys):
        out = tmp_path / "drude.csv"
        rc = main(["--model", "drude", "--xp", "1", "--y", "0",
                   "--sweep", "x=1:2:2", "--out", str(out)])
        assert rc == 0
        cols, rows = read_csv(str(out))
        assert rows == ((1.0, 0.0, 0.0), (2.0, 0.75, 0.0))

    def test_figure_run_writes_curves_and_script(self, tmp_path):
        rc = main(["--figure", "1", "--n", "8", "--out", str(tmp_path),
                   "--plot-script"])
        assert rc == 0
        names = sorted(os.listdir(tmp_path))
        assert names == ["fig01.gp", "fig01_curve1.csv", "fig01_curve2.csv",
                         "fig01_curve3.csv"]

    def test_overlay_models_comma_list(self, tmp_path):
        out = tmp_path / "overlay.csv"
        rc = main(["--model", "quantum,classical", "--xp", "1", "--y", "0.1",
                   "--x", "1", "--sweep", "q=0.1:1:4", "--out", str(out)])
        assert rc == 0
        cols, _ = read_csv(str(out))
        assert cols == ("q", "re_eps_quantum", "im_eps_quantum",
                        "re_eps_classical", "im_eps_classical")

    def test_removed_mermin_variant_flag_rejected(self, tmp_path):
        # the Mermin model has one static denominator, 4 F(q/2)/q
        with pytest.raises(SystemExit) as err:
            main(["--model", "mermin", "--xp", "1", "--y", "0.1", "--x", "1",
                  "--sweep", "q=0.3:0.8:3", "--out", str(tmp_path / "m.csv"),
                  "--compat-mermin-paper-d0"])
        assert err.value.code != 0

    def test_error_paths_exit_nonzero(self, tmp_path, capsys):
        assert main(["--figure", "15", "--out", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err
        assert main(["--model", "drude", "--out", str(tmp_path / "x.csv")]) == 1
        assert "error:" in capsys.readouterr().err
        assert main(["--sweep", "x=1:2:4", "--out", str(tmp_path / "x.csv")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_one_process_answers_each_request_as_a_new_one(self, tmp_path, capsys,
                                                           monkeypatch):
        # main builds its parser once per process: a figure, a sweep, a bad
        # option and the figure again, in one process, each write the bytes
        # and return the exit code of the same request alone in a new one
        requests = [
            ["--figure", "3", "--n", "5", "--out", "figs", "--plot-script"],
            ["--model", "quantum,classical", "--xp", "1", "--y", "0.1", "--q", "0.5",
             "--sweep", "x=0.5:1.5:5", "--out", "sweep.csv"],
            ["--figure", "3", "--n", "5", "--nope"],
            ["--figure", "3", "--n", "5", "--out", "figs", "--plot-script"],
        ]
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal

        def written(d):
            return {str(p.relative_to(d)): p.read_bytes()
                    for p in sorted(d.rglob("*")) if p.is_file()}

        codes = []
        for i, argv in enumerate(requests):
            alone = tmp_path / f"alone{i}"
            alone.mkdir()
            proc = subprocess.run([sys.executable, "-m", "qplasma", *argv], cwd=alone,
                                  capture_output=True, text=True)
            together = tmp_path / f"together{i}"
            together.mkdir()
            monkeypatch.chdir(together)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv
            assert written(together) == written(alone), argv
            codes.append(code)
        assert codes == [0, 0, 2, 0]

    def test_sweep_plot_script_plots_both_parts(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["--model", "drude", "--xp", "1", "--y", "0.1", "--sweep",
                     "x=1:2:3", "--out", str(out), "--plot-script"]) == 0
        script = (tmp_path / "s.gp").read_text()
        assert "set ylabel 're eps'" in script
        assert "set ylabel 'im eps'" in script

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "cli.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "qplasma", "--model", "drude", "--xp", "1",
             "--y", "0", "--sweep", "x=1:2:2", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_import_leaves_numpy_and_scipy_unloaded(self, tmp_path):
        # Import weight is part of every CLI run.  Backing faddeeva_w and dawson
        # by scipy.special raised the figures benchmark's setup_s from 0.13 to
        # 0.56 s and its peak_rss_mb from 18 to 54 MB; `import numpy` alone
        # adds about 13 MB (2-CPU x86-64 VM, Python 3.11).
        code = ("import sys, qplasma, qplasma.cli; "
                "print(sorted({'numpy', 'scipy'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
        # an install without the test extra: importing either package fails
        code = ("import sys; sys.modules['scipy'] = sys.modules['numpy'] = None; "
                "from qplasma.cli import main; "
                f"sys.exit(main(['--figure', '1', '--n', '5', '--out', {str(tmp_path)!r}]))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert len(os.listdir(tmp_path)) == 3

    def test_bad_sweep_syntax_rejected(self):
        with pytest.raises(SystemExit) as err:
            main(["--model", "drude", "--sweep", "x=1:2", "--out", "x.csv"])
        assert err.value.code != 0

    @pytest.mark.parametrize("argv, match", [
        (["--model", "drude", "--sweep", "x=1:2:4:lin"], "sweep must look like"),
        (["--model", "plasmon", "--sweep", "x=1:2:4"], "unknown model in 'plasmon'"),
    ])
    def test_bad_option_values_rejected(self, argv, match, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv + ["--xp", "1", "--out", str(tmp_path / "x.csv")])
        assert err.value.code != 0
        assert match in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    def test_sweep_without_out_exits_1(self, capsys):
        assert main(["--model", "drude", "--xp", "1", "--sweep", "x=1:2:4"]) == 1
        assert "--out is required with --sweep" in capsys.readouterr().err

    def test_roots_writes_damped_branches(self, tmp_path):
        out = tmp_path / "b.csv"
        assert main(ROOTS + ["--out", str(out)]) == 0
        header, rows = read_csv(str(out))
        assert len(header) == 10 and len(rows) == 5
        assert all(len(row) == 10 for row in rows)
        for model in ("quantum", "classical", "mermin"):
            re_col = header.index(f"re_omega_{model}")
            im_col = header.index(f"im_omega_{model}")
            assert all(row[re_col] > 0.0 >= row[im_col] for row in rows)

        params = PlasmaParams(x_p=1.0, y=1e-6)
        branches = [trace_branch(params, 0.14142135623730953, 0.7071067811865476,
                                 5, model)
                    for model in (ModelKind.QUANTUM, ModelKind.CLASSICAL,
                                  ModelKind.MERMIN)]
        for row, roots in zip(rows, zip(*branches)):
            q = roots[0].q
            expected = [q, q / params.debye_wavenumber]
            for root in roots:
                expected += [root.omega.real, root.omega.imag]
            assert list(row[:8]) == expected

    def test_roots_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(ROOTS + ["--out", str(a)]) == 0
        assert main(ROOTS + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("sweep", ["x=0.5:1.5:5", "q=0.2:0.7:5:log"])
    def test_roots_refuses_other_sweeps(self, sweep, tmp_path, capsys):
        argv = ROOTS[:-1] + [sweep, "--out", str(tmp_path / "b.csv")]
        assert main(argv) == 1
        assert "linear sweep in q" in capsys.readouterr().err
        assert not (tmp_path / "b.csv").exists()

    @pytest.mark.parametrize("argv, match", [
        (ROOTS[:5] + ROOTS[7:], "needs"),  # no --y
        (ROOTS + ["--x", "1"], "takes no"),
        (ROOTS + ["--plot-script"], "takes no"),
    ])
    def test_roots_option_errors_exit_1(self, argv, match, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path / "b.csv")]) == 1
        assert match in capsys.readouterr().err

    def test_roots_infinite_sweep_end_named(self, tmp_path, capsys):
        argv = ROOTS[:-1] + ["q=0.1:inf:5", "--out", str(tmp_path / "b.csv")]
        assert main(argv) == 1
        assert "q_end must be finite, got inf" in capsys.readouterr().err
        assert not (tmp_path / "b.csv").exists()

    def test_roots_sweep_too_narrow_exits_1(self, tmp_path, capsys):
        # 0.3 and the next float hold no 5 distinct q values
        argv = ROOTS[:-1] + ["q=0.3:0.30000000000000004:5", "--out", str(tmp_path / "b.csv")]
        assert main(argv) == 1
        assert ("q range [0.3, 0.30000000000000004] is too narrow for 5 distinct grid "
                "points") in capsys.readouterr().err
        assert not (tmp_path / "b.csv").exists()

    def test_roots_without_models_exits_1(self, tmp_path, capsys):
        argv = ["--roots", "--model", ","] + ROOTS[3:] + ["--out", str(tmp_path / "b.csv")]
        assert main(argv) == 1
        assert "error: at least one model is required" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("argv", [
        ["--model", "quantum,quantum", "--xp", "1", "--y", "0.1", "--x", "1",
         "--sweep", "q=0.1:1:4"],
        ["--roots", "--model", "quantum,quantum"] + ROOTS[3:],
    ], ids=["sweep", "roots"])
    def test_repeated_model_exits_1(self, argv, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path / "r.csv")]) == 1
        assert "error: model 'quantum' is given twice" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("flag", [["--model", "drude"], ["--xp", "7"], ["--y", "0.1"],
                                      ["--x", "1"], ["--q", "1"], ["--sweep", "x=0:1:3"]])
    def test_figure_refuses_the_flags_it_does_not_read(self, flag, tmp_path, capsys):
        # the preset's own parameters were written, whatever the flags said
        out = tmp_path / "d"
        assert main(["--figure", "5", "--n", "3", *flag, "--out", str(out)]) == 1
        assert ("error: --figure takes no --model, --xp, --y, --x, --q or --sweep"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_infinite_sweep_end_refused(self, tmp_path, capsys):
        argv = ["--model", "quantum", "--xp", "1", "--y", "0.1", "--x", "1",
                "--sweep", "q=0:inf:2", "--out", str(tmp_path / "s.csv")]
        assert main(argv) == 1
        assert "error: sweep range must be finite, got [0.0, inf]" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    def test_roots_and_figure_exclusive(self):
        with pytest.raises(SystemExit) as err:
            main(ROOTS + ["--figure", "1"])
        assert err.value.code != 0

    def test_roots_branch_loss_exits_with_its_q(self, tmp_path, capsys, monkeypatch):
        failed = []

        def no_continuation(params, q, model, guess=None, **kwargs):
            if guess is None:
                return solve_root(params, q, model)
            failed.append(q)
            raise ConvergenceError("forced failure", guess, 1.0)

        monkeypatch.setattr("qplasma.dispersion.solve_root", no_continuation)
        assert main(ROOTS + ["--out", str(tmp_path / "b.csv")]) == 1
        err = capsys.readouterr().err
        assert "branch lost" in err and f"at q={failed[-1]!r}" in err
