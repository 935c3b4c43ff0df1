"""The names the benchmark's span tracer wraps must exist in the package
and be called through those names.

``bench/spans.py`` replaces each ``(module, attr)`` of its ``WRAPPED`` table
at run time; a renamed function would fail only there, and a caller that
bound the function directly would silently bypass the wrapper (which feeds
counters such as ``scan.write_output.bytes`` and
``dispersion.solves_per_point``).  The table is read with ``ast`` so that
the benchmark package is not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

from qplasma.cli import main
from qplasma.dielectric import ModelKind, PlasmaParams
from qplasma.dispersion import trace_branch
from qplasma.scan import figure_preset, run_scan

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _wrapped() -> tuple:
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no WRAPPED table in {SPANS}")


def test_every_wrapped_name_resolves():
    wrapped = _wrapped()
    assert wrapped
    missing = [(mod, attr) for mod, attr in wrapped
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert not missing, f"bench/spans.py wraps names that do not exist: {missing}"


def count_calls(monkeypatch, module: str, attr: str) -> list[int]:
    """Replace ``module.attr`` by a counting wrapper; returns the counter."""
    calls = [0]
    inner = getattr(importlib.import_module(module), attr)

    def counted(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(f"{module}.{attr}", counted)
    return calls


FIGURE_1 = ["--figure", "1", "--n", "5"]  # three curves of five points


@pytest.mark.parametrize("module, attr, run, expected", [
    ("qplasma.cli", "run_scan", lambda d: main(FIGURE_1 + ["--out", d]), 3),
    ("qplasma.cli", "write_output", lambda d: main(FIGURE_1 + ["--out", d]), 3),
    ("qplasma.scan", "evaluate", lambda d: run_scan(figure_preset(1, n=5)[0]), 5),
    # the overlay scans of x, y and q: once per (row, model) whichever
    # variable the sweep takes from its grid
    pytest.param("qplasma.scan", "evaluate", lambda d: run_scan(figure_preset(5, n=5)[0]),
                 10, id="qplasma.scan-evaluate-x-sweep"),
    pytest.param("qplasma.scan", "evaluate", lambda d: run_scan(figure_preset(11, n=5)[0]),
                 10, id="qplasma.scan-evaluate-y-sweep"),
    pytest.param("qplasma.scan", "evaluate", lambda d: run_scan(figure_preset(13, n=5)[0]),
                 10, id="qplasma.scan-evaluate-q-sweep"),
    # trace_branch's cold start only: its grid solves enter the private loop
    ("qplasma.dispersion", "solve_root",
     lambda d: trace_branch(PlasmaParams(1.0, 1e-6), 0.2, 0.3, 3, ModelKind.CLASSICAL),
     1),
])
def test_wrapped_names_are_called_through_their_globals(module, attr, run, expected,
                                                        monkeypatch, tmp_path):
    calls = count_calls(monkeypatch, module, attr)
    run(str(tmp_path))
    assert calls[0] == expected, f"callers bypass {module}.{attr}"


@pytest.mark.parametrize("attr, model", [
    ("eps_quantum_omega", ModelKind.QUANTUM),
    ("eps_classical_omega", ModelKind.CLASSICAL),
    ("eps_mermin_omega", ModelKind.MERMIN),
])
def test_solver_calls_eps_through_the_wrapped_globals(attr, model, monkeypatch):
    # solve_root picks its model's eps core once per solve; it must read the
    # name the tracer wraps, so every evaluation a root counts passes there
    assert ("qplasma.dispersion", attr) in _wrapped()
    calls = count_calls(monkeypatch, "qplasma.dispersion", attr)
    roots = trace_branch(PlasmaParams(1.0, 1e-6), 0.2, 0.3, 5, model)
    assert calls[0] == sum(r.evaluations for r in roots) > 0
