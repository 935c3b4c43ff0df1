"""The names the benchmark's span tracer wraps must exist in the package.

``bench/spans.py`` replaces each ``(module, attr)`` of its ``WRAPPED`` table
at run time; a renamed function would fail only there.  The table is read
with ``ast`` so that the benchmark package is not imported.
"""

import ast
import importlib
from pathlib import Path

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
