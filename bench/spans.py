"""Span tracing around the calls into each qplasma module.

Each public function is replaced, at the name its caller looks up, by a
wrapper that records a span (name, start, end, parent, ok).  Spans are kept
in memory and written out once at the end; a layer's self time is its span
time minus the time of its direct child spans.  Tracing is installed only in
the traced worker process, so the untraced run uses the modules untouched.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import Counter

from workloads import classify

#: (module, attribute looked up by the caller)
WRAPPED = (
    ("qplasma.cli", "main"),
    ("qplasma.cli", "run_scan"),
    ("qplasma.cli", "write_output"),
    ("qplasma.scan", "run_scan"),
    ("qplasma.scan", "evaluate"),
    ("qplasma.dielectric", "t_diff_over_q"),
    ("qplasma.dielectric", "lambda0"),
    ("qplasma.dielectric", "plasma_t"),
    ("qplasma.dielectric", "faddeeva_w"),
    ("qplasma.dielectric", "dawson"),
    ("qplasma.dispersion", "trace_branch"),
    ("qplasma.dispersion", "solve_root"),
    ("qplasma.dispersion", "eps_quantum_omega"),
    ("qplasma.dispersion", "eps_classical_omega"),
    ("qplasma.dispersion", "eps_mermin_omega"),
)
LAYERS = ("cli", "scan", "dielectric", "dispersion", "special_functions")
SHARES = ("lower_half", "long_wave", "tail", "taylor")
REQUEST = "bench.request"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name index, start, end, parent, ok)
        self.stack = [-1]
        self.counts = {"iterations": 0, "roots": 0, "bytes": 0, "points": 0}
        self.counts.update({s: 0 for s in SHARES})
        #: request(run, req) runs one request under a root span
        self.request = self._traced(REQUEST, lambda run, req: run(req))

    def _traced(self, name: str, fn, observe=None):
        """``fn`` wrapped to record a span; ``observe(args, result)`` runs
        after a successful call, outside the span."""
        idx = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(i)
            ok = False
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                stack.pop()
                spans[i] = (idx, t0, t1, parent, ok)
            if observe is not None:
                observe(args, out)
            return out

        return traced

    def wrap(self, module, attr: str, observe=None) -> None:
        """Replace ``module.attr`` by a traced wrapper named after the module
        that defines the function."""
        fn = getattr(module, attr)
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        setattr(module, attr, self._traced(name, fn, observe))

    def _classify(self, model, y, omega, q) -> None:
        c = self.counts
        c["points"] += 1
        for name, flag in zip(SHARES, classify(model, y, omega, q)):
            if flag:
                c[name] += 1

    def install(self) -> None:
        c = self.counts

        def on_write(args, paths):
            c["bytes"] += sum(os.path.getsize(p) for p in paths)

        def on_evaluate(args, eps):
            model, params, point = args[:3]
            self._classify(str(getattr(model, "value", model)), params.y, point.x, point.q)

        def on_solve(args, root):
            c["iterations"] += root.iterations

        def on_branch(args, roots):
            c["roots"] += len(roots)

        def on_eps(model):
            def observe(args, eps):
                _, y, omega, q = args[:4]
                self._classify(model, y, omega, q)
            return observe

        observers = {
            "write_output": on_write, "evaluate": on_evaluate,
            "solve_root": on_solve, "trace_branch": on_branch,
            "eps_quantum_omega": on_eps("quantum"),
            "eps_classical_omega": on_eps("classical"),
            "eps_mermin_omega": on_eps("mermin"),
        }
        for mod_name, attr in WRAPPED:
            self.wrap(importlib.import_module(mod_name), attr, observers.get(attr))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start", "end", "parent", "ok"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def self_times(spans) -> list[float]:
    """Span duration minus the time covered by its direct children."""
    child = [0.0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [t1 - t0 - child[i] for i, (_, t0, t1, _, _) in enumerate(spans)]


def layer_metrics(tracer: Tracer, time_scale: float = 1.0) -> dict[str, float]:
    """Per-layer counts, self times and ratios from the recorded spans;
    times are multiplied by ``time_scale`` (to reference seconds)."""
    names = tracer.names
    calls, total, failed = Counter(), Counter(), Counter()
    layer_calls = {layer: 0 for layer in LAYERS}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        idx, t0, t1, _, ok = span
        name = names[idx]
        calls[name] += 1
        total[name] += t1 - t0
        failed[name] += not ok
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_calls[layer] += 1
            layer_self[layer] += own

    def ratio(a, b):
        return a / b if b else 0.0

    c = tracer.counts
    solves = calls["dispersion.solve_root"]
    eps_evals = sum(v for n, v in calls.items() if n.startswith("dielectric.eps_"))
    out = {
        "special_functions.calls": layer_calls["special_functions"],
        "special_functions.self_s": layer_self["special_functions"] * time_scale,
        "special_functions.calls_per_eps": ratio(layer_calls["special_functions"],
                                                 layer_calls["dielectric"]),
        "dielectric.calls": layer_calls["dielectric"],
        "dielectric.self_s": layer_self["dielectric"] * time_scale,
        "dispersion.solve_root.calls": solves,
        "dispersion.self_s": layer_self["dispersion"] * time_scale,
        "dispersion.eps_evals_per_root": ratio(eps_evals, c["roots"]),
        "dispersion.iterations_per_root": ratio(
            c["iterations"], solves - failed["dispersion.solve_root"]),
        "dispersion.failures": failed["dispersion.solve_root"]
        + failed["dispersion.trace_branch"],
        "dispersion.solves_per_point": ratio(solves, c["roots"]),
        "scan.run_scan.calls": calls["scan.run_scan"],
        "scan.self_s": layer_self["scan"] * time_scale,
        "scan.write_output.s": total["scan.write_output"] * time_scale,
        "scan.write_output.bytes": c["bytes"],
        "cli.main.calls": calls["cli.main"],
        "cli.self_s": layer_self["cli"] * time_scale,
    }
    for share in SHARES:
        out[f"dielectric.share_{share}"] = ratio(c[share], c["points"])
    return out
