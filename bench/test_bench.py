"""Tests of the benchmark itself: seeded inputs, the reference checker, span
self time and the metric names declared in BENCHMARK.json.  Run with
``python -m pytest bench``."""

import itertools
import types

import workloads  # first: puts the checkout's src/ on sys.path

import qplasma
import reference
import spans


def _first(name, seed, n=40):
    return list(itertools.islice(workloads.make(name, seed, "").requests(), n))


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        assert _first(name, 7) == _first(name, 7)
        assert _first(name, 7) != _first(name, 8)


def test_regimes_visit_every_kind_and_model():
    reqs = _first("regimes", 3, len(workloads.REGIME_KINDS))
    assert [r.kind for r in reqs] == list(workloads.REGIME_KINDS)
    models = {m for r in reqs for m in r.models}
    assert models == {m.value for m in qplasma.ModelKind}


def _eps_point(model, x_p, y, x, q):
    value = qplasma.evaluate(qplasma.ModelKind(model), qplasma.PlasmaParams(x_p, y),
                             qplasma.QueryPoint(x, q))
    return workloads.Point(model, x_p, y, x, q, value)


def test_reference_accepts_exact_and_flags_perturbed_value():
    good = _eps_point("quantum", 1.0, 0.1, 1.0, 0.5)
    worst, bad = reference.check([(0, good)])
    assert worst >= reference.FLOOR_DIGITS and bad == []

    off = workloads.Point(good.model, good.x_p, good.y, good.omega, good.q,
                          good.value * (1 + 1e-9))
    worst, bad = reference.check([(0, good), (5, off)])
    assert worst < reference.FLOOR_DIGITS and bad == [5]

    nan = workloads.Point(good.model, good.x_p, good.y, good.omega, good.q,
                          complex(float("nan"), 0.0))
    assert reference.check([(6, nan)]) == (0.0, [6])


def test_reference_flags_perturbed_root():
    params = qplasma.PlasmaParams(1.0, 1e-4)
    root = qplasma.solve_root(params, 0.3, qplasma.ModelKind.QUANTUM)
    good = workloads.Root("quantum", 1.0, 1e-4, root.q, root.omega)
    off = workloads.Root("quantum", 1.0, 1e-4, root.q, root.omega * (1 + 1e-8))
    _, bad = reference.check([(1, good), (2, off)])
    assert bad == [2]


def test_self_time_subtracts_direct_children():
    recorded = [
        (0, 0.0, 10.0, -1, True),   # request
        (1, 1.0, 5.0, 0, True),     # child of request
        (2, 2.0, 3.0, 1, True),     # grandchild
        (1, 6.0, 7.0, 0, True),     # second child
    ]
    assert spans.self_times(recorded) == [5.0, 3.0, 1.0, 1.0]


def test_tracer_records_nested_spans():
    mod = types.SimpleNamespace()

    def inner(v):
        return v + 1

    def outer(v):
        return mod.inner(v) * 2

    inner.__module__ = "pkg.special_functions"
    outer.__module__ = "pkg.dielectric"
    mod.inner, mod.outer = inner, outer
    tracer = spans.Tracer()
    tracer.wrap(mod, "inner")
    tracer.wrap(mod, "outer")
    assert tracer.request(lambda v: mod.outer(v), 1) == 4
    names = [tracer.names[s[0]] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["bench.request", "dielectric.outer", "special_functions.inner"]
    assert parents == [-1, 0, 1]
    metrics = spans.layer_metrics(tracer)
    assert metrics["special_functions.calls"] == 1
    assert metrics["special_functions.calls_per_eps"] == 1.0


def test_metric_names_and_units_match_benchmark_json():
    import json
    import os

    import edges
    import micro
    import run

    with open(os.path.join(workloads.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    plain = {"points_per_s": 1.0, "request_p50_ms": 1.0, "request_p90_ms": 1.0,
             "accuracy_digits": 1.0, "peak_rss_mb": 1.0, "latencies_s": [1.0],
             "micro": {**micro.run(0), **edges.run(0)}}
    e2e = run.end_to_end(plain, 1.0)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == {
        name: unit for name, (_, unit) in e2e.items()}
    traced = {"metrics": spans.layer_metrics(spans.Tracer()), "latencies_s": [1.0]}
    layers = run.per_layer(plain, traced)
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        name: unit for name, (_, unit) in layers.items()}
