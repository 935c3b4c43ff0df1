"""tools/pairs.py: the alternation of its runs and its summary, on planted
results, without running the benchmark."""

import importlib.util
import pathlib

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

NAMES = [m["name"] for m in pairs.END_TO_END]


def result(failed=0, attempted=100, **values) -> dict:
    """A run's last line; every end-to-end metric is 1.0 unless given."""
    metrics = {name: {"value": values.get(name, 1.0), "unit": ""} for name in NAMES}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def test_metrics_are_the_benchmarks_end_to_end_metrics():
    assert NAMES == ["setup_s", "points_per_s", "request_p50_ms", "request_p90_ms",
                     "accuracy_digits", "peak_rss_mb"]


def test_sides_alternate_from_pair_to_pair():
    assert [pairs.order(i) for i in range(4)] == [(0, 1), (1, 0), (0, 1), (1, 0)]


def test_main_runs_the_sides_alternately(monkeypatch, capsys):
    calls = []

    def fake_run(root, workload, seed, seconds):
        calls.append((root, workload, seed, seconds))
        return result(points_per_s=2.0 if root == "staged head" else 1.0)

    monkeypatch.setattr(pairs, "_tree", lambda arg, tmp: arg)
    monkeypatch.setattr(pairs, "_stage", lambda tree, tmp: f"staged {tree}")
    monkeypatch.setattr(pairs, "run", fake_run)
    assert pairs.main(["base", "head", "--workload", "branches", "--seed", "5",
                       "--pairs", "3", "--seconds", "0.5"]) == 0
    assert [c[0] for c in calls] == ["staged base", "staged head", "staged head",
                                     "staged base", "staged base", "staged head"]
    assert {c[1:] for c in calls} == {("branches", 5, 0.5)}
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "pairs base -> head: workload branches, seed 5, 3 alternating pairs of 0.5 s"
    row = dict((line.split()[0], line.split()) for line in out[2:-1])
    assert row["points_per_s"][-2:] == ["+100.0%", "3/0/0"]
    assert row["setup_s"][-2:] == ["+0.0%", "0/3/0"]


def test_summary_on_planted_numbers():
    base = [result(points_per_s=v, request_p50_ms=2.0) for v in (100.0, 110.0, 120.0, 130.0)]
    head = [result(points_per_s=v, request_p50_ms=p, failed=f)
            for v, p, f in ((120.0, 1.0, 0), (105.0, 2.0, 1), (130.0, 3.0, 0),
                            (150.0, 2.0, 0))]
    lines = pairs.summary(base, head)
    assert len(lines) == 1 + len(NAMES) + 1
    row = {line.split()[0]: line for line in lines[1:-1]}
    # medians and inclusive quartiles: base 115 [107.5, 122.5], head
    # 125 [116.25, 135]; head wins pairs 1, 3 and 4 (higher is better)
    assert row["points_per_s"].split() == [
        "points_per_s", "higher", "115", "[107.5,", "122.5]", "125", "[116.25,", "135]",
        "+8.7%", "3/0/1"]
    # lower is better: 1.0 wins, 3.0 loses, 2.0 ties
    assert row["request_p50_ms"].split()[-2:] == ["+0.0%", "1/2/1"]
    assert row["accuracy_digits"].split()[-1] == "0/4/0"
    assert lines[-1] == "failed requests: base 0 of 400, head 1 of 400"


def test_one_pair_has_its_value_as_quartiles():
    line = pairs.summary([result(points_per_s=10.0)], [result(points_per_s=12.0)])[2]
    assert line.split()[2:] == ["10", "[10,", "10]", "12", "[12,", "12]", "+20.0%", "1/0/0"]
