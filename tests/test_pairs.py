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


def _claim(base_values, head_values, name="points_per_s"):
    return pairs.verdict([result(**{name: v}) for v in base_values],
                         [result(**{name: v}) for v in head_values], name)


def test_claim_holds():
    # head wins 9 of 10 pairs (one tie); the medians 101 and 111.5 differ
    # by 10.5, the base's inclusive quartiles 100.25 and 102 by 1.75
    base = [100.0, 101.0, 102.0, 103.0, 100.0, 101.0, 102.0, 103.0, 100.0, 101.0]
    head = [110.0, 112.0, 113.0, 111.0, 112.0, 111.0, 112.0, 111.0, 100.0, 112.0]
    assert _claim(base, head) == (
        "claim points_per_s: holds, head wins 9/10 pairs (needs 9), median gain 10.5 "
        "against base interquartile distance 1.75")


def test_claim_on_a_lower_is_better_metric():
    base = [2.0 + 0.01 * i for i in range(12)]
    head = [1.5 + 0.01 * i for i in range(12)]
    line = _claim(base, head, "request_p50_ms")
    assert line.startswith("claim request_p50_ms: holds, head wins 12/12 pairs (needs 11)")
    assert _claim(head, base, "request_p50_ms").startswith(
        "claim request_p50_ms: does not hold, head wins 0/12")


def test_claim_with_too_few_pairs_has_no_verdict():
    assert _claim([100.0] * 9, [200.0] * 9) == (
        "claim points_per_s: no verdict, 9 pairs (the rule needs at least 10)")


def test_claim_with_too_few_wins_does_not_hold():
    base = [100.0] * 10
    head = [120.0] * 8 + [90.0] * 2
    assert _claim(base, head).startswith("claim points_per_s: does not hold, head wins 8/10")


def test_claim_within_the_base_spread_does_not_hold():
    # head wins every pair, but its median gain 5 is inside the base's
    # interquartile distance 40
    base = [80.0, 120.0] * 5
    head = [85.0, 125.0] * 5
    assert _claim(base, head) == (
        "claim points_per_s: does not hold, head wins 10/10 pairs (needs 9), median gain 5 "
        "against base interquartile distance 40")


def test_main_prints_the_claim_last(monkeypatch, capsys):
    monkeypatch.setattr(pairs, "_tree", lambda arg, tmp: arg)
    monkeypatch.setattr(pairs, "_stage", lambda tree, tmp: tree)
    monkeypatch.setattr(pairs, "run", lambda root, *args: result(
        points_per_s=2.0 if root == "head" else 1.0))
    assert pairs.main(["base", "head", "--workload", "regimes", "--pairs", "10",
                       "--claim", "points_per_s"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith(
        "claim points_per_s: holds, head wins 10/10 pairs")
    assert pairs.main(["base", "head", "--workload", "regimes", "--pairs", "2"]) == 0
    assert "claim" not in capsys.readouterr().out
