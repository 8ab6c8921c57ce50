"""The no-regression verdict of scripts/ab_bench.py against a metric's bound, and its exit status."""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import ab_bench  # noqa: E402


@pytest.mark.parametrize("parent, change, lower, want", [
    ((0.9, 1.0, 1.1), 1.2, True, "ok"),  # 20% slower, bound 25%
    ((0.9, 1.0, 1.1), 1.26, True, "worse"),
    ((0.9, 1.0, 1.1), 0.5, True, "ok"),
    ((90.0, 100.0, 110.0), 76.0, False, "ok"),
    ((90.0, 100.0, 110.0), 74.0, False, "worse"),
    ((90.0, 100.0, 110.0), 200.0, False, "ok"),
    ((0.7, 1.0, 1.1), 1.0, True, "unresolved"),  # parent IQR 0.4 > 0.25 x median
    ((60.0, 100.0, 130.0), 100.0, False, "unresolved"),
])
def test_verdict_against_the_bound(parent, change, lower, want):
    assert ab_bench.verdict(parent, change, 0.25, lower) == want


METRICS = [{"name": "setup_s", "better": "lower", "bound": 0.25},
           {"name": "targets_per_s", "better": "higher", "bound": 0.25}]


def _pairs(parent: list[tuple[float, float]], change: list[tuple[float, float]]):
    return [({"setup_s": a[0], "targets_per_s": a[1]}, {"setup_s": b[0], "targets_per_s": b[1]})
            for a, b in zip(parent, change)]


@pytest.mark.parametrize("change, want", [
    ([(0.8, 100.0), (0.9, 101.0), (1.0, 99.0)], 0),  # better or level: ok
    ([(1.1, 100.0), (1.2, 100.0), (1.2, 100.0)], 0),  # slower within the bound
    ([(1.4, 100.0), (1.5, 100.0), (1.3, 100.0)], 1),  # setup_s worse
    ([(1.0, 60.0), (1.0, 70.0), (1.0, 50.0)], 1),  # targets_per_s worse
])
def test_exit_status_follows_the_verdicts(capsys, change, want):
    parent = [(1.0, 100.0), (1.0, 100.0), (1.05, 100.0)]
    assert ab_bench.report(_pairs(parent, change), METRICS) == want
    assert ("worse" in capsys.readouterr().out) == bool(want)


def test_unresolved_passes_and_a_failed_run_fails(capsys):
    # The parent's setup_s spreads too widely to tell: reported, but no failure.
    spread = _pairs([(0.5, 100.0), (1.0, 100.0), (2.0, 100.0)],
                    [(3.0, 100.0), (3.0, 100.0), (3.0, 100.0)])
    assert ab_bench.report(spread, METRICS) == 0
    assert "unresolved" in capsys.readouterr().out
    level = _pairs([(1.0, 100.0)] * 3, [(1.0, 100.0)] * 3)
    assert ab_bench.report(level, METRICS) == 0
    for failed in ((None, level[0][1]), (level[0][0], None)):
        assert ab_bench.report(level + [failed], METRICS) == 1


def test_without_a_workload_every_workload_runs_in_turn(tmp_path, monkeypatch, capsys):
    (tmp_path / "perfbench").mkdir()
    bench = {"run_seconds": 1, "end_to_end": METRICS,
             "workloads": [{"name": "w1"}, {"name": "w2"}, {"name": "w3"}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(bench))
    monkeypatch.setattr(ab_bench, "ROOT", tmp_path)
    monkeypatch.setattr(ab_bench, "export", lambda rev, tree: (tree / "perfbench").mkdir())
    monkeypatch.setattr(ab_bench.signal, "signal", lambda *args: None)
    runs = []

    def run_bench(checkout, workload, seed, seconds):
        runs.append(workload)
        if workload == "w2" and checkout == tmp_path:  # the working tree fails w2's checks
            return None
        return {"setup_s": 1.0, "targets_per_s": 100.0}

    monkeypatch.setattr(ab_bench, "run_bench", run_bench)
    # One exit status over all three: w2's failed runs fail it, though w3 passes after.
    assert ab_bench.main(["--parent", "HEAD", "--pairs", "2"]) == 1
    assert runs == ["w1"] * 4 + ["w2"] * 4 + ["w3"] * 4
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("workload")] == [
        "workload w1", "workload w2", "workload w3"]
    assert "failed runs: parent 0, working tree 2" in out
    runs.clear()
    assert ab_bench.main(["--parent", "HEAD", "--pairs", "2", "--workload", "w3"]) == 0
    assert runs == ["w3"] * 4


@pytest.mark.parametrize("pairs", ["0", "-1", "two"])
def test_pairs_below_one_is_a_usage_error_before_any_export(pairs, monkeypatch, capsys):
    # Zero pairs would print an empty report and pass the gate on no runs.
    exported = []
    monkeypatch.setattr(ab_bench, "export", lambda rev, tree: exported.append(rev))
    with pytest.raises(SystemExit) as exit_info:
        ab_bench.main(["--parent", "HEAD", "--pairs", pairs])
    assert exit_info.value.code == 2
    assert "--pairs" in capsys.readouterr().err
    assert exported == []
