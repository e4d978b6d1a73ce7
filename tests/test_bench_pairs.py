"""Tests for tools/bench_pairs.py: its pair summary and exit status (no benchmark runs)."""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def side(wall, rate, digest="d", failed=0):
    return {"wall_s": wall, "iter_per_s": rate, "failed": failed, "digest": digest}


def test_summarize_counts_wins_by_direction_and_uses_exclusive_quartiles():
    walls = [(1.0, 0.9), (2.0, 2.0), (3.0, 2.5), (4.0, 4.5), (5.0, 4.0)]
    pairs = [{"parent": side(p, 1 / p), "change": side(c, 1 / c)} for p, c in walls]
    out = bench_pairs.summarize(pairs, {"wall_s": "lower", "iter_per_s": "higher"})
    wall = out["wall_s"]
    assert (wall["parent_median"], wall["change_median"]) == (3.0, 2.5)
    assert wall["change_over_parent"] == pytest.approx(2.5 / 3.0, abs=1e-4)
    # exclusive quartiles of 1..5 are 1.5 and 4.5
    assert wall["parent_iqr"] == 3.0
    # the tie in pair 1 counts for neither side
    assert wall["change_better_pairs"] == 3
    assert out["iter_per_s"]["change_better_pairs"] == 3
    assert out["failed_operations"] == {"parent": 0, "change": 0}
    assert out["digests_equal"]


def test_summarize_reports_failures_and_digest_mismatch():
    pairs = [
        {"parent": side(1.0, 1.0), "change": side(1.0, 1.0, failed=2)},
        {"parent": side(1.0, 1.0), "change": side(1.0, 1.0, digest="other")},
    ]
    out = bench_pairs.summarize(pairs, {"wall_s": "lower"})
    assert out["failed_operations"] == {"parent": 0, "change": 2}
    assert not out["digests_equal"]


@pytest.mark.parametrize(
    "digest, failed, status",
    [("d", 0, 0), ("other", 0, 1), ("d", 3, 1)],
    ids=["sound", "digest-differs", "change-failed"],
)
def test_main_exits_1_naming_workloads_with_unequal_digests_or_failures(tmp_path, monkeypatch, capsys, digest, failed, status):
    spec = {
        "workloads": [{"name": "cell-mh"}, {"name": "cell-wide"}],
        "end_to_end": [{"name": "wall_s", "better": "lower"}],
        "per_layer": [],
    }
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))

    def fake_run(checkout, workload, seed, seconds, trace):
        change = checkout == tmp_path.resolve() and workload == "cell-wide"
        return {
            "metrics": {"wall_s": {"value": 1.0}},
            "attempted": 5,
            "failed": failed if change else 0,
            "digests": [digest if change else "d"],
            "machine": {"cpu": "test"},
        }

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    out = tmp_path / "BENCH.json"
    argv = [str(tmp_path / "parent"), str(tmp_path), "--out", str(out), "--workload", "cell-mh", "--workload", "cell-wide", "--pairs", "2"]
    assert bench_pairs.main(argv) == status
    # the file is written either way
    assert set(json.loads(out.read_text())["workloads"]) == {"cell-mh", "cell-wide"}
    err = capsys.readouterr().err
    assert ("cell-wide" in err) == bool(status)
    assert "cell-mh" not in err
