"""Tests for tools/bench_pairs.py: its pair summary and exit status (no benchmark runs)."""
from __future__ import annotations

import hashlib
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


WALL = {"better": "lower", "bound": 0.25}
RATE = {"better": "higher", "bound": 0.25}


def side(wall, rate, digest="d", failed=0):
    return {"wall_s": wall, "iter_per_s": rate, "failed": failed, "digest": digest}


def test_summarize_counts_wins_by_direction_and_uses_exclusive_quartiles():
    walls = [(1.0, 0.9), (2.0, 2.0), (3.0, 2.5), (4.0, 4.5), (5.0, 4.0)]
    pairs = [{"parent": side(p, 1 / p), "change": side(c, 1 / c)} for p, c in walls]
    out = bench_pairs.summarize(pairs, {"wall_s": WALL, "iter_per_s": RATE})
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


def test_summarize_flags_bounds_and_shown_gains_by_direction():
    # ten pairs: the change wins nine; parent quartiles 2.0 and 2.625
    parent = [1.0, 2.0, 2.0, 2.0, 2.0, 2.5, 2.5, 2.5, 3.0, 3.0]
    change = [1.1] + [1.0] * 9
    pairs = [{"parent": side(p, 1 / p), "change": side(c, 1 / c)} for p, c in zip(parent, change)]
    out = bench_pairs.summarize(pairs, {"wall_s": WALL, "iter_per_s": RATE})
    for name in ("wall_s", "iter_per_s"):
        assert out[name]["bound"] == 0.25
        assert out[name]["change_better_pairs"] == 9
        assert not out[name]["worse_than_bound"]
    # medians 2.25 -> 1.0: the gap of 1.25 beats the wall IQR of 0.625
    assert out["wall_s"]["parent_iqr"] == pytest.approx(0.625)
    assert out["wall_s"]["gain_shown"]
    # rates 0.444 -> 1.0: the gap beats the IQR too
    assert out["iter_per_s"]["gain_shown"]
    # eight wins in ten show no gain, however large the gap
    eight = [{"parent": side(p, 1 / p), "change": side(c, 1 / c)} for p, c in zip(parent, [1.1, 2.1] + [1.0] * 8)]
    assert not bench_pairs.summarize(eight, {"wall_s": WALL})["wall_s"]["gain_shown"]
    # nine wins whose median gap is inside the parent's IQR show none either
    close = [{"parent": side(p, 1 / p), "change": side(p - 0.01, 1 / (p - 0.01))} for p in parent]
    close[0]["change"] = side(1.5, 1 / 1.5)
    summary = bench_pairs.summarize(close, {"wall_s": WALL})["wall_s"]
    assert summary["change_better_pairs"] == 9 and not summary["gain_shown"]
    # 30% slower wall time and a 30% lower rate are past a 25% bound; 20% is not
    for factor, worse in ((1.3, True), (1.2, False)):
        slow = [{"parent": side(1.0, 1.0), "change": side(factor, 2.0 - factor)} for _ in range(3)]
        out = bench_pairs.summarize(slow, {"wall_s": WALL, "iter_per_s": RATE})
        assert out["wall_s"]["worse_than_bound"] is worse
        assert out["iter_per_s"]["worse_than_bound"] is worse
        assert not out["wall_s"]["gain_shown"]


def test_summarize_reports_failures_and_digest_mismatch():
    pairs = [
        {"parent": side(1.0, 1.0), "change": side(1.0, 1.0, failed=2)},
        {"parent": side(1.0, 1.0), "change": side(1.0, 1.0, digest="other")},
    ]
    out = bench_pairs.summarize(pairs, {"wall_s": WALL})
    assert out["failed_operations"] == {"parent": 0, "change": 2}
    assert not out["digests_equal"]


def test_summarize_shows_no_gain_when_the_change_failed_more_operations():
    # a side that failed every run reads 0.0, which beats every parent median
    pairs = [{"parent": side(1.0 + i / 10, 1.0), "change": side(0.0, 1.0, failed=5)} for i in range(10)]
    out = bench_pairs.summarize(pairs, {"wall_s": WALL})
    assert out["wall_s"]["change_better_pairs"] == 10
    assert out["failed_operations"] == {"parent": 0, "change": 50}
    assert not out["wall_s"]["gain_shown"]


@pytest.mark.parametrize(
    "parent, change, unresolved",
    [
        # parent quartiles 0.75 and 1.25: an IQR of 0.5 against a bound of 0.25 x 1.0
        ([0.5, 1.0, 1.0, 1.0, 1.5], [1.0] * 5, True),
        # the same spread, but every change run reads better than every parent run
        ([0.5, 1.0, 1.0, 1.0, 1.5], [0.4] * 5, False),
        # an IQR of 0.1 resolves a 0.25 bound
        ([0.9, 1.0, 1.0, 1.0, 1.1], [1.0] * 5, False),
    ],
    ids=["wide", "wide-every-run-better", "tight"],
)
def test_summarize_marks_a_metric_whose_parent_spread_exceeds_the_bound_unresolved(parent, change, unresolved):
    pairs = [{"parent": side(p, 1 / p), "change": side(c, 1 / c)} for p, c in zip(parent, change)]
    out = bench_pairs.summarize(pairs, {"wall_s": WALL, "iter_per_s": RATE})
    assert out["wall_s"]["unresolved"] is unresolved
    # the rate's spread mirrors the wall time's
    assert out["iter_per_s"]["unresolved"] is unresolved


@pytest.mark.parametrize(
    "change_wall, unresolved, gain",
    [(1.0, True, False), (0.2, False, True)],
    ids=["unresolved", "gain-shown"],
)
def test_main_names_unresolved_metrics_and_keeps_the_exit_status(tmp_path, monkeypatch, capsys, change_wall, unresolved, gain):
    spec = {
        "workloads": [{"name": "cell-mh"}],
        "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}],
        "per_layer": [],
    }
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    # parent quartiles 0.625 and 1.375; every change run reads change_wall,
    # and 0.2 wins all four pairs by more than the parent's IQR of 0.75
    parent_walls = iter([0.5, 1.0, 1.0, 1.5])

    def fake_run(checkout, workload, seed, seconds, trace):
        wall = change_wall if checkout == tmp_path.resolve() else next(parent_walls)
        return {
            "metrics": {"wall_s": {"value": wall}},
            "attempted": 5,
            "failed": 0,
            "digests": ["d"],
            "machine": {"cpu": "test"},
        }

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path), "--out", str(out), "--workload", "cell-mh", "--pairs", "4"]) == 0
    summary = json.loads(out.read_text())["workloads"]["cell-mh"]["summary"]["wall_s"]
    assert (summary["unresolved"], summary["gain_shown"]) == (unresolved, gain)
    err = capsys.readouterr().err
    assert ("unresolved on: cell-mh (wall_s)" in err) is unresolved
    assert ("gain shown on: cell-mh (wall_s)" in err) is gain


@pytest.mark.parametrize(
    "digest, failed, wall, status",
    [("d", 0, 1.0, 0), ("other", 0, 1.0, 1), ("d", 3, 1.0, 1), ("d", 0, 1.3, 1)],
    ids=["sound", "digest-differs", "change-failed", "metric-worse"],
)
def test_main_exits_1_naming_workloads_with_unequal_digests_or_failures(tmp_path, monkeypatch, capsys, digest, failed, wall, status):
    spec = {
        "workloads": [{"name": "cell-mh"}, {"name": "cell-wide"}],
        "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}],
        "per_layer": [],
    }
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))

    def fake_run(checkout, workload, seed, seconds, trace):
        change = checkout == tmp_path.resolve() and workload == "cell-wide"
        return {
            "metrics": {"wall_s": {"value": wall if change else 1.0}},
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
    # a 30% slower median is past wall_s's 25% bound
    assert ("cell-wide (wall_s)" in err) == (wall > 1.0)


def test_main_writes_a_null_ratio_and_exits_1_when_every_parent_run_failed(tmp_path, monkeypatch, capsys):
    spec = {
        "workloads": [{"name": "cell-mh"}],
        "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}, {"name": "iter_per_s", "better": "higher", "bound": 0.25}],
        "per_layer": [],
    }
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))

    def fake_run(checkout, workload, seed, seconds, trace):
        # a side with no completed run: perfbench reports 0.0 and prints no digest
        parent = checkout != tmp_path.resolve()
        return {
            "metrics": {"wall_s": {"value": 0.0 if parent else 1.0}, "iter_per_s": {"value": 0.0 if parent else 2.0}},
            "attempted": 5,
            "failed": 5 if parent else 0,
            "digests": [] if parent else ["d"],
            "machine": {"cpu": "test"},
        }

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path), "--out", str(out), "--workload", "cell-mh", "--pairs", "2"]) == 1
    summary = json.loads(out.read_text())["workloads"]["cell-mh"]["summary"]
    assert summary["wall_s"]["change_over_parent"] is None
    assert summary["iter_per_s"]["change_over_parent"] is None
    assert summary["failed_operations"] == {"parent": 10, "change": 0}
    assert not summary["digests_equal"]
    assert "cell-mh" in capsys.readouterr().err


def test_traced_runs_pairs_per_side_in_alternating_order_and_records_the_spread(tmp_path, monkeypatch):
    spec = {
        "workloads": [{"name": "cell-mh"}, {"name": "cell-wide"}],
        "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}],
        "per_layer": [{"name": "game.exchange.self_s"}],
    }
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    order = []

    def fake_run(checkout, workload, seed, seconds, trace):
        # one workload per run, traced
        assert (workload, trace) in (("cell-mh", 1), ("cell-wide", 1))
        side = "change" if checkout == tmp_path.resolve() else "parent"
        order.append((workload, side))
        # the side's k-th cell-mh run, counting from 1, reads k (parent) or 10 k (change)
        k = order.count((workload, side))
        scale = 10 if side == "change" else 1
        return {
            "metrics": {"game.exchange.self_s": {"value": scale * k if workload == "cell-mh" else 0.5}},
            "absent": ["none"],
            "machine": {"cpu": "test"},
        }

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path), "--out", str(out), "--traced", "--pairs", "3"]) == 0
    for workload in ("cell-mh", "cell-wide"):
        assert [side for w, side in order if w == workload] == ["parent", "change", "change", "parent", "parent", "change"]
    section = json.loads(out.read_text())["traced"]
    assert section["runs_per_side"] == 3
    assert section["command"] == "python3 perfbench/run.py --workload <W> --seed 1 --seconds 10 --trace 1"
    assert section["absent_names"] == {"parent": ["none"], "change": ["none"]}
    layer = section["game.exchange.self_s"]
    assert layer["cell-mh"] == {
        "parent": {"median": 2, "min": 1, "max": 3},
        "change": {"median": 20, "min": 10, "max": 30},
    }
    assert layer["cell-wide"]["change"] == {"median": 0.5, "min": 0.5, "max": 0.5}


@pytest.mark.parametrize(
    "absent, status",
    [
        ({"parent": "none", "change": "none"}, 0),
        ({"parent": "game.run_iteration", "change": "none"}, 0),
        ({"parent": "none", "change": "agents.sample_categories, game.run_iteration"}, 1),
    ],
    ids=["none", "parent-only", "change"],
)
def test_traced_exits_1_naming_names_absent_on_the_change_side(tmp_path, monkeypatch, capsys, absent, status):
    spec = {
        "workloads": [{"name": "cell-mh"}],
        "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}],
        "per_layer": [{"name": "game.exchange.self_s"}],
    }
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace):
        assert (workload, trace) == ("cell-mh", 1)
        side = "change" if checkout == tmp_path.resolve() else "parent"
        calls.append(side)
        # only the side's second run reports its absent names
        names = absent[side] if calls.count(side) == 2 else "none"
        return {
            "metrics": {"game.exchange.self_s": {"value": 1.0}},
            "absent": [names],
            "machine": {"cpu": "test"},
        }

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path), "--out", str(out), "--traced", "--pairs", "2"]) == status
    # the file is written either way, with both sides' absent names
    recorded = json.loads(out.read_text())["traced"]["absent_names"]
    assert recorded == {side: sorted({"none", names}) for side, names in absent.items()}
    err = capsys.readouterr().err
    assert (err == "") == (status == 0)
    assert ("agents.sample_categories, game.run_iteration" in err) == bool(status)


@pytest.mark.parametrize(
    "summary_bytes, status",
    [
        ({}, 0),
        ({("change", "jobs2"): b"other"}, 1),
        ({("parent", "jobs1"): b"other", ("change", "jobs1"): b"other"}, 1),
        ({("change", "run_h2h_gibbs"): b"other"}, 1),
    ],
    ids=["equal", "change-differs", "job-counts-differ", "run-cell-differs"],
)
def test_cli_pairs_run_each_checkouts_package_and_compare_digests(tmp_path, monkeypatch, capsys, summary_bytes, status):
    spec = {
        "workloads": [{"name": "cell-mh"}],
        "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}, {"name": "cpu_s", "better": "lower", "bound": 0.25}],
        "per_layer": [],
    }
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    keys = {command: key for key, command in bench_pairs.CLI_RUNS.items()}
    order = []

    def fake_run(cmd, **kwargs):
        # git rev-parse fails on these directories; no signgame process starts
        if cmd[0] == "git":
            return subprocess.CompletedProcess(cmd, 128, "", "")
        assert cmd[1:3] == ["-m", "signgame.cli"] and cmd[-2] == "--out"
        side = "change" if kwargs["env"]["PYTHONPATH"] == str(tmp_path.resolve() / "src") else "parent"
        key = keys[tuple(cmd[3:-2])]
        order.append((key, side))
        out = Path(cmd[-1])
        # a grid's reports are the same at either job count, and each cell's its own
        (out / "detail.csv").write_bytes(b"grid" if cmd[3] == "full" else key.encode())
        (out / "summary.csv").write_bytes(summary_bytes.get((side, key), b"summary"))
        return subprocess.CompletedProcess(cmd, 0, b"stdout")

    # every run reads one second of wall time
    ticks = iter(range(100))
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    monkeypatch.setattr(bench_pairs, "perf_counter", lambda: next(ticks))
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path), "--out", str(out), "--cli", "--pairs", "2"]) == status
    # per pair and command, the sides alternate
    assert list(keys.values()) == ["jobs1", "jobs2", "run_h2h_reject", "run_h2h_gibbs"]
    assert order == [(key, side) for key in keys.values() for side in bench_pairs.SIDES] + [
        (key, side) for key in keys.values() for side in bench_pairs.SIDES[::-1]
    ]
    section = json.loads(out.read_text())["cli"]
    assert section["digests_equal"] is (status == 0)
    assert section["run_h2h_gibbs"]["arguments"] == "run --variant h2h --method gibbs"
    for key in keys.values():
        summary = section[key]["summary"]
        assert summary["wall_s"]["parent_median"] == summary["wall_s"]["change_median"] == 1
        assert not summary["wall_s"]["worse_than_bound"]
        assert len(section[key]["pairs"]) == 2
    md5 = [hashlib.md5(data).hexdigest() for data in (b"grid", b"summary", b"stdout")]
    assert section["jobs2"]["pairs"][0]["parent"]["digest"] == " ".join(md5)
    assert ("digests differ or the change failed operations on: cli" in capsys.readouterr().err) is bool(status)
