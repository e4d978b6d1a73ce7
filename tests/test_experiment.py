"""Tests for the grid runner, CSV reports, config parsing, and the CLI."""
from __future__ import annotations

import ast
import dataclasses
import hashlib
import importlib
import json
import multiprocessing
import os
import pickle
import shutil
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import signgame.agents as agents
from signgame.agents import VARIANTS, EmissionConcentration, Hyperparams
from signgame.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from signgame.datagen import SyntheticConfig, generate_dataset
import signgame.experiment as experiment
from signgame.experiment import (
    CONDITION_CHOICES,
    CONDITION_MASKS,
    DETAIL_HEADER,
    REFERENCE_RESULTS,
    SUMMARY_HEADER,
    ConfigError,
    ExperimentConfig,
    compare_to_reference,
    full_grid_configs,
    parse_config,
    read_summary,
    run_cell,
    run_experiment,
    run_full_grid,
    write_reports,
)
import signgame.game as game
from signgame.game import METHODS
from signgame.stochastic import RngStream

SMALL_HYPER = Hyperparams(num_categories=4, num_signs=4)
SMALL_SYNTH = SyntheticConfig(
    num_types=4, objects_per_type=5, feature_dim=8, draws_per_modality=10
)


def small_config(**overrides):
    base = dict(
        variant="h2h",
        method="mh",
        condition=1,
        trials=2,
        iterations=3,
        seed=0,
        hyperparams=SMALL_HYPER,
        synthetic=SMALL_SYNTH,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


SMALL_FILE_BLOCKS = {
    "hyperparams": {"num_categories": 4, "num_signs": 4},
    "synthetic": {"num_types": 4, "objects_per_type": 5, "feature_dim": 8, "draws_per_modality": 10},
}


def test_parse_config_defaults():
    cfg = parse_config()
    assert (cfg.variant, cfg.method, cfg.condition) == ("h2h", "mh", 1)
    assert (cfg.trials, cfg.iterations, cfg.seed, cfg.jobs) == (10, 300, 0, 1)
    assert cfg.hyperparams == Hyperparams()


def test_parse_config_flags_override_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"trials": 3, "seed": 5, "variant": "t2t"}))
    cfg = parse_config({"trials": 7, "method": None}, path)
    assert cfg.trials == 7
    assert cfg.seed == 5
    assert cfg.variant == "t2t"
    assert cfg.method == "mh"


def test_parse_config_reads_nested_blocks(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SMALL_FILE_BLOCKS))
    cfg = parse_config(None, path)
    assert cfg.hyperparams.num_categories == 4
    assert cfg.synthetic.num_types == 4


@pytest.mark.parametrize(
    "payload, needle",
    [
        ({"trails": 3}, "trails"),
        ({"condition": 5}, "condition"),
        ({"trials": "many"}, "trials"),
        ({"hyperparams": {"bogus": 1}}, "bogus"),
        ({"synthetic": {"shape": 2}}, "shape"),
    ],
)
def test_parse_config_names_the_offending_key(tmp_path, payload, needle):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match=needle):
        parse_config(None, path)


def test_parse_config_rejects_missing_or_malformed_files(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(None, tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        parse_config(None, bad)
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="object"):
        parse_config(None, listy)


def test_condition_masks_are_the_published_grid():
    vsh = ("v", "s", "h")
    assert CONDITION_MASKS == {
        1: (vsh, vsh),
        2: (vsh, ("v", "s")),
        3: (vsh, ("v",)),
        4: (("v", "s"), ("h",)),
    }


def test_run_cell_row_layout():
    detail, summary = run_cell(small_config())
    assert len(detail) == 2 * 3
    assert [(row[3], row[4]) for row in detail] == [(t, i) for t in range(2) for i in range(3)]
    assert all(row[:3] == ("h2h", "mh", 1) for row in detail)
    assert all(isinstance(row[5], float) and isinstance(row[6], float) for row in detail)
    assert all(len(row) == len(DETAIL_HEADER) == 8 for row in detail)
    assert summary["ari_a_sd"] >= 0.0
    assert summary["kappa_mean"] is not None
    assert list(summary) == list(SUMMARY_HEADER)


def test_run_cell_gibbs_leaves_kappa_blank(tmp_path):
    cfg = small_config(method="gibbs")
    summary = run_experiment(cfg, tmp_path)
    assert summary["kappa_mean"] is None
    assert summary["kappa_sd"] is None
    lines = (tmp_path / "detail.csv").read_text().splitlines()
    assert lines[0] == "variant,method,condition,trial,iteration,ari_a,ari_b,kappa"
    assert all(line.endswith(",") for line in lines[1:])
    rows = read_summary(tmp_path / "summary.csv")
    assert rows[0]["kappa_mean"] is None


def test_reports_are_byte_identical_and_lf_terminated(tmp_path):
    cfg = small_config()
    run_experiment(cfg, tmp_path / "one")
    run_experiment(cfg, tmp_path / "two")
    for name in ("detail.csv", "summary.csv"):
        first = (tmp_path / "one" / name).read_bytes()
        second = (tmp_path / "two" / name).read_bytes()
        assert first == second
        assert b"\r" not in first
    # numeric fields carry six significant digits
    row = (tmp_path / "one" / "detail.csv").read_text().splitlines()[1]
    for field in row.split(",")[5:7]:
        assert field == format(float(field), ".6g")


def test_write_reports_formats_every_float_cell_alike(tmp_path):
    # library callers' rows: a numpy float64 and an integral float, a None
    # kappa, and a summary dict whose keys run against the header
    detail = [("h2h", "mh", 1, 0, 0, np.float64(0.123456789), 1.0, None)]
    summary = dict(zip(SUMMARY_HEADER, ("t2t", "gibbs", 2, 0.5, 0.0, 1 / 3, 2.5e-7, None, None)))
    write_reports(tmp_path, detail, [dict(reversed(summary.items()))])
    assert (tmp_path / "detail.csv").read_text() == (
        "variant,method,condition,trial,iteration,ari_a,ari_b,kappa\n" "h2h,mh,1,0,0,0.123457,1,\n"
    )
    assert (tmp_path / "summary.csv").read_text() == (
        "variant,method,condition,ari_a_mean,ari_a_sd,ari_b_mean,ari_b_sd,kappa_mean,kappa_sd\n"
        "t2t,gibbs,2,0.5,0,0.333333,2.5e-07,,\n"
    )


def test_a_failed_report_write_keeps_the_earlier_file(tmp_path):
    write_reports(tmp_path, [("h2h", "mh", 1, 0, 0, 0.5, 0.5, 1.0)], [])
    before = (tmp_path / "detail.csv").read_bytes()

    def rows():
        yield ("h2h", "mh", 1, 0, 0, 0.25, 0.25, 1.0)
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        write_reports(tmp_path, rows(), [])
    assert (tmp_path / "detail.csv").read_bytes() == before
    # the temp file it was writing is gone too
    assert sorted(path.name for path in tmp_path.iterdir()) == ["detail.csv", "summary.csv"]


def test_read_summary_round_trips_values(tmp_path):
    cfg = small_config(method="reject")
    summary = run_experiment(cfg, tmp_path)
    row = read_summary(tmp_path / "summary.csv")[0]
    assert (row["variant"], row["method"], row["condition"]) == ("h2h", "reject", 1)
    for key in ("ari_a_mean", "ari_b_mean", "kappa_mean"):
        assert row[key] == pytest.approx(summary[key], rel=1e-5)


def test_parallel_jobs_match_serial_results():
    serial_detail, serial_summary = run_cell(small_config(iterations=2))
    parallel_detail, parallel_summary = run_cell(small_config(iterations=2, jobs=2))
    assert parallel_detail == serial_detail
    assert parallel_summary == serial_summary


def test_a_trial_generates_one_dataset_and_one_seed_table_for_its_cells(tmp_path, monkeypatch):
    # a grid trial plays its condition's six games on one dataset, and the
    # six draw one seed table; one table per task, never six. Of the initial
    # tables, a task draws only its two mh games' agent B sets: 2 of 12
    calls = {"generate_dataset": 0, "seed_table": 0, "generator": 0, "update_parameters": 0, "posterior_concentrations": 0}

    def counted(name, fn):
        def spy(*args):
            calls[name] += 1
            return fn(*args)

        return spy

    monkeypatch.setattr(experiment, "generate_dataset", counted("generate_dataset", generate_dataset))
    monkeypatch.setattr(RngStream, "seed_table", counted("seed_table", RngStream.seed_table))
    monkeypatch.setattr(RngStream, "generator", counted("generator", RngStream.generator))
    update = counted("update_parameters", agents.update_parameters)
    for module in (agents, game):
        monkeypatch.setattr(module, "update_parameters", update)
    monkeypatch.setattr(agents, "posterior_concentrations", counted("posterior_concentrations", agents.posterior_concentrations))
    game._game_seeds.cache_clear()
    run_full_grid(small_config(iterations=2, trials=2), tmp_path)
    # 8 tasks, each 6 games x 2 iterations x 2 updates plus 2 initial table
    # sets, and 14 init stream opens (12 assignments, 2 table sets); the
    # other 60 opens draw the datasets. Two iterations are too few for an
    # agent to keep its categories and signs, so every update recounts
    assert calls == {
        "generate_dataset": 8, "seed_table": 8, "generator": 172, "update_parameters": 208, "posterior_concentrations": 208
    }
    calls.update(dict.fromkeys(calls, 0))
    run_cell(small_config(iterations=2, trials=3))
    assert calls == {
        "generate_dataset": 3, "seed_table": 3, "generator": 36, "update_parameters": 15, "posterior_concentrations": 15
    }
    # a settled chain mostly finds an agent's categories and signs as it
    # last counted them: at the h2h/mh/1 benchmark cell, 41 recounts for
    # 2 x 300 updates and the initial one
    calls.update(dict.fromkeys(calls, 0))
    run_cell(ExperimentConfig(variant="h2h", method="mh", condition=1, trials=1, iterations=300, seed=1))
    assert (calls["update_parameters"], calls["posterior_concentrations"]) == (601, 41)


@pytest.mark.parametrize("jobs", [1, 2])
def test_cells_share_a_task_only_when_they_differ_in_variant_and_method(tmp_path, monkeypatch, jobs):
    # each of these cells shares condition 1 with the first; a task that
    # grouped cells by fewer fields would play some on another's dataset
    monkeypatch.setattr(experiment.os, "sched_getaffinity", lambda pid: set(range(64)))
    base = small_config(iterations=2, jobs=jobs)
    cells = [
        base,
        dataclasses.replace(base, variant="t2t", method="gibbs"),
        dataclasses.replace(base, seed=1),
        dataclasses.replace(base, method="reject", seed=1),
        dataclasses.replace(base, iterations=3),
        dataclasses.replace(base, trials=3),
        dataclasses.replace(base, synthetic=dataclasses.replace(SMALL_SYNTH, feature_dim=6)),
        # the data's true emissions are drawn with the hyperparams' concentrations
        dataclasses.replace(base, hyperparams=dataclasses.replace(SMALL_HYPER, emission_concentration=EmissionConcentration(v=0.1))),
    ]
    alone = [run_cell(dataclasses.replace(cell_cfg, jobs=1)) for cell_cfg in cells]
    seen = []

    def recorded(cell_cfg, records=None):
        seen.append(run_cell(cell_cfg, records))
        return seen[-1]

    monkeypatch.setattr(experiment, "run_cell", recorded)
    experiment._run_cells(cells, tmp_path)
    assert seen == alone


# sha256 of the reports of run_full_grid at default sizes with trials=1,
# iterations=5, seed=7, regenerated when an agent's Dirichlet rows came to
# be drawn in one pass; a speedup must keep them
GOLDEN_DIGESTS = {
    "detail.csv": "d9f14cbc0bb0c997f34400d9ac797fc0796a79faaf063d6c40d0ae7e3ebb7f24",
    "summary.csv": "81c6c99299b5afbca70734505195c183366f0ade89d080f2c0597795fae3cb62",
}


def test_full_grid_reports_match_golden_digests(tmp_path):
    run_full_grid(ExperimentConfig(trials=1, iterations=5, seed=7), tmp_path)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN_DIGESTS}
    assert digests == GOLDEN_DIGESTS


# sha256 of the reports of the full grid with trials=1, iterations=70,
# seed=11 on 5 types x 4 objects, regenerated with GOLDEN_DIGESTS; recorded
# when the seed table was hashed 64 iterations at a time, so the run also
# pins the iterations past the first 64
GOLDEN_BLOCK_DIGESTS = {
    "detail.csv": "c6f4fbba4c2a5a6fcd2db97fa0d064711c491f382fca933296e4d90d0753260c",
    "summary.csv": "29e36ee2ce0bd4cb8109333d2b09a3e8cfeec4a0310ef476746ebcbd3278f68f",
}


def test_full_grid_across_a_seed_block_matches_golden_digests(tmp_path):
    cfg = ExperimentConfig(trials=1, iterations=70, seed=11, synthetic=SyntheticConfig(num_types=5, objects_per_type=4))
    run_full_grid(cfg, tmp_path)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN_BLOCK_DIGESTS}
    assert digests == GOLDEN_BLOCK_DIGESTS


def test_parallel_full_grid_starts_one_pool(tmp_path, monkeypatch):
    started = []
    submitted = []  # one list of (cell, trial) tasks per pool

    class CountedPool(experiment.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs.get("max_workers"))
            submitted.append([])
            super().__init__(*args, **kwargs)

        def submit(self, fn, group, t):
            submitted[-1].append(([(c.variant, c.method, c.condition) for c in group], t))
            return super().submit(fn, group, t)

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", CountedPool)
    monkeypatch.setattr(experiment.os, "sched_getaffinity", lambda pid: set(range(64)))
    cells = []
    cfg = small_config(iterations=2, jobs=2)
    run_full_grid(cfg, tmp_path / "parallel", progress=cells.append)
    assert started == [2]
    assert len(cells) == 24
    # every trial of a condition's six cells is one task submitted to a
    # single pool, in condition order, the cells of a task in report order
    order = [(c.variant, c.method, c.condition) for c in full_grid_configs(cfg)]
    by_condition = [[key for key in order if key[2] == condition] for condition in CONDITION_CHOICES]
    assert submitted == [[(group, t) for group in by_condition for t in range(cfg.trials)]]
    assert [(row["variant"], row["method"], row["condition"]) for row in cells] == order
    run_full_grid(small_config(iterations=2), tmp_path / "serial")
    assert started == [2]
    # a pool never has more workers than cores, nor than tasks: the grid's
    # 8 tasks fill 3 cores, a lone cell's 2 trials fill 2 workers
    monkeypatch.setattr(experiment.os, "sched_getaffinity", lambda pid: set(range(3)))
    run_full_grid(small_config(iterations=2, jobs=5000, trials=2), tmp_path / "wide")
    run_cell(small_config(iterations=1, jobs=5000, trials=2))
    assert started == [2, 3, 2]
    # a one-trial grid still has 4 tasks for its pool
    run_full_grid(small_config(iterations=2, jobs=2, trials=1), tmp_path / "one_trial")
    assert started == [2, 3, 2, 2]
    assert len(submitted) == 4
    run_full_grid(small_config(iterations=2, trials=1), tmp_path / "one_trial_serial")
    monkeypatch.setattr(experiment.os, "sched_getaffinity", lambda pid: set(range(1)))
    run_full_grid(small_config(iterations=2, jobs=2), tmp_path / "one_core")
    assert started == [2, 3, 2, 2]
    for run, serial in (("parallel", "serial"), ("wide", "serial"), ("one_core", "serial"), ("one_trial", "one_trial_serial")):
        for name in ("detail.csv", "summary.csv"):
            assert (tmp_path / run / name).read_bytes() == (tmp_path / serial / name).read_bytes()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="the platform has no CPU affinity")
def test_grid_pinned_to_one_cpu_starts_no_pool(tmp_path, monkeypatch):
    started = []

    class CountedPool(experiment.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", CountedPool)
    run_full_grid(small_config(iterations=2), tmp_path / "serial")
    # as taskset -c would: the machine keeps its cores, this process may use one
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        run_full_grid(small_config(iterations=2, jobs=2), tmp_path / "pinned")
    finally:
        os.sched_setaffinity(0, allowed)
    assert started == []
    for name in ("detail.csv", "summary.csv"):
        assert (tmp_path / "pinned" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()


def test_the_record_stream_hands_each_cell_its_trials_in_report_order(monkeypatch):
    run_trial = experiment.run_trial
    ran = []

    def spy(cells, trial):
        ran.append((cells[0].condition, trial))
        return run_trial(cells, trial)

    monkeypatch.setattr(experiment, "run_trial", spy)
    cells = full_grid_configs(small_config(trials=2, iterations=2))
    records = experiment._trial_records(cells)
    items = [next(records)]
    # the first cell's item is ready once its condition's two tasks are
    # back, before any other condition's task has run
    assert ran == [(1, 0), (1, 1)]
    items += records
    assert ran == [(condition, t) for condition in CONDITION_CHOICES for t in range(2)]
    # one item per cell, in report order: the cell's row lists, trial by trial
    assert len(items) == 24
    for cell_cfg, per_trial in zip(cells, items):
        assert list(per_trial) == [run_trial((cell_cfg,), t)[0] for t in range(2)]


class FirstTrial(Exception):
    """Raised by a stub trial to carry out the traced peak at its start."""


def test_a_serial_run_starts_its_first_trial_without_listing_the_rest(monkeypatch):
    # a stub trial costs nothing, so the traced peak at its first call is the
    # task bookkeeping: a list of 10**5 (cell, trial) tasks alone takes several MB
    def first_trial(cells, trial):
        raise FirstTrial(trial, tracemalloc.get_traced_memory()[1])

    monkeypatch.setattr(experiment, "run_trial", first_trial)
    tracemalloc.start()
    try:
        with pytest.raises(FirstTrial) as raised:
            run_cell(small_config(trials=10**5))
    finally:
        tracemalloc.stop()
    trial, peak = raised.value.args
    assert trial == 0
    assert peak < 2**20


def stub_trial(cells, trial):
    # at module level, so the pool can pickle it in place of run_trial
    return [[(trial,)] for _ in cells]


def test_a_parallel_run_starts_its_first_trial_without_submitting_the_rest(monkeypatch):
    # a pending future costs some hundred bytes, so submitting 10**5 of them
    # at once would take tens of MB; a bounded window takes a handful
    monkeypatch.setattr(experiment, "run_trial", stub_trial)
    # the pool's modules load before tracing starts, so the peak counts the
    # task bookkeeping, not about 1 MB of imports
    importlib.import_module("concurrent.futures.process")
    cells = (small_config(),)
    results = experiment._task_results(((cells, t) for t in range(10**5)), 2)
    tracemalloc.start()
    try:
        first = next(results)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        results.close()
    assert first == [[(0,)]]
    assert peak < 2**20
    # closing the stream cancelled its pending tasks and shut the pool down
    assert multiprocessing.active_children() == []


FAILING_CELL = full_grid_configs(small_config())[10]
RUN_TRIAL = experiment.run_trial


def fail_one_cell(cells, trial):
    # at module level, so the pool can pickle it in place of run_trial
    failing = (FAILING_CELL.variant, FAILING_CELL.method, FAILING_CELL.condition)
    if any((cfg.variant, cfg.method, cfg.condition) == failing for cfg in cells):
        raise RuntimeError("trial failed")
    return RUN_TRIAL(cells, trial)


def test_failing_trial_stops_a_parallel_grid(tmp_path, monkeypatch):
    monkeypatch.setattr(experiment, "run_trial", fail_one_cell)
    monkeypatch.setattr(experiment.os, "sched_getaffinity", lambda pid: set(range(64)))
    cells = []
    with pytest.raises(RuntimeError, match="trial failed"):
        run_full_grid(small_config(iterations=2, jobs=2), tmp_path, progress=cells.append)
    # cells finish a condition at a time: the first cells of conditions 1
    # and 2 report before the failing cell's condition 3 task
    assert len(cells) == 2
    assert not (tmp_path / "detail.csv").exists()
    assert not (tmp_path / "summary.csv").exists()
    # the pool is shut down before run_full_grid returns
    assert multiprocessing.active_children() == []

    # a failure in this process, between the cells, also closes the pool,
    # while the traceback still holds run_full_grid's frame
    cells = []

    def stop_at_cell_1(summary):
        if len(cells) == 1:
            raise KeyboardInterrupt
        cells.append(summary)

    with pytest.raises(KeyboardInterrupt) as stopped:
        run_full_grid(small_config(iterations=2, jobs=2), tmp_path, progress=stop_at_cell_1)
    assert stopped.traceback
    assert not (tmp_path / "detail.csv").exists()
    assert multiprocessing.active_children() == []


def kill_worker_on_trial_1(cells, trial):
    # at module level, so the pool can pickle it in place of run_trial; the
    # worker ends as a crash or an out-of-memory kill would end it
    if trial == 1:
        os._exit(9)
    return RUN_TRIAL(cells, trial)


def test_a_dead_worker_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(experiment, "run_trial", kill_worker_on_trial_1)
    monkeypatch.setattr(experiment.os, "sched_getaffinity", lambda pid: set(range(64)))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SMALL_FILE_BLOCKS))
    out = tmp_path / "out"
    args = ["run", "--config", str(cfg_path), "--trials", "3", "--iterations", "2", "--jobs", "2", "--out", str(out)]
    assert main(args) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("i/o error: a worker process ended before its trial returned: ")
    assert err.count("\n") == 1
    assert not (out / "detail.csv").exists()
    assert not (out / "summary.csv").exists()
    assert multiprocessing.active_children() == []
    # the library raises the built-in error for a failed child process
    with pytest.raises(ChildProcessError):
        run_cell(small_config(trials=3, iterations=2, jobs=2))
    assert multiprocessing.active_children() == []


def test_full_grid_configs_enumerate_24_cells():
    cells = full_grid_configs(small_config())
    assert len(cells) == 24
    assert len({(c.variant, c.method, c.condition) for c in cells}) == 24
    assert all(c.trials == 2 and c.seed == 0 for c in cells)
    assert set(REFERENCE_RESULTS) == {(c.variant, c.method, c.condition) for c in cells}


def test_compare_to_reference_table():
    rows = [
        {
            "variant": "h2h",
            "method": "mh",
            "condition": 1,
            "ari_a_mean": 0.87,
            "ari_a_sd": 0.03,
            "ari_b_mean": 0.88,
            "ari_b_sd": 0.03,
            "kappa_mean": 0.99,
            "kappa_sd": 0.01,
        },
        {
            "variant": "h2h",
            "method": "gibbs",
            "condition": 1,
            "ari_a_mean": 0.86,
            "ari_a_sd": 0.04,
            "ari_b_mean": 0.86,
            "ari_b_sd": 0.04,
            "kappa_mean": None,
            "kappa_sd": None,
        },
    ]
    table = compare_to_reference(rows)
    assert "| h2h | mh | 1 |" in table
    assert "0.881" in table  # published counterpart shows up next to the measurement
    assert "--" in table  # joint-draw rows have no agreement column
    assert "almost perfect" in table  # strong agreement is annotated with its band

    empty = compare_to_reference([dict(rows[0], variant="out_of_grid")])
    assert "No grid cells" in empty


def test_cli_run_compare_and_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**SMALL_FILE_BLOCKS, "trials": 1, "iterations": 2}))
    out = tmp_path / "out"

    code = main(
        ["run", "--variant", "t2t", "--method", "mh", "--condition", "2",
         "--seed", "3", "--config", str(cfg_path), "--out", str(out)]
    )
    assert code == EXIT_OK
    assert (out / "detail.csv").exists() and (out / "summary.csv").exists()
    assert "t2t mh condition 2" in capsys.readouterr().out

    assert main(["compare", "--in", str(out)]) == EXIT_OK
    assert "| t2t | mh | 2 |" in capsys.readouterr().out

    assert main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(out)]) == EXIT_CONFIG
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"condition": 9}))
    assert main(["run", "--config", str(bad), "--out", str(out)]) == EXIT_CONFIG
    capsys.readouterr()

    blocker = tmp_path / "blocker"
    blocker.write_text("plain file")
    assert (
        main(["run", "--config", str(cfg_path), "--out", str(blocker / "sub")]) == EXIT_IO
    )
    assert main(["compare", "--in", str(tmp_path / "missing")]) == EXIT_IO
    capsys.readouterr()


@pytest.mark.parametrize("command", ["run", "full"])
def test_cli_unusable_out_fails_before_any_trial(tmp_path, capsys, monkeypatch, command):
    def no_trial(cells, trial):
        raise AssertionError("a trial ran before --out was checked")

    monkeypatch.setattr(experiment, "run_trial", no_trial)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**SMALL_FILE_BLOCKS, "trials": 1, "iterations": 2}))
    blocker = tmp_path / "blocker"
    blocker.write_text("plain file")
    assert main([command, "--config", str(cfg_path), "--out", str(blocker)]) == EXIT_IO
    assert "File exists" in capsys.readouterr().err


def test_library_partial_emission_concentration_keeps_the_other_defaults(monkeypatch):
    hyper = Hyperparams(num_categories=4, num_signs=4, emission_concentration=EmissionConcentration(v=0.1))
    assert hyper.emission_concentration == EmissionConcentration(v=0.1, s=0.001, h=0.001)
    # a mapping is not the config class, as a dict hyperparams is not a Hyperparams
    with pytest.raises(ValueError, match="^emission_concentration must be an EmissionConcentration"):
        Hyperparams(emission_concentration={"v": 0.1})
    # the dataset draws every modality's true emissions, so a partial
    # block without the defaults ended in a KeyError there; the cell's
    # hyperparams reach the data
    drawn = []

    def spy(config, hyper, *args):
        drawn.append(hyper)
        return generate_dataset(config, hyper, *args)

    monkeypatch.setattr(experiment, "generate_dataset", spy)
    rows = experiment.run_trial((small_config(hyperparams=hyper, iterations=2),), 0)[0]
    assert len(rows) == 2
    assert drawn == [hyper]


def test_cli_partial_emission_concentration_keeps_the_other_defaults(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    blocks = {**SMALL_FILE_BLOCKS, "hyperparams": {**SMALL_FILE_BLOCKS["hyperparams"], "emission_concentration": {"v": 0.01}}}
    cfg_path.write_text(json.dumps({**blocks, "trials": 1, "iterations": 2}))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == EXIT_OK
    assert parse_config(None, cfg_path).hyperparams.emission_concentration == EmissionConcentration(v=0.01, s=0.001, h=0.001)
    capsys.readouterr()

    cfg_path.write_text(json.dumps({"hyperparams": {"emission_concentration": {"v": -1}}}))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    cfg_path.write_text(json.dumps({"hyperparams": {"emission_concentration": 0.01}}))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "emission_concentration" in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload, needle",
    [
        ({"trials": 2.7}, "trials"),
        ({"iterations": True}, "iterations"),
        ({"seed": 1.5}, "seed"),
        ({"jobs": False}, "jobs"),
        ({"trials": "2", "iterations": "1"}, "trials"),
        ({"seed": "0"}, "seed"),
        # outside the 64 bits a seed keeps, where -1 would run as 2**64 - 1
        ({"seed": -1}, "seed"),
        ({"seed": 2**64}, "seed"),
        # sizes index int64 arrays and bound int64 draws
        ({"hyperparams": {"num_categories": 10**20}}, "num_categories"),
        ({"hyperparams": {"num_signs": 2**63}}, "num_signs"),
        ({"synthetic": {"num_types": 10**20}}, "num_types"),
        ({"synthetic": {"objects_per_type": 2**63}}, "objects_per_type"),
        ({"synthetic": {"feature_dim": 2**63}}, "feature_dim"),
        ({"synthetic": {"draws_per_modality": 2**63}}, "draws_per_modality"),
        ({"trials": 2**63}, "trials"),
        ({"iterations": 2**63}, "iterations"),
        ({"jobs": 2**63}, "jobs"),
        # each size in range, but an array they shape spans 2**63 bytes or more
        ({"synthetic": {"feature_dim": 2**62}}, "feature_dim"),
        ({"synthetic": {"num_types": 2**62}}, "num_types"),
        ({"synthetic": {"objects_per_type": 2**62}}, "objects_per_type"),
        ({"hyperparams": {"num_categories": 2**62}}, "num_categories"),
        ({"iterations": 2**62}, "iterations"),
    ],
)
def test_cli_rejects_booleans_and_fractional_sizes(tmp_path, capsys, payload, needle):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(payload))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert needle in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# sizes below 2**63 whose first allocation, over 2**57 bytes, exceeds any
# address space, so that no overcommit lets it succeed; the first three
# also shape an array of 2**63 bytes or more, which the config rejects
# before any allocation, and the last reaches the allocation
@pytest.mark.parametrize(
    "payload",
    [
        {"synthetic": {"feature_dim": 2**55}},
        {"hyperparams": {"num_signs": 2**54}},
        {"iterations": 2**52},
        {"synthetic": {"feature_dim": 2**54, "objects_per_type": 1}},
    ],
)
def test_cli_maps_exhausted_memory_to_a_config_error(tmp_path, capsys, payload):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(payload))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "payload, needle",
    [
        ({"hyperparams": 5}, "hyperparams"),
        ({"synthetic": 5}, "synthetic"),
        ({"synthetic": {"num_types": 2.5}}, "synthetic.num_types"),
        ({"synthetic": {"feature_dim": True}}, "synthetic.feature_dim"),
        ({"hyperparams": {"num_signs": 15.5}}, "hyperparams.num_signs"),
        ({"hyperparams": {"coupling_concentration": "x"}}, "hyperparams.coupling_concentration"),
        ({"hyperparams": {"emission_concentration": {"s": [1]}}}, "hyperparams.emission_concentration.s"),
        ({"synthetic": {"num_types": "2"}}, "synthetic.num_types"),
        ({"hyperparams": {"num_signs": "4"}}, "hyperparams.num_signs"),
        ({"hyperparams": {"coupling_concentration": "0.05"}}, "hyperparams.coupling_concentration"),
        ({"hyperparams": {"emission_concentration": {"v": "0.01"}}}, "hyperparams.emission_concentration.v"),
        # a nested block is built by the rule of every block
        (
            {"hyperparams": {"emission_concentration": 0.01}},
            "hyperparams.emission_concentration must be a JSON object, got 0.01",
        ),
        ({"hyperparams": {"emission_concentration": {"q": 1}}}, "unknown hyperparams.emission_concentration key 'q'"),
        # the field is hyperparams, and hyper names no field
        ({"hyper": {}}, "unknown config key 'hyper'"),
        # raw file bytes, not a JSON payload
        pytest.param(b"\xff\xfe{}", "utf-8", id="not-utf-8"),
    ],
)
def test_cli_rejects_malformed_blocks(tmp_path, capsys, payload, needle):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(payload if isinstance(payload, bytes) else json.dumps(payload).encode())
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert needle in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "block",
    [
        '{"coupling_concentration": 1e999}',
        '{"category_concentration": NaN}',
        '{"emission_concentration": {"h": Infinity}}',
        pytest.param('{"coupling_concentration": 1' + "0" * 400 + "}", id="integer-beyond-float-range"),
        # below 1e-300 the Dirichlet draw's log-gammas overflow to -inf
        '{"emission_concentration": {"v": 1e-310}}',
        '{"coupling_concentration": 1e-310}',
    ],
)
def test_cli_rejects_non_finite_concentrations(tmp_path, capsys, block):
    cfg_path = tmp_path / "cfg.json"
    # Python's json reads 1e999 as inf and NaN/Infinity as the floats
    cfg_path.write_text('{"hyperparams": ' + block + "}")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_parse_config_accepts_integral_floats(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"trials": 2.0}))
    assert parse_config(None, cfg_path).trials == 2


def _schema_blocks(cls=ExperimentConfig, path=None):
    """Every config block a file may hold, found by the rule parse_config
    builds them by: (key path, or None for the top level, class). A field
    whose default is a config class holds a nested block, which the file
    names by the field."""
    yield path, cls
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(f.default_factory):
            yield from _schema_blocks(f.default_factory, f"{path}.{f.name}" if path else f.name)


SCHEMA_BLOCKS = list(_schema_blocks())
# every config key a file may hold: (key path of its block, field)
SCHEMA_KEYS = [
    (block, f.name)
    for block, cls in SCHEMA_BLOCKS
    for f in dataclasses.fields(cls)
    if not dataclasses.is_dataclass(f.default_factory)
]
# non-default values of the string fields; numbers are doubled
OTHER_CHOICE = {"variant": "t2t", "method": "gibbs"}


def _schema_payload(block, key, value):
    payload = {key: value}
    for part in reversed(block.split(".") if block else []):
        payload = {part: payload}
    return payload


def _schema_holder(cfg, block):
    """The object that a block's keys land on."""
    for part in block.split(".") if block else []:
        cfg = getattr(cfg, part)
    return cfg


@pytest.mark.parametrize("block, key", SCHEMA_KEYS, ids=[f"{b or 'top'}.{k}" for b, k in SCHEMA_KEYS])
def test_every_dataclass_field_is_a_config_key(tmp_path, capsys, block, key):
    default = getattr(_schema_holder(ExperimentConfig(), block), key)
    if isinstance(default, str):
        value = OTHER_CHOICE[key]
    else:
        value = 2 * default + 1 if isinstance(default, int) else 2 * default
    assert value != default
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_schema_payload(block, key, value)))
    assert getattr(_schema_holder(parse_config(None, cfg_path), block), key) == value

    # a string is never a number or one of the string choices
    cfg_path.write_text(json.dumps(_schema_payload(block, key, "1")))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert (f"{block}.{key}" if block else key) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# every field of every config class by the class that declares it; a
# field's default tells an integer from a concentration and a nested block
LIBRARY_FIELDS = [(cls, f.name, getattr(cls(), f.name)) for _, cls in SCHEMA_BLOCKS for f in dataclasses.fields(cls)]
INTEGER_FIELDS = [(cls, name) for cls, name, default in LIBRARY_FIELDS if type(default) is int]
CONCENTRATIONS = [(cls, name) for cls, name, default in LIBRARY_FIELDS if type(default) is float]
NESTED_FIELDS = [(cls, name) for cls, name, default in LIBRARY_FIELDS if dataclasses.is_dataclass(default)]


def test_the_library_field_lists_see_every_field():
    # a field of another type would escape the lists above
    kinds = {type(default) for _, _, default in LIBRARY_FIELDS}
    assert kinds == {int, float, str, Hyperparams, EmissionConcentration, SyntheticConfig}


@pytest.mark.parametrize("cls, name", INTEGER_FIELDS, ids=[f"{c.__name__}.{n}" for c, n in INTEGER_FIELDS])
def test_every_integer_field_checks_its_type_when_built_directly(cls, name):
    # condition's message may list its choices instead; an int too long
    # for str() and a fraction beyond float range are named by their field
    # too, the int by its bit length
    for bad in (True, 2.5, "2", 10**5000, Fraction(10**400, 3)):
        with pytest.raises(ValueError, match=f"^{name} must be ") as caught:
            cls(**{name: bad})
        assert bad != 10**5000 or str(caught.value).endswith("got an integer of 16610 bits")
    value = getattr(cls(**{name: 2.0}), name)
    assert type(value) is int and value == 2


@pytest.mark.parametrize("cls, name", NESTED_FIELDS, ids=[n for _, n in NESTED_FIELDS])
def test_every_nested_config_field_checks_its_class_when_built_directly(cls, name):
    for bad in (None, 5, {}):
        with pytest.raises(ValueError, match=f"^{name} must be an? "):
            cls(**{name: bad})


@pytest.mark.parametrize("cls, name", CONCENTRATIONS, ids=[n for _, n in CONCENTRATIONS])
def test_every_concentration_checks_its_type_when_built_directly(cls, name):
    with pytest.raises(ValueError, match=f"^{name} must be a number"):
        cls(**{name: "x"})
    value = getattr(cls(**{name: 1}), name)
    assert type(value) is float and value == 1.0


def test_two_parses_of_one_file_are_equal_and_hash_equal(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"trials": 2, "hyperparams": {"emission_concentration": {"v": 0.01}}}))
    first, second = parse_config(None, cfg_path), parse_config(None, cfg_path)
    assert first == second and hash(first) == hash(second)
    assert hash(ExperimentConfig()) == hash(ExperimentConfig())


def test_a_config_survives_pickling_as_the_same_value():
    cfg = small_config(hyperparams=Hyperparams(emission_concentration=EmissionConcentration(s=0.5)))
    loaded = pickle.loads(pickle.dumps(cfg))
    assert loaded == cfg and hash(loaded) == hash(cfg)


def test_a_stored_concentration_cannot_be_overwritten():
    cfg = ExperimentConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.hyperparams.emission_concentration.v = "x"
    assert cfg.hyperparams.emission_concentration.v == 0.001


def _every_field(cls, **strategies):
    """st.builds(cls) from a strategy for each of cls's fields, no fewer."""
    assert set(strategies) == {f.name for f in dataclasses.fields(cls)}
    return st.builds(cls, **strategies)


def _canonical(cfg) -> str:
    return json.dumps(dataclasses.asdict(cfg), sort_keys=True)


# every size stays at most 2**16, so that no product of them shapes an
# array of 2**63 bytes; trials and jobs shape none
CONCENTRATION = st.floats(1e-300, 1e300, allow_nan=False, allow_infinity=False)
CONFIGS = _every_field(
    ExperimentConfig,
    variant=st.sampled_from(VARIANTS),
    method=st.sampled_from(METHODS),
    condition=st.sampled_from(CONDITION_CHOICES),
    trials=st.integers(1, 2**63 - 1),
    iterations=st.integers(1, 2**16),
    seed=st.integers(0, 2**64 - 1),
    jobs=st.integers(1, 2**63 - 1),
    hyperparams=_every_field(
        Hyperparams,
        coupling_concentration=CONCENTRATION,
        emission_concentration=_every_field(EmissionConcentration, v=CONCENTRATION, s=CONCENTRATION, h=CONCENTRATION),
        category_concentration=CONCENTRATION,
        num_categories=st.integers(1, 2**16),
        num_signs=st.integers(1, 2**16),
    ),
    synthetic=_every_field(
        SyntheticConfig,
        num_types=st.integers(1, 2**16),
        objects_per_type=st.integers(1, 2**16),
        feature_dim=st.integers(2, 2**16),
        draws_per_modality=st.integers(1, 2**16),
    ),
)


@settings(max_examples=200, deadline=None)
@given(cfg=CONFIGS)
@example(
    cfg=ExperimentConfig(
        seed=2**64 - 1,
        hyperparams=Hyperparams(coupling_concentration=0.1 + 0.2, emission_concentration=EmissionConcentration(s=1e-300)),
    )
)
def test_the_canonical_json_of_a_config_parses_back_to_it(tmp_path_factory, cfg):
    text = _canonical(cfg)
    cfg_path = tmp_path_factory.getbasetemp() / "canonical.json"
    cfg_path.write_text(text)
    parsed = parse_config(None, cfg_path)
    assert parsed == cfg
    assert _canonical(parsed) == text


def test_a_file_and_the_config_it_builds_have_one_canonical_json(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"trials": 2.0, "hyperparams": {"coupling_concentration": 1}}')
    text = _canonical(parse_config(None, cfg_path))
    assert text == _canonical(ExperimentConfig(trials=2, hyperparams=Hyperparams(coupling_concentration=1.0)))
    assert '"trials": 2,' in text and '"coupling_concentration": 1.0,' in text


def test_a_hyperparams_flag_builds_the_block_as_a_file_does(tmp_path):
    assert parse_config({"hyperparams": {"num_signs": 4}}).hyperparams.num_signs == 4
    # a flag replaces the file's whole block, as it replaces any top-level key
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"hyperparams": {"num_categories": 4}}))
    cfg = parse_config({"hyperparams": {"num_signs": 4}}, cfg_path)
    assert cfg.hyperparams == Hyperparams(num_signs=4)
    with pytest.raises(ConfigError, match="^hyperparams.num_signs must be an integer"):
        parse_config({"hyperparams": {"num_signs": 4.5}})
    with pytest.raises(ConfigError, match="^unknown config key 'hyper'$"):
        parse_config({"hyper": {}})


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("[" * 100_000, id="deep-nesting"),
        pytest.param('{"seed": ' + "1" * 5000 + "}", id="5000-digit-integer"),
    ],
)
def test_cli_maps_unparseable_json_to_a_config_error(tmp_path, capsys, text):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "JSON" in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_cli_compare_names_the_missing_column(tmp_path, capsys):
    (tmp_path / "summary.csv").write_text("variant,method\nh2h,mh\n")
    assert main(["compare", "--in", str(tmp_path)]) == EXIT_IO
    assert "'condition'" in capsys.readouterr().err

    (tmp_path / "summary.csv").write_text(",".join(SUMMARY_HEADER) + "\nh2h,mh,one,,,,,,\n")
    assert main(["compare", "--in", str(tmp_path)]) == EXIT_IO
    assert "line 2" in capsys.readouterr().err

    (tmp_path / "summary.csv").write_bytes(",".join(SUMMARY_HEADER).encode() + b"\nh2h,mh,1,0.8,0.1,0.7,0.1,\xff,\n")
    assert main(["compare", "--in", str(tmp_path)]) == EXIT_IO
    assert "not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("column", ["ari_a_mean", "ari_a_sd", "ari_b_mean", "ari_b_sd"])
def test_cli_compare_names_a_blank_ari_column(tmp_path, capsys, column):
    values = dict(zip(SUMMARY_HEADER, ["h2h", "mh", "1", "0.8", "0.1", "0.7", "0.1", "0.9", "0.05"]))
    values[column] = ""
    (tmp_path / "summary.csv").write_text(",".join(SUMMARY_HEADER) + "\n" + ",".join(values.values()) + "\n")
    assert main(["compare", "--in", str(tmp_path)]) == EXIT_IO
    assert repr(column) in capsys.readouterr().err
    # a blank kappa is the joint sampler's and still compares
    values[column], values["kappa_mean"], values["kappa_sd"] = "0.5", "", ""
    (tmp_path / "summary.csv").write_text(",".join(SUMMARY_HEADER) + "\n" + ",".join(values.values()) + "\n")
    assert main(["compare", "--in", str(tmp_path)]) == EXIT_OK
    assert "| h2h | mh | 1 |" in capsys.readouterr().out


@pytest.mark.parametrize(
    "row, message",
    [
        ("h2h,mh,1,0.5,0.1,0.5,0.1", "7 fields where the header has 9"),
        ("h2h,mh,1,0.5,0.1,0.5,0.1,0.9", "8 fields where the header has 9"),
        ("h2h,mh,1,0.5,0.1,0.5,0.1,0.9,0.05,1,2", "11 fields where the header has 9"),
        ("h2h,mh,1,nan,0.1,0.5,0.1,0.9,0.05", "ari_a_mean is 'nan', not a finite number"),
        ("h2h,mh,1,0.5,0.1,inf,0.1,0.9,0.05", "ari_b_mean is 'inf', not a finite number"),
        ("h2h,mh,1,0.5,0.1,0.5,0.1,-inf,0.05", "kappa_mean is '-inf', not a finite number"),
    ],
    ids=["7-fields", "8-fields", "11-fields", "nan-ari", "inf-ari", "inf-kappa"],
)
def test_cli_compare_rejects_malformed_rows(tmp_path, capsys, row, message):
    (tmp_path / "summary.csv").write_text(",".join(SUMMARY_HEADER) + "\n" + row + "\n")
    assert main(["compare", "--in", str(tmp_path)]) == EXIT_IO
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("input error:") and err.count("\n") == 1
    assert "line 2" in err and message in err


@pytest.mark.parametrize("where", ["header", "row"])
def test_cli_compare_maps_an_oversized_field_to_an_input_error(tmp_path, capsys, where):
    # past the csv module's default field limit of 131072 characters
    huge = "x" * 200_000
    header = ",".join(SUMMARY_HEADER)
    row = "h2h,mh,1,0.5,0.1,0.5,0.1,0.9,0.05"
    lines = [header + "," + huge, row] if where == "header" else [header, row + "," + huge]
    (tmp_path / "summary.csv").write_text("\n".join(lines) + "\n")
    assert main(["compare", "--in", str(tmp_path)]) == EXIT_IO
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("input error:") and err.count("\n") == 1
    assert f"line {1 if where == 'header' else 2}" in err and "field larger than field limit" in err


REPO_ROOT = Path(__file__).resolve().parents[1]


def checkout_env():
    """The environment with this checkout's sources first on PYTHONPATH, so
    a child interpreter (or an installed script) runs this tree's code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def console_script_command(name):
    """Command that runs the console script `name` declared in pyproject.toml.

    An installed script on PATH is used as is. From a source checkout the
    declared `module:attr` target is launched the way pip's generated wrapper
    launches it.
    """
    script = shutil.which(name)
    if script is not None:
        return [script]
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"][name]
    module, attr = target.split(":")
    return [sys.executable, "-c", f"import sys; from {module} import {attr}; sys.exit({attr}())"]


def test_console_script_smoke(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**SMALL_FILE_BLOCKS, "trials": 1, "iterations": 2}))
    out = tmp_path / "out"
    proc = subprocess.run(
        console_script_command("signgame")
        + ["run", "--method", "gibbs", "--config", str(cfg_path), "--out", str(out)],
        capture_output=True,
        text=True,
        env=checkout_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "kappa --" in proc.stdout
    assert (out / "summary.csv").exists()


POOL_IMPORTS = r"""
import json, os, sys
from signgame.cli import main
config, out = sys.argv[1:]
pool_modules = ("concurrent.futures", "multiprocessing")
loaded = []
codes = [
    main(["run", "--config", config, "--out", out + "/serial"]),
    main(["full", "--config", config, "--out", out + "/full"]),
]
loaded.append([m for m in pool_modules if m in sys.modules])
# two usable CPUs, so that --jobs 2 starts a pool on a one-core host too
os.sched_getaffinity = lambda pid: {0, 1}
codes.append(main(["run", "--config", config, "--jobs", "2", "--out", out + "/jobs2"]))
loaded.append([m for m in pool_modules if m in sys.modules])
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_serial_runs_never_import_the_process_pool(tmp_path):
    # the pool's modules cost start-up time; only a run that starts a pool loads them
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**SMALL_FILE_BLOCKS, "trials": 2, "iterations": 2}))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-c", POOL_IMPORTS, str(cfg_path), str(out)],
        capture_output=True,
        text=True,
        env=checkout_env(),
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [EXIT_OK] * 3
    assert report["loaded"] == [[], ["concurrent.futures", "multiprocessing"]]
    for name in ("detail.csv", "summary.csv"):
        assert (out / "jobs2" / name).read_bytes() == (out / "serial" / name).read_bytes()


# Functions that no run, full or compare command enters in this process,
# each with the reason it still exists.
UNPROFILED = {
    "signgame.agents.shown": "formats a rejected config value for its error message; a command that succeeds rejects none",
}

PROFILED_COMMANDS = r"""
import json, os, sys
entered = set()

def record(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(record)
from signgame.cli import main
config, out, result = sys.argv[1:]
# two usable CPUs, so that --jobs 2 starts a pool on a one-core host too
os.sched_getaffinity = lambda pid: {0, 1}
codes = [
    main(["run", "--config", config, "--out", out + "/run"]),
    main(["run", "--config", config, "--jobs", "2", "--out", out + "/run_jobs2"]),
    main(["full", "--config", config, "--out", out + "/full"]),
    main(["compare", "--in", out + "/full"]),
]
sys.setprofile(None)
with open(result, "w") as fh:
    json.dump({"codes": codes, "entered": sorted(entered)}, fh)
"""


def package_functions():
    """{(file, first line): dotted name} of every def in src/signgame/*.py,
    nested functions and methods included; a decorated def starts at its
    first decorator, as its code object does."""
    found = {}
    for path in sorted((REPO_ROOT / "src" / "signgame").glob("*.py")):
        module = "signgame." + path.stem

        def visit(node, prefix, path=path):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    name = f"{prefix}.{child.name}"
                    if not isinstance(child, ast.ClassDef):
                        first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                        found[os.path.realpath(path), first] = name
                    visit(child, name)
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), module)
    return found


def test_cli_commands_enter_every_package_function(tmp_path):
    # a function that no command reaches is dead code: delete it, or list it
    # in UNPROFILED with the reason it must stay
    cfg_path = tmp_path / "cfg.json"
    blocks = {
        "hyperparams": {
            **SMALL_FILE_BLOCKS["hyperparams"],
            "coupling_concentration": 0.05,
            "category_concentration": 0.05,
            "emission_concentration": {"v": 0.01},
        },
        "synthetic": SMALL_FILE_BLOCKS["synthetic"],
    }
    cfg_path.write_text(json.dumps({**blocks, "trials": 2, "iterations": 2}))
    result = tmp_path / "entered.json"
    proc = subprocess.run(
        [sys.executable, "-c", PROFILED_COMMANDS, str(cfg_path), str(tmp_path / "out"), str(result)],
        capture_output=True,
        text=True,
        env=checkout_env(),
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(result.read_text())
    assert report["codes"] == [EXIT_OK] * 4
    entered = {(os.path.realpath(path), line) for path, line in report["entered"]}
    functions = package_functions()
    assert set(UNPROFILED) <= set(functions.values())
    never = sorted(name for key, name in functions.items() if key not in entered and name not in UNPROFILED)
    assert never == [], f"never entered by run, full or compare: {never}"
