"""Experiment grid driver: seeded trials, CSV reports, reference comparison.

A cell of the grid is one (variant, method, condition) triple run for a
number of independent trials.  A trial's dataset comes from a stream
derived only from (seed, condition, trial), so the three methods and both
variants of a condition see identical data and identical initialisation
draws; one task generates it once and plays those six cells' games on it.
Method comparisons are therefore paired, which keeps the variance of mean
differences down without biasing any single cell.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import deque
from contextlib import closing
from dataclasses import dataclass, field, fields, is_dataclass, replace
from itertools import islice, starmap
from pathlib import Path
from typing import Mapping

from .agents import MODALITIES, VARIANTS, Hyperparams, check_sizes, shown
from .datagen import SyntheticConfig, generate_dataset
from .game import METHODS, run_game
from .metrics import kappa_band, summarize
from .stochastic import RngStream

# agent A's and agent B's observable modalities per condition, each in
# MODALITIES order, which fixes the order the likelihood sums them in
CONDITION_MASKS = {
    1: (("v", "s", "h"), ("v", "s", "h")),
    2: (("v", "s", "h"), ("v", "s")),
    3: (("v", "s", "h"), ("v",)),
    4: (("v", "s"), ("h",)),
}
CONDITION_CHOICES = tuple(CONDITION_MASKS)

DETAIL_HEADER = ("variant", "method", "condition", "trial", "iteration", "ari_a", "ari_b", "kappa")
SUMMARY_HEADER = (
    "variant",
    "method",
    "condition",
    "ari_a_mean",
    "ari_a_sd",
    "ari_b_mean",
    "ari_b_sd",
    "kappa_mean",
    "kappa_sd",
)

# published means and sample deviations per (variant, method, condition);
# kappa is None where the original report leaves the joint sampler blank
REFERENCE_RESULTS = {
    ("t2t", "mh", 1): (0.881, 0.031, 0.886, 0.035, 0.947, 0.046),
    ("t2t", "reject", 1): (0.883, 0.035, 0.886, 0.039, 0.004, 0.019),
    ("t2t", "gibbs", 1): (0.884, 0.033, 0.886, 0.031, None, None),
    ("h2h", "mh", 1): (0.881, 0.031, 0.888, 0.033, 0.999, 0.003),
    ("h2h", "reject", 1): (0.882, 0.037, 0.889, 0.037, 0.004, 0.032),
    ("h2h", "gibbs", 1): (0.881, 0.031, 0.882, 0.042, None, None),
    ("t2t", "mh", 2): (0.888, 0.033, 0.708, 0.009, 0.954, 0.024),
    ("t2t", "reject", 2): (0.878, 0.037, 0.650, 0.025, 0.001, 0.012),
    ("t2t", "gibbs", 2): (0.880, 0.033, 0.706, 0.009, None, None),
    ("h2h", "mh", 2): (0.879, 0.033, 0.704, 0.006, 0.996, 0.011),
    ("h2h", "reject", 2): (0.885, 0.053, 0.649, 0.035, -0.010, 0.022),
    ("h2h", "gibbs", 2): (0.881, 0.047, 0.705, 0.004, None, None),
    ("t2t", "mh", 3): (0.882, 0.055, 0.453, 0.029, 0.931, 0.039),
    ("t2t", "reject", 3): (0.874, 0.037, 0.342, 0.019, -0.011, 0.027),
    ("t2t", "gibbs", 3): (0.880, 0.029, 0.451, 0.035, None, None),
    ("h2h", "mh", 3): (0.883, 0.070, 0.444, 0.016, 1.000, 0.000),
    ("h2h", "reject", 3): (0.876, 0.031, 0.348, 0.018, -0.011, 0.015),
    ("h2h", "gibbs", 3): (0.881, 0.031, 0.447, 0.020, None, None),
    ("t2t", "mh", 4): (0.710, 0.017, 0.460, 0.042, 0.943, 0.043),
    ("t2t", "reject", 4): (0.658, 0.027, 0.348, 0.023, -0.006, 0.023),
    ("t2t", "gibbs", 4): (0.706, 0.015, 0.460, 0.014, None, None),
    ("h2h", "mh", 4): (0.704, 0.010, 0.450, 0.015, 0.992, 0.012),
    ("h2h", "reject", 4): (0.658, 0.024, 0.352, 0.011, 0.004, 0.024),
    ("h2h", "gibbs", 4): (0.705, 0.009, 0.453, 0.023, None, None),
}

_STREAM_DATA = 0
_STREAM_GAME = 1


class ConfigError(ValueError):
    """Raised by parse_config for a file, block or value that cannot build
    an ExperimentConfig."""


class ReportError(ValueError):
    """Raised for a report file that lacks a column or holds a bad value."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One grid cell plus the shared sizes, concentrations (for the data
    too), and seed."""

    variant: str = "h2h"
    method: str = "mh"
    condition: int = 1
    trials: int = 10
    iterations: int = 300
    seed: int = 0
    jobs: int = 1
    hyperparams: Hyperparams = field(default_factory=Hyperparams)
    synthetic: SyntheticConfig = field(default_factory=SyntheticConfig)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {shown(self.variant)}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {shown(self.method)}")
        if self.condition not in CONDITION_CHOICES:
            raise ValueError(f"condition must be in {CONDITION_CHOICES}, got {shown(self.condition)}")
        # True and 1.0 pass the membership test: this rejects the one and
        # stores the other as 1
        check_sizes(self, condition=1, trials=1, iterations=1, jobs=1)
        # RngStream keeps a seed's low 64 bits: a wider range would alias runs
        check_sizes(self, bits=64, seed=0)
        for name, cls in (("hyperparams", Hyperparams), ("synthetic", SyntheticConfig)):
            if not isinstance(getattr(self, name), cls):
                raise ValueError(f"{name} must be a {cls.__name__}, got {shown(getattr(self, name))}")
        # each size is in range alone, but the products that shape a trial's
        # widest arrays, at up to 8 bytes an element, must stay below the
        # 2**63 bytes numpy can size
        s, h = self.synthetic, self.hyperparams
        objects = s.num_types * s.objects_per_type
        m = len(MODALITIES)
        widest = {
            "modalities x num_types x objects_per_type x max(feature_dim, num_categories, num_signs)": (
                m * objects * max(s.feature_dim, h.num_categories, h.num_signs)
            ),
            "num_categories x max(num_categories, 1 + num_signs + modalities x feature_dim)": (
                h.num_categories * max(h.num_categories, 1 + h.num_signs + m * s.feature_dim)
            ),
            "agents x iterations x num_types x objects_per_type": 2 * self.iterations * objects,
        }
        for shape, elements in widest.items():
            if 8 * elements >= 2**63:
                raise ValueError(f"an array of {shape} elements would span 2**63 bytes or more")


def run_trial(cells: tuple[ExperimentConfig, ...], trial: int) -> list[list[tuple]]:
    """Play one seeded trial of each of cells, configs equal but for variant
    and method, on one dataset; returns each cell's (ari_a, ari_b, kappa)
    row per iteration, in the order given."""
    cfg = cells[0]
    trial_rng = RngStream(cfg.seed).derive(cfg.condition, trial)
    dataset = generate_dataset(cfg.synthetic, cfg.hyperparams, CONDITION_MASKS[cfg.condition], trial_rng.derive(_STREAM_DATA))
    game_rng = trial_rng.derive(_STREAM_GAME)
    return [run_game(c.variant, c.method, c.hyperparams, dataset, c.iterations, game_rng)[1] for c in cells]


class ProcessPoolExecutor:
    """concurrent.futures.ProcessPoolExecutor as the grid uses it, submit and
    shutdown, whose modules load when the first pool starts: they cost
    start-up time that a serial run never needs."""

    def __init__(self, max_workers):
        from concurrent.futures import ProcessPoolExecutor as Pool

        self._pool = Pool(max_workers=max_workers)

    def submit(self, fn, *args):
        return self._pool.submit(fn, *args)

    def shutdown(self):
        self._pool.shutdown()


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    reports one, which taskset and cpusets shrink, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _task_results(tasks, workers: int):
    """run_trial's result for each (cells, trial) task, in task order: in
    this process for one worker, else from one pool. Tasks are drawn as
    they run: the pool holds at most two per worker, submitted but not yet
    yielded, and closing the generator cancels those not yet started."""
    if workers <= 1:
        yield from starmap(run_trial, tasks)
        return
    from concurrent.futures.process import BrokenProcessPool
    pool = ProcessPoolExecutor(max_workers=workers)
    futures = deque()
    try:
        for task in tasks:
            futures.append(pool.submit(run_trial, *task))
            if len(futures) == 2 * workers:
                yield futures.popleft().result()
        while futures:
            yield futures.popleft().result()
    except BrokenProcessPool as exc:  # a worker killed or crashed, not a trial that raised
        raise ChildProcessError(f"a worker process ended before its trial returned: {exc}") from exc
    finally:
        for future in futures:
            future.cancel()
        pool.shutdown()


def _trial_records(cells: list[ExperimentConfig]):
    """Yield each cell's row lists, trial by trial, one item per cell in the
    order of cells. A task is one trial of the cells that differ only in
    variant and method, in a grid one condition's six: one dataset, each
    cell's game played on it. Tasks run in the order of their group's first
    cell, trials in order; a cell whose group finishes before its turn waits."""
    groups = {}
    for i, cell_cfg in enumerate(cells):
        groups.setdefault(replace(cell_cfg, variant=VARIANTS[0], method=METHODS[0]), []).append(i)
    # workers beyond the tasks or the cores only contend; the pool forks
    # all of them at once
    workers = min(cells[0].jobs, sum(cells[group[0]].trials for group in groups.values()), _usable_cpus())
    tasks = ((tuple(cells[i] for i in group), t) for group in groups.values() for t in range(cells[group[0]].trials))
    finishing = iter(groups.values())
    waiting = {}  # cell index -> its row lists, trial by trial
    with closing(_task_results(tasks, workers)) as results:
        for i in range(len(cells)):
            while i not in waiting:
                group = next(finishing)
                waiting.update(zip(group, zip(*islice(results, cells[group[0]].trials))))
            yield waiting.pop(i)


def run_cell(cfg: ExperimentConfig, records=None) -> tuple[list[tuple], dict]:
    """All trials of one cell: detail rows (trial, iteration order) + summary.

    The cell takes its per-trial row lists as the next item of the records
    iterator when one is given, and runs its own trials otherwise.
    """
    # unpacking its own one-item stream runs it to its end: any pool it started shuts down
    (per_trial,) = _trial_records([cfg]) if records is None else (next(records),)
    cell = (cfg.variant, cfg.method, cfg.condition)
    detail = [
        (*cell, trial, iteration, *row) for trial, rows in enumerate(per_trial) for iteration, row in enumerate(rows)
    ]
    ari_a, ari_b, kappas = zip(*(rows[-1] for rows in per_trial))
    kap = (None, None) if None in kappas else summarize(kappas)
    summary = dict(zip(SUMMARY_HEADER, (*cell, *summarize(ari_a), *summarize(ari_b), *kap)))
    return detail, summary


def _write_csv(path: Path, header, rows) -> None:
    """Each cell: a float (numpy's float64 too) as .6g, else as csv writes it. A failed write keeps the old file."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([format(v, ".6g") if isinstance(v, float) else v for v in row])
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_reports(out_dir: Path, detail_rows, summary_rows) -> None:
    """Write detail.csv and summary.csv under out_dir (created if missing);
    a summary dict is read by key, so any key order writes in header order."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "detail.csv", DETAIL_HEADER, detail_rows)
    _write_csv(out_dir / "summary.csv", SUMMARY_HEADER, ([row[key] for key in SUMMARY_HEADER] for row in summary_rows))


def full_grid_configs(cfg: ExperimentConfig) -> list[ExperimentConfig]:
    """The 24 cells of the full grid, in deterministic report order."""
    return [
        replace(cfg, variant=variant, method=method, condition=condition)
        for variant in VARIANTS
        for method in METHODS
        for condition in CONDITION_CHOICES
    ]


def _run_cells(cells: list[ExperimentConfig], out_dir, progress=None) -> list[dict]:
    """Run the cells' trials as one task list and write their combined CSVs;
    one summary row per cell, each passed to progress as it completes."""
    # an unusable out_dir fails here, before any trial runs
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    detail_rows = []
    summary_rows = []
    with closing(_trial_records(cells)) as records:
        for cell_cfg in cells:
            detail, summary = run_cell(cell_cfg, records)
            detail_rows.extend(detail)
            summary_rows.append(summary)
            if progress is not None:
                progress(summary)
    write_reports(Path(out_dir), detail_rows, summary_rows)
    return summary_rows


def run_experiment(cfg: ExperimentConfig, out_dir) -> dict:
    """Run one cell and write its detail/summary CSVs; returns the summary."""
    return _run_cells([cfg], out_dir)[0]


def run_full_grid(cfg: ExperimentConfig, out_dir, progress=None) -> list[dict]:
    """Run all 24 cells with cfg's sizes and seed; combined CSVs, one
    summary row per cell."""
    return _run_cells(full_grid_configs(cfg), out_dir, progress)


def read_summary(path) -> list[dict]:
    """Load a summary.csv back into row dicts (floats, None for blank kappas).

    Raises ReportError if the file is not UTF-8 or not CSV that the csv
    module reads, a column is missing, a row's field count differs from the
    header's, a value does not parse or is not finite, or an ARI cell is
    blank.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ReportError(f"{path}: not UTF-8 text: {exc}") from exc
    reader = csv.reader(lines)
    try:
        header = next(reader, [])
        missing = [key for key in SUMMARY_HEADER if key not in header]
        if missing:
            raise ReportError(f"{path}: missing column {missing[0]!r}")
        rows = []
        for fields in filter(None, reader):  # a blank line holds no row
            where = f"{path}, line {reader.line_num}"
            if len(fields) != len(header):
                raise ReportError(f"{where}: {len(fields)} fields where the header has {len(header)}")
            raw = dict(zip(header, fields))
            try:
                row = {"variant": raw["variant"], "method": raw["method"], "condition": int(raw["condition"])}
                for key in SUMMARY_HEADER[3:]:
                    row[key] = float(raw[key]) if raw[key] else None
                    if row[key] is not None and not math.isfinite(row[key]):
                        raise ValueError(f"{key} is {raw[key]!r}, not a finite number")
            except ValueError as exc:
                raise ReportError(f"{where}: {exc}") from exc
            # only kappa may be blank: the joint sampler has none
            blank = [key for key in SUMMARY_HEADER if key.startswith("ari") and row[key] is None]
            if blank:
                raise ReportError(f"{where}: blank {blank[0]!r}")
            rows.append(row)
    except csv.Error as exc:  # such as a field over the csv module's size limit
        raise ReportError(f"{path}, line {reader.line_num}: {exc}") from exc
    return rows


def compare_to_reference(summary_rows) -> str:
    """Markdown table of measured vs published means; informational only."""
    lines = [
        "| variant | method | condition | ARI A measured | ARI A published | diff | "
        "ARI B measured | ARI B published | diff | kappa measured | kappa published | diff |",
        "|---|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    for row in summary_rows:
        key = (row["variant"], row["method"], row["condition"])
        reference = REFERENCE_RESULTS.get(key)
        if reference is None:
            continue
        ref_a, ref_a_sd, ref_b, ref_b_sd, ref_k, ref_k_sd = reference
        cells = [row["variant"], row["method"], str(row["condition"])]
        for measured, measured_sd, ref, ref_sd in (
            (row["ari_a_mean"], row["ari_a_sd"], ref_a, ref_a_sd),
            (row["ari_b_mean"], row["ari_b_sd"], ref_b, ref_b_sd),
        ):
            cells += [
                f"{measured:.3f} ({measured_sd:.3f})",
                f"{ref:.3f} ({ref_sd:.3f})",
                f"{abs(measured - ref):.3f}",
            ]
        measured_k = row["kappa_mean"]
        if ref_k is None or measured_k is None:
            cells += ["--" if measured_k is None else f"{measured_k:.3f}", "--", "--"]
        else:
            cells += [
                f"{measured_k:.3f} ({kappa_band(measured_k)})",
                f"{ref_k:.3f} ({ref_k_sd:.3f})",
                f"{abs(measured_k - ref_k):.3f}",
            ]
        lines.append("| " + " | ".join(cells) + " |")
    if len(lines) == 2:  # the header alone
        return "No grid cells with published counterparts.\n"
    return "\n".join(lines) + "\n"


def _build(cls, block, where: str):
    """cls from a config block whose keys are cls's fields; a field whose
    default is a config class is built from its own block by this same
    rule. cls checks the values, and where prefixes the key paths in
    messages."""
    if not isinstance(block, Mapping):
        raise ConfigError(f"{where} must be a JSON object, got {block!r}")
    unknown = set(block) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {where or 'config'} key {sorted(unknown)[0]!r}")
    values = dict(block)
    for f in fields(cls):
        if is_dataclass(f.default_factory) and f.name in block:
            values[f.name] = _build(f.default_factory, block[f.name], f"{where}.{f.name}" if where else f.name)
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{where}.{exc}" if where else str(exc)) from exc


def parse_config(flags: Mapping | None = None, config_file=None) -> ExperimentConfig:
    """Merge defaults, an optional JSON file, and flag overrides (None
    flags are not given). Flags override the file's top-level keys, so a
    hyperparams or synthetic flag replaces the file's whole block."""
    data = {}
    if config_file is not None:
        try:
            text = Path(config_file).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        # JSONDecodeError is a ValueError, as is an integer of more digits
        # than int() reads; deep nesting exhausts the parser's recursion
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot parse config file as JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
    data.update((key, value) for key, value in (flags or {}).items() if value is not None)
    return _build(ExperimentConfig, data, "")
