#!/usr/bin/env python3
"""Benchmark of the signgame experiment entry points.

One workload, untraced (end-to-end metrics) or traced (per-layer metrics):

    python3 perfbench/run.py --workload cell-mh --seed 1 --seconds 25 --trace 0

Every workload, untraced and traced, with every metric printed by name:

    python3 perfbench/run.py --workload all --seed 1 --seconds 25

The package is imported from ``src/`` of the checkout this file sits in.
Reports are written under ``.perfbench_out/``. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. See perfbench/README.md for what each metric should move.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

import bench_check
import bench_trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# (runs the full grid, package config as parse_config reads it from JSON).
# --seed is added to the config. Sizes keep one workload run at a few
# seconds on two cores, so a measurement takes the median of many.
WORKLOADS = {
    # the paper's headline cell at full length and default data
    "cell-mh": (
        False,
        {"variant": "h2h", "method": "mh", "condition": 1, "trials": 1, "iterations": 300, "jobs": 1},
    ),
    # all 24 cells, short trials, one pool per cell as the CLI runs them
    "grid-jobs2": (True, {"trials": 2, "iterations": 20, "jobs": 2}),
    # few objects with 500-bin histograms: emission statistics dominate
    "cell-wide": (
        False,
        {
            "variant": "t2t",
            "method": "mh",
            "condition": 1,
            "trials": 1,
            "iterations": 100,
            "jobs": 1,
            "synthetic": {"num_types": 15, "objects_per_type": 4, "feature_dim": 500, "draws_per_modality": 500},
        },
    ),
}

END_TO_END = (
    ("wall_s", "s"),
    ("iter_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

_PER_CALL = (
    "agents.update_parameters",
    "agents.posterior_concentrations",
    "agents.sample_categories",
    "agents.observation_log_likelihood",
    "stochastic.generator",
)
_SELF_ONLY = (
    "game.run_iteration",
    "datagen.generate_dataset",
    "agents.init_agent",
    "metrics.adjusted_rand_index",
    "metrics.kappa",
    "experiment.run_cell",
    "experiment.write_reports",
)
PER_LAYER = (
    (("game.exchange.calls_per_iter", "calls/iter"), ("game.exchange.self_s", "s"), ("game.sign_change_ratio", "ratio"))
    + tuple(pair for name in _PER_CALL for pair in ((f"{name}.self_s", "s"), (f"{name}.calls_per_iter", "calls/iter")))
    + tuple((f"{name}.self_s", "s") for name in _SELF_ONLY)
    + (
        ("experiment.pools_started", "count"),
        ("experiment.csv_bytes", "bytes"),
        ("experiment.ref_gap", "score"),
        ("trace.overhead_s", "s"),
    )
)

# fresh interpreters timed per run for setup_s
SETUP_RUNS = 11
# fewest workload runs an untraced measurement takes, whatever --seconds says
MIN_RUNS = 3

# About the time of reference_kernel() on the 2-core Intel Xeon host the
# benchmark was defined on (Python 3.11.7, numpy 2.4.6), while other
# tenants were quiet.
REF_KERNEL_S = 0.204

SETUP_CODE = """
import sys
from signgame.cli import build_parser
from signgame.experiment import parse_config
args = build_parser().parse_args(sys.argv[1:])
parse_config({}, args.config)
"""


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(), "numpy": np.__version__}


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def reference_kernel() -> int:
    """Fixed work that never touches the package, timed to gauge host speed.

    It mixes per-call interpreter overhead with small and medium numpy
    operations (cumsum and searchsorted per object, np.add.at, gamma
    draws), as the workloads do.
    """
    gen = np.random.Generator(np.random.PCG64(20220530))
    probs = gen.dirichlet(np.ones(15), size=150)
    obs = gen.integers(0, 5, size=(150, 20))
    labels = gen.integers(0, 15, size=150)
    sums = np.zeros((15, 20))
    hits = 0
    for _ in range(240):
        for row in probs:
            cum = np.cumsum(row)
            hits += int(np.searchsorted(cum, gen.random() * cum[-1], side="right"))
        np.add.at(sums, labels, obs)
        gen.gamma(sums + 0.001)
    return hits


class HostClock:
    """Rescales measured times to the reference host's speed.

    Other tenants of a shared host slow its CPU by up to half for stretches
    of seconds to minutes, which moved the median wall time of 30-second
    runs by a quarter. The reference kernel is timed before and after every
    measured interval; the interval is multiplied by REF_KERNEL_S over the
    mean of the two kernel times. A change to the package moves the
    interval but never the kernel.
    """

    def __init__(self):
        self._last = self._kernel_s()

    @staticmethod
    def _kernel_s() -> float:
        t0 = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - t0

    def scale(self) -> float:
        """Factor for the interval since the previous call (or construction)."""
        now = self._kernel_s()
        factor = REF_KERNEL_S / ((self._last + now) / 2)
        self._last = now
        return factor


def measure_setup(config_path: Path, grid: bool, clock: HostClock) -> float:
    """Median of fresh interpreters importing the CLI and parsing the config, rescaled."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    cmd = [sys.executable, "-c", SETUP_CODE, "full" if grid else "run", "--config", str(config_path), "--out", str(OUT)]
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
        times.append((time.perf_counter() - t0) * clock.scale())
    return statistics.median(times)


class Workload:
    """A workload's config at one seed, and one closed-loop run of it."""

    def __init__(self, exp, name: str, seed: int):
        self.exp = exp
        self.name = name
        self.grid, config = WORKLOADS[name]
        self.dir = OUT / name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.dir / "config.json"
        self.config = dict(config, seed=seed)
        self.config_path.write_text(json.dumps(self.config, indent=1) + "\n", encoding="utf-8")
        self.cfg = exp.parse_config({}, self.config_path)
        self.cells = bench_check.GRID_CELLS if self.grid else ((self.cfg.variant, self.cfg.method, self.cfg.condition),)
        self.trial_iters = len(self.cells) * self.cfg.trials * self.cfg.iterations

    def run(self, label: str, serial: bool = False) -> dict:
        """Run the workload once through the public entry points and check its reports."""
        cfg = replace(self.cfg, jobs=1) if serial else self.cfg
        out = self.dir / label
        shutil.rmtree(out, ignore_errors=True)
        operations = len(self.cells) * cfg.trials
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        try:
            if self.grid:
                self.exp.run_full_grid(cfg, out)
            else:
                detail, summary = self.exp.run_cell(cfg)
                self.exp.write_reports(out, detail, [summary])
            wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
            attempted, failed, problems = bench_check.check_reports(out, self.cells, cfg.trials, cfg.iterations)
            result = {
                "wall": wall,
                "cpu": cpu,
                "attempted": attempted,
                "failed": failed,
                "digest": bench_check.digests(out),
                "means": bench_check.read_summary_means(out),
                "bytes": bench_check.csv_bytes(out),
            }
        except Exception:  # a failing workload run is reported, not fatal
            traceback.print_exc()
            return {"wall": None, "attempted": operations, "failed": operations, "digest": None}
        for problem in problems[:20]:
            print(f"check {self.name}: {problem}", file=sys.stderr)
        return result


def closed_loop(seconds: float, step, min_steps: int) -> list:
    """Call step() back to back until another call would overrun seconds."""
    results, durations, t0 = [], [], time.perf_counter()
    while True:
        s0 = time.perf_counter()
        results.append(step())
        durations.append(time.perf_counter() - s0)
        if len(results) >= min_steps and time.perf_counter() - t0 + statistics.median(durations) > seconds:
            return results


class Tally:
    """Operations attempted and failed: trials checked plus identity comparisons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, run: dict) -> None:
        self.attempted += run["attempted"]
        self.failed += run["failed"]

    def same_output(self, what: str, a: dict, b: dict) -> None:
        self.attempted += 1
        if a["digest"] is None or a["digest"] != b["digest"]:
            self.failed += 1
            print(f"identity {what}: outputs differ", file=sys.stderr)


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def measure_untraced(work: Workload, seconds: float, tally: Tally) -> dict:
    """End-to-end metrics: medians over back-to-back untraced workload runs.

    Times are rescaled to the reference host (see HostClock); the raw wall
    times are printed alongside.
    """
    clock = HostClock()
    setup_s = measure_setup(work.config_path, work.grid, clock)
    runs = closed_loop(seconds, lambda: (work.run("untraced"), clock.scale()), MIN_RUNS)
    for run, _ in runs:
        tally.add(run)
    for run, _ in runs[1:]:
        tally.same_output("repeat", runs[0][0], run)
    ok = [(run, factor) for run, factor in runs if run["wall"] is not None]
    raw = sorted(run["wall"] for run, _ in ok) or [0.0]
    print(f"runs {len(runs)}, {len(ok)} completed; raw wall_s min {raw[0]:.4f} median {statistics.median(raw):.4f} max {raw[-1]:.4f}")
    print("host factors " + " ".join(f"{factor:.3f}" for _, factor in ok))
    _print_reference(work, runs[0][0])
    return {
        "wall_s": _median(run["wall"] * factor for run, factor in ok),
        "iter_per_s": _median(work.trial_iters / (run["wall"] * factor) for run, factor in ok),
        "cpu_s": _median(run["cpu"] * factor for run, factor in ok),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": setup_s,
    }


def _layer_metrics(spans: dict, counts: dict, experiment_spans: dict, trial_iters: int) -> dict:
    def self_s(name, source=spans):
        return source.get(name, {}).get("self_s", 0.0)

    def per_iter(name):
        return spans.get(name, {}).get("calls", 0) / trial_iters

    proposals = counts.get("game.sign_proposals", 0)
    metrics = {
        "game.exchange.calls_per_iter": per_iter("game.exchange"),
        "game.exchange.self_s": self_s("game.exchange"),
        "game.sign_change_ratio": counts.get("game.sign_changes", 0) / proposals if proposals else 0.0,
    }
    for name in _PER_CALL:
        metrics[f"{name}.self_s"] = self_s(name)
        metrics[f"{name}.calls_per_iter"] = per_iter(name)
    for name in _SELF_ONLY:
        source = experiment_spans if name.startswith("experiment.") else spans
        metrics[f"{name}.self_s"] = self_s(name, source)
    return metrics


def measure_traced(work: Workload, seconds: float, tally: Tally) -> dict:
    """Traced and untraced runs side by side; per-layer medians over the pairs.

    A parallel grid is traced on the parent side only (pools, run_cell,
    write_reports); its game and agent layers come from a fully traced
    serial run, whose outputs must equal the parallel run's byte for byte.
    """
    parallel = work.cfg.jobs > 1

    def traced(label, parent_side_only=False, serial=False):
        tracer = bench_trace.Tracer()
        with bench_trace.Rebinder() as rebinder:
            absent = bench_trace.install(rebinder, tracer, parent_side_only)
            run = work.run(label, serial=serial)
        return run, tracer, absent

    def step():
        runs = {"untraced": work.run("untraced")}
        if parallel:
            runs["parent-traced"], parent_tracer, _ = traced("parent-traced", parent_side_only=True)
        runs["traced"], tracer, absent = traced("traced", serial=parallel)
        if parallel:
            runs["serial-untraced"] = work.run("serial-untraced", serial=True)
        base = runs["untraced"]
        for label, run in runs.items():
            tally.add(run)
            if label != "untraced":
                tally.same_output(f"{label} vs untraced", base, run)
        experiment_tracer = parent_tracer if parallel else tracer
        spans = tracer.summary()
        metrics = _layer_metrics(spans, tracer.counts, experiment_tracer.summary(), work.trial_iters)
        metrics["experiment.pools_started"] = float(experiment_tracer.counts.get("experiment.pools_started", 0))
        metrics["experiment.csv_bytes"] = float(base.get("bytes", 0))
        metrics["experiment.ref_gap"] = bench_check.ref_gap(base["means"]) if base["digest"] else 0.0
        untraced_wall = runs.get("serial-untraced", base)["wall"]
        traced_wall = runs["traced"]["wall"]
        if traced_wall is not None and untraced_wall is not None:
            metrics["trace.overhead_s"] = traced_wall - untraced_wall
        else:
            metrics["trace.overhead_s"] = None
        return metrics, spans, traced_wall, absent

    steps = closed_loop(seconds, step, 1)
    metrics = {name: _median(step[0][name] for step in steps) for name, _ in PER_LAYER}
    spans, wall, absent = steps[-1][1], steps[-1][2] or 0.0, steps[-1][3]
    print(f"traced runs {len(steps)}; absent names: {', '.join(absent) or 'none'}")
    for name, span in sorted(spans.items(), key=lambda item: -item[1]["self_s"]):
        share = span["self_s"] / wall if wall else 0.0
        print(
            f"span {name}: calls {span['calls']} total {span['total_s']:.4f} s "
            f"self {span['self_s']:.4f} s ({share:.1%} of traced wall {wall:.3f} s)"
        )
    (work.dir / "trace.json").write_text(json.dumps(spans, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return metrics


def _print_reference(work: Workload, run: dict) -> None:
    if run["digest"] is None:
        return
    print(f"digest {work.name} seed {work.cfg.seed}: detail {run['digest']['detail']} summary {run['digest']['summary']}")
    print(f"ref_gap {bench_check.ref_gap(run['means']):.6f} over {len(run['means'])} cells")


def run_all(args) -> int:
    """Every workload untraced and traced, each in its own process."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed)]
            cmd += ["--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(f"workload {name} trace {trace} exited {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{name}.{key}": value for key, value in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "signgame" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'signgame'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    import signgame.experiment as exp

    print("machine " + json.dumps(machine()))
    work = Workload(exp, args.workload, args.seed)
    print(f"workload {work.name} seed {args.seed} trace {args.trace} config {json.dumps(work.config)}")
    tally = Tally()
    if args.trace:
        values, units = measure_traced(work, args.seconds, tally), dict(PER_LAYER)
    else:
        values, units = measure_untraced(work, args.seconds, tally), dict(END_TO_END)
    for name, value in values.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    print(f"fail_ratio {tally.failed / max(tally.attempted, 1):.6g} ({tally.failed} of {tally.attempted} operations)")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
