#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs from two checkouts.

Runs ``perfbench/run.py`` of each checkout, one process at a time, and
writes (or merges into) a ``BENCH_*.json`` file:

    # ten untraced pairs per workload, into "workloads"
    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_N.json \\
        --workload cell-mh --workload grid-jobs2 --workload cell-wide \\
        --seed 1 --pairs 10 --seconds 10
    # pairs at a seed not used while the change was written, into "cell-mh-seed-3"
    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_N.json \\
        --workload cell-mh --seed 3 --pairs 4 --seconds 10 --section cell-mh-seed-3
    # three ``--trace 1`` runs of every workload per side, into "traced"
    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_N.json --traced --pairs 3 --seed 1 --seconds 3
    # three pairs of each signgame command in CLI_RUNS at default sizes, into "cli"
    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_N.json --cli --pairs 3

Pair i runs the parent first when i is even and the change first when i is
odd; so does each workload's traced run i, and each ``--cli`` command's
pair i. The ``--cli`` commands are ``python -m signgame.cli full --jobs J``
(J = 1 and 2) and ``python -m signgame.cli run`` on the default h2h
``reject`` and ``gibbs`` cells, each with the checkout's own ``src`` on
``PYTHONPATH``, at the CLI's default sizes and seed (``--seed`` and
``--seconds`` apply only to perfbench). A run records the wall time, the CPU
time of its process tree (``cpu_s``), both in seconds not rescaled by
perfbench's HostClock, and the md5 of ``detail.csv``, ``summary.csv`` and
stdout. A traced per-layer figure is the median over the runs of its side,
with their min and max. Workload names, metric names and each metric's
better direction and bound come from the change checkout's
``BENCHMARK.json``. Quartiles are the ``statistics.quantiles`` default
(exclusive method).

Each workload's summary gives, per end-to-end metric, the ``BENCHMARK.json``
bound, whether the change's median is worse than the parent's by more than
it (``worse_than_bound``), and ``gain_shown``: the change won at least nine
pairs in ten, its median beats the parent's by more than the parent's
interquartile range, and it failed no more operations than the parent. A
side that failed every run reads 0.0, which would beat any parent median.
It is ``unresolved`` when the parent's interquartile range is wider than the
bound times the parent median and not every change run reads better than
every parent run: that spread cannot tell a move within the bound from
noise. stderr names the unresolved metrics and the metrics whose gain is
shown; neither changes the exit status.

The exit status is 1, after the file is written, when a workload's digests
differ between runs, the ``--cli`` digests of one command differ between
sides or, for ``full``, between job counts, the change failed any
operation, a metric is worse than its bound, or a traced change-side run
reports a traced name absent (its per-layer metric would then be missing);
stderr names those workloads (and the metrics) and the absent names.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

SIDES = ("parent", "change")
# the --cli commands by section key; commands that differ only in --jobs
# must give one digest
CLI_RUNS = {
    "jobs1": ("full", "--jobs", "1"),
    "jobs2": ("full", "--jobs", "2"),
    "run_h2h_reject": ("run", "--variant", "h2h", "--method", "reject"),
    "run_h2h_gibbs": ("run", "--variant", "h2h", "--method", "gibbs"),
}


def _git_head(checkout: Path) -> str | None:
    proc = subprocess.run(
        ["git", "-C", str(checkout), "rev-parse", "HEAD"], capture_output=True, text=True, check=False
    )
    if proc.returncode != 0:
        return None
    return proc.stdout.strip()


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` process in checkout; its parsed stdout."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    # run.py imports the package from its own checkout; an inherited
    # PYTHONPATH would put another checkout's package on its setup path
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}")
    out = json.loads(lines[-1])
    out["digests"] = [line.split(": ", 1)[1] for line in lines if line.startswith("digest ")]
    out["absent"] = [line.split("absent names: ", 1)[1] for line in lines if "absent names: " in line]
    out["machine"] = next((json.loads(line[len("machine ") :]) for line in lines if line.startswith("machine ")), None)
    return out


def run_cli(checkout: Path, command: tuple) -> dict:
    """One signgame run of command (signgame's arguments but ``--out``) at
    default sizes on checkout's own package: its wall time, the CPU time of
    its process tree, pool workers included, and the md5 of its two reports
    and its stdout, as one digest string."""
    cmd = [sys.executable, "-m", "signgame.cli", *command]
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    with tempfile.TemporaryDirectory() as out:
        before, start = resource.getrusage(resource.RUSAGE_CHILDREN), perf_counter()
        proc = subprocess.run([*cmd, "--out", out], cwd=checkout, env=env, stdout=subprocess.PIPE, check=False)
        wall = perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}")
        outputs = [(Path(out) / name).read_bytes() for name in ("detail.csv", "summary.csv")]
    cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    digest = " ".join(hashlib.md5(data).hexdigest() for data in (*outputs, proc.stdout))
    return {"wall_s": round(wall, 6), "cpu_s": round(cpu, 6), "failed": 0, "digest": digest}


def summarize(pairs: list[dict], metrics: dict) -> dict:
    """Per metric: both medians, their ratio, the parent's interquartile
    range, how many pairs the change won (ties count for neither), and the
    metric's bound with the three verdicts the module docstring describes.

    metrics maps each metric name to its BENCHMARK.json entry: its better
    direction and its bound as a fraction of the parent median.
    """
    failed = {side: sum(p[side]["failed"] for p in pairs) for side in SIDES}
    out = {}
    for name, spec in metrics.items():
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (parent[0],) * 3
        sign = -1.0 if spec["better"] == "lower" else 1.0
        parent_median, change_median = statistics.median(parent), statistics.median(change)
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
        # how far the change's median is better than the parent's
        gap = sign * (change_median - parent_median)
        out[name] = {
            "parent_median": round(parent_median, 6),
            "change_median": round(change_median, 6),
            # perfbench reports 0.0 for a metric of a side that failed every run
            "change_over_parent": round(change_median / parent_median, 4) if parent_median else None,
            "parent_iqr": round(q3 - q1, 6),
            "change_better_pairs": wins,
            "bound": spec["bound"],
            "worse_than_bound": gap < -spec["bound"] * parent_median,
            "unresolved": q3 - q1 > spec["bound"] * parent_median and not every_run_better,
            "gain_shown": 10 * wins >= 9 * len(pairs) and gap > q3 - q1 and failed["change"] <= failed["parent"],
        }
    out["failed_operations"] = failed
    out["digests_equal"] = len({p[side]["digest"] for p in pairs for side in SIDES}) == 1
    return out


def measure_pairs(checkouts: dict, workload: str, args, metrics: dict, machines: list) -> list[dict]:
    pairs = []
    for i in range(args.pairs):
        pair = {"pair": i, "first": SIDES[i % 2]}
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            res = run_bench(checkouts[side], workload, args.seed, args.seconds, trace=0)
            machines.append(res["machine"])
            row = {name: round(res["metrics"][name]["value"], 6) for name in metrics}
            row.update(attempted=res["attempted"], failed=res["failed"], digest=" ".join(res["digests"]))
            pair[side] = row
            print(f"{workload} seed {args.seed} pair {i} {side}: " + json.dumps(row), flush=True)
        pairs.append(pair)
    return pairs


def _spread(values: list[float]) -> dict:
    return {key: round(fn(values), 6) for key, fn in (("median", statistics.median), ("min", min), ("max", max))}


def traced(checkouts: dict, args, per_layer: list[str], workloads: list[str], machines: list) -> dict:
    """args.pairs ``--trace 1`` runs of each workload per side, the sides in
    alternating order; each per-layer metric by name, workload and side as
    its median, min and max over the side's runs."""
    cmd = f"python3 perfbench/run.py --workload <W> --seed {args.seed} --seconds {args.seconds:g} --trace 1"
    section = {"command": cmd, "runs_per_side": args.pairs}
    results = {side: {w: [] for w in workloads} for side in SIDES}
    for i in range(args.pairs):
        for w in workloads:
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                res = run_bench(checkouts[side], w, args.seed, args.seconds, trace=1)
                machines.append(res["machine"])
                results[side][w].append(res)
                print(f"traced {w} seed {args.seed} run {i} {side}: absent names {res['absent']}", flush=True)
    section["absent_names"] = {
        side: sorted({a for runs in results[side].values() for res in runs for a in res["absent"]}) for side in SIDES
    }
    for name in per_layer:
        section[name] = {
            w: {side: _spread([res["metrics"][name]["value"] for res in results[side][w]]) for side in SIDES}
            for w in workloads
        }
    return section


def _without_jobs(command: tuple) -> tuple:
    return command[: command.index("--jobs")] if "--jobs" in command else command


def cli_pairs(checkouts: dict, args, metrics: dict) -> dict:
    """args.pairs alternating pairs of ``run_cli`` runs per CLI_RUNS
    command: per command its arguments, pairs and their summary (see
    summarize), and whether the runs of both sides gave one digest for
    every command, counting commands that differ only in --jobs as one."""
    cmd = "PYTHONPATH=<checkout>/src python -m signgame.cli <command> --out <temporary directory>"
    section = {"command": cmd, "pairs_per_command": args.pairs}
    runs = {key: [] for key in CLI_RUNS}
    for i in range(args.pairs):
        for key, command in CLI_RUNS.items():
            pair = {"pair": i, "first": SIDES[i % 2]}
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                pair[side] = run_cli(checkouts[side], command)
                print(f"cli {' '.join(command)} pair {i} {side}: " + json.dumps(pair[side]), flush=True)
            runs[key].append(pair)
    digests = {}
    for key, command in CLI_RUNS.items():
        pairs = runs[key]
        section[key] = {"arguments": " ".join(command), "summary": summarize(pairs, metrics), "pairs": pairs}
        digests.setdefault(_without_jobs(command), set()).update(p[side]["digest"] for p in pairs for side in SIDES)
    section["digests_equal"] = all(len(found) == 1 for found in digests.values())
    return section


def _name_verdicts(label: str, summary: dict, metrics: dict, worse: list, unresolved: list, gains: list) -> None:
    """Add label with the metrics of summary that are worse than their
    bound, unresolved or show a gain to the matching list."""
    for key, found in (("worse_than_bound", worse), ("unresolved", unresolved), ("gain_shown", gains)):
        names = [name for name in metrics if summary[name][key]]
        if names:
            found.append(f"{label} ({', '.join(names)})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--out", type=Path, required=True, help="BENCH_*.json to write or merge into")
    parser.add_argument("--workload", action="append", default=[], help="workload to pair (repeatable)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--section", help="top-level key for one workload's pairs (default: workloads.<name>)")
    parser.add_argument("--traced", action="store_true", help="--pairs traced runs of every workload per side")
    parser.add_argument("--cli", action="store_true", help="--pairs pairs of each signgame command in CLI_RUNS")
    parser.add_argument("--description", help="the file's description field")
    args = parser.parse_args(argv)
    if args.section and len(args.workload) != 1:
        parser.error("--section takes exactly one --workload")
    if args.pairs < 1 or not (args.workload or args.traced or args.cli):
        parser.error("give at least one pair, and at least one --workload, --traced or --cli")

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    known = [w["name"] for w in spec["workloads"]]
    unknown = sorted(set(args.workload) - set(known))
    if unknown:
        parser.error(f"unknown workloads {unknown}; BENCHMARK.json has {known}")

    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    if args.description:
        doc["description"] = args.description
    doc.setdefault("command", "python3 perfbench/run.py --workload <W> --seed <S> --seconds <T> --trace 0")
    doc.setdefault("order", "pair i runs the parent first when i is even and the change first when i is odd")
    doc["parent_commit"] = _git_head(checkouts["parent"])
    doc.setdefault("change_commit", "the commit that adds this file")

    machines, unsound, worse, unresolved, gains, absent = [], [], [], [], [], []
    if args.traced:
        doc["traced"] = traced(checkouts, args, [m["name"] for m in spec["per_layer"]], known, machines)
        absent = [names for names in doc["traced"]["absent_names"]["change"] if names != "none"]
    for workload in args.workload:
        pairs = measure_pairs(checkouts, workload, args, metrics, machines)
        summary = summarize(pairs, metrics)
        if not summary["digests_equal"] or summary["failed_operations"]["change"]:
            unsound.append(workload)
        _name_verdicts(workload, summary, metrics, worse, unresolved, gains)
        record = {
            "command": f"python3 perfbench/run.py --workload {workload} --seed {args.seed} --seconds {args.seconds:g} --trace 0",
            "summary": summary,
            "pairs": pairs,
        }
        if args.section:
            doc[args.section] = record
        else:
            doc.setdefault("workloads", {})[workload] = record
    if args.cli:
        cli_metrics = {name: metrics[name] for name in ("wall_s", "cpu_s")}
        doc["cli"] = cli_pairs(checkouts, args, cli_metrics)
        if not doc["cli"]["digests_equal"]:
            unsound.append("cli")
        for key, command in CLI_RUNS.items():
            _name_verdicts(f"cli {' '.join(command)}", doc["cli"][key]["summary"], cli_metrics, worse, unresolved, gains)
    if "host" not in doc and machines and machines[0]:
        note = "timings rescaled by perfbench's reference kernel (HostClock)"
        doc["host"] = {**machines[0], "note": note}
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    if unsound:
        print(f"digests differ or the change failed operations on: {', '.join(unsound)}", file=sys.stderr)
    if worse:
        print(f"metrics worse than their bound on: {'; '.join(worse)}", file=sys.stderr)
    if unresolved:
        print(f"metrics the parent's spread leaves unresolved on: {'; '.join(unresolved)}", file=sys.stderr)
    if gains:
        print(f"gain shown on: {'; '.join(gains)}", file=sys.stderr)
    if absent:
        print(f"traced names absent on the change side: {'; '.join(absent)}", file=sys.stderr)
    return 1 if unsound or worse or absent else 0


if __name__ == "__main__":
    sys.exit(main())
