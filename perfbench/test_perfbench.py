"""Tests of the benchmark's own logic: span arithmetic, output checks, ref_gap, rebinding."""
from __future__ import annotations

import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import bench_check  # noqa: E402
import bench_trace  # noqa: E402
import run  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7]
    names = ["root", "b", "c", "d"]
    spans = bench_trace.span_summary(
        names,
        name_of=[0, 1, 2, 3],
        parent=[-1, 0, 0, 2],
        start=[0.0, 1.0, 5.0, 6.0],
        end=[10.0, 4.0, 9.0, 7.0],
    )
    assert {name: spans[name]["self_s"] for name in names} == {"root": 3.0, "b": 3.0, "c": 3.0, "d": 1.0}
    assert spans["root"]["total_s"] == 10.0
    assert sum(span["self_s"] for span in spans.values()) == spans["root"]["total_s"]


def test_spans_sharing_a_name_add_up():
    spans = bench_trace.span_summary(
        ["loop", "step"], name_of=[0, 1, 1], parent=[-1, 0, 0], start=[0.0, 1.0, 3.0], end=[6.0, 2.0, 5.0]
    )
    assert spans["step"] == {"calls": 2, "total_s": 3.0, "self_s": 3.0}
    assert spans["loop"]["self_s"] == 3.0


def test_tracer_nests_wrapped_calls():
    tracer = bench_trace.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    spans = tracer.summary()
    assert spans["outer"]["calls"] == 1 and spans["inner"]["calls"] == 2
    assert spans["outer"]["self_s"] == pytest.approx(spans["outer"]["total_s"] - spans["inner"]["total_s"])


def test_host_clock_scales_by_the_flanking_kernel_times(monkeypatch):
    kernel_times = iter([0.1, 0.3, 0.2])
    monkeypatch.setattr(run.HostClock, "_kernel_s", staticmethod(lambda: next(kernel_times)))
    clock = run.HostClock()
    assert clock.scale() == pytest.approx(run.REF_KERNEL_S / 0.2)
    assert clock.scale() == pytest.approx(run.REF_KERNEL_S / 0.25)


def _write_cell(out: Path, method: str, finals=((0.5, 0.75, 0.25), (0.7, 0.25, 0.75)), iterations=3):
    """A consistent detail/summary pair for one h2h cell with two trials."""
    out.mkdir(parents=True, exist_ok=True)
    gibbs = method == "gibbs"
    with open(out / "detail.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("variant", "method", "condition", "trial", "iteration", "ari_a", "ari_b", "kappa"))
        for trial, (a, b, k) in enumerate(finals):
            for it in range(iterations):
                writer.writerow(("h2h", method, 1, trial, it, a, b, "" if gibbs else k))
    means = {name: bench_check._stats([f[i] for f in finals]) for i, name in enumerate(("ari_a", "ari_b", "kappa"))}
    if gibbs:
        means["kappa"] = ("", "")
    with open(out / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("variant", "method", "condition", "ari_a_mean", "ari_a_sd", "ari_b_mean", "ari_b_sd", "kappa_mean", "kappa_sd"))
        writer.writerow(
            ("h2h", method, 1, *(format(v, ".6g") if v != "" else "" for name in ("ari_a", "ari_b", "kappa") for v in means[name]))
        )


def _edit_detail(out: Path, edit) -> None:
    lines = (out / "detail.csv").read_text().splitlines()
    (out / "detail.csv").write_text("\n".join(edit(lines)) + "\n")


@pytest.mark.parametrize("method", ["mh", "gibbs"])
def test_output_check_accepts_consistent_reports(tmp_path, method):
    _write_cell(tmp_path, method)
    assert bench_check.check_reports(tmp_path, [("h2h", method, 1)], trials=2, iterations=3) == (2, 0, [])


def test_output_check_rejects_kappa_on_gibbs_row(tmp_path):
    _write_cell(tmp_path, "gibbs")
    _edit_detail(tmp_path, lambda lines: lines[:2] + [lines[2] + "0.5"] + lines[3:])
    attempted, failed, problems = bench_check.check_reports(tmp_path, [("h2h", "gibbs", 1)], 2, 3)
    assert (attempted, failed) == (2, 2)  # trial 0 itself, and trial 1 through the cell summary
    assert any("kappa on a gibbs row" in p for p in problems)


def test_output_check_rejects_missing_iteration(tmp_path):
    _write_cell(tmp_path, "mh")
    _edit_detail(tmp_path, lambda lines: [line for line in lines if not line.startswith("h2h,mh,1,1,1,")])
    attempted, failed, problems = bench_check.check_reports(tmp_path, [("h2h", "mh", 1)], 2, 3)
    assert failed == 2 and any("not iterations 0..2" in p for p in problems)


def test_output_check_rejects_summary_off_the_finals(tmp_path):
    _write_cell(tmp_path, "mh")
    summary = tmp_path / "summary.csv"
    summary.write_text(summary.read_text().replace(",0.6,", ",0.61,", 1))
    assert bench_check.check_reports(tmp_path, [("h2h", "mh", 1)], 2, 3)[1] == 2


def test_ref_gap_on_hand_made_summary(tmp_path):
    (tmp_path / "summary.csv").write_text(
        "variant,method,condition,ari_a_mean,ari_a_sd,ari_b_mean,ari_b_sd,kappa_mean,kappa_sd\n"
        "h2h,mh,1,0.9,0,0.888,0,0.989,0\n"  # published 0.881, 0.888, 0.999
        "h2h,gibbs,1,0.891,0,0.882,0,,\n"  # published 0.881, 0.882, kappa not published
    )
    means = bench_check.read_summary_means(tmp_path)
    assert bench_check.ref_gap(means) == pytest.approx((0.019 + 0.0 + 0.010 + 0.010 + 0.0) / 5)


def _bound_functions():
    mods = [m for name, m in sys.modules.items() if name == "signgame" or name.startswith("signgame.")]
    snapshot = {(mod.__name__, key): value for mod in mods for key, value in vars(mod).items() if callable(value)}
    snapshot[("RngStream", "generator")] = sys.modules["signgame.stochastic"].RngStream.__dict__["generator"]
    return snapshot


def test_traced_run_restores_every_wrapped_function(tmp_path):
    import signgame.experiment as exp

    cfg = exp.parse_config({"trials": 1, "iterations": 2}, None)
    syn = replace(cfg.synthetic, num_types=3, objects_per_type=2, feature_dim=4, draws_per_modality=5)
    cfg = replace(cfg, synthetic=syn)
    before = _bound_functions()
    tracer = bench_trace.Tracer()
    with bench_trace.Rebinder() as rebinder:
        assert bench_trace.install(rebinder, tracer) == []
        assert exp.run_cell is not before[("signgame.experiment", "run_cell")]
        exp.run_full_grid(cfg, tmp_path)
    assert _bound_functions() == before
    spans = tracer.summary()
    assert all(spans[name]["calls"] > 0 for name, _, _ in bench_trace.TRACED)
    assert tracer.counts["game.sign_proposals"] > 0
    assert bench_check.check_reports(tmp_path, bench_check.GRID_CELLS, 1, 2)[1] == 0


def test_missing_function_is_reported_not_raised():
    import signgame.game  # noqa: F401

    with bench_trace.Rebinder() as rebinder:
        assert rebinder.replace("signgame.game", "no_such_exchange", lambda fn: fn) is False


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
