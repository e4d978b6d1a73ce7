"""Acceptance suite: one check per release criterion.

Criteria 1-5 compare grid-cell summaries at the default sizes (10 trials of
300 iterations, seed 0) against the target result bands, so the session
fixture below is the expensive part: it runs the fourteen cells the
criteria touch as one task list over two workers, about 12 s on two cores.
Criteria 6-9 are self-contained oracles.

Each test prints one `criterion N: PASS/FAIL (...)` line with the measured
numbers; the same text is the assertion message on failure.
"""
from __future__ import annotations

import numpy as np
import pytest

from conftest import (
    ari_by_pair_enumeration,
    frozen_agent,
    kappa_by_frequency_sums,
    tv_distance,
)
from signgame.experiment import ExperimentConfig, _run_cells, run_experiment
from signgame.game import gibbs_word, mh_exchange
from signgame.metrics import adjusted_rand_index, kappa
from signgame.stochastic import RngStream

CELLS = (
    ("h2h", "mh", 1),
    ("h2h", "mh", 2),
    ("h2h", "mh", 3),
    ("h2h", "mh", 4),
    ("t2t", "mh", 1),
    ("t2t", "mh", 2),
    ("t2t", "mh", 3),
    ("t2t", "mh", 4),
    ("h2h", "reject", 1),
    ("h2h", "reject", 3),
    ("h2h", "reject", 4),
    ("t2t", "reject", 1),
    ("t2t", "reject", 4),
    ("h2h", "gibbs", 3),
)


@pytest.fixture(scope="session")
def grid(tmp_path_factory):
    """Summary rows for every cell the criteria touch, at default sizes.

    Summaries are byte-identical across job counts, so two workers read
    the same numbers as a serial run.
    """
    cells = [
        ExperimentConfig(variant=variant, method=method, condition=condition, jobs=2)
        for variant, method, condition in CELLS
    ]
    summaries = _run_cells(cells, tmp_path_factory.mktemp("acceptance"))
    return dict(zip(CELLS, summaries))


def report(number, ok, detail):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_full_observation_mh_bands(grid):
    row = grid[("h2h", "mh", 1)]
    ok = (
        0.80 <= row["ari_a_mean"] <= 0.95
        and 0.80 <= row["ari_b_mean"] <= 0.95
        and row["kappa_mean"] >= 0.90
    )
    report(
        1,
        ok,
        f"h2h mh condition 1: ARI {row['ari_a_mean']:.3f}/{row['ari_b_mean']:.3f} "
        f"(need 0.80..0.95), kappa {row['kappa_mean']:.3f} (need >= 0.90)",
    )


def test_criterion_2_rejection_baseline_shares_nothing(grid):
    parts = []
    ok = True
    for variant in ("h2h", "t2t"):
        row = grid[(variant, "reject", 1)]
        ok = (
            ok
            and abs(row["kappa_mean"]) <= 0.15
            and 0.80 <= row["ari_a_mean"] <= 0.95
            and 0.80 <= row["ari_b_mean"] <= 0.95
        )
        parts.append(
            f"{variant}: kappa {row['kappa_mean']:+.3f} (need |k| <= 0.15), "
            f"ARI {row['ari_a_mean']:.3f}/{row['ari_b_mean']:.3f} (need 0.80..0.95)"
        )
    report(2, ok, "; ".join(parts))


def test_criterion_3_deprived_listener_gains_from_exchanges(grid):
    mh = grid[("h2h", "mh", 3)]["ari_b_mean"]
    reject = grid[("h2h", "reject", 3)]["ari_b_mean"]
    topline = grid[("h2h", "gibbs", 3)]["ari_b_mean"]
    gain = mh - reject
    offset = abs(mh - topline)
    ok = gain >= 0.05 and offset <= 0.06
    report(
        3,
        ok,
        f"h2h condition 3 ARI B: mh {mh:.3f}, gain over rejection {gain:+.3f} "
        f"(need >= 0.05), offset from joint topline {offset:.3f} (allow <= 0.06)",
    )


def test_criterion_4_disjoint_modalities_gain_both_ways(grid):
    parts = []
    ok = True
    for variant in ("t2t", "h2h"):
        mh = grid[(variant, "mh", 4)]
        reject = grid[(variant, "reject", 4)]
        gain_a = mh["ari_a_mean"] - reject["ari_a_mean"]
        gain_b = mh["ari_b_mean"] - reject["ari_b_mean"]
        ok = ok and gain_a >= 0.03 and gain_b >= 0.05 and mh["kappa_mean"] >= 0.85
        parts.append(
            f"{variant}: dA {gain_a:+.3f} (need >= 0.03), dB {gain_b:+.3f} "
            f"(need >= 0.05), kappa {mh['kappa_mean']:.3f} (need >= 0.85)"
        )
    report(4, ok, "; ".join(parts))


def test_criterion_5_coupling_direction_parity(grid):
    kap = grid[("t2t", "mh", 1)]["kappa_mean"]
    offsets = [
        abs(grid[("t2t", "mh", c)][key] - grid[("h2h", "mh", c)][key])
        for c in (1, 2, 3, 4)
        for key in ("ari_a_mean", "ari_b_mean")
    ]
    ok = kap >= 0.85 and max(offsets) <= 0.08
    report(
        5,
        ok,
        f"t2t mh condition 1 kappa {kap:.3f} (need >= 0.85), "
        f"max ARI offset between variants {max(offsets):.3f} (allow <= 0.08)",
    )


def test_criterion_6_exchange_chain_reaches_product_target():
    draws = 20
    samples = 100_000
    rng = RngStream(606)
    # one chain per parameter draw, each the object of its own category in
    # one frozen pair; rows are padded with zero-weight signs, which are
    # never proposed
    weights = np.zeros((2, draws, 5))
    for index in range(draws):
        gen = rng.derive(index).generator()
        size = int(gen.integers(2, 6))
        weights[0, index, :size] = gen.dirichlet(np.ones(size))
        weights[1, index, :size] = gen.dirichlet(np.ones(size))
    target = weights[0] * weights[1]
    target /= target.sum(axis=1, keepdims=True)
    chains = np.arange(draws)
    worst = 0.0
    for variant_index, variant in enumerate(("h2h", "t2t")):
        speaker = frozen_agent(variant, weights[0])
        listener = frozen_agent(variant, weights[1])
        chain = rng.derive(draws, variant_index).generator()
        counts = np.zeros((draws, 5), dtype=np.int64)
        for _ in range(samples):
            mh_exchange(speaker, listener, chain)
            mh_exchange(listener, speaker, chain)
            counts[chains, listener.signs] += 1
        assert not counts[weights[1] == 0].any()
        worst = max(worst, max(tv_distance(row / samples, p) for row, p in zip(counts, target)))
    ok = worst < 0.03
    report(
        6,
        ok,
        f"worst total variation {worst:.4f} over {draws} parameter draws "
        f"x 2 variants, {samples} samples each (allow < 0.03)",
    )


def test_criterion_7_joint_draw_matches_hand_product():
    agent_a = frozen_agent("h2h", [0.7, 0.2, 0.1])
    agent_b = frozen_agent("h2h", [0.1, 0.2, 0.7])
    # hand normalization of [.7,.2,.1]*[.1,.2,.7]: [0.3889, 0.2222, 0.3889]
    target = np.array([7.0, 4.0, 7.0]) / 18.0
    gen = RngStream(707).generator()
    samples = 100_000
    counts = np.zeros(3, dtype=np.int64)
    for _ in range(samples):
        counts[gibbs_word(agent_a, agent_b, gen)] += 1
    tv = tv_distance(counts / samples, target)
    ok = tv < 0.01
    report(7, ok, f"total variation {tv:.4f} over {samples} draws (allow < 0.01)")


def test_criterion_8_metrics_match_brute_force():
    crossed = adjusted_rand_index([[0, 0, 1, 1]], [0, 1, 0, 1])[0]
    gen = RngStream(808).generator()
    worst = 0.0
    for _ in range(1000):
        n = int(gen.integers(2, 12))
        labels = int(gen.integers(1, 6))
        x = gen.integers(0, labels, size=n)
        y = gen.integers(0, labels, size=n)
        worst = max(worst, abs(adjusted_rand_index([x], y)[0] - ari_by_pair_enumeration(x, y)))
        worst = max(worst, abs(kappa([x], [y], labels)[0] - kappa_by_frequency_sums(x, y, labels)))
    ok = crossed == -0.5 and worst <= 1e-12
    report(
        8,
        ok,
        f"crossed-pairs ARI {crossed} (need exactly -0.5), worst gap to "
        f"brute force {worst:.2e} over 1000 instances (allow <= 1e-12)",
    )


def test_criterion_9_reports_are_byte_identical(tmp_path):
    cfg = ExperimentConfig(variant="h2h", method="mh", condition=2, trials=2, iterations=20, seed=11)
    run_experiment(cfg, tmp_path / "one")
    run_experiment(cfg, tmp_path / "two")
    first = (tmp_path / "one" / "detail.csv").read_bytes()
    second = (tmp_path / "two" / "detail.csv").read_bytes()
    ok = len(first) > 0 and first == second
    report(9, ok, f"two runs with one seed: {len(first)} bytes, identical: {first == second}")
