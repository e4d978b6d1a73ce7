"""Tests for the agreement metrics, pinned to brute-force oracles."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ari_by_pair_enumeration, kappa_by_frequency_sums
from signgame.metrics import (
    adjusted_rand_index,
    kappa,
    kappa_band,
    summarize,
)


# label arrays of every non-integer kind: str, bool, float and object
NON_INTEGER_LABELS = (
    np.array(["0", "1"]),
    np.array([True, False]),
    np.array([0.0, 1.0]),
    np.array([0, 1], dtype=object),
)


def test_ari_identical_partitions():
    assert adjusted_rand_index([[0, 0, 1, 1]], [0, 0, 1, 1]) == [1.0]
    assert adjusted_rand_index([[3, 3, 3]], [3, 3, 3]) == [1.0]


def test_ari_crossed_pairs_is_exactly_minus_half():
    assert adjusted_rand_index([[0, 0, 1, 1]], [0, 1, 0, 1]) == [-0.5]


def test_ari_permutation_of_labels_is_perfect():
    assert adjusted_rand_index([[0, 0, 1, 1]], [1, 1, 0, 0]) == [1.0]
    assert adjusted_rand_index([[0, 1, 2, 0]], [5, 0, 2, 5]) == [1.0]


def test_ari_degenerate_partitions():
    # all singletons on both sides group identically
    assert adjusted_rand_index([[0, 1, 2]], [2, 0, 1]) == [1.0]
    assert adjusted_rand_index([[0, 0, 0]], [1, 1, 1]) == [1.0]


def test_ari_input_validation():
    with pytest.raises(ValueError):
        adjusted_rand_index([[0, 1]], [0, 1, 2])
    with pytest.raises(ValueError):
        adjusted_rand_index([[]], [])
    with pytest.raises(ValueError):
        adjusted_rand_index([[0, -1]], [0, 1])
    with pytest.raises(ValueError):
        adjusted_rand_index([[0, 1]], [[0, 1]])
    # one labeling is a one-row stack, not a 1-d vector
    with pytest.raises(ValueError, match="labels_x"):
        adjusted_rand_index([0, 1], [0, 1])
    for labels in NON_INTEGER_LABELS:
        with pytest.raises(ValueError, match="labels_x"):
            adjusted_rand_index(labels[None], [0, 1])
        with pytest.raises(ValueError, match="labels_y"):
            adjusted_rand_index([[0, 1]], labels)


def test_kappa_hand_examples():
    # crossed halves: observed 0.5 equals chance 0.5
    assert kappa([[0, 0, 1, 1]], [[0, 1, 0, 1]], 2) == [0.0]
    # disjoint constant signs: observed 0, chance 0
    assert kappa([[0, 0]], [[1, 1]], 2) == [0.0]
    assert kappa([[0, 1, 0, 1]], [[0, 1, 0, 1]], 2) == [1.0]


def test_kappa_degenerate_single_shared_sign():
    assert kappa([[2, 2, 2]], [[2, 2, 2]], 5) == [1.0]


def test_kappa_is_negative_for_systematic_disagreement():
    # equal frequencies but never matching
    assert kappa([[0, 0, 1, 1]], [[1, 1, 0, 0]], 2)[0] == pytest.approx(-1.0)


def test_kappa_input_validation():
    with pytest.raises(ValueError):
        kappa([[0, 1]], [[0]], 2)
    with pytest.raises(ValueError):
        kappa([[0, 2]], [[0, 1]], 2)
    with pytest.raises(ValueError):
        kappa([[0, 1]], [[0, 1]], 0)
    # one pair of sign vectors is a pair of one-row stacks
    with pytest.raises(ValueError, match="signs_x"):
        kappa([0, 1], [[0, 1]], 2)
    with pytest.raises(ValueError, match="signs_y"):
        kappa([[0, 1]], [0, 1], 2)
    for signs in NON_INTEGER_LABELS:
        with pytest.raises(ValueError, match="signs_x"):
            kappa(signs[None], [[0, 1]], 2)
        with pytest.raises(ValueError, match="signs_y"):
            kappa([[0, 1]], signs[None], 2)


def test_ari_matches_pair_enumeration_on_random_instances():
    gen = np.random.default_rng(2024)
    for _ in range(1000):
        n = int(gen.integers(2, 31))
        x = gen.integers(0, int(gen.integers(1, 7)), size=n)
        y = gen.integers(0, int(gen.integers(1, 7)), size=n)
        assert adjusted_rand_index([x], y)[0] == pytest.approx(
            ari_by_pair_enumeration(x, y), abs=1e-12
        )


def test_kappa_matches_frequency_sums_on_random_instances():
    gen = np.random.default_rng(4048)
    for _ in range(1000):
        n = int(gen.integers(2, 31))
        num_signs = int(gen.integers(1, 7))
        x = gen.integers(0, num_signs, size=n)
        y = gen.integers(0, num_signs, size=n)
        assert kappa([x], [y], num_signs)[0] == pytest.approx(
            kappa_by_frequency_sums(x, y, num_signs), abs=1e-12
        )


def scalar_ari(x, y):
    """One pair at a time: Python-int pair counts and one final division,
    with the groupings compared when the denominator vanishes."""
    x, y = np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64)
    n = x.size
    table = {}
    for a, b in zip(x.tolist(), y.tolist()):
        table[a, b] = table.get((a, b), 0) + 1

    def pairs(counts):
        return sum(c * (c - 1) // 2 for c in counts)

    index = pairs(table.values())
    row_pairs = pairs(np.bincount(x).tolist())
    col_pairs = pairs(np.bincount(y).tolist())
    total_pairs = n * (n - 1) // 2
    numerator = total_pairs * index - row_pairs * col_pairs
    denominator = total_pairs * (row_pairs + col_pairs) - 2 * row_pairs * col_pairs
    if denominator == 0:
        first_x = {v: i for i, v in reversed(list(enumerate(x.tolist())))}
        first_y = {v: i for i, v in reversed(list(enumerate(y.tolist())))}
        same = [first_x[v] for v in x.tolist()] == [first_y[v] for v in y.tolist()]
        return 1.0 if same else 0.0
    return (2 * numerator) / denominator


def scalar_kappa(x, y, num_signs):
    """One pair at a time, with numpy's mean, bincount and dot."""
    x, y = np.asarray(x), np.asarray(y)
    observed = float(np.mean(x == y))
    freq_x = np.bincount(x, minlength=num_signs) / x.size
    freq_y = np.bincount(y, minlength=num_signs) / x.size
    expected = float(freq_x @ freq_y)
    if expected == 1.0:
        return 1.0 if observed == 1.0 else 0.0
    return (observed - expected) / (1.0 - expected)


def test_stacked_ari_equals_the_scalar_formula_row_by_row():
    gen = np.random.default_rng(17)
    for n in (1, 2, 3, 7, 40):
        rows = gen.integers(0, int(gen.integers(1, 6)), size=(30, n))
        rows[0] = gen.permutation(n)
        rows[1] = 3
        # random truth, then the two truths that give rows 0 and 1 a zero
        # denominator: all singletons and one block
        for truth in (gen.integers(0, 4, size=n), np.arange(n), np.zeros(n, dtype=int)):
            got = adjusted_rand_index(rows, truth)
            assert got == [scalar_ari(row, truth) for row in rows]
            assert got == [adjusted_rand_index([row], truth)[0] for row in rows]
            assert all(type(value) is float for value in got)


def test_stacked_ari_is_exact_beyond_float_integers():
    # the scaled numerator total_pairs * pairs_xy reaches ~1e17 here, so
    # float64 products would round; rows agree with truth on a prefix
    n = 50_000
    total_pairs = n * (n - 1) // 2
    assert total_pairs**2 > 2**53
    gen = np.random.default_rng(5)
    truth = gen.integers(0, 15, size=n)
    rows = gen.integers(0, 15, size=(20, n))
    for row, prefix in zip(rows, np.linspace(0, n, rows.shape[0]).astype(int)):
        row[:prefix] = truth[:prefix]
    assert adjusted_rand_index(rows, truth) == [scalar_ari(row, truth) for row in rows]


def test_stacked_kappa_equals_the_scalar_formula_row_by_row():
    gen = np.random.default_rng(23)
    for n, num_signs in ((1, 1), (2, 3), (9, 4), (150, 15)):
        x = gen.integers(0, num_signs, size=(25, n))
        y = gen.integers(0, num_signs, size=(25, n))
        # chance agreement 1: one shared sign, then one sign each
        x[0] = y[0] = num_signs - 1
        x[1], y[1] = 0, num_signs - 1
        y[2] = x[2]
        got = kappa(x, y, num_signs)
        assert got == [scalar_kappa(a, b, num_signs) for a, b in zip(x, y)]
        assert got == [kappa([a], [b], num_signs)[0] for a, b in zip(x, y)]
        assert all(type(value) is float for value in got)


def test_stacked_metrics_validate_their_rows():
    with pytest.raises(ValueError, match="labels_x must be a non-empty 2-d array"):
        adjusted_rand_index([[[0, 1]]], [0, 1])
    with pytest.raises(ValueError, match="labels_y must be a non-empty 1-d array"):
        adjusted_rand_index([[0, 1]], [[0, 1]])
    with pytest.raises(ValueError, match="length mismatch"):
        adjusted_rand_index([[0, 1]], [0, 1, 2])
    with pytest.raises(ValueError, match="nonnegative"):
        adjusted_rand_index([[0, -1]], [0, 1])
    with pytest.raises(ValueError, match="signs_x must be a non-empty 2-d array of integer dtype"):
        kappa([[0.5, 1]], [[0, 1]], 2)
    with pytest.raises(ValueError, match="length mismatch"):
        kappa([[0, 1]], [[0, 1], [1, 0]], 2)
    with pytest.raises(ValueError, match="num_signs"):
        kappa([[0, 2]], [[0, 1]], 2)


@st.composite
def labeling_pairs(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    x = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    y = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    return x, y


@settings(max_examples=200, deadline=None)
@given(labeling_pairs())
def test_ari_symmetric_and_relabel_invariant(pair):
    x, y = pair
    value = adjusted_rand_index([x], y)[0]
    assert adjusted_rand_index([y], x)[0] == pytest.approx(value, abs=1e-12)
    shuffled = [(v * 7 + 3) % 11 for v in y]  # injective on 0..5
    assert adjusted_rand_index([x], shuffled)[0] == pytest.approx(value, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(labeling_pairs(), st.permutations(list(range(6))))
def test_kappa_invariant_under_joint_sign_permutation(pair, perm):
    x, y = pair
    value = kappa([x], [y], 6)[0]
    assert kappa([[perm[v] for v in x]], [[perm[v] for v in y]], 6)[0] == pytest.approx(
        value, abs=1e-12
    )


def test_kappa_not_invariant_under_one_sided_relabeling():
    x = [0, 0, 1, 1]
    y = [0, 0, 1, 1]
    assert kappa([x], [y], 2) == [1.0]
    assert kappa([x], [[1 - v for v in y]], 2) != [1.0]


def test_kappa_band_scale():
    assert kappa_band(0.999) == "almost perfect agreement"
    assert kappa_band(0.81) == "almost perfect agreement"
    assert kappa_band(0.7) == "substantial agreement"
    assert kappa_band(0.5) == "moderate agreement"
    assert kappa_band(0.3) == "fair agreement"
    assert kappa_band(0.1) == "slight agreement"
    assert kappa_band(-0.2) == "no agreement"


def test_summarize_examples():
    assert summarize([0.5, 0.5, 0.5]) == (0.5, 0.0)
    mean, sd = summarize([0.0, 1.0])
    assert mean == 0.5
    assert sd == pytest.approx(0.7071067811865476)
    assert summarize([0.3]) == (0.3, 0.0)


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize([])
