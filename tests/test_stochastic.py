"""Unit and property tests for the sampling primitives."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import signgame.agents as agents
import signgame.game as game
import signgame.stochastic as stochastic
from conftest import counting_draw
from signgame.agents import Hyperparams
from signgame.datagen import SyntheticConfig, generate_dataset
from signgame.stochastic import (
    EXP_CLAMP,
    PROB_FLOOR,
    RngStream,
    normalize_log_rows,
    sample_categorical_rows,
    sample_dirichlet_rows,
    open_generator,
    seed_words,
)


def test_rng_stream_determinism():
    a = RngStream(seed=123, stream=7).generator().random(10)
    b = RngStream(seed=123, stream=7).generator().random(10)
    assert np.array_equal(a, b)
    c = RngStream(seed=123, stream=8).generator().random(10)
    assert not np.array_equal(a, c)


def test_rng_stream_derive_folds():
    base = RngStream(seed=5)
    assert base.derive(1, 2) == base.derive(1).derive(2)
    assert base.derive(1) != base.derive(2)
    # distinct derivation paths should not collide in practice
    ids = {base.derive(i, j).stream for i in range(50) for j in range(50)}
    assert len(ids) == 2500


# seeds whose entropy takes one word, two words, and the extremes of each
TABLE_SEEDS = (0, 1, 7, 2**31, 2**32 - 1, 2**32, 2**40 + 3, 2**64 - 1, -5)


def test_seed_words_open_the_generators_of_random_stream_ids():
    gen = np.random.default_rng(99)
    per_seed = 1200
    checked = 0
    for seed in TABLE_SEEDS:
        wide = gen.integers(0, 2**64, size=per_seed // 2, dtype=np.uint64)
        narrow = gen.integers(0, 2**32, size=per_seed // 2, dtype=np.uint64)
        edges = np.array([0, 1, 2**32 - 1, 2**32, 2**64 - 1], dtype=np.uint64)
        streams = np.concatenate([edges, wide, narrow])
        words = seed_words(seed, streams)
        assert words.shape == (streams.size, 4) and words.dtype == np.uint64
        for stream, row in zip(streams.tolist(), words):
            expect = RngStream(seed, stream).generator().bit_generator.state
            assert open_generator(row).bit_generator.state == expect, (seed, stream)
            checked += 1
    assert checked >= 10_000


def test_open_generator_draws_like_the_stream_generator():
    stream = RngStream(123).derive(1, 250, 1, 2)
    ours = open_generator(seed_words(stream.seed, stream.stream))
    theirs = stream.generator()
    assert np.array_equal(ours.random(64), theirs.random(64))
    assert np.array_equal(ours.standard_gamma(np.full(8, 0.5)), theirs.standard_gamma(np.full(8, 0.5)))


def test_seed_table_broadcasts_like_derive():
    # each entry is seed_words of the stream that derive(...) reaches
    base = RngStream(5, 2**63 + 11)
    iterations = np.arange(40)[:, None]
    slots, phases = np.array([0, 0, 1, 2]), np.array([0, 2, 1, 3])
    table = base.seed_table(1, iterations, slots, phases)
    assert table.shape == (40, 4, 4) and table.dtype == np.uint64
    pairs = list(zip(slots.tolist(), phases.tolist()))
    streams = [[base.derive(1, it, sl, ph).stream for sl, ph in pairs] for it in range(40)]
    assert np.array_equal(table, seed_words(base.seed, np.array(streams, dtype=np.uint64)))
    gen = np.random.default_rng(3)
    ids = gen.integers(0, 2**64, size=(500, 3), dtype=np.uint64)
    table = base.seed_table(ids[:, 0], ids[:, 1], ids[:, 2])
    streams = [base.derive(*row).stream for row in ids.tolist()]
    assert np.array_equal(table, seed_words(base.seed, np.array(streams, dtype=np.uint64)))
    # scalar ids give one row of words, and no ids the base stream's own
    assert np.array_equal(base.seed_table(1, 2), seed_words(base.seed, base.derive(1, 2).stream))
    assert np.array_equal(base.seed_table(), seed_words(base.seed, base.stream))


def dirichlet_row(alpha, gen):
    """One Dirichlet(alpha) vector through sample_dirichlet_rows on a one-row block."""
    alpha = np.asarray(alpha, dtype=float)
    return sample_dirichlet_rows(alpha, [(1, alpha.size)], gen)


def test_sample_dirichlet_is_valid_distribution():
    p = dirichlet_row([0.5, 1.5, 2.0], RngStream(seed=0).generator())
    assert p.shape == (3,)
    assert np.all(p > 0)
    assert abs(p.sum() - 1.0) <= 1e-9


def test_sample_dirichlet_determinism():
    p1 = dirichlet_row([0.1, 0.2, 0.3], RngStream(seed=9, stream=4).generator())
    p2 = dirichlet_row([0.1, 0.2, 0.3], RngStream(seed=9, stream=4).generator())
    assert np.array_equal(p1, p2)


def test_sample_dirichlet_empirical_mean():
    # mean of Dirichlet(alpha) is alpha / sum(alpha)
    alpha = np.array([3.01, 7.01])
    expect = alpha / alpha.sum()
    gen = RngStream(seed=42).generator()
    draws = np.array([dirichlet_row(alpha, gen) for _ in range(100_000)])
    assert np.max(np.abs(draws.mean(axis=0) - expect)) < 5e-3


def test_sample_dirichlet_concentrated_limit():
    p = dirichlet_row(np.full(4, 1e9), RngStream(seed=1).generator())
    assert np.max(np.abs(p - 0.25)) < 1e-3


def test_sample_dirichlet_sparse_shapes_are_near_one_hot():
    # with concentration 0.001 per entry, nearly all mass lands on one entry
    gen = RngStream(seed=7).generator()
    hits = 0
    for _ in range(500):
        p = dirichlet_row(np.full(20, 0.001), gen)
        assert np.all(p > 0)
        if p.max() > 0.95:
            hits += 1
    assert hits >= 450


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=1e-3, max_value=50.0), min_size=1, max_size=12),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_sample_dirichlet_property_valid(alpha, seed):
    p = dirichlet_row(alpha, RngStream(seed=seed).generator())
    assert np.all(p > 0)
    assert abs(p.sum() - 1.0) <= 1e-9


def test_sample_dirichlet_rows_matches_row_draws():
    alpha = np.array([0.001, 0.5, 3.0, 2.0, 2.0, 2.0])
    rows = sample_dirichlet_rows(alpha, [(2, 3)], RngStream(seed=3).generator())
    assert rows.shape == (6,)
    rows = rows.reshape(2, 3)
    assert np.all(rows > 0)
    assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-9)
    # two blocks of different widths in one call, each normalized on its own rows
    narrow, wide = np.array([0.001, 0.5, 3.0]), np.linspace(0.1, 2.0, 20)
    flat = sample_dirichlet_rows(
        np.concatenate([np.tile(narrow, 100_000), np.tile(wide, 100_000)]),
        [(100_000, narrow.size), (100_000, wide.size)],
        RngStream(seed=4).generator(),
    )
    blocks = np.split(flat, [100_000 * narrow.size])
    for alpha, rows in zip((narrow, wide), blocks):
        rows = rows.reshape(100_000, alpha.size)
        assert np.all(rows > 0)
        assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-9)
        assert np.max(np.abs(rows.mean(axis=0) - alpha / alpha.sum())) < 5e-3


def reference_dirichlet_rows(alphas, gen):
    """The block-by-block normalization sample_dirichlet_rows replaced: exp
    without a clamp, then the floor, on each block on its own."""
    flat = np.concatenate([alpha.reshape(-1) for alpha in alphas])
    boost = gen.standard_gamma(flat + 1.0)
    u = gen.random(flat.shape)
    logg = np.log(np.maximum(boost, PROB_FLOOR)) + np.log1p(-u) / flat
    out = []
    for alpha, block in zip(alphas, np.split(logg, np.cumsum([a.size for a in alphas])[:-1])):
        p = block.reshape(alpha.shape)
        p = np.maximum(np.exp(p - p.max(axis=1, keepdims=True)), PROB_FLOOR)
        out.append(p / p.sum(axis=1, keepdims=True))
    return out


@pytest.mark.parametrize(
    "shapes",
    [
        pytest.param([(1, 15), (15, 15), (15, 20), (15, 20), (15, 20)], id="h2h"),
        pytest.param([(15, 15), (15, 500), (15, 500), (15, 500)], id="t2t-wide"),
        pytest.param([(4, 3), (6, 20), (5, 3)], id="ungrouped"),
    ],
)
def test_sample_dirichlet_rows_matches_block_by_block_reference(shapes):
    # exp(EXP_CLAMP) is floored like every smaller exp, and is normal
    assert np.finfo(float).tiny <= np.exp(EXP_CLAMP) < PROB_FLOOR
    gen = np.random.default_rng(5)
    floored = 0
    for seed in range(20):
        # sparse posteriors: the prior concentration plus a few counts
        alphas = [
            gen.choice([0.001, 0.01]) + (gen.random(shape) < 0.1) * gen.integers(1, 40, size=shape)
            for shape in shapes
        ]
        flat = np.concatenate([alpha.reshape(-1) for alpha in alphas])
        ours = sample_dirichlet_rows(flat, shapes, np.random.default_rng(seed))
        theirs = np.concatenate([q.reshape(-1) for q in reference_dirichlet_rows(alphas, np.random.default_rng(seed))])
        assert ours.shape == flat.shape
        assert np.array_equal(ours, theirs)
        # the flat normalizer on its own, on the sampler's log-gamma draws
        logg = stochastic._log_gamma_draws(flat, np.random.default_rng(seed))
        assert normalize_log_rows(logg, shapes) is logg
        assert np.array_equal(logg, theirs)
        floored += np.count_nonzero(ours <= PROB_FLOOR)
    # many entries end at the floor, where a clamp above ln(PROB_FLOOR)
    # would change them
    assert floored > 0


def categorical_draws(p, gen, size, chunk=100_000):
    """size draws from p through sample_categorical_rows, one row per draw,
    in chunks that keep the cumulative sums small."""
    cum = np.cumsum(np.asarray(p, dtype=float))
    rows = [np.broadcast_to(cum, (min(chunk, size - start), cum.size)) for start in range(0, size, chunk)]
    return np.concatenate([sample_categorical_rows(r, gen.random(r.shape[0])) for r in rows])


def test_sample_categorical_degenerate():
    gen = RngStream(seed=0).generator()
    assert np.all(categorical_draws([1.0, 0.0], gen, 100) == 0)


def test_sample_categorical_fair_coin_frequency():
    draws = categorical_draws([0.5, 0.5], RngStream(seed=11).generator(), 1_000_000)
    freq = np.mean(draws == 0)
    assert 0.498 <= freq <= 0.502


def test_sample_categorical_total_variation():
    p = np.array([0.2, 0.3, 0.5])
    draws = categorical_draws(p, RngStream(seed=13).generator(), 1_000_000)
    emp = np.bincount(draws, minlength=3) / draws.size
    assert 0.5 * np.abs(emp - p).sum() < 0.005


def test_sample_categorical_20dim_total_variation():
    gen = RngStream(seed=17).generator()
    p = dirichlet_row(np.ones(20), gen)
    draws = categorical_draws(p, gen, 1_000_000)
    emp = np.bincount(draws, minlength=20) / draws.size
    assert 0.5 * np.abs(emp - p).sum() < 0.005


def test_sample_categorical_rows_agrees_with_marginals():
    cum = np.tile(np.cumsum([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], axis=1), (500, 1))
    idx = sample_categorical_rows(cum, RngStream(seed=5).generator().random(cum.shape[0]))
    assert np.all(idx[::2] == 0)
    assert np.all(idx[1::2] == 2)


# largest float below 1.0, the largest uniform a Generator returns
U_MAX = 1.0 - 2.0**-53


# rows of nonnegative weights; they need not sum to one
@pytest.mark.parametrize(
    "probs, u",
    [
        # ties: a cumulative sum equal to u times the total is not above it
        ([0.25, 0.25, 0.5], [0.25, 0.5, 0.75, U_MAX]),
        ([0.5, 0.5], [0.5, 0.0]),
        # u = 0 skips leading zero weights
        ([0.0, 0.3, 0.7], [0.0, 0.3, 0.29, U_MAX]),
        # zero weights at the start, middle and end
        ([0.0, 0.4, 0.0, 0.0, 0.6, 0.0], [0.0, 0.4, 0.41, 0.999, U_MAX]),
        # a total of 1.0000000000000002, which scales the threshold
        ([0.5, 0.5000000000000002, 0.0], [0.5, 0.99, U_MAX]),
        ([0.25, 0.7500000000000002, 0.0, 0.0], [0.0, 0.25, U_MAX]),
        # one column
        ([1.0], [0.0, 0.5, U_MAX]),
    ],
)
def test_sample_categorical_rows_first_index_matches_counting_edges(probs, u):
    cum = np.tile(np.cumsum(probs), (len(u), 1))
    u = np.asarray(u)
    drawn = sample_categorical_rows(cum, u)
    assert np.array_equal(drawn, counting_draw(cum, u))
    assert drawn.dtype == counting_draw(cum, u).dtype


def test_sample_categorical_rows_first_index_matches_counting_random():
    gen = RngStream(seed=41).generator()
    # sparse rows: many entries are floored to PROB_FLOOR or exactly zero
    probs = gen.dirichlet(np.full(15, 0.05), size=4000)
    probs[probs < 1e-3] = 0.0
    probs[:, 0] = np.where(probs.sum(axis=1) == 0, 1.0, probs[:, 0])
    probs /= probs.sum(axis=1, keepdims=True)
    # half the uniforms put the threshold on, or within rounding of, a
    # cumulative sum of their row
    u = gen.random(probs.shape[0])
    cum = np.cumsum(probs, axis=1)
    on_sum = cum[np.arange(probs.shape[0]), gen.integers(0, 15, size=probs.shape[0])] / cum[:, -1]
    u[::2] = np.minimum(on_sum, U_MAX)[::2]
    drawn = sample_categorical_rows(cum, u)
    assert np.array_equal(drawn, counting_draw(cum, u))


def normalize_one_row(logw):
    """normalize_log_rows on a copy of a single row of log-weights."""
    return normalize_log_rows(np.array(logw, dtype=float).reshape(1, -1))[0]


def test_normalize_log_weights_examples():
    assert np.allclose(normalize_one_row([0.0, 0.0]), [0.5, 0.5])
    assert np.allclose(
        normalize_one_row([math.log(1.0), math.log(3.0)]), [0.25, 0.75]
    )
    # heavily shifted weights keep their ratios
    assert np.allclose(
        normalize_one_row([-1e4, -1e4 + math.log(2.0)]), [1 / 3, 2 / 3]
    )


def test_normalize_log_weights_extreme_spread():
    p = normalize_one_row([0.0, -1e5])
    assert p[0] == 1.0
    # floored, not zero: every entry stays drawable and has a finite log
    assert p[1] == PROB_FLOOR


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=10),
    st.floats(min_value=-1e5, max_value=1e5),
)
# the shrunk case that a fixed 1e-12 tolerance failed on (gap 1.63e-12)
@example(logw=[0.0, 0.032], shift=65536.0)
def test_normalize_log_weights_shift_invariant(logw, shift):
    logw = np.array(logw)
    base = normalize_one_row(logw)
    shifted = normalize_one_row(logw + shift)
    # Adding the shift rounds each entry by up to half a spacing at the
    # shifted magnitude, so differences of entries move by up to one
    # spacing, and p_i = exp(y_i) / sum_j exp(y_j) then moves by at most
    # p_i * 2 * spacing <= 2 * spacing. A factor 4 leaves room for that
    # bound; rtol covers the relative rounding of exp and the sum.
    atol = 4 * np.spacing(abs(shift) + np.abs(logw).max())
    assert np.allclose(base, shifted, rtol=1e-12, atol=atol)


def test_normalize_log_weights_errors():
    # an empty row is a layout without a column, which _row_layout rejects
    with pytest.raises(ValueError):
        normalize_one_row([])


def test_normalize_log_rows_matches_vector_version():
    logw = np.array([[0.0, math.log(3.0)], [-50.0, -50.0]])
    given = logw.copy()
    rows = normalize_log_rows(given)
    # normalized in place
    assert rows is given
    assert rows[0].tolist() == normalize_one_row(logw[0]).tolist()
    assert np.allclose(rows[0], [0.25, 0.75])
    assert np.allclose(rows[1], [0.5, 0.5])


def reference_normalize_2d(logw, transposed):
    """The one-matrix normalizer the flat one replaced, with its row maxima
    taken directly or from the contiguous transpose."""
    logw = logw.copy()
    m = np.ascontiguousarray(logw.T).max(axis=0)[:, None] if transposed else logw.max(axis=1)[:, None]
    logw -= m
    np.maximum(logw, EXP_CLAMP, out=logw)
    np.exp(logw, out=logw)
    np.maximum(logw, PROB_FLOOR, out=logw)
    logw /= logw.sum(axis=1, keepdims=True)
    return logw


@pytest.mark.parametrize("width", [2, 48, 63, 64, 65, 500])
def test_normalize_log_rows_row_max_forms_agree_bitwise(width):
    # the row maxima from np.maximum.reduceat give the bytes of both
    # row-max forms of the one-matrix normalizer, in the one-block matrix
    # form and in the flat form
    gen = np.random.default_rng(width)
    logw = gen.normal(scale=300.0, size=(150, width))
    logw[::7, 1::3] = -np.inf
    for transposed in (False, True):
        expect = reference_normalize_2d(logw, transposed).tobytes()
        assert normalize_log_rows(logw.copy()).tobytes() == expect
        assert normalize_log_rows(logw.reshape(-1).copy(), [logw.shape]).tobytes() == expect


@pytest.mark.parametrize("variant", ["h2h", "t2t"])
def test_normalize_log_rows_one_block_matches_2d_normalizer_on_game_conditionals(monkeypatch, variant):
    # the category conditionals and joint sign weights of real games, both
    # (objects, K) single blocks
    captured = []

    def capture(logw, shapes=None):
        captured.append(logw.copy())
        return normalize_log_rows(logw, shapes)

    monkeypatch.setattr(agents, "normalize_log_rows", capture)
    monkeypatch.setattr(game, "normalize_log_rows", capture)
    hyper = Hyperparams(num_categories=6, num_signs=6)
    config = SyntheticConfig(num_types=6, objects_per_type=10, feature_dim=8, draws_per_modality=5)
    dataset = generate_dataset(config, hyper, (("v", "s", "h"), ("h",)), RngStream(1))
    for mode in ("mh", "gibbs"):
        game.run_game(variant, mode, hyper, dataset, 10, RngStream(2))
    assert len(captured) == 2 * 10 * 2 + 10
    for logw in captured:
        expect = reference_normalize_2d(logw, transposed=True)
        assert normalize_log_rows(logw.copy()).tobytes() == expect.tobytes()
        assert normalize_log_rows(logw.copy(), [logw.shape]).tobytes() == expect.tobytes()


def test_normalize_log_rows_rejects_a_mismatched_layout():
    # _row_layout checks a layout once, when it first meets it; the sizes of
    # the vectors laid out in it are the callers' to keep
    with pytest.raises(ValueError):
        normalize_log_rows(np.zeros(4), [(2, 2), (0, 3)])
    with pytest.raises(ValueError):
        normalize_log_rows(np.zeros(4), [])
    with pytest.raises(ValueError):
        sample_dirichlet_rows(np.ones(2), [(1, 2), (0, 3)], RngStream(seed=0).generator())
