"""Tests for the exchange protocols: acceptance ratios, sign chains, toplines."""
from __future__ import annotations

import copy

import numpy as np
import pytest

import signgame.agents as agents
import signgame.game as game
from conftest import agent_with_tables, counting_draw, frozen_agent, install_blocks, tv_distance
from signgame.agents import (
    AgentModel,
    Hyperparams,
    init_agent,
    posterior_concentrations,
    sample_categories,
    update_parameters,
)
from signgame.datagen import Dataset, SyntheticConfig, generate_dataset
from signgame.game import (
    GameState,
    acceptance_ratio,
    gibbs_word,
    mh_exchange,
    run_game,
)
from signgame.metrics import adjusted_rand_index, kappa
from signgame.stochastic import PROB_FLOOR, RngStream, open_generator, sample_categorical_rows, sample_dirichlet_rows

FULL = ("v", "s", "h")

ROW_A = np.array([0.7, 0.2, 0.1])
ROW_B = np.array([0.1, 0.2, 0.7])
# elementwise product of ROW_A and ROW_B, renormalized by hand:
# [.07, .04, .07] / .18
PRODUCT_TARGET = np.array([7.0, 4.0, 7.0]) / 18.0

SMALL = SyntheticConfig(num_types=4, objects_per_type=5, feature_dim=8, draws_per_modality=10)
SMALL_HYPER = Hyperparams(num_categories=4, num_signs=4)


def small_game(mode, variant="h2h", iterations=4, seed=21):
    dataset = generate_dataset(SMALL, Hyperparams(), (FULL, FULL), RngStream(seed))
    return run_game(variant, mode, SMALL_HYPER, dataset, iterations, RngStream(seed + 100))


def test_acceptance_ratio_hand_values_h2h():
    listener = frozen_agent("h2h", [[0.5, 0.25, 0.25], [0.5, 0.25, 0.25]])
    np.testing.assert_allclose(acceptance_ratio(listener, [0, 2], [1, 2]), [2.0, 1.0], rtol=1e-12)

    skewed = frozen_agent("h2h", [0.1, 0.9])
    assert acceptance_ratio(skewed, [0], [1]) == pytest.approx([1.0 / 9.0], rel=1e-12)


def test_acceptance_ratio_hand_values_t2t():
    listener = frozen_agent("t2t", [0.6, 0.3, 0.1])
    assert acceptance_ratio(listener, [0], [1]) == pytest.approx([2.0], rel=1e-12)

    skewed = frozen_agent("t2t", [[0.5, 0.45, 0.05], [0.5, 0.45, 0.05]])
    np.testing.assert_allclose(acceptance_ratio(skewed, [2, 1], [0, 1]), [0.1, 1.0], rtol=1e-12)


def test_mh_exchange_accepts_everything_against_indifferent_listener():
    speaker = frozen_agent("h2h", [0.2, 0.5, 0.3])
    listener = frozen_agent("h2h", [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0])
    categories_before = listener.categories.copy()
    gen = RngStream(7).generator()
    for _ in range(300):
        proposed, accepted = mh_exchange(speaker, listener, gen)
        assert accepted.tolist() == [True]
        assert listener.signs[0] == proposed[0]
    # proposals never touch the speaker's own store, and only signs move
    assert speaker.signs[0] == 0
    np.testing.assert_array_equal(listener.categories, categories_before)


def test_mh_exchange_never_accepts_against_certain_listener():
    speaker = frozen_agent("h2h", [0.0, 1.0, 0.0])
    listener = frozen_agent("h2h", [1.0, 0.0, 0.0])
    gen = RngStream(8).generator()
    for _ in range(200):
        proposed, accepted = mh_exchange(speaker, listener, gen)
        assert proposed.tolist() == [1]
        assert accepted.tolist() == [False]
        assert listener.signs[0] == 0


@pytest.mark.parametrize("variant", ["h2h", "t2t"])
def test_mh_chain_reaches_product_of_sign_distributions(variant):
    # alternating exchanges with frozen parameters form, per direction, an
    # independence Metropolis chain whose stationary law is the normalized
    # product of the two sign distributions
    speaker = frozen_agent(variant, ROW_A)
    listener = frozen_agent(variant, ROW_B)
    gen = RngStream(11).generator()
    burn, keep = 2000, 60000
    counts = np.zeros((2, 3), dtype=np.int64)
    for step in range(burn + keep):
        mh_exchange(speaker, listener, gen)
        mh_exchange(listener, speaker, gen)
        if step >= burn:
            counts[0, speaker.signs[0]] += 1
            counts[1, listener.signs[0]] += 1
    for empirical in counts / keep:
        assert tv_distance(empirical, PRODUCT_TARGET) < 0.03


@pytest.mark.parametrize("variant", ["h2h", "t2t"])
def test_gibbs_word_draws_from_normalized_product(variant):
    agent_a = frozen_agent(variant, ROW_A)
    agent_b = frozen_agent(variant, ROW_B)
    gen = RngStream(5).generator()
    n = 60000
    counts = np.zeros(3, dtype=np.int64)
    for _ in range(n):
        counts[gibbs_word(agent_a, agent_b, gen)] += 1
    assert tv_distance(counts / n, PRODUCT_TARGET) < 0.01
    assert agent_a.signs[0] == agent_b.signs[0]


def test_gibbs_word_follows_a_certain_agent():
    certain = frozen_agent("h2h", [1.0, 0.0, 0.0])
    spread = frozen_agent("h2h", [0.2, 0.3, 0.5])
    gen = RngStream(6).generator()
    draws = {sign for _ in range(400) for sign in gibbs_word(certain, spread, gen).tolist()}
    assert draws == {0}


def test_run_game_repeats_bit_for_bit():
    state_1, rows_1 = small_game("mh")
    state_2, rows_2 = small_game("mh")
    assert rows_1 == rows_2
    assert len(rows_1) == 4
    assert all(len(row) == 3 for row in rows_1)
    assert all(kap is not None for _, _, kap in rows_1)
    np.testing.assert_array_equal(state_1.agent_a.signs, state_2.agent_a.signs)
    np.testing.assert_array_equal(state_1.agent_b.categories, state_2.agent_b.categories)

    _, single = small_game("mh", iterations=1)
    assert len(single) == 1


def test_all_rejection_keeps_signs_at_initialization():
    state_short, _ = small_game("reject", iterations=1)
    state_long, rows = small_game("reject", iterations=5)
    np.testing.assert_array_equal(state_short.agent_a.signs, state_long.agent_a.signs)
    np.testing.assert_array_equal(state_short.agent_b.signs, state_long.agent_b.signs)
    # frozen signs mean the agreement score cannot move either
    assert len({kap for _, _, kap in rows}) == 1


def test_all_rejection_isolates_the_listener_from_the_speaker():
    base = generate_dataset(SMALL, Hyperparams(), (FULL, FULL), RngStream(3))
    other = generate_dataset(SMALL, Hyperparams(), (FULL, FULL), RngStream(4))
    swapped = Dataset(
        true_type=base.true_type,
        observations=(other.observations[0], base.observations[1]),
        modalities=base.modalities,
    )
    rng = RngStream(77)
    mode = "reject"
    state_base, _ = run_game("h2h", mode, SMALL_HYPER, base, 3, rng)
    state_swap, _ = run_game("h2h", mode, SMALL_HYPER, swapped, 3, rng)
    np.testing.assert_array_equal(state_base.agent_b.categories, state_swap.agent_b.categories)
    np.testing.assert_array_equal(state_base.agent_b.signs, state_swap.agent_b.signs)
    # the swap really reached agent A: its emission posteriors track its data
    assert np.any(state_base.agent_a.log_emissions != state_swap.agent_a.log_emissions)


def test_gibbs_topline_keeps_one_shared_sign_vector():
    state, rows = small_game("gibbs")
    np.testing.assert_array_equal(state.agent_a.signs, state.agent_b.signs)
    assert all(kap is None for _, _, kap in rows)


def test_run_game_rejects_bad_arguments():
    dataset = generate_dataset(SMALL, Hyperparams(), (FULL, FULL), RngStream(0))
    with pytest.raises(ValueError):
        run_game("sideways", "mh", SMALL_HYPER, dataset, 2, RngStream(1))
    with pytest.raises(ValueError):
        run_game("h2h", "shout", SMALL_HYPER, dataset, 2, RngStream(1))
    with pytest.raises(ValueError):
        run_game("h2h", "mh", SMALL_HYPER, dataset, 0, RngStream(1))


def test_direct_construction_rejects_unknown_variant_and_mode():
    # the classes check their own field, so a state built without
    # init_agent or run_game cannot fall back to t2t or to reject
    dataset = generate_dataset(SMALL, Hyperparams(), (FULL, FULL), RngStream(0))
    labels = np.zeros(dataset.num_objects, dtype=np.int64)
    with pytest.raises(ValueError, match="variant"):
        AgentModel("sideways", SMALL_HYPER, FULL, dataset.observations[0], labels, labels.copy())
    agent_a, agent_b = (init_agent("h2h", SMALL_HYPER, FULL, dataset.observations[i], RngStream(i)) for i in (0, 1))
    with pytest.raises(ValueError, match="mode"):
        GameState("MH", agent_a, agent_b)


# Scalar reference: the per-object formulas the array kernels replace
# (cumsum + searchsorted draw, floored ratio, one object per call), read
# off the coupling block each agent was given, in its layout's orientation.


def reference_object_signs(agent, coupling, d):
    c = agent.categories[d]
    if agent.variant == "h2h":
        return coupling[c]
    return coupling[:, c]


def reference_draw(probs, gen):
    cum = np.cumsum(probs)
    idx = int(np.searchsorted(cum, gen.random() * cum[-1], side="right"))
    return min(idx, probs.size - 1)


def reference_ratio(listener, coupling, d, proposed, current):
    c = listener.categories[d]
    if listener.variant == "h2h":
        p_new, p_old = coupling[c, proposed], coupling[c, current]
    else:
        p_new, p_old = coupling[proposed, c], coupling[current, c]
    return float(max(p_new, PROB_FLOOR) / max(p_old, PROB_FLOOR))


def reference_mh(speaker, listener, couplings, d, gen):
    proposed = reference_draw(reference_object_signs(speaker, couplings[0], d), gen)
    current = int(listener.signs[d])
    accepted = bool(gen.random() < min(1.0, reference_ratio(listener, couplings[1], d, proposed, current)))
    if accepted:
        listener.signs[d] = proposed
    return proposed, accepted


def reference_gibbs(agent_a, agent_b, couplings, d, gen):
    pa = reference_object_signs(agent_a, couplings[0], d)
    pb = reference_object_signs(agent_b, couplings[1], d)
    logw = np.log(np.maximum(pa, PROB_FLOOR)) + np.log(np.maximum(pb, PROB_FLOOR))
    p = np.exp(logw - logw.max())
    sign = reference_draw(p / p.sum(), gen)
    agent_a.signs[d] = sign
    agent_b.signs[d] = sign
    return sign


KERNEL_HYPER = Hyperparams(num_categories=6, num_signs=15)
KERNEL_DATA = SyntheticConfig(
    num_types=6, objects_per_type=10, feature_dim=5, draws_per_modality=10
)


def install_coupling(agent, coupling):
    """Hand-set the coupling block, with uniform category weights and
    emissions, which the exchange kernels never read."""
    k, bins = agent.hyper.num_categories, agent.observations.shape[2]
    install_blocks(agent, coupling, np.full(agent.log_emissions.shape, 1 / bins), np.full(k, 1 / k))


def random_agents(variant, seed):
    """Two agents with random categories, signs and couplings, some of them
    sharply peaked so that floored probabilities and certain rejections
    occur; and the two coupling blocks."""
    dataset = generate_dataset(KERNEL_DATA, KERNEL_HYPER, (FULL, FULL), RngStream(seed))
    gen = RngStream(seed).derive(1).generator()
    agents, couplings = [], []
    for i in (0, 1):
        agent = agent_with_tables(variant, KERNEL_HYPER, dataset.modalities[i], dataset.observations[i], RngStream(seed).derive(2, i))
        k, l = KERNEL_HYPER.num_categories, KERNEL_HYPER.num_signs
        rows, width = (k, l) if variant == "h2h" else (l, k)
        coupling = gen.dirichlet(np.full(width, 0.05), size=rows)
        coupling[0, 0] = 0.0
        install_coupling(agent, coupling)
        agent.categories = gen.integers(0, KERNEL_HYPER.num_categories, size=dataset.num_objects)
        agent.signs = gen.integers(0, KERNEL_HYPER.num_signs, size=dataset.num_objects)
        agents.append(agent)
        couplings.append(coupling)
    return agents, couplings


@pytest.mark.parametrize("variant", ["h2h", "t2t"])
def test_object_signs_and_ratios_match_scalar_reference_bitwise(variant):
    # a last-bit difference here almost never flips a draw, so it is checked
    # directly rather than through the drawn signs
    (agent, _), (shaped, _) = random_agents(variant, 6)
    coupling = RngStream(6).generator().dirichlet(np.ones(shaped.shape[1]), size=shaped.shape[0])
    install_coupling(agent, coupling)
    objects = np.arange(agent.categories.size)
    table = agent.sign_table[agent.categories]
    for d in objects:
        assert table[d].tobytes() == reference_object_signs(agent, coupling, d).tobytes()
    # every (object, new, old) triple, one whole-object call per (new, old)
    signs = range(KERNEL_HYPER.num_signs)
    for new in signs:
        for old in signs:
            batched = acceptance_ratio(agent, np.full(objects.size, new), np.full(objects.size, old))
            expected = [reference_ratio(agent, coupling, d, new, old) for d in objects]
            assert batched.tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("variant", ["h2h", "t2t"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mh_exchange_array_call_matches_scalar_reference(variant, seed):
    (speaker, listener), couplings = random_agents(variant, seed)
    objects = np.arange(listener.categories.size)
    ref_speaker, ref_listener = copy.deepcopy(speaker), copy.deepcopy(listener)
    gen, ref_gen = RngStream(seed).generator(), RngStream(seed).generator()

    proposed, accepted = mh_exchange(speaker, listener, gen)
    expected = [reference_mh(ref_speaker, ref_listener, couplings, d, ref_gen) for d in objects]

    np.testing.assert_array_equal(proposed, [sign for sign, _ in expected])
    np.testing.assert_array_equal(accepted, [ok for _, ok in expected])
    np.testing.assert_array_equal(listener.signs, ref_listener.signs)
    np.testing.assert_array_equal(speaker.signs, ref_speaker.signs)
    assert 0 < accepted.sum() < objects.size
    # both consumed exactly two uniforms per object
    assert gen.random() == ref_gen.random()


@pytest.mark.parametrize("variant", ["h2h", "t2t"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_gibbs_word_array_call_matches_scalar_reference(variant, seed):
    (agent_a, agent_b), couplings = random_agents(variant, seed)
    objects = np.arange(agent_a.categories.size)
    ref_a, ref_b = copy.deepcopy(agent_a), copy.deepcopy(agent_b)
    gen, ref_gen = RngStream(seed).generator(), RngStream(seed).generator()

    signs = gibbs_word(agent_a, agent_b, gen)
    expected = [reference_gibbs(ref_a, ref_b, couplings, d, ref_gen) for d in objects]

    np.testing.assert_array_equal(signs, expected)
    np.testing.assert_array_equal(agent_a.signs, ref_a.signs)
    np.testing.assert_array_equal(agent_b.signs, ref_b.signs)
    assert gen.random() == ref_gen.random()


# largest float below 1.0, the largest uniform a Generator returns
U_MAX = 1.0 - 2.0**-53


@pytest.mark.parametrize(
    "weights, u",
    [
        # ties: a cumulative sum equal to u times the total is not above it
        ([1.0, 1.0, 2.0], [0.25, 0.5, 0.75, U_MAX]),
        ([0.5, 0.5], [0.5, 0.0]),
        # u = 0 skips leading zero weights
        ([0.0, 0.0, 3.0], [0.0, 0.5]),
        ([2.0, 1.0], [0.0]),
        # zero weights at the start, middle and end, and an all-zero row
        ([0.0, 2.0, 0.0, 0.0, 3.0, 0.0], [0.0, 0.4, 0.41, 0.999, U_MAX]),
        ([0.0, 0.0, 0.0], [0.0, 0.5, U_MAX]),
        # a total so small that u times it rounds up to it
        ([0.0, 5e-324, 0.0], [0.0, 0.9, U_MAX]),
        # one column
        ([0.7], [0.0, 0.5, U_MAX]),
    ],
)
def test_draw_signs_first_index_matches_counting_edges(weights, u):
    # the sign draw the kernels make, on unnormalized sign weights
    cum = np.tile(np.asarray(weights, dtype=float), (len(u), 1)).cumsum(axis=1)
    u = np.asarray(u)
    assert np.array_equal(game.sample_categorical_rows(cum, u), counting_draw(cum, u))


@pytest.mark.parametrize("variant", ["h2h", "t2t"])
@pytest.mark.parametrize("seed", [4, 5])
def test_per_category_gathers_match_object_tables(variant, seed):
    # the kernels gather per-category tables by category; the object tables
    # they replace give the same bytes and draws
    (speaker, listener), _ = random_agents(variant, seed)
    table = speaker.sign_table[speaker.categories]
    gathered = speaker.sign_table.cumsum(axis=1)[speaker.categories]
    assert gathered.tobytes() == table.cumsum(axis=1).tobytes()
    u = RngStream(seed).generator().random(table.shape[0])
    assert np.array_equal(sample_categorical_rows(gathered, u), counting_draw(table.cumsum(axis=1), u))

    weights = np.maximum(listener.sign_table[listener.categories], PROB_FLOOR)
    rows = np.arange(weights.shape[0])
    new = RngStream(seed).derive(1).generator().integers(0, KERNEL_HYPER.num_signs, size=rows.size)
    expected = weights[rows, new] / weights[rows, listener.signs]
    assert acceptance_ratio(listener, new, listener.signs).tobytes() == expected.tobytes()

    # gibbs_word's two log tables: floored and logged per category, then gathered
    for agent in (speaker, listener):
        objects = np.log(np.maximum(agent.sign_table[agent.categories], PROB_FLOOR))
        assert agent.log_sign_table[agent.categories].tobytes() == objects.tobytes()


@pytest.mark.parametrize("mode, calls", [("mh", {"mh_exchange": 8}), ("reject", {}), ("gibbs", {"gibbs_word": 4})])
def test_run_iteration_makes_one_kernel_call_per_phase(monkeypatch, mode, calls):
    seen = {}
    for name in ("mh_exchange", "gibbs_word"):
        original = getattr(game, name)

        def counted(*args, name=name, original=original):
            seen[name] = seen.get(name, 0) + 1
            assert isinstance(args[2], np.random.Generator)
            return original(*args)

        monkeypatch.setattr(game, name, counted)
    small_game(mode, iterations=4)
    assert seen == calls


@pytest.mark.parametrize(
    "mode, opened",
    [
        ("mh", [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]),
        ("reject", [(0, 0), (0, 1), (1, 0), (1, 1)]),
        ("gibbs", [(0, 0), (0, 1), (1, 0), (1, 1), (2, 3)]),
    ],
)
def test_run_iteration_opens_exactly_its_phase_generators(monkeypatch, mode, opened):
    # the (slot, phase) entries one iteration opens, in order: at most 6 of its 12
    state = small_game(mode, iterations=1)[0]
    seeds = game._game_seeds(RngStream(5), 1)[0]
    entries = {seeds[index].tobytes(): index for index in np.ndindex(seeds.shape[:2])}
    seen = []

    def spy(words):
        seen.append(entries[words.tobytes()])
        return open_generator(words)

    monkeypatch.setattr(game, "open_generator", spy)
    game.run_iteration(state, seeds)
    assert seen == opened


@pytest.mark.parametrize(
    "mode, drawn",
    [
        # (what, agent slot, stream): B's initial tables come before A first speaks to B
        (
            "mh",
            [("update", 1, "init 1"), ("update", 0, "iteration 0"), ("speak", 0), ("update", 1, "iteration 1"), ("speak", 1)],
        ),
        ("reject", [("update", 0, "iteration 0"), ("update", 1, "iteration 1")]),
        ("gibbs", [("update", 0, "iteration 0"), ("update", 1, "iteration 1")]),
    ],
)
def test_run_game_draws_only_the_initial_tables_it_reads(monkeypatch, mode, drawn):
    # each iteration redraws a speaker's tables before it reads them, so the
    # one initial set a game reads is B's under "mh"; its stream, beside B's
    # assignment stream, keeps the games' output bytes
    rng = RngStream(121)
    streams = {}
    for slot in (0, 1):
        for name, stream in (("init", rng.derive(game._STREAM_INIT, slot, 1)), ("iteration", rng.derive(1, 0, slot, 0))):
            streams[repr(stream.generator().bit_generator.state)] = f"{name} {slot}"
    made, seen = [], []

    def slot_of(agent):
        return next(i for i, other in enumerate(made) if other is agent)

    def fresh(*args):
        agent = init_agent(*args)
        # a fresh agent holds no tables
        assert agent.sign_table is agent.log_sign_table is agent.log_category_prior is agent.log_emissions is None
        made.append(agent)
        return agent

    def update(agent, gen):
        seen.append(("update", slot_of(agent), streams.get(repr(gen.bit_generator.state), "other")))
        update_parameters(agent, gen)

    def speak(speaker, listener, gen):
        seen.append(("speak", slot_of(speaker)))
        return mh_exchange(speaker, listener, gen)

    monkeypatch.setattr(game, "init_agent", fresh)
    monkeypatch.setattr(game, "update_parameters", update)
    monkeypatch.setattr(game, "mh_exchange", speak)
    dataset = generate_dataset(SMALL, Hyperparams(), (FULL, FULL), RngStream(21))
    run_game("h2h", mode, SMALL_HYPER, dataset, 1, rng)
    assert len(made) == 2
    assert seen == drawn


@pytest.mark.parametrize("variant", ["h2h", "t2t"])
@pytest.mark.parametrize("mode", ["mh", "reject", "gibbs"])
def test_every_dirichlet_draw_reads_a_fresh_count_whether_recounted_or_kept(monkeypatch, variant, mode):
    # update_parameters recounts an agent's concentrations only when its
    # categories or signs differ in value from the last count's; each draw
    # must still read, bit for bit, what a count at that moment gives
    updating, recounted = [], []

    def update(agent, gen):
        updating.append(agent)
        update_parameters(agent, gen)

    def recount(agent):
        recounted.append(agent)
        return posterior_concentrations(agent)

    def draw(conc, shapes, gen):
        assert not conc.flags.writeable
        assert conc.tobytes() == posterior_concentrations(updating[-1]).tobytes()
        return sample_dirichlet_rows(conc, shapes, gen)

    monkeypatch.setattr(game, "update_parameters", update)
    monkeypatch.setattr(agents, "posterior_concentrations", recount)
    monkeypatch.setattr(agents, "sample_dirichlet_rows", draw)
    small_game(mode, variant, iterations=30)
    # some updates keep the last count
    assert 0 < len(recounted) < len(updating)


def test_game_seeds_open_every_phase_stream():
    # every [iteration, slot, phase] entry of a game's seed table opens
    # rng.derive(_STREAM_ITERATION, iteration, slot, phase).generator()
    for rng in (RngStream(2**40 + 9, 5), RngStream(3, 2**32 + 7)):
        seeds = game._game_seeds(rng, 130)
        assert seeds.shape == (130, 3, 4, 4)
        for (it, slot, phase), words in zip(np.ndindex(seeds.shape[:3]), seeds.reshape(-1, 4)):
            expect = rng.derive(game._STREAM_ITERATION, it, slot, phase).generator()
            assert open_generator(words).bit_generator.state == expect.bit_generator.state


def test_game_seeds_keeps_the_last_table_read_only():
    # the six games of a trial reuse one table, so none may write to it,
    # and a change of rng or of iterations builds the table afresh
    a, b = RngStream(3, 4), RngStream(5, 6)
    for rng, iterations in ((a, 7), (b, 7), (a, 9)):
        table = game._game_seeds(rng, iterations)
        expect = rng.seed_table(game._STREAM_ITERATION, *np.ogrid[:iterations, : game._SLOT_JOINT + 1, : game._PHASE_JOINT + 1])
        np.testing.assert_array_equal(table, expect)
        assert game._game_seeds(rng, iterations) is table
        with pytest.raises(ValueError):
            table[0, 0, 0, 0] = 0


def reference_game(variant, mode, dataset, iterations, rng):
    """The game loop with one SeedSequence-hashed stream per phase and
    scalar metrics after every iteration. Both agents start with tables,
    though the game reads only B's, under "mh"."""
    agents = [
        agent_with_tables(variant, SMALL_HYPER, dataset.modalities[slot], dataset.observations[slot], rng.derive(0, slot))
        for slot in (0, 1)
    ]
    rows = []
    for it in range(iterations):
        for slot, (speaker, listener) in enumerate((agents, agents[::-1])):
            update_parameters(speaker, rng.derive(1, it, slot, 0).generator())
            sample_categories(speaker, rng.derive(1, it, slot, 1).generator())
            if mode == "mh":
                mh_exchange(speaker, listener, rng.derive(1, it, slot, 2).generator())
        if mode == "gibbs":
            gibbs_word(*agents, rng.derive(1, it, 2, 3).generator())
        a, b = agents
        rows.append(
            (
                adjusted_rand_index([a.categories], dataset.true_type)[0],
                adjusted_rand_index([b.categories], dataset.true_type)[0],
                None if mode == "gibbs" else kappa([a.signs], [b.signs], SMALL_HYPER.num_signs)[0],
            )
        )
    return agents, rows


@pytest.mark.parametrize("variant", ["h2h", "t2t"])
@pytest.mark.parametrize("mode", ["mh", "reject", "gibbs"])
def test_run_game_across_seed_blocks_matches_per_phase_streams(variant, mode):
    iterations = 66
    dataset = generate_dataset(SMALL, Hyperparams(), (FULL, FULL), RngStream(8))
    rng = RngStream(2**33 + 1, 12)
    state, rows = run_game(variant, mode, SMALL_HYPER, dataset, iterations, rng)
    agents, expect = reference_game(variant, mode, dataset, iterations, rng)
    assert rows == expect
    for agent, ref in zip((state.agent_a, state.agent_b), agents):
        np.testing.assert_array_equal(agent.categories, ref.categories)
        np.testing.assert_array_equal(agent.signs, ref.signs)
        np.testing.assert_array_equal(agent.sign_table, ref.sign_table)
