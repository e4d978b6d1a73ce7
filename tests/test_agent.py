"""Tests for one agent's state: conjugate updates and category draws."""
from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.stats import chi2

import signgame.agents as agents
import signgame.stochastic as stochastic
from conftest import agent_with_tables, install_blocks, solo_gibbs_fit
from signgame.agents import (
    AgentModel,
    EmissionConcentration,
    Hyperparams,
    init_agent,
    install_parameters,
    observation_log_likelihood,
    posterior_concentrations,
    sample_categories,
    update_parameters,
)
from signgame.datagen import SyntheticConfig, generate_dataset
from signgame.metrics import adjusted_rand_index
from signgame.game import GameState, _game_seeds, acceptance_ratio, run_game, run_iteration
from signgame.stochastic import (
    PROB_FLOOR,
    RngStream,
    normalize_log_rows,
    sample_categorical_rows,
    sample_dirichlet_rows,
)

FULL = ("v", "s", "h")


def full_dataset(seed=0):
    return generate_dataset(SyntheticConfig(), Hyperparams(), (FULL, FULL), RngStream(seed))


def tiny_agent(variant, coupling, emissions, signs, num_categories=2, category_weights=None, histograms=None):
    """An agent with pinned parameters for enumerable category draws, over
    one modality's histograms, one row per object (zero counts by default)."""
    coupling = np.asarray(coupling, dtype=float)
    emissions = np.asarray(emissions, dtype=float)
    num_signs = coupling.shape[1] if variant == "h2h" else coupling.shape[0]
    signs = np.asarray(signs, dtype=np.int64)
    if histograms is None:
        histograms = np.zeros((signs.size, emissions.shape[1]))
    agent = AgentModel(
        variant=variant,
        hyper=Hyperparams(num_categories=num_categories, num_signs=num_signs),
        modalities=("v",),
        observations=np.asarray(histograms, dtype=np.float64)[None],
        categories=np.zeros(signs.size, dtype=np.int64),
        signs=signs,
    )
    if category_weights is None:
        category_weights = np.full(num_categories, 1.0 / num_categories)
    return install_blocks(agent, coupling, [emissions], category_weights)


def blocks(agent, flat):
    """A flat vector in the agent's layout, split into its named blocks;
    "emissions" stacks the emission blocks."""
    names = ["category_weights"] if agent.variant == "h2h" else []
    names += ["coupling"] + [f"emissions.{m}" for m in agent.modalities]
    out = {name: flat[s].reshape(shape) for name, s, shape in zip(names, agent.slices, agent.shapes)}
    if agent.variant == "h2h":
        out["category_weights"] = out["category_weights"][0]
    out["emissions"] = np.stack([out[f"emissions.{m}"] for m in agent.modalities])
    return out


@pytest.fixture
def installed(monkeypatch):
    """The flat vectors that update_parameters gives install_parameters from
    here on, in order: the Dirichlet draws the agent's tables view."""
    vectors = []
    install = agents.install_parameters

    def capture(agent, probs):
        vectors.append(probs)
        install(agent, probs)

    monkeypatch.setattr(agents, "install_parameters", capture)
    return vectors


def test_init_agent_ranges_and_determinism():
    data = full_dataset()
    agent = init_agent("h2h", Hyperparams(), data.modalities[0], data.observations[0], RngStream(9))
    assert agent.categories.shape == (150,)
    assert agent.signs.shape == (150,)
    assert agent.categories.min() >= 0 and agent.categories.max() < 15
    assert agent.signs.min() >= 0 and agent.signs.max() < 15
    assert agent.shapes == ((1, 15), (15, 15)) + ((15, 20),) * 3
    # the agent holds the dataset's stack itself, read-only
    assert agent.observations is data.observations[0]
    assert not agent.observations.flags.writeable

    again = init_agent("h2h", Hyperparams(), data.modalities[0], data.observations[0], RngStream(9))
    assert np.array_equal(agent.categories, again.categories)
    assert np.array_equal(agent.signs, again.signs)

    t2t = init_agent("t2t", Hyperparams(), data.modalities[1], data.observations[1], RngStream(9))
    # no category weights block: the layout opens with the L x K coupling
    assert t2t.shapes == ((15, 15),) + ((15, 20),) * 3
    # no tables until the first update draws them
    for fresh in (agent, t2t):
        assert fresh.sign_table is fresh.log_sign_table is fresh.log_category_prior is fresh.log_emissions is None
        update_parameters(fresh, RngStream(10).generator())
        assert fresh.sign_table.shape == fresh.log_sign_table.shape == fresh.log_category_prior.shape == (15, 15)
        assert fresh.log_emissions.shape == (3, 15, 20)


def test_init_agent_validation():
    data = full_dataset()
    with pytest.raises(ValueError):
        init_agent("x2x", Hyperparams(), data.modalities[0], data.observations[0], RngStream(0))


def test_initial_categories_uniform_over_seeds():
    data = full_dataset()
    counts = np.zeros(15, dtype=np.int64)
    for seed in range(100):
        agent = init_agent("h2h", Hyperparams(), data.modalities[0], data.observations[0], RngStream(seed))
        counts += np.bincount(agent.categories, minlength=15)
    total = counts.sum()
    expected = total / 15
    statistic = float(((counts - expected) ** 2 / expected).sum())
    assert statistic < chi2.ppf(0.999, df=14)


def test_h2h_category_conditional_hand_example():
    # uniform prior and sign factors cancel; the likelihood ratio alone
    # gives P(c=0) = 0.81 / 0.82
    n = 20000
    agent = tiny_agent(
        "h2h",
        coupling=[[0.5, 0.5], [0.5, 0.5]],
        emissions=[[0.9, 0.1], [0.1, 0.9]],
        signs=np.zeros(n, dtype=np.int64),
        histograms=np.tile([2, 0], (n, 1)),
    )
    draws = sample_categories(agent, RngStream(31).generator())
    freq = float(np.mean(draws == 0))
    assert freq == pytest.approx(0.81 / 0.82, abs=5e-3)


def test_t2t_category_conditional_hand_example():
    n = 20000
    agent = tiny_agent(
        "t2t",
        coupling=[[0.5, 0.5], [0.5, 0.5]],
        emissions=[[0.9, 0.1], [0.1, 0.9]],
        signs=np.zeros(n, dtype=np.int64),
        histograms=np.tile([2, 0], (n, 1)),
    )
    draws = sample_categories(agent, RngStream(32).generator())
    freq = float(np.mean(draws == 0))
    assert freq == pytest.approx(0.81 / 0.82, abs=5e-3)


def test_uniform_parameters_give_uniform_categories():
    n = 30000
    agent = tiny_agent(
        "h2h",
        coupling=np.full((3, 2), 0.5),
        emissions=np.full((3, 2), 0.5),
        signs=np.zeros(n, dtype=np.int64),
        num_categories=3,
        category_weights=np.full(3, 1 / 3),
        histograms=np.tile([1, 1], (n, 1)),
    )
    draws = sample_categories(agent, RngStream(33).generator())
    freqs = np.bincount(draws, minlength=3) / n
    assert np.max(np.abs(freqs - 1 / 3)) < 0.01


def test_sign_factor_dominates_identical_likelihoods():
    n = 4000
    agent = tiny_agent(
        "h2h",
        coupling=[[1.0, 0.0], [0.0, 1.0]],
        emissions=[[0.5, 0.5], [0.5, 0.5]],
        signs=np.zeros(n, dtype=np.int64),
        histograms=np.tile([1, 1], (n, 1)),
    )
    draws = sample_categories(agent, RngStream(34).generator())
    assert np.all(draws == 0)


def test_t2t_degenerate_prior_row_pins_category():
    n = 4000
    agent = tiny_agent(
        "t2t",
        coupling=[[1.0, 0.0], [0.5, 0.5]],
        emissions=[[0.5, 0.5], [0.5, 0.5]],
        signs=np.zeros(n, dtype=np.int64),
        histograms=np.tile([1, 1], (n, 1)),
    )
    draws = sample_categories(agent, RngStream(35).generator())
    assert np.all(draws == 0)


def test_posterior_concentrations_exact_bookkeeping():
    agent = tiny_agent(
        "h2h",
        coupling=np.full((2, 3), 1 / 3),
        emissions=[[0.5, 0.5], [0.5, 0.5]],
        signs=[0, 2, 2, 1],
        histograms=[[1, 1], [2, 0], [0, 2], [1, 1]],
    )
    agent.categories = np.array([0, 0, 1, 1])
    conc = blocks(agent, posterior_concentrations(agent))
    gamma = agent.hyper.category_concentration
    alpha = agent.hyper.coupling_concentration
    beta = agent.hyper.emission_concentration.v
    np.testing.assert_array_equal(conc["category_weights"], [gamma + 2, gamma + 2])
    np.testing.assert_array_equal(
        conc["coupling"],
        [[alpha + 1, alpha, alpha + 1], [alpha, alpha + 1, alpha + 1]],
    )
    np.testing.assert_array_equal(conc["emissions.v"], [[beta + 3, beta + 1], [beta + 1, beta + 3]])


def test_posterior_concentrations_t2t_orientation():
    agent = tiny_agent(
        "t2t",
        coupling=np.full((3, 2), 0.5),
        emissions=[[0.5, 0.5], [0.5, 0.5]],
        signs=[0, 2, 2, 1],
        histograms=[[1, 1], [2, 0], [0, 2], [1, 1]],
    )
    agent.categories = np.array([0, 0, 1, 1])
    conc = blocks(agent, posterior_concentrations(agent))
    alpha = agent.hyper.coupling_concentration
    np.testing.assert_array_equal(
        conc["coupling"],
        [[alpha + 1, alpha], [alpha, alpha + 1], [alpha + 1, alpha + 1]],
    )


@pytest.mark.parametrize(
    "variant, modalities",
    [("h2h", FULL), ("t2t", FULL), ("h2h", ("s", "h"))],
    ids=["h2h", "t2t", "h2h-masked"],
)
def test_log_views_are_the_floored_logs_of_the_parameters(variant, modalities, installed):
    data = generate_dataset(SyntheticConfig(), Hyperparams(), (modalities, FULL), RngStream(5))
    agent = agent_with_tables(variant, Hyperparams(), data.modalities[0], data.observations[0], RngStream(6))
    assert agent.log_emissions.shape == (len(modalities), 15, 20)
    floored = 0
    for step in range(4):
        if step:
            sample_categories(agent, RngStream(7).derive(step, 0).generator())
            update_parameters(agent, RngStream(7).derive(step, 1).generator())
        probs = installed[-1]
        drawn, logs = blocks(agent, probs), blocks(agent, np.log(np.maximum(probs, PROB_FLOOR)))
        # the h2h coupling, or the t2t coupling transposed
        orient = (lambda table: table) if variant == "h2h" else np.transpose
        assert agent.sign_table.tobytes() == orient(drawn["coupling"]).tobytes()
        assert agent.log_sign_table.tobytes() == orient(logs["coupling"]).tobytes()
        assert agent.log_emissions.tobytes() == logs["emissions"].tobytes()
        floored += np.count_nonzero(probs < PROB_FLOOR)
    # some entries sit below the floor, so the floor is exercised
    assert floored > 0
    # normalize_log_rows needs a finite maximum in every row, and the floor
    # is what guarantees it: zero the coupling row and column that every
    # object's sign selects and a whole emission row, and every log-weight
    # of the category conditional and of gibbs_word's summed table stays
    # finite
    drawn = blocks(agent, installed[-1])
    weights = [drawn["category_weights"]] if variant == "h2h" else []
    coupling, emissions = drawn["coupling"].copy(), drawn["emissions"].copy()
    coupling[0] = coupling[:, 0] = 0.0
    emissions[0, 0] = 0.0
    install_blocks(agent, coupling, emissions, *weights)
    agent.signs[:] = 0
    logw = observation_log_likelihood(agent) + agent.log_category_prior[agent.signs]
    joint = 2 * agent.log_sign_table[agent.categories]
    for table in (logw, joint):
        assert np.all(np.isfinite(table))


def test_update_parameters_rows_are_distributions(installed):
    data = full_dataset()
    for variant in ("h2h", "t2t"):
        agent = init_agent(variant, Hyperparams(), data.modalities[0], data.observations[0], RngStream(3))
        update_parameters(agent, RngStream(4).generator())
        drawn = blocks(agent, installed[-1])
        if variant == "h2h":
            np.testing.assert_allclose(drawn["category_weights"].sum(), 1.0, atol=1e-9)
        np.testing.assert_allclose(drawn["coupling"].sum(axis=1), 1.0, atol=1e-9)
        assert drawn["emissions"].shape == (3, 15, 20)
        np.testing.assert_allclose(drawn["emissions"].sum(axis=2), 1.0, atol=1e-9)
        assert np.all(drawn["emissions"] > 0)


def test_category_weight_posterior_mean_matches_conjugacy(installed):
    # counts [3, 7] with gamma=0.01 give Dirichlet(3.01, 7.01), whose mean
    # is [0.3004..., 0.6995...]
    agent = tiny_agent(
        "h2h",
        coupling=np.full((2, 2), 0.5),
        emissions=[[0.5, 0.5], [0.5, 0.5]],
        signs=np.zeros(10, dtype=np.int64),
        histograms=np.ones((10, 2), dtype=np.int64),
    )
    agent.categories = np.array([0] * 3 + [1] * 7)
    conc = blocks(agent, posterior_concentrations(agent))
    np.testing.assert_allclose(conc["category_weights"], [3.01, 7.01])

    total = np.zeros(2)
    draws = 30000
    gen = RngStream(77).generator()
    for _ in range(draws):
        update_parameters(agent, gen)
        total += blocks(agent, installed.pop())["category_weights"]
    np.testing.assert_allclose(total / draws, [3.01 / 10.02, 7.01 / 10.02], atol=5e-3)


def test_empty_category_keeps_valid_rows(installed):
    agent = tiny_agent(
        "h2h",
        coupling=np.full((2, 2), 0.5),
        emissions=[[0.5, 0.5], [0.5, 0.5]],
        signs=[0, 0],
        histograms=[[2, 0], [0, 2]],
    )
    agent.categories = np.array([0, 0])  # category 1 empty
    update_parameters(agent, RngStream(8).generator())
    drawn = blocks(agent, installed[-1])
    np.testing.assert_allclose(drawn["coupling"].sum(axis=1), 1.0, atol=1e-9)
    np.testing.assert_allclose(drawn["emissions.v"].sum(axis=1), 1.0, atol=1e-9)
    assert np.all(drawn["emissions.v"][1] > 0)


def test_category_log_prior_hand_values():
    # h2h: category weight times the chance the category emits the sign
    h2h = tiny_agent("h2h", [[0.6, 0.4], [0.3, 0.7]], [[0.5, 0.5], [0.5, 0.5]], [0, 1], category_weights=[0.25, 0.75])
    np.testing.assert_allclose(
        np.exp(h2h.log_category_prior[h2h.signs]), [[0.25 * 0.6, 0.75 * 0.3], [0.25 * 0.4, 0.75 * 0.7]], rtol=1e-12
    )
    # t2t: the sign's row over categories
    t2t = tiny_agent("t2t", [[0.9, 0.1], [0.2, 0.8]], [[0.5, 0.5], [0.5, 0.5]], [1, 0, 1])
    np.testing.assert_allclose(
        np.exp(t2t.log_category_prior[t2t.signs]), [[0.2, 0.8], [0.9, 0.1], [0.2, 0.8]], rtol=1e-12
    )


def hand_set(variant):
    """A tiny agent of 2 categories and 3 signs, with a zero in its
    coupling, and the flat vector installed in it."""
    agent = tiny_agent(variant, np.full((2, 3) if variant == "h2h" else (3, 2), 0.5), [[0.5, 0.5], [0.9, 0.1]], [0, 2, 1])
    coupling = [[0.6, 0.4, 0.0], [0.1, 0.2, 0.7]] if variant == "h2h" else [[0.7, 0.3], [0.0, 1.0], [0.4, 0.6]]
    front = [[0.25, 0.75]] if variant == "h2h" else []
    probs = np.concatenate([np.ravel(b) for b in front + [coupling, [[0.5, 0.5], [0.9, 0.1]]]])
    install_parameters(agent, probs)
    return agent, probs


def test_log_category_prior_h2h_adds_the_log_weights_to_the_log_coupling_columns():
    agent, probs = hand_set("h2h")
    logs = blocks(agent, np.log(np.maximum(probs, PROB_FLOOR)))
    expected = logs["coupling"].T + logs["category_weights"]
    assert agent.log_category_prior.shape == (3, 2)
    assert agent.log_category_prior.tobytes() == expected.tobytes()


def test_log_category_prior_t2t_is_the_log_coupling_block():
    agent, probs = hand_set("t2t")
    logs = blocks(agent, np.log(np.maximum(probs, PROB_FLOOR)))
    assert agent.log_category_prior.shape == (3, 2)
    assert agent.log_category_prior.tobytes() == logs["coupling"].tobytes()
    # its rows are the log sign table's columns, one buffer
    assert np.shares_memory(agent.log_category_prior, agent.log_sign_table)


@pytest.mark.parametrize("variant", ["h2h", "t2t"])
def test_sign_tables_view_the_vector_and_its_logs(variant):
    agent, probs = hand_set(variant)
    assert agent.sign_table.shape == agent.log_sign_table.shape == (2, 3)
    assert np.shares_memory(agent.sign_table, probs)
    # the log tables view one buffer of the vector's floored logs
    logs = agent.log_emissions.base
    assert logs.tobytes() == np.log(np.maximum(probs, PROB_FLOOR)).tobytes()
    assert np.shares_memory(agent.log_sign_table, logs)
    # the zero coupling entry is floored before its log
    assert np.count_nonzero(agent.sign_table == 0.0) == 1
    assert agent.log_sign_table[agent.sign_table == 0.0].tolist() == [np.log(PROB_FLOOR)]


def test_sign_table_h2h_reads_coupling_row():
    agent = tiny_agent(
        "h2h",
        coupling=[[0.7, 0.2, 0.1], [0.1, 0.2, 0.7]],
        emissions=[[0.5, 0.5], [0.5, 0.5]],
        signs=[0],
    )
    agent.categories = np.array([1])
    np.testing.assert_allclose(agent.sign_table[agent.categories], [[0.1, 0.2, 0.7]])


def test_sign_table_t2t_reads_raw_column():
    agent = tiny_agent(
        "t2t",
        coupling=[[0.2, 0.8], [0.6, 0.4], [0.2, 0.8]],
        emissions=[[0.5, 0.5], [0.5, 0.5]],
        signs=[0, 0],
    )
    agent.categories = np.array([0, 1])
    # the column of each object's category, not normalized over signs
    assert agent.sign_table[agent.categories].tolist() == [[0.2, 0.6, 0.2], [0.8, 0.4, 0.8]]
    agent.categories = np.array([1, 0])
    assert agent.sign_table[agent.categories].tolist() == [[0.8, 0.4, 0.8], [0.2, 0.6, 0.2]]


def side_by_side(agent):
    """The agent's histograms side by side in one float matrix, and each
    modality's column slice of it."""
    blocks = list(agent.observations)
    stops = np.cumsum([block.shape[1] for block in blocks])
    columns = [slice(stop - block.shape[1], stop) for stop, block in zip(stops, blocks)]
    return np.concatenate(blocks, axis=1, dtype=np.float64), columns


def reference_emission_counts(agent):
    """The per-modality count loop the stacked product replaced: one
    (K, bins) product per modality over its columns."""
    obs, columns = side_by_side(agent)
    onehot = np.eye(agent.hyper.num_categories)[agent.categories]
    return np.stack([onehot.T @ obs[:, cols] for cols in columns])


def reference_observation_log_likelihood(agent):
    """The per-modality likelihood loop the stacked product replaced: one
    product per modality, added in the stack's row order."""
    obs, columns = side_by_side(agent)
    first, *rest = zip(columns, agent.log_emissions)
    ll = obs[:, first[0]] @ first[1].T
    for cols, log_emission in rest:
        ll += obs[:, cols] @ log_emission.T
    return ll


@pytest.mark.parametrize("bins", [8, 20, 500])
@pytest.mark.parametrize("names", [("h",), ("v", "s"), ("v", "s", "h")], ids=["1", "2", "3"])
@pytest.mark.parametrize("variant", ["h2h", "t2t"])
def test_stacked_counts_and_likelihood_match_per_modality_loops_bitwise(variant, names, bins):
    config = SyntheticConfig(num_types=6, objects_per_type=5, feature_dim=bins, draws_per_modality=bins)
    data = generate_dataset(config, Hyperparams(), (names, FULL), RngStream(bins))
    agent = agent_with_tables(variant, Hyperparams(num_categories=6, num_signs=6), names, data.observations[0], RngStream(1))
    for step in range(4):
        conc = posterior_concentrations(agent)
        # the emission blocks end the layout
        counts = reference_emission_counts(agent).reshape(-1)
        assert np.array_equal(conc[-counts.size :], agent.prior[-counts.size :] + counts)
        ll = observation_log_likelihood(agent)
        assert np.array_equal(ll, reference_observation_log_likelihood(agent))
        update_parameters(agent, RngStream(2).derive(step, 0).generator())
        sample_categories(agent, RngStream(2).derive(step, 1).generator())


def test_observation_log_likelihood_hand_values():
    # hand-computed: an empty histogram, counts on one feature, a fair split
    agent = tiny_agent("t2t", [[1.0, 1.0]], [[0.5, 0.5], [0.9, 0.1]], [0, 0, 0], histograms=[[0, 0], [2, 0], [1, 1]])
    ll = observation_log_likelihood(agent)
    assert ll.shape == (3, 2)
    assert ll[0].tolist() == [0.0, 0.0]
    assert math.isclose(ll[1, 1], 2 * math.log(0.9), rel_tol=1e-12)
    assert math.isclose(ll[2, 0], 2 * math.log(0.5), rel_tol=1e-12)


def test_observation_log_likelihood_floors_zero_probability():
    agent = tiny_agent("t2t", [[1.0]], [[1.0, 0.0]], [0, 0], num_categories=1, histograms=[[3, 0], [0, 1]])
    ll = observation_log_likelihood(agent)
    # a zero-probability feature with zero count contributes nothing
    assert ll[0, 0] == 0.0
    # with a positive count it contributes the floored log, still finite
    assert np.isfinite(ll[1, 0])
    assert ll[1, 0] < -600


def test_masked_modalities_contribute_nothing(installed):
    config = SyntheticConfig()
    full = generate_dataset(config, Hyperparams(), (FULL, FULL), RngStream(55))
    # same draws, but agent A is masked to v only: its stack is full's v row
    masked = generate_dataset(config, Hyperparams(), (("v",), FULL), RngStream(55))
    assert np.array_equal(masked.observations[0], full.observations[0][:1])
    one = init_agent("h2h", Hyperparams(), masked.modalities[0], masked.observations[0], RngStream(56))
    two = init_agent("h2h", Hyperparams(), ("v",), full.observations[0][:1], RngStream(56))
    for _ in range(3):
        update_parameters(one, RngStream(57).generator())
        update_parameters(two, RngStream(57).generator())
        sample_categories(one, RngStream(58).generator())
        sample_categories(two, RngStream(58).generator())
    assert np.array_equal(one.categories, two.categories)
    # the last Dirichlet draws of one and of two
    np.testing.assert_array_equal(installed[-2], installed[-1])


def test_two_applications_leave_category_distribution_invariant():
    # the draw is an exact conditional, so a second application with frozen
    # parameters must not shift the distribution
    n = 100000
    agent = tiny_agent(
        "h2h",
        coupling=[[0.6, 0.4], [0.3, 0.7]],
        emissions=[[0.8, 0.2], [0.4, 0.6]],
        signs=np.zeros(n, dtype=np.int64),
        category_weights=[0.55, 0.45],
        histograms=np.tile([2, 1], (n, 1)),
    )
    once = np.bincount(sample_categories(agent, RngStream(60).generator()), minlength=2) / n
    twice = np.bincount(sample_categories(agent, RngStream(61).generator()), minlength=2) / n
    assert np.abs(once - twice).sum() / 2 < 0.01
    # and both match the enumerated conditional
    w0 = 0.55 * (0.8**2 * 0.2) * 0.6
    w1 = 0.45 * (0.4**2 * 0.6) * 0.3
    exact = np.array([w0, w1]) / (w0 + w1)
    assert np.abs(once - exact).sum() / 2 < 0.01


def pinned_draw(cum, u):
    """The category draw before the threshold scaled with the row total:
    the first cumulative sum at or above u, with the last sum pinned to 1.0."""
    cum = cum.copy()
    cum[:, -1] = 1.0
    return (cum >= u[:, None]).argmax(axis=1)


@pytest.mark.parametrize("variant", ["h2h", "t2t"])
def test_category_draws_match_the_pinned_rule_on_game_conditionals(monkeypatch, variant):
    # a normalized row sums to 1 within a few ulps, so scaling u by the total
    # and breaking ties the other way can move a draw only when u lies
    # within a few ulps of a cumulative sum
    captured = []

    def capture(cum, u):
        captured.append(cum.copy())
        return sample_categorical_rows(cum, u)

    monkeypatch.setattr(stochastic, "sample_categorical_rows", capture)
    hyper = Hyperparams(num_categories=6, num_signs=6)
    config = SyntheticConfig(num_types=6, objects_per_type=10, feature_dim=8, draws_per_modality=2)
    dataset = generate_dataset(config, hyper, (FULL, ("v",)), RngStream(1))
    run_game(variant, "mh", hyper, dataset, 20, RngStream(2))
    cum = np.concatenate(captured)
    assert cum.shape == (2 * 20 * dataset.num_objects, 6)
    # conditionals away from one-hot, where a threshold falls inside a row
    assert np.mean(np.diff(cum, axis=1, prepend=0.0).max(axis=1) < 0.99) > 0.1
    gen = np.random.default_rng(3)
    draws = 0
    while draws < 200_000:
        u = gen.random(cum.shape[0])
        assert np.array_equal(sample_categorical_rows(cum, u), pinned_draw(cum, u))
        draws += u.size


def test_single_agent_fit_recovers_types_on_most_seeds():
    # no communication, signs frozen at their random initialization: the
    # observations alone should support a good clustering on most seeds
    wins = 0
    for seed in range(10):
        data = full_dataset(seed=seed)
        agent = init_agent("h2h", Hyperparams(), data.modalities[0], data.observations[0], RngStream(seed).derive(1))
        rng = RngStream(seed).derive(2)
        for it in range(300):
            step = rng.derive(it)
            update_parameters(agent, step.derive(0).generator())
            sample_categories(agent, step.derive(1).generator())
        if adjusted_rand_index([agent.categories], data.true_type)[0] >= 0.75:
            wins += 1
    assert wins >= 8


@pytest.mark.parametrize(
    "cls, kwargs",
    [
        (Hyperparams, {"coupling_concentration": float("inf")}),
        (Hyperparams, {"coupling_concentration": float("nan")}),
        (Hyperparams, {"category_concentration": float("nan")}),
        (Hyperparams, {"category_concentration": 0.0}),
        (EmissionConcentration, {"v": float("inf")}),
        (EmissionConcentration, {"s": float("nan")}),
        (EmissionConcentration, {"h": -1.0}),
        # log1p(-u) / 1e-310 overflows to -inf and turns a Dirichlet row to NaN
        (EmissionConcentration, {"v": 1e-310}),
        (Hyperparams, {"coupling_concentration": 1e-310}),
    ],
)
def test_hyperparams_reject_non_finite_or_non_positive_concentrations(cls, kwargs):
    with pytest.raises(ValueError, match="finite and at least 1e-300"):
        cls(**kwargs)


def test_smallest_accepted_concentration_draws_finite_rows():
    hyper = Hyperparams(coupling_concentration=1e-300, emission_concentration=EmissionConcentration(v=1e-300))
    alpha = np.full(50 * 20, hyper.emission_concentration.v)
    rows = sample_dirichlet_rows(alpha, [(50, 20)], RngStream(seed=1).generator()).reshape(50, 20)
    assert np.all(rows > 0) and np.allclose(rows.sum(axis=1), 1.0)


def frozen_pair(sign_marginal, seed=7):
    """An h2h and a t2t agent over one histogram stack, with equal emissions,
    categories and signs, whose couplings share one joint p(c, w) with the
    given sign marginal: h2h holds pi_c = p(c) and theta[c, w] = p(w | c),
    t2t holds theta_t[w, c] = p(c | w), which is L * p(c, w) for a uniform
    marginal."""
    rng = np.random.default_rng(seed)
    k, bins, n = 3, 5, 12
    sign_marginal = np.asarray(sign_marginal, dtype=float)
    weights = rng.random((k, sign_marginal.size)) + 0.1
    joint = weights / weights.sum(axis=0) * sign_marginal
    category_marginal = joint.sum(axis=1)
    emissions = [rng.dirichlet(np.ones(bins), k)]
    stack = rng.integers(0, 6, (1, n, bins)).astype(np.float64)
    categories, signs = rng.integers(0, k, n), rng.integers(0, sign_marginal.size, n)
    pair = []
    for variant, coupling in (
        ("h2h", joint / category_marginal[:, None]),
        ("t2t", (joint / sign_marginal).T),
    ):
        agent = AgentModel(
            variant=variant,
            hyper=Hyperparams(num_categories=k, num_signs=sign_marginal.size),
            modalities=("v",),
            observations=stack,
            categories=categories.copy(),
            signs=signs.copy(),
        )
        pair.append(install_blocks(agent, coupling, emissions, category_marginal))
    return pair


def category_conditionals(agent):
    logw = observation_log_likelihood(agent) + agent.log_category_prior[agent.signs]
    return normalize_log_rows(logw, [logw.shape])


def normalized_sign_rows(agent):
    rows = agent.sign_table
    return rows / rows.sum(axis=1, keepdims=True)


def test_frozen_variants_differ_only_through_the_sign_marginal():
    # with a uniform sign marginal the two couplings are one model: every
    # category draw, sign draw and acceptance agrees
    h2h, t2t = frozen_pair(np.full(4, 0.25))
    np.testing.assert_allclose(category_conditionals(h2h), category_conditionals(t2t), rtol=0, atol=1e-12)
    np.testing.assert_allclose(normalized_sign_rows(h2h), normalized_sign_rows(t2t), rtol=0, atol=1e-12)
    proposed = (h2h.signs + 1) % 4
    np.testing.assert_allclose(
        acceptance_ratio(h2h, proposed, h2h.signs), acceptance_ratio(t2t, proposed, t2t.signs), rtol=1e-12
    )
    # control: the category conditionals still agree, but t2t's sign rows
    # divide by a marginal that is no longer flat
    h2h, t2t = frozen_pair([0.4, 0.3, 0.2, 0.1])
    np.testing.assert_allclose(category_conditionals(h2h), category_conditionals(t2t), rtol=0, atol=1e-12)
    assert np.abs(normalized_sign_rows(h2h) - normalized_sign_rows(t2t)).max() > 0.1


# one-step Geweke test: a model small enough that 10,000 replicas run in
# seconds, with every concentration 1.0 so that no parameter nears the floor
GEWEKE_HYPER = Hyperparams(
    coupling_concentration=1.0,
    emission_concentration=EmissionConcentration(v=1.0),
    category_concentration=1.0,
    num_categories=2,
    num_signs=3,
)
GEWEKE_OBJECTS, GEWEKE_BINS, GEWEKE_DRAWS = 4, 3, 3


def draw_rows(probs, gen):
    """One index per row of probs' last axis, by the inverse CDF."""
    u = gen.random(probs.shape[:-1])[..., None]
    return np.minimum((u >= probs.cumsum(axis=-1)).sum(axis=-1), probs.shape[-1] - 1)


def prior_replicas(variant, replicas, gen, signs=None):
    """Independent draws from the variant's joint prior: flat parameter
    vectors in the agent's layout, categories, signs and histograms.

    h2h: pi, theta, phi; then c ~ pi, w ~ theta[c], x ~ Mult(phi[c]).
    t2t: theta, phi; then w uniform, c ~ theta[w], x ~ Mult(phi[c]); a
    given (replicas, objects) signs array stands in for the uniform w.
    """
    h = GEWEKE_HYPER
    k, l, d = h.num_categories, h.num_signs, GEWEKE_OBJECTS
    rows = np.arange(replicas)[:, None]
    phi = gen.dirichlet(np.full(GEWEKE_BINS, h.emission_concentration.v), size=(replicas, k))
    if variant == "h2h":
        pi = gen.dirichlet(np.full(k, h.category_concentration), size=replicas)
        theta = gen.dirichlet(np.full(l, h.coupling_concentration), size=(replicas, k))
        c = draw_rows(np.repeat(pi[:, None], d, axis=1), gen)
        w = draw_rows(theta[rows, c], gen)
        blocks = [pi, theta, phi]
    else:
        theta = gen.dirichlet(np.full(k, h.coupling_concentration), size=(replicas, l))
        w = gen.integers(0, l, size=(replicas, d)) if signs is None else signs
        c = draw_rows(theta[rows, w], gen)
        blocks = [theta, phi]
    x = gen.multinomial(GEWEKE_DRAWS, phi[rows, c])
    flat = np.concatenate([b.reshape(replicas, -1) for b in blocks], axis=1)
    return flat, c, w, x


def mean_z(values, expected):
    """z score of the mean of values against its expected value."""
    return (values.mean() - expected) / (values.std(ddof=1) / math.sqrt(values.size))


def share_z(hits, p):
    """z score of the share of hits against its probability p."""
    return (hits.mean() - p) / math.sqrt(p * (1 - p) / hits.size)


def uniform_z(codes, cells):
    """The chi-square statistic of codes against the uniform law on
    range(cells), standardized by its mean and sd."""
    expected = codes.size / cells
    chi_square = float(((np.bincount(codes, minlength=cells) - expected) ** 2).sum() / expected)
    return (chi_square - (cells - 1)) / math.sqrt(2 * (cells - 1))


def geweke_statistics(variant, replicas, seed, installed):
    """z scores of the replicas' statistics after one solo Gibbs sweep
    against their prior values, by name; installed collects the sweep's
    Dirichlet draws (see the installed fixture)."""
    h = GEWEKE_HYPER
    k, l, b = h.num_categories, h.num_signs, GEWEKE_BINS
    alpha, beta, gamma = h.coupling_concentration, h.emission_concentration.v, h.category_concentration
    flat, c, w, x = prior_replicas(variant, replicas, RngStream(seed).generator())
    sweep = RngStream(seed).derive(1)
    c0, w0, same_c, same_w = (np.empty(replicas, dtype=np.int64) for _ in range(4))
    theta00, phi00 = np.empty(replicas), np.empty(replicas)
    stacks = x[:, None].astype(np.float64)
    for i in range(replicas):
        agent = AgentModel(variant=variant, hyper=h, modalities=("v",), observations=stacks[i], categories=c[i], signs=w[i])
        install_parameters(agent, flat[i])
        solo_gibbs_fit(agent, 1, sweep.derive(i))
        c0[i], w0[i] = agent.categories[0], agent.signs[0]
        same_c[i], same_w[i] = agent.categories[0] == agent.categories[1], agent.signs[0] == agent.signs[1]
        drawn = blocks(agent, installed.pop())
        theta00[i], phi00[i] = drawn["coupling"][0, 0], drawn["emissions"][0, 0, 0]

    # a coupling row has n entries: signs in h2h, categories in t2t
    n = l if variant == "h2h" else k
    # P(c0 = c1) and P(w0 = w1) under the prior
    if variant == "h2h":
        p_c = (gamma + 1) / (k * gamma + 1)
        p_w = p_c * (alpha + 1) / (l * alpha + 1) + (1 - p_c) / l
    else:
        p_w = 1 / l
        p_c = p_w * (alpha + 1) / (k * alpha + 1) + (1 - p_w) / k
    return {
        # a symmetric prior makes (c0, w0) uniform in both variants
        "(c0, w0)": uniform_z(c0 * l + w0, k * l),
        "theta00": mean_z(theta00, 1 / n),
        "theta00^2": mean_z(theta00**2, (alpha + 1) / (n * (n * alpha + 1))),
        "phi00": mean_z(phi00, 1 / b),
        "phi00^2": mean_z(phi00**2, (beta + 1) / (b * (b * beta + 1))),
        "c0 = c1": share_z(same_c, p_c),
        "w0 = w1": share_z(same_w, p_w),
    }


@pytest.mark.parametrize("variant", ["h2h", "t2t"])
def test_one_gibbs_sweep_keeps_the_joint_prior(variant, installed):
    # replicas drawn from the joint prior keep its law through one sweep of
    # parameters, categories and signs (Geweke, JASA 99:799-804, 2004)
    z = geweke_statistics(variant, 10_000, seed={"h2h": 1, "t2t": 2}[variant], installed=installed)
    assert max(abs(v) for v in z.values()) < 4, z


def joint_geweke_statistics(replicas, seed, installed):
    """z scores of two t2t agents' statistics after one gibbs-mode
    run_iteration against their values under the two-agent joint prior:
    w uniform and shared, then for each agent its own theta, phi,
    c ~ theta[w] and x ~ Mult(phi[c]); installed collects the iteration's
    Dirichlet draws, A's then B's."""
    h = GEWEKE_HYPER
    k, l, bins = h.num_categories, h.num_signs, GEWEKE_BINS
    alpha, beta = h.coupling_concentration, h.emission_concentration.v
    gen = RngStream(seed).generator()
    w = gen.integers(0, l, size=(replicas, GEWEKE_OBJECTS))
    drawn = [prior_replicas("t2t", replicas, gen, signs=w) for _ in "AB"]
    stacks = [x[:, None].astype(np.float64) for *_, x in drawn]
    seeds = _game_seeds(RngStream(seed).derive(1), replicas)
    labels, values = np.empty((replicas, 5), dtype=np.int64), np.empty((replicas, 4))
    for i in range(replicas):
        pair = []
        for (flat, c, _, _), stack in zip(drawn, stacks):
            agent = AgentModel(variant="t2t", hyper=h, modalities=("v",), observations=stack[i], categories=c[i], signs=w[i].copy())
            install_parameters(agent, flat[i])
            pair.append(agent)
        run_iteration(GameState("gibbs", *pair), seeds[i])
        a, b = pair
        w0 = a.signs[0]
        labels[i] = a.categories[0], a.categories[1], b.categories[0], w0, a.signs[1]
        drawn_b, drawn_a = blocks(b, installed.pop()), blocks(a, installed.pop())
        theta_a, theta_b = drawn_a["coupling"], drawn_b["coupling"]
        values[i] = theta_a[0, 0], drawn_a["emissions"][0, 0, 0], theta_a[w0, a.categories[0]], theta_b[w0, b.categories[0]]
    ca0, ca1, cb0, w0, w1 = labels.T
    theta_a00, phi_a00, theta_a_drawn, theta_b_drawn = values.T
    # E theta[w, c] for c ~ theta[w] is the second moment summed over a row
    drawn_mean = (alpha + 1) / (k * alpha + 1)
    return {
        "(cA0, w0)": uniform_z(ca0 * l + w0, k * l),
        "thetaA00": mean_z(theta_a00, 1 / k),
        "thetaA00^2": mean_z(theta_a00**2, (alpha + 1) / (k * (k * alpha + 1))),
        "phiA00": mean_z(phi_a00, 1 / bins),
        "phiA00^2": mean_z(phi_a00**2, (beta + 1) / (bins * (bins * beta + 1))),
        "cA0 = cB0": share_z(ca0 == cb0, 1 / k),
        "w0 = w1": share_z(w0 == w1, 1 / l),
        "cA0 = cA1": share_z(ca0 == ca1, drawn_mean / l + (1 - 1 / l) / k),
        "thetaA[w0, cA0]": mean_z(theta_a_drawn, drawn_mean),
        "thetaB[w0, cB0]": mean_z(theta_b_drawn, drawn_mean),
    }


def test_one_joint_gibbs_iteration_keeps_the_two_agent_prior(installed):
    # t2t in gibbs mode is an exact Gibbs sweep of one two-agent joint, so
    # one run_iteration, gibbs_word included, keeps its law
    z = joint_geweke_statistics(10_000, seed=3, installed=installed)
    assert max(abs(v) for v in z.values()) < 4, z
