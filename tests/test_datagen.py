"""Tests for synthetic dataset generation."""
from __future__ import annotations

import hashlib

import numpy as np
import pytest

from conftest import solo_gibbs_fit
from signgame.agents import EmissionConcentration, Hyperparams, init_agent
from signgame.datagen import SyntheticConfig, generate_dataset
from signgame.experiment import CONDITION_MASKS
from signgame.metrics import adjusted_rand_index
from signgame.stochastic import RngStream

FULL = ("v", "s", "h")


def make_dataset(seed=0, modalities_a=FULL, modalities_b=FULL, config=None, hyper=None):
    config = config or SyntheticConfig()
    return generate_dataset(config, hyper or Hyperparams(), (modalities_a, modalities_b), RngStream(seed))


def test_default_dataset_shape():
    data = make_dataset()
    assert data.num_objects == 150
    assert data.true_type.shape == (150,)
    assert np.array_equal(np.bincount(data.true_type), np.full(15, 10))
    for obs in data.observations:
        assert obs.shape == (3, 150, 20)
        assert np.all(obs.sum(axis=2) == 20)
        assert np.all(obs >= 0)


def test_same_seed_reproduces_dataset():
    first = make_dataset(seed=42)
    second = make_dataset(seed=42)
    assert np.array_equal(first.true_type, second.true_type)
    for one, two in zip(first.observations, second.observations):
        assert np.array_equal(one, two)
    for m in first.true_emissions:
        assert np.array_equal(first.true_emissions[m], second.true_emissions[m])
    different = make_dataset(seed=43)
    assert not np.array_equal(first.observations[0][0], different.observations[0][0])


def test_masked_modalities_are_absent():
    full = make_dataset()
    data = make_dataset(modalities_b=("v",))
    assert data.observations[0].shape[0] == 3
    assert data.observations[1].shape[0] == 1
    assert np.array_equal(data.observations[1][0], full.observations[1][0])
    data = make_dataset(modalities_a=("v", "s"), modalities_b=("h",))
    assert np.array_equal(data.observations[0], full.observations[0][:2])
    assert np.array_equal(data.observations[1], full.observations[1][2:])


def test_agents_draw_independently_from_shared_emissions():
    # diffuse emissions so that independent draws cannot coincide; the
    # default near-one-hot emissions make both agents' histograms equal
    hyper = Hyperparams(emission_concentration=EmissionConcentration(v=1.0, s=1.0, h=1.0))
    data = make_dataset(seed=7, hyper=hyper)
    a = data.observations[0][0]
    b = data.observations[1][0]
    # same generating emissions make the histograms correlated...
    corr = np.corrcoef(a.ravel(), b.ravel())[0, 1]
    assert corr > 0.3
    # ...but the draws themselves are agent-wise independent
    assert np.any(a != b)


def test_same_type_objects_share_generating_emissions():
    data = make_dataset(seed=11)
    for obs, (m, emissions) in zip(data.observations[0], data.true_emissions.items()):
        assert emissions.shape == (15, 20)
        assert np.all(emissions > 0)
        np.testing.assert_allclose(emissions.sum(axis=1), 1.0, atol=1e-9)
        summed = np.zeros((15, 20))
        for t in range(15):
            members = obs[data.true_type == t]
            summed[t] = members.sum(axis=0)
        # sparse emissions concentrate nearly all mass on one bin, and the
        # pooled counts of each type follow that same bin
        assert np.all(summed.argmax(axis=1) == emissions.argmax(axis=1))


def test_config_validation():
    with pytest.raises(ValueError):
        SyntheticConfig(num_types=0)
    with pytest.raises(ValueError):
        SyntheticConfig(objects_per_type=0)
    with pytest.raises(ValueError):
        SyntheticConfig(feature_dim=1)
    with pytest.raises(ValueError):
        SyntheticConfig(draws_per_modality=0)


def test_single_modality_fit_recovers_planted_types():
    # one agent, one modality: the planted structure alone supports a
    # reasonable clustering even without any communication
    config = SyntheticConfig()
    data = generate_dataset(config, Hyperparams(), (("v",), ("v",)), RngStream(2025))
    agent = init_agent("h2h", Hyperparams(), data.modalities[0], data.observations[0], RngStream(2025).derive(1))
    solo_gibbs_fit(agent, 150, RngStream(2025).derive(2))
    assert adjusted_rand_index([agent.categories], data.true_type)[0] >= 0.6


def test_float_observations_follow_the_given_modality_order():
    config = SyntheticConfig()
    # named out of MODALITIES order
    data = make_dataset(seed=3, modalities_a=("h", "v"))
    full = make_dataset(seed=3)
    obs = data.observations[0]
    assert obs.dtype == np.float64
    assert obs.shape == (2, data.num_objects, config.feature_dim)
    assert obs.flags.c_contiguous and not obs.flags.writeable
    # rows in the order given, each the modality's own draw: h, then v
    assert data.modalities[0] == ("h", "v")
    assert np.array_equal(obs[0], full.observations[0][2]) and np.array_equal(obs[1], full.observations[0][0])
    # integer-valued histograms of draws_per_modality counts
    assert np.array_equal(obs, np.round(obs))
    assert np.all(obs.sum(axis=2) == config.draws_per_modality)
    # the agent's emission prior blocks follow the same order
    hyper = Hyperparams(emission_concentration=EmissionConcentration(v=0.5, h=0.25))
    agent = init_agent("h2h", hyper, data.modalities[0], obs, RngStream(4))
    h_block, v_block = agent.slices[2:]
    assert np.all(agent.prior[h_block] == hyper.emission_concentration.h)
    assert np.all(agent.prior[v_block] == hyper.emission_concentration.v)


def dataset_digest(seed=0, trials=3):
    """sha256 over the generating emissions and every observation array of
    conditions 1-4 x trials at default sizes, with the grid's masks."""
    h = hashlib.sha256()
    for condition, modalities in sorted(CONDITION_MASKS.items()):
        for trial in range(trials):
            data = generate_dataset(SyntheticConfig(), Hyperparams(), modalities, RngStream(seed).derive(condition, trial))
            arrays = [data.true_emissions[m] for m in sorted(data.true_emissions)]
            # each (agent, modality) histogram as the int64 array it was drawn as
            for names, stack in zip(data.modalities, data.observations):
                rows = dict(zip(names, stack))
                arrays += [rows[m].astype(np.int64) for m in sorted(rows)]
            for arr in arrays:
                h.update(f"{arr.dtype.str}{arr.shape}".encode())
                h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


# recorded before the agents' Dirichlet rows were drawn in one pass; the
# datasets' one-block draw must consume the same variates in the same order
GOLDEN_DATASET_DIGEST = "27b1236032a270ae44c22568b213026c47e779cc61b0e9587f0c832a5f64b427"


def test_datasets_match_golden_digest():
    assert dataset_digest() == GOLDEN_DATASET_DIGEST
