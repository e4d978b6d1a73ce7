"""Tests for synthetic dataset generation."""
from __future__ import annotations

import hashlib

import numpy as np
import pytest

from conftest import solo_gibbs_fit
from signgame.agents import Hyperparams, ModalityMask, init_agent, sample_categories, update_parameters
from signgame.datagen import Dataset, SyntheticConfig, generate_dataset
from signgame.experiment import CONDITION_MASKS
from signgame.metrics import adjusted_rand_index
from signgame.stochastic import RngStream

FULL = ModalityMask.of("v", "s", "h")


def make_dataset(seed=0, mask_a=FULL, mask_b=FULL, config=None, hyper=None):
    config = config or SyntheticConfig()
    return generate_dataset(config, hyper or Hyperparams(), mask_a, mask_b, RngStream(seed))


def test_default_dataset_shape():
    data = make_dataset()
    assert data.num_objects == 150
    assert data.true_type.shape == (150,)
    assert np.array_equal(np.bincount(data.true_type), np.full(15, 10))
    for name in ("A", "B"):
        assert sorted(data.observations[name]) == ["h", "s", "v"]
        for obs in data.observations[name].values():
            assert obs.shape == (150, 20)
            assert obs.dtype.kind == "i"
            assert np.all(obs.sum(axis=1) == 20)
            assert np.all(obs >= 0)


def test_same_seed_reproduces_dataset():
    first = make_dataset(seed=42)
    second = make_dataset(seed=42)
    assert np.array_equal(first.true_type, second.true_type)
    for name in ("A", "B"):
        for m in first.observations[name]:
            assert np.array_equal(first.observations[name][m], second.observations[name][m])
    for m in first.true_emissions:
        assert np.array_equal(first.true_emissions[m], second.true_emissions[m])
    different = make_dataset(seed=43)
    assert not np.array_equal(first.observations["A"]["v"], different.observations["A"]["v"])


def test_masked_modalities_are_absent():
    data = make_dataset(mask_b=ModalityMask.of("v"))
    assert sorted(data.observations["A"]) == ["h", "s", "v"]
    assert list(data.observations["B"]) == ["v"]
    data = make_dataset(mask_a=ModalityMask.of("v", "s"), mask_b=ModalityMask.of("h"))
    assert sorted(data.observations["A"]) == ["s", "v"]
    assert list(data.observations["B"]) == ["h"]


def test_agents_draw_independently_from_shared_emissions():
    # diffuse emissions so that independent draws cannot coincide; the
    # default near-one-hot emissions make both agents' histograms equal
    hyper = Hyperparams(emission_concentration={"v": 1.0, "s": 1.0, "h": 1.0})
    data = make_dataset(seed=7, hyper=hyper)
    a = data.observations["A"]["v"]
    b = data.observations["B"]["v"]
    # same generating emissions make the histograms correlated...
    corr = np.corrcoef(a.ravel(), b.ravel())[0, 1]
    assert corr > 0.3
    # ...but the draws themselves are agent-wise independent
    assert np.any(a != b)


def test_same_type_objects_share_generating_emissions():
    data = make_dataset(seed=11)
    for m, emissions in data.true_emissions.items():
        assert emissions.shape == (15, 20)
        assert np.all(emissions > 0)
        np.testing.assert_allclose(emissions.sum(axis=1), 1.0, atol=1e-9)
        summed = np.zeros((15, 20))
        for t in range(15):
            members = data.observations["A"][m][data.true_type == t]
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
    mask = ModalityMask.of("v")
    config = SyntheticConfig()
    data = generate_dataset(config, Hyperparams(), mask, mask, RngStream(2025))
    agent = init_agent("h2h", Hyperparams(), data, "A", RngStream(2025).derive(1))
    solo_gibbs_fit(agent, data, 150, RngStream(2025).derive(2))
    assert adjusted_rand_index(agent.categories, data.true_type) >= 0.6


def test_float_observations_hold_masked_in_modalities_in_canonical_order():
    data = make_dataset(seed=3)
    # named out of canonical order; s is in the data but masked off
    mask = ModalityMask.of("h", "v")
    obs = data.float_observations("A", mask)
    ints = data.observations["A"]
    assert obs.dtype == np.float64
    assert obs.shape == (2, data.num_objects, data.config.feature_dim)
    assert np.array_equal(obs[0], ints["v"]) and np.array_equal(obs[1], ints["h"])
    assert obs.flags.c_contiguous and not obs.flags.writeable
    assert data.float_observations("A", mask) is obs
    assert data.float_observations("A", FULL).shape == (3, data.num_objects, data.config.feature_dim)


def test_agent_sweeps_read_one_float_matrix_per_dataset(monkeypatch):
    full = make_dataset(seed=4)
    # agent A is masked to v and s while the data also holds h
    data = Dataset(
        true_type=full.true_type,
        observations=full.observations,
        masks={"A": ModalityMask.of("v", "s"), "B": FULL},
        config=full.config,
    )
    seen = []
    original = Dataset.float_observations

    def spy(self, agent_id, mask):
        out = original(self, agent_id, mask)
        seen.append((self, agent_id, out))
        return out

    monkeypatch.setattr(Dataset, "float_observations", spy)
    agent = init_agent("h2h", Hyperparams(), data, "A", RngStream(5))
    for it in range(3):
        update_parameters(agent, data, RngStream(6).derive(it).generator())
        sample_categories(agent, data, RngStream(7).derive(it).generator())
    # init's parameter draw, then both readers in each sweep
    assert len(seen) == 1 + 2 * 3
    assert all(ds is data and name == "A" and stack is seen[0][2] for ds, name, stack in seen)
    assert np.array_equal(seen[0][2], np.stack([full.observations["A"]["v"], full.observations["A"]["s"]]))


def dataset_digest(seed=0, trials=3):
    """sha256 over the generating emissions and every observation array of
    conditions 1-4 x trials at default sizes, with the grid's masks."""
    h = hashlib.sha256()
    for condition, (mask_a, mask_b) in sorted(CONDITION_MASKS.items()):
        for trial in range(trials):
            data = generate_dataset(SyntheticConfig(), Hyperparams(), mask_a, mask_b, RngStream(seed).derive(condition, trial))
            arrays = [data.true_emissions[m] for m in sorted(data.true_emissions)]
            arrays += [data.observations[a][m] for a in sorted(data.observations) for m in sorted(data.observations[a])]
            for arr in arrays:
                h.update(f"{arr.dtype.str}{arr.shape}".encode())
                h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


# recorded before the agents' Dirichlet rows were drawn in one pass; the
# datasets' one-block draw must consume the same variates in the same order
GOLDEN_DATASET_DIGEST = "27b1236032a270ae44c22568b213026c47e779cc61b0e9587f0c832a5f64b427"


def test_datasets_match_golden_digest():
    assert dataset_digest() == GOLDEN_DATASET_DIGEST
