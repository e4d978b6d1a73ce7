"""Shared helpers for the test suite."""
from __future__ import annotations

from collections import Counter
from fractions import Fraction

import numpy as np

from signgame.agents import (
    AgentModel,
    Hyperparams,
    init_agent,
    install_parameters,
    sample_categories,
    update_parameters,
)
from signgame.stochastic import sample_categorical_rows


def agent_with_tables(variant, hyper, modalities, observations, rng):
    """init_agent's agent with its tables drawn from rng.derive(1), the
    stream a game draws agent B's initial tables from; for tests that read
    an agent's tables before any update of their own."""
    agent = init_agent(variant, hyper, modalities, observations, rng)
    update_parameters(agent, rng.derive(1).generator())
    return agent


def install_blocks(agent, coupling, emissions, category_weights=None):
    """Hand-set parameters, installed through install_parameters as one
    flat vector in the agent's layout; returns the agent. emissions holds
    one (categories, bins) block per observed modality, in the agent's
    modalities order."""
    blocks = [category_weights] if agent.variant == "h2h" else []
    blocks += [coupling, emissions]
    install_parameters(agent, np.concatenate([np.ravel(np.asarray(b, dtype=float)) for b in blocks]))
    return agent


def frozen_agent(variant, weights):
    """Agent whose sign distributions are pinned to weights: one object per
    row of a 2-d weights, or a single object for a 1-d one, each in its own
    category, over a zero one-modality stack."""
    weights = np.atleast_2d(np.asarray(weights, dtype=float))
    objects, num_signs = weights.shape
    agent = AgentModel(
        variant=variant,
        hyper=Hyperparams(num_categories=objects, num_signs=num_signs),
        modalities=("v",),
        observations=np.zeros((1, objects, 2)),
        categories=np.arange(objects),
        signs=np.zeros(objects, dtype=np.int64),
    )
    return install_blocks(
        agent,
        coupling=weights if variant == "h2h" else weights.T,
        emissions=[np.full((objects, 2), 0.5)],
        category_weights=np.ones(objects),
    )


def counting_draw(cum, u):
    """The counting form of the categorical draw: how many cumulative sums
    of each row are at or below u times the row's total, clamped to the
    last index."""
    return np.minimum((cum <= u[:, None] * cum[:, -1:]).sum(axis=1), cum.shape[1] - 1)


def tv_distance(p, q):
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def ari_by_pair_enumeration(x, y):
    """O(n^2) oracle: walk every object pair and count co-assignments."""
    x = list(x)
    y = list(y)
    n = len(x)
    same_both = same_x = same_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            in_x = x[i] == x[j]
            in_y = y[i] == y[j]
            same_x += in_x
            same_y += in_y
            same_both += in_x and in_y
    total = n * (n - 1) // 2
    expected = Fraction(same_x * same_y, total)
    maximum = Fraction(same_x + same_y, 2)
    if maximum == expected:
        # only happens when both partitions are all singletons or both are
        # a single block, which are identical groupings
        return 1.0
    return float((same_both - expected) / (maximum - expected))


def kappa_by_frequency_sums(x, y, num_signs):
    """Dict-based oracle for the chance-corrected coincidence rate."""
    x = list(x)
    y = list(y)
    n = len(x)
    observed = sum(a == b for a, b in zip(x, y)) / n
    count_x = Counter(x)
    count_y = Counter(y)
    expected = sum(count_x[w] * count_y[w] / (n * n) for w in range(num_signs))
    if expected == 1.0:
        return 1.0 if observed == 1.0 else 0.0
    return (observed - expected) / (1.0 - expected)


def solo_gibbs_fit(agent, iterations, rng):
    """Independent per-agent Gibbs sweep: parameters, categories, own signs.

    This is the no-communication oracle: the agent explains its own data
    and keeps its sign copies consistent with its own model only.
    """
    for it in range(iterations):
        step = rng.derive(it)
        update_parameters(agent, step.derive(0).generator())
        sample_categories(agent, step.derive(1).generator())
        cum = agent.sign_table.cumsum(axis=1)[agent.categories]
        # one uniform per object, in object order
        agent.signs = sample_categorical_rows(cum, step.derive(2).generator().random(cum.shape[0]))
    return agent
