"""Synthetic multimodal observations for two agents looking at shared objects.

Objects come in types. Each type owns one emission distribution per modality,
drawn once from a sparse Dirichlet, and every object of the type is a fresh
multinomial histogram from that emission. Both agents observe the same
underlying objects but only through their own modalities, and their
histograms are independent draws.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .agents import MODALITIES, Hyperparams, check_sizes
from .stochastic import RngStream, sample_dirichlet_rows

# stream ids used below generate_dataset's base stream
_STREAM_EMISSIONS = 0
_STREAM_OBSERVATIONS = 1


@dataclass(frozen=True)
class SyntheticConfig:
    num_types: int = 15
    objects_per_type: int = 10
    feature_dim: int = 20
    draws_per_modality: int = 20

    def __post_init__(self):
        check_sizes(self, num_types=1, objects_per_type=1, feature_dim=2, draws_per_modality=1)


@dataclass
class Dataset:
    """Observations for both agents plus the generating ground truth.

    observations[i] is agent i's histograms of the modalities named in
    modalities[i], as one read-only float64 (modalities, num_objects, bins)
    stack whose rows follow that tuple: init_agent hands that very array to
    the agent.
    """

    true_type: np.ndarray
    observations: tuple
    modalities: tuple
    # per-modality (num_types, feature_dim) generating emissions; kept for
    # diagnostics and tests, never read by the agents
    true_emissions: dict | None = None

    @property
    def num_objects(self) -> int:
        return self.true_type.size


def generate_dataset(
    config: SyntheticConfig,
    hyper: Hyperparams,
    modalities: tuple,
    rng: RngStream,
) -> Dataset:
    """Draw a fresh dataset for two agents observing the modalities named in
    modalities[0] and modalities[1], its true emissions from hyper's
    emission concentrations; unobserved modalities are never materialized."""
    true_emissions = {}
    for mi, m in enumerate(MODALITIES):
        shape = (config.num_types, config.feature_dim)
        conc = np.full(shape[0] * shape[1], getattr(hyper.emission_concentration, m))
        gen = rng.derive(_STREAM_EMISSIONS, mi).generator()
        true_emissions[m] = sample_dirichlet_rows(conc, [shape], gen).reshape(shape)

    true_type = np.repeat(np.arange(config.num_types), config.objects_per_type)
    observations = []
    for ai, names in enumerate(modalities):
        stack = np.empty((len(names), true_type.size, config.feature_dim))
        # each modality keeps its own stream; unobserved ones are never drawn
        for row, m in zip(stack, names):
            gen = rng.derive(_STREAM_OBSERVATIONS, ai, MODALITIES.index(m)).generator()
            row[:] = gen.multinomial(config.draws_per_modality, true_emissions[m][true_type])
        stack.flags.writeable = False
        observations.append(stack)

    return Dataset(
        true_type=true_type, observations=tuple(observations), modalities=modalities, true_emissions=true_emissions
    )
