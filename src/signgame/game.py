"""Sign exchange between two agents over a shared set of objects.

One iteration interleaves per-agent inference with communication: each agent
refreshes its parameters and categories, then utters a proposed sign for
every object while the other agent accepts or rejects it. Acceptance follows
the Metropolis rule, with the listener scoring the proposal only through its
own model, so neither agent ever reads the other's internals.

Modes:

* "mh": the listener accepts with probability min(1, a), where a is the
  listener's probability ratio of the proposed sign to its current one.
* "reject": the listener never accepts, so a speaking phase would
  change no sign state at all; the game runs none, and each agent ends up
  doing isolated inference against its own randomly initialized signs.
* "gibbs": no utterances; both agents' signs are drawn jointly from
  the product of their sign distributions. This needs access to both models
  at once and serves as the centralized reference the exchange protocols
  are measured against.

Proposals are ephemeral in both exchange modes: a speaker never overwrites
its own stored sign while speaking. Keeping the listener's comparator equal
to its last accepted value is what makes each direction an independence
Metropolis chain whose stationary law, for frozen parameters, is the
normalized elementwise product of the two agents' sign distributions.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .agents import (
    AgentModel,
    Hyperparams,
    init_agent,
    sample_categories,
    update_parameters,
)
from .datagen import Dataset
from .metrics import adjusted_rand_index, kappa
from .stochastic import (
    PROB_FLOOR,
    RngStream,
    normalize_log_rows,
    open_generator,
    sample_categorical_rows,
)


METHODS = ("mh", "reject", "gibbs")


@dataclass
class GameState:
    mode: str
    agent_a: AgentModel
    agent_b: AgentModel


# first-level stream ids under a game's base stream
_STREAM_INIT = 0
_STREAM_ITERATION = 1
_STREAM_INIT_TABLES = 1  # under (_STREAM_INIT, 1): agent B's initial tables

# phase ids within one iteration
_PHASE_PARAMS = 0
_PHASE_CATEGORIES = 1
_PHASE_SPEAK = 2
_PHASE_JOINT = 3

# stream slots: agent A is 0 and agent B 1, the order of a pass's speakers
_SLOT_JOINT = 2


def acceptance_ratio(listener: AgentModel, sign_new, sign_old) -> np.ndarray:
    """Listener-side ratio of its floored sign weights, new sign over
    current one, for every object; the sign table's per-category normalizer
    cancels. sign_new and sign_old hold one sign per object."""
    weights = np.maximum(listener.sign_table, PROB_FLOOR)
    c = listener.categories
    return weights[c, sign_new] / weights[c, sign_old]


def mh_exchange(speaker: AgentModel, listener: AgentModel, gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The speaker names every object; the listener accepts each sign by
    the Metropolis rule.

    For each object the speaker draws a proposal from its own sign
    distribution; the listener adopts it with probability min(1, a) against
    its current sign. Objects are independent given the frozen parameters,
    so the whole speaking phase is one call. The speaker's stored signs are
    untouched, so the proposal distribution never depends on earlier
    outcomes of the same speaking phase.

    Each object consumes two uniforms, proposal then acceptance. Returns
    the (proposed, accepted) arrays.
    """
    u = gen.random((listener.signs.size, 2))
    proposed = sample_categorical_rows(speaker.sign_table.cumsum(axis=1)[speaker.categories], u[:, 0])
    accepted = u[:, 1] < acceptance_ratio(listener, proposed, listener.signs)
    listener.signs[accepted] = proposed[accepted]
    return proposed, accepted


def gibbs_word(agent_a: AgentModel, agent_b: AgentModel, gen: np.random.Generator) -> np.ndarray:
    """Draw one shared sign for every object from the product of both models.

    Centralized topline: requires both agents' sign tables simultaneously.
    Each object consumes one uniform. Returns the drawn signs.
    """
    logw = agent_a.log_sign_table[agent_a.categories]
    logw += agent_b.log_sign_table[agent_b.categories]
    signs = sample_categorical_rows(normalize_log_rows(logw).cumsum(axis=1), gen.random(logw.shape[0]))
    agent_a.signs[:] = signs
    agent_b.signs[:] = signs
    return signs


@lru_cache(maxsize=1)
def _game_seeds(rng: RngStream, iterations: int) -> np.ndarray:
    """Seed words of every phase stream of a game, shape (iterations,
    slots, phases, 4), read-only.

    Entry [t, slot, phase] opens the generator of
    rng.derive(_STREAM_ITERATION, t, slot, phase). All streams are derived
    and hashed in one vectorized pass, which costs a fraction of a
    SeedSequence per phase; an iteration opens at most 6 of its 12. The
    last table is kept: a trial's games run back to back with one (rng,
    iterations), so the first builds it and the rest reuse it.
    """
    table = rng.seed_table(_STREAM_ITERATION, *np.ogrid[:iterations, : _SLOT_JOINT + 1, : _PHASE_JOINT + 1])
    table.flags.writeable = False
    return table


def run_iteration(state: GameState, seeds: np.ndarray) -> GameState:
    """Advance the game by one full iteration, given that iteration's
    (slot, phase) block of the seed table (see _game_seeds).

    Order: agent A refreshes parameters and categories, A speaks about every
    object in one mh_exchange call, then agent B does the same. "reject"
    has no speaking phase. In "gibbs" the speaking phases are replaced
    by a single joint gibbs_word pass over every object at the end.

    Every phase draws from a stream derived from (iteration, agent, phase),
    so one agent's consumption never shifts the other's draws.
    """
    pairs = ((state.agent_a, state.agent_b), (state.agent_b, state.agent_a))
    for slot, (speaker, listener) in enumerate(pairs):
        update_parameters(speaker, open_generator(seeds[slot, _PHASE_PARAMS]))
        sample_categories(speaker, open_generator(seeds[slot, _PHASE_CATEGORIES]))
        if state.mode == "mh":
            mh_exchange(speaker, listener, open_generator(seeds[slot, _PHASE_SPEAK]))
    if state.mode == "gibbs":
        gibbs_word(state.agent_a, state.agent_b, open_generator(seeds[_SLOT_JOINT, _PHASE_JOINT]))
    return state


def run_game(
    variant: str,
    mode: str,
    hyper: Hyperparams,
    dataset: Dataset,
    iterations: int,
    rng: RngStream,
) -> tuple[GameState, list[tuple]]:
    """Play a full game; returns the final state and one (ari_a, ari_b,
    kappa) row per iteration, scored at the iteration's end, with kappa None
    under "gibbs". Only "mh" draws initial tables, and only agent B's.

    Each iteration's categories and signs are copied aside, and every
    iteration is scored in one batched pass after the last; scoring reads
    the chain but never feeds back into it.
    """
    if mode not in METHODS:
        raise ValueError(f"mode must be one of {METHODS}, got {mode!r}")
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    agent_a, agent_b = (
        init_agent(variant, hyper, dataset.modalities[i], dataset.observations[i], rng.derive(_STREAM_INIT, i))
        for i in (0, 1)
    )
    # every iteration redraws a speaker's tables before it reads them, so the
    # one initial set a game reads is B's, as listener to A's first proposals
    if mode == "mh":
        update_parameters(agent_b, rng.derive(_STREAM_INIT, 1, _STREAM_INIT_TABLES).generator())
    state = GameState(mode=mode, agent_a=agent_a, agent_b=agent_b)
    joint_signs = mode == "gibbs"
    labels = np.min_scalar_type(max(hyper.num_categories, hyper.num_signs) - 1)
    # (agent, iteration, object) snapshots
    categories = np.empty((2, iterations, dataset.num_objects), dtype=labels)
    signs = np.empty((0 if joint_signs else 2, iterations, dataset.num_objects), dtype=labels)
    seeds = _game_seeds(rng, iterations)
    for t in range(iterations):
        run_iteration(state, seeds[t])
        for i, agent in enumerate((agent_a, agent_b)):
            categories[i, t] = agent.categories
            if not joint_signs:
                signs[i, t] = agent.signs
    ari = adjusted_rand_index(categories.reshape(2 * iterations, -1), dataset.true_type)
    kappas = [None] * iterations if joint_signs else kappa(signs[0], signs[1], hyper.num_signs)
    return state, list(zip(ari[:iterations], ari[iterations:], kappas))
