"""Sign exchange between two agents over a shared set of objects.

One iteration interleaves per-agent inference with communication: each agent
refreshes its parameters and categories, then utters a proposed sign for
every object while the other agent accepts or rejects it. Acceptance follows
the Metropolis rule, with the listener scoring the proposal only through its
own model, so neither agent ever reads the other's internals.

Modes:

* MH: the listener accepts with probability min(1, a), where a is the
  listener's probability ratio of the proposed sign to its current one.
* ALL_REJECTION: the listener never accepts, so a speaking phase would
  change no sign state at all; the game runs none, and each agent ends up
  doing isolated inference against its own randomly initialized signs.
* GIBBS_TOPLINE: no utterances; both agents' signs are drawn jointly from
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

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .agents import (
    VARIANTS,
    AgentModel,
    Hyperparams,
    init_agent,
    sample_categories,
    sign_table,
    update_parameters,
)
from .datagen import Dataset
from .metrics import MetricsRecord, adjusted_rand_index, kappa
from .stochastic import (
    PROB_FLOOR,
    RngStream,
    as_generator,
    derive_streams,
    normalize_log_rows,
    open_generator,
    seed_words,
)


class CommunicationMode(enum.Enum):
    MH = "mh"
    ALL_REJECTION = "reject"
    GIBBS_TOPLINE = "gibbs"


@dataclass(frozen=True)
class Utterance:
    object_id: int
    sign: int


class _SeedBlock(NamedTuple):
    """Seed words of every phase stream of a run of iterations."""

    rng: RngStream
    start: int
    # (iterations, len(_PHASE_STREAMS), 4) uint64
    words: np.ndarray


@dataclass
class GameState:
    variant: str
    mode: CommunicationMode
    agent_a: AgentModel
    agent_b: AgentModel
    iteration: int = 0
    # cache of _iteration_seeds for the rng the game was last advanced with
    seed_block: _SeedBlock | None = field(default=None, repr=False, compare=False)


# first-level stream ids under a game's base stream
_STREAM_INIT = 0
_STREAM_ITERATION = 1

# phase ids within one iteration
_PHASE_PARAMS = 0
_PHASE_CATEGORIES = 1
_PHASE_SPEAK = 2
_PHASE_JOINT = 3

# agent slots for stream derivation
_SLOT = {"A": 0, "B": 1}
_SLOT_JOINT = 2

# every (slot, phase) stream an iteration may open, and its column in a seed block
_PHASE_STREAMS = tuple(
    (slot, phase)
    for slot in _SLOT.values()
    for phase in (_PHASE_PARAMS, _PHASE_CATEGORIES, _PHASE_SPEAK)
) + ((_SLOT_JOINT, _PHASE_JOINT),)
_COLUMN = {key: i for i, key in enumerate(_PHASE_STREAMS)}

# iterations whose phase streams are hashed in one pass
_SEED_BLOCK = 64


def _as_objects(d) -> tuple[np.ndarray, bool]:
    """Object indices as a 1-d array, and whether d was a single index."""
    objects = np.asarray(d)
    return objects.reshape(-1), objects.ndim == 0


def acceptance_ratio(listener: AgentModel, d, sign_new, sign_old):
    """Listener-side ratio of its floored sign weights, new sign over
    current one; the table's per-object normalizer cancels.

    d, sign_new and sign_old are scalars or equal-length arrays.
    """
    objects, scalar = _as_objects(d)
    rows = np.arange(objects.size)
    weights = np.maximum(sign_table(listener, objects), PROB_FLOOR)
    ratio = weights[rows, sign_new] / weights[rows, sign_old]
    return ratio[0] if scalar else ratio


def _draw_signs(table: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw of one sign per row of table, given one uniform per row."""
    cum = table.cumsum(axis=1)
    idx = (cum <= u[:, None] * cum[:, -1:]).sum(axis=1)
    return np.minimum(idx, table.shape[1] - 1)


def mh_exchange(speaker: AgentModel, listener: AgentModel, d, rng):
    """Utterances about object d, or about every object of an index array d,
    with Metropolis acceptance.

    For each object the speaker draws a proposal from its own sign
    distribution; the listener adopts it with probability min(1, a) against
    its current sign. Objects are independent given the frozen parameters,
    so the whole speaking phase is one call. The speaker's stored signs are
    untouched, so the proposal distribution never depends on earlier
    outcomes of the same speaking phase.

    Each object consumes two uniforms, proposal then acceptance, so an
    array call equals a loop of int calls on the same generator as long as
    d holds no object twice. Returns (Utterance, accepted): scalars for an
    int d, arrays for an array d.
    """
    gen = as_generator(rng)
    objects, scalar = _as_objects(d)
    u = gen.random((objects.size, 2))
    proposed = _draw_signs(sign_table(speaker, objects), u[:, 0])
    accepted = u[:, 1] < acceptance_ratio(listener, objects, proposed, listener.signs[objects])
    listener.signs[objects[accepted]] = proposed[accepted]
    if scalar:
        return Utterance(d, int(proposed[0])), bool(accepted[0])
    return Utterance(objects, proposed), accepted


def gibbs_word(agent_a: AgentModel, agent_b: AgentModel, d, rng):
    """Draw one shared sign for object d, or for every object of an index
    array d, from the product of both models.

    Centralized topline: requires both agents' couplings simultaneously.
    Each object consumes one uniform. Returns an int for an int d.
    """
    if agent_a.variant != agent_b.variant:
        raise ValueError("agents disagree on the coupling variant")
    gen = as_generator(rng)
    objects, scalar = _as_objects(d)
    logw = np.log(np.maximum(sign_table(agent_a, objects), PROB_FLOOR))
    logw += np.log(np.maximum(sign_table(agent_b, objects), PROB_FLOOR))
    signs = _draw_signs(normalize_log_rows(logw), gen.random(objects.size))
    agent_a.signs[objects] = signs
    agent_b.signs[objects] = signs
    if scalar:
        return int(signs[0])
    return signs


def _iteration_seeds(state: GameState, rng: RngStream) -> np.ndarray:
    """Seed words of the current iteration's phase streams, one row per
    _PHASE_STREAMS entry.

    Row (slot, phase) opens the generator of
    rng.derive(_STREAM_ITERATION, iteration, slot, phase). The streams of
    _SEED_BLOCK iterations are derived and hashed in one vectorized pass,
    which costs a fraction of a SeedSequence per phase; the block is kept
    on the state for the rng it was computed for.
    """
    it = state.iteration
    block = state.seed_block
    if block is None or block.rng != rng or not 0 <= it - block.start < _SEED_BLOCK:
        slots, phases = np.array(_PHASE_STREAMS).T
        iterations = np.arange(it, it + _SEED_BLOCK)[:, None]
        streams = derive_streams(rng.stream, _STREAM_ITERATION, iterations, slots, phases)
        block = state.seed_block = _SeedBlock(rng, it, seed_words(rng.seed, streams))
    return block.words[it - block.start]


def run_iteration(state: GameState, dataset: Dataset, rng: RngStream) -> GameState:
    """Advance the game by one full iteration.

    Order: agent A refreshes parameters and categories, A speaks about every
    object in one mh_exchange call, then agent B does the same. ALL_REJECTION
    has no speaking phase. In GIBBS_TOPLINE the speaking phases are replaced
    by a single joint gibbs_word pass over every object at the end.

    Every phase draws from a stream derived from (iteration, agent, phase),
    so one agent's consumption never shifts the other's draws.
    """
    seeds = _iteration_seeds(state, rng)
    objects = np.arange(dataset.num_objects)
    pairs = ((state.agent_a, state.agent_b), (state.agent_b, state.agent_a))
    for speaker, listener in pairs:
        slot = _SLOT[speaker.name]
        update_parameters(speaker, dataset, open_generator(seeds[_COLUMN[slot, _PHASE_PARAMS]]))
        sample_categories(speaker, dataset, open_generator(seeds[_COLUMN[slot, _PHASE_CATEGORIES]]))
        if state.mode is CommunicationMode.MH:
            gen = open_generator(seeds[_COLUMN[slot, _PHASE_SPEAK]])
            mh_exchange(speaker, listener, objects, gen)
    if state.mode is CommunicationMode.GIBBS_TOPLINE:
        gen = open_generator(seeds[_COLUMN[_SLOT_JOINT, _PHASE_JOINT]])
        gibbs_word(state.agent_a, state.agent_b, objects, gen)
    state.iteration += 1
    return state


def run_game(
    variant: str,
    mode: CommunicationMode,
    hyper: Hyperparams,
    dataset: Dataset,
    iterations: int,
    rng: RngStream,
) -> tuple[GameState, list[MetricsRecord]]:
    """Play a full game and record metrics at the end of every iteration.

    Each iteration's categories and signs are copied aside, and every
    iteration is scored in one batched pass after the last; scoring reads
    the chain but never feeds back into it.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    mode = CommunicationMode(mode)
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    agent_a = init_agent(variant, hyper, dataset, "A", rng.derive(_STREAM_INIT, _SLOT["A"]))
    agent_b = init_agent(variant, hyper, dataset, "B", rng.derive(_STREAM_INIT, _SLOT["B"]))
    state = GameState(variant=variant, mode=mode, agent_a=agent_a, agent_b=agent_b)
    joint_signs = mode is CommunicationMode.GIBBS_TOPLINE
    labels = np.min_scalar_type(max(hyper.num_categories, hyper.num_signs) - 1)
    # (agent, iteration, object) snapshots
    categories = np.empty((2, iterations, dataset.num_objects), dtype=labels)
    signs = np.empty((0 if joint_signs else 2, iterations, dataset.num_objects), dtype=labels)
    for t in range(iterations):
        run_iteration(state, dataset, rng)
        for i, agent in enumerate((agent_a, agent_b)):
            categories[i, t] = agent.categories
            if not joint_signs:
                signs[i, t] = agent.signs
    ari = adjusted_rand_index(categories.reshape(2 * iterations, -1), dataset.true_type)
    kappas = [None] * iterations if joint_signs else kappa(signs[0], signs[1], hyper.num_signs)
    records = [
        MetricsRecord(iteration=t, ari_a=ari[t], ari_b=ari[iterations + t], kappa=kappas[t])
        for t in range(iterations)
    ]
    return state, records
