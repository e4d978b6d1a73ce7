"""Per-agent mixture models over multimodal count observations.

Each agent clusters objects into categories from its own observations and
carries a sign (a discrete label it can utter) for every object. Two
coupling variants share this structure and differ in where the sign sits in
the agent's generative story:

* "h2h": the category emits the sign. The agent keeps a prior over
  categories and a (num_categories, num_signs) row-stochastic coupling
  matrix whose row c is the sign distribution of category c.
* "t2t": the sign selects the category. The coupling matrix is
  (num_signs, num_categories), row w is the category prior under sign w,
  and there is no separate category prior vector.

Inference inside an agent is conjugate resampling: parameter rows are drawn
from Dirichlet posteriors given the current assignments, and category
assignments are drawn from their exact conditionals given the parameters.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import accumulate
from typing import Mapping

import numpy as np

from .stochastic import (
    PROB_FLOOR,
    RngStream,
    normalize_log_rows,
    sample_categorical_rows,
    sample_dirichlet_rows,
)

MODALITIES = ("v", "s", "h")

VARIANT_T2T = "t2t"
VARIANT_H2H = "h2h"
VARIANTS = (VARIANT_T2T, VARIANT_H2H)

# stream ids used below init_agent's base stream
_STREAM_ASSIGN = 0
_STREAM_PARAMS = 1


def check_sizes(config, **least: int) -> None:
    """Raise ValueError naming the first of config's size fields, given with
    their least values, that lies outside [least, 2**63): sizes index
    numpy's int64 arrays and bound its integer draws."""
    for name, low in least.items():
        value = getattr(config, name)
        if not low <= value < 2**63:
            raise ValueError(f"{name} must be in [{low}, 2**63), got {value!r}")


def _default_emission_concentration() -> dict[str, float]:
    return {m: 0.001 for m in MODALITIES}


@dataclass(frozen=True)
class Hyperparams:
    """Concentrations and sizes shared by both agents of a run."""

    coupling_concentration: float = 0.01
    emission_concentration: Mapping[str, float] = field(
        default_factory=_default_emission_concentration
    )
    category_concentration: float = 0.01
    num_categories: int = 15
    num_signs: int = 15

    def __post_init__(self):
        # Written so that NaN fails too. The Dirichlet draw divides
        # log1p(-u), which is at least -53 ln 2 = -36.7, by the
        # concentration; from PROB_FLOOR up the quotient stays finite.
        if not (PROB_FLOOR <= self.coupling_concentration < np.inf and PROB_FLOOR <= self.category_concentration < np.inf):
            raise ValueError(f"concentrations must be finite and at least {PROB_FLOOR:g}")
        for m, b in self.emission_concentration.items():
            if m not in MODALITIES:
                raise ValueError(f"unknown modality {m!r}")
            if not PROB_FLOOR <= b < np.inf:
                raise ValueError(f"emission concentration for {m!r} must be finite and at least {PROB_FLOOR:g}")
        # modalities the mapping does not name keep the default
        filled = {**_default_emission_concentration(), **self.emission_concentration}
        object.__setattr__(self, "emission_concentration", filled)
        check_sizes(self, num_categories=1, num_signs=1)


@dataclass
class AgentModel:
    """Mutable inference state of one agent.

    The parameters live in one flat vector, one row-major block after
    another in the order and shapes that shapes lists: h2h's 1 x K category
    weights and K x L coupling, or t2t's L x K coupling, then an M x K x
    bins stack of emission blocks, one per observed modality in
    modalities order. prior holds the blocks' prior concentrations in
    that layout. install_parameters sets category_weights, coupling and
    emissions as views of a drawn vector, and the log_ fields as views of
    its floored logs. observations is the agent's own read-only float64
    (M, objects, bins) stack, the dataset's array itself, and the only
    data its kernels read; modalities names its rows in order.
    """

    variant: str
    hyper: Hyperparams
    modalities: tuple
    observations: np.ndarray
    categories: np.ndarray
    signs: np.ndarray
    shapes: tuple = field(init=False)
    slices: tuple = field(init=False)
    prior: np.ndarray = field(init=False)
    category_weights: np.ndarray | None = field(default=None, init=False)
    coupling: np.ndarray | None = field(default=None, init=False)
    emissions: np.ndarray | None = field(default=None, init=False)
    log_category_weights: np.ndarray | None = field(default=None, init=False)
    log_coupling: np.ndarray | None = field(default=None, init=False)
    log_emissions: np.ndarray | None = field(default=None, init=False)

    def __post_init__(self):
        hyper = self.hyper
        k, l = hyper.num_categories, hyper.num_signs
        if self.variant == VARIANT_H2H:
            blocks = [((1, k), hyper.category_concentration), ((k, l), hyper.coupling_concentration)]
        else:
            blocks = [((l, k), hyper.coupling_concentration)]
        blocks += [((k, self.observations.shape[2]), hyper.emission_concentration[m]) for m in self.modalities]
        self.shapes = tuple(shape for shape, _ in blocks)
        sizes = [rows * width for rows, width in self.shapes]
        self.slices = tuple(slice(stop - size, stop) for stop, size in zip(accumulate(sizes), sizes))
        self.prior = np.repeat([conc for _, conc in blocks], sizes)
        self.prior.flags.writeable = False


def init_agent(
    variant: str,
    hyper: Hyperparams,
    modalities: tuple,
    observations: np.ndarray,
    rng: RngStream,
) -> AgentModel:
    """Build an agent on its own observation stack, whose rows are the
    modalities named in order, with uniform random assignments and
    posterior-drawn parameters."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    d = observations.shape[1]
    gen = rng.derive(_STREAM_ASSIGN).generator()
    agent = AgentModel(
        variant=variant,
        hyper=hyper,
        modalities=modalities,
        observations=observations,
        categories=gen.integers(0, hyper.num_categories, size=d),
        signs=gen.integers(0, hyper.num_signs, size=d),
    )
    update_parameters(agent, rng.derive(_STREAM_PARAMS).generator())
    return agent


def posterior_concentrations(agent: AgentModel) -> np.ndarray:
    """Dirichlet parameters of every conditional posterior, given the
    assignments: one flat vector in the agent's layout (see AgentModel).

    Exposed separately from update_parameters so the count bookkeeping can
    be checked exactly.
    """
    k, l = agent.hyper.num_categories, agent.hyper.num_signs
    c, w = agent.categories, agent.signs
    conc = np.empty(agent.prior.size)
    if agent.variant == VARIANT_H2H:
        weights, coupling, *_ = agent.slices
        conc[weights] = np.bincount(c, minlength=k)
        conc[coupling] = np.bincount(c * l + w, minlength=k * l)
    else:
        coupling = agent.slices[0]
        conc[coupling] = np.bincount(w * k + c, minlength=l * k)
    # integer counts summed in float64 are exact far below 2**53; one BLAS
    # product per modality, as one over all modalities side by side starts
    # a second BLAS thread at wide histograms
    obs = agent.observations
    np.matmul(_identity(k)[c].T, obs, out=conc[coupling.stop :].reshape(obs.shape[0], k, obs.shape[2]))
    # count + prior is bitwise prior + count
    conc += agent.prior
    return conc


@cache
def _identity(k: int) -> np.ndarray:
    eye = np.eye(k)
    eye.flags.writeable = False
    return eye


def install_parameters(agent: AgentModel, probs: np.ndarray) -> None:
    """Make probs, a flat vector in the agent's layout (see AgentModel), the
    agent's parameters.

    The parameter fields become views of probs, and the log_ fields views
    of one buffer of its logs floored at PROB_FLOOR. This is the one place
    the parameters are floored and logged; every log-space reader reads
    these views, so every row of log-weights the game normalizes has a
    finite maximum. probs must fill the layout, as update_parameters'
    Dirichlet draw does; nothing here checks it.
    """
    logs = np.maximum(probs, PROB_FLOOR)
    np.log(logs, out=logs)
    blocks = zip(agent.slices, agent.shapes)
    if agent.variant == VARIANT_H2H:
        s, _ = next(blocks)
        agent.category_weights, agent.log_category_weights = probs[s], logs[s]
    s, shape = next(blocks)
    agent.coupling, agent.log_coupling = probs[s].reshape(shape), logs[s].reshape(shape)
    # the emission blocks, all of the last block's shape, follow the coupling
    agent.emissions, agent.log_emissions = (v[s.stop :].reshape(-1, *agent.shapes[-1]) for v in (probs, logs))


def update_parameters(agent: AgentModel, gen: np.random.Generator) -> None:
    """Resample every parameter block from its conditional posterior in one
    Dirichlet pass over the agent's flat layout."""
    conc = posterior_concentrations(agent)
    install_parameters(agent, sample_dirichlet_rows(conc, agent.shapes, gen))


def observation_log_likelihood(agent: AgentModel) -> np.ndarray:
    """(num_objects, num_categories) log-likelihood of each object's counts.

    Multinomial coefficients are omitted; they are constant across
    categories for a fixed object.
    """
    # one BLAS product per modality, added in the stack's row order: one
    # over all modalities side by side sums in another order
    return np.matmul(agent.observations, agent.log_emissions.transpose(0, 2, 1)).sum(axis=0)


def category_log_prior(agent: AgentModel) -> np.ndarray:
    """(num_objects, num_categories) log prior of each object's category
    given its current sign.

    h2h: the category weights times the probability that the category emits
    the sign. t2t: the coupling row over categories that the sign selects.
    """
    log_prior = category_signs(agent, log=True).T[agent.signs]
    if agent.variant == VARIANT_H2H:
        log_prior += agent.log_category_weights
    return log_prior


def sample_categories(agent: AgentModel, gen: np.random.Generator) -> np.ndarray:
    """Redraw every category assignment from its exact conditional given the
    parameters, the observations and the current signs."""
    logw = observation_log_likelihood(agent)
    logw += category_log_prior(agent)
    cum = normalize_log_rows(logw).cumsum(axis=1)
    agent.categories = sample_categorical_rows(cum, gen.random(cum.shape[0]))
    return agent.categories


def category_signs(agent: AgentModel, log: bool = False) -> np.ndarray:
    """(num_categories, num_signs) unnormalized weights over signs, one row
    per category; with log, their floored logs.

    h2h reads the coupling rows, t2t the coupling columns: the likelihood
    of the category under each sign, which a uniform sign prior turns into
    the sign posterior. Every reader draws or takes ratios within a row, so
    the row's normalizer never matters.
    """
    table = agent.log_coupling if log else agent.coupling
    return table if agent.variant == VARIANT_H2H else table.T
