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
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .stochastic import (
    PROB_FLOOR,
    RngStream,
    normalize_log_rows,
    sample_categorical_rows,
    sample_dirichlet_rows,
)

if TYPE_CHECKING:
    from .datagen import Dataset

MODALITIES = ("v", "s", "h")

VARIANT_T2T = "t2t"
VARIANT_H2H = "h2h"
VARIANTS = (VARIANT_T2T, VARIANT_H2H)

# stream ids used below init_agent's base stream
_STREAM_ASSIGN = 0
_STREAM_PARAMS = 1


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
        if self.num_categories < 1 or self.num_signs < 1:
            raise ValueError("num_categories and num_signs must be at least 1")


@dataclass(frozen=True)
class ModalityMask:
    """The subset of modalities an agent can observe."""

    present: frozenset

    def __post_init__(self):
        if not self.present:
            raise ValueError("a modality mask cannot be empty")
        unknown = set(self.present) - set(MODALITIES)
        if unknown:
            raise ValueError(f"unknown modalities {sorted(unknown)!r}")

    @classmethod
    def of(cls, *names: str) -> "ModalityMask":
        return cls(frozenset(names))

    @property
    def ordered(self) -> tuple:
        # canonical order so that float accumulation is reproducible
        return tuple(m for m in MODALITIES if m in self.present)

    def __contains__(self, name: str) -> bool:
        return name in self.present


@dataclass
class AgentModel:
    """Mutable inference state of one agent."""

    name: str
    variant: str
    hyper: Hyperparams
    mask: ModalityMask
    coupling: np.ndarray
    emissions: dict
    categories: np.ndarray
    signs: np.ndarray
    category_weights: np.ndarray | None = None


def init_agent(
    variant: str,
    hyper: Hyperparams,
    dataset: "Dataset",
    agent_id: str,
    rng: RngStream,
) -> AgentModel:
    """Build an agent with uniform random assignments and posterior-drawn parameters."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if agent_id not in dataset.observations:
        raise ValueError(f"dataset has no observations for agent {agent_id!r}")
    mask = dataset.masks[agent_id]
    for m in mask.ordered:
        if m not in dataset.observations[agent_id]:
            raise ValueError(f"agent {agent_id!r} is masked to {m!r} but the dataset lacks it")

    d = dataset.num_objects
    gen = rng.derive(_STREAM_ASSIGN).generator()
    agent = AgentModel(
        name=agent_id,
        variant=variant,
        hyper=hyper,
        mask=mask,
        coupling=np.empty(0),
        emissions={},
        categories=gen.integers(0, hyper.num_categories, size=d),
        signs=gen.integers(0, hyper.num_signs, size=d),
    )
    update_parameters(agent, dataset, rng.derive(_STREAM_PARAMS).generator())
    return agent


def posterior_concentrations(agent: AgentModel, dataset: "Dataset") -> dict:
    """Dirichlet parameters of every conditional posterior, given assignments.

    Exposed separately from update_parameters so the count bookkeeping can
    be checked exactly.
    """
    hyper = agent.hyper
    k, l = hyper.num_categories, hyper.num_signs
    c, w = agent.categories, agent.signs
    out = {}
    if agent.variant == VARIANT_H2H:
        out["category_weights"] = hyper.category_concentration + np.bincount(c, minlength=k)
        joint = np.bincount(c * l + w, minlength=k * l).reshape(k, l)
        out["coupling"] = hyper.coupling_concentration + joint
    else:
        joint = np.bincount(w * k + c, minlength=l * k).reshape(l, k)
        out["coupling"] = hyper.coupling_concentration + joint
    # integer counts summed in float64 are exact far below 2**53
    onehot = _identity(k)[c]
    obs, columns = dataset.float_observations(agent.name, agent.mask)
    for m in agent.mask.ordered:
        out[f"emissions.{m}"] = hyper.emission_concentration[m] + onehot.T @ obs[:, columns[m]]
    return out


@cache
def _identity(k: int) -> np.ndarray:
    eye = np.eye(k)
    eye.flags.writeable = False
    return eye


def update_parameters(agent: AgentModel, dataset: "Dataset", gen: np.random.Generator) -> None:
    """Resample all parameter fields from their conditional posteriors in one
    Dirichlet pass; the category weights are a one-row block."""
    conc = posterior_concentrations(agent, dataset)
    draws = dict(zip(conc, sample_dirichlet_rows([np.atleast_2d(a) for a in conc.values()], gen)))
    if agent.variant == VARIANT_H2H:
        agent.category_weights = draws["category_weights"][0]
    agent.coupling = draws["coupling"]
    for m in agent.mask.ordered:
        agent.emissions[m] = draws[f"emissions.{m}"]


def observation_log_likelihood(agent: AgentModel, dataset: "Dataset") -> np.ndarray:
    """(num_objects, num_categories) log-likelihood of each object's counts.

    Multinomial coefficients are omitted; they are constant across
    categories for a fixed object.
    """
    ll = np.zeros((dataset.num_objects, agent.hyper.num_categories))
    obs, columns = dataset.float_observations(agent.name, agent.mask)
    # one product per modality: a single product over every column would
    # sum in another order, and at wide histograms it starts a second BLAS
    # thread
    for m in agent.mask.ordered:
        ll += obs[:, columns[m]] @ np.log(np.maximum(agent.emissions[m], PROB_FLOOR)).T
    return ll


def category_log_prior(agent: AgentModel) -> np.ndarray:
    """(num_objects, num_categories) log prior of each object's category
    given its current sign.

    h2h: the category weights times the probability that the category emits
    the sign. t2t: the coupling row over categories that the sign selects.
    """
    log_prior = np.log(np.maximum(category_signs(agent), PROB_FLOOR))[:, agent.signs].T
    if agent.variant == VARIANT_H2H:
        log_prior += np.log(np.maximum(agent.category_weights, PROB_FLOOR))
    return log_prior


def sample_categories(agent: AgentModel, dataset: "Dataset", gen: np.random.Generator) -> np.ndarray:
    """Redraw every category assignment from its exact conditional given the
    parameters, the observations and the current signs."""
    logw = observation_log_likelihood(agent, dataset) + category_log_prior(agent)
    cum = normalize_log_rows(logw).cumsum(axis=1)
    agent.categories = sample_categorical_rows(cum, gen.random(cum.shape[0]))
    return agent.categories


def category_signs(agent: AgentModel) -> np.ndarray:
    """(num_categories, num_signs) unnormalized weights over signs, one row
    per category.

    h2h reads the coupling rows, t2t the coupling columns: the likelihood
    of the category under each sign, which a uniform sign prior turns into
    the sign posterior. Every reader draws or takes ratios within a row, so
    the row's normalizer never matters.
    """
    return agent.coupling if agent.variant == VARIANT_H2H else agent.coupling.T
