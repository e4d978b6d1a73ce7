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

import numbers
from dataclasses import dataclass, field
from functools import cache
from itertools import accumulate

import numpy as np

from .stochastic import PROB_FLOOR, RngStream, sample_dirichlet_rows, sample_log_rows

MODALITIES = ("v", "s", "h")

VARIANT_T2T = "t2t"
VARIANT_H2H = "h2h"
VARIANTS = (VARIANT_T2T, VARIANT_H2H)

# stream id used below init_agent's base stream
_STREAM_ASSIGN = 0


def shown(value) -> str:
    """repr(value) for an error message, or a stand-in where str() refuses:
    it prints no int of over 4,300 digits, nor a value that holds one."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, numbers.Integral):
            return f"an integer of {int(value).bit_length()} bits"
        return f"a {type(value).__name__} too long to print"


def check_sizes(config, bits: int = 63, **least: int) -> None:
    """Check config's integer fields, given with their least values: raise
    ValueError naming the first that is not an integer or lies outside
    [least, 2**bits), and store an integral float such as 2.0 as the int.
    Sizes index numpy's int64 arrays and bound its integer draws."""
    for name, low in least.items():
        value = getattr(config, name)
        # int() would truncate 2.7 to 2, read True as 1 and parse "2"; % 1
        # stays exact where float() overflows, as for Fraction(10**400, 3)
        if isinstance(value, bool) or not isinstance(value, numbers.Real) or value % 1 != 0:
            raise ValueError(f"{name} must be an integer, got {shown(value)}")
        if not low <= value < 2**bits:
            raise ValueError(f"{name} must be in [{low}, 2**{bits}), got {shown(value)}")
        object.__setattr__(config, name, int(value))


def _check_concentration(name: str, value) -> float:
    """value as a float; ValueError naming the field unless it is a finite
    number of at least PROB_FLOOR. The Dirichlet draw divides log1p(-u),
    which is at least -53 ln 2 = -36.7, by the concentration; from
    PROB_FLOOR up the quotient stays finite."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {shown(value)}")
    try:
        value = float(value)
    except OverflowError:  # an int beyond float range
        value = np.inf
    # written so that NaN fails too
    if not PROB_FLOOR <= value < np.inf:
        raise ValueError(f"{name} must be finite and at least {PROB_FLOOR:g}, got {value!r}")
    return value


@dataclass(frozen=True)
class EmissionConcentration:
    """The Dirichlet prior concentration of each modality's emissions."""

    v: float = 0.001
    s: float = 0.001
    h: float = 0.001

    def __post_init__(self):
        for m in MODALITIES:
            object.__setattr__(self, m, _check_concentration(m, getattr(self, m)))


@dataclass(frozen=True)
class Hyperparams:
    """Concentrations and sizes shared by both agents of a run."""

    coupling_concentration: float = 0.01
    emission_concentration: EmissionConcentration = field(default_factory=EmissionConcentration)
    category_concentration: float = 0.01
    num_categories: int = 15
    num_signs: int = 15

    def __post_init__(self):
        for name in ("coupling_concentration", "category_concentration"):
            object.__setattr__(self, name, _check_concentration(name, getattr(self, name)))
        emission = self.emission_concentration
        if not isinstance(emission, EmissionConcentration):
            raise ValueError(f"emission_concentration must be an EmissionConcentration, got {shown(emission)}")
        check_sizes(self, num_categories=1, num_signs=1)


@dataclass
class AgentModel:
    """Mutable inference state of one agent.

    The parameters live in one flat vector, one row-major block after
    another in the order and shapes that shapes lists: h2h's 1 x K category
    weights and K x L coupling, or t2t's L x K coupling, then an M x K x
    bins stack of emission blocks, one per observed modality in
    modalities order. prior holds the blocks' prior concentrations in
    that layout. install_parameters sets what the game reads of a drawn
    vector (see there); those four tables are None until the agent's first
    update_parameters. observations is the agent's own read-only float64
    (M, objects, bins) stack, the dataset's array itself, and the only
    data its kernels read; modalities names its rows in order. conc is the
    last posterior_concentrations result, read-only; conc_key holds the bytes
    of the categories and signs it counted, its only inputs that change in
    the agent's life (signs change in place, so identity would not do).
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
    sign_table: np.ndarray | None = field(default=None, init=False)
    log_sign_table: np.ndarray | None = field(default=None, init=False)
    log_category_prior: np.ndarray | None = field(default=None, init=False)
    log_emissions: np.ndarray | None = field(default=None, init=False)
    conc_key: tuple | None = field(default=None, init=False, repr=False)
    conc: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {shown(self.variant)}")
        hyper = self.hyper
        k, l = hyper.num_categories, hyper.num_signs
        if self.variant == VARIANT_H2H:
            blocks = [((1, k), hyper.category_concentration), ((k, l), hyper.coupling_concentration)]
        else:
            blocks = [((l, k), hyper.coupling_concentration)]
        blocks += [((k, self.observations.shape[2]), getattr(hyper.emission_concentration, m)) for m in self.modalities]
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
    modalities named in order, with uniform random assignments; its tables
    are None until the first update_parameters draws them."""
    d = observations.shape[1]
    gen = rng.derive(_STREAM_ASSIGN).generator()
    return AgentModel(
        variant=variant,
        hyper=hyper,
        modalities=modalities,
        observations=observations,
        categories=gen.integers(0, hyper.num_categories, size=d),
        signs=gen.integers(0, hyper.num_signs, size=d),
    )


def _views(agent: AgentModel, flat: np.ndarray) -> tuple:
    """The category weights (None in t2t), the K x L sign table and the
    M x K x bins emission stack of a flat vector in the agent's layout, as
    views of it. The sign table is the h2h coupling, or the t2t coupling
    transposed: the likelihood of the category under each sign."""
    k, l = agent.hyper.num_categories, agent.hyper.num_signs
    if agent.variant == VARIANT_H2H:
        weights, coupling, *_ = agent.slices
        out = flat[weights], flat[coupling].reshape(k, l)
    else:
        coupling = agent.slices[0]
        out = None, flat[coupling].reshape(l, k).T
    # the emission blocks, all of the last block's shape, follow the coupling
    return *out, flat[coupling.stop :].reshape(-1, *agent.shapes[-1])


def posterior_concentrations(agent: AgentModel) -> np.ndarray:
    """Dirichlet parameters of every conditional posterior, given the
    assignments: one flat vector in the agent's layout (see AgentModel).

    Exposed separately from update_parameters so the count bookkeeping can
    be checked exactly.
    """
    k, l = agent.hyper.num_categories, agent.hyper.num_signs
    c, w = agent.categories, agent.signs
    conc = np.empty(agent.prior.size)
    weights, table, emissions = _views(agent, conc)
    if weights is not None:
        weights[:] = np.bincount(c, minlength=k)
    table[...] = np.bincount(c * l + w, minlength=k * l).reshape(k, l)
    # integer counts summed in float64 are exact far below 2**53; one BLAS
    # product per modality, as one over all modalities side by side starts
    # a second BLAS thread at wide histograms
    np.matmul(_identity(k)[c].T, agent.observations, out=emissions)
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
    agent's parameters, in the forms the game reads; past these fields no
    kernel tells the variants apart.

    sign_table is the K x L view of probs (see _views), and log_sign_table
    and log_emissions are views of one buffer of its logs floored at
    PROB_FLOOR. log_category_prior is L x K, row w the log prior over
    categories of an object whose sign is w: the h2h log coupling
    transposed plus the log category weights, or the t2t log coupling
    block itself. This is the one place the parameters are floored and
    logged, so every row of log-weights the game normalizes has a finite
    maximum. probs must fill the layout, as update_parameters' Dirichlet
    draw does; nothing here checks it.
    """
    logs = np.maximum(probs, PROB_FLOOR)
    np.log(logs, out=logs)
    _, agent.sign_table, _ = _views(agent, probs)
    log_weights, agent.log_sign_table, agent.log_emissions = _views(agent, logs)
    prior = agent.log_sign_table.T
    agent.log_category_prior = prior if log_weights is None else prior + log_weights


def update_parameters(agent: AgentModel, gen: np.random.Generator) -> None:
    """Resample every parameter block from its conditional posterior in one
    Dirichlet pass over the agent's flat layout; conc is recounted only when
    the categories' or signs' values differ from conc_key's (see AgentModel)."""
    key = agent.categories.tobytes(), agent.signs.tobytes()
    if key != agent.conc_key:
        agent.conc = posterior_concentrations(agent)
        agent.conc.flags.writeable = False
        agent.conc_key = key
    install_parameters(agent, sample_dirichlet_rows(agent.conc, agent.shapes, gen))


def observation_log_likelihood(agent: AgentModel) -> np.ndarray:
    """(num_objects, num_categories) log-likelihood of each object's counts.

    Multinomial coefficients are omitted; they are constant across
    categories for a fixed object.
    """
    # one BLAS product per modality, added in the stack's row order: one
    # over all modalities side by side sums in another order
    return np.matmul(agent.observations, agent.log_emissions.transpose(0, 2, 1)).sum(axis=0)


def sample_categories(agent: AgentModel, gen: np.random.Generator) -> np.ndarray:
    """Redraw every category assignment from its exact conditional given the
    parameters, the observations and the current signs."""
    logw = observation_log_likelihood(agent)
    logw += agent.log_category_prior[agent.signs]
    agent.categories = sample_log_rows(logw, gen)
    return agent.categories
