"""Two-agent naming games over coupled multimodal mixture models.

Two agents each fit a Dirichlet mixture over their own multimodal
observations while exchanging discrete signs for the observed objects
through a Metropolis-Hastings naming game.  The package provides the two
coupling variants (sign as shared parent, sign as shared child), an
all-rejection baseline, a joint-sampling topline, evaluation metrics, and
a seeded experiment grid with CSV reporting. The layers are imported as
submodules: signgame.experiment, .game, .agents, .datagen, .metrics,
.stochastic and .cli.
"""

__version__ = "0.1.0"
