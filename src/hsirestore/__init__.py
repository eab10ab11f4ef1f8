"""Mixed-noise removal and destriping for hyperspectral cubes.

Double low-rank Tucker modeling (image and stripes), per-direction lp
gradient priors with data-fitted exponents, and an alternating-direction
solver, plus the seeded noise simulator and the evaluation metrics used to
benchmark restorations.

The package root exports the names of the library example in the README;
everything else is imported from its submodule.
"""

from .fileio import normalize_bands
from .metrics import evaluate
from .noise import case_spec, simulate_case
from .solver import SolverConfig, solve
from .synthetic import low_rank_cube
from .tucker import TuckerRanks

__version__ = "0.1.0"

__all__ = [
    "SolverConfig",
    "TuckerRanks",
    "case_spec",
    "evaluate",
    "low_rank_cube",
    "normalize_bands",
    "simulate_case",
    "solve",
]
