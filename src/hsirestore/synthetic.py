"""Synthetic ground-truth cubes for simulations and tests."""

from __future__ import annotations

import numpy as np

from .tucker import TuckerFactors, TuckerRanks, reconstruct


def _smooth_columns(n: int, r: int, rng: np.random.Generator) -> np.ndarray:
    """Random smooth column profiles: integrated noise, standardized per column."""
    cols = np.cumsum(rng.standard_normal((n, r)), axis=0)
    cols -= cols.mean(axis=0, keepdims=True)
    norms = np.linalg.norm(cols, axis=0)
    norms[norms == 0] = 1.0
    return cols / norms


def low_rank_cube(shape: tuple[int, int, int], ranks: TuckerRanks, seed: int) -> np.ndarray:
    """Smooth cube of the given multilinear rank, affinely mapped onto [0.05, 0.95].

    The affine map adds at most one to each mode rank.
    """
    rng = np.random.default_rng(seed)
    ranks.validate_for(shape)
    factors = tuple(
        _smooth_columns(n, r, rng) for n, r in zip(shape, ranks.as_tuple())
    )
    core = rng.standard_normal(ranks.as_tuple())
    cube = reconstruct(TuckerFactors(core, factors))
    lo, hi = 0.05, 0.95
    c_min, c_max = cube.min(), cube.max()
    span = c_max - c_min if c_max > c_min else 1.0
    return (cube - c_min) / span * (hi - lo) + lo
