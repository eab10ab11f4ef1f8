"""Fixed-rank Tucker approximation by higher-order orthogonal iteration.

:func:`hooi` runs exactly one sweep per call, and the fit's error never
exceeds that of its starting projection.  A converged fit is a loop of calls,
each started from the previous fit's factors.  The solver makes one call per
outer iteration, for the image estimate; each call after the first of a solve
starts from the previous iteration's factors instead of a fresh truncated
HOSVD.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .tensor_ops import leading_left_singular_vectors, mode_product, unfold


@dataclass(frozen=True)
class TuckerRanks:
    """Target multilinear rank, one entry per mode."""

    r1: int
    r2: int
    r3: int

    def __post_init__(self) -> None:
        # a bool is an Integral too
        if not all(isinstance(r, numbers.Integral) and not isinstance(r, bool) and r >= 1
                   for r in self.as_tuple()):
            raise ValueError(f"ranks must be positive integers, got {self.as_tuple()}")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.r1, self.r2, self.r3)

    def validate_for(self, shape: tuple[int, int, int]) -> None:
        if len(shape) != 3:
            raise ValueError(f"expected a 3-D tensor, got shape {shape}")
        for r, d in zip(self.as_tuple(), shape):
            if r > d:
                raise ValueError(f"rank {self.as_tuple()} exceeds tensor shape {shape}")


def feasible_ranks(ranks: TuckerRanks, shape: tuple[int, int, int]) -> TuckerRanks:
    """Clamp a rank triple to a consistent multilinear rank.

    Each mode rank can never exceed the product of the other two (nor its own
    dimension); the approximation sets of the requested and clamped triples
    are identical.
    """
    r = [min(rk, d) for rk, d in zip(ranks.as_tuple(), shape)]
    # lowering a rank to the product of the other two leaves both of their
    # caps met, so one pass over the modes is enough
    for n in range(3):
        r[n] = min(r[n], r[(n + 1) % 3] * r[(n + 2) % 3])
    return TuckerRanks(*r)


@dataclass
class TuckerFactors:
    """Core tensor plus three column-orthonormal factor matrices."""

    core: np.ndarray
    factors: tuple[np.ndarray, np.ndarray, np.ndarray]


def _mode_products(t: np.ndarray, mats) -> np.ndarray:
    """``t x1 mats[0] x2 mats[1] x3 mats[2]``."""
    for n, m in enumerate(mats, start=1):
        t = mode_product(t, m, n)
    return t


def reconstruct(f: TuckerFactors) -> np.ndarray:
    """Expand ``core x1 F1 x2 F2 x3 F3`` back to a full cube."""
    core = np.asarray(f.core)
    if core.ndim != 3 or len(f.factors) != 3:
        raise ValueError("expected a 3-D core and three factor matrices")
    for i, m in enumerate(f.factors):
        if m.ndim != 2 or m.shape[1] != core.shape[i]:
            raise ValueError(
                f"factor {i + 1} of shape {m.shape} does not match core shape {core.shape}"
            )
    return _mode_products(core, f.factors)


def hosvd_init(t: np.ndarray, ranks: TuckerRanks) -> TuckerFactors:
    """Truncated HOSVD: per-mode leading singular vectors and the induced core."""
    t = np.asarray(t, dtype=np.float64)
    ranks.validate_for(t.shape)
    factors = tuple(
        leading_left_singular_vectors(unfold(t, n), r)
        for n, r in zip((1, 2, 3), ranks.as_tuple())
    )
    return TuckerFactors(_mode_products(t, [m.T for m in factors]), factors)


def hooi(
    t: np.ndarray,
    ranks: TuckerRanks,
    init: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> TuckerFactors:
    """One HOOI sweep from a truncated-HOSVD start or given factors.

    ``init`` supplies column-orthonormal starting factors, one per mode, of
    shape ``(t.shape[n], r_n)`` for the feasible ranks (see
    :func:`feasible_ranks`); the HOSVD is then skipped.  The sweep replaces
    every factor with the leading left singular vectors of the tensor
    contracted with the other two factors, so the reconstruction error never
    exceeds that of the starting projection; from the default cold start it
    therefore never exceeds the HOSVD error.  Several sweeps are several
    calls, each started from the previous fit's ``factors``.
    """
    t = np.asarray(t, dtype=np.float64)
    ranks.validate_for(t.shape)
    ranks = feasible_ranks(ranks, t.shape)
    if init is None:
        init = hosvd_init(t, ranks).factors
    else:
        init = tuple(np.asarray(m, dtype=np.float64) for m in init)
        expected = tuple(zip(t.shape, ranks.as_tuple()))
        if tuple(m.shape for m in init) != expected:
            raise ValueError(
                f"initial factors of shapes {[m.shape for m in init]} do not match {expected}"
            )
    u1, u2, u3 = init
    r1, r2, r3 = ranks.as_tuple()
    # the mode-1 and mode-2 updates share the contraction with the old u3,
    # and the core is the mode-3 contraction of the mode-3 update's input
    t3 = mode_product(t, u3.T, 3)
    u1 = leading_left_singular_vectors(unfold(mode_product(t3, u2.T, 2), 1), r1)
    u2 = leading_left_singular_vectors(unfold(mode_product(t3, u1.T, 1), 2), r2)
    del t3
    t12 = mode_product(mode_product(t, u1.T, 1), u2.T, 2)
    u3 = leading_left_singular_vectors(unfold(t12, 3), r3)
    return TuckerFactors(mode_product(t12, u3.T, 3), (u1, u2, u3))
