"""Fixed-rank Tucker approximation by higher-order orthogonal iteration.

The solver re-enters this fit on every outer iteration (once for the image
estimate, once for the stripe estimate), so the default inner budget is
deliberately small and each fit after the first of a solve starts from the
previous iteration's factors instead of a fresh truncated HOSVD.  A few
alternating sweeps from either start are accurate enough and keep the outer
loop cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_ops import fro_norm, leading_left_singular_vectors, mode_product, unfold


@dataclass(frozen=True)
class TuckerRanks:
    """Target multilinear rank, one entry per mode."""

    r1: int
    r2: int
    r3: int

    def __post_init__(self) -> None:
        for r in self.as_tuple():
            if int(r) != r or r < 1:
                raise ValueError(f"ranks must be positive integers, got {self.as_tuple()}")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.r1, self.r2, self.r3)

    def validate_for(self, shape: tuple[int, int, int]) -> None:
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
    changed = True
    while changed:
        changed = False
        for n in range(3):
            cap = r[(n + 1) % 3] * r[(n + 2) % 3]
            if r[n] > cap:
                r[n] = cap
                changed = True
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


def _fit_error(t: np.ndarray, fit: TuckerFactors, norm_t: float) -> float:
    """``||t - reconstruct(fit)||`` for column-orthonormal factors.

    The projection is orthogonal, so the squared error is
    ``||t||**2 - ||core||**2``.  That difference keeps at least nine digits
    while the error exceeds ``1e-3 * ||t||``; closer fits are reconstructed.
    """
    gap = norm_t**2 - fro_norm(fit.core) ** 2
    if gap > 1e-6 * norm_t**2:
        return gap**0.5
    return fro_norm(t - reconstruct(fit))


def hooi(
    t: np.ndarray,
    ranks: TuckerRanks,
    max_iter: int = 10,
    tol: float = 1e-4,
    return_errors: bool = False,
    init: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
):
    """Alternating HOOI sweeps from a truncated-HOSVD start or given factors.

    ``init`` supplies column-orthonormal starting factors, one per mode, of
    shape ``(t.shape[n], r_n)`` for the feasible ranks (see
    :func:`feasible_ranks`); the HOSVD is then skipped.  Each sweep replaces
    every factor with the leading left singular vectors of the tensor
    contracted with the other two factors, so the reconstruction error is
    non-increasing from that of the starting projection.  From the default
    cold start it therefore never exceeds the HOSVD error; a warm start gives
    no such bound.  Stops when the relative change of the error drops below
    ``tol`` or after ``max_iter`` sweeps.

    Returns the fitted :class:`TuckerFactors`; with ``return_errors=True``
    also returns the per-sweep reconstruction errors (error of the starting
    projection first).
    """
    t = np.asarray(t, dtype=np.float64)
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    ranks.validate_for(t.shape)
    ranks = feasible_ranks(ranks, t.shape)
    if init is None:
        fit = hosvd_init(t, ranks)
    else:
        init = tuple(np.asarray(m, dtype=np.float64) for m in init)
        expected = tuple(zip(t.shape, ranks.as_tuple()))
        if tuple(m.shape for m in init) != expected:
            raise ValueError(
                f"initial factors of shapes {[m.shape for m in init]} do not match {expected}"
            )
        fit = TuckerFactors(_mode_products(t, [m.T for m in init]), init)
    u1, u2, u3 = fit.factors
    r1, r2, r3 = ranks.as_tuple()
    norm_t = fro_norm(t)
    errors = [_fit_error(t, fit, norm_t)]
    for _ in range(max_iter):
        # the mode-1 and mode-2 updates share the contraction with the old u3,
        # and the core is the mode-3 contraction of the mode-3 update's input
        t3 = mode_product(t, u3.T, 3)
        u1 = leading_left_singular_vectors(unfold(mode_product(t3, u2.T, 2), 1), r1)
        u2 = leading_left_singular_vectors(unfold(mode_product(t3, u1.T, 1), 2), r2)
        t12 = mode_product(mode_product(t, u1.T, 1), u2.T, 2)
        u3 = leading_left_singular_vectors(unfold(t12, 3), r3)
        fit = TuckerFactors(mode_product(t12, u3.T, 3), (u1, u2, u3))
        err = _fit_error(t, fit, norm_t)
        prev = errors[-1]
        errors.append(err)
        if err <= 1e-13 * norm_t:
            break
        if abs(prev - err) < tol * max(prev, 1e-300):
            break
    if return_errors:
        return fit, errors
    return fit
