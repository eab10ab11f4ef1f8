"""Alternating-direction solver for mixed denoising and destriping.

The observed cube is modeled as ``y = x + s + b + n``: a multilinearly
low-rank image ``x``, sparse noise ``s``, a separately modeled low-rank
stripe component ``b``, and a Gaussian remainder ``n``.  The objective
couples a data term, an lp penalty on the weighted gradients of the image,
an l1 penalty on ``s``, and fixed Tucker ranks on both ``x`` and ``b``.

Splitting variables ``z`` (a copy of the image constrained by the data term)
and ``f`` (the gradient stack of ``z``) decouple the subproblems.  One outer
iteration performs, in order:

1. ``x``:  one HOOI sweep towards the Tucker fit of ``z - dual_x / beta`` at
   the image ranks, warm-started from the previous iteration's factors (the
   first iteration starts from a truncated HOSVD).  ADMM tolerates inexact
   block minimizers whose suboptimality shrinks over the iterations (Boyd et
   al. 2011, section 3.4.4).  A sweep never increases the fit error of its
   starting factors, and the target moves less and less as the iterates
   settle, so successive warm sweeps approach the exact fit instead of
   running HOOI to its tolerance every time.
2. ``z``:  exact solve of ``((1 + beta) I + beta D^T D) z = rhs`` by real 3-D
   FFT division (circular differences make ``D^T D`` diagonal in Fourier
   space).
3. ``f``:  per-direction generalized shrinkage of ``D(z) + dual_grad / beta``
   with threshold ``lambda_tv / beta`` and the fitted exponents.  ``D(z)`` is
   formed once per iteration, right after the z-step, and shared by this
   step and the dual step.
4. ``b``:  one warm HOOI sweep towards the Tucker fit of ``y - z - s`` at the
   stripe ranks, started like ``x``.
5. ``s``:  soft threshold of ``y - z - b`` at ``lambda_sparse``.
6. dual ascent on both multipliers, then geometric growth of ``beta``, which
   stops at :data:`BETA_MAX`.

Each update builds its result in arrays it allocates itself, in place and in
the operation order of the plain expression it stands for (a regrouped sum
would change the last bits).  It never writes into ``y`` or into the state's
cubes; the one write to the state is that ``update_x`` and ``update_b`` store
their new Tucker factors in ``state.x_factors`` and ``state.b_factors``, where
the next iteration's sweep starts from them.

Iterations stop when the squared relative change of ``x`` drops below
``epsilon`` or after ``max_iter`` iterations; hitting the cap is reported in
the diagnostics, not raised.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .gradient_fit import HyperLaplacianFit, estimate_p
from .priors import (
    GradientStack,
    TvWeights,
    diff_adjoint,
    diff_forward,
    shrink_gradient_stack,
    soft_threshold,
)
from .tensor_ops import fro_norm, validate_cube
from .tucker import TuckerRanks, feasible_ranks, hooi, reconstruct

# cap on the penalty; from the defaults (beta0=0.01, growth 1.1, max_iter=100)
# beta reaches only about 125
BETA_MAX = 1e6


def default_image_ranks(shape: tuple[int, int, int]) -> TuckerRanks:
    """Loose spatial ranks plus a tight spectral rank, the usual HSI regime."""
    h, w, p = shape
    return TuckerRanks(max(1, round(0.8 * h)), max(1, round(0.8 * w)), min(10, p))


def default_stripe_ranks(shape: tuple[int, int, int]) -> TuckerRanks:
    """Stripes are constant along rows (mode-1 rank 1) and weakly correlated across bands."""
    h, w, p = shape
    raw = TuckerRanks(1, max(1, round(0.5 * w)), max(1, round(0.5 * p)))
    return feasible_ranks(raw, shape)


@dataclass(frozen=True)
class SolverConfig:
    """All scalars and structural choices of one solver run.

    ``ranks_x``/``ranks_b`` default to :func:`default_image_ranks` /
    :func:`default_stripe_ranks` for the input shape when left ``None``.
    ``p_override`` skips gradient-exponent estimation.  ``stripe_enabled=False``
    pins the stripe component at zero (ablation mode).
    """

    lambda_tv: float = 0.002
    lambda_sparse: float = 0.02
    beta0: float = 0.01
    # 1.1 rather than the more timid 1.05: the squared relative change of the
    # image estimate reliably clears 1e-6 within 100 iterations at equal or
    # better restoration quality
    beta_growth: float = 1.1
    weights: TvWeights = TvWeights()
    ranks_x: TuckerRanks | None = None
    ranks_b: TuckerRanks | None = None
    epsilon: float = 1e-6
    max_iter: int = 100
    p_override: tuple[float, float, float] | None = None
    stripe_enabled: bool = True

    def __post_init__(self) -> None:
        # every comparison with NaN is false, so the range checks below would pass it
        scalars = (self.lambda_tv, self.lambda_sparse, self.beta0, self.beta_growth, self.epsilon)
        if not np.all(np.isfinite(scalars)):
            raise ValueError(f"scalar settings must be finite, got {scalars}")
        if self.lambda_tv < 0 or self.lambda_sparse < 0:
            raise ValueError("regularization weights must be nonnegative")
        if not 0 < self.beta0 <= BETA_MAX:
            raise ValueError(f"penalty schedule requires 0 < beta0 <= BETA_MAX ({BETA_MAX:g})")
        if self.beta_growth < 1.0:
            raise ValueError("beta_growth must be >= 1")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        # a bool is an Integral, and True would run one iteration
        if (isinstance(self.max_iter, bool) or not isinstance(self.max_iter, numbers.Integral)
                or self.max_iter < 1):
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        if self.p_override is not None and (
            np.shape(self.p_override) != (3,) or not all(0.0 < p <= 1.0 for p in self.p_override)
        ):
            raise ValueError(f"p_override must be three exponents in (0, 1], got {self.p_override}")
        # a truthy string or a plain tuple would otherwise pass here and run
        # with the wrong meaning or fail deep inside solve
        if not isinstance(self.stripe_enabled, bool):
            raise ValueError(f"stripe_enabled must be a bool, got {self.stripe_enabled!r}")
        for name in ("ranks_x", "ranks_b"):
            ranks = getattr(self, name)
            if ranks is not None and not isinstance(ranks, TuckerRanks):
                raise ValueError(f"{name} must be TuckerRanks or None, got {ranks!r}")
        if not isinstance(self.weights, TvWeights):
            raise ValueError(f"weights must be TvWeights, got {self.weights!r}")

    def resolve_ranks(self, shape: tuple[int, int, int]) -> "SolverConfig":
        """Fill in default ranks for ``shape``, then clamp both triples as :func:`hooi` does."""
        ranks_x = self.ranks_x or default_image_ranks(shape)
        ranks_b = self.ranks_b or default_stripe_ranks(shape)
        ranks_x.validate_for(shape)
        ranks_b.validate_for(shape)
        return replace(self, ranks_x=feasible_ranks(ranks_x, shape),
                       ranks_b=feasible_ranks(ranks_b, shape))


@dataclass
class SolverState:
    """Mutable iterate of the alternating loop.

    ``x_factors``/``b_factors`` hold the Tucker factors of the last ``x``/``b``
    fit, the warm start of the next one; ``None`` means start cold.
    """

    x: np.ndarray
    z: np.ndarray
    s: np.ndarray
    b: np.ndarray
    f: GradientStack
    dual_x: np.ndarray
    dual_grad: GradientStack
    beta: float
    x_factors: tuple[np.ndarray, ...] | None = None
    b_factors: tuple[np.ndarray, ...] | None = None

    @classmethod
    def zeros(cls, shape: tuple[int, int, int], beta: float) -> "SolverState":
        return cls(
            x=np.zeros(shape),
            z=np.zeros(shape),
            s=np.zeros(shape),
            b=np.zeros(shape),
            f=GradientStack(np.zeros((3,) + shape)),
            dual_x=np.zeros(shape),
            dual_grad=GradientStack(np.zeros((3,) + shape)),
            beta=beta,
        )


@dataclass(frozen=True)
class ObservationDecomposition:
    """Additive split of the observed cube.

    ``residual`` is defined as the exact remainder
    ``y - (clean + sparse + stripes)`` (that expression, evaluated left to
    right), so the four components carry the observation without loss.
    """

    clean: np.ndarray
    sparse: np.ndarray
    stripes: np.ndarray
    residual: np.ndarray


@dataclass
class SolveDiagnostics:
    """Convergence trace and the run's fitted quantities."""

    rel_change: list[float]
    beta: list[float]
    p_values: tuple[float, float, float]
    sigmas: tuple[float, float, float] | None
    converged: bool
    iterations: int
    wall_time_s: float


@lru_cache(maxsize=8)
def _diff_transfer(shape: tuple[int, int, int], weights: TvWeights) -> np.ndarray:
    """Fourier multipliers of ``D^T D`` for weighted circular differences.

    Only the half spectrum that ``rfftn`` keeps along the band axis is
    returned.  The array is cached per ``(shape, weights)`` and read-only.
    """
    mults = []
    for n, wt in zip(shape, weights.as_tuple()):
        mults.append(wt**2 * (2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n)))
    transfer = (
        mults[0][:, None, None]
        + mults[1][None, :, None]
        + mults[2][None, None, : shape[2] // 2 + 1]
    )
    transfer.setflags(write=False)
    return transfer


def update_x(state: SolverState, cfg: SolverConfig) -> np.ndarray:
    """One HOOI sweep on the multiplier-shifted splitting variable at the image ranks.

    Starts from ``state.x_factors`` and stores the new factors there.
    """
    target = state.beta * state.z
    target -= state.dual_x
    target /= state.beta
    fit = hooi(target, cfg.ranks_x, init=state.x_factors)
    state.x_factors = fit.factors
    return reconstruct(fit)


def update_z(state: SolverState, cfg: SolverConfig, y: np.ndarray) -> np.ndarray:
    """Exact real-FFT solve of the coupled least-squares subproblem."""
    rhs = y - state.b
    rhs -= state.s
    rhs += state.dual_x
    rhs += state.beta * state.x
    shifted = state.beta * state.f.g
    shifted -= state.dual_grad.g
    rhs += diff_adjoint(GradientStack(shifted), cfg.weights)
    del shifted
    # the reciprocal of the real denominator, once per call: numpy divides a
    # complex number by a real one as a multiply by its reciprocal, so only
    # the sign of a zero can differ from the plain division
    inv_denom = state.beta * _diff_transfer(y.shape, cfg.weights)
    inv_denom += 1.0 + state.beta
    np.divide(1.0, inv_denom, out=inv_denom)
    axes = (0, 1, 2)
    spectrum = np.fft.rfftn(rhs, axes=axes)
    del rhs
    spectrum *= inv_denom
    return np.fft.irfftn(spectrum, s=y.shape, axes=axes)


def update_f(
    state: SolverState,
    cfg: SolverConfig,
    p_values: tuple[float, float, float],
    dz: GradientStack,
) -> GradientStack:
    """Generalized shrinkage of the multiplier-shifted gradients ``dz`` of ``z``."""
    target = state.dual_grad.g * (1.0 / state.beta)
    target += dz.g
    return shrink_gradient_stack(GradientStack(target), cfg.lambda_tv / state.beta, p_values)


def update_b(state: SolverState, cfg: SolverConfig, y: np.ndarray) -> np.ndarray:
    """One HOOI sweep on the image-free residual at the stripe ranks.

    Starts from ``state.b_factors`` and stores the new factors there.
    """
    if not cfg.stripe_enabled:
        return np.zeros_like(y)
    target = y - state.z
    target -= state.s
    fit = hooi(target, cfg.ranks_b, init=state.b_factors)
    state.b_factors = fit.factors
    return reconstruct(fit)


def update_s(state: SolverState, cfg: SolverConfig, y: np.ndarray) -> np.ndarray:
    """Soft threshold of the data residual, absorbing sparse outliers."""
    residual = y - state.z
    residual -= state.b
    return soft_threshold(residual, cfg.lambda_sparse)


def update_multipliers(
    state: SolverState, cfg: SolverConfig, dz: GradientStack
) -> tuple[np.ndarray, GradientStack, float]:
    """Dual ascent on both constraints, with ``dz`` the gradients of ``z``.

    Returns the new multipliers and penalty.
    """
    dual_x = state.x - state.z
    dual_x *= state.beta
    dual_x += state.dual_x
    dual_grad = dz.g - state.f.g
    dual_grad *= state.beta
    dual_grad += state.dual_grad.g
    beta = min(state.beta * cfg.beta_growth, BETA_MAX)
    return dual_x, GradientStack(dual_grad), beta


def solve(
    y: np.ndarray, cfg: SolverConfig | None = None
) -> tuple[ObservationDecomposition, SolveDiagnostics]:
    """Decompose an observed cube into clean, sparse, stripe and residual parts.

    ``y`` is expected to be normalized to [0, 1] per band by the caller.
    Non-convergence within ``cfg.max_iter`` is reported via the diagnostics,
    not raised.
    """
    t0 = time.perf_counter()
    y = validate_cube(y, "y")
    cfg = (cfg or SolverConfig()).resolve_ranks(y.shape)

    if cfg.p_override is not None:
        p_values = tuple(float(p) for p in cfg.p_override)
        sigmas = None
    else:
        fit: HyperLaplacianFit = estimate_p(y)
        p_values = fit.p_values
        sigmas = fit.sigmas

    state = SolverState.zeros(y.shape, cfg.beta0)
    rel_change: list[float] = []
    beta_history: list[float] = []
    converged = False
    for _ in range(cfg.max_iter):
        beta_history.append(state.beta)
        x_old = state.x
        state.x = update_x(state, cfg)
        # the change of x is final here; measuring it now frees x_old before
        # the cube-sized temporaries of the other updates
        dx2 = fro_norm(state.x - x_old) ** 2
        x02 = fro_norm(x_old) ** 2
        del x_old
        state.z = update_z(state, cfg, y)
        dz = diff_forward(state.z, cfg.weights)
        state.f = update_f(state, cfg, p_values, dz)
        state.b = update_b(state, cfg, y)
        state.s = update_s(state, cfg, y)
        state.dual_x, state.dual_grad, state.beta = update_multipliers(state, cfg, dz)
        # not held through the next iteration's x- and z-steps
        del dz

        rel = dx2 / x02 if x02 > 0.0 else 1.0
        rel_change.append(rel)
        if x02 > 0.0 and rel <= cfg.epsilon:
            converged = True
            break

    residual = y - (state.x + state.s + state.b)
    decomposition = ObservationDecomposition(state.x, state.s, state.b, residual)
    diagnostics = SolveDiagnostics(
        rel_change=rel_change,
        beta=beta_history,
        p_values=p_values,
        sigmas=sigmas,
        converged=converged,
        iterations=len(rel_change),
        wall_time_s=time.perf_counter() - t0,
    )
    return decomposition, diagnostics
