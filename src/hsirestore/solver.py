"""Alternating-direction solver for mixed denoising and destriping.

The observed cube is modeled as ``y = x + s + b + n``: a multilinearly
low-rank image ``x``, sparse noise ``s``, a separately modeled stripe
component ``b``, and a Gaussian remainder ``n``.  Stripes are constant along
the height and zero-mean across the width in each band: ``b = 1_h (x) M``
with a ``w x p`` profile ``M`` of rank at most ``ranks_b.r2``, a Tucker model
whose mode-1 factor is fixed at ``1/sqrt(h)``.  The objective couples a data
term, an lp penalty on the weighted gradients of the image, an l1 penalty on
``s``, and fixed Tucker ranks on ``x``.

Splitting variables ``z`` (a copy of the image constrained by the data term)
and ``f`` (the gradient stack of ``z``) decouple the subproblems.  One outer
iteration performs, as ADMM orders them:

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
3. ``f``:  per direction ``d``, generalized shrinkage of
   ``D_d z + dual_grad_d / beta`` with threshold ``lambda_tv / beta`` and
   the fitted exponent, then the dual ascent
   ``dual_grad_d += beta * (D_d z - f_d)``.  ``D_d z`` is formed once per
   iteration and shared by the two.
4. ``b``:  exact fit of the stripe model to ``y - z - s``: the mean over the
   height, minus each band's mean across the width, cut to the profile rank
   by an SVD (Eckart-Young) when that rank is below ``min(w, p)``.  ``b``
   stays that ``w x p`` profile, broadcast along the height as a read-only
   view.  The height mean of ``y`` is taken once per solve.
5. ``s``:  soft threshold of ``y - z - b`` at ``lambda_sparse``.
6. dual ascent on ``dual_x``, then geometric growth of ``beta``, which
   stops at :data:`BETA_MAX`.

Every update keeps the operation order of the plain expression it stands
for (a regrouped sum would change the last bits), and each cube-sized
temporary goes into a buffer the solve already holds, or runs in blocks.
No update writes into ``y``, ``x``, ``z``, ``s`` or ``b``: the new ones are
arrays it allocates.  What is written in place:

- ``update_x`` forms its HOOI target in ``state.scratch[1]``, the calling
  thread's scratch cube, and stores its new Tucker factors in
  ``state.x_factors``, where the next sweep starts from them.  The solve
  then takes the change of ``x`` over the old ``x``, once its norm is read.
- ``update_f`` overwrites ``state.f`` and ``state.dual_grad``, plain
  ``(3, h, w, p)`` arrays the solve owns, with ``D_d z`` in
  ``state.scratch[0]``, the helper thread's scratch cube.  Its shrinkage
  takes magnitudes, masks and Newton steps in blocks (see
  :mod:`hsirestore.priors`), and the next z-step's width and band terms are
  formed in blocks of whole rows (:func:`_z_gradient_terms`).
- ``update_multipliers`` forms ``beta * (x - z)`` in ``state.scratch[1]``
  and adds it into ``state.dual_x``.
- ``update_s`` soft-thresholds its residual, the new ``s``, in place, in
  blocks.

:func:`solve` drops the old ``z`` before each z-step, which reads only the
parts formed ahead of it, and drops the gradient stacks and scratch cubes
before it forms the residual.

:func:`solve` runs each iteration but the stopping one (see below) after
its z-step as two lanes on two threads (``tensor_ops._fan_out``, which owns
the process's one helper thread).  The helper thread runs the f-step, whose
three directions read only ``z``, ``f`` and ``dual_grad``, and then forms the
next z-step's gradient terms ``D^T (beta' f - dual_grad)`` and its Fourier
denominator at the grown ``beta'``.  The calling thread runs the multiplier
step, the next iteration's x-step (which reads only ``z``, ``dual_x`` and
``beta``), the b- and s-steps and the rest of the next z-step's right-hand
side.  So the next z-step only adds the two parts and runs the FFTs, whose
stages it splits into halves, one on each thread.  No lane reads what the
other writes, and every update sees the operands the order above gives it,
so the lanes reorder no arithmetic: each value is the same numpy call on the
same operands in the same order as in the one-thread loop.  numpy's FFTs
transform each line on its own, so a transform over half of the lines gives
their bits; and a direction's Newton loop stays whole on one thread, as its
stopping test spans the direction.  So the output is bit-identical whichever
thread runs a task, and a process allowed one CPU runs both lanes on the
calling thread, the helper's first.  The helper runs only private kernels,
never a function that ``restorebench/tracing.py`` wraps, since that tracer
keeps one span stack for all threads.

Iterations stop when the squared relative change of ``x`` drops below
``epsilon``, or when ``x`` is zero and stays zero after the first iteration
(only an all-zero input gives that), or after ``max_iter`` iterations;
hitting the cap is reported in the diagnostics, not raised.  The test reads
the change of the iteration's ``x``, known before its z-step, so the
stopping iteration runs only that z-step and then, on the calling thread,
the b- and s-steps the outputs read: no f-step and no multiplier step.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .gradient_fit import HyperLaplacianFit, estimate_p
from .priors import (
    GradientStack,
    _check_shrink_args,
    _circular_diff,
    _gst_shrink_in_place,
    _soft_threshold_in_place,
)
# The solve forms each difference direction on its own and thresholds in place,
# and calls none of these four; they are imported because
# restorebench/tracing.py wraps them in this namespace.
from .priors import diff_adjoint, diff_forward, shrink_gradient_stack, soft_threshold  # noqa: F401
from .tensor_ops import _fan_out, _on_halves, fro_norm, validate_cube
from .tucker import TuckerRanks, feasible_ranks, hooi, reconstruct

# cap on the penalty; from the defaults (beta0=0.01, growth 1.1, max_iter=100)
# beta reaches only about 125
BETA_MAX = 1e6
# weights of the height, width and band differences; the exponents, not the
# weights, adapt to the data
DIFF_WEIGHTS = (1.0, 1.0, 0.5)
# entries per row block of the z-step's width and band terms: a 48x48x16
# cube is one block
ROW_BLOCK_ENTRIES = 40960


def default_image_ranks(shape: tuple[int, int, int]) -> TuckerRanks:
    """Loose spatial ranks plus a tight spectral rank, the usual HSI regime."""
    h, w, p = shape
    return TuckerRanks(max(1, round(0.8 * h)), max(1, round(0.8 * w)), min(10, p))


@dataclass(frozen=True)
class SolverConfig:
    """All scalars and structural choices of one solver run.

    ``ranks_x`` defaults to :func:`default_image_ranks` for the input shape
    when left ``None``.  ``ranks_b`` is ``(1, r, r)`` for a stripe profile of
    rank at most ``r``; left ``None`` it is the full profile rank.
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
        # stripes are constant along the height; a larger mode-1 rank would be ignored
        if self.ranks_b is not None and self.ranks_b.r1 != 1:
            raise ValueError(f"ranks_b must have mode-1 rank 1, got {self.ranks_b.as_tuple()}")

    def resolve_ranks(self, shape: tuple[int, int, int]) -> "SolverConfig":
        """Fill in default ranks for ``shape``, then clamp both triples as :func:`hooi` does."""
        ranks_x = self.ranks_x or default_image_ranks(shape)
        ranks_b = self.ranks_b or TuckerRanks(1, shape[1], shape[2])
        ranks_x.validate_for(shape)
        ranks_b.validate_for(shape)
        return replace(self, ranks_x=feasible_ranks(ranks_x, shape),
                       ranks_b=feasible_ranks(ranks_b, shape))


@dataclass
class SolverState:
    """Mutable iterate of the alternating loop.

    ``f`` and ``dual_grad`` are C-ordered ``(3, h, w, p)`` arrays, one
    direction per leading index, that :func:`update_f` overwrites in place.
    ``dual_x`` is updated in place by :func:`update_multipliers`.
    ``scratch`` is a ``(2, h, w, p)`` work array: the first cube for the
    helper thread, where the f-step forms ``D_d z`` and the z-step's
    gradient terms their input; the second for the calling thread, where
    the x-step forms its HOOI target, the multiplier step its ascent and the
    z-step's right-hand side ``beta * x``.  ``x_factors`` holds
    the Tucker factors of the last ``x`` fit, the warm start of the next one;
    ``None`` means start cold.  ``z_rhs``, ``z_adjoint`` and ``z_inv_denom``
    are the parts of the next z-step formed ahead of it (see
    :func:`update_z`): :func:`update_f` forms the last two, the calling
    thread's lane of :func:`solve` the first.  ``None`` until then.
    """

    x: np.ndarray
    z: np.ndarray
    s: np.ndarray
    b: np.ndarray
    f: np.ndarray
    dual_x: np.ndarray
    dual_grad: np.ndarray
    scratch: np.ndarray
    beta: float
    x_factors: tuple[np.ndarray, ...] | None = None
    z_rhs: np.ndarray | None = None
    z_adjoint: np.ndarray | None = None
    z_inv_denom: np.ndarray | None = None

    @classmethod
    def zeros(cls, shape: tuple[int, int, int], beta: float) -> "SolverState":
        return cls(
            x=np.zeros(shape),
            z=np.zeros(shape),
            s=np.zeros(shape),
            b=np.broadcast_to(np.zeros(shape[1:]), shape),
            f=np.zeros((3,) + shape),
            dual_x=np.zeros(shape),
            dual_grad=np.zeros((3,) + shape),
            scratch=np.empty((2,) + shape),
            beta=beta,
        )


@dataclass(frozen=True)
class ObservationDecomposition:
    """Additive split of the observed cube.

    ``residual`` is defined as the exact remainder
    ``y - (clean + sparse + stripes)`` (that expression, evaluated left to
    right), so the four components carry the observation without loss.
    ``stripes`` is a read-only view of its height-constant profile.
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
def _diff_transfer(shape: tuple[int, int, int], weights: tuple[float, float, float]) -> np.ndarray:
    """Fourier multipliers of ``D^T D`` for weighted circular differences.

    Only the half spectrum that ``rfftn`` keeps along the band axis is
    returned.  The array is cached per ``(shape, weights)`` and read-only.
    """
    mults = []
    for n, wt in zip(shape, weights):
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

    Starts from ``state.x_factors`` and stores the new factors there.  The
    target is formed in this thread's scratch cube, ``state.scratch[1]``.
    """
    target = np.multiply(state.beta, state.z, out=state.scratch[1])
    target -= state.dual_x
    target /= state.beta
    fit = hooi(target, cfg.ranks_x, init=state.x_factors)
    state.x_factors = fit.factors
    return reconstruct(fit)


def update_z(state: SolverState, cfg: SolverConfig, y: np.ndarray) -> np.ndarray:
    """Exact real-FFT solve of the coupled least-squares subproblem.

    The right-hand side is ``y - b - s + dual_x + beta * x`` (:func:`_z_rhs`)
    plus the gradient terms ``D^T (beta f - dual_grad)``
    (:func:`_z_gradient_terms`), which also give the reciprocal denominator.
    Inside :func:`solve` the lanes of the previous iteration have formed
    both parts, and this step only adds them, half of the rows on each
    thread, and runs the FFTs.  Where they are missing (the first iteration,
    or a call on a state of one's own) the helper thread forms the gradient
    terms while this thread forms the rest.  Either way the parts are used
    once: the state's references to them are dropped.
    """
    if state.z_rhs is None:
        helper_scratch, own_scratch = state.scratch
        _fan_out([partial(_z_gradient_terms, state, state.beta, helper_scratch)],
                 [partial(_z_rhs, state, y, own_scratch)])
    rhs, adjoint = state.z_rhs, state.z_adjoint
    inv_denom = state.z_inv_denom
    state.z_rhs = state.z_adjoint = state.z_inv_denom = None

    def finish_rows(rows: slice) -> None:
        rhs[rows] += adjoint[rows]

    return _fft_solve(rhs, inv_denom, finish_rows)


def _z_rhs(state: SolverState, y: np.ndarray, scratch: np.ndarray) -> None:
    """``y - b - s + dual_x + beta * x``, summed left to right, into ``state.z_rhs``."""
    rhs = np.subtract(y, state.b)
    rhs -= state.s
    rhs += state.dual_x
    rhs += np.multiply(state.beta, state.x, out=scratch)
    state.z_rhs = rhs


def _z_gradient_terms(state: SolverState, beta: float, scratch: np.ndarray) -> None:
    """The z-step's gradient terms and reciprocal denominator at ``beta``, into the state.

    ``D^T (beta f - dual_grad)`` is summed height, then width, then band, as
    :func:`diff_adjoint` sums it.  numpy divides a complex number by a real
    one as a multiply by its reciprocal, so dividing the spectrum by the
    denominator and multiplying it by the reciprocal differ only in the sign
    of a zero.  Reads only ``f``, ``dual_grad`` and ``scratch``.  The width
    and band differences stay inside each row, so they are taken in blocks of
    whole rows, about :data:`ROW_BLOCK_ENTRIES` entries each, through one
    block-sized buffer, and added to the height term block by block.
    """
    h, w, p = scratch.shape
    rows = max(1, ROW_BLOCK_ENTRIES // (w * p))
    adjoint, term = np.empty(scratch.shape), np.empty((min(h, rows), w, p))
    for axis in range(3):
        np.multiply(beta, state.f[axis], out=scratch)
        scratch -= state.dual_grad[axis]
        if not axis:
            _circular_diff(scratch, axis, -1, DIFF_WEIGHTS[axis], adjoint)
            continue
        for start in range(0, h, rows):
            block = slice(start, min(start + rows, h))
            diff = _circular_diff(scratch[block], axis, -1, DIFF_WEIGHTS[axis], term[:block.stop - start])
            adjoint[block] += diff
    del term
    inv_denom = np.multiply(beta, _diff_transfer(scratch.shape, DIFF_WEIGHTS))
    inv_denom += 1.0 + beta
    np.divide(1.0, inv_denom, out=inv_denom)
    state.z_adjoint, state.z_inv_denom = adjoint, inv_denom


def _fft_solve(rhs: np.ndarray, inv_denom: np.ndarray, finish_rows) -> np.ndarray:
    """``irfftn(rfftn(rhs) * inv_denom)`` over all three axes, in slabs; overwrites ``rhs``.

    numpy 2's ``np.fft.rfftn`` takes an ``rfft`` along the band axis, then an
    ``fft`` along the width and one along the height, and ``irfftn`` runs the
    inverses in the reverse order; ``pyproject.toml`` requires numpy 2.0 or
    later, for that order and for the ``out=`` of its FFTs.  Each 1-D
    transform acts on every line along its axis alone, so the band and width
    transforms run on halves of the height, and the height transforms, with
    the division, on halves of the width, one half on each thread, with the
    same bits.
    ``finish_rows(rows)`` first completes ``rhs[rows]`` on the thread that
    then transforms those rows.
    """
    h, w, p = rhs.shape
    spectrum = np.empty((h, w, p // 2 + 1), dtype=np.complex128)

    def forward_rows(rows: slice) -> None:
        finish_rows(rows)
        block = spectrum[rows]
        np.fft.rfft(rhs[rows], axis=2, out=block)
        np.fft.fft(block, axis=1, out=block)

    def divide_columns(columns: slice) -> None:
        block = spectrum[:, columns]
        np.fft.fft(block, axis=0, out=block)
        block *= inv_denom[:, columns]
        np.fft.ifft(block, axis=0, out=block)

    def inverse_rows(rows: slice) -> None:
        block = spectrum[rows]
        np.fft.ifft(block, axis=1, out=block)
        np.fft.irfft(block, n=p, axis=2, out=rhs[rows])

    _on_halves(forward_rows, h)
    _on_halves(divide_columns, w)
    _on_halves(inverse_rows, h)
    return rhs


def update_f(
    state: SolverState,
    cfg: SolverConfig,
    p_values: tuple[float, float, float],
    alongside=(),
) -> GradientStack:
    """Generalized shrinkage of ``D z + dual_grad / beta``, then the ascent of ``dual_grad``.

    Both run in place, one direction at a time, on the helper thread: ``D_d
    z`` goes into a scratch cube and the target into ``f_d``, which the
    shrinkage with threshold ``lambda_tv / beta`` then overwrites; then
    ``dual_grad_d += beta * (D_d z - f_d)``.  The helper then forms the next
    z-step's gradient terms and denominator (:func:`_z_gradient_terms`) at
    the ``beta`` that :func:`update_multipliers` grows this one to.
    Meanwhile this thread runs the ``alongside`` callables, which may write
    neither ``z``, ``f``, ``dual_grad`` nor the first scratch cube, the
    helper's; :func:`solve` passes the rest of its iteration.  Returns once
    both threads are done, with ``state.f`` as a :class:`GradientStack`,
    which copies nothing: the benchmark tracer's ``solver.update_f`` note
    reads its ``blocks()``.

    Both stacks must be C-contiguous: the shrinkage scatters its result
    through a flat view, which any other layout would only copy.
    """
    beta = state.beta
    tau = cfg.lambda_tv / beta
    for p in p_values:
        _check_shrink_args(tau, p)
    for name in ("f", "dual_grad"):
        if not getattr(state, name).flags.c_contiguous:
            raise ValueError(f"state.{name} must be a C-contiguous gradient stack")
    dz = state.scratch[0]
    lane = [partial(_f_direction, state, axis, beta, tau, p, dz) for axis, p in enumerate(p_values)]
    lane.append(partial(_z_gradient_terms, state, _next_beta(beta, cfg), dz))
    _fan_out(lane, list(alongside))
    return GradientStack(state.f)


def _f_direction(
    state: SolverState, axis: int, beta: float, tau: float, p: float, dz: np.ndarray
) -> None:
    """The f-step and the multiplier ascent of one direction (see :func:`update_f`)."""
    f, dual = state.f[axis], state.dual_grad[axis]
    _circular_diff(state.z, axis, 1, DIFF_WEIGHTS[axis], dz)
    np.multiply(dual, 1.0 / beta, out=f)
    f += dz
    _gst_shrink_in_place(f, tau, p)
    # ((dz - f) * beta) + dual is the plain expression's sum, added either way round
    dz -= f
    dz *= beta
    dual += dz


def update_b(state: SolverState, cfg: SolverConfig, y_mean: np.ndarray) -> np.ndarray:
    """Exact least-squares fit of the stripe model (step 4 above) to ``y - z - s``.

    ``y_mean`` is ``y.mean(axis=0)``, which the solve takes once.
    """
    shape = state.z.shape
    if not cfg.stripe_enabled:
        return np.broadcast_to(np.zeros(shape[1:]), shape)
    # the mean is linear, so no cube-sized residual is formed
    profile = y_mean.copy()
    profile -= state.z.mean(axis=0)
    profile -= state.s.mean(axis=0)
    profile -= profile.mean(axis=0)
    r = cfg.ranks_b.r2
    if r < min(profile.shape):
        u, sv, vt = np.linalg.svd(profile, full_matrices=False)
        profile = (u[:, :r] * sv[:r]) @ vt[:r]
    return np.broadcast_to(profile, shape)


def update_s(state: SolverState, cfg: SolverConfig, y: np.ndarray) -> np.ndarray:
    """Soft threshold of the data residual, absorbing sparse outliers.

    The threshold runs in place on the residual, the new ``s``, which is
    C-ordered whatever the layout of ``y``, so that its flat view is itself.
    """
    residual = np.subtract(y, state.z, order="C")
    residual -= state.b
    _soft_threshold_in_place(residual.reshape(-1), cfg.lambda_sparse)
    return residual


def update_multipliers(state: SolverState, cfg: SolverConfig) -> tuple[np.ndarray, float]:
    """Dual ascent on ``x = z`` and the growth of ``beta``; returns both.

    ``beta * (x - z)`` is formed in this thread's scratch cube,
    ``state.scratch[1]``, and added into ``state.dual_x``, which is returned:
    addition commutes bit for bit, so that is the plain expression's sum.
    The gradient multiplier ascends in :func:`update_f`.
    """
    step = np.subtract(state.x, state.z, out=state.scratch[1])
    step *= state.beta
    state.dual_x += step
    return state.dual_x, _next_beta(state.beta, cfg)


def _next_beta(beta: float, cfg: SolverConfig) -> float:
    """``beta`` after one geometric growth step, capped at :data:`BETA_MAX`."""
    return min(beta * cfg.beta_growth, BETA_MAX)


def _x_step(state: SolverState, cfg: SolverConfig) -> tuple[float, float]:
    """Run :func:`update_x`; returns the squared norms of the change of ``x`` and of the old ``x``.

    The change is formed over the old ``x``, once its norm is taken.
    """
    x_old = state.x
    state.x = update_x(state, cfg)
    x02 = fro_norm(x_old) ** 2
    change = np.subtract(state.x, x_old, out=x_old)
    return fro_norm(change) ** 2, x02


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
    # y is fixed for the solve, and so is its height mean, the b-step's first term
    y_mean = y.mean(axis=0)
    rel_change: list[float] = []
    beta_history: list[float] = []
    dx2, x02 = _x_step(state, cfg)

    def rest_of_iteration() -> None:
        # this thread's lane; the helper's runs the f-step (see update_f)
        nonlocal dx2, x02
        state.dual_x, state.beta = update_multipliers(state, cfg)
        dx2, x02 = _x_step(state, cfg)
        state.b = update_b(state, cfg, y_mean)
        state.s = update_s(state, cfg, y)
        _z_rhs(state, y, state.scratch[1])

    for it in range(cfg.max_iter):
        beta_history.append(state.beta)
        if x02 > 0.0:
            rel = dx2 / x02
            converged = rel <= cfg.epsilon
        else:
            # x starts at zero, and the first x-step, from z = 0, gives zero
            # too; after it, an x that stays exactly zero has converged
            converged = it > 0 and dx2 == 0.0
            rel = 0.0 if converged else 1.0
        # the z-step reads only the parts formed ahead of it, not the old z
        state.z = None
        state.z = update_z(state, cfg, y)
        rel_change.append(rel)
        if converged or it == cfg.max_iter - 1:
            break
        update_f(state, cfg, p_values, alongside=[rest_of_iteration])
    # the stopping iteration: only the b- and s-steps, which the outputs read
    state.b = update_b(state, cfg, y_mean)
    state.s = update_s(state, cfg, y)
    # the outputs read only x, s and b; the gradient stacks and scratch go first
    state.f = state.dual_grad = state.scratch = None

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
