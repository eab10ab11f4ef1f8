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
for (a regrouped sum would change the last bits).  It never writes into
``y``, ``x``, ``z``, ``s``, ``b`` or ``dual_x``: the new ones are arrays it
allocates.  Three things are updated in place.  ``update_x`` stores its new
Tucker factors in ``state.x_factors``, where the next sweep starts from
them.  ``update_f`` overwrites ``state.f`` and ``state.dual_grad``, buffers
the solve owns, so no gradient stack is allocated after the first.  The z-
and f-steps form their intermediate terms in ``state.scratch``, one cube for
each thread.

The z- and f-steps split their work between the calling thread and one
helper thread (:func:`_fan_out`).  The helper forms the height and width
terms of the z-step's adjoint and the Fourier denominator, half of every
FFT stage, and the height direction of the f-step.  Each task is a whole
unit of the one-thread computation: the same numpy calls on the same
operands in the same order, writing only arrays that no task of the other
thread reads or writes.  numpy's FFTs transform each line on its own, so a
transform over half of the lines gives their bits; and a direction's Newton
loop stays whole on one thread, as its stopping test spans the direction.
So the output is bit-identical whichever thread runs a task, and a process
allowed one CPU runs every task on the calling thread.  The helper runs only
private kernels, never a function that ``restorebench/tracing.py`` wraps,
since that tracer keeps one span stack for all threads.

Iterations stop when the squared relative change of ``x`` drops below
``epsilon`` or after ``max_iter`` iterations; hitting the cap is reported in
the diagnostics, not raised.
"""

from __future__ import annotations

import numbers
import os
import threading
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
    soft_threshold,
)
# The solve forms each difference direction on its own and calls none of these
# three; they are imported because restorebench/tracing.py wraps them in this
# namespace.
from .priors import diff_adjoint, diff_forward, shrink_gradient_stack  # noqa: F401
from .tensor_ops import fro_norm, validate_cube
from .tucker import TuckerRanks, feasible_ranks, hooi, reconstruct

# cap on the penalty; from the defaults (beta0=0.01, growth 1.1, max_iter=100)
# beta reaches only about 125
BETA_MAX = 1e6
# weights of the height, width and band differences; the exponents, not the
# weights, adapt to the data
DIFF_WEIGHTS = (1.0, 1.0, 0.5)


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

    ``f`` and ``dual_grad`` are buffers that :func:`update_f` overwrites in
    place.  ``scratch`` is a ``(2, h, w, p)`` work array: one cube for each
    of the two threads an update runs on.  ``x_factors`` holds
    the Tucker factors of the last ``x`` fit, the warm start of the next one;
    ``None`` means start cold.
    """

    x: np.ndarray
    z: np.ndarray
    s: np.ndarray
    b: np.ndarray
    f: GradientStack
    dual_x: np.ndarray
    dual_grad: GradientStack
    scratch: np.ndarray
    beta: float
    x_factors: tuple[np.ndarray, ...] | None = None

    @classmethod
    def zeros(cls, shape: tuple[int, int, int], beta: float) -> "SolverState":
        return cls(
            x=np.zeros(shape),
            z=np.zeros(shape),
            s=np.zeros(shape),
            b=np.broadcast_to(np.zeros(shape[1:]), shape),
            f=GradientStack(np.zeros((3,) + shape)),
            dual_x=np.zeros(shape),
            dual_grad=GradientStack(np.zeros((3,) + shape)),
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

    Starts from ``state.x_factors`` and stores the new factors there.
    """
    target = state.beta * state.z
    target -= state.dual_x
    target /= state.beta
    fit = hooi(target, cfg.ranks_x, init=state.x_factors)
    state.x_factors = fit.factors
    return reconstruct(fit)


def update_z(state: SolverState, cfg: SolverConfig, y: np.ndarray) -> np.ndarray:
    """Exact real-FFT solve of the coupled least-squares subproblem.

    The helper thread forms the height and width terms of
    ``D^T (beta f - dual_grad)`` and the reciprocal denominator while this
    thread forms the rest of the right-hand side and the band term; the
    terms are summed as :func:`diff_adjoint` sums them, then added to the
    right-hand side.
    """
    beta = state.beta
    helper_scratch, own_scratch = state.scratch
    rhs, adjoint, band_term = np.empty(y.shape), np.empty(y.shape), np.empty(y.shape)
    # the reciprocal of the real denominator, once per call: numpy divides a
    # complex number by a real one as a multiply by its reciprocal, so only
    # the sign of a zero can differ from the plain division
    transfer = _diff_transfer(y.shape, DIFF_WEIGHTS)
    inv_denom = np.empty(transfer.shape)

    def height_and_width_terms() -> None:
        _shifted_gradient(state, 0, helper_scratch)
        _circular_diff(helper_scratch, 0, -1, DIFF_WEIGHTS[0], adjoint)
        _shifted_gradient(state, 1, helper_scratch)
        np.add(adjoint, _circular_diff(helper_scratch, 1, -1, DIFF_WEIGHTS[1]), out=adjoint)
        np.multiply(beta, transfer, out=inv_denom)
        np.add(inv_denom, 1.0 + beta, out=inv_denom)
        np.divide(1.0, inv_denom, out=inv_denom)

    def rest_of_rhs() -> None:
        np.subtract(y, state.b, out=rhs)
        np.subtract(rhs, state.s, out=rhs)
        np.add(rhs, state.dual_x, out=rhs)
        np.add(rhs, np.multiply(beta, state.x, out=own_scratch), out=rhs)
        _shifted_gradient(state, 2, own_scratch)
        _circular_diff(own_scratch, 2, -1, DIFF_WEIGHTS[2], band_term)

    def finish_rows(rows: slice) -> None:
        adjoint[rows] += band_term[rows]
        rhs[rows] += adjoint[rows]

    _fan_out([height_and_width_terms], [rest_of_rhs])
    return _fft_solve(rhs, inv_denom, finish_rows)


def _shifted_gradient(state: SolverState, axis: int, out: np.ndarray) -> None:
    """``beta * f - dual_grad`` along one direction, into ``out``."""
    np.multiply(state.beta, state.f.g[axis], out=out)
    out -= state.dual_grad.g[axis]


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
    state: SolverState, cfg: SolverConfig, p_values: tuple[float, float, float]
) -> GradientStack:
    """Generalized shrinkage of ``D z + dual_grad / beta``, then the ascent of ``dual_grad``.

    Both run in place, one direction at a time: ``D_d z`` goes into a
    scratch cube and the target into ``f_d``, which the shrinkage with
    threshold ``lambda_tv / beta`` then overwrites; then
    ``dual_grad_d += beta * (D_d z - f_d)``.  The helper thread takes the
    height direction, this thread the other two.  Returns ``state.f``.

    Both stacks must be C-contiguous: the shrinkage scatters its result
    through a flat view, which any other layout would only copy.
    """
    tau = cfg.lambda_tv / state.beta
    for p in p_values:
        _check_shrink_args(tau, p)
    for name in ("f", "dual_grad"):
        if not getattr(state, name).g.flags.c_contiguous:
            raise ValueError(f"state.{name} must be a C-contiguous gradient stack")
    helper_scratch, own_scratch = state.scratch
    steps = [
        partial(_f_direction, state, axis, tau, p, dz)
        for axis, p, dz in zip(range(3), p_values, (helper_scratch, own_scratch, own_scratch))
    ]
    _fan_out(steps[:1], steps[1:])
    return state.f


def _f_direction(
    state: SolverState, axis: int, tau: float, p: float, dz: np.ndarray
) -> None:
    """The f-step and the multiplier ascent of one direction (see :func:`update_f`)."""
    f, dual = state.f.g[axis], state.dual_grad.g[axis]
    _circular_diff(state.z, axis, 1, DIFF_WEIGHTS[axis], dz)
    np.multiply(dual, 1.0 / state.beta, out=f)
    f += dz
    _gst_shrink_in_place(f, tau, p)
    # ((dz - f) * beta) + dual is the plain expression's sum, added either way round
    dz -= f
    dz *= state.beta
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
    """Soft threshold of the data residual, absorbing sparse outliers."""
    residual = y - state.z
    residual -= state.b
    return soft_threshold(residual, cfg.lambda_sparse)


def update_multipliers(state: SolverState, cfg: SolverConfig) -> tuple[np.ndarray, float]:
    """Dual ascent on ``x = z`` and the growth of ``beta``; returns both.

    The gradient multiplier ascends in :func:`update_f`.
    """
    dual_x = state.x - state.z
    dual_x *= state.beta
    dual_x += state.dual_x
    beta = min(state.beta * cfg.beta_growth, BETA_MAX)
    return dual_x, beta


# the one helper thread, made on first use by _fan_out under the lock, so
# that solves started at once on two threads make one
_helper = None
_helper_lock = threading.Lock()


def _helper_wanted() -> bool:
    """Whether tasks go to the helper thread: not when the process may run on one CPU only."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


def _forget_helper() -> None:
    global _helper, _helper_lock
    _helper = None
    _helper_lock = threading.Lock()


def _fan_out(helper_tasks: list, inline_tasks: list) -> None:
    """Run ``helper_tasks`` in order on the helper thread and ``inline_tasks`` here.

    Returns once both halves have ended, so no task is still writing when it
    returns or raises; an error of this thread's half takes precedence.  The
    tasks of one half must not touch what the other half writes, so the
    result is the same in any interleaving.  Where :func:`_helper_wanted`
    declines, both halves run here, the helper's first.  Tasks are private
    kernels: none is a name the benchmark tracer wraps, as it keeps one span
    stack for all threads, and none fans out again, as the one helper would
    wait for itself.
    """
    global _helper
    if not _helper_wanted():
        _run_all(helper_tasks)
        _run_all(inline_tasks)
        return
    with _helper_lock:
        if _helper is None:
            # imported here, not at module import, which every CLI call pays for
            from concurrent.futures import ThreadPoolExecutor

            _helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="hsirestore-helper")
            if hasattr(os, "register_at_fork"):
                # a forked child has no helper thread, only this object
                os.register_at_fork(after_in_child=_forget_helper)
        pending = _helper.submit(_run_all, helper_tasks)
    try:
        _run_all(inline_tasks)
    finally:
        error = pending.exception()
    if error is not None:
        raise error


def _run_all(tasks: list) -> None:
    for task in tasks:
        task()


def _on_halves(kernel, n: int) -> None:
    """``kernel(slice)`` on the two halves of ``range(n)``, the first on the helper thread."""
    half = n // 2
    _fan_out([partial(kernel, slice(0, half))], [partial(kernel, slice(half, n))])


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
        update_f(state, cfg, p_values)
        state.b = update_b(state, cfg, y_mean)
        state.s = update_s(state, cfg, y)
        state.dual_x, state.beta = update_multipliers(state, cfg)

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
