"""Spatial-spectral difference operators and lp shrinkage.

All three difference directions use circular (periodic) boundaries: the
splitting step of the solver inverts ``I + c * D^T D`` by 3-D FFT division,
which is exact only for periodic stencils.  The direction weights live inside
the difference operator; the shrinkage step applies a single threshold per
gradient block with its own exponent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# largest relative Newton step of gst_shrink that ends its loop
_NEWTON_STEP_TOL = float(np.sqrt(np.finfo(np.float64).eps))


@dataclass(frozen=True)
class TvWeights:
    """Per-direction weights of the difference operator (height, width, band)."""

    w_h: float = 1.0
    w_w: float = 1.0
    w_p: float = 0.5

    def __post_init__(self) -> None:
        for w in self.as_tuple():
            if not np.isfinite(w) or w < 0:
                raise ValueError(f"weights must be finite and nonnegative, got {self.as_tuple()}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.w_h, self.w_w, self.w_p)


@dataclass
class GradientStack:
    """Three same-shape difference fields, one per direction (height, width, band)."""

    gh: np.ndarray
    gw: np.ndarray
    gp: np.ndarray

    def blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.gh, self.gw, self.gp)


def zero_gradient_stack(shape: tuple[int, int, int]) -> GradientStack:
    return GradientStack(np.zeros(shape), np.zeros(shape), np.zeros(shape))


def _circular_diff(t: np.ndarray, axis: int, step: int, weight: float) -> np.ndarray:
    """``weight * (np.roll(t, -step, axis) - t)`` for a ``step`` of 1 or -1.

    Written into one new C-ordered array instead of a rolled copy.  In the
    flat C-ordered data an entry's neighbour along ``axis`` sits ``stride``
    places away, so one contiguous pass over the flat data forms every
    difference except those across the end of the axis, which a second, small
    pass then overwrites with the wrapped-around ones.  ``t.reshape(-1)`` is
    a view of C-ordered data and a C-ordered copy of any other layout.
    """
    out = np.empty(t.shape)
    flat, flat_out = t.reshape(-1), out.reshape(-1)
    stride = int(np.prod(t.shape[axis + 1:]))
    ahead, behind = slice(stride, None), slice(None, flat.size - stride)
    lead = (slice(None),) * axis
    first, last = lead + (0,), lead + (-1,)
    if step == -1:
        ahead, behind, first, last = behind, ahead, last, first
    # entry i is t[i + step] - t[i]; at the end of the axis it wraps around
    np.subtract(flat[ahead], flat[behind], out=flat_out[behind])
    np.subtract(t[first], t[last], out=out[last])
    # x * 1.0 is x bit for bit, so a unit weight needs no pass
    if weight != 1.0:
        out *= weight
    return out


def diff_forward(t: np.ndarray, weights: TvWeights) -> GradientStack:
    """Weighted circular forward differences along height, width and band."""
    t = np.asarray(t, dtype=np.float64)
    w_h, w_w, w_p = weights.as_tuple()
    return GradientStack(
        _circular_diff(t, 0, 1, w_h),
        _circular_diff(t, 1, 1, w_w),
        _circular_diff(t, 2, 1, w_p),
    )


def diff_adjoint(g: GradientStack, weights: TvWeights) -> np.ndarray:
    """Exact adjoint of :func:`diff_forward` under the Euclidean inner product."""
    if not (g.gh.shape == g.gw.shape == g.gp.shape):
        raise ValueError(
            f"gradient blocks must share one shape, got {g.gh.shape}, {g.gw.shape}, {g.gp.shape}"
        )
    w_h, w_w, w_p = weights.as_tuple()
    out = _circular_diff(g.gh, 0, -1, w_h)
    out += _circular_diff(g.gw, 1, -1, w_w)
    out += _circular_diff(g.gp, 2, -1, w_p)
    return out


def soft_threshold(x, delta: float):
    """Shrink toward zero by ``delta``; elementwise on arrays."""
    if delta < 0:
        raise ValueError(f"threshold must be nonnegative, got {delta}")
    x = np.asarray(x, dtype=np.float64)
    out = np.abs(np.atleast_1d(x))
    out -= delta
    np.maximum(out, 0.0, out=out)
    out *= np.sign(x)
    return out if x.ndim else float(out[0])


def gst_threshold(tau: float, p: float) -> float:
    """Smallest |y| with a nonzero minimizer of ``tau*|x|**p + (x-y)**2 / 2``."""
    x_bar = (2.0 * tau * (1.0 - p)) ** (1.0 / (2.0 - p))
    return x_bar + tau * p * x_bar ** (p - 1.0)


def _gst_magnitude(am: np.ndarray, c: float, p: float) -> np.ndarray:
    """Larger root of ``x + c*x**(p-1) = am`` by Newton's method from ``x0 = am``.

    Entries whose iterate ends outside ``(0, am]`` (a NaN from an infinite
    ``am``) are zero.
    """
    x = am.copy()
    if not x.size:
        return x
    w = np.empty_like(x)
    den = np.empty_like(x)
    while True:
        # Newton step x <- x - g(x)/g'(x) for g(x) = x + c*x**(p-1) - am,
        # multiplied through by x: x * (am - (2-p)*w) / (x - (1-p)*w)
        # with w = c*x**(p-1); in place, as the cube-sized
        # temporaries would cost more than the arithmetic
        np.power(x, p - 1.0, out=w)
        w *= c
        np.multiply(w, 1.0 - p, out=den)
        np.subtract(x, den, out=den)
        w *= p - 2.0
        w += am
        x *= w
        x /= den
        # den / w is the old x over the new one; a NaN also ends the loop
        np.divide(den, w, out=den)
        if not den.max() - 1.0 > _NEWTON_STEP_TOL:
            break
    x[~((x > 0.0) & (x <= am))] = 0.0
    return x


def gst_shrink(y, tau: float, p: float):
    """Generalized shrinkage: global minimizer of ``tau*|x|**p + (x-y)**2 / 2``.

    For ``p=1`` this is exactly :func:`soft_threshold`.  For ``p<1`` the
    output is zero whenever |y| is below the closed-form dead zone, and
    otherwise the larger root of ``x + tau*p*x**(p-1) = |y|``, signed by
    ``y``.  The left side is convex in ``x > 0`` and increasing at
    ``x0 = |y|``, so Newton's method from there decreases monotonically to
    that root.  It stops after the first step no larger than ``sqrt(eps)``
    relative to every entry, which quadratic convergence leaves with an
    error at the rounding level.  Elementwise on arrays.
    """
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    y = np.asarray(y, dtype=np.float64)
    scalar = y.ndim == 0
    y = np.atleast_1d(y)
    if p == 1.0:
        out = soft_threshold(y, tau)
    elif tau == 0.0:
        out = y.copy()
    else:
        # the flat index addresses C order: ``flat`` is a view of a C-contiguous
        # ``y`` and a C-ordered copy of any other layout, and ``out`` is
        # C-contiguous so that its ravel is a view the scatter lands in (that of
        # a zeros_like of a Fortran-ordered ``y`` would be a copy); ``out`` is
        # made after the Newton temporaries are freed, to keep the peak low
        flat = y.ravel()
        idx = np.flatnonzero(np.abs(flat) > gst_threshold(tau, p))
        x = _gst_magnitude(np.abs(flat[idx]), tau * p, p)
        x *= np.sign(flat[idx])
        out = np.zeros(y.shape)
        out.ravel()[idx] = x
    return float(out[0]) if scalar else out


def shrink_gradient_stack(
    g: GradientStack, tau: float, p: tuple[float, float, float]
) -> GradientStack:
    """Blockwise generalized shrinkage of a gradient stack.

    One shared threshold ``tau``, one exponent per direction.
    """
    p_h, p_w, p_p = p
    return GradientStack(
        gst_shrink(g.gh, tau, p_h),
        gst_shrink(g.gw, tau, p_w),
        gst_shrink(g.gp, tau, p_p),
    )
