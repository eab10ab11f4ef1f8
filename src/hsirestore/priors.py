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

GST_FIXED_POINT_ITERS = 10


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

    def __add__(self, other: "GradientStack") -> "GradientStack":
        return GradientStack(self.gh + other.gh, self.gw + other.gw, self.gp + other.gp)

    def __sub__(self, other: "GradientStack") -> "GradientStack":
        return GradientStack(self.gh - other.gh, self.gw - other.gw, self.gp - other.gp)

    def __mul__(self, c: float) -> "GradientStack":
        return GradientStack(c * self.gh, c * self.gw, c * self.gp)

    __rmul__ = __mul__


def zero_gradient_stack(shape: tuple[int, int, int]) -> GradientStack:
    return GradientStack(np.zeros(shape), np.zeros(shape), np.zeros(shape))


def diff_forward(t: np.ndarray, weights: TvWeights) -> GradientStack:
    """Weighted circular forward differences along height, width and band."""
    t = np.asarray(t, dtype=np.float64)
    w_h, w_w, w_p = weights.as_tuple()
    return GradientStack(
        w_h * (np.roll(t, -1, axis=0) - t),
        w_w * (np.roll(t, -1, axis=1) - t),
        w_p * (np.roll(t, -1, axis=2) - t),
    )


def diff_adjoint(g: GradientStack, weights: TvWeights) -> np.ndarray:
    """Exact adjoint of :func:`diff_forward` under the Euclidean inner product."""
    if not (g.gh.shape == g.gw.shape == g.gp.shape):
        raise ValueError(
            f"gradient blocks must share one shape, got {g.gh.shape}, {g.gw.shape}, {g.gp.shape}"
        )
    w_h, w_w, w_p = weights.as_tuple()
    out = w_h * (np.roll(g.gh, 1, axis=0) - g.gh)
    out += w_w * (np.roll(g.gw, 1, axis=1) - g.gw)
    out += w_p * (np.roll(g.gp, 1, axis=2) - g.gp)
    return out


def soft_threshold(x, delta: float):
    """Shrink toward zero by ``delta``; elementwise on arrays."""
    if delta < 0:
        raise ValueError(f"threshold must be nonnegative, got {delta}")
    x = np.asarray(x, dtype=np.float64)
    out = np.sign(x) * np.maximum(np.abs(x) - delta, 0.0)
    return out if out.ndim else float(out)


def gst_threshold(tau: float, p: float) -> float:
    """Smallest |y| with a nonzero minimizer of ``tau*|x|**p + (x-y)**2 / 2``."""
    x_bar = (2.0 * tau * (1.0 - p)) ** (1.0 / (2.0 - p))
    return x_bar + tau * p * x_bar ** (p - 1.0)


def gst_shrink(y, tau: float, p: float):
    """Generalized shrinkage: global minimizer of ``tau*|x|**p + (x-y)**2 / 2``.

    For ``p=1`` this is exactly :func:`soft_threshold`.  For ``p<1`` the
    output is zero whenever |y| is below the closed-form dead zone, and
    otherwise the fixed point of ``x = |y| - tau*p*x**(p-1)`` reached from
    ``x0 = |y|`` (a geometrically convergent iteration), signed by ``y``.
    Elementwise on arrays.
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
        out = np.zeros_like(y)
        a = np.abs(y)
        mask = a > gst_threshold(tau, p)
        if np.any(mask):
            am = a[mask]
            x = am.copy()
            for _ in range(GST_FIXED_POINT_ITERS):
                x = am - tau * p * x ** (p - 1.0)
            bad = ~((x > 0.0) & (x <= am))
            x[bad] = 0.0
            out[mask] = np.sign(y[mask]) * x
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
