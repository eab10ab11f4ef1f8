"""Spatial-spectral difference operators and lp shrinkage.

All three difference directions use circular (periodic) boundaries: the
splitting step of the solver inverts ``I + c * D^T D`` by 3-D FFT division,
which is exact only for periodic stencils.  The three difference fields of a
cube (height, width, band) are one ``(3, h, w, p)`` array, the direction on
its leading axis.  The direction weights live inside the difference operator;
the shrinkage step applies a single threshold per gradient block with its own
exponent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# largest relative Newton step of gst_shrink that ends its loop
_NEWTON_STEP_TOL = float(np.sqrt(np.finfo(np.float64).eps))
# largest magnitude whose Newton product, at most its square, cannot overflow
_NEWTON_MAX = float(np.sqrt(np.finfo(np.float64).max))


@dataclass
class GradientStack:
    """The difference fields along height, width and band, stacked as one ``(3, h, w, p)`` array."""

    g: np.ndarray

    def __post_init__(self) -> None:
        g = self.g
        if not (isinstance(g, np.ndarray) and g.dtype == np.float64 and g.ndim == 4 and len(g) == 3):
            got = f"{g.dtype} {g.shape}" if isinstance(g, np.ndarray) else type(g).__name__
            raise ValueError(f"a gradient stack must be a (3, h, w, p) float64 array, got {got}")

    def blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return tuple(self.g)


def _circular_diff(
    t: np.ndarray, axis: int, step: int, weight: float, out: np.ndarray | None = None
) -> np.ndarray:
    """``weight * (np.roll(t, -step, axis) - t)`` for a ``step`` of 1 or -1.

    Written into ``out``, a C-contiguous array of ``t``'s shape, or into a new
    one when it is ``None``, instead of a rolled copy.  In the
    flat C-ordered data an entry's neighbour along ``axis`` sits ``stride``
    places away, so one contiguous pass over the flat data forms every
    difference except those across the end of the axis, which a second, small
    pass then overwrites with the wrapped-around ones.  ``t.reshape(-1)`` is
    a view of C-ordered data and a C-ordered copy of any other layout.
    """
    if out is None:
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


def diff_forward(t: np.ndarray, weights: tuple[float, float, float]) -> GradientStack:
    """Weighted circular forward differences along height, width and band."""
    t = np.asarray(t, dtype=np.float64)
    g = np.empty((3,) + t.shape)
    for axis, (out, weight) in enumerate(zip(g, weights)):
        _circular_diff(t, axis, 1, weight, out)
    return GradientStack(g)


def diff_adjoint(g: GradientStack, weights: tuple[float, float, float]) -> np.ndarray:
    """Exact adjoint of :func:`diff_forward` under the Euclidean inner product."""
    gh, gw, gp = g.g
    w_h, w_w, w_p = weights
    out = _circular_diff(gh, 0, -1, w_h)
    out += _circular_diff(gw, 1, -1, w_w)
    out += _circular_diff(gp, 2, -1, w_p)
    return out


def soft_threshold(x, delta: float):
    """Shrink toward zero by ``delta``; elementwise on arrays."""
    if not delta >= 0:
        raise ValueError(f"threshold must be nonnegative, got {delta}")
    x = np.asarray(x, dtype=np.float64)
    if delta == np.inf:
        # an infinite x minus its clip would be inf - inf
        out = np.zeros(np.atleast_1d(x).shape)
    else:
        # x minus its clip is sign(x) * max(|x| - delta, 0) exactly, except
        # that every zero it gives is +0
        out = np.clip(np.atleast_1d(x), -delta, delta)
        np.subtract(x, out, out=out)
    return out if x.ndim else float(out[0])


def gst_threshold(tau: float, p: float) -> float:
    """Smallest |y| with a nonzero minimizer of ``tau*|x|**p + (x-y)**2 / 2``."""
    if tau == np.inf:
        # every minimizer is zero; the formula below would take inf * 0
        return np.inf
    x_bar = (2.0 * tau * (1.0 - p)) ** (1.0 / (2.0 - p))
    return x_bar + tau * p * x_bar ** (p - 1.0)


def _gst_magnitude(am: np.ndarray, c: float, p: float) -> np.ndarray:
    """Larger root of ``x + c*x**(p-1) = am`` by Newton's method from ``x0 = am``.

    An ``am`` above :data:`_NEWTON_MAX`, infinite ones included, stays out of
    the Newton steps, where its overflow would end the loop for every entry.
    It is its own root to rounding: ``c*am**(p-1)`` lies below half its
    rounding unit for every ``c`` under about 1e138.  Entries whose iterate
    ends outside ``(0, am]`` (a NaN from an overflow) are zero.
    """
    x = am.copy()
    if not x.size:
        return x
    if am.max() > _NEWTON_MAX:
        inner = am <= _NEWTON_MAX
        x[inner] = _gst_magnitude(am[inner], c, p)
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
    error at the rounding level.  At a finite ``tau`` an infinite ``y``
    passes through, as in :func:`soft_threshold`, and at an infinite ``tau``
    every output is zero.  Elementwise on arrays.
    """
    if not tau >= 0:
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
    """Blockwise generalized shrinkage of a gradient stack, in place; returns ``g``.

    One shared threshold ``tau``, one exponent per direction.
    """
    for block, p_dir in zip(g.g, p):
        block[...] = gst_shrink(block, tau, p_dir)
    return g
