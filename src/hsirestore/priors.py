"""Spatial-spectral difference operators and lp shrinkage.

All three difference directions use circular (periodic) boundaries: the
splitting step of the solver inverts ``I + c * D^T D`` by 3-D FFT division,
which is exact only for periodic stencils.  The three difference fields of a
cube (height, width, band) are one ``(3, h, w, p)`` array, the direction on
its leading axis.  The direction weights live inside the difference operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# largest relative Newton step of the lp shrinkage that ends its loop
_NEWTON_STEP_TOL = float(np.sqrt(np.finfo(np.float64).eps))
# largest magnitude whose Newton product, at most its square, cannot overflow
_NEWTON_MAX = float(np.sqrt(np.finfo(np.float64).max))
# entries per block of the shrinkages' elementwise passes, whose temporaries
# are one block long: a 48x48x16 cube (36864 entries) is one block
SHRINK_BLOCK_ENTRIES = 40960


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
    out = np.array(np.atleast_1d(x), dtype=np.float64, order="C")
    _soft_threshold_in_place(out.reshape(-1), delta)
    return out if np.ndim(x) else float(out[0])


def _flat_blocks(size: int) -> list[slice]:
    """Consecutive slices of at most :data:`SHRINK_BLOCK_ENTRIES` entries covering ``range(size)``."""
    return [slice(start, start + SHRINK_BLOCK_ENTRIES) for start in range(0, size, SHRINK_BLOCK_ENTRIES)]


def _soft_threshold_in_place(flat: np.ndarray, delta: float) -> None:
    """:func:`soft_threshold` of a 1-D float64 array at a ``delta >= 0``, written over it.

    Each block's clip goes into one block-sized buffer.
    """
    if delta == np.inf:
        # an infinite entry minus its clip would be inf - inf
        flat.fill(0.0)
        return
    clip = np.empty(min(flat.size, SHRINK_BLOCK_ENTRIES))
    for part in _flat_blocks(flat.size):
        block = flat[part]
        # x minus its clip is sign(x) * max(|x| - delta, 0) exactly, except
        # that every zero it gives is +0
        block -= np.clip(block, -delta, delta, out=clip[:block.size])


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
    ends outside ``(0, am]`` (a NaN from an overflow) are zero.  Each step
    runs block by block through two block-sized buffers; the loop stays one
    loop, whose stopping test is the maximum over every entry, so it takes
    the steps, and gives the bits, of one whole pass.
    """
    x = am.copy()
    if not x.size:
        return x
    if am.max() > _NEWTON_MAX:
        inner = am <= _NEWTON_MAX
        x[inner] = _gst_magnitude(am[inner], c, p)
        return x
    parts = _flat_blocks(x.size)
    w, den = np.empty((2, min(x.size, SHRINK_BLOCK_ENTRIES)))
    largest = np.empty(len(parts))
    while True:
        # Newton step x <- x - g(x)/g'(x) for g(x) = x + c*x**(p-1) - am, times x:
        # x * (am - (2-p)*w) / (x - (1-p)*w) with w = c*x**(p-1); in place, one
        # block at a time, as the temporaries would cost more than the arithmetic
        for i, part in enumerate(parts):
            xb, amb = x[part], am[part]
            wb, denb = w[:xb.size], den[:xb.size]
            np.power(xb, p - 1.0, out=wb)
            wb *= c
            np.multiply(wb, 1.0 - p, out=denb)
            np.subtract(xb, denb, out=denb)
            wb *= p - 2.0
            wb += amb
            xb *= wb
            xb /= denb
            # den / w is the old x over the new one
            largest[i] = np.divide(denb, wb, out=denb).max()
        # one test over every entry; a NaN also ends the loop
        if not largest.max() - 1.0 > _NEWTON_STEP_TOL:
            break
    x[~((x > 0.0) & (x <= am))] = 0.0
    return x


def _check_shrink_args(tau: float, p: float) -> None:
    """Reject a threshold or exponent that :func:`_gst_shrink_in_place` does not accept."""
    if not tau >= 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")


def _gst_shrink_in_place(g: np.ndarray, tau: float, p: float) -> np.ndarray:
    """Generalized shrinkage of a C-contiguous float64 array, written over it; returns ``g``.

    Each entry ``y`` becomes the global minimizer of ``tau*|x|**p + (x-y)**2 / 2``:
    :func:`soft_threshold` for ``p=1``; for ``p<1`` zero in the dead zone ``|y| <=``
    :func:`gst_threshold`, and beyond it the larger root of ``x + tau*p*x**(p-1) = |y|``
    signed by ``y``.  That left side is convex in ``x > 0`` and increasing at
    ``|y|``, so Newton's method from ``|y|`` decreases monotonically to the root.
    It stops after the first step no larger than ``sqrt(eps)`` relative to every
    entry, which quadratic convergence leaves at the rounding level.  An infinite
    ``y`` passes through at a finite ``tau``; an infinite ``tau`` zeroes every entry.
    Every elementwise pass runs in blocks of :data:`SHRINK_BLOCK_ENTRIES`
    entries, so the temporaries as long as ``g`` are a boolean mask and, for
    ``p<1``, three arrays as long as the entries beyond the dead zone.
    """
    # the flat index addresses C order, in which ``flat`` is a view of ``g``;
    # of any other layout it would be a copy, and the result would be lost
    if not g.flags.c_contiguous:
        raise ValueError("the lp shrinkage works in place on a C-contiguous array only")
    flat = g.reshape(-1)
    if p == 1.0:
        _soft_threshold_in_place(flat, tau)
    elif tau != 0.0:
        idx = _entries_above(flat, gst_threshold(tau, p))
        magnitudes = flat[idx]
        x = _gst_magnitude(np.abs(magnitudes, out=magnitudes), tau * p, p)
        del magnitudes
        signs = flat[idx]
        x *= np.sign(signs, out=signs)
        g.fill(0.0)
        flat[idx] = x
    return g


def _entries_above(flat: np.ndarray, threshold: float) -> np.ndarray:
    """Flat indices, ascending, of the entries of ``flat`` whose magnitude exceeds ``threshold``.

    The magnitudes are taken one block at a time into one block-sized buffer;
    only the mask is as long as ``flat``.
    """
    magnitude = np.empty(min(flat.size, SHRINK_BLOCK_ENTRIES))
    above = np.empty(flat.size, dtype=bool)
    for part in _flat_blocks(flat.size):
        block = flat[part]
        np.greater(np.abs(block, out=magnitude[:block.size]), threshold, out=above[part])
    return np.flatnonzero(above)


def shrink_gradient_stack(g: GradientStack, tau: float, p: tuple[float, float, float]) -> GradientStack:
    """Blockwise generalized shrinkage of a gradient stack, in place; returns ``g``.

    One shared threshold ``tau``, one exponent per direction.  Each direction
    is shrunk in a C-ordered copy, so any layout of the stack will do.
    """
    for block, p_dir in zip(g.g, p):
        _check_shrink_args(tau, p_dir)
        block[...] = _gst_shrink_in_place(np.array(block, order="C"), tau, p_dir)
    return g
