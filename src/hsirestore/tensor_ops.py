"""Dense order-3 tensor primitives, layout copies and the helper thread.

Cubes are plain ``numpy.ndarray`` objects of shape ``(h, w, p)`` (height,
width, band).  In memory every cube is C-ordered float64, band index fastest:
:func:`validate_cube` and :func:`mode_product` return that layout, so the
elementwise passes of the solver never meet two layouts.  Modes are numbered
1..3.  Matricization follows the standard Kolda-Bader column ordering: the
mode-n unfolding maps element ``(i1,i2,i3)`` to row ``i_n`` and a column index
built from the remaining indices in ascending mode order with the lower mode
varying fastest; :func:`unfold` and :func:`fold` keep that order whatever the
memory layout.

The module also holds what every layer shares for its blocks (one rule,
:data:`BLOCK_ENTRIES` and :data:`BAND_BLOCK_BYTES`), its layout copies and its
second core.  :func:`_copy_in_tiles` runs a transposing copy tile by tile, so
that neither side is walked across the whole array between two uses of one
cache line.  :func:`_fan_out` hands a list of tasks to the one helper thread
of the process, made on first use, and runs another list on the calling
thread; the solver's lanes and FFT halves and the metrics' SSIM rows and
spectral-angle blocks go through it.
"""

from __future__ import annotations

import math
import os
import threading
from functools import partial

import numpy as np

_MODES = (1, 2, 3)


def validate_cube(t: np.ndarray, name: str = "cube") -> np.ndarray:
    """Check that ``t`` is a finite 3-D float array and return it as C-ordered float64."""
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 3:
        raise ValueError(f"{name} must be a 3-D array, got ndim={t.ndim}")
    if t.size == 0:
        raise ValueError(f"{name} must be non-empty, got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise ValueError(f"{name} contains non-finite values")
    return np.ascontiguousarray(t)


def _check_mode(mode: int) -> int:
    if mode not in _MODES:
        raise ValueError(f"mode must be 1, 2 or 3, got {mode!r}")
    return mode - 1


def unfold(t: np.ndarray, mode: int) -> np.ndarray:
    """Mode-n matricization of a 3-D tensor (Kolda-Bader ordering)."""
    axis = _check_mode(mode)
    t = np.asarray(t)
    if t.ndim != 3:
        raise ValueError(f"expected a 3-D tensor, got ndim={t.ndim}")
    return np.moveaxis(t, axis, 0).reshape(t.shape[axis], -1, order="F")


def fold(m: np.ndarray, mode: int, shape: tuple[int, int, int]) -> np.ndarray:
    """Inverse of :func:`unfold` for the given full tensor shape."""
    axis = _check_mode(mode)
    if len(shape) != 3:
        raise ValueError(f"shape must have 3 entries, got {shape!r}")
    m = np.asarray(m)
    rest = tuple(d for i, d in enumerate(shape) if i != axis)
    if m.shape != (shape[axis], rest[0] * rest[1]):
        raise ValueError(
            f"matrix of shape {m.shape} does not fold to tensor shape {shape} along mode {mode}"
        )
    return np.moveaxis(m.reshape((shape[axis],) + rest, order="F"), 0, axis)


def mode_product(t: np.ndarray, m: np.ndarray, mode: int) -> np.ndarray:
    """n-mode product ``t x_n m``: contracts mode ``mode`` of ``t`` with ``m``'s columns.

    One matrix product, with no transposed copy of a C-ordered operand; the
    result is C-ordered whatever the layout of ``t``.
    """
    axis = _check_mode(mode)
    t = np.asarray(t)
    m = np.asarray(m)
    if t.ndim != 3:
        raise ValueError(f"expected a 3-D tensor, got ndim={t.ndim}")
    if m.ndim != 2:
        raise ValueError(f"factor must be a matrix, got ndim={m.ndim}")
    if m.shape[1] != t.shape[axis]:
        raise ValueError(
            f"factor has {m.shape[1]} columns but tensor mode {mode} has size {t.shape[axis]}"
        )
    n1, n2, n3 = t.shape
    r = m.shape[0]
    if axis == 0:
        return (m @ t.reshape(n1, -1)).reshape(r, n2, n3)
    if axis == 1:
        return np.matmul(m, t)
    return (t.reshape(-1, n3) @ m.T).reshape(n1, n2, r)


def fro_norm(t: np.ndarray) -> float:
    """Frobenius norm (square root of the sum of squared entries)."""
    return float(np.linalg.norm(np.asarray(t).ravel()))


def leading_left_singular_vectors(m: np.ndarray, r: int) -> np.ndarray:
    """Orthonormal basis of the top-``r`` left singular subspace of ``m``.

    The basis is the top-``r`` eigenvectors of the Gram matrix ``m @ m.T``,
    which spans the same subspace as the leading left singular vectors at a
    fraction of the cost of a full SVD of a wide unfolding.  Tied eigenvalues
    keep their ``eigh`` order.  The sign of each column is fixed so that its
    largest-magnitude entry is nonnegative, making repeated runs
    bit-reproducible.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    if not 1 <= r <= min(m.shape):
        raise ValueError(f"rank {r} out of range for matrix of shape {m.shape}")
    w, v = np.linalg.eigh(m @ m.T)
    u = v[:, np.argsort(-w, kind="stable")[:r]]
    idx = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[idx, np.arange(r)])
    signs[signs == 0] = 1.0
    return u * signs


# one block rule: a pass whose temporaries are one block long cuts blocks of at
# most this many entries (256 KiB of float64), a buffer of whole bands this many bytes
BLOCK_ENTRIES = 32768
BAND_BLOCK_BYTES = 2**22


def flat_blocks(size: int) -> list[slice]:
    """Slices of at most :data:`BLOCK_ENTRIES` entries covering ``range(size)``, the longest first (one if empty)."""
    return [slice(i, min(i + BLOCK_ENTRIES, size)) for i in range(0, max(size, 1), BLOCK_ENTRIES)]


def row_blocks(shape: tuple[int, ...], rows: slice = slice(None)) -> list[slice]:
    """Slices of ``rows`` of axis 0, the longest first: at least one row, at most :data:`BLOCK_ENTRIES` entries."""
    start, stop, _ = rows.indices(shape[0])
    step = max(1, BLOCK_ENTRIES // math.prod(shape[1:]))
    return [slice(i, min(i + step, stop)) for i in range(start, stop, step)]


def bands_per_block(shape: tuple[int, int, int], itemsize: int) -> int:
    """Whole bands of ``shape`` per buffer of at most :data:`BAND_BLOCK_BYTES`, at least one and at most all."""
    return min(shape[2], max(1, BAND_BLOCK_BYTES // (shape[0] * shape[1] * itemsize)))


# a layout copy runs over tiles of about this many entries: the cache lines
# that both sides of one tile touch then fit in a first-level data cache
COPY_TILE_ENTRIES = 4096


def _copy_in_tiles(dst: np.ndarray, src: np.ndarray) -> None:
    """``dst[...] = src`` for two 3-D arrays of one shape, tile by tile over the first two axes.

    A tile holds about :data:`COPY_TILE_ENTRIES` entries over the whole third
    axis.  Where both arrays store the same one of the first two axes with
    the smaller stride, a tile runs along that axis, so that both sides copy
    long runs; otherwise it is square.  Each entry is copied (and cast to
    ``dst``'s dtype) on its own, so the bits are those of one whole copy.
    """
    h, w, n = dst.shape
    pixels = max(1, COPY_TILE_ENTRIES // n)
    fast_dst, fast_src = (int(np.argmin(np.abs(a.strides[:2]))) for a in (dst, src))
    if fast_dst != fast_src:
        rows = cols = math.isqrt(pixels)
    elif fast_dst == 1:
        cols = min(w, pixels)
        rows = max(1, pixels // cols)
    else:
        rows = min(h, pixels)
        cols = max(1, pixels // rows)
    for i in range(0, h, rows):
        for j in range(0, w, cols):
            dst[i : i + rows, j : j + cols] = src[i : i + rows, j : j + cols]


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
    declines, both halves run here, the helper's first.  Every layer shares
    the one helper: the solver's lanes and FFT halves and the metrics' SSIM
    rows and spectral-angle blocks.  Tasks are private kernels: none is a
    name the benchmark tracer wraps, as it keeps one span stack for all
    threads, and none fans out again, as the one helper would wait for
    itself.
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
