"""Dense order-3 tensor primitives: matricization, mode products, norms.

Cubes are plain ``numpy.ndarray`` objects of shape ``(h, w, p)`` (height,
width, band).  Modes are numbered 1..3.  Matricization follows the standard
Kolda-Bader column ordering: the mode-n unfolding maps element ``(i1,i2,i3)``
to row ``i_n`` and a column index built from the remaining indices in
ascending mode order with the lower mode varying fastest.
"""

from __future__ import annotations

import numpy as np

_MODES = (1, 2, 3)


def validate_cube(t: np.ndarray, name: str = "cube") -> np.ndarray:
    """Check that ``t`` is a finite 3-D float array and return it as float64."""
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 3:
        raise ValueError(f"{name} must be a 3-D array, got ndim={t.ndim}")
    if t.size == 0:
        raise ValueError(f"{name} must be non-empty, got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise ValueError(f"{name} contains non-finite values")
    return t


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
    """n-mode product ``t x_n m``: contracts mode ``mode`` of ``t`` with ``m``'s columns."""
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
    return np.moveaxis(np.tensordot(m, t, axes=(1, axis)), 0, axis)


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
