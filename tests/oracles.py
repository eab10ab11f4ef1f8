"""Independent brute-force oracles used to pin expected values.

Everything here deliberately avoids the package's own code paths: explicit
index loops, Jacobi eigensolves, grid searches, and naive summations.
"""

from __future__ import annotations

import ast
import dataclasses

import numpy as np

from hsirestore.noise import NoiseSpec


# ---------------------------------------------------------------------------
# multilinear algebra


def unfold_oracle(t: np.ndarray, mode: int) -> np.ndarray:
    """Mode-n matricization from the index-map definition, one element at a time."""
    dims = t.shape
    axis = mode - 1
    rest = [i for i in range(3) if i != axis]
    out = np.zeros((dims[axis], dims[rest[0]] * dims[rest[1]]))
    for i1 in range(dims[0]):
        for i2 in range(dims[1]):
            for i3 in range(dims[2]):
                idx = (i1, i2, i3)
                col = idx[rest[0]] + idx[rest[1]] * dims[rest[0]]
                out[idx[axis], col] = t[i1, i2, i3]
    return out


def mode_product_oracle(t: np.ndarray, m: np.ndarray, mode: int) -> np.ndarray:
    """n-mode product by explicit summation over the contracted index."""
    axis = mode - 1
    new_shape = list(t.shape)
    new_shape[axis] = m.shape[0]
    out = np.zeros(new_shape)
    for j in range(m.shape[0]):
        for k in range(t.shape[axis]):
            sl_out = [slice(None)] * 3
            sl_in = [slice(None)] * 3
            sl_out[axis] = j
            sl_in[axis] = k
            out[tuple(sl_out)] += m[j, k] * t[tuple(sl_in)]
    return out


def fro_norm_oracle(t: np.ndarray) -> float:
    """Naive double-precision accumulation of squared entries."""
    acc = 0.0
    for v in np.asarray(t).ravel():
        acc += float(v) * float(v)
    return acc**0.5


def jacobi_eigh(s: np.ndarray, sweeps: int = 60, tol: float = 1e-14) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi eigendecomposition of a symmetric matrix.

    Returns eigenvalues (descending) and the matching eigenvector columns.
    """
    a = np.array(s, dtype=np.float64)
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-300:
                    continue
                theta = 0.5 * np.arctan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, snt = np.cos(theta), np.sin(theta)
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = snt
                rot[q, p] = -snt
                a = rot.T @ a @ rot
                v = v @ rot
    order = np.argsort(np.diag(a))[::-1]
    return np.diag(a)[order], v[:, order]


def top_left_singular_subspace_oracle(m: np.ndarray, r: int) -> np.ndarray:
    """Top-r left singular subspace via a Jacobi eigensolve of m @ m.T."""
    _, vecs = jacobi_eigh(m @ m.T)
    return vecs[:, :r]


def subspace_angle(u1: np.ndarray, u2: np.ndarray) -> float:
    """Sine of the largest principal angle between two orthonormal column spans.

    Computed as the spectral norm of the projector difference, which stays
    accurate for nearly identical subspaces.
    """
    q1, _ = np.linalg.qr(u1)
    q2, _ = np.linalg.qr(u2)
    diff = q1 @ q1.T - q2 @ q2.T
    return float(np.linalg.svd(diff, compute_uv=False)[0])


def truncated_hosvd_error_oracle(t: np.ndarray, ranks: tuple[int, int, int]) -> float:
    """Reconstruction error of the truncated HOSVD, built from oracle pieces only."""
    factors = [
        top_left_singular_subspace_oracle(unfold_oracle(t, n), r)
        for n, r in zip((1, 2, 3), ranks)
    ]
    core = t
    for n, f in enumerate(factors, start=1):
        core = mode_product_oracle(core, f.T, n)
    approx = core
    for n, f in enumerate(factors, start=1):
        approx = mode_product_oracle(approx, f, n)
    return fro_norm_oracle(t - approx)


def hooi_single_sweep_oracle(
    t: np.ndarray, ranks: tuple[int, int, int], init=None
) -> np.ndarray:
    """Reconstruction after one Gauss-Seidel sweep from ``init`` or a truncated-HOSVD start."""
    if init is None:
        factors = [
            top_left_singular_subspace_oracle(unfold_oracle(t, n), r)
            for n, r in zip((1, 2, 3), ranks)
        ]
    else:
        factors = [np.array(m, dtype=np.float64) for m in init]
    for n in range(3):
        y = t
        for m in range(3):
            if m != n:
                y = mode_product_oracle(y, factors[m].T, m + 1)
        factors[n] = top_left_singular_subspace_oracle(unfold_oracle(y, n + 1), ranks[n])
    core = t
    for n, f in enumerate(factors, start=1):
        core = mode_product_oracle(core, f.T, n)
    approx = core
    for n, f in enumerate(factors, start=1):
        approx = mode_product_oracle(approx, f, n)
    return approx


def feasible_ranks_oracle(
    ranks: tuple[int, int, int], shape: tuple[int, int, int]
) -> tuple[int, int, int]:
    """Clamp each rank to its dimension, then to the product of the other two until none moves."""
    r = [min(rk, d) for rk, d in zip(ranks, shape)]
    changed = True
    while changed:
        changed = False
        for n in range(3):
            cap = r[(n + 1) % 3] * r[(n + 2) % 3]
            if r[n] > cap:
                r[n] = cap
                changed = True
    return tuple(r)


def stripe_fit_error_oracle(t: np.ndarray, r: int) -> float:
    """Least squared error of ``t`` against ``1_h (x) M``, ``M`` zero-mean down each column, rank <= r.

    The error splits into three orthogonal parts: the spread of ``t`` about
    its height mean, ``h`` times the squared per-band width means of that
    mean, and ``h`` times the tail of the centered mean's squared singular
    values (Eckart-Young), taken from a Jacobi eigensolve of its Gram.
    """
    h, w, p = t.shape
    mean = np.zeros((w, p))
    for i in range(h):
        mean += t[i]
    mean /= h
    height_part = 0.0
    for i in range(h):
        height_part += fro_norm_oracle(t[i] - mean) ** 2
    band_means = np.array([sum(mean[:, k]) / w for k in range(p)])
    centered = mean - band_means[None, :]
    eigenvalues, _ = jacobi_eigh(centered.T @ centered)
    tail = sum(max(float(e), 0.0) for e in eigenvalues[r:])
    return height_part + h * w * float(np.sum(band_means**2)) + h * tail


# ---------------------------------------------------------------------------
# shrinkage


def gst_objective(x: float, y: float, tau: float, p: float) -> float:
    return tau * abs(x) ** p + 0.5 * (x - y) ** 2


def gst_minimize_oracle(y: float, tau: float, p: float) -> float:
    """Dense grid search plus local refinement for the scalar shrinkage problem."""
    lo, hi = -abs(y) - 0.5, abs(y) + 0.5
    best = 0.0
    for _ in range(4):
        xs = np.linspace(lo, hi, 4001)
        vals = tau * np.abs(xs) ** p + 0.5 * (xs - y) ** 2
        best = xs[int(np.argmin(vals))]
        step = xs[1] - xs[0]
        lo, hi = best - step, best + step
    # zero is always a candidate (kink of |x|**p)
    if gst_objective(0.0, y, tau, p) < gst_objective(best, y, tau, p):
        best = 0.0
    return float(best)


# ---------------------------------------------------------------------------
# histograms


def convolve_masses_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """O(n^2) discrete convolution truncated to the shared centered grid, renormalized."""
    n = len(a)
    full = np.zeros(2 * n - 1)
    for i in range(n):
        for j in range(n):
            full[i + j] += a[i] * b[j]
    half = (n - 1) // 2
    out = full[half : half + n]
    return out / out.sum()


def sample_hyper_laplacian(
    k: float, p: float, size: int, rng: np.random.Generator, x_max: float = 6.0
) -> np.ndarray:
    """Inverse-CDF sampling from density proportional to exp(-k * |x|**p)."""
    xs = np.linspace(0.0, x_max, 1 << 16)
    pdf = np.exp(-k * xs**p)
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(xs))))
    cdf /= cdf[-1]
    mags = np.interp(rng.random(size), cdf, xs)
    signs = np.where(rng.random(size) < 0.5, -1.0, 1.0)
    return signs * mags


def estimate_p_stack_oracle(y: np.ndarray):
    """The exponent fit from one whole ``(3, h, w, p)`` difference stack.

    Each field's noise scale comes from a copy of it and its histogram from
    the field itself, by the calls ``diff_forward`` ->
    ``estimate_noise_sigma`` -> ``histogram`` -> ``_fit_masses``.
    """
    from hsirestore.gradient_fit import (
        HyperLaplacianFit,
        _fit_masses,
        estimate_noise_sigma,
        histogram,
    )
    from hsirestore.priors import diff_forward

    y = np.ascontiguousarray(y, dtype=np.float64)
    fits = []
    for field in diff_forward(y, (1.0, 1.0, 1.0)).g:
        sigma = estimate_noise_sigma(field)
        k, p, residual = _fit_masses(histogram(field), sigma * np.sqrt(2.0))
        fits.append((p, sigma, k, residual))
    return HyperLaplacianFit(*zip(*fits))


# ---------------------------------------------------------------------------
# metrics


def psnr_oracle(ref: np.ndarray, test: np.ndarray) -> float:
    """PSNR in dB at peak 1 from a scalar loop over the squared errors, capped at 100."""
    acc = 0.0
    r = ref.ravel()
    t = test.ravel()
    for i in range(r.size):
        d = float(r[i]) - float(t[i])
        acc += d * d
    mse = acc / r.size
    if mse == 0.0:
        return 100.0
    return min(10.0 * np.log10(1.0 / mse), 100.0)


def ssim_oracle(ref: np.ndarray, test: np.ndarray) -> float:
    """Gaussian-weighted SSIM at peak 1 over fully interior 11x11 windows, window by window."""
    win, sigma, k1, k2 = 11, 1.5, 0.01, 0.03
    half = win // 2
    offsets = np.arange(-half, half + 1)
    g = np.exp(-(offsets**2) / (2 * sigma**2))
    kernel = np.outer(g, g)
    kernel /= kernel.sum()
    c1 = k1**2
    c2 = k2**2
    h, w = ref.shape
    vals = []
    for i in range(half, h - half):
        for j in range(half, w - half):
            wr = ref[i - half : i + half + 1, j - half : j + half + 1]
            wt = test[i - half : i + half + 1, j - half : j + half + 1]
            mu_r = float(np.sum(kernel * wr))
            mu_t = float(np.sum(kernel * wt))
            var_r = float(np.sum(kernel * (wr - mu_r) ** 2))
            var_t = float(np.sum(kernel * (wt - mu_t) ** 2))
            cov = float(np.sum(kernel * (wr - mu_r) * (wt - mu_t)))
            vals.append(
                ((2 * mu_r * mu_t + c1) * (2 * cov + c2))
                / ((mu_r**2 + mu_t**2 + c1) * (var_r + var_t + c2))
            )
    return float(np.mean(vals))


def sam_oracle(ref: np.ndarray, test: np.ndarray) -> float:
    num = float(np.sum(ref * test))
    den = float(np.sqrt(np.sum(ref**2)) * np.sqrt(np.sum(test**2)))
    return float(np.arccos(np.clip(num / den, -1.0, 1.0)))


# ---------------------------------------------------------------------------
# linear systems


def dense_difference_matrix(shape: tuple[int, int, int], weights) -> np.ndarray:
    """Stacked matrix of the three weighted circular forward differences."""
    from hsirestore.priors import diff_forward

    h, w, p = shape
    n = h * w * p
    cols = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        g = diff_forward(e.reshape(shape), weights)
        cols.append(g.g.ravel())
    return np.array(cols).T


# ---------------------------------------------------------------------------
# file formats


def cube_file_oracle(cube) -> bytes:
    """The cube container one whole-cube float32 cast makes: header, then the
    payload with the height index varying fastest."""
    cube = np.asarray(cube)
    header = b"HSICUBE1" + np.array(cube.shape, dtype="<u4").tobytes()
    return header + cube.transpose(2, 1, 0).astype("<f4", order="C").tobytes()


def cube_read_oracle(raw: bytes) -> np.ndarray:
    """The C-ordered float64 cube one whole-payload cast reads from container bytes."""
    h, w, p = np.frombuffer(raw, dtype="<u4", count=3, offset=8)
    flat = np.frombuffer(raw, dtype="<f4", offset=20)
    return flat.reshape((p, w, h)).transpose(2, 1, 0).astype(np.float64, order="C")


def manifest_spec_oracle(text: str) -> NoiseSpec:
    """Rebuild the ``NoiseSpec`` a manifest records, which must name every field.

    ``stripe_kind`` is kept as text, and every other value is read with
    ``ast.literal_eval`` (``0.1,0.1`` is a tuple).
    """
    kwargs = {}
    for line in text.splitlines():
        key, _, value = line.partition("=")
        assert key not in kwargs, f"duplicate manifest key {key!r}"
        kwargs[key] = value if key == "stripe_kind" else ast.literal_eval(value)
    fields = {field.name for field in dataclasses.fields(NoiseSpec)}
    assert kwargs.keys() == fields, sorted(kwargs.keys() ^ fields)
    return NoiseSpec(**kwargs)
