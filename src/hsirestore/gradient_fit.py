"""Adaptive estimation of per-direction gradient-prior exponents.

The gradients of a clean cube are modeled as hyper-Laplacian,
``density(x) ~ exp(-k * |x|**p)``, while the observed gradients carry extra
Gaussian noise.  :func:`estimate_p` holds one difference field at a time:
per direction it (1) writes the unit-weight circular difference of the cube
into one reused buffer, (2) builds a normalized discrete histogram of it,
(3) estimates the noise scale robustly from it by two medians taken in place,
which overwrites it, and (4) searches (k, p) so that the model histogram
convolved with the noise histogram matches the observed one in least squares.
A small Nelder-Mead simplex does the search; the exponents feed the shrinkage
step of the solver.

Conventions used throughout:

* Differencing i.i.d. noise of standard deviation ``sigma`` yields noise of
  standard deviation ``sigma * sqrt(2)`` in the difference field.
  :func:`estimate_noise_sigma` reports the *original* (image-domain) sigma;
  the (k, p) fit takes the sigma of the noise actually present in the
  samples it is given.  :func:`estimate_p` bridges the two.
* Every histogram is a mass vector on :data:`HIST_EDGES`: an odd number of
  uniform bins symmetric about zero (so zero is a bin center), with
  out-of-range samples clamped into the edge bins.  The clamp comes from
  widening the outer edges, so no clipped copy of a whole field is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# the benchmark tracer wraps diff_forward in this module's namespace, so the
# name stays importable from here
from .priors import _circular_diff, diff_forward
from .tensor_ops import validate_cube

HIST_BINS = 255
HIST_HALF_RANGE = 1.0
HIST_EDGES = np.linspace(-HIST_HALF_RANGE, HIST_HALF_RANGE, HIST_BINS + 1)
HIST_CENTERS = 0.5 * (HIST_EDGES[:-1] + HIST_EDGES[1:])
# HIST_EDGES with the outer edges widened to the largest finite floats:
# np.histogram then counts a tail sample in the edge bin its clip to
# +-HIST_HALF_RANGE would fall in, and drops only non-finite samples
_CLAMP_EDGES = np.r_[-np.finfo(float).max, HIST_EDGES[1:-1], np.finfo(float).max]

FIT_K_BOUNDS = (0.5, 500.0)
FIT_P_BOUNDS = (0.1, 1.0)
FIT_START = (10.0, 0.7)

NELDER_MEAD_VALUE_TOL = 1e-8
NELDER_MEAD_MAX_ITER = 500

# MAD of a centered Gaussian is 0.6745 of its standard deviation.
_MAD_TO_SIGMA = 0.6744897501960817

@dataclass(frozen=True)
class HyperLaplacianFit:
    """Fitted parameters per difference direction, each a (height, width, band) triple.

    ``sigmas`` are the Gaussian noise stds in the image domain (intensity
    units), ``ks`` and ``p_values`` the hyper-Laplacian scales and exponents
    (in (0, 1]), and ``residuals`` the squared histogram mismatches at the
    optimum.
    """

    p_values: tuple[float, float, float]
    sigmas: tuple[float, float, float]
    ks: tuple[float, float, float]
    residuals: tuple[float, float, float]


def _median_in_place(buf: np.ndarray) -> float:
    """Median of a flat float64 buffer by one single-k selection; reorders ``buf``.

    The upper middle is the selected ``buf[n // 2]``; for even ``n`` the lower
    middle is the largest entry left of it.  Their mean ``(lo + hi) / 2`` is
    the value ``np.median`` returns, bit for bit.
    """
    k = buf.size // 2
    buf.partition(k)
    hi = buf[k]
    if buf.size % 2:
        return float(hi)
    return float((buf[:k].max() + hi) / 2.0)


def _mad_sigma_in_place(buf: np.ndarray) -> float:
    """:func:`estimate_noise_sigma` of a flat, finite, non-empty float64 buffer; overwrites ``buf``."""
    center = _median_in_place(buf)
    np.subtract(buf, center, out=buf)
    np.abs(buf, out=buf)
    mad = _median_in_place(buf)
    return float(mad / _MAD_TO_SIGMA / np.sqrt(2.0))


def estimate_noise_sigma(g: np.ndarray) -> float:
    """Robust std estimate of the image-domain Gaussian noise from a difference field.

    MAD/0.6745 estimates the std of the (differenced) noise in ``g``; the
    sqrt(2) factor converts back to the std of the original i.i.d. noise.
    Piecewise-flat image content contributes mostly zero differences, which
    the median absolute deviation ignores.  ``g`` must be finite and is left
    unchanged.

    This public function takes both medians in one private copy of ``g``,
    each by one selection at a single k.  ``np.median`` gives the same value
    but selects at two k (plus one more for its NaN check), which at 4M
    entries is about four times slower.  :func:`estimate_p` skips the copy:
    it calls the private helper behind this function, which works in place
    on the difference field it has just histogrammed.
    """
    buf = np.array(g, dtype=np.float64, order="C").reshape(-1)
    if buf.size == 0:
        raise ValueError("cannot estimate noise from an empty array")
    if not np.isfinite(buf).all():
        raise ValueError("cannot estimate noise from non-finite values")
    return _mad_sigma_in_place(buf)


def histogram(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Normalized masses of ``values`` on :data:`HIST_EDGES`, tails clamped into the edge bins.

    ``values`` must be finite and non-empty.  No clipped copy is made:
    np.histogram counts against :data:`_CLAMP_EDGES`, sorting blocks of
    65536 samples at a time, and a non-finite sample shows as a short count.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValueError("cannot build a histogram from no samples")
    counts, _ = np.histogram(values, bins=_CLAMP_EDGES)
    if counts.sum() != values.size:
        raise ValueError("cannot build a histogram from non-finite values")
    return counts / counts.sum()


def hyper_laplacian_histogram(k: float, p: float) -> np.ndarray:
    """Model masses proportional to ``exp(-k*|x|**p)`` at the bin centers."""
    if not np.isfinite(k) or k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    masses = np.exp(-k * np.abs(HIST_CENTERS) ** p)
    return masses / masses.sum()


def gaussian_histogram(sigma: float) -> np.ndarray:
    """Masses of a centered Gaussian integrated per bin, tails clamped into the edge bins.

    ``sigma=0`` degenerates to a unit mass at the center bin, and
    ``sigma=inf`` to half the mass in each edge bin.
    """
    if not sigma >= 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    if sigma == 0.0:
        masses = np.zeros(HIST_BINS)
        masses[HIST_BINS // 2] = 1.0
        return masses
    scaled = HIST_EDGES / (sigma * np.sqrt(2.0))
    cdf = 0.5 * (1.0 + np.array([math.erf(v) for v in scaled.tolist()]))
    cdf[0] = 0.0
    cdf[-1] = 1.0
    return np.diff(cdf)


def convolve_hist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Discrete convolution of two mass vectors, truncated to the grid and renormalized."""
    full = np.convolve(a, b)
    half = (len(a) - 1) // 2
    masses = full[half : half + len(a)]
    return masses / masses.sum()


def nelder_mead(
    objective: Callable[[np.ndarray], float],
    start: Sequence[float],
    lower: Sequence[float],
    upper: Sequence[float],
) -> tuple[np.ndarray, float]:
    """Nelder-Mead simplex search with box projection.

    Standard coefficients (reflection 1, expansion 2, contraction 0.5, shrink
    0.5); candidate points are clipped into the box before evaluation.  Stops
    when the spread of the simplex values falls below
    :data:`NELDER_MEAD_VALUE_TOL` or after :data:`NELDER_MEAD_MAX_ITER`
    iterations.  Returns the best vertex and its value.
    """
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    start = np.asarray(start, dtype=np.float64)
    if np.any(lower >= upper):
        raise ValueError(f"degenerate bounds: lower={lower}, upper={upper}")
    if np.any(start < lower) or np.any(start > upper):
        raise ValueError(f"start {start} outside bounds [{lower}, {upper}]")

    def project(x: np.ndarray) -> np.ndarray:
        return np.clip(x, lower, upper)

    n = len(start)
    sim = [start.copy()]
    for i in range(n):
        v = start.copy()
        v[i] = v[i] * 1.05 if v[i] != 0 else 2.5e-4
        sim.append(project(v))
    fvals = [float(objective(v)) for v in sim]

    for _ in range(NELDER_MEAD_MAX_ITER):
        order = np.argsort(fvals, kind="stable")
        sim = [sim[i] for i in order]
        fvals = [fvals[i] for i in order]
        if fvals[-1] - fvals[0] < NELDER_MEAD_VALUE_TOL:
            break
        centroid = np.mean(sim[:-1], axis=0)
        reflected = project(centroid + (centroid - sim[-1]))
        f_ref = float(objective(reflected))
        if f_ref < fvals[0]:
            expanded = project(centroid + 2.0 * (centroid - sim[-1]))
            f_exp = float(objective(expanded))
            if f_exp < f_ref:
                sim[-1], fvals[-1] = expanded, f_exp
            else:
                sim[-1], fvals[-1] = reflected, f_ref
        elif f_ref < fvals[-2]:
            sim[-1], fvals[-1] = reflected, f_ref
        else:
            contracted = project(centroid + 0.5 * (sim[-1] - centroid))
            f_con = float(objective(contracted))
            if f_con < fvals[-1]:
                sim[-1], fvals[-1] = contracted, f_con
            else:
                best = sim[0]
                for i in range(1, n + 1):
                    sim[i] = project(best + 0.5 * (sim[i] - best))
                    fvals[i] = float(objective(sim[i]))
    i_best = int(np.argmin(fvals))
    return sim[i_best].copy(), fvals[i_best]


def _fit_masses(observed: np.ndarray, sigma: float) -> tuple[float, float, float]:
    """Fit (k, p) to the observed masses under Gaussian noise of std ``sigma``.

    ``sigma`` is the std of the Gaussian noise carried by the samples the
    masses count.  The masses are symmetrized before fitting, making the
    result invariant to a global sign flip of the data.  Returns
    ``(k, p, residual)`` with the residual equal to the squared mismatch at
    the returned point.
    """
    observed = 0.5 * (observed + observed[::-1])
    noise = gaussian_histogram(sigma)

    def objective(v: np.ndarray) -> float:
        model = convolve_hist(hyper_laplacian_histogram(v[0], v[1]), noise)
        return float(np.sum((observed - model) ** 2))

    (k, p), residual = nelder_mead(
        objective,
        FIT_START,
        (FIT_K_BOUNDS[0], FIT_P_BOUNDS[0]),
        (FIT_K_BOUNDS[1], FIT_P_BOUNDS[1]),
    )
    return float(k), float(p), float(residual)


def estimate_p(y: np.ndarray) -> HyperLaplacianFit:
    """Fit the three direction exponents from the unweighted circular differences of ``y``.

    One difference field is held at a time, in one buffer of ``y``'s shape:
    its histogram is taken first, then its noise scale, which overwrites it.
    """
    y = validate_cube(y, "y")
    if min(y.shape) < 2:
        raise ValueError(
            f"the exponent fit needs every mode to have size >= 2, got shape {y.shape}; "
            "denoise skips the fit when its --config sets p_override"
        )
    field = np.empty(y.shape)
    flat = field.reshape(-1)
    fits = []
    for axis in range(3):
        _circular_diff(y, axis, 1, 1.0, field)
        observed = histogram(flat)
        sigma = _mad_sigma_in_place(flat)
        k, p, residual = _fit_masses(observed, sigma * np.sqrt(2.0))
        fits.append((p, sigma, k, residual))
    return HyperLaplacianFit(*zip(*fits))
