"""Adaptive estimation of per-direction gradient-prior exponents.

The gradients of a clean cube are modeled as hyper-Laplacian,
``density(x) ~ exp(-k * |x|**p)``, while the observed gradients carry extra
Gaussian noise.  Per direction we (1) estimate the noise scale robustly from
the observed difference field, (2) build a normalized discrete histogram of
the observed gradients, and (3) search (k, p) so that the model histogram
convolved with the noise histogram matches the observed one in least squares.
A small Nelder-Mead simplex does the search; the exponents feed the shrinkage
step of the solver.

Conventions used throughout:

* Differencing i.i.d. noise of standard deviation ``sigma`` yields noise of
  standard deviation ``sigma * sqrt(2)`` in the difference field.
  :func:`estimate_noise_sigma` reports the *original* (image-domain) sigma;
  :func:`fit_direction` takes the sigma of the noise actually present in the
  samples it is given.  :func:`estimate_p` bridges the two.
* Every histogram is a mass vector on :data:`HIST_EDGES`: an odd number of
  uniform bins symmetric about zero (so zero is a bin center), with
  out-of-range samples clamped into the edge bins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .priors import TvWeights, diff_forward
from .tensor_ops import validate_cube

HIST_BINS = 255
HIST_HALF_RANGE = 1.0
HIST_EDGES = np.linspace(-HIST_HALF_RANGE, HIST_HALF_RANGE, HIST_BINS + 1)
HIST_CENTERS = 0.5 * (HIST_EDGES[:-1] + HIST_EDGES[1:])

FIT_K_BOUNDS = (0.5, 500.0)
FIT_P_BOUNDS = (0.1, 1.0)
FIT_START = (10.0, 0.7)

NELDER_MEAD_VALUE_TOL = 1e-8
NELDER_MEAD_MAX_ITER = 500

# MAD of a centered Gaussian is 0.6745 of its standard deviation.
_MAD_TO_SIGMA = 0.6744897501960817

# Rational approximations of the Cephes library (ndtr.c), which
# scipy.special.erf evaluates: erf = x*T(x^2)/U(x^2) for |x| <= 1, and
# erf = 1 - exp(-x^2)*P(x)/Q(x) below 8.  U and Q have an implied leading
# coefficient of 1.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)


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


def estimate_noise_sigma(g: np.ndarray) -> float:
    """Robust std estimate of the image-domain Gaussian noise from a difference field.

    MAD/0.6745 estimates the std of the (differenced) noise in ``g``; the
    sqrt(2) factor converts back to the std of the original i.i.d. noise.
    Piecewise-flat image content contributes mostly zero differences, which
    the median absolute deviation ignores.  ``g`` must be finite and is left
    unchanged.

    Both medians are taken in one private copy of ``g``, each by one
    selection at a single k.  ``np.median`` gives the same value but selects
    at two k (plus one more for its NaN check), which at 4M entries is about
    four times slower; this is the noise estimate of every :func:`estimate_p`.
    """
    buf = np.array(g, dtype=np.float64, order="C").reshape(-1)
    if buf.size == 0:
        raise ValueError("cannot estimate noise from an empty array")
    if not np.isfinite(buf).all():
        raise ValueError("cannot estimate noise from non-finite values")
    center = _median_in_place(buf)
    np.subtract(buf, center, out=buf)
    np.abs(buf, out=buf)
    mad = _median_in_place(buf)
    return float(mad / _MAD_TO_SIGMA / np.sqrt(2.0))


def _polynomial(x: float, coefs: Sequence[float], monic: bool) -> float:
    """Horner evaluation, highest power first; ``monic`` prepends a leading 1."""
    acc = x + coefs[0] if monic else coefs[0]
    for c in coefs[1:]:
        acc = acc * x + c
    return acc


def _erf(x: float) -> float:
    """The error function as Cephes computes it.

    It equals ``scipy.special.erf`` bit for bit, which ``math.erf`` does not
    (it differs in the last bit on 9% of uniform draws from [-6, 6]).  The
    exponential is ``math.exp``, the C library's, as in Cephes; a vectorized
    ``np.exp`` can differ from it in the last bit.
    """
    if x < 0.0:
        return -_erf(-x)
    if x <= 1.0:
        z = x * x
        return x * _polynomial(z, _ERF_T, False) / _polynomial(z, _ERF_U, True)
    if x >= 8.0:
        # erfc(8) is about 1e-29, far below half an ulp of 1, so Cephes' own
        # tail (its R/S branch and underflow cut) also rounds to exactly 1
        return 1.0
    p, q = _polynomial(x, _ERFC_P, False), _polynomial(x, _ERFC_Q, True)
    return 1.0 - (math.exp(-x * x) * p) / q


def histogram(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Normalized masses of ``values`` on :data:`HIST_EDGES`, tails clamped into the edge bins."""
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValueError("cannot build a histogram from no samples")
    clipped = np.clip(values, -HIST_HALF_RANGE, HIST_HALF_RANGE)
    counts, _ = np.histogram(clipped, bins=HIST_EDGES)
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

    ``sigma=0`` degenerates to a unit mass at the center bin.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    if sigma == 0.0:
        masses = np.zeros(HIST_BINS)
        masses[HIST_BINS // 2] = 1.0
        return masses
    scaled = HIST_EDGES / (sigma * np.sqrt(2.0))
    cdf = 0.5 * (1.0 + np.array([_erf(v) for v in scaled.tolist()]))
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


def fit_direction(y_gradients: np.ndarray, sigma: float) -> tuple[float, float, float]:
    """Fit (k, p) so the noise-convolved model matches the observed gradient histogram.

    ``sigma`` is the std of the Gaussian noise carried by the samples
    themselves.  The observed histogram is symmetrized before fitting, making
    the result invariant to a global sign flip of the data.  Returns
    ``(k, p, residual)`` with the residual equal to the squared mismatch at
    the returned point.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    observed = histogram(y_gradients)
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
    """Fit the three direction exponents from the unweighted circular differences of ``y``."""
    y = validate_cube(y, "y")
    if min(y.shape) < 2:
        raise ValueError(f"every mode must have size >= 2, got shape {y.shape}")
    fits = []
    for field in diff_forward(y, TvWeights(1.0, 1.0, 1.0)).g:
        sigma = estimate_noise_sigma(field)
        k, p, residual = fit_direction(field.ravel(), sigma * np.sqrt(2.0))
        fits.append((p, sigma, k, residual))
    return HyperLaplacianFit(*zip(*fits))
