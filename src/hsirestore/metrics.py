"""Restoration quality metrics: band-wise PSNR/SSIM and pixel-wise spectral angle.

SSIM uses the 11x11 Gaussian window with sigma 1.5 of Wang, Bovik, Sheikh and
Simoncelli (IEEE TIP 2004), taken as two separable passes in plain numpy whose
sums equal those of ``scipy.ndimage.correlate1d`` bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_ops import validate_cube

PSNR_CAP_DB = 100.0

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03

# spectral angles are taken over blocks of whole rows holding about this many
# entries, so their temporaries stay small instead of cube-sized
SAM_BLOCK_ENTRIES = 32768
# PSNR and SSIM read bands from band-major copies of blocks of whole bands
# holding about this many entries, not from band-major copies of both cubes
PLANE_BLOCK_ENTRIES = 2**19


@dataclass(frozen=True)
class MetricsReport:
    """Per-band and aggregate quality figures for one reference/test pair."""

    psnr_per_band: np.ndarray
    ssim_per_band: np.ndarray
    mpsnr: float
    mssim: float
    msam: float  # mean spectral angle over pixels, radians


def _check_band(ref: np.ndarray, test: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ref = np.asarray(ref, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if ref.shape != test.shape:
        raise ValueError(f"shape mismatch: {ref.shape} vs {test.shape}")
    return ref, test


def psnr(ref_band: np.ndarray, test_band: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB at peak 1, capped at 100 dB for exact matches."""
    ref, test = _check_band(ref_band, test_band)
    mse = float(np.mean((ref - test) ** 2))
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(10.0 * np.log10(1.0 / mse), PSNR_CAP_DB)


def _gaussian_window() -> np.ndarray:
    half = SSIM_WINDOW // 2
    x = np.arange(-half, half + 1, dtype=np.float64)
    g = np.exp(-(x**2) / (2.0 * SSIM_SIGMA**2))
    return g / g.sum()


_SSIM_G = _gaussian_window()


def _window_pass(field: np.ndarray, axis: int) -> np.ndarray:
    """Gaussian-weighted sum along ``axis`` (0 or 1) over every fully interior window.

    The output is ``2 * (SSIM_WINDOW // 2)`` shorter than ``field`` along
    ``axis``.  The sum starts from the center tap and adds the mirrored pairs
    from the outermost inwards, ``(x[i-j] + x[i+j]) * g[half-j]`` for
    ``j = half, ..., 1``: the order in which ``scipy.ndimage.correlate1d``
    evaluates a symmetric kernel, so the two agree bit for bit.
    """
    half = SSIM_WINDOW // 2
    n = field.shape[axis] - 2 * half

    def tap(offset: int) -> np.ndarray:
        return field[offset : offset + n] if axis == 0 else field[:, offset : offset + n]

    # C order whatever the input's layout, as correlate1d's output, so that
    # the mean of the SSIM map sums in the same order
    out = np.multiply(_SSIM_G[half], tap(half), order="C")
    pair = np.empty_like(out)
    for j in range(half, 0, -1):
        np.add(tap(half - j), tap(half + j), out=pair)
        pair *= _SSIM_G[half - j]
        out += pair
    return out


def _window_means(field: np.ndarray) -> np.ndarray:
    """Gaussian-weighted mean of every fully interior window of a 2-D field.

    The 2-D window is ``outer(g, g)``, so the mean is a 1-D pass along axis 0
    and one along axis 1; each pass computes only windows that read no
    padding, so no boundary mode is involved.
    """
    return _window_pass(_window_pass(field, 0), 1)


def ssim(ref_band: np.ndarray, test_band: np.ndarray) -> float:
    """Mean local SSIM with an 11x11 Gaussian window (sigma 1.5) at peak 1.

    Local means, variances and the covariance are Gaussian-weighted, each
    computed as two separable 1-D Gaussian passes (axis 0, then axis 1); only
    windows fully inside the image contribute to the mean.
    """
    ref, test = _check_band(ref_band, test_band)
    if ref.ndim != 2:
        raise ValueError(f"expected 2-D bands, got ndim={ref.ndim}")
    if min(ref.shape) < SSIM_WINDOW:
        raise ValueError(f"bands must be at least {SSIM_WINDOW}x{SSIM_WINDOW}, got {ref.shape}")
    mu_r = _window_means(ref)
    mu_t = _window_means(test)
    e_rr = _window_means(ref * ref)
    e_tt = _window_means(test * test)
    e_rt = _window_means(ref * test)
    var_r = e_rr - mu_r**2
    var_t = e_tt - mu_t**2
    cov = e_rt - mu_r * mu_t

    c1 = SSIM_K1**2
    c2 = SSIM_K2**2
    ssim_map = ((2.0 * mu_r * mu_t + c1) * (2.0 * cov + c2)) / (
        (mu_r**2 + mu_t**2 + c1) * (var_r + var_t + c2)
    )
    return float(np.mean(ssim_map))


def sam(ref: np.ndarray, test: np.ndarray) -> float | np.ndarray:
    """Spectral angle along the last axis, in radians; a float for two spectra.

    Computed as ``2*arcsin(|u - v| / 2)`` on the normalized spectra (and as
    ``pi - 2*arcsin(|u + v| / 2)`` for obtuse pairs), which is exact for
    identical inputs and well conditioned at small angles.  Two zero vectors
    are assigned angle 0; exactly one zero vector gives pi/2.
    """
    ref, test = _check_band(ref, test)
    nr = np.linalg.norm(ref, axis=-1)
    nt = np.linalg.norm(test, axis=-1)
    u = ref / np.where(nr > 0, nr, 1.0)[..., None]
    v = test / np.where(nt > 0, nt, 1.0)[..., None]
    chord = np.minimum(np.linalg.norm(u - v, axis=-1), 2.0)
    anti = np.minimum(np.linalg.norm(u + v, axis=-1), 2.0)
    obtuse = np.sum(u * v, axis=-1) < 0.0
    angles = np.where(
        obtuse, np.pi - 2.0 * np.arcsin(0.5 * anti), 2.0 * np.arcsin(0.5 * chord)
    )
    # two zero vectors already give a zero chord, hence angle 0
    angles = np.where((nr == 0) != (nt == 0), np.pi / 2.0, angles)
    return float(angles) if angles.ndim == 0 else angles


def evaluate(ref: np.ndarray, test: np.ndarray) -> MetricsReport:
    """Assemble per-band PSNR/SSIM, the pixel-wise spectral-angle summary, and their means.

    PSNR and SSIM are taken at a peak of 1, band by band, on contiguous
    band-major copies of blocks of whole bands holding about
    :data:`PLANE_BLOCK_ENTRIES` entries, made into two reused buffers.  The
    spectral angles are taken over blocks of whole rows of about
    :data:`SAM_BLOCK_ENTRIES` entries, which gives the same map as one
    :func:`sam` call on the whole cube.
    """
    ref = validate_cube(ref, "ref")
    test = validate_cube(test, "test")
    if ref.shape != test.shape:
        raise ValueError(f"shape mismatch: {ref.shape} vs {test.shape}")
    h, w, bands = ref.shape
    block = min(bands, max(1, PLANE_BLOCK_ENTRIES // (h * w)))
    ref_planes = np.empty((block, h, w))
    test_planes = np.empty((block, h, w))
    psnr_pb, ssim_pb = [], []
    for b in range(0, bands, block):
        n = min(block, bands - b)
        # each plane of a block is C-contiguous, as a band of a whole-cube
        # band-major copy is, so every band sums in the same order
        np.copyto(ref_planes[:n], ref[:, :, b : b + n].transpose(2, 0, 1))
        np.copyto(test_planes[:n], test[:, :, b : b + n].transpose(2, 0, 1))
        psnr_pb += [psnr(r, t) for r, t in zip(ref_planes[:n], test_planes[:n])]
        ssim_pb += [ssim(r, t) for r, t in zip(ref_planes[:n], test_planes[:n])]
    del ref_planes, test_planes
    psnr_pb, ssim_pb = np.array(psnr_pb), np.array(ssim_pb)
    # each pixel's angle reduces along the contiguous last axis only, so the
    # row blocks give the map of one whole-cube call bit for bit
    rows = max(1, SAM_BLOCK_ENTRIES // (w * bands))
    sam_map = np.concatenate(
        [sam(ref[i : i + rows], test[i : i + rows]) for i in range(0, h, rows)]
    )
    return MetricsReport(
        psnr_per_band=psnr_pb,
        ssim_per_band=ssim_pb,
        mpsnr=float(np.mean(psnr_pb)),
        mssim=float(np.mean(ssim_pb)),
        msam=float(np.mean(sam_map)),
    )
