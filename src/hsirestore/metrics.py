"""Restoration quality metrics: band-wise PSNR/SSIM and pixel-wise spectral angle.

SSIM uses the 11x11 Gaussian window with sigma 1.5 of Wang, Bovik, Sheikh and
Simoncelli (IEEE TIP 2004), taken as two separable passes in plain numpy whose
sums equal those of ``scipy.ndimage.correlate1d`` bit for bit.

Bands of at least :data:`SPLIT_BAND_ENTRIES` entries use the process's
helper thread (``tensor_ops._fan_out``): :func:`ssim` computes the top half of
its map rows there and the bottom half here, and :func:`evaluate` splits the
rows of its spectral-angle map the same way.  Each map entry is the same
numpy calls on the same operands on either thread, and the means run here on
the whole map, so every score is bit-identical to the one-thread one.  The
helper runs private kernels only, never :func:`ssim` or :func:`evaluate`,
which the benchmark tracer wraps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .tensor_ops import _copy_in_tiles, _on_halves, bands_per_block, row_blocks, validate_cube

PSNR_CAP_DB = 100.0

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03

# bands of fewer entries are scored on this thread alone.  Split in two, one
# band's SSIM broke even at about 192x192 (36864 entries) on a 2-core Xeon,
# ran 1.7x slower at 128x128 and 3.5-4x slower at 64x64: the two threads'
# turns at the interpreter lock, one per numpy call, then cost more than the
# helper's half saves.  The floor sits a little above the break-even size.
SPLIT_BAND_ENTRIES = 49152


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
    windows fully inside the image contribute to the mean.  A band of at
    least :data:`SPLIT_BAND_ENTRIES` entries has the top half of its map rows
    computed on the helper thread.
    """
    ref, test = _check_band(ref_band, test_band)
    if ref.ndim != 2:
        raise ValueError(f"expected 2-D bands, got ndim={ref.ndim}")
    if min(ref.shape) < SSIM_WINDOW:
        raise ValueError(f"bands must be at least {SSIM_WINDOW}x{SSIM_WINDOW}, got {ref.shape}")
    edge = SSIM_WINDOW - 1
    ssim_map = np.empty((ref.shape[0] - edge, ref.shape[1] - edge))
    rows = partial(_ssim_rows, ref, test, ssim_map)
    if ref.size < SPLIT_BAND_ENTRIES:
        rows(slice(0, len(ssim_map)))
    else:
        _on_halves(rows, len(ssim_map))
    return float(np.mean(ssim_map))


def _ssim_rows(ref: np.ndarray, test: np.ndarray, ssim_map: np.ndarray, rows: slice) -> None:
    """Write the SSIM map's ``rows`` into ``ssim_map``, from the band rows their windows cover.

    Each window pass forms an entry from its own window alone, so these rows
    have the bits of the same rows of a whole-band map.  The formula's terms
    are formed in place, each by the same operation on the same operands as
    in ``((2 mu_r mu_t + c1)(2 cov + c2)) / ((mu_r^2 + mu_t^2 + c1)(var_r +
    var_t + c2))``, so that the formula holds one map-sized field beyond the
    five window fields.
    """
    window = slice(rows.start, rows.stop + SSIM_WINDOW - 1)
    ref, test = ref[window], test[window]
    mu_r = _window_means(ref)
    mu_t = _window_means(test)
    var_r = _window_means(ref * ref)
    var_r -= np.square(mu_r)
    var_t = _window_means(test * test)
    var_t -= np.square(mu_t)
    cov = _window_means(ref * test)
    cov -= mu_r * mu_t

    c1 = SSIM_K1**2
    c2 = SSIM_K2**2
    num = np.multiply(2.0, mu_r)
    num *= mu_t
    num += c1
    cov *= 2.0
    cov += c2
    num *= cov
    den = np.square(mu_r, out=mu_r)
    den += np.square(mu_t, out=mu_t)
    den += c1
    var_r += var_t
    var_r += c2
    den *= var_r
    np.divide(num, den, out=ssim_map[rows])


def sam(ref: np.ndarray, test: np.ndarray) -> float | np.ndarray:
    """Spectral angle along the last axis, in radians; a float for two spectra.

    Computed as ``2*atan2(|u - v|, |u + v|)`` on the normalized spectra ``u``
    and ``v`` (W. Kahan, "How Futile are Mindless Assessments of Roundoff in
    Floating-Point Computation?", 2006), which is exact for identical inputs
    and well conditioned at every angle.  A zero vector normalizes to zero,
    so two zero vectors give ``atan2(0, 0) = 0`` and exactly one gives
    ``atan2(|v|, |v|) = pi/4``, hence an angle of exactly pi/2.
    """
    ref, test = _check_band(ref, test)
    nr = np.linalg.norm(ref, axis=-1)
    nt = np.linalg.norm(test, axis=-1)
    u = ref / np.where(nr > 0, nr, 1.0)[..., None]
    v = test / np.where(nt > 0, nt, 1.0)[..., None]
    angles = 2.0 * np.arctan2(np.linalg.norm(u - v, axis=-1), np.linalg.norm(u + v, axis=-1))
    return float(angles) if angles.ndim == 0 else angles


def evaluate(ref: np.ndarray, test: np.ndarray) -> MetricsReport:
    """Assemble per-band PSNR/SSIM, the pixel-wise spectral-angle summary, and their means.

    PSNR and SSIM are taken at a peak of 1, band by band, on contiguous
    band-major copies of blocks of whole bands of at most
    ``tensor_ops.BAND_BLOCK_BYTES``, made tile by tile into two reused
    buffers.  The spectral angles are taken over blocks of whole rows of at
    most ``tensor_ops.BLOCK_ENTRIES`` entries, which gives the same map as one
    :func:`sam` call on the whole cube; for bands of at least
    :data:`SPLIT_BAND_ENTRIES` entries the helper thread takes the first half
    of the rows.
    """
    ref = validate_cube(ref, "ref")
    test = validate_cube(test, "test")
    if ref.shape != test.shape:
        raise ValueError(f"shape mismatch: {ref.shape} vs {test.shape}")
    h, w, bands = ref.shape
    block = bands_per_block(ref.shape, ref.itemsize)
    ref_planes, test_planes = np.empty((2, block, h, w))
    psnr_pb, ssim_pb = [], []
    for b in range(0, bands, block):
        n = min(block, bands - b)
        # each plane of a block is C-contiguous, as a band of a whole-cube
        # band-major copy is, so every band sums in the same order
        _copy_in_tiles(ref_planes[:n].transpose(1, 2, 0), ref[:, :, b : b + n])
        _copy_in_tiles(test_planes[:n].transpose(1, 2, 0), test[:, :, b : b + n])
        psnr_pb += [psnr(r, t) for r, t in zip(ref_planes[:n], test_planes[:n])]
        ssim_pb += [ssim(r, t) for r, t in zip(ref_planes[:n], test_planes[:n])]
    del ref_planes, test_planes
    psnr_pb, ssim_pb = np.array(psnr_pb), np.array(ssim_pb)
    # each pixel's angle reduces along the contiguous last axis only, so any
    # cut into blocks of rows gives the map of one whole-cube call bit for bit
    sam_map = np.empty((h, w))

    def sam_rows(part: slice) -> None:
        for rows in row_blocks(ref.shape, part):
            sam_map[rows] = sam(ref[rows], test[rows])

    if h * w < SPLIT_BAND_ENTRIES:
        sam_rows(slice(0, h))
    else:
        _on_halves(sam_rows, h)
    return MetricsReport(
        psnr_per_band=psnr_pb,
        ssim_per_band=ssim_pb,
        mpsnr=float(np.mean(psnr_pb)),
        mssim=float(np.mean(ssim_pb)),
        msam=float(np.mean(sam_map)),
    )
