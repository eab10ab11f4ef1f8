"""Seeded mixed-noise simulator for ground-truth experiments.

Six predefined cases combine per-band Gaussian noise, salt-and-pepper
impulses, dead column runs, and additive column stripes of several kinds.
Layers are applied in the order Gaussian -> stripes -> dead lines -> impulse,
so impulses and dead pixels overwrite whatever was below them, as saturation
and dead sensors do.  All randomness flows from the single seed in the spec;
nothing touches global RNG state.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

import numpy as np

from .tensor_ops import row_blocks, validate_cube

STRIPE_KINDS = ("none", "random", "periodic", "mixed", "wide_vertical")
WIDE_STRIPE_WIDTH = (5, 15)
# the dead-line pattern of every case; ranges are inclusive
DEADLINE_BAND_FRACTION = 1.0 / 3.0
DEADLINE_COUNT = (1, 3)
DEADLINE_WIDTH = (1, 3)


def _is_int(value) -> bool:
    # bool is an Integral, but True is no count
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class NoiseSpec:
    """Parameters of one simulated degradation.

    Ranges are inclusive ``(lo, hi)`` pairs sampled per band; a degenerate
    range ``(v, v)`` pins the value.  ``gaussian_variance`` is the variance of
    the per-band Gaussian noise; ``stripe_coverage`` is the fraction of
    columns striped per band.  Dead lines are the same in every case (see
    the ``DEADLINE_*`` constants).
    """

    case_id: int
    gaussian_variance: tuple[float, float]
    impulse_ratio: tuple[float, float]
    stripe_kind: str
    stripe_coverage: tuple[float, float]
    stripe_amplitude: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.stripe_kind not in STRIPE_KINDS:
            raise ValueError(f"unknown stripe kind {self.stripe_kind!r}")
        for name, (lo, hi) in (
            ("impulse_ratio", self.impulse_ratio),
            ("stripe_coverage", self.stripe_coverage),
        ):
            if not (0.0 <= lo <= hi <= 1.0):
                raise ValueError(f"{name} range must lie in [0, 1], got ({lo}, {hi})")
        lo, hi = self.gaussian_variance
        if not (0.0 <= lo <= hi < np.inf):
            raise ValueError(
                f"gaussian_variance range must be finite and nonnegative, got ({lo}, {hi})"
            )
        if not (np.isfinite(self.stripe_amplitude) and self.stripe_amplitude >= 0.0):
            raise ValueError(
                f"stripe_amplitude must be finite and nonnegative, got {self.stripe_amplitude}"
            )
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")


_CASE_TABLE = {
    1: dict(gaussian_variance=(0.0, 0.2), impulse_ratio=(0.0, 0.2), stripe_kind="none", stripe_coverage=(0.0, 0.0)),
    2: dict(gaussian_variance=(0.1, 0.1), impulse_ratio=(0.2, 0.2), stripe_kind="random", stripe_coverage=(0.4, 0.5)),
    3: dict(gaussian_variance=(0.0, 0.2), impulse_ratio=(0.0, 0.2), stripe_kind="random", stripe_coverage=(0.6, 0.7)),
    4: dict(gaussian_variance=(0.0, 0.2), impulse_ratio=(0.0, 0.2), stripe_kind="periodic", stripe_coverage=(0.4, 0.4)),
    5: dict(gaussian_variance=(0.0, 0.2), impulse_ratio=(0.0, 0.2), stripe_kind="mixed", stripe_coverage=(0.4, 0.4)),
    6: dict(gaussian_variance=(0.0, 0.2), impulse_ratio=(0.0, 0.2), stripe_kind="wide_vertical", stripe_coverage=(0.4, 0.4)),
}


def case_spec(case_id: int, seed: int, **overrides) -> NoiseSpec:
    """Build the :class:`NoiseSpec` of one of the six predefined cases."""
    # True == 1 and 2.0 == 2 would find a case too
    if not (_is_int(case_id) and case_id in _CASE_TABLE):
        raise ValueError(f"case_id must be an integer in 1..6, got {case_id!r}")
    spec = NoiseSpec(case_id=int(case_id), seed=seed, **_CASE_TABLE[case_id])
    return replace(spec, **overrides) if overrides else spec


def _impulse_perturbation(
    noisy: np.ndarray, ratio_per_band: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Overwrite a seeded share of each band of ``noisy`` with 0 or 1; returns the mask.

    The mask draws come first, then the 0/1 draws (each with equal
    probability), each over the whole cube in C order.  Both are taken in
    blocks of whole rows of at most ``tensor_ops.BLOCK_ENTRIES`` entries into
    one reused buffer; every float64 draw takes one word of the stream in
    order, so the blocks draw what one whole-cube ``rng.random`` would.  The
    ratios are draws from the ``impulse_ratio`` range that NoiseSpec checks.
    """
    blocks = row_blocks(noisy.shape)
    buf = np.empty((blocks[0].stop,) + noisy.shape[1:])
    mask = np.empty(noisy.shape, dtype=bool)
    for rows in blocks:
        np.less(rng.random(out=buf[: rows.stop - rows.start]), ratio_per_band, out=mask[rows])
    for rows in blocks:
        u = rng.random(out=buf[: rows.stop - rows.start])
        np.less(u, 0.5, out=u)  # 1.0 where the draw is below one half, else 0.0
        np.copyto(noisy[rows], u, where=mask[rows])
    return mask


def _deadline_profile(w: int, p: int, rng: np.random.Generator) -> np.ndarray:
    """Boolean per-(column, band) profile of dead column runs in a seeded subset of bands.

    Draws ``round(DEADLINE_BAND_FRACTION * p)`` bands, then per band a run
    count in :data:`DEADLINE_COUNT` and per run a width in
    :data:`DEADLINE_WIDTH` and a start column.  Dead columns run the whole
    height, so the mask is this profile replicated along the rows.
    """
    dead = np.zeros((w, p), dtype=bool)
    n_bands = int(round(DEADLINE_BAND_FRACTION * p))
    bands = rng.choice(p, size=n_bands, replace=False) if n_bands else ()
    lo_c, hi_c = DEADLINE_COUNT
    lo_w, hi_w = DEADLINE_WIDTH
    for band in bands:
        count = int(rng.integers(lo_c, hi_c + 1))
        for _ in range(count):
            width = int(rng.integers(lo_w, hi_w + 1))
            width = min(width, w)
            start = int(rng.integers(0, w - width + 1))
            dead[start : start + width, band] = True
    return dead


def _stripe_profile(
    w: int, p: int, kind: str, coverage: tuple[float, float], amplitude: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-(column, band) stripe biases; the field replicates them along rows."""
    profile = np.zeros((w, p))
    lo, hi = coverage
    if kind == "none":
        return profile
    if kind == "random":
        for band in range(p):
            cov = rng.uniform(lo, hi)
            n_cols = int(round(cov * w))
            if n_cols == 0:
                continue
            cols = rng.choice(w, size=n_cols, replace=False)
            profile[cols, band] = rng.uniform(-amplitude, amplitude, size=n_cols)
        return profile
    if kind == "periodic":
        for band in range(p):
            cov = rng.uniform(lo, hi)
            if cov <= 0:
                continue
            period = int(np.ceil(1.0 / cov))
            sign = 1.0 if rng.random() < 0.5 else -1.0
            amp = sign * rng.uniform(0.5 * amplitude, amplitude)
            profile[np.arange(0, w, period), band] = amp
        return profile
    if kind == "mixed":
        halved = (0.5 * lo, 0.5 * hi)
        a = _stripe_profile(w, p, "periodic", halved, amplitude, rng)
        b = _stripe_profile(w, p, "random", halved, amplitude, rng)
        return a + b
    # wide_vertical, the last of the STRIPE_KINDS that NoiseSpec admits
    lo_w, hi_w = WIDE_STRIPE_WIDTH
    for band in range(p):
        cov = rng.uniform(lo, hi)
        target = int(round(cov * w))
        striped = np.zeros(w, dtype=bool)
        for _ in range(10_000):  # draw cap; coverage is met long before
            if striped.sum() >= target:
                break
            width = min(int(rng.integers(lo_w, hi_w + 1)), w)
            start = int(rng.integers(0, w - width + 1))
            sign = 1.0 if rng.random() < 0.5 else -1.0
            amp = sign * rng.uniform(0.5 * amplitude, amplitude)
            profile[start : start + width, band] = amp
            striped[start : start + width] = True
    return profile


def simulate_case(
    truth: np.ndarray, spec: NoiseSpec
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Apply one case's noise layers to a clean cube.

    Returns the noisy cube plus the exact components used to build it:
    ``gaussian`` (additive field), ``stripe_field`` (additive field),
    ``deadline_mask`` and ``impulse_mask`` (boolean cubes).  On voxels outside
    both masks, ``truth + gaussian + stripe_field`` reproduces the noisy cube
    bit for bit (evaluated left to right).  ``stripe_field`` and
    ``deadline_mask`` are constant along the height, so they are read-only
    views of a ``(w, p)`` profile broadcast along the rows; ``noisy``,
    ``gaussian`` and ``impulse_mask`` are the caller's own arrays.
    """
    truth = validate_cube(truth, "truth")
    rng = np.random.default_rng(spec.seed)
    h, w, p = truth.shape

    lo_v, hi_v = spec.gaussian_variance
    sigma_per_band = np.sqrt(rng.uniform(lo_v, hi_v, size=p))
    gauss = rng.standard_normal(truth.shape)
    gauss *= sigma_per_band
    # noisy is this function's own cube, so every later layer goes in in place
    noisy = truth + gauss
    stripe_field = np.broadcast_to(
        _stripe_profile(w, p, spec.stripe_kind, spec.stripe_coverage, spec.stripe_amplitude, rng),
        truth.shape,
    )
    noisy += stripe_field

    dead = np.broadcast_to(_deadline_profile(w, p, rng), truth.shape)
    np.copyto(noisy, 0.0, where=dead)

    lo_r, hi_r = spec.impulse_ratio
    ratio_per_band = rng.uniform(lo_r, hi_r, size=p)
    imp_mask = _impulse_perturbation(noisy, ratio_per_band, rng)

    components = {
        "gaussian": gauss,
        "stripe_field": stripe_field,
        "deadline_mask": dead,
        "impulse_mask": imp_mask,
    }
    return noisy, components
