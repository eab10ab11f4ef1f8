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

from .tensor_ops import validate_cube

STRIPE_KINDS = ("none", "random", "periodic", "mixed", "wide_vertical")
WIDE_STRIPE_WIDTH = (5, 15)


@dataclass(frozen=True)
class NoiseSpec:
    """Parameters of one simulated degradation.

    Ranges are inclusive ``(lo, hi)`` pairs sampled per band; a degenerate
    range ``(v, v)`` pins the value.  ``gaussian_variance`` is the variance of
    the per-band Gaussian noise; ``stripe_coverage`` is the fraction of
    columns striped per band.
    """

    case_id: int
    gaussian_variance: tuple[float, float]
    impulse_ratio: tuple[float, float]
    stripe_kind: str
    stripe_coverage: tuple[float, float]
    stripe_amplitude: float = 0.25
    deadline_band_fraction: float = 1.0 / 3.0
    deadline_count: tuple[int, int] = (1, 3)
    deadline_width: tuple[int, int] = (1, 3)
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
        if not (0.0 <= lo <= hi):
            raise ValueError(f"gaussian_variance range must be nonnegative, got ({lo}, {hi})")
        if not 0.0 <= self.deadline_band_fraction <= 1.0:
            raise ValueError("deadline_band_fraction must lie in [0, 1]")
        if not (np.isfinite(self.stripe_amplitude) and self.stripe_amplitude >= 0.0):
            raise ValueError(
                f"stripe_amplitude must be finite and nonnegative, got {self.stripe_amplitude}"
            )
        for name, (lo, hi) in (
            ("deadline_count", self.deadline_count),
            ("deadline_width", self.deadline_width),
        ):
            if not 0 <= lo <= hi:
                raise ValueError(f"{name} range must satisfy 0 <= lo <= hi, got ({lo}, {hi})")
        if not (isinstance(self.seed, numbers.Integral) and not isinstance(self.seed, bool)
                and self.seed >= 0):
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
    # True == 1 would find case 1
    if isinstance(case_id, bool) or case_id not in _CASE_TABLE:
        raise ValueError(f"case_id must be in 1..6, got {case_id!r}")
    spec = NoiseSpec(case_id=case_id, seed=seed, **_CASE_TABLE[case_id])
    return replace(spec, **overrides) if overrides else spec


def gaussian_field(
    shape: tuple[int, int, int], sigma_per_band: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Zero-mean Gaussian noise cube with the given per-band standard deviations."""
    sigma_per_band = np.asarray(sigma_per_band, dtype=np.float64)
    if np.any(sigma_per_band < 0):
        raise ValueError("sigma must be nonnegative")
    field = rng.standard_normal(shape)
    field *= sigma_per_band[None, None, :]
    return field


def impulse_perturbation(
    shape: tuple[int, int, int], ratio_per_band: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Salt-and-pepper mask and replacement values (0 or 1 with equal probability)."""
    ratio_per_band = np.asarray(ratio_per_band, dtype=np.float64)
    if np.any((ratio_per_band < 0) | (ratio_per_band > 1)):
        raise ValueError("impulse ratio must lie in [0, 1]")
    mask = rng.random(shape) < ratio_per_band[None, None, :]
    values = (rng.random(shape) < 0.5).astype(np.float64)
    return mask, values


def deadline_mask(
    shape: tuple[int, int, int], spec: NoiseSpec, rng: np.random.Generator
) -> np.ndarray:
    """Boolean cube marking dead column runs in a seeded subset of bands."""
    h, w, p = shape
    mask = np.zeros(shape, dtype=bool)
    n_bands = int(round(spec.deadline_band_fraction * p))
    if n_bands == 0:
        return mask
    bands = rng.choice(p, size=n_bands, replace=False)
    lo_c, hi_c = spec.deadline_count
    lo_w, hi_w = spec.deadline_width
    for band in bands:
        count = int(rng.integers(lo_c, hi_c + 1))
        for _ in range(count):
            width = int(rng.integers(lo_w, hi_w + 1))
            width = min(width, w)
            start = int(rng.integers(0, w - width + 1))
            mask[:, start : start + width, band] = True
    return mask


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
    if kind == "wide_vertical":
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
    raise ValueError(f"unknown stripe kind {kind!r}")


def add_stripes(
    t: np.ndarray,
    kind: str,
    coverage: tuple[float, float] | float,
    rng: np.random.Generator,
    amplitude: float = 0.25,
) -> tuple[np.ndarray, np.ndarray]:
    """Add an additive column-stripe field; returns ``(noisy, stripe_field)``.

    The stripe field is constant along rows within each band, so its mode-1
    unfolding has rank one per band slice.
    """
    if kind not in STRIPE_KINDS:
        raise ValueError(f"unknown stripe kind {kind!r}")
    t = np.asarray(t, dtype=np.float64)
    if np.isscalar(coverage):
        coverage = (float(coverage), float(coverage))
    lo, hi = coverage
    if not (0.0 <= lo <= hi <= 1.0):
        raise ValueError(f"coverage must lie in [0, 1], got ({lo}, {hi})")
    stripe_field = _stripe_field(t.shape, kind, (lo, hi), amplitude, rng)
    return t + stripe_field, stripe_field


def _stripe_field(
    shape: tuple[int, int, int], kind: str, coverage: tuple[float, float], amplitude: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """The stripe cube: one drawn per-(column, band) profile repeated along the rows."""
    h, w, p = shape
    profile = _stripe_profile(w, p, kind, coverage, amplitude, rng)
    return np.broadcast_to(profile[None, :, :], shape).copy()


def simulate_case(
    truth: np.ndarray, spec: NoiseSpec
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Apply one case's noise layers to a clean cube.

    Returns the noisy cube plus the exact components used to build it:
    ``gaussian`` (additive field), ``stripe_field`` (additive field),
    ``deadline_mask`` and ``impulse_mask`` (boolean cubes).  On voxels outside
    both masks, ``truth + gaussian + stripe_field`` reproduces the noisy cube
    bit for bit (evaluated left to right).
    """
    truth = validate_cube(truth, "truth")
    rng = np.random.default_rng(spec.seed)
    h, w, p = truth.shape

    lo_v, hi_v = spec.gaussian_variance
    sigma_per_band = np.sqrt(rng.uniform(lo_v, hi_v, size=p))
    gauss = gaussian_field(truth.shape, sigma_per_band, rng)
    # noisy is this function's own cube, so every later layer goes in in place
    noisy = truth + gauss
    stripe_field = _stripe_field(
        truth.shape, spec.stripe_kind, spec.stripe_coverage, spec.stripe_amplitude, rng
    )
    noisy += stripe_field

    dead = deadline_mask(truth.shape, spec, rng)
    np.copyto(noisy, 0.0, where=dead)

    lo_r, hi_r = spec.impulse_ratio
    ratio_per_band = rng.uniform(lo_r, hi_r, size=p)
    imp_mask, imp_values = impulse_perturbation(truth.shape, ratio_per_band, rng)
    np.copyto(noisy, imp_values, where=imp_mask)

    components = {
        "gaussian": gauss,
        "stripe_field": stripe_field,
        "deadline_mask": dead,
        "impulse_mask": imp_mask,
    }
    return noisy, components
