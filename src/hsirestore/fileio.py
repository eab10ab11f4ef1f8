"""File formats: the binary cube container, key=value configs, and CSV reports.

Cube container layout (little endian):

* 8 bytes magic ``HSICUBE1``
* three uint32: height, width, bands
* ``h*w*p`` float32 values, mode-1 (height index) varying fastest

The payload stays height-fastest on disk, while cubes in memory are C-ordered
(band index fastest): :func:`read_cube` returns a C-ordered float64 cube and
:func:`write_cube` accepts any layout, each converting in one transposing cast.

Configs and manifests are plain UTF-8 ``key=value`` lines; ``#`` starts a
comment.  Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np

from .metrics import MetricsReport
from .noise import NoiseSpec, case_spec
from .solver import SolveDiagnostics, SolverConfig
from .tucker import TuckerRanks

MAGIC = b"HSICUBE1"
_HEADER = struct.Struct("<8sIII")


class CubeFileError(Exception):
    """Malformed or unreadable cube container."""


class ConfigError(Exception):
    """Malformed or invalid key=value config."""


def write_cube(path: str | Path, cube: np.ndarray) -> None:
    """Write a cube as float32; values must be finite."""
    cube = np.asarray(cube)
    if cube.ndim != 3 or cube.size == 0:
        raise CubeFileError(f"expected a non-empty 3-D cube, got shape {cube.shape}")
    if not np.all(np.isfinite(cube)):
        raise CubeFileError("cube contains non-finite values")
    h, w, p = cube.shape
    # the C order of the reversed axes is the height-fastest order of the file
    payload = cube.transpose(2, 1, 0).astype("<f4", order="C")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, h, w, p))
        fh.write(payload.data)


def read_cube(path: str | Path, normalize: bool = False) -> np.ndarray:
    """Read a cube container; optionally min-max normalize each band to [0, 1]."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise CubeFileError(f"{path}: truncated header ({len(raw)} bytes)")
    magic, h, w, p = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise CubeFileError(f"{path}: bad magic {magic!r}")
    if h == 0 or w == 0 or p == 0:
        raise CubeFileError(f"{path}: zero dimension in header ({h}, {w}, {p})")
    expected = _HEADER.size + 4 * h * w * p
    if len(raw) != expected:
        raise CubeFileError(
            f"{path}: payload length mismatch, expected {expected} bytes, got {len(raw)}"
        )
    flat = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size)
    cube = flat.reshape((p, w, h)).transpose(2, 1, 0).astype(np.float64, order="C")
    del raw, flat
    if not np.all(np.isfinite(cube)):
        raise CubeFileError(f"{path}: payload contains non-finite values")
    # the cube is this function's own, so it is normalized where it lies
    return _normalize_bands(cube, out=cube) if normalize else cube


def normalize_bands(cube: np.ndarray) -> np.ndarray:
    """Min-max normalize each band to [0, 1]; constant bands map to zero."""
    return _normalize_bands(np.asarray(cube, dtype=np.float64), out=None)


def _normalize_bands(cube: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """Write the band-normalized ``cube`` to ``out``, which may be ``cube`` itself."""
    lo = cube.min(axis=(0, 1), keepdims=True)
    hi = cube.max(axis=(0, 1), keepdims=True)
    span = hi - lo
    span[span == 0] = 1.0
    out = np.subtract(cube, lo, out=out)
    out /= span
    return out


def _parse_lines(text: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value.strip()
    return values


def _as_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from exc


def _as_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from exc


def _as_bool(key: str, raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ConfigError(f"{key}: expected true/false, got {raw!r}")


def _as_tuple(key: str, raw: str, cast, count: int) -> tuple:
    parts = [part.strip() for part in raw.split(",")]
    if len(parts) != count:
        raise ConfigError(f"{key}: expected {count} comma-separated values, got {raw!r}")
    return tuple(cast(key, part) for part in parts)


def parse_solver_config(text: str) -> SolverConfig:
    """Build a :class:`SolverConfig` from key=value text; unknown keys are rejected."""
    values = _parse_lines(text)
    # the serializer writes every accepted key exactly once
    unknown = set(values) - set(_parse_lines(solver_config_text(SolverConfig())))
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    for key in ("lambda_tv", "lambda_sparse", "beta0", "beta_max", "beta_growth", "epsilon"):
        if key in values:
            kwargs[key] = _as_float(key, values[key])
    if "max_iter" in values:
        kwargs["max_iter"] = _as_int("max_iter", values["max_iter"])
    if "stripe_enabled" in values:
        kwargs["stripe_enabled"] = _as_bool("stripe_enabled", values["stripe_enabled"])
    if "p_override" in values and values["p_override"].lower() != "auto":
        kwargs["p_override"] = _as_tuple("p_override", values["p_override"], _as_float, 3)
    # the value objects check their own ranges and raise ValueError
    try:
        weights = {attr: _as_float(key, values[key])
                   for key, attr in (("weight_h", "w_h"), ("weight_w", "w_w"), ("weight_p", "w_p"))
                   if key in values}
        if weights:
            kwargs["weights"] = replace(SolverConfig().weights, **weights)
        for key in ("ranks_x", "ranks_b"):
            if key in values and values[key].lower() != "auto":
                kwargs[key] = TuckerRanks(*_as_tuple(key, values[key], _as_int, 3))
        return SolverConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_solver_config(path: str | Path) -> SolverConfig:
    return parse_solver_config(Path(path).read_text(encoding="utf-8"))


def solver_config_text(cfg: SolverConfig) -> str:
    """Serialize a resolved config back to key=value lines."""
    lines = [
        f"lambda_tv={cfg.lambda_tv!r}",
        f"lambda_sparse={cfg.lambda_sparse!r}",
        f"beta0={cfg.beta0!r}",
        f"beta_max={cfg.beta_max!r}",
        f"beta_growth={cfg.beta_growth!r}",
        f"weight_h={cfg.weights.w_h!r}",
        f"weight_w={cfg.weights.w_w!r}",
        f"weight_p={cfg.weights.w_p!r}",
        "ranks_x=" + ("auto" if cfg.ranks_x is None else ",".join(map(str, cfg.ranks_x.as_tuple()))),
        "ranks_b=" + ("auto" if cfg.ranks_b is None else ",".join(map(str, cfg.ranks_b.as_tuple()))),
        f"epsilon={cfg.epsilon!r}",
        f"max_iter={cfg.max_iter}",
        "p_override=" + ("auto" if cfg.p_override is None else ",".join(repr(p) for p in cfg.p_override)),
        f"stripe_enabled={'true' if cfg.stripe_enabled else 'false'}",
    ]
    return "\n".join(lines) + "\n"


def manifest_text(spec: NoiseSpec) -> str:
    """Serialize a noise spec completely to key=value lines."""
    lines = [
        f"case={spec.case_id}",
        f"seed={spec.seed}",
        f"gaussian_variance={spec.gaussian_variance[0]!r},{spec.gaussian_variance[1]!r}",
        f"impulse_ratio={spec.impulse_ratio[0]!r},{spec.impulse_ratio[1]!r}",
        f"stripe_kind={spec.stripe_kind}",
        f"stripe_coverage={spec.stripe_coverage[0]!r},{spec.stripe_coverage[1]!r}",
        f"stripe_amplitude={spec.stripe_amplitude!r}",
        f"deadline_band_fraction={spec.deadline_band_fraction!r}",
        f"deadline_count={spec.deadline_count[0]},{spec.deadline_count[1]}",
        f"deadline_width={spec.deadline_width[0]},{spec.deadline_width[1]}",
    ]
    return "\n".join(lines) + "\n"


def write_manifest(path: str | Path, spec: NoiseSpec) -> None:
    """Record a noise spec completely; :func:`read_manifest` round-trips it."""
    Path(path).write_text(manifest_text(spec), encoding="utf-8")


def read_manifest(path: str | Path) -> NoiseSpec:
    values = _parse_lines(Path(path).read_text(encoding="utf-8"))
    # the serializer writes every key exactly once
    required = set(_parse_lines(manifest_text(case_spec(1, 0))))
    missing = required - set(values)
    if missing:
        raise ConfigError(f"manifest missing keys: {sorted(missing)}")
    unknown = set(values) - required
    if unknown:
        raise ConfigError(f"unknown manifest keys: {sorted(unknown)}")
    try:
        return NoiseSpec(
            case_id=_as_int("case", values["case"]),
            seed=_as_int("seed", values["seed"]),
            gaussian_variance=_as_tuple(
                "gaussian_variance", values["gaussian_variance"], _as_float, 2
            ),
            impulse_ratio=_as_tuple("impulse_ratio", values["impulse_ratio"], _as_float, 2),
            stripe_kind=values["stripe_kind"],
            stripe_coverage=_as_tuple("stripe_coverage", values["stripe_coverage"], _as_float, 2),
            stripe_amplitude=_as_float("stripe_amplitude", values["stripe_amplitude"]),
            deadline_band_fraction=_as_float(
                "deadline_band_fraction", values["deadline_band_fraction"]
            ),
            deadline_count=_as_tuple("deadline_count", values["deadline_count"], _as_int, 2),
            deadline_width=_as_tuple("deadline_width", values["deadline_width"], _as_int, 2),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def write_diagnostics_csv(path: str | Path, diag: SolveDiagnostics) -> None:
    """One row per outer iteration: iteration index, relative change, penalty."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "rel_change", "beta"])
        for i, (rel, beta) in enumerate(zip(diag.rel_change, diag.beta), start=1):
            writer.writerow([i, repr(rel), repr(beta)])


def write_metrics_csv(path: str | Path, report: MetricsReport) -> None:
    """Per-band rows plus a final summary row with the three means."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "psnr_db", "ssim", "sam_rad"])
        for i, (p, s) in enumerate(zip(report.psnr_per_band, report.ssim_per_band)):
            writer.writerow([f"band_{i}", repr(float(p)), repr(float(s)), ""])
        writer.writerow(["mean", repr(report.mpsnr), repr(report.mssim), repr(report.msam)])
