"""File formats: the binary cube container, key=value configs, and CSV reports.

Cube container layout (little endian):

* 8 bytes magic ``HSICUBE1``
* three uint32: height, width, bands
* ``h*w*p`` float32 values, mode-1 (height index) varying fastest

The payload stays height-fastest on disk, while cubes in memory are C-ordered
(band index fastest): :func:`read_cube` returns a C-ordered float64 cube and
:func:`write_cube` accepts any layout.  Both stream the payload in blocks of
whole bands, about :data:`CUBE_BLOCK_ENTRIES` values each, through one reused
float32 buffer, so neither holds a second copy of the cube.

Configs and manifests are plain UTF-8 ``key=value`` lines.  In a config ``#``
starts a comment and unknown keys are rejected so typos fail loudly; a manifest
is only written, as the complete record of a simulated degradation.
"""

from __future__ import annotations

import csv
import os
import struct
from pathlib import Path

import numpy as np

from .metrics import MetricsReport
from .noise import NoiseSpec
from .solver import SolveDiagnostics, SolverConfig
from .tucker import TuckerRanks

MAGIC = b"HSICUBE1"
_HEADER = struct.Struct("<8sIII")
# the payload is converted in blocks of whole bands holding about this many values
CUBE_BLOCK_ENTRIES = 2**20


class CubeFileError(Exception):
    """Malformed or unreadable cube container."""


class ConfigError(Exception):
    """Malformed or invalid key=value config."""


def _band_block_buffer(h: int, w: int, p: int) -> np.ndarray:
    """A float32 buffer for a block of whole bands, laid out as the file stores them."""
    bands = max(1, CUBE_BLOCK_ENTRIES // (h * w))
    return np.empty((min(bands, p), w, h), dtype="<f4")


def write_cube(path: str | Path, cube: np.ndarray) -> None:
    """Write a cube as float32; values must be finite in float32."""
    cube = np.asarray(cube)
    if cube.ndim != 3 or cube.size == 0:
        raise CubeFileError(f"expected a non-empty 3-D cube, got shape {cube.shape}")
    h, w, p = cube.shape
    # the cast to float32 is monotonic, so it is finite everywhere when it is
    # at the extremes, and NaN passes through min and max; the check comes
    # before the file is opened, so a rejected cube leaves the path alone
    with np.errstate(over="ignore", invalid="ignore"):
        extremes = np.array([cube.min(), cube.max()]).astype("<f4")
    if not np.all(np.isfinite(extremes)):
        raise CubeFileError("cube contains values that are not finite in float32")
    buf = _band_block_buffer(h, w, p)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, h, w, p))
        for b in range(0, p, len(buf)):
            block = buf[: p - b]
            # the C order of the reversed axes is the height-fastest order of the file
            block[...] = cube[:, :, b : b + len(block)].transpose(2, 1, 0)
            fh.write(block.data)


def read_cube(path: str | Path, normalize: bool = False) -> np.ndarray:
    """Read a cube container; optionally min-max normalize each band to [0, 1]."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise CubeFileError(f"{path}: truncated header ({len(head)} bytes)")
        magic, h, w, p = _HEADER.unpack(head)
        if magic != MAGIC:
            raise CubeFileError(f"{path}: bad magic {magic!r}")
        if h == 0 or w == 0 or p == 0:
            raise CubeFileError(f"{path}: zero dimension in header ({h}, {w}, {p})")
        expected = _HEADER.size + 4 * h * w * p
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise CubeFileError(
                f"{path}: payload length mismatch, expected {expected} bytes, got {size}"
            )
        cube = np.empty((h, w, p))
        buf = _band_block_buffer(h, w, p)
        for b in range(0, p, len(buf)):
            block = buf[: p - b]
            got = fh.readinto(block.data)
            if got != block.nbytes:
                # the file shrank after its size was taken
                got += _HEADER.size + 4 * h * w * b
                raise CubeFileError(
                    f"{path}: payload length mismatch, expected {expected} bytes, got {got}"
                )
            if not np.all(np.isfinite(block)):
                raise CubeFileError(f"{path}: payload contains non-finite values")
            cube[:, :, b : b + len(block)] = block.transpose(2, 1, 0)
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
    for key in ("lambda_tv", "lambda_sparse", "beta0", "beta_growth", "epsilon"):
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
        for key in ("ranks_x", "ranks_b"):
            if key in values and values[key].lower() != "auto":
                kwargs[key] = TuckerRanks(*_as_tuple(key, values[key], _as_int, 3))
        return SolverConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_solver_config(path: str | Path) -> SolverConfig:
    return parse_solver_config(Path(path).read_text(encoding="utf-8"))


def solver_config_text(cfg: SolverConfig) -> str:
    """Serialize a resolved config back to key=value lines, one per field in field order."""
    # a numpy scalar's repr, such as ``np.float64(0.003)``, would not parse back
    lines = [
        f"lambda_tv={float(cfg.lambda_tv)!r}",
        f"lambda_sparse={float(cfg.lambda_sparse)!r}",
        f"beta0={float(cfg.beta0)!r}",
        f"beta_growth={float(cfg.beta_growth)!r}",
        "ranks_x=" + ("auto" if cfg.ranks_x is None else ",".join(map(str, cfg.ranks_x.as_tuple()))),
        "ranks_b=" + ("auto" if cfg.ranks_b is None else ",".join(map(str, cfg.ranks_b.as_tuple()))),
        f"epsilon={float(cfg.epsilon)!r}",
        f"max_iter={cfg.max_iter}",
        "p_override=" + ("auto" if cfg.p_override is None else ",".join(repr(float(p)) for p in cfg.p_override)),
        f"stripe_enabled={'true' if cfg.stripe_enabled else 'false'}",
    ]
    return "\n".join(lines) + "\n"


def write_manifest(path: str | Path, spec: NoiseSpec) -> None:
    """Record a noise spec completely, one key=value line per field."""
    lines = [
        f"case={spec.case_id}",
        f"seed={spec.seed}",
        f"gaussian_variance={spec.gaussian_variance[0]!r},{spec.gaussian_variance[1]!r}",
        f"impulse_ratio={spec.impulse_ratio[0]!r},{spec.impulse_ratio[1]!r}",
        f"stripe_kind={spec.stripe_kind}",
        f"stripe_coverage={spec.stripe_coverage[0]!r},{spec.stripe_coverage[1]!r}",
        f"stripe_amplitude={spec.stripe_amplitude!r}",
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


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
