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

Configs and manifests are plain UTF-8 ``key=value`` lines, one per dataclass
field in field order.  Each value is written as its declared type asks:
floats as their ``repr``, booleans as ``true``/``false``, tuples and
dataclasses as comma-separated entries, and ``None`` as ``auto``.  In a config
``#`` starts a comment anywhere on a line and unknown keys are rejected so
typos fail loudly; a manifest is only written, as the complete record of a
simulated degradation.
"""

from __future__ import annotations

import csv
import dataclasses
import os
import struct
import typing
from pathlib import Path

import numpy as np

from .metrics import MetricsReport
from .solver import SolveDiagnostics, SolverConfig

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
        # no value holds a ``#``, so the first one starts a comment
        stripped = line.partition("#")[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {stripped!r}")
        key, _, value = map(str.strip, stripped.partition("="))
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def _field_types(cls) -> dict[str, type]:
    """The declared type of each field of a dataclass, in field order."""
    hints = typing.get_type_hints(cls)
    return {field.name: hints[field.name] for field in dataclasses.fields(cls)}


def _members(kind) -> tuple:
    """The entry types of a tuple type or a dataclass; ``(X, NoneType)`` for ``X | None``."""
    return typing.get_args(kind) or tuple(_field_types(kind).values())


def _format_value(value, kind) -> str:
    """A value of declared type ``kind`` as a key=value line holds it."""
    if value is None:
        return "auto"
    if kind is bool:
        return "true" if value else "false"
    if kind is float:
        # a numpy scalar's repr, such as ``np.float64(0.003)``, would not parse back
        return repr(float(value))
    if kind in (int, str):
        return str(value)
    members = _members(kind)
    if type(None) in members:
        return _format_value(value, members[0])
    if dataclasses.is_dataclass(kind):
        value = dataclasses.astuple(value)
    return ",".join(map(_format_value, value, members))


_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_value(key: str, raw: str, kind):
    """The value of the field ``key``, of declared type ``kind``, that ``raw`` holds."""
    try:
        if kind is bool:
            return _BOOLS[raw.lower()]
        if kind in (float, int, str):
            return kind(raw)
    except (KeyError, ValueError) as exc:
        expected = {bool: "true/false", float: "a number", int: "an integer"}[kind]
        raise ConfigError(f"{key}: expected {expected}, got {raw!r}") from exc
    members = _members(kind)
    if type(None) in members:
        return None if raw.lower() == "auto" else _parse_value(key, raw, members[0])
    parts = [part.strip() for part in raw.split(",")]
    if len(parts) != len(members):
        raise ConfigError(f"{key}: expected {len(members)} comma-separated values, got {raw!r}")
    values = tuple(_parse_value(key, part, member) for part, member in zip(parts, members))
    return kind(*values) if dataclasses.is_dataclass(kind) else values


def record_text(record) -> str:
    """A dataclass as key=value lines, one per field in field order."""
    fields = _field_types(type(record)).items()
    return "".join(f"{key}={_format_value(getattr(record, key), kind)}\n" for key, kind in fields)


def parse_solver_config(text: str) -> SolverConfig:
    """Build a :class:`SolverConfig` from key=value text; unknown keys are rejected."""
    values, kinds = _parse_lines(text), _field_types(SolverConfig)
    unknown = values.keys() - kinds
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    # the value objects check their own ranges and raise ValueError
    try:
        return SolverConfig(**{key: _parse_value(key, raw, kinds[key]) for key, raw in values.items()})
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
