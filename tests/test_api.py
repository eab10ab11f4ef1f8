"""The package root's exports and the names the layer tracer patches."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import hsirestore

ROOT_NAMES = [
    "SolverConfig",
    "TuckerRanks",
    "case_spec",
    "evaluate",
    "low_rank_cube",
    "normalize_bands",
    "simulate_case",
    "solve",
]


def test_package_root_exports_the_library_names():
    assert sorted(hsirestore.__all__) == ROOT_NAMES
    for name in ROOT_NAMES:
        assert getattr(hsirestore, name) is not None


def test_every_traced_name_resolves(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "restorebench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("restorebench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while the file runs
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPPED
    for module_name, attr, _ in tracing.WRAPPED:
        module = importlib.import_module(f"hsirestore.{module_name}")
        assert callable(getattr(module, attr, None)), f"hsirestore.{module_name}.{attr}"


# each of these costs the CLI start-up time and none is needed: scipy.optimize
# alone added 0.38 s, scipy.linalg adds about 0.06 s and scipy.fft 0.035 s
HEAVY_MODULES = ("scipy.fft", "scipy.linalg", "scipy.optimize", "scipy.sparse")


def test_cli_import_loads_no_heavy_scipy_module():
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import sys, hsirestore.cli\n"
        f"print(','.join(m for m in {HEAVY_MODULES!r} if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == ""
