"""The package root's exports and the names the layer tracer patches."""

import importlib
import importlib.util
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
