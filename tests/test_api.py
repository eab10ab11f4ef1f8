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


def run_probe(probe: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``probe`` in a fresh interpreter that imports the package from this checkout."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-c", probe, *args], env=env, capture_output=True, text=True,
        timeout=300,
    )


# scipy is a test and benchmark dependency only: importing any part of it
# cost every CLI call about 0.35 s, and scipy.optimize alone added 0.38 s more
def test_cli_import_loads_no_heavy_scipy_module():
    probe = (
        "import sys, hsirestore, hsirestore.cli\n"
        "print(','.join(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    result = run_probe(probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""


# every command runs end to end with any scipy import made to fail
BLOCKED_SCIPY_PROBE = """
import importlib.abc, sys
from pathlib import Path


class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"blocked import of {name}")
        return None


sys.meta_path.insert(0, BlockScipy())
from hsirestore.cli import main
from hsirestore.fileio import write_cube
from hsirestore.synthetic import low_rank_cube
from hsirestore.tucker import TuckerRanks

work = Path(sys.argv[1])
write_cube(work / "truth.cube", low_rank_cube((16, 16, 4), TuckerRanks(3, 3, 2), seed=3))
(work / "config.txt").write_text("ranks_x=4,4,2\\nranks_b=1,8,4\\nmax_iter=3\\n")
commands = [
    ["simulate", "--truth", str(work / "truth.cube"), "--case", "2", "--seed", "1",
     "--out-dir", str(work / "sim")],
    ["denoise", "--in", str(work / "sim" / "noisy.cube"), "--config", str(work / "config.txt"),
     "--out-dir", str(work / "out")],
    ["fit-p", "--in", str(work / "sim" / "noisy.cube")],
    ["evaluate", "--ref", str(work / "truth.cube"), "--test", str(work / "out" / "clean.cube"),
     "--out", str(work / "metrics.csv")],
]
for argv in commands:
    assert main(argv) == 0, argv
assert not [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
print("all commands ran")
"""


def test_every_command_runs_with_scipy_imports_blocked(tmp_path):
    result = run_probe(BLOCKED_SCIPY_PROBE, str(tmp_path))
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().splitlines()[-1] == "all commands ran"
    assert (tmp_path / "metrics.csv").exists()
