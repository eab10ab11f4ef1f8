"""Smoke tests: each experiment script runs a tiny case end to end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, header",
    [
        (
            "run_simulated_cases.py",
            ["--size", "12", "12", "6", "--truth-ranks", "2", "2", "2", "--cases", "2"],
            "case | noisy MPSNR  MSSIM | clean MPSNR  MSSIM   MSAM | iters",
        ),
        (
            "stripe_ablation.py",
            ["--size", "12", "12", "6", "--cases", "2"],
            "case |      with stripes |           without |  gap dB",
        ),
    ],
)
def test_script_runs_and_prints_its_table(script, args, header):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert header in done.stdout.splitlines()
    # one table row for the one case asked for
    assert any(line.split("|")[0].strip() == "2" for line in done.stdout.splitlines())
