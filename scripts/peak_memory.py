#!/usr/bin/env python3
"""Print the tracemalloc peak of each call on the assessment path and of the solve, above its inputs.

Simulates noise case 5 on a low-rank cube, writes it, reads it back
normalized, fits the gradient exponents and scores the noisy cube, as the
``assess-256`` benchmark workload does, and prints for each call the largest
memory it held at once beyond the arrays it was given (its outputs included),
in MiB and in cubes of ``--size`` float64 entries.  The benchmark's
``peak_rss_mb`` is one number per process; this names the call that sets it.
A row then runs the ``hsirestore simulate`` command for case 5 on the truth
cube, which reads it, simulates the noise and writes the noisy cube and its
four components.  The last two rows run :func:`hsirestore.solve` on a case-2
cube of the same truth for :data:`SOLVE_ITERATIONS` iterations, at the
fitted exponents and at ``p = 1``, each after a one-iteration solve that
makes what a process makes once (the helper thread, the Fourier multipliers'
cache).  ``tests/test_threads.py`` pins these two peaks at 64x64x32.

Example:

    python scripts/peak_memory.py --size 256 256 64
"""

import argparse
import contextlib
import io
import sys
import tempfile
import tracemalloc
from pathlib import Path

from hsirestore import SolverConfig, TuckerRanks, case_spec, evaluate, low_rank_cube, simulate_case, solve
from hsirestore.cli import main as cli_main
from hsirestore.fileio import read_cube, write_cube
from hsirestore.gradient_fit import estimate_p

# iterations of each traced solve, as in the tests' pins; at 64x64x32 the full
# 100-iteration solve peaked within 0.3 cube of them
SOLVE_ITERATIONS = 5


def traced_peak(call, *args, **kwargs):
    """``call``'s result and the peak bytes it allocated and held at once."""
    tracemalloc.start()
    try:
        result = call(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, nargs=3, default=(256, 256, 64),
                        metavar=("H", "W", "P"))
    args = parser.parse_args()

    truth = low_rank_cube(tuple(args.size), TuckerRanks(5, 5, 3), seed=7)
    spec = case_spec(5, seed=7, gaussian_variance=(0.1, 0.1), impulse_ratio=(0.1, 0.1))
    peaks = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "noisy.cube"
        (noisy, _), peaks["simulate_case"] = traced_peak(simulate_case, truth, spec)
        _, peaks["write_cube"] = traced_peak(write_cube, path, noisy)
        y, peaks["read_cube(normalize=True)"] = traced_peak(read_cube, path, normalize=True)
    _, peaks["estimate_p"] = traced_peak(estimate_p, y)
    _, peaks["evaluate"] = traced_peak(evaluate, truth, noisy)
    with tempfile.TemporaryDirectory() as tmp:
        truth_path = Path(tmp) / "truth.cube"
        write_cube(truth_path, truth)
        argv = ["simulate", "--truth", str(truth_path), "--case", "5", "--seed", "7",
                "--out-dir", tmp]
        with contextlib.redirect_stdout(io.StringIO()):
            rc, peaks["cli simulate"] = traced_peak(cli_main, argv)
    if rc != 0:
        print(f"hsirestore simulate exited {rc}", file=sys.stderr)
        return 1
    case2, _ = simulate_case(truth, case_spec(2, seed=7))
    for name, p_override in (("solve(fitted p)", None), ("solve(p=1)", (1.0, 1.0, 1.0))):
        solve(case2, SolverConfig(max_iter=1, p_override=p_override))
        cfg = SolverConfig(max_iter=SOLVE_ITERATIONS, p_override=p_override)
        _, peaks[name] = traced_peak(solve, case2, cfg)

    print(f"{'call':<26} | {'peak MiB':>9} | {'cubes':>6}")
    for name, peak in peaks.items():
        print(f"{name:<26} | {peak / 2**20:>9.1f} | {peak / truth.nbytes:>6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
