#!/usr/bin/env python3
"""Print the tracemalloc peak of each call on the assessment path, above its inputs.

Simulates noise case 5 on a low-rank cube, writes it, reads it back
normalized, fits the gradient exponents and scores the noisy cube, as the
``assess-256`` benchmark workload does, and prints for each call the largest
memory it held at once beyond the arrays it was given (its outputs included),
in MiB and in cubes of ``--size`` float64 entries.  The benchmark's
``peak_rss_mb`` is one number per process; this names the call that sets it.

Example:

    python scripts/peak_memory.py --size 256 256 64
"""

import argparse
import sys
import tempfile
import tracemalloc
from pathlib import Path

from hsirestore import TuckerRanks, case_spec, evaluate, low_rank_cube, simulate_case
from hsirestore.fileio import read_cube, write_cube
from hsirestore.gradient_fit import estimate_p


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

    print(f"{'call':<26} | {'peak MiB':>9} | {'cubes':>6}")
    for name, peak in peaks.items():
        print(f"{name:<26} | {peak / 2**20:>9.1f} | {peak / truth.nbytes:>6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
