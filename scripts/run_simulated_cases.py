#!/usr/bin/env python3
"""Run the simulated noise cases on a synthetic cube and tabulate restoration and stripe metrics.

Each case is solved twice, with the stripe term and without it.  A row gives
the noisy and restored MPSNR/MSSIM, the restored MSAM, the MPSNR/MSSIM without
the stripe term and the gap in dB, three errors of the fitted stripe term
``b``, and the iteration count.  ``prof(a)`` is the height mean of ``a``,
centred across the width in each band, the model that the stripe term fits:

* ``b err`` is ||b - stripes|| / ||stripes||, against the simulated stripe field;
* ``C err`` is ||b - C|| / ||C|| for the column-constant corruption
  ``C = prof(stripes + where(dead, -(truth + gaussian + stripes), 0))``, the
  stripes plus the dead lines' displacement;
* ``floor`` is ||prof(gaussian)|| / ||C||, the Gaussian noise's column means,
  which no height-constant estimator can remove.

An error is ``nan`` when the case has nothing to compare against.

Example:

    python scripts/run_simulated_cases.py --cases 2 3 4 5 6 --stripe-amplitude 0.5
"""

import argparse
import sys
from dataclasses import replace

import numpy as np

from hsirestore import (
    SolverConfig,
    TuckerRanks,
    case_spec,
    evaluate,
    low_rank_cube,
    simulate_case,
    solve,
)
from hsirestore.tensor_ops import fro_norm


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, nargs=3, default=(48, 48, 16),
                        metavar=("H", "W", "P"))
    parser.add_argument("--truth-ranks", type=int, nargs=3, default=(5, 5, 3))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--cases", type=int, nargs="+", default=[1, 2, 3, 4, 5, 6])
    parser.add_argument("--ranks-x", type=int, nargs=3, default=None)
    parser.add_argument("--stripe-amplitude", type=float, default=0.25)
    return parser.parse_args()


def prof(a: np.ndarray) -> np.ndarray:
    mean = a.mean(axis=0)
    return mean - mean.mean(axis=0)


def ratio(num: np.ndarray, den: np.ndarray) -> float:
    return fro_norm(num) / fro_norm(den) if den.any() else float("nan")


def main() -> int:
    args = parse_args()
    truth = low_rank_cube(tuple(args.size), TuckerRanks(*args.truth_ranks), seed=args.seed)
    p = truth.shape[2]
    cfg = SolverConfig(
        ranks_x=TuckerRanks(*args.ranks_x) if args.ranks_x else TuckerRanks(
            max(1, args.truth_ranks[0] + 3), max(1, args.truth_ranks[1] + 3),
            min(p, args.truth_ranks[2] + 2)),
    )
    resolved = cfg.resolve_ranks(truth.shape)
    print(f"truth {truth.shape}, solver ranks_x={resolved.ranks_x.as_tuple()}, "
          f"ranks_b={resolved.ranks_b.as_tuple()}")
    header = (f"{'case':>4} | {'noisy MPSNR':>11} {'MSSIM':>6} |"
              f" {'clean MPSNR':>11} {'MSSIM':>6} {'MSAM':>6} |"
              f" {'no-stripe MPSNR':>15} {'MSSIM':>6} {'gap dB':>7} |"
              f" {'b err':>6} {'C err':>6} {'floor':>6} | iters")
    print(header)
    print("-" * len(header))
    for case_id in args.cases:
        spec = case_spec(case_id, seed=args.seed, stripe_amplitude=args.stripe_amplitude)
        noisy, components = simulate_case(truth, spec)
        before = evaluate(truth, noisy)
        dec, diag = solve(noisy, cfg)
        after = evaluate(truth, dec.clean)
        ablated = evaluate(truth, solve(noisy, replace(cfg, stripe_enabled=False))[0].clean)
        stripes, gaussian = components["stripe_field"], components["gaussian"]
        displacement = np.where(components["deadline_mask"], -(truth + gaussian + stripes), 0.0)
        column = prof(stripes + displacement)
        flag = "" if diag.converged else " (hit max_iter)"
        print(
            f"{case_id:>4} | {before.mpsnr:>11.2f} {before.mssim:>6.3f} |"
            f" {after.mpsnr:>11.2f} {after.mssim:>6.3f} {after.msam:>6.3f} |"
            f" {ablated.mpsnr:>15.2f} {ablated.mssim:>6.3f} {after.mpsnr - ablated.mpsnr:>+7.2f} |"
            f" {ratio(dec.stripes - stripes, stripes):>6.3f}"
            f" {ratio(dec.stripes[0] - column, column):>6.3f}"
            f" {ratio(prof(gaussian), column):>6.3f} |"
            f" {diag.iterations}{flag}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
