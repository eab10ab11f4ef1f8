#!/usr/bin/env python3
"""Run the six simulated noise cases on a synthetic cube and tabulate metrics.

Example:

    python scripts/run_simulated_cases.py --size 48 48 16 --seed 7 --cases 1 2 3
"""

import argparse
import sys

from hsirestore import (
    SolverConfig,
    TuckerRanks,
    case_spec,
    evaluate,
    low_rank_cube,
    simulate_case,
    solve,
)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, nargs=3, default=(48, 48, 16),
                        metavar=("H", "W", "P"))
    parser.add_argument("--truth-ranks", type=int, nargs=3, default=(5, 5, 3))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--cases", type=int, nargs="+", default=[1, 2, 3, 4, 5, 6])
    parser.add_argument("--ranks-x", type=int, nargs=3, default=None)
    parser.add_argument("--ranks-b", type=int, nargs=3, default=None)
    parser.add_argument("--stripe-amplitude", type=float, default=0.25)
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    truth = low_rank_cube(tuple(args.size), TuckerRanks(*args.truth_ranks), seed=args.seed)
    p = truth.shape[2]
    cfg = SolverConfig(
        ranks_x=TuckerRanks(*args.ranks_x) if args.ranks_x else TuckerRanks(
            max(1, args.truth_ranks[0] + 3), max(1, args.truth_ranks[1] + 3),
            min(p, args.truth_ranks[2] + 2)),
        ranks_b=TuckerRanks(*args.ranks_b) if args.ranks_b else None,
    )
    resolved = cfg.resolve_ranks(truth.shape)
    print(f"truth {truth.shape}, solver ranks_x={resolved.ranks_x.as_tuple()}, "
          f"ranks_b={resolved.ranks_b.as_tuple()}")
    header = f"{'case':>4} | {'noisy MPSNR':>11} {'MSSIM':>6} | {'clean MPSNR':>11} {'MSSIM':>6} {'MSAM':>6} | iters"
    print(header)
    print("-" * len(header))
    for case_id in args.cases:
        spec = case_spec(case_id, seed=args.seed, stripe_amplitude=args.stripe_amplitude)
        noisy, _ = simulate_case(truth, spec)
        before = evaluate(truth, noisy)
        dec, diag = solve(noisy, cfg)
        after = evaluate(truth, dec.clean)
        flag = "" if diag.converged else " (hit max_iter)"
        print(
            f"{case_id:>4} | {before.mpsnr:>11.2f} {before.mssim:>6.3f} |"
            f" {after.mpsnr:>11.2f} {after.mssim:>6.3f} {after.msam:>6.3f} |"
            f" {diag.iterations}{flag}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
