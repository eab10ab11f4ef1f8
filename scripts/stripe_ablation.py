#!/usr/bin/env python3
"""Measure how much the separate stripe term contributes per noise case.

Solves each case twice, once with the stripe component and once with it
disabled, and prints the MPSNR/MSSIM gap and how far the fitted stripe term
lies from the simulated stripe field, as ||b - stripes|| / ||stripes||.
"""

import argparse
import sys
from dataclasses import replace

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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, nargs=3, default=(48, 48, 16),
                        metavar=("H", "W", "P"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--cases", type=int, nargs="+", default=[2, 3, 4, 5, 6])
    parser.add_argument("--stripe-amplitude", type=float, default=0.5)
    args = parser.parse_args()

    truth = low_rank_cube(tuple(args.size), TuckerRanks(5, 5, 3), seed=args.seed)
    cfg = SolverConfig(ranks_x=TuckerRanks(8, 8, min(truth.shape[2], 5)))
    print(f"{'case':>4} | {'with stripes':>17} | {'without':>17} | {'gap dB':>7} | {'b err':>6}")
    for case_id in args.cases:
        spec = case_spec(case_id, seed=args.seed, stripe_amplitude=args.stripe_amplitude)
        noisy, components = simulate_case(truth, spec)
        full, _ = solve(noisy, cfg)
        ablated, _ = solve(noisy, replace(cfg, stripe_enabled=False))
        m_full = evaluate(truth, full.clean)
        m_abl = evaluate(truth, ablated.clean)
        stripes = components["stripe_field"]
        # case 1 has no stripes, so there is nothing to compare against
        b_err = fro_norm(full.stripes - stripes) / fro_norm(stripes) if stripes.any() else float("nan")
        print(
            f"{case_id:>4} | {m_full.mpsnr:>8.2f} / {m_full.mssim:>6.3f} |"
            f" {m_abl.mpsnr:>8.2f} / {m_abl.mssim:>6.3f} |"
            f" {m_full.mpsnr - m_abl.mpsnr:>+7.2f} | {b_err:>6.3f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
