"""Command-line surface: simulate, denoise, evaluate, fit-p.

Exit codes: 0 success, 1 runtime/I-O failure (one-line diagnostic on
stderr), 2 usage error.

``fit-p``, and ``denoise`` when it fits the exponents, end with the line
``p_on_bound=<directions>``: the directions (``h``, ``w``, ``p``) whose
fitted exponent sits on a bound of ``FIT_P_BOUNDS``, comma-separated, or
``none``.  A fit on its bound is a clamp, not a measurement.  A cube that is
constant along a direction has no gradients to fit there: the fit fails, and
the command exits 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .fileio import (
    ConfigError,
    CubeFileError,
    parse_solver_config,
    read_cube,
    record_text,
    write_cube,
    write_diagnostics_csv,
    write_metrics_csv,
)
from .gradient_fit import FIT_P_BOUNDS, estimate_p
from .metrics import evaluate
from .noise import case_spec, simulate_case
from .solver import SolverConfig, solve


def _cmd_simulate(args: argparse.Namespace) -> int:
    # a bad case or seed is reported before the truth cube is read
    spec = case_spec(args.case, args.seed)
    truth = read_cube(args.truth, normalize=args.normalize)
    noisy, components = simulate_case(truth, spec)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # the float32 cast writes the boolean masks as 0.0/1.0
    for key, cube in {"noisy": noisy, **components}.items():
        write_cube(out_dir / f"{key}.cube", cube)
    (out_dir / "manifest.txt").write_text(record_text(spec), encoding="utf-8")
    print(f"wrote noisy cube and components to {out_dir}")
    return 0


def _cmd_denoise(args: argparse.Namespace) -> int:
    y = read_cube(args.input, normalize=args.normalize)
    cfg = (parse_solver_config(Path(args.config).read_text(encoding="utf-8"))
           if args.config else SolverConfig())
    decomposition, diag = solve(y, cfg)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for field in dataclasses.fields(decomposition):
        write_cube(out_dir / f"{field.name}.cube", getattr(decomposition, field.name))
    write_diagnostics_csv(out_dir / "diagnostics.csv", diag)
    (out_dir / "config.txt").write_text(record_text(cfg.resolve_ranks(y.shape)), encoding="utf-8")
    status = "converged" if diag.converged else "hit max_iter"
    print(
        f"{status} after {diag.iterations} iterations in {diag.wall_time_s:.1f}s; "
        f"p=({diag.p_values[0]:.3f}, {diag.p_values[1]:.3f}, {diag.p_values[2]:.3f})"
    )
    # p_override sets the exponents; only a fitted one can sit on a bound of the fit
    if diag.sigmas is not None:
        print(_p_on_bound_line(diag.p_values))
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    ref = read_cube(args.ref)
    test = read_cube(args.test)
    report = evaluate(ref, test)
    write_metrics_csv(args.out, report)
    print(f"mpsnr={report.mpsnr:.4f} mssim={report.mssim:.6f} msam={report.msam:.6f}")
    return 0


def _cmd_fit_p(args: argparse.Namespace) -> int:
    y = read_cube(args.input, normalize=args.normalize)
    fit = estimate_p(y)
    for key, values in (("p", fit.p_values), ("sigma", fit.sigmas), ("k", fit.ks),
                        ("residual", fit.residuals)):
        for direction, value in zip("hwp", values):
            print(f"{key}_{direction}={value!r}")
    print(_p_on_bound_line(fit.p_values))
    return 0


def _p_on_bound_line(p_values) -> str:
    on_bound = [direction for direction, p in zip("hwp", p_values) if p in FIT_P_BOUNDS]
    return f"p_on_bound={','.join(on_bound) or 'none'}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsirestore",
        description="Mixed-noise removal and destriping for hyperspectral cubes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="apply one of the predefined noise cases")
    p_sim.add_argument("--truth", required=True, help="clean input cube")
    p_sim.add_argument("--case", type=int, required=True, choices=range(1, 7))
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--out-dir", required=True)
    p_sim.add_argument("--normalize", action="store_true", help="min-max normalize bands first")
    p_sim.set_defaults(func=_cmd_simulate)

    p_den = sub.add_parser("denoise", help="decompose a noisy cube")
    p_den.add_argument("--in", dest="input", required=True, help="noisy input cube")
    p_den.add_argument("--config", help="key=value solver config file")
    p_den.add_argument("--out-dir", required=True)
    p_den.add_argument("--normalize", action="store_true", help="min-max normalize bands first")
    p_den.set_defaults(func=_cmd_denoise)

    p_eval = sub.add_parser("evaluate", help="compare a test cube against a reference")
    p_eval.add_argument("--ref", required=True)
    p_eval.add_argument("--test", required=True)
    p_eval.add_argument("--out", required=True, help="CSV report path")
    p_eval.set_defaults(func=_cmd_evaluate)

    p_fit = sub.add_parser("fit-p", help="print fitted gradient exponents")
    p_fit.add_argument("--in", dest="input", required=True)
    p_fit.add_argument("--normalize", action="store_true", help="min-max normalize bands first")
    p_fit.set_defaults(func=_cmd_fit_p)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CubeFileError, ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
