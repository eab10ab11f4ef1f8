"""Spans around the calls into each layer of ``hsirestore``, made from outside the program.

A traced job replaces each name in ``WRAPPED`` with a timing wrapper, in the
module namespace where its caller looks the name up, and puts the original
back when the job ends.  No file of the program changes, and untraced jobs run
the unmodified functions.  Spans stay in memory; ``Tracer.dump`` writes them
when the run ends.

The layer of a span is the part of its name before the dot.  A layer's self
time is the summed duration of its spans minus the part covered by their
child spans, so each second of a traced job is owned by exactly one layer
(time outside every span belongs to the benchmark's own code).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# (module of hsirestore whose namespace the caller uses, attribute, span name).
# Names are wrapped where they are looked up at call time: ``solve`` calls
# ``hooi`` through ``hsirestore.solver``, ``hooi`` calls
# ``leading_left_singular_vectors`` through ``hsirestore.tucker``, and
# ``multi_mode_product`` calls ``mode_product`` through ``hsirestore.tensor_ops``.
WRAPPED = (
    ("cli", "main", "cli.main"),
    ("cli", "solve", "solver.solve"),
    ("solver", "solve", "solver.solve"),
    ("solver", "update_x", "solver.update_x"),
    ("solver", "update_z", "solver.update_z"),
    ("solver", "update_f", "solver.update_f"),
    ("solver", "update_b", "solver.update_b"),
    ("solver", "update_s", "solver.update_s"),
    ("solver", "update_multipliers", "solver.update_multipliers"),
    ("solver", "hooi", "tucker.hooi"),
    ("solver", "reconstruct", "tucker.reconstruct"),
    ("tucker", "hosvd_init", "tucker.hosvd_init"),
    ("tucker", "leading_left_singular_vectors", "tucker.svd"),
    ("tucker", "mode_product", "tensor_ops.mode_product"),
    ("tensor_ops", "mode_product", "tensor_ops.mode_product"),
    ("solver", "diff_forward", "priors.diff_forward"),
    ("solver", "diff_adjoint", "priors.diff_adjoint"),
    ("solver", "shrink_gradient_stack", "priors.shrink"),
    ("solver", "soft_threshold", "priors.soft_threshold"),
    ("gradient_fit", "diff_forward", "priors.diff_forward"),
    ("solver", "estimate_p", "gradient_fit.estimate_p"),
    ("gradient_fit", "estimate_p", "gradient_fit.estimate_p"),
    ("gradient_fit", "estimate_noise_sigma", "gradient_fit.noise_sigma"),
    ("gradient_fit", "histogram", "gradient_fit.histogram"),
    ("gradient_fit", "nelder_mead", "gradient_fit.nelder_mead"),
    # the Nelder-Mead objective is a closure; it calls convolve_hist once per evaluation
    ("gradient_fit", "convolve_hist", "gradient_fit.objective_eval"),
    ("cli", "evaluate", "metrics.evaluate"),
    ("metrics", "evaluate", "metrics.evaluate"),
    ("metrics", "ssim", "metrics.ssim"),
    ("noise", "simulate_case", "noise.simulate_case"),
    ("cli", "read_cube", "fileio.read_cube"),
    ("cli", "write_cube", "fileio.write_cube"),
    ("fileio", "read_cube", "fileio.read_cube"),
    ("fileio", "write_cube", "fileio.write_cube"),
)

LAYERS = ("solver", "tucker", "tensor_ops", "priors", "gradient_fit", "metrics", "noise", "fileio", "cli")
SOLVER_UPDATES = ("update_x", "update_b", "update_z", "update_f", "update_s", "update_multipliers")


def svd_gflop(m: np.ndarray, r: int) -> float:
    """Computed, not measured: Golub-Van Loan's R-SVD count for thin U, S and V.

    ``6*L*S**2 + 20*S**3`` flops for an ``L x S`` problem, with ``L``/``S`` the
    long/short side of the unfolding that ``np.linalg.svd`` factors in full.
    """
    long_side, short_side = max(m.shape), min(m.shape)
    return (6.0 * long_side * short_side**2 + 20.0 * short_side**3) / 1e9


def _nonzero_fraction(blocks) -> float:
    return sum(int(np.count_nonzero(b)) for b in blocks) / sum(b.size for b in blocks)


def _p_at_bound(fit) -> int:
    from hsirestore.gradient_fit import FIT_P_BOUNDS

    return sum(p in FIT_P_BOUNDS for p in fit.p_values)


# Facts read from a span's arguments or result, by span name.
NOTES = {
    "solver.solve": lambda args, out: {
        "iterations": out[1].iterations,
        "converged": int(out[1].converged),
    },
    "solver.update_f": lambda args, out: {"nonzero": _nonzero_fraction(out.blocks())},
    "solver.update_s": lambda args, out: {"nonzero": _nonzero_fraction((out,))},
    "tucker.svd": lambda args, out: {"gflop": svd_gflop(args[0], args[1])},
    "gradient_fit.estimate_p": lambda args, out: {"p_at_bound": _p_at_bound(out)},
    "fileio.read_cube": lambda args, out: {"bytes": os.path.getsize(args[0])},
    "fileio.write_cube": lambda args, out: {"bytes": os.path.getsize(args[0])},
}


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    job: int
    name: str
    start: float
    end: float
    note: dict | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects the spans of traced jobs."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._stack: list[int] = []
        self._job: int | None = None

    def _wrap(self, fn, name: str):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
            facts = note(args, out) if note else None
            self.spans.append(Span(span_id, parent, self._job, name, start, end, facts))
            return out

        return traced

    @contextmanager
    def job(self, job_id: int):
        """Trace every wrapped call made inside the block as part of job ``job_id``."""
        originals = []
        try:
            for module_name, attr, name in WRAPPED:
                module = importlib.import_module(f"hsirestore.{module_name}")
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name))
            self._job = job_id
            yield
        finally:
            self._job = None
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def job_spans(self, job_id: int) -> list[Span]:
        return [s for s in self.spans if s.job == job_id]

    def dump(self, path) -> None:
        """Write every span as ``[id, parent, job, name, start_s, end_s, note]``, times from the first span."""
        origin = min((s.start for s in self.spans), default=0.0)
        rows = [
            [s.span_id, s.parent, s.job, s.name, s.start - origin, s.end - origin, s.note]
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["id", "parent", "job", "name", "start_s", "end_s", "note"], "spans": rows}, fh)


def nesting_problems(spans: list[Span]) -> list[str]:
    """Child spans must lie inside their parent, and together never outlast it."""
    by_id = {s.span_id: s for s in spans}
    covered: dict[int, float] = defaultdict(float)
    problems = []
    for s in spans:
        if s.parent is None:
            continue
        parent = by_id.get(s.parent)
        if parent is None:
            problems.append(f"span {s.span_id} ({s.name}) has no recorded parent {s.parent}")
            continue
        if s.start < parent.start or s.end > parent.end or s.duration > parent.duration:
            problems.append(f"span {s.span_id} ({s.name}) is not inside its parent {parent.name}")
        covered[parent.span_id] += s.duration
    for span_id, total in covered.items():
        if total > by_id[span_id].duration:
            problems.append(f"children of span {span_id} ({by_id[span_id].name}) outlast it")
    return problems


# name -> (unit, better) for every per-layer metric, in report order.
PER_LAYER = {
    "solver.solve_s": ("s", "lower"),
    "solver.iterations": ("count", "lower"),
    "solver.converged": ("count", "higher"),
    **{
        f"solver.{u}{kind}_s": ("s", "lower")
        for u in SOLVER_UPDATES
        for kind in ("", "_self")
    },
    "solver.f_nonzero_fraction": ("ratio", "higher"),
    "solver.s_nonzero_fraction": ("ratio", "lower"),
    "tucker.hooi_calls": ("count", "lower"),
    "tucker.hooi_s": ("s", "lower"),
    "tucker.hosvd_init_s": ("s", "lower"),
    "tucker.svd_calls": ("count", "lower"),
    "tucker.svd_s": ("s", "lower"),
    "tucker.sweeps_per_hooi": ("count", "lower"),
    "tucker.svd_gflop": ("GFLOP", "lower"),
    "tensor_ops.mode_product_calls": ("count", "lower"),
    "tensor_ops.mode_product_s": ("s", "lower"),
    "priors.diff_forward_s": ("s", "lower"),
    "priors.diff_adjoint_s": ("s", "lower"),
    "priors.shrink_s": ("s", "lower"),
    "priors.soft_threshold_s": ("s", "lower"),
    "gradient_fit.estimate_p_s": ("s", "lower"),
    "gradient_fit.noise_sigma_s": ("s", "lower"),
    "gradient_fit.histogram_s": ("s", "lower"),
    "gradient_fit.nelder_mead_s": ("s", "lower"),
    "gradient_fit.objective_evals": ("count", "lower"),
    "gradient_fit.p_at_bound": ("count", "lower"),
    "metrics.evaluate_s": ("s", "lower"),
    "metrics.ssim_s": ("s", "lower"),
    "metrics.ssim_calls": ("count", "lower"),
    "noise.simulate_case_s": ("s", "lower"),
    "fileio.read_cube_s": ("s", "lower"),
    "fileio.write_cube_s": ("s", "lower"),
    "fileio.bytes_read": ("bytes", "lower"),
    "fileio.bytes_written": ("bytes", "lower"),
    "cli.main_s": ("s", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.job_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}


def job_layer_metrics(spans: list[Span], job_s: float) -> dict[str, float]:
    """Per-layer totals of one traced job; layers the job never entered read 0."""
    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        total[s.name] += s.duration
        calls[s.name] += 1
        if s.parent is not None:
            covered[s.parent] += s.duration
    self_by_name: dict[str, float] = defaultdict(float)
    self_by_layer: dict[str, float] = defaultdict(float)
    for s in spans:
        own = s.duration - covered[s.span_id]
        self_by_name[s.name] += own
        self_by_layer[s.name.split(".")[0]] += own

    def notes(name: str, key: str) -> list:
        return [s.note[key] for s in spans if s.name == name]

    by_id = {s.span_id: s for s in spans}
    sweep_svds = sum(
        1 for s in spans
        if s.name == "tucker.svd" and s.parent is not None and by_id[s.parent].name == "tucker.hooi"
    )
    solves = [s.note for s in spans if s.name == "solver.solve"]
    f_nonzero = notes("solver.update_f", "nonzero")
    s_nonzero = notes("solver.update_s", "nonzero")
    m = {
        "solver.solve_s": total["solver.solve"],
        "solver.iterations": sum(n["iterations"] for n in solves),
        "solver.converged": sum(n["converged"] for n in solves),
    }
    for u in SOLVER_UPDATES:
        m[f"solver.{u}_s"] = total[f"solver.{u}"]
        m[f"solver.{u}_self_s"] = self_by_name[f"solver.{u}"]
    m["solver.f_nonzero_fraction"] = f_nonzero[-1] if f_nonzero else 0.0
    m["solver.s_nonzero_fraction"] = s_nonzero[-1] if s_nonzero else 0.0
    m.update({
        "tucker.hooi_calls": calls["tucker.hooi"],
        "tucker.hooi_s": total["tucker.hooi"],
        "tucker.hosvd_init_s": total["tucker.hosvd_init"],
        "tucker.svd_calls": calls["tucker.svd"],
        "tucker.svd_s": total["tucker.svd"],
        # each sweep refits all three factors
        "tucker.sweeps_per_hooi": sweep_svds / 3 / calls["tucker.hooi"] if calls["tucker.hooi"] else 0.0,
        "tucker.svd_gflop": sum(notes("tucker.svd", "gflop")),
        "tensor_ops.mode_product_calls": calls["tensor_ops.mode_product"],
        "tensor_ops.mode_product_s": total["tensor_ops.mode_product"],
        "priors.diff_forward_s": total["priors.diff_forward"],
        "priors.diff_adjoint_s": total["priors.diff_adjoint"],
        "priors.shrink_s": total["priors.shrink"],
        "priors.soft_threshold_s": total["priors.soft_threshold"],
        "gradient_fit.estimate_p_s": total["gradient_fit.estimate_p"],
        "gradient_fit.noise_sigma_s": total["gradient_fit.noise_sigma"],
        "gradient_fit.histogram_s": total["gradient_fit.histogram"],
        "gradient_fit.nelder_mead_s": total["gradient_fit.nelder_mead"],
        "gradient_fit.objective_evals": calls["gradient_fit.objective_eval"],
        "gradient_fit.p_at_bound": sum(notes("gradient_fit.estimate_p", "p_at_bound")),
        "metrics.evaluate_s": total["metrics.evaluate"],
        "metrics.ssim_s": total["metrics.ssim"],
        "metrics.ssim_calls": calls["metrics.ssim"],
        "noise.simulate_case_s": total["noise.simulate_case"],
        "fileio.read_cube_s": total["fileio.read_cube"],
        "fileio.write_cube_s": total["fileio.write_cube"],
        "fileio.bytes_read": sum(notes("fileio.read_cube", "bytes")),
        "fileio.bytes_written": sum(notes("fileio.write_cube", "bytes")),
        "cli.main_s": total["cli.main"],
    })
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_by_layer[layer]
    m["trace.job_s"] = job_s
    m["trace.spans"] = len(spans)
    return m


def median_layer_metrics(per_job: list[dict[str, float]], overhead_s: float) -> dict[str, float]:
    """Median over traced jobs of each per-layer metric, plus the tracing overhead."""
    out = {name: statistics.median(m[name] for m in per_job) for name in per_job[0]}
    out["trace.overhead_s"] = overhead_s
    return {name: out[name] for name in PER_LAYER}
