#!/usr/bin/env python3
"""Run the benchmark alternately in a parent and a change checkout and fold the runs into one BENCH file.

Each set runs ``restorebench/run.py --trace 0`` once per workload in each of
the two checkouts, the parent first in even sets and the change first in odd
ones, so that a drift of the host's speed falls on both sides alike.  Each
run's last stdout line is its JSON summary; its metrics and its failure counts
are kept run by run.  The output file holds, per workload and per tree, each
end-to-end metric's median and quartiles with the number of sets beside it,
the count of sets in which the change read better, worse or the same, every
run, the number of CPUs this process may use, the BLAS thread count the
benchmark pinned and found in use, and each checkout's ``git rev-parse HEAD``
and whether it had uncommitted changes.  The script only runs and reads the
benchmark: it writes nothing into either checkout but what ``run.py`` itself
writes there (its ignored ``results`` and ``_work`` directories).

Example, with the parent commit cloned beside the working tree:

    python scripts/bench_record.py ../parent . --workloads case2-48 denoise-64 assess-256 \\
        --sets 10 --seconds 30 --out BENCH_<n>.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

TREES = ("parent", "change")
RECORD = "restorebench/results/{workload}-seed{seed}-trace0.json"


def git_head(tree: Path) -> dict:
    """The checkout's HEAD commit and whether its tracked files differ from it."""
    def git(*args):
        done = subprocess.run(["git", *args], cwd=tree, capture_output=True, text=True, timeout=60)
        return done.stdout.strip() if done.returncode == 0 else None

    head = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain", "--untracked-files=no")
    return {"git_head": head or "unknown (not a git checkout)",
            "uncommitted_changes": None if dirty is None else bool(dirty)}


def run_once(tree: Path, workload: str, seconds: float, seed: int) -> dict:
    """One ``run.py --trace 0`` in ``tree``: its JSON summary and the BLAS threads its record names."""
    argv = [sys.executable, "restorebench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, timeout=4 * seconds + 600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {done.returncode}:\n{done.stderr}")
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((tree / RECORD.format(workload=workload, seed=seed)).read_text(encoding="utf-8"))
    env = record["environment"]
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: m["value"] for name, m in summary["metrics"].items()},
        "blas_threads": {"pinned": env["blas_threads_pinned"], "in_use": env["blas_threads_in_use"]},
    }


def spread(values: list[float]) -> dict:
    """Median, quartiles and count of one metric's values over the sets."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "sets": len(values)}


def pair_counts(parent: dict, change: dict, better: str) -> dict:
    """Sets, read by set index, in which the change read better, worse or the same as the parent."""
    sign = -1.0 if better == "lower" else 1.0
    gaps = [sign * (change[index] - parent[index]) for index in parent if index in change]
    return {"change_better": sum(g > 0 for g in gaps), "change_worse": sum(g < 0 for g in gaps),
            "same": sum(g == 0 for g in gaps)}


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per tree, each end-to-end metric's spread over the sets, and the pair counts."""
    values = {tree: {} for tree in TREES}
    for run in runs:
        for name, value in run["metrics"].items():
            if isinstance(value, (int, float)):
                values[run["tree"]].setdefault(name, {})[run["set"]] = value
    out = {tree: {} for tree in TREES}
    out["pairs"] = {}
    for metric in end_to_end:
        name = metric["name"]
        per_tree = [values[tree].get(name, {}) for tree in TREES]
        for tree, by_set in zip(TREES, per_tree):
            if by_set:
                out[tree][name] = {**spread(list(by_set.values())), "unit": metric["unit"],
                                   "better": metric["better"]}
        if all(per_tree):
            out["pairs"][name] = pair_counts(*per_tree, metric["better"])
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--sets", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=Path, required=True, help="the BENCH file to write")
    args = parser.parse_args()

    trees = dict(zip(TREES, (args.parent, args.change)))
    end_to_end = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    runs = {workload: [] for workload in args.workloads}
    blas = set()
    for index in range(args.sets):
        order = TREES if index % 2 == 0 else TREES[::-1]
        for workload in args.workloads:
            for tree in order:
                run = run_once(trees[tree], workload, args.seconds, args.seed)
                blas.add(json.dumps(run.pop("blas_threads"), sort_keys=True))
                runs[workload].append({"set": index, "tree": tree, **run})
                print(f"set {index} {workload} {tree}: {run['metrics']}", flush=True)

    bench = {
        "command": f"restorebench/run.py --trace 0 --seconds {args.seconds:g} --seed {args.seed}",
        "sets": args.sets,
        "order": "parent first in even sets, change first in odd sets",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": [json.loads(b) for b in sorted(blas)],
        "trees": {tree: git_head(path) for tree, path in trees.items()},
        "workloads": {
            workload: {**summarize(workload_runs, end_to_end), "runs": workload_runs}
            for workload, workload_runs in runs.items()
        },
    }
    args.out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
