#!/usr/bin/env python3
"""Run the benchmark alternately in a parent and a change checkout and fold the runs into one BENCH file.

Each set runs ``restorebench/run.py --trace 0`` once per workload in each of
the two checkouts, the parent first in even sets and the change first in odd
ones, so that a drift of the host's speed falls on both sides alike.  Each
run's last stdout line is its JSON summary; its metrics and its failure counts
are kept run by run, with the vCPU steal the host took across the run (from
the ``cpu`` line of ``/proc/stat``), and the reference MPSNRs of the input and
the restored MPSNR's margin over the constant-mean estimate, both from the
record ``run.py`` writes.  The output file holds, per workload and per tree,
each end-to-end metric's median and quartiles with the number of sets beside
it, the count of sets in which the change read better, worse or the same, and
per metric one reading:

* ``gain``: the change read better in at least nine tenths of at least ten
  pairs, and its median is better than the parent's by more than the parent's
  interquartile range;
* ``regression``: the change's median is worse than the parent's by more than
  the metric's ``BENCHMARK.json`` bound (a fraction of the parent's median);
* ``unresolved``: the parent's interquartile range is wider than that bound;
* ``no change`` otherwise.

Per workload it also holds one digest per tree: sha256 over the sorted
``Checked.outputs`` (each key, then its bytes) of one ``Workload.check(
Workload.run())`` at the same seed, run in a fresh process of that checkout,
with its own ``restorebench/workloads.py``, on one BLAS thread, and whether
the two digests are equal, so that a change that claims byte-identical
outputs shows it.

It also holds every run, the number of CPUs this process may use, the BLAS
thread count the benchmark pinned and found in use, and each checkout's ``git
rev-parse HEAD`` and whether it had uncommitted changes.  The script only runs
and reads the benchmark: it writes nothing into either checkout but what
``run.py`` itself writes there (its ignored ``results`` and ``_work``
directories).

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
# a gain needs this many pairs, and the change better in this share of them
GAIN_PAIRS = 10
GAIN_SHARE = 0.9
# one job of the workload argv[2] at the seed argv[3], run and checked with the
# checkout argv[1]'s workloads and package; prints the sha256 of its outputs
DIGEST_PROBE = """\
import hashlib, sys, tempfile
from pathlib import Path
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/restorebench"]
import hsirestore
from workloads import WORKLOADS
assert Path(hsirestore.__file__).resolve().parent == Path(sys.argv[1]).resolve() / "src" / "hsirestore", hsirestore.__file__
with tempfile.TemporaryDirectory() as workdir:
    workload = WORKLOADS[sys.argv[2]](int(sys.argv[3]), Path(workdir))
    outputs = workload.check(workload.run()).outputs
digest = hashlib.sha256()
for key in sorted(outputs):
    digest.update(key.encode())
    digest.update(outputs[key])
print(digest.hexdigest())
"""


def steal_ticks() -> int:
    """The host's vCPU steal so far, in clock ticks, from the ``cpu`` line of ``/proc/stat``."""
    with open("/proc/stat", encoding="utf-8") as fh:
        # cpu user nice system idle iowait irq softirq steal ...
        return int(fh.readline().split()[8])


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
    steal_before = steal_ticks()
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, timeout=4 * seconds + 600)
    steal_after = steal_ticks()
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {done.returncode}:\n{done.stderr}")
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((tree / RECORD.format(workload=workload, seed=seed)).read_text(encoding="utf-8"))
    env = record["environment"]
    metrics = {name: m["value"] for name, m in summary["metrics"].items()}
    references = record["reference_quality_not_gated"]
    constant = references.get("constant_mean_mpsnr_db")
    restored = metrics.get("mpsnr_db")
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
        "steal_s": (steal_after - steal_before) / os.sysconf("SC_CLK_TCK"),
        "references": references,
        "mpsnr_margin_over_constant_db": (None if None in (constant, restored) else restored - constant),
        "blas_threads": {"pinned": env["blas_threads_pinned"], "in_use": env["blas_threads_in_use"]},
    }


def output_digest(tree: Path, workload: str, seed: int) -> str:
    """The sha256 of one job's sorted outputs in ``tree``, with BLAS pinned to one thread as ``run.py`` pins it."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = [sys.executable, "-c", DIGEST_PROBE, str(tree.resolve()), workload, str(seed)]
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"the {workload} digest in {tree} exited {done.returncode}:\n{done.stderr}")
    return done.stdout.strip().splitlines()[-1]


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


def reading(parent: dict, change: dict, pairs: dict, metric: dict) -> str:
    """The gain, regression, unresolved or no-change reading of one metric (see the module docstring)."""
    sign = -1.0 if metric["better"] == "lower" else 1.0
    gap = sign * (change["median"] - parent["median"])
    allowed = metric["bound"] * abs(parent["median"])
    runs = sum(pairs.values())
    if runs >= GAIN_PAIRS and pairs["change_better"] >= GAIN_SHARE * runs and gap > parent["q3"] - parent["q1"]:
        return "gain"
    if -gap > allowed:
        return "regression"
    if parent["q3"] - parent["q1"] > allowed:
        return "unresolved"
    return "no change"


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per tree, each end-to-end metric's spread over the sets, the pair counts and the reading."""
    values = {tree: {} for tree in TREES}
    for run in runs:
        for name, value in run["metrics"].items():
            if isinstance(value, (int, float)):
                values[run["tree"]].setdefault(name, {})[run["set"]] = value
    out = {tree: {} for tree in TREES}
    out["pairs"], out["readings"] = {}, {}
    for metric in end_to_end:
        name = metric["name"]
        per_tree = [values[tree].get(name, {}) for tree in TREES]
        for tree, by_set in zip(TREES, per_tree):
            if by_set:
                out[tree][name] = {**spread(list(by_set.values())), "unit": metric["unit"],
                                   "better": metric["better"]}
        if all(per_tree):
            out["pairs"][name] = pair_counts(*per_tree, metric["better"])
            out["readings"][name] = reading(out["parent"][name], out["change"][name], out["pairs"][name], metric)
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
    digests = {}
    for workload in args.workloads:
        pair = {tree: output_digest(path, workload, args.seed) for tree, path in trees.items()}
        digests[workload] = {**pair, "equal": pair["parent"] == pair["change"]}
        print(f"{workload} digests: {digests[workload]}", flush=True)
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
            workload: {**summarize(workload_runs, end_to_end), "digests": digests[workload], "runs": workload_runs}
            for workload, workload_runs in runs.items()
        },
    }
    args.out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
