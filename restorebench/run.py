"""Restoration benchmark: one closed-loop client runs one workload's jobs for a fixed time.

Run from the repository root:

    python3 restorebench/run.py --workload case2-48 --seed 7 --seconds 30 --trace 0

One job runs at a time, on inputs made once from ``--seed``; the next job
starts when the previous one has finished, and no job starts once it would
end after ``--seconds`` (at least two always run, so the repeat-determinism
check has a pair).  ``--trace 0`` reports the end-to-end metrics with no
tracing; ``--trace 1`` alternates untraced and traced jobs and reports the
per-layer metrics and the tracing overhead.  Every job's output is checked.
Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A full
record, with the environment, goes to ``restorebench/results/``.
"""

import os

# Pinned before numpy is imported.  One OpenBLAS thread was both faster and
# steadier than two on a 2-core machine, at bit-identical output.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_JOBS = 2
SETUP_REPEATS = 7
TAIL_SAMPLES = 10  # a tail percentile needs this many samples beyond it

# name -> (unit, better) of every end-to-end metric, in report order
END_TO_END = {
    "job_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "mpsnr_db": ("dB", "higher"),
    "mssim": ("ratio", "higher"),
    "msam_rad": ("rad", "lower"),
}

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import hsirestore, hsirestore.cli\n"
    "print(time.perf_counter() - t0)\n"
)


def import_program():
    """Import ``hsirestore`` from this checkout's ``src``, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import hsirestore

    if Path(hsirestore.__file__).resolve().parent != SRC / "hsirestore":
        raise ImportError(f"hsirestore imported from {hsirestore.__file__}, not from {SRC}")
    return hsirestore


def measure_setup() -> list[float]:
    """Seconds to import ``hsirestore`` and ``hsirestore.cli`` in fresh processes."""
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def tail_percentile(samples: list[float]):
    """The highest whole percentile with at least TAIL_SAMPLES samples beyond it, or None."""
    n = len(samples)
    q = math.floor(100 * (1 - TAIL_SAMPLES / n)) if n else 0
    if q <= 50:
        return None
    return q, statistics.quantiles(samples, n=100)[q - 1]


def missing_metrics(values: dict, kind: str) -> list[str]:
    """Metrics named under ``kind`` in BENCHMARK.json that the run has no finite value for."""
    spec = ROOT / "BENCHMARK.json"
    named = [m["name"] for m in json.loads(spec.read_text())[kind]] if spec.exists() else list(values)
    return [n for n in named if not isinstance(values.get(n), (int, float)) or not math.isfinite(values[n])]


def digests(outputs: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}


def blas_threads_in_use() -> dict[str, int]:
    """Ask each loaded OpenBLAS how many threads it will use (the pin must have taken)."""
    libs = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path.lower() and ".so" in path:
                libs.add(path)
    found = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    llc = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() or commit
    return {
        "workload_seed": seed,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_in_use": blas_threads_in_use(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "llc": (llc.read_text().strip() if llc.exists() else "unknown")
        + " as reported inside a VM: a host figure, so assess-256's 34 MB arrays"
        " are not a true cache-busting working set",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
    }


def run_jobs(workload, seconds: float, tracer):
    """Closed loop; with a tracer every second job is traced."""
    jobs = []
    reference = None
    start = time.perf_counter()
    while True:
        index = len(jobs)
        traced = tracer is not None and index % 2 == 1
        job = {"index": index, "traced": traced}
        t0 = time.perf_counter()
        try:
            with tracer.job(index) if traced else nullcontext():
                out = workload.run()
            job["seconds"] = time.perf_counter() - t0
            checked = workload.check(out)
            del out
            problems = list(checked.problems)
            digest = digests(checked.outputs)
            if reference is None:
                reference = {"digest": digest, "quality": checked.quality, "facts": checked.facts}
            elif digest != reference["digest"]:
                differing = sorted(k for k in set(digest) | set(reference["digest"])
                                   if digest.get(k) != reference["digest"].get(k))
                problems.append(f"not bit-identical to job 0: {differing}")
        except Exception as exc:  # a failed job is counted, and the run goes on
            job.setdefault("seconds", time.perf_counter() - t0)
            problems = [f"raised {type(exc).__name__}: {exc}", traceback.format_exc()]
        job["problems"] = problems
        jobs.append(job)
        elapsed = time.perf_counter() - start
        if len(jobs) >= MIN_JOBS and elapsed + job["seconds"] > seconds:
            return jobs, reference


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("case2-48", "denoise-64", "assess-256"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2

    import tracing
    from workloads import WORKLOADS

    setup_samples = measure_setup()
    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as workdir:
        workload = WORKLOADS[args.workload](args.seed, Path(workdir))
        tracer = tracing.Tracer() if args.trace else None
        jobs, reference = run_jobs(workload, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = [j for j in jobs if j["problems"]]
    plain_s = [j["seconds"] for j in jobs if not j["traced"] and not j["problems"]]
    traced_s = [j["seconds"] for j in jobs if j["traced"] and not j["problems"]]
    self_test = []
    if args.trace:
        per_job = []
        for j in jobs:
            if j["traced"]:
                spans = tracer.job_spans(j["index"])
                self_test += [f"job {j['index']}: {p}" for p in tracing.nesting_problems(spans)]
                per_job.append(tracing.job_layer_metrics(spans, j["seconds"]))
        overhead = (statistics.median(traced_s) - statistics.median(plain_s)
                    if traced_s and plain_s else None)
        values = tracing.median_layer_metrics(per_job, overhead)
        units = tracing.PER_LAYER
    else:
        quality = reference["quality"] if reference else {}
        values = {
            "job_s": statistics.median(plain_s) if plain_s else None,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": peak_rss_mb,
            **{k: quality.get(k) for k in ("mpsnr_db", "mssim", "msam_rad")},
        }
        units = END_TO_END
    kind = "per_layer" if args.trace else "end_to_end"
    self_test += [f"{kind} metric {name} missing" for name in missing_metrics(values, kind)]

    attempted = len(jobs)
    error_rate = len(failed) / attempted
    tail = tail_percentile(plain_s)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one client, one job at a time",
        "environment": environment(args.seed),
        "metrics": {k: {"value": v, "unit": units[k][0], "better": units[k][1]} for k, v in values.items()},
        "error_rate": error_rate,
        "job_samples": len(plain_s),
        "job_tail": {"percentile": tail[0], "value": tail[1]} if tail else None,
        "setup_samples_s": setup_samples,
        "reference_quality_not_gated": workload.references,
        "facts_of_job_0": reference["facts"] if reference else None,
        "self_test_problems": self_test,
        "jobs": jobs,
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    if tracer is not None:
        tracer.dump(results / f"{stem}-spans.json")

    print(f"workload {args.workload}, seed {args.seed}, {attempted} jobs "
          f"({len(traced_s)} traced), closed loop, BLAS threads {BLAS_THREADS}")
    for name, v in values.items():
        unit, better = units[name]
        print(f"  {name} = {v!r} {unit} ({better} is better)")
    if not args.trace:
        print(f"  job_s is the median of {len(plain_s)} jobs; "
              + (f"p{tail[0]} = {tail[1]!r} s" if tail else
                 f"no tail percentile (one needs {TAIL_SAMPLES} samples beyond it)"))
    print(f"  error_rate = {error_rate!r} (failed / attempted, lower is better)")
    for name, v in workload.references.items():
        print(f"  reference {name} = {v!r} (fact of the input, not gated)")
    if reference:
        print(f"  facts of job 0: {reference['facts']}")
    for j in failed:
        print(f"  job {j['index']} failed: {j['problems'][0]}")
    for p in self_test:
        print(f"  self-test: {p}")

    correct = not failed and not self_test
    metrics = {k: {"value": v, "unit": units[k][0]} for k, v in values.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
