"""Smoke tests: each experiment script runs a tiny case end to end."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        # a deprecation or runtime warning on the script's path is an error,
        # as in the test suite's own filterwarnings
        [sys.executable, "-W", "error::DeprecationWarning", "-W", "error::RuntimeWarning",
         str(ROOT / "scripts" / script), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


@pytest.mark.parametrize(
    "script, args, header",
    [
        (
            "run_simulated_cases.py",
            ["--size", "12", "12", "6", "--truth-ranks", "2", "2", "2", "--cases", "2"],
            "case | noisy MPSNR  MSSIM | clean MPSNR  MSSIM   MSAM |"
            " no-stripe MPSNR  MSSIM  gap dB |  b err  C err  floor | iters",
        ),
    ],
)
def test_script_runs_and_prints_its_table(script, args, header):
    lines = run_script(script, args)
    assert header in lines
    # the line above the table names the ranks solved at, the stripe rank being the full profile's
    assert lines[0].endswith("ranks_x=(5, 5, 4), ranks_b=(1, 6, 6)")
    # one table row for the one case asked for
    assert any(line.split("|")[0].strip() == "2" for line in lines)


def test_peak_memory_prints_one_row_per_call():
    lines = run_script("peak_memory.py", ["--size", "12", "12", "6"])
    rows = {line.split("|")[0].strip(): line.split("|")[1:] for line in lines[1:]}
    calls = ["simulate_case", "write_cube", "read_cube(normalize=True)", "estimate_p", "evaluate",
             "cli simulate", "solve(fitted p)", "solve(p=1)"]
    assert lines[0].split() == ["call", "|", "peak", "MiB", "|", "cubes"]
    assert list(rows) == calls
    # every call allocates something, estimate_p at least its difference field
    # and the simulate command at least the truth cube it reads
    assert all(float(cubes) > 0 for _, cubes in rows.values())
    assert float(rows["estimate_p"][1]) >= 1.0
    assert float(rows["cli simulate"][1]) >= 1.0
    # the solve's state alone holds twelve cubes
    assert all(float(rows[name][1]) >= 12.0 for name in ("solve(fitted p)", "solve(p=1)"))


def test_bench_record_folds_alternating_runs(tmp_path):
    out = tmp_path / "bench.json"
    run_script("bench_record.py", [str(ROOT), str(ROOT), "--workloads", "case2-48", "--sets", "1",
                                   "--seconds", "1", "--out", str(out)])
    bench = json.loads(out.read_text(encoding="utf-8"))
    assert bench["sets"] == 1 and bench["nproc"] >= 1
    assert [b["pinned"] for b in bench["blas_threads"]] == [1]
    # one checkout as both trees: one HEAD, or none outside a git checkout
    assert len({tree["git_head"] for tree in bench["trees"].values()}) == 1
    workload = bench["workloads"]["case2-48"]
    assert [run["tree"] for run in workload["runs"]] == ["parent", "change"]
    assert all(run["correct"] for run in workload["runs"])
    end_to_end = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    for tree in ("parent", "change"):
        assert list(workload[tree]) == end_to_end
        # every median has its set count, and the quartiles hold it
        for spread in workload[tree].values():
            assert spread["sets"] == 1
            assert spread["q1"] <= spread["median"] <= spread["q3"]
    assert all(sum(counts.values()) == 1 for counts in workload["pairs"].values())
    for run in workload["runs"]:
        assert run["steal_s"] >= 0.0
        assert sorted(run["references"]) == ["constant_mean_mpsnr_db", "median5_mpsnr_db", "noisy_mpsnr_db"]
        margin = run["metrics"]["mpsnr_db"] - run["references"]["constant_mean_mpsnr_db"]
        assert run["mpsnr_margin_over_constant_db"] == margin
    # one pair reads no gain; one tree's quality against itself reads no change
    assert list(workload["readings"]) == end_to_end
    assert set(workload["readings"].values()) <= {"regression", "unresolved", "no change"}
    assert all(workload["readings"][name] == "no change" for name in ("mpsnr_db", "mssim", "msam_rad"))
    # one tree's outputs against themselves: two equal sha256 digests
    digests = workload["digests"]
    assert re.fullmatch("[0-9a-f]{64}", digests["parent"])
    assert digests["change"] == digests["parent"] and digests["equal"] is True


def load_bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "scripts" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ten parent job times: median 1.1 s, interquartile range 0.175 s
PARENT_JOB_S = [1.0, 1.1, 1.2, 1.0, 1.3, 0.9, 1.1, 1.2, 1.0, 1.1]


@pytest.mark.parametrize(
    "parent, change, expected",
    [
        # nine of ten pairs faster, by more than the parent's interquartile range
        (PARENT_JOB_S, [0.7] * 9 + [1.4], "gain"),
        # faster in every pair, but by less than that range
        (PARENT_JOB_S, [v - 0.01 for v in PARENT_JOB_S], "no change"),
        # 30% slower against a bound of 24%
        ([1.0] * 10, [1.3] * 10, "regression"),
        # a parent interquartile range of 75% of its median against that bound
        ([0.5, 1.0, 1.5] * 3 + [1.0], [1.0] * 10, "unresolved"),
        # every pair faster by more than the range, but too few pairs for a gain
        ([1.0] * 4, [0.5] * 4, "no change"),
    ],
    ids=["gain", "inside-the-spread", "regression", "unresolved", "too-few-pairs"],
)
def test_bench_reading_rule(parent, change, expected):
    bench_record = load_bench_record()
    metric = {"name": "job_s", "unit": "s", "better": "lower", "bound": 0.24}
    pairs = bench_record.pair_counts(dict(enumerate(parent)), dict(enumerate(change)), "lower")
    spreads = bench_record.spread(parent), bench_record.spread(change)
    assert bench_record.reading(*spreads, pairs, metric) == expected


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda path: path.name)
def test_committed_bench_files_are_readable(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    # both trees' commits, so that each side can be checked out again
    for tree in ("parent", "change"):
        assert re.fullmatch("[0-9a-f]{40}", bench["trees"][tree]["git_head"])
    assert bench["workloads"]
    for workload in bench["workloads"].values():
        for tree in ("parent", "change"):
            assert workload[tree]
            # every median carries its set count, and every set ran
            for spread in workload[tree].values():
                assert spread["sets"] == bench["sets"]
                assert spread["q1"] <= spread["median"] <= spread["q3"]
        # files written before the digests were recorded have none
        if "digests" in workload:
            digests = workload["digests"]
            assert digests["equal"] is (digests["parent"] == digests["change"])
