"""The solver's helper thread: same bytes with or without it, and no traced name on it.

``solver._helper_wanted`` is the seam: patched to return ``True`` the z-step's
FFT halves and the helper's lane of every iteration run on the helper thread
even on one CPU, patched to return ``False`` every task runs on the calling
thread.
"""

import concurrent.futures
import importlib
import importlib.util
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import hsirestore.cli
import hsirestore.solver
from hsirestore.fileio import write_cube
from hsirestore.noise import case_spec, simulate_case
from hsirestore.solver import SolverConfig, SolverState, solve, update_f, update_z
from hsirestore.synthetic import low_rank_cube
from hsirestore.tucker import TuckerRanks
from memory import traced_peak
from oracles import admm_loop_oracle

ROOT = Path(__file__).resolve().parents[1]

# (shape, truth ranks): case2-48, denoise-64's size, a shape whose halves and
# band bins split unevenly, and a single row, where the helper's height half is empty
SHAPES = [
    ((48, 48, 16), TuckerRanks(5, 5, 3)),
    ((64, 64, 32), TuckerRanks(10, 10, 5)),
    ((47, 45, 15), TuckerRanks(5, 5, 3)),
    ((1, 7, 2), TuckerRanks(1, 2, 1)),
]
SHAPE_IDS = ["48x48x16", "64x64x32", "47x45x15", "1x7x2"]


def load_tracing():
    """``restorebench/tracing.py`` as a module, read and not changed."""
    name = "restorebench_tracing"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "restorebench" / "tracing.py")
        module = importlib.util.module_from_spec(spec)
        # its dataclasses look their module up while the class is made
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def threads_of_tasks(monkeypatch):
    """Record the thread of every task list the fan-out runs."""
    threads = []
    real_run_all = hsirestore.solver._run_all

    def recording_run_all(tasks):
        threads.append(threading.current_thread())
        real_run_all(tasks)

    monkeypatch.setattr(hsirestore.solver, "_run_all", recording_run_all)
    return threads


def with_helper(monkeypatch, wanted, call):
    """``call()`` with the helper thread forced on or off; checks that it ran where it should."""
    monkeypatch.setattr(hsirestore.solver, "_helper_wanted", lambda: wanted)
    threads = threads_of_tasks(monkeypatch)
    out = call()
    off_main = [t for t in threads if t is not threading.main_thread()]
    assert bool(off_main) == wanted
    return out


@pytest.fixture()
def fast_switching():
    """Switch threads every microsecond, so that the two halves interleave finely."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def random_state(shape, beta, seed):
    rng = np.random.default_rng(seed)
    state = SolverState.zeros(shape, beta)
    for name in ("x", "z", "s", "b", "dual_x"):
        setattr(state, name, rng.standard_normal(shape))
    state.f = rng.standard_normal((3,) + shape)
    state.dual_grad = rng.standard_normal((3,) + shape)
    return state


def noisy_cube(shape, ranks):
    truth = low_rank_cube(shape, ranks, seed=7)
    noisy, _ = simulate_case(truth, case_spec(2, seed=7, stripe_amplitude=0.5))
    return noisy


@pytest.mark.parametrize("shape", [s for s, _ in SHAPES], ids=SHAPE_IDS)
def test_update_z_does_not_depend_on_the_helper(monkeypatch, fast_switching, shape):
    y = np.random.default_rng(3).standard_normal(shape)
    cfg = SolverConfig(p_override=(0.7, 0.7, 0.7))
    got = {
        wanted: with_helper(monkeypatch, wanted, lambda: update_z(random_state(shape, 0.37, 4), cfg, y))
        for wanted in (True, False)
    }
    assert got[True].tobytes() == got[False].tobytes()


@pytest.mark.parametrize("p_values", [(0.3, 0.5, 0.8), (1.0, 1.0, 1.0)], ids=["p<1", "p=1"])
@pytest.mark.parametrize("shape", [s for s, _ in SHAPES], ids=SHAPE_IDS)
def test_f_step_does_not_depend_on_the_helper(monkeypatch, fast_switching, shape, p_values):
    cfg = SolverConfig(lambda_tv=0.05, p_override=p_values)
    got = {}
    for wanted in (True, False):
        state = random_state(shape, 0.8, 5)
        with_helper(monkeypatch, wanted, lambda: update_f(state, cfg, p_values))
        got[wanted] = (state.f.tobytes(), state.dual_grad.tobytes())
    assert got[True] == got[False]


# estimate_p needs two entries along every axis, so the single row solves at p=1 only
SOLVES = [
    pytest.param(shape, ranks, p_override, id=f"{shape_id}-{p_id}")
    for (shape, ranks), shape_id in zip(SHAPES, SHAPE_IDS)
    for p_override, p_id in ((None, "fitted-p"), ((1.0, 1.0, 1.0), "p=1"))
    if shape[0] > 1 or p_override is not None
]


@pytest.mark.parametrize("shape, ranks, p_override", SOLVES)
def test_solve_does_not_depend_on_the_helper(monkeypatch, fast_switching, shape, ranks, p_override):
    noisy = noisy_cube(shape, ranks)
    if shape == (48, 48, 16):
        # the case2-48 workload's solve, run to its stop
        cfg = SolverConfig(ranks_x=TuckerRanks(8, 8, 5), ranks_b=TuckerRanks(1, 24, 16), p_override=p_override)
    else:
        cfg = SolverConfig(p_override=p_override, max_iter=8)
    runs = {wanted: with_helper(monkeypatch, wanted, lambda: solve(noisy, cfg)) for wanted in (True, False)}
    (dec_on, diag_on), (dec_off, diag_off) = runs[True], runs[False]
    for name in ("clean", "sparse", "stripes", "residual"):
        assert getattr(dec_on, name).tobytes() == getattr(dec_off, name).tobytes(), name
    assert (diag_on.rel_change, diag_on.p_values) == (diag_off.rel_change, diag_off.p_values)


CASE2_RANKS = dict(ranks_x=TuckerRanks(8, 8, 5), ranks_b=TuckerRanks(1, 24, 16))
# (input, config): each solve the lanes must leave bit for bit as the one-lane loop runs it
LOOPS = {
    "48x48x16-fitted-p": (((48, 48, 16), TuckerRanks(5, 5, 3)), SolverConfig(**CASE2_RANKS)),
    "48x48x16-p=1": (((48, 48, 16), TuckerRanks(5, 5, 3)), SolverConfig(**CASE2_RANKS, p_override=(1.0, 1.0, 1.0))),
    "47x45x15": (((47, 45, 15), TuckerRanks(5, 5, 3)), SolverConfig(max_iter=8)),
    "8x1x4-p_override": ("random", SolverConfig(max_iter=8, p_override=(0.6, 1.0, 0.4))),
    "stripes-off": (((24, 24, 8), TuckerRanks(3, 3, 2)), SolverConfig(max_iter=8, stripe_enabled=False)),
    "max_iter=1": (((24, 24, 8), TuckerRanks(3, 3, 2)), SolverConfig(max_iter=1)),
    "max_iter=2": (((24, 24, 8), TuckerRanks(3, 3, 2)), SolverConfig(max_iter=2)),
    "zero-cube": ("zeros", SolverConfig()),
}


def loop_input(source):
    if source == "random":
        return np.random.default_rng(8).random((8, 1, 4))
    if source == "zeros":
        return np.zeros((16, 16, 8))
    return noisy_cube(*source)


@pytest.mark.parametrize("wanted", [True, False], ids=["helper", "inline"])
@pytest.mark.parametrize("loop", list(LOOPS))
def test_lanes_reorder_nothing(monkeypatch, fast_switching, loop, wanted):
    source, cfg = LOOPS[loop]
    y = loop_input(source)
    dec, diag = with_helper(monkeypatch, wanted, lambda: solve(y, cfg))
    p_values = cfg.p_override or hsirestore.solver.estimate_p(y).p_values
    parts, rel_change, beta, converged = admm_loop_oracle(y, cfg.resolve_ranks(y.shape), p_values)
    for name, expected in zip(("clean", "sparse", "stripes", "residual"), parts):
        assert getattr(dec, name).tobytes() == expected.tobytes(), name
    assert diag.rel_change == rel_change
    assert diag.beta == beta
    assert (diag.iterations, diag.converged) == (len(rel_change), converged)


@pytest.mark.parametrize("cpus, wanted", [({0}, False), ({0, 1}, True)], ids=["one-CPU", "two-CPU"])
def test_helper_is_wanted_when_more_than_one_cpu_is_allowed(monkeypatch, cpus, wanted):
    monkeypatch.setattr(hsirestore.solver.os, "sched_getaffinity", lambda pid: cpus, raising=False)
    assert hsirestore.solver._helper_wanted() is wanted


def test_failed_half_is_waited_for_and_raised(monkeypatch):
    monkeypatch.setattr(hsirestore.solver, "_helper_wanted", lambda: True)
    finished = []

    def slow_then_done():
        threading.Event().wait(0.05)
        finished.append("helper")

    def fail():
        raise RuntimeError("inline half failed")

    with pytest.raises(RuntimeError, match="inline half failed"):
        hsirestore.solver._fan_out([slow_then_done], [fail])
    # the helper's half had ended before the error reached the caller
    assert finished == ["helper"]

    def fail_on_helper():
        raise ValueError("helper half failed")

    with pytest.raises(ValueError, match="helper half failed"):
        hsirestore.solver._fan_out([fail_on_helper], [lambda: finished.append("inline")])
    assert finished == ["helper", "inline"]


def test_first_fan_outs_on_four_threads_make_one_helper(monkeypatch, fast_switching):
    monkeypatch.setattr(hsirestore.solver, "_helper", None)
    monkeypatch.setattr(hsirestore.solver, "_helper_wanted", lambda: True)
    made = []
    real_executor = concurrent.futures.ThreadPoolExecutor

    def counting_executor(*args, **kwargs):
        # a slow start, so that every caller reaches the check while one makes it
        threading.Event().wait(0.05)
        made.append(real_executor(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", counting_executor)
    results = []
    start = threading.Barrier(4)

    def caller():
        ran = []
        start.wait(timeout=30)
        for _ in range(50):
            hsirestore.solver._fan_out([lambda: ran.append("helper")], [lambda: ran.append("inline")])
        results.append(sorted(ran))

    callers = [threading.Thread(target=caller) for _ in range(4)]
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in callers)
        assert results == [["helper"] * 50 + ["inline"] * 50] * 4
        assert len(made) == 1
    finally:
        for executor in made:
            executor.shutdown()


def record_wrapped_threads(monkeypatch):
    """Wrap every name the benchmark tracer wraps, where it wraps it, recording the calling thread."""
    calls = []
    for module_name, attr, span in load_tracing().WRAPPED:
        module = importlib.import_module(f"hsirestore.{module_name}")
        fn = getattr(module, attr)

        def recording(*args, _fn=fn, _span=span, **kwargs):
            calls.append((_span, threading.current_thread()))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, recording)
    return calls


def test_traced_names_run_on_the_main_thread_in_solve(monkeypatch):
    monkeypatch.setattr(hsirestore.solver, "_helper_wanted", lambda: True)
    helper_threads = threads_of_tasks(monkeypatch)
    noisy = noisy_cube((24, 24, 8), TuckerRanks(3, 3, 2))
    calls = record_wrapped_threads(monkeypatch)
    hsirestore.solver.solve(noisy, SolverConfig(max_iter=6))
    assert {span for span, _ in calls} >= {f"solver.update_{u}" for u in ("x", "z", "f", "b", "s", "multipliers")}
    assert {thread for _, thread in calls} == {threading.main_thread()}
    assert any(t is not threading.main_thread() for t in helper_threads)


def test_traced_names_run_on_the_main_thread_in_cli_denoise(monkeypatch, tmp_path):
    monkeypatch.setattr(hsirestore.solver, "_helper_wanted", lambda: True)
    helper_threads = threads_of_tasks(monkeypatch)
    path = tmp_path / "noisy.cube"
    write_cube(path, noisy_cube((24, 24, 8), TuckerRanks(3, 3, 2)))
    config = tmp_path / "config.txt"
    config.write_text("max_iter=6\n")
    calls = record_wrapped_threads(monkeypatch)
    code = hsirestore.cli.main(["denoise", "--in", str(path), "--out-dir", str(tmp_path / "out"), "--config", str(config)])
    assert code == 0
    assert {"cli.main", "solver.solve", "solver.update_f", "fileio.write_cube"} <= {span for span, _ in calls}
    assert {thread for _, thread in calls} == {threading.main_thread()}
    assert any(t is not threading.main_thread() for t in helper_threads)


@pytest.mark.parametrize("entry", ["solve", "cli-denoise"])
def test_tracer_notes_read_real_results(tmp_path, entry):
    # every span note, the update_f one on the stack update_f returns included,
    # runs on what a tiny traced job really returns
    tracing = load_tracing()
    noisy = noisy_cube((16, 16, 6), TuckerRanks(3, 3, 2))
    path, config = tmp_path / "noisy.cube", tmp_path / "config.txt"
    write_cube(path, noisy)
    config.write_text("max_iter=3\n")
    tracer = tracing.Tracer()
    with tracer.job(0):
        if entry == "solve":
            hsirestore.solver.solve(noisy, SolverConfig(max_iter=3))
        else:
            argv = ["denoise", "--in", str(path), "--out-dir", str(tmp_path / "out"), "--config", str(config)]
            assert hsirestore.cli.main(argv) == 0
    spans = tracer.job_spans(0)
    assert tracing.nesting_problems(spans) == []
    metrics = tracing.job_layer_metrics(spans, job_s=1.0)
    assert set(metrics) == set(tracing.PER_LAYER) - {"trace.overhead_s"}
    assert metrics["solver.iterations"] == 3
    assert 0.0 <= metrics["solver.f_nonzero_fraction"] <= 1.0


def solve_peak_in_cubes(monkeypatch, p_override):
    monkeypatch.setattr(hsirestore.solver, "_helper_wanted", lambda: True)
    truth = low_rank_cube((64, 64, 32), TuckerRanks(10, 10, 5), seed=7)
    noisy, _ = simulate_case(truth, case_spec(2, seed=7))
    # once per process: the Fourier multipliers' cache, the helper thread and its import
    solve(noisy, SolverConfig(max_iter=1, p_override=p_override))
    _, peak = traced_peak(solve, noisy, SolverConfig(max_iter=5, p_override=p_override))
    return peak / noisy.nbytes


def test_solve_peak_memory_at_64x64x32(monkeypatch):
    # below the 19.38 cubes that new gradient stacks in every iteration took;
    # the lanes, this thread's x-step beside the helper's f-step Newton
    # temporaries and next z-step terms, reach 17.6–18.0
    assert solve_peak_in_cubes(monkeypatch, None) <= 19.0


def test_solve_peak_memory_at_64x64x32_at_p_1(monkeypatch):
    # the shrinkage is a soft threshold here, with one temporary cube per direction: about 16.9
    assert solve_peak_in_cubes(monkeypatch, (1.0, 1.0, 1.0)) <= 19.0
