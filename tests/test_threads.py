"""The helper thread: same bytes with or without it, and no traced name on it.

``tensor_ops._helper_wanted`` is the seam: patched to return ``True`` the
z-step's FFT halves, the helper's lane of every iteration, and the SSIM rows
and spectral-angle blocks of bands above the metrics' floor run on the helper
thread even on one CPU; patched to return ``False`` every task runs on the
calling thread.
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
import hsirestore.fileio
import hsirestore.gradient_fit
import hsirestore.metrics
import hsirestore.noise
import hsirestore.priors
import hsirestore.solver
import hsirestore.tensor_ops
from hsirestore.fileio import normalize_bands, read_cube, write_cube
from hsirestore.metrics import SPLIT_BAND_ENTRIES, evaluate, sam, ssim
from hsirestore.noise import case_spec, simulate_case
from hsirestore.solver import SolverConfig, SolverState, solve, update_f, update_z
from hsirestore.synthetic import low_rank_cube
from hsirestore.tucker import TuckerRanks
from memory import traced_peak
from oracles import admm_loop_oracle, cube_file_oracle, cube_read_oracle

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
    real_run_all = hsirestore.tensor_ops._run_all

    def recording_run_all(tasks):
        threads.append(threading.current_thread())
        real_run_all(tasks)

    monkeypatch.setattr(hsirestore.tensor_ops, "_run_all", recording_run_all)
    return threads


def with_helper(monkeypatch, wanted, call):
    """``call()`` with the helper thread forced on or off; checks that it ran where it should."""
    monkeypatch.setattr(hsirestore.tensor_ops, "_helper_wanted", lambda: wanted)
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
    assert_matches_loop_oracle(monkeypatch, loop, wanted)


@pytest.mark.parametrize("loop", ["47x45x15", "48x48x16-p=1"])
def test_blocked_passes_reorder_nothing(monkeypatch, fast_switching, loop):
    # the z-step's row blocks of three rows and the shrinkages' blocks of 1000
    # entries, each splitting the cube unevenly; the oracle's shrinkage is the
    # package's own, whose blocks test_priors checks against one block
    monkeypatch.setattr(hsirestore.solver, "ROW_BLOCK_ENTRIES", 3 * 48 * 16)
    monkeypatch.setattr(hsirestore.priors, "SHRINK_BLOCK_ENTRIES", 1000)
    assert_matches_loop_oracle(monkeypatch, loop, True)


def assert_matches_loop_oracle(monkeypatch, loop, wanted):
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


# (input, config, converged, iterations): a 48x48x16 solve run to convergence,
# one cut at max_iter, one iteration alone, and the zero cube, which stops on
# its second iteration
STOPS = {
    "converged": ("noisy", SolverConfig(**CASE2_RANKS), True, None),
    "max_iter=5": ("noisy", SolverConfig(**CASE2_RANKS, max_iter=5), False, 5),
    "max_iter=1": ("noisy", SolverConfig(**CASE2_RANKS, max_iter=1), False, 1),
    "zero-cube": ("zeros", SolverConfig(), True, 2),
}
COUNTED_UPDATES = ("update_z", "update_b", "update_s", "update_f", "update_multipliers")


@pytest.mark.parametrize("wanted", [True, False], ids=["helper", "inline"])
@pytest.mark.parametrize("stop", list(STOPS))
def test_stopping_iteration_runs_no_f_step(monkeypatch, stop, wanted):
    source, cfg, converged, iterations = STOPS[stop]
    shape = (48, 48, 16)
    y = np.zeros(shape) if source == "zeros" else noisy_cube(shape, TuckerRanks(5, 5, 3))
    calls = dict.fromkeys(COUNTED_UPDATES, 0)
    for name in COUNTED_UPDATES:
        def counting(*args, _name=name, _fn=getattr(hsirestore.solver, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(hsirestore.solver, name, counting)
    _, diag = with_helper(monkeypatch, wanted, lambda: solve(y, cfg))
    n = diag.iterations
    assert diag.converged is converged
    assert (n == iterations) if iterations else (n < cfg.max_iter)
    # the stopping iteration runs the z-, b- and s-steps and no f- or multiplier step
    assert calls == {"update_z": n, "update_b": n, "update_s": n, "update_f": n - 1, "update_multipliers": n - 1}


@pytest.mark.parametrize("cpus, wanted", [({0}, False), ({0, 1}, True)], ids=["one-CPU", "two-CPU"])
def test_helper_is_wanted_when_more_than_one_cpu_is_allowed(monkeypatch, cpus, wanted):
    monkeypatch.setattr(hsirestore.tensor_ops.os, "sched_getaffinity", lambda pid: cpus, raising=False)
    assert hsirestore.tensor_ops._helper_wanted() is wanted


def test_failed_half_is_waited_for_and_raised(monkeypatch):
    monkeypatch.setattr(hsirestore.tensor_ops, "_helper_wanted", lambda: True)
    finished = []

    def slow_then_done():
        threading.Event().wait(0.05)
        finished.append("helper")

    def fail():
        raise RuntimeError("inline half failed")

    with pytest.raises(RuntimeError, match="inline half failed"):
        hsirestore.tensor_ops._fan_out([slow_then_done], [fail])
    # the helper's half had ended before the error reached the caller
    assert finished == ["helper"]

    def fail_on_helper():
        raise ValueError("helper half failed")

    with pytest.raises(ValueError, match="helper half failed"):
        hsirestore.tensor_ops._fan_out([fail_on_helper], [lambda: finished.append("inline")])
    assert finished == ["helper", "inline"]


def test_first_fan_outs_on_four_threads_make_one_helper(monkeypatch, fast_switching):
    monkeypatch.setattr(hsirestore.tensor_ops, "_helper", None)
    monkeypatch.setattr(hsirestore.tensor_ops, "_helper_wanted", lambda: True)
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
            hsirestore.tensor_ops._fan_out([lambda: ran.append("helper")], [lambda: ran.append("inline")])
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


# Bands of the assessment path, each at or above the metrics' floor: an
# 11-row band, whose SSIM map has one row, so the helper's half is empty; an
# uneven shape whose map rows and spectral-angle blocks split unevenly; and a
# single band.
ASSESS_SHAPES = {
    "11-rows": (11, 4500, 2),
    "257x255x3": (257, 255, 3),
    "one-band": (257, 255, 1),
}
assert all(h * w >= SPLIT_BAND_ENTRIES for h, w, _ in ASSESS_SHAPES.values())


def assess_pair(shape, layout):
    """A reference cube and a noisy test cube of ``shape``, the pair in ``layout``."""
    rng = np.random.default_rng(sum(shape))
    ref = rng.random(shape)
    test = np.clip(ref + rng.normal(0.0, 0.1, shape), 0.0, 1.0)
    if layout == "fortran":
        return np.asfortranarray(ref), np.asfortranarray(test)
    if layout == "strided":
        # every other entry of a cube twice as tall and twice as wide
        h, w, p = shape
        big_ref, big_test = np.zeros((2 * h, 2 * w, p)), np.zeros((2 * h, 2 * w, p))
        big_ref[::2, ::2], big_test[::2, ::2] = ref, test
        return big_ref[::2, ::2], big_test[::2, ::2]
    if layout == "broadcast":
        # height-constant test cube, as simulate_case's stripe_field is
        return ref, np.broadcast_to(test[:1], shape)
    return ref, test


def whole_band_report(monkeypatch, ref, test):
    """``evaluate``'s figures from whole-band SSIM maps and one whole-cube angle map.

    They are taken on C-ordered copies, as ``evaluate`` takes them, so that
    the PSNR and angle means sum in its order.
    """
    ref, test = np.ascontiguousarray(ref), np.ascontiguousarray(test)
    with monkeypatch.context() as m:
        m.setattr(hsirestore.metrics, "SPLIT_BAND_ENTRIES", np.inf)
        psnr_pb = [hsirestore.metrics.psnr(ref[:, :, b], test[:, :, b]) for b in range(ref.shape[2])]
        ssim_pb = [ssim(ref[:, :, b], test[:, :, b]) for b in range(ref.shape[2])]
    return (np.array(psnr_pb).tobytes(), np.array(ssim_pb).tobytes(),
            float(np.mean(psnr_pb)), float(np.mean(ssim_pb)), float(np.mean(sam(ref, test))))


LAYOUTS = ["C", "fortran", "strided", "broadcast"]


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("shape", list(ASSESS_SHAPES.values()), ids=list(ASSESS_SHAPES))
def test_ssim_rows_do_not_depend_on_the_helper(monkeypatch, fast_switching, shape, layout):
    ref, test = (cube[:, :, 0] for cube in assess_pair(shape, layout))
    whole = whole_band_report(monkeypatch, ref[:, :, None], test[:, :, None])[1]
    for wanted in (True, False):
        got = with_helper(monkeypatch, wanted, lambda: ssim(ref, test))
        assert np.array([got]).tobytes() == whole


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("shape", list(ASSESS_SHAPES.values()), ids=list(ASSESS_SHAPES))
def test_evaluate_does_not_depend_on_the_helper(monkeypatch, fast_switching, shape, layout):
    ref, test = assess_pair(shape, layout)
    whole = whole_band_report(monkeypatch, ref, test)
    for wanted in (True, False):
        report = with_helper(monkeypatch, wanted, lambda: evaluate(ref, test))
        got = (report.psnr_per_band.tobytes(), report.ssim_per_band.tobytes(),
               report.mpsnr, report.mssim, report.msam)
        assert got == whole


@pytest.mark.parametrize("wanted", [True, False], ids=["helper", "inline"])
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("shape", list(ASSESS_SHAPES.values()), ids=list(ASSESS_SHAPES))
def test_cube_files_do_not_depend_on_the_helper(monkeypatch, fast_switching, tmp_path, shape, layout, wanted):
    monkeypatch.setattr(hsirestore.tensor_ops, "_helper_wanted", lambda: wanted)
    cube = assess_pair(shape, layout)[1]
    path = tmp_path / "cube.cube"
    write_cube(path, cube)
    raw = path.read_bytes()
    assert raw == cube_file_oracle(cube)
    assert read_cube(path, normalize=True).tobytes() == normalize_bands(cube_read_oracle(raw)).tobytes()


# (shape, source layout, destination layout): tiles that do not divide the
# first two axes, sides that store the same or different axes fastest, a
# reversed axis, a single band and a float64-float32 cast either way
TILED_COPIES = [
    ((37, 53, 5), "C", "band-major", np.float64),
    ((257, 255, 3), "C", "height-fastest", np.float32),
    ((257, 255, 1), "height-fastest", "C", np.float64),
    ((70, 9, 130), "reversed", "C", np.float32),
    ((5, 300, 16), "C", "C", np.float64),
    ((300, 5, 16), "height-fastest", "height-fastest", np.float64),
]


def in_layout(shape, layout, dtype, fill):
    """A cube of ``shape`` in ``layout``, as an (h, w, p) view, filled from ``fill``."""
    h, w, p = shape
    if layout == "band-major":
        cube = np.empty((p, h, w), dtype).transpose(1, 2, 0)
    elif layout == "height-fastest":
        cube = np.empty((p, w, h), dtype).transpose(2, 1, 0)
    elif layout == "reversed":
        cube = np.empty(shape, dtype)[::-1]
    else:
        cube = np.empty(shape, dtype)
    cube[...] = fill
    return cube


@pytest.mark.parametrize("shape, src_layout, dst_layout, dst_dtype", TILED_COPIES)
def test_tiled_copy_equals_one_whole_copy(shape, src_layout, dst_layout, dst_dtype):
    src = in_layout(shape, src_layout, np.float64, np.random.default_rng(9).standard_normal(shape))
    got = in_layout(shape, dst_layout, dst_dtype, np.nan)
    expected = in_layout(shape, dst_layout, dst_dtype, np.nan)
    np.copyto(expected, src, casting="unsafe")
    hsirestore.tensor_ops._copy_in_tiles(got, src)
    assert got.tobytes(order="A") == expected.tobytes(order="A")


def test_bands_below_the_floor_give_the_helper_no_task(monkeypatch):
    monkeypatch.setattr(hsirestore.tensor_ops, "_helper_wanted", lambda: True)
    threads = threads_of_tasks(monkeypatch)
    # 128 columns and the fewest rows that reach the floor, less one
    rows = -(-SPLIT_BAND_ENTRIES // 128)
    ref, test = assess_pair((rows - 1, 128, 4), "C")
    evaluate(ref, test)
    ssim(ref[:, :, 0], test[:, :, 0])
    assert threads == []
    # one more row reaches the floor
    evaluate(*assess_pair((rows, 128, 1), "C"))
    assert any(t is not threading.main_thread() for t in threads)


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
    monkeypatch.setattr(hsirestore.tensor_ops, "_helper_wanted", lambda: True)
    helper_threads = threads_of_tasks(monkeypatch)
    noisy = noisy_cube((24, 24, 8), TuckerRanks(3, 3, 2))
    calls = record_wrapped_threads(monkeypatch)
    hsirestore.solver.solve(noisy, SolverConfig(max_iter=6))
    assert {span for span, _ in calls} >= {f"solver.update_{u}" for u in ("x", "z", "f", "b", "s", "multipliers")}
    assert {thread for _, thread in calls} == {threading.main_thread()}
    assert any(t is not threading.main_thread() for t in helper_threads)


def test_traced_names_run_on_the_main_thread_in_cli_denoise(monkeypatch, tmp_path):
    monkeypatch.setattr(hsirestore.tensor_ops, "_helper_wanted", lambda: True)
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


# an assessment job whose bands reach the metrics' floor, so ssim and evaluate hand work to the helper
ASSESS_JOB_SHAPE = (224, 224, 3)
assert ASSESS_JOB_SHAPE[0] * ASSESS_JOB_SHAPE[1] >= SPLIT_BAND_ENTRIES


def assess_job(tmp_path):
    """``simulate_case``, ``write_cube``, ``read_cube``, ``estimate_p`` and ``evaluate``, then ``cli evaluate``."""
    truth = low_rank_cube(ASSESS_JOB_SHAPE, TuckerRanks(5, 5, 2), seed=7)
    noisy, _ = hsirestore.noise.simulate_case(truth, case_spec(5, seed=7))
    truth_path, noisy_path = tmp_path / "truth.cube", tmp_path / "noisy.cube"
    hsirestore.fileio.write_cube(noisy_path, noisy)
    y = hsirestore.fileio.read_cube(noisy_path, normalize=True)
    hsirestore.gradient_fit.estimate_p(y)
    hsirestore.metrics.evaluate(truth, noisy)
    hsirestore.fileio.write_cube(truth_path, truth)
    argv = ["evaluate", "--ref", str(truth_path), "--test", str(noisy_path), "--out", str(tmp_path / "report.csv")]
    assert hsirestore.cli.main(argv) == 0


def test_traced_names_run_on_the_main_thread_in_assessment(monkeypatch, tmp_path):
    monkeypatch.setattr(hsirestore.tensor_ops, "_helper_wanted", lambda: True)
    helper_threads = threads_of_tasks(monkeypatch)
    calls = record_wrapped_threads(monkeypatch)
    assess_job(tmp_path)
    assert {
        "noise.simulate_case", "fileio.write_cube", "fileio.read_cube", "gradient_fit.estimate_p",
        "metrics.evaluate", "metrics.ssim", "cli.main",
    } <= {span for span, _ in calls}
    assert {thread for _, thread in calls} == {threading.main_thread()}
    assert any(t is not threading.main_thread() for t in helper_threads)


@pytest.mark.parametrize("entry", ["solve", "solve-max_iter=1", "cli-denoise", "assess"])
def test_tracer_notes_read_real_results(monkeypatch, tmp_path, entry):
    # every span note, the update_f one on the stack update_f returns included,
    # runs on what a tiny traced job really returns
    monkeypatch.setattr(hsirestore.tensor_ops, "_helper_wanted", lambda: True)
    tracing = load_tracing()
    noisy = noisy_cube((16, 16, 6), TuckerRanks(3, 3, 2))
    path, config = tmp_path / "noisy.cube", tmp_path / "config.txt"
    write_cube(path, noisy)
    max_iter = 1 if entry == "solve-max_iter=1" else 3
    config.write_text(f"max_iter={max_iter}\n")
    tracer = tracing.Tracer()
    with tracer.job(0):
        if entry.startswith("solve"):
            hsirestore.solver.solve(noisy, SolverConfig(max_iter=max_iter))
        elif entry == "assess":
            assess_job(tmp_path)
        else:
            argv = ["denoise", "--in", str(path), "--out-dir", str(tmp_path / "out"), "--config", str(config)]
            assert hsirestore.cli.main(argv) == 0
    spans = tracer.job_spans(0)
    assert tracing.nesting_problems(spans) == []
    metrics = tracing.job_layer_metrics(spans, job_s=1.0)
    assert set(metrics) == set(tracing.PER_LAYER) - {"trace.overhead_s"}
    if entry == "assess":
        # evaluate's bands, then cli evaluate's
        assert metrics["metrics.ssim_calls"] == 2 * ASSESS_JOB_SHAPE[2]
        assert metrics["solver.iterations"] == 0
        return
    assert metrics["solver.iterations"] == max_iter
    # the stopping iteration runs no f-step, so one iteration alone runs none
    assert sum(span.name == "solver.update_f" for span in spans) == max_iter - 1
    if max_iter == 1:
        assert metrics["solver.f_nonzero_fraction"] == 0.0
    else:
        assert 0.0 <= metrics["solver.f_nonzero_fraction"] <= 1.0


def solve_peak_in_cubes(monkeypatch, p_override, max_iter=5):
    monkeypatch.setattr(hsirestore.tensor_ops, "_helper_wanted", lambda: True)
    truth = low_rank_cube((64, 64, 32), TuckerRanks(10, 10, 5), seed=7)
    noisy, _ = simulate_case(truth, case_spec(2, seed=7))
    # once per process: the Fourier multipliers' cache, the helper thread and its import
    solve(noisy, SolverConfig(max_iter=1, p_override=p_override))
    _, peak = traced_peak(solve, noisy, SolverConfig(max_iter=max_iter, p_override=p_override))
    return peak / noisy.nbytes


# The state holds 12 cubes (x, z, s, dual_x, the two gradient stacks and two
# scratch cubes), and each iteration's cube temporaries go into those buffers
# or run in blocks.  The peak comes where the lanes allocate at once, this
# thread's x-step beside the helper's f-step Newton arrays and next z-step
# terms: 15.8-16.3 cubes at fitted p.
def test_solve_peak_memory_at_64x64x32(monkeypatch):
    assert solve_peak_in_cubes(monkeypatch, None) <= 16.6


def test_full_solve_peak_memory_at_64x64x32(monkeypatch):
    # the whole default-length solve, not only its first iterations
    assert solve_peak_in_cubes(monkeypatch, None, max_iter=100) <= 16.6


def test_solve_peak_memory_at_64x64x32_at_p_1(monkeypatch):
    # the shrinkage is an in-place soft threshold here: about 15.45
    assert solve_peak_in_cubes(monkeypatch, (1.0, 1.0, 1.0)) <= 15.9
