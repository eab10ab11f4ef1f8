"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The end-to-end fixtures share one module-scoped solve so the whole suite
stays well inside its runtime budget.  Everything is seeded; reruns are
bit-identical.
"""

import csv
import time
from dataclasses import replace

import numpy as np
import pytest

from hsirestore.cli import main as cli_main
from hsirestore.fileio import read_cube, write_cube
from hsirestore.gradient_fit import _fit_masses, histogram, convolve_hist
from hsirestore.metrics import evaluate, psnr, sam, ssim
from hsirestore.noise import _stripe_profile, case_spec, simulate_case
from hsirestore.priors import GradientStack, _gst_shrink_in_place, diff_adjoint, diff_forward
from hsirestore.solver import DIFF_WEIGHTS, SolverConfig, SolverState, solve, update_z
from hsirestore.synthetic import low_rank_cube
from hsirestore.tensor_ops import fold, fro_norm, unfold
from hsirestore.tucker import TuckerRanks, hooi, hosvd_init, reconstruct
from oracles import (
    convolve_masses_oracle,
    dense_difference_matrix,
    gst_minimize_oracle,
    gst_objective,
    psnr_oracle,
    sam_oracle,
    sample_hyper_laplacian,
    ssim_oracle,
)

EPSILON = 1e-6
K_MAX = 100


def report(n, name, elapsed, budget):
    print(f"ACCEPTANCE {n} ({name}): PASS in {elapsed:.1f}s (budget {budget:.0f}s)")
    assert elapsed < budget


@pytest.fixture(scope="module")
def case2_fixture():
    """48x48x16 low-rank truth, Case2-analog noise, seed 7, shared solves."""
    truth = low_rank_cube((48, 48, 16), TuckerRanks(5, 5, 3), seed=7)
    spec = case_spec(2, seed=7, stripe_amplitude=0.5)
    noisy, components = simulate_case(truth, spec)
    cfg = SolverConfig(
        ranks_x=TuckerRanks(8, 8, 5),
        ranks_b=TuckerRanks(1, 24, 16),
        epsilon=EPSILON,
        max_iter=K_MAX,
    )
    t0 = time.perf_counter()
    full, full_diag = solve(noisy, cfg)
    ablated, ablated_diag = solve(noisy, replace(cfg, stripe_enabled=False))
    elapsed = time.perf_counter() - t0
    return dict(
        truth=truth,
        noisy=noisy,
        components=components,
        cfg=cfg,
        full=full,
        full_diag=full_diag,
        ablated=ablated,
        ablated_diag=ablated_diag,
        solve_seconds=elapsed,
    )


@pytest.fixture(scope="module")
def stripes_only_fixture():
    truth = low_rank_cube((48, 48, 16), TuckerRanks(5, 5, 3), seed=11)
    profile = _stripe_profile(48, 16, "random", (0.4, 0.5), 0.25, np.random.default_rng(13))
    stripe_field = np.broadcast_to(profile, truth.shape)
    noisy = truth + stripe_field
    cfg = SolverConfig(
        ranks_x=TuckerRanks(8, 8, 5),
        ranks_b=TuckerRanks(1, 24, 16),
        epsilon=EPSILON,
        max_iter=K_MAX,
    )
    dec, diag = solve(noisy, cfg)
    return dict(truth=truth, noisy=noisy, stripe_field=stripe_field, dec=dec, diag=diag)


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()

    # generalized shrinkage vs dense 1-D search, 200 random triples
    rng = np.random.default_rng(42)
    for _ in range(200):
        y = rng.uniform(-3, 3)
        tau = rng.uniform(0.01, 1.0)
        p = rng.uniform(0.2, 0.99)
        got = _gst_shrink_in_place(np.array([y]), tau, p)[0]
        best = gst_minimize_oracle(y, tau, p)
        assert gst_objective(got, y, tau, p) <= gst_objective(best, y, tau, p) + 1e-6

    # FFT splitting solve vs dense linear solve on 4x4x3
    shape = (4, 4, 3)
    weights = DIFF_WEIGHTS
    beta = 0.37
    state = SolverState.zeros(shape, beta)
    rng = np.random.default_rng(8)
    y = rng.standard_normal(shape)
    state.x = rng.standard_normal(shape)
    state.s = rng.standard_normal(shape)
    state.b = rng.standard_normal(shape)
    state.f = np.stack([rng.standard_normal(shape) for _ in range(3)])
    state.dual_x = rng.standard_normal(shape)
    state.dual_grad = np.stack([rng.standard_normal(shape) for _ in range(3)])
    cfg = SolverConfig(ranks_x=TuckerRanks(2, 2, 2), ranks_b=TuckerRanks(1, 2, 2))
    got = update_z(state, cfg, y)
    d = dense_difference_matrix(shape, weights)
    n = int(np.prod(shape))
    a = (1.0 + beta) * np.eye(n) + beta * (d.T @ d)
    shifted = GradientStack(beta * state.f - state.dual_grad)
    rhs = (y - state.b - state.s + state.dual_x + beta * state.x) + diff_adjoint(shifted, weights)
    residual = a @ got.ravel() - rhs.ravel()
    assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(rhs)

    # histogram convolution vs naive O(n^2) summation
    rng = np.random.default_rng(4)
    ha = histogram(rng.normal(0, 0.3, 4000))
    hb = histogram(rng.normal(0, 0.2, 4000))
    np.testing.assert_allclose(convolve_hist(ha, hb), convolve_masses_oracle(ha, hb), atol=1e-12)

    # metrics vs naive loop oracles
    rng = np.random.default_rng(5)
    ref = rng.random((18, 15))
    test = np.clip(ref + rng.normal(0, 0.1, ref.shape), 0, 1)
    assert psnr(ref, test) == pytest.approx(psnr_oracle(ref, test), abs=1e-10)
    assert ssim(ref, test) == pytest.approx(ssim_oracle(ref, test), abs=1e-6)
    s_ref, s_test = rng.random(12), rng.random(12)
    assert sam(s_ref, s_test) == pytest.approx(sam_oracle(s_ref, s_test), abs=1e-12)

    report(1, "oracle equivalence", time.perf_counter() - t0, 60)


def test_criterion_2_multilinear_invariants():
    t0 = time.perf_counter()

    # fold/unfold identity on random cubes, every mode
    rng = np.random.default_rng(0)
    for _ in range(20):
        shape = tuple(rng.integers(2, 7, size=3))
        t = rng.standard_normal(shape)
        for mode in (1, 2, 3):
            np.testing.assert_array_equal(fold(unfold(t, mode), mode, shape), t)

    # adjoint identity over 100 seeds at 1e-10
    weights = (1.0, 1.0, 0.5)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((4, 5, 3))
        g = GradientStack(np.stack([rng.standard_normal((4, 5, 3)) for _ in range(3)]))
        lhs = sum(float(np.sum(a * b)) for a, b in zip(diff_forward(x, weights).blocks(), g.blocks()))
        rhs = float(np.sum(x * diff_adjoint(g, weights)))
        assert abs(lhs - rhs) <= 1e-10

    # HOOI: monotone error, orthonormal factors, bounded by HOSVD
    t = np.random.default_rng(7).standard_normal((8, 8, 8))
    ranks = TuckerRanks(4, 4, 4)
    hosvd_err = fro_norm(t - reconstruct(hosvd_init(t, ranks)))
    fit = hooi(t, ranks)
    errors = [hosvd_err, fro_norm(t - reconstruct(fit))]
    for _ in range(7):
        fit = hooi(t, ranks, init=fit.factors)
        errors.append(fro_norm(t - reconstruct(fit)))
    for prev, cur in zip(errors, errors[1:]):
        assert cur <= prev + 1e-12
    assert errors[-1] <= hosvd_err + 1e-12
    for m in fit.factors:
        np.testing.assert_allclose(m.T @ m, np.eye(m.shape[1]), atol=1e-8)

    # full-rank exactness
    t = np.random.default_rng(11).standard_normal((4, 5, 6))
    full = hooi(t, TuckerRanks(4, 5, 6))
    assert fro_norm(t - reconstruct(full)) <= 1e-10 * fro_norm(t)

    report(2, "multilinear invariants", time.perf_counter() - t0, 60)


def test_criterion_3_adaptive_p_recovery():
    t0 = time.perf_counter()
    plants = ((0.5, 101), (0.7, 102), (0.9, 103))
    for p_star, seed in plants:
        rng = np.random.default_rng(seed)
        samples = sample_hyper_laplacian(10.0, p_star, 100_000, rng)
        noisy = samples + rng.normal(0.0, 0.01, samples.shape)
        _, p_hat, _ = _fit_masses(histogram(noisy), 0.01)
        assert abs(p_hat - p_star) <= 0.1, f"plant {p_star}: got {p_hat}"
    report(3, "adaptive-p recovery", time.perf_counter() - t0, 120)


def test_criterion_4_end_to_end_restoration(case2_fixture):
    t0 = time.perf_counter()
    fx = case2_fixture
    noisy_scores = evaluate(fx["truth"], fx["noisy"])
    restored_scores = evaluate(fx["truth"], fx["full"].clean)
    psnr_gain = restored_scores.mpsnr - noisy_scores.mpsnr
    ssim_gain = restored_scores.mssim - noisy_scores.mssim
    assert psnr_gain >= 10.0, f"MPSNR gain {psnr_gain:.2f} dB"
    assert ssim_gain >= 0.2, f"MSSIM gain {ssim_gain:.3f}"
    elapsed = time.perf_counter() - t0 + fx["solve_seconds"]
    print(
        f"  restoration: {noisy_scores.mpsnr:.2f} -> {restored_scores.mpsnr:.2f} dB,"
        f" ssim {noisy_scores.mssim:.3f} -> {restored_scores.mssim:.3f}"
    )
    report(4, "end-to-end restoration", elapsed, 300)


def test_criterion_5_stripe_separation_ablation(case2_fixture):
    t0 = time.perf_counter()
    fx = case2_fixture
    full_mpsnr = evaluate(fx["truth"], fx["full"].clean).mpsnr
    ablated_mpsnr = evaluate(fx["truth"], fx["ablated"].clean).mpsnr
    assert not fx["ablated"].stripes.any()
    gap = full_mpsnr - ablated_mpsnr
    assert gap >= 2.0, f"ablation gap {gap:.2f} dB"
    print(f"  stripe ablation: full {full_mpsnr:.2f} dB vs disabled {ablated_mpsnr:.2f} dB")
    report(5, "stripe-separation ablation", time.perf_counter() - t0 + fx["solve_seconds"], 300)


def test_criterion_6_convergence_and_additive_identity(case2_fixture, stripes_only_fixture):
    t0 = time.perf_counter()
    runs = [
        ("case2 full", case2_fixture["noisy"], case2_fixture["full"], case2_fixture["full_diag"]),
        ("case2 ablated", case2_fixture["noisy"], case2_fixture["ablated"], case2_fixture["ablated_diag"]),
        ("stripes only", stripes_only_fixture["noisy"], stripes_only_fixture["dec"], stripes_only_fixture["diag"]),
    ]
    for name, y, dec, diag in runs:
        assert diag.converged, f"{name}: no convergence within {K_MAX} iterations"
        assert diag.iterations <= K_MAX
        assert diag.rel_change[-1] <= EPSILON, name
        assert all(np.isfinite(r) for r in diag.rel_change), name
        # additive identity: the stored residual is exactly the remainder of
        # the other three components under the documented evaluation order
        np.testing.assert_array_equal(
            dec.residual, y - (dec.clean + dec.sparse + dec.stripes), err_msg=name
        )
        # and re-summing reproduces the observation to the final rounding
        resum = (dec.clean + dec.sparse + dec.stripes) + dec.residual
        assert np.max(np.abs(resum - y)) <= np.max(np.spacing(np.abs(y))), name
    report(6, "convergence and additive identity", time.perf_counter() - t0, 60)


def test_criterion_7_pipeline_determinism(tmp_path):
    t0 = time.perf_counter()
    truth = low_rank_cube((48, 48, 16), TuckerRanks(5, 5, 3), seed=7)
    truth_path = tmp_path / "truth.cube"
    write_cube(truth_path, truth)
    config_path = tmp_path / "config.txt"
    config_path.write_text("ranks_x=8,8,5\nranks_b=1,24,16\n")

    blobs = []
    gains = []
    for run in ("a", "b"):
        sim = tmp_path / f"sim_{run}"
        den = tmp_path / f"den_{run}"
        rep = den / "report.csv"
        den.mkdir()
        assert cli_main(["simulate", "--truth", str(truth_path), "--case", "2",
                         "--seed", "7", "--out-dir", str(sim)]) == 0
        assert cli_main(["denoise", "--in", str(sim / "noisy.cube"),
                         "--config", str(config_path), "--out-dir", str(den)]) == 0
        assert cli_main(["evaluate", "--ref", str(truth_path),
                         "--test", str(den / "clean.cube"), "--out", str(rep)]) == 0
        files = sorted(list(sim.iterdir()) + list(den.iterdir()))
        blobs.append([(f.name, f.read_bytes()) for f in files])

        with open(rep, newline="") as fh:
            mean_row = list(csv.reader(fh))[-1]
        restored_mpsnr = float(mean_row[1])
        noisy_mpsnr = evaluate(truth, read_cube(sim / "noisy.cube")).mpsnr
        gains.append(restored_mpsnr - noisy_mpsnr)

        with open(den / "diagnostics.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) <= K_MAX
        assert float(rows[-1][1]) <= EPSILON

    assert blobs[0] == blobs[1], "pipeline outputs differ between identical runs"
    assert gains[0] >= 10.0, f"CLI pipeline MPSNR gain {gains[0]:.2f} dB"
    report(7, "pipeline determinism", time.perf_counter() - t0, 300)
