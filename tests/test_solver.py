import numpy as np
import pytest
from dataclasses import replace

from hsirestore.metrics import evaluate
from hsirestore.noise import add_stripes, case_spec, simulate_case
from hsirestore.priors import GradientStack, TvWeights, diff_adjoint, diff_forward, soft_threshold
from hsirestore.solver import (
    SolverConfig,
    SolverState,
    default_image_ranks,
    default_stripe_ranks,
    solve,
    update_b,
    update_f,
    update_multipliers,
    update_s,
    update_x,
    update_z,
)
from hsirestore.synthetic import low_rank_cube
from hsirestore.tensor_ops import fro_norm
from hsirestore.tucker import TuckerFactors, TuckerRanks, hosvd_init, reconstruct
from oracles import dense_difference_matrix, gst_minimize_oracle, gst_objective


def make_state(shape, beta, seed=0, zero=False):
    state = SolverState.zeros(shape, beta)
    if not zero:
        rng = np.random.default_rng(seed)
        state.x = rng.standard_normal(shape)
        state.z = rng.standard_normal(shape)
        state.s = rng.standard_normal(shape)
        state.b = rng.standard_normal(shape)
        state.f = GradientStack(*(rng.standard_normal(shape) for _ in range(3)))
        state.dual_x = rng.standard_normal(shape)
        state.dual_grad = GradientStack(*(rng.standard_normal(shape) for _ in range(3)))
    return state


def small_cfg(**overrides):
    base = dict(
        ranks_x=TuckerRanks(2, 2, 2),
        ranks_b=TuckerRanks(1, 2, 2),
        p_override=(0.7, 0.7, 0.7),
    )
    base.update(overrides)
    return SolverConfig(**base)


class TestUpdateX:
    def test_representable_target_is_fixed_point(self):
        shape = (6, 6, 4)
        rng = np.random.default_rng(1)
        factors = tuple(np.linalg.qr(rng.standard_normal((n, 2)))[0] for n in shape)
        target = reconstruct(TuckerFactors(rng.standard_normal((2, 2, 2)), factors))
        state = make_state(shape, beta=0.5, zero=True)
        state.z = target.copy()  # dual is zero, so the fit target equals `target`
        got = update_x(state, small_cfg())
        assert fro_norm(got - target) <= 1e-8 * fro_norm(target)

    def test_full_ranks_return_target_exactly(self):
        shape = (4, 4, 3)
        state = make_state(shape, beta=0.7, seed=2)
        cfg = small_cfg(ranks_x=TuckerRanks(4, 4, 3))
        target = (state.beta * state.z - state.dual_x) / state.beta
        assert fro_norm(update_x(state, cfg) - target) <= 1e-10 * fro_norm(target)

    def test_fit_error_never_exceeds_hosvd(self):
        shape = (8, 8, 8)
        state = make_state(shape, beta=1.0, seed=3)
        cfg = small_cfg(ranks_x=TuckerRanks(4, 4, 4))
        target = (state.beta * state.z - state.dual_x) / state.beta
        hosvd_err = fro_norm(target - reconstruct(hosvd_init(target, cfg.ranks_x)))
        assert fro_norm(update_x(state, cfg) - target) <= hosvd_err + 1e-12


class TestUpdateZ:
    def test_beta_zero_degenerates_to_data_term(self):
        shape = (4, 5, 3)
        rng = np.random.default_rng(4)
        y = rng.standard_normal(shape)
        state = make_state(shape, beta=0.0, seed=5)
        got = update_z(state, small_cfg(), y)
        expected = y - state.b - state.s + state.dual_x
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_zero_weights_scale_rhs(self):
        shape = (4, 4, 3)
        rng = np.random.default_rng(6)
        y = rng.standard_normal(shape)
        state = make_state(shape, beta=0.8, seed=7)
        cfg = small_cfg(weights=TvWeights(0.0, 0.0, 0.0))
        got = update_z(state, cfg, y)
        rhs = y - state.b - state.s + state.dual_x + state.beta * state.x
        np.testing.assert_allclose(got, rhs / (1.0 + state.beta), atol=1e-12)

    def test_matches_dense_solve_oracle(self):
        shape = (4, 4, 3)
        beta = 0.37
        weights = TvWeights(1.0, 1.0, 0.5)
        rng = np.random.default_rng(8)
        y = rng.standard_normal(shape)
        state = make_state(shape, beta=beta, seed=9)
        cfg = small_cfg(weights=weights)
        got = update_z(state, cfg, y)

        d = dense_difference_matrix(shape, weights)
        n = np.prod(shape)
        a = (1.0 + beta) * np.eye(n) + beta * (d.T @ d)
        from hsirestore.priors import diff_adjoint

        rhs_cube = (y - state.b - state.s + state.dual_x + beta * state.x) + diff_adjoint(
            state.beta * state.f - state.dual_grad, weights
        )
        expected = np.linalg.solve(a, rhs_cube.ravel()).reshape(shape)
        np.testing.assert_allclose(got, expected, atol=1e-10)
        residual = a @ got.ravel() - rhs_cube.ravel()
        assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(rhs_cube)

    @pytest.mark.parametrize(
        "shape, weights",
        [
            ((4, 4, 4), TvWeights(1.0, 1.0, 0.5)),  # even band count
            ((3, 4, 2), TvWeights(1.0, 0.8, 0.4)),
            ((5, 3, 1), TvWeights(1.0, 1.0, 0.5)),  # single band
        ],
    )
    def test_real_fft_solve_matches_dense_solve(self, shape, weights):
        beta = 0.61
        y = np.random.default_rng(30).standard_normal(shape)
        state = make_state(shape, beta=beta, seed=31)
        got = update_z(state, small_cfg(weights=weights), y)
        d = dense_difference_matrix(shape, weights)
        a = (1.0 + beta) * np.eye(int(np.prod(shape))) + beta * (d.T @ d)
        rhs = (y - state.b - state.s + state.dual_x + beta * state.x) + diff_adjoint(
            beta * state.f - state.dual_grad, weights
        )
        assert got.shape == shape
        residual = a @ got.ravel() - rhs.ravel()
        assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(rhs)


class TestUpdateF:
    def test_zero_tv_weight_is_identity(self):
        shape = (4, 5, 3)
        state = make_state(shape, beta=0.9, seed=10)
        cfg = small_cfg(lambda_tv=0.0)
        got = update_f(state, cfg, (0.6, 0.7, 0.5))
        expected = diff_forward(state.z, cfg.weights) + state.dual_grad * (1 / state.beta)
        for a, b in zip(got.blocks(), expected.blocks()):
            np.testing.assert_array_equal(a, b)

    def test_p_one_is_blockwise_soft_threshold(self):
        shape = (4, 4, 4)
        state = make_state(shape, beta=0.5, seed=11)
        cfg = small_cfg(lambda_tv=0.01)
        got = update_f(state, cfg, (1.0, 1.0, 1.0))
        target = diff_forward(state.z, cfg.weights) + state.dual_grad * (1 / state.beta)
        for a, b in zip(got.blocks(), target.blocks()):
            np.testing.assert_allclose(a, soft_threshold(b, cfg.lambda_tv / state.beta), atol=1e-14)

    def test_elementwise_objective_optimality(self):
        shape = (3, 3, 3)
        state = make_state(shape, beta=0.4, seed=12)
        cfg = small_cfg(lambda_tv=0.02)
        p_values = (0.642, 0.684, 0.485)
        got = update_f(state, cfg, p_values)
        target = diff_forward(state.z, cfg.weights) + state.dual_grad * (1 / state.beta)
        tau = cfg.lambda_tv / state.beta
        for block, source, p in zip(got.blocks(), target.blocks(), p_values):
            for v, y in zip(block.ravel(), source.ravel()):
                best = gst_minimize_oracle(float(y), tau, p)
                assert gst_objective(float(v), float(y), tau, p) <= (
                    gst_objective(best, float(y), tau, p) + 1e-6
                )


class TestUpdateB:
    def test_zero_target_gives_zero(self):
        shape = (5, 5, 4)
        state = make_state(shape, beta=0.5, zero=True)
        y = np.zeros(shape)
        assert not update_b(state, small_cfg(), y).any()

    def test_exact_column_stripes_recovered(self):
        shape = (6, 8, 5)
        rng = np.random.default_rng(13)
        profile = rng.uniform(-0.25, 0.25, (shape[1], shape[2]))
        stripes = np.broadcast_to(profile[None], shape).copy()
        state = make_state(shape, beta=0.5, zero=True)
        cfg = small_cfg(ranks_b=TuckerRanks(1, 8, 5))
        got = update_b(state, cfg, stripes)
        assert fro_norm(got - stripes) <= 1e-8 * fro_norm(stripes)

    def test_error_bounded_by_hosvd(self):
        shape = (8, 8, 8)
        rng = np.random.default_rng(14)
        y = rng.standard_normal(shape)
        state = make_state(shape, beta=0.5, zero=True)
        cfg = small_cfg(ranks_b=TuckerRanks(2, 3, 2))
        got = update_b(state, cfg, y)
        hosvd_err = fro_norm(y - reconstruct(hosvd_init(y, cfg.ranks_b)))
        assert fro_norm(got - y) <= hosvd_err + 1e-12

    def test_disabled_stripe_term_returns_zero(self):
        shape = (5, 5, 4)
        state = make_state(shape, beta=0.5, seed=15)
        y = np.random.default_rng(16).standard_normal(shape)
        assert not update_b(state, small_cfg(stripe_enabled=False), y).any()


class TestUpdateS:
    def test_zero_residual_gives_zero(self):
        shape = (4, 4, 3)
        state = make_state(shape, beta=0.5, zero=True)
        assert not update_s(state, small_cfg(), np.zeros(shape)).any()

    def test_zero_lambda_keeps_residual(self):
        shape = (4, 4, 3)
        state = make_state(shape, beta=0.5, seed=17)
        y = np.random.default_rng(18).standard_normal(shape)
        got = update_s(state, small_cfg(lambda_sparse=0.0), y)
        np.testing.assert_array_equal(got, y - state.z - state.b)

    def test_matches_scalar_soft_threshold(self):
        shape = (3, 4, 2)
        state = make_state(shape, beta=0.5, seed=19)
        y = np.random.default_rng(20).standard_normal(shape)
        got = update_s(state, small_cfg(lambda_sparse=0.02), y)
        residual = y - state.z - state.b
        for v, r in zip(got.ravel(), residual.ravel()):
            assert v == pytest.approx(soft_threshold(float(r), 0.02), abs=1e-14)


class TestUpdateMultipliers:
    def test_satisfied_constraints_leave_multipliers_unchanged(self):
        shape = (4, 4, 3)
        state = make_state(shape, beta=0.5, seed=21)
        cfg = small_cfg()
        state.z = state.x.copy()
        state.f = diff_forward(state.z, cfg.weights)
        dual_x, dual_grad, beta = update_multipliers(state, cfg)
        np.testing.assert_array_equal(dual_x, state.dual_x)
        for a, b in zip(dual_grad.blocks(), state.dual_grad.blocks()):
            np.testing.assert_allclose(a, b, atol=1e-15)
        assert beta == pytest.approx(0.5 * cfg.beta_growth)

    def test_beta_capped_at_max(self):
        shape = (3, 3, 3)
        state = make_state(shape, beta=1e6, seed=22)
        _, _, beta = update_multipliers(state, small_cfg())
        assert beta == 1e6

    def test_random_mismatch_arithmetic(self):
        shape = (4, 3, 3)
        state = make_state(shape, beta=0.8, seed=23)
        cfg = small_cfg()
        dual_x, dual_grad, _ = update_multipliers(state, cfg)
        np.testing.assert_allclose(
            dual_x, state.dual_x + 0.8 * (state.x - state.z), atol=1e-14
        )
        gap = diff_forward(state.z, cfg.weights) - state.f
        for a, old, g in zip(dual_grad.blocks(), state.dual_grad.blocks(), gap.blocks()):
            np.testing.assert_allclose(a, old + 0.8 * g, atol=1e-14)


class TestSolve:
    def test_representable_input_recovered_with_zero_penalties(self):
        truth = low_rank_cube((16, 16, 8), TuckerRanks(4, 4, 3), seed=3)
        cfg = SolverConfig(
            lambda_tv=0.0,
            lambda_sparse=0.0,
            ranks_x=TuckerRanks(5, 5, 4),
            ranks_b=TuckerRanks(1, 1, 1),
            beta0=0.001,
            p_override=(0.7, 0.7, 0.7),
        )
        dec, diag = solve(truth, cfg)
        ny = fro_norm(truth)
        assert fro_norm(dec.clean - truth) <= 1e-2 * ny
        assert fro_norm(dec.sparse) <= 1e-2 * ny
        assert fro_norm(dec.stripes) <= 1e-2 * ny

    def test_full_rank_iterate_equals_its_target_algebra(self):
        # with lambda penalties off and full ranks the Tucker fit is exact,
        # so after any iteration x equals (beta*z_prev - dual_prev)/beta
        shape = (6, 6, 4)
        y = low_rank_cube(shape, TuckerRanks(3, 3, 2), seed=5)
        cfg = SolverConfig(
            lambda_tv=0.0,
            lambda_sparse=0.0,
            ranks_x=TuckerRanks(*shape),
            ranks_b=TuckerRanks(1, 1, 1),
            p_override=(0.7, 0.7, 0.7),
            max_iter=2,
            epsilon=1e-30,
        )
        state = SolverState.zeros(shape, cfg.beta0)
        cfg = cfg.resolve_ranks(shape)
        for _ in range(2):
            z_prev, dual_prev, beta_prev = state.z.copy(), state.dual_x.copy(), state.beta
            state.x = update_x(state, cfg)
            target = (beta_prev * z_prev - dual_prev) / beta_prev
            assert fro_norm(state.x - target) <= 1e-10 * max(fro_norm(target), 1.0)
            state.z = update_z(state, cfg, y)
            state.f = update_f(state, cfg, cfg.p_override)
            state.b = update_b(state, cfg, y)
            state.s = update_s(state, cfg, y)
            state.dual_x, state.dual_grad, state.beta = update_multipliers(state, cfg)

    def test_stripes_only_input_separates_stripe_field(self):
        truth = low_rank_cube((48, 48, 16), TuckerRanks(5, 5, 3), seed=11)
        rng = np.random.default_rng(13)
        noisy, stripe_field = add_stripes(truth, "random", (0.4, 0.5), rng)
        cfg = SolverConfig(ranks_x=TuckerRanks(8, 8, 5), ranks_b=TuckerRanks(1, 24, 16))
        dec, diag = solve(noisy, cfg)
        rel = fro_norm(dec.stripes - stripe_field) / fro_norm(stripe_field)
        assert rel <= 0.2

    def test_case2_analog_restoration_gain(self):
        truth = low_rank_cube((48, 48, 16), TuckerRanks(5, 5, 3), seed=7)
        noisy, _ = simulate_case(truth, case_spec(2, seed=7))
        cfg = SolverConfig(ranks_x=TuckerRanks(8, 8, 5), ranks_b=TuckerRanks(1, 24, 16))
        dec, diag = solve(noisy, cfg)
        gain = evaluate(truth, dec.clean).mpsnr - evaluate(truth, noisy).mpsnr
        assert gain >= 10.0
        assert diag.converged

    def test_residual_is_exact_remainder(self):
        truth = low_rank_cube((12, 12, 6), TuckerRanks(3, 3, 2), seed=17)
        noisy, _ = simulate_case(truth, case_spec(1, seed=17))
        dec, _ = solve(noisy, SolverConfig(max_iter=5, p_override=(0.7, 0.7, 0.7)))
        np.testing.assert_array_equal(
            dec.residual, noisy - (dec.clean + dec.sparse + dec.stripes)
        )

    def test_convergence_flag_matches_history(self):
        truth = low_rank_cube((16, 16, 8), TuckerRanks(3, 3, 2), seed=19)
        noisy, _ = simulate_case(truth, case_spec(1, seed=19))
        cfg = SolverConfig(ranks_x=TuckerRanks(5, 5, 3), p_override=(0.7, 0.7, 0.7))
        dec, diag = solve(noisy, cfg)
        assert diag.converged
        assert diag.rel_change[-1] <= cfg.epsilon
        assert len(diag.rel_change) == diag.iterations
        assert all(np.isfinite(r) for r in diag.rel_change)

    def test_nonconvergence_is_flagged_not_raised(self):
        truth = low_rank_cube((10, 10, 5), TuckerRanks(2, 2, 2), seed=23)
        noisy, _ = simulate_case(truth, case_spec(1, seed=23))
        dec, diag = solve(
            noisy, SolverConfig(max_iter=3, p_override=(0.7, 0.7, 0.7))
        )
        assert not diag.converged
        assert diag.iterations == 3

    def test_bit_identical_reruns(self):
        truth = low_rank_cube((16, 16, 8), TuckerRanks(3, 3, 2), seed=29)
        noisy, _ = simulate_case(truth, case_spec(2, seed=29))
        cfg = SolverConfig(ranks_x=TuckerRanks(5, 5, 3), max_iter=20)
        a, da = solve(noisy, cfg)
        b, db = solve(noisy, cfg)
        np.testing.assert_array_equal(a.clean, b.clean)
        np.testing.assert_array_equal(a.sparse, b.sparse)
        np.testing.assert_array_equal(a.stripes, b.stripes)
        np.testing.assert_array_equal(a.residual, b.residual)
        assert da.rel_change == db.rel_change

    def test_one_cold_tucker_start_per_term_per_solve(self, monkeypatch):
        import hsirestore.tucker

        cold_starts = []
        real_hosvd_init = hsirestore.tucker.hosvd_init

        def counting_hosvd_init(t, ranks):
            cold_starts.append(ranks)
            return real_hosvd_init(t, ranks)

        monkeypatch.setattr(hsirestore.tucker, "hosvd_init", counting_hosvd_init)
        truth = low_rank_cube((12, 12, 6), TuckerRanks(3, 3, 2), seed=31)
        noisy, _ = simulate_case(truth, case_spec(2, seed=31))
        cfg = SolverConfig(
            ranks_x=TuckerRanks(4, 4, 3), max_iter=6, epsilon=1e-30, p_override=(0.7, 0.7, 0.7)
        )
        for _ in range(2):
            cold_starts.clear()
            _, diag = solve(noisy, cfg)
            assert diag.iterations == 6
            # warm factors live in the solve's own state: each solve starts cold again
            assert len(cold_starts) == 2

    def test_non_finite_input_rejected(self):
        y = np.zeros((8, 8, 4))
        y[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            solve(y, SolverConfig())


class TestConfig:
    def test_default_ranks_follow_shape(self):
        assert default_image_ranks((48, 48, 16)).as_tuple() == (38, 38, 10)
        assert default_image_ranks((10, 10, 4)).as_tuple() == (8, 8, 4)
        # stripe ranks are clamped to a feasible multilinear triple
        assert default_stripe_ranks((48, 48, 16)).as_tuple() == (1, 8, 8)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(lambda_tv=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(beta0=2.0, beta_max=1.0)
        with pytest.raises(ValueError):
            SolverConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            SolverConfig(p_override=(0.5, 0.5, 1.5))
