import numpy as np
import pytest
from dataclasses import replace

from hsirestore.metrics import evaluate
from hsirestore.noise import _stripe_field, case_spec, simulate_case
from hsirestore.priors import GradientStack, TvWeights, diff_adjoint, diff_forward, soft_threshold
from hsirestore.solver import (
    BETA_MAX,
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
        state.f = GradientStack(np.stack([rng.standard_normal(shape) for _ in range(3)]))
        state.dual_x = rng.standard_normal(shape)
        state.dual_grad = GradientStack(np.stack([rng.standard_normal(shape) for _ in range(3)]))
    return state


def z_step_rhs(state, y, weights):
    """Right-hand side of the z-step, written out as one plain expression per term."""
    shifted = GradientStack(
        np.stack([state.beta * f - g for f, g in zip(state.f.blocks(), state.dual_grad.blocks())])
    )
    return (
        y - state.b - state.s + state.dual_x + state.beta * state.x
    ) + diff_adjoint(shifted, weights)


def f_step_target(state, cfg):
    """``D z + dual_grad / beta`` block by block, the target of the f-step."""
    dz = diff_forward(state.z, cfg.weights)
    return [d + g * (1 / state.beta) for d, g in zip(dz.blocks(), state.dual_grad.blocks())]


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
        rhs_cube = z_step_rhs(state, y, weights)
        expected = np.linalg.solve(a, rhs_cube.ravel()).reshape(shape)
        np.testing.assert_allclose(got, expected, atol=1e-10)
        residual = a @ got.ravel() - rhs_cube.ravel()
        assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(rhs_cube)

    @pytest.mark.parametrize(
        "shape, weights, beta",
        [
            ((4, 4, 4), TvWeights(1.0, 1.0, 0.5), 0.61),  # even band count
            ((3, 4, 2), TvWeights(1.0, 0.8, 0.4), 0.61),
            ((5, 3, 1), TvWeights(1.0, 1.0, 0.5), 0.61),  # single band
            # at beta=0 the multiplier term -D^T dual_grad stays in the right-hand side
            ((4, 4, 4), TvWeights(1.0, 1.0, 0.5), 0.0),
            ((3, 4, 2), TvWeights(1.0, 0.8, 0.4), 0.0),
            ((5, 3, 1), TvWeights(1.0, 1.0, 0.5), 0.0),
        ],
        ids=["shape0-weights0", "shape1-weights1", "shape2-weights2", "beta0-shape0", "beta0-shape1", "beta0-shape2"],
    )
    def test_real_fft_solve_matches_dense_solve(self, shape, weights, beta):
        y = np.random.default_rng(30).standard_normal(shape)
        state = make_state(shape, beta=beta, seed=31)
        got = update_z(state, small_cfg(weights=weights), y)
        d = dense_difference_matrix(shape, weights)
        a = (1.0 + beta) * np.eye(int(np.prod(shape))) + beta * (d.T @ d)
        rhs = z_step_rhs(state, y, weights)
        assert got.shape == shape
        residual = a @ got.ravel() - rhs.ravel()
        assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(rhs)


    def test_equals_the_plain_expression_bit_for_bit(self):
        # the in-place right-hand side keeps the operation order of the plain expression
        shape, weights, beta = (5, 4, 6), TvWeights(1.0, 0.8, 0.5), 0.61
        y = np.random.default_rng(32).standard_normal(shape)
        state = make_state(shape, beta=beta, seed=33)
        got = update_z(state, small_cfg(weights=weights), y)
        mults = [
            w**2 * (2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n))
            for n, w in zip(shape, weights.as_tuple())
        ]
        half = shape[2] // 2 + 1
        transfer = mults[0][:, None, None] + mults[1][None, :, None] + mults[2][None, None, :half]
        axes = (0, 1, 2)
        spectrum = np.fft.rfftn(z_step_rhs(state, y, weights), axes=axes)
        expected = np.fft.irfftn(spectrum / (1.0 + beta + beta * transfer), s=shape, axes=axes)
        assert got.tobytes() == expected.tobytes()


class TestUpdateF:
    def test_zero_tv_weight_is_identity(self):
        shape = (4, 5, 3)
        state = make_state(shape, beta=0.9, seed=10)
        cfg = small_cfg(lambda_tv=0.0)
        got = update_f(state, cfg, (0.6, 0.7, 0.5), diff_forward(state.z, cfg.weights))
        for a, b in zip(got.blocks(), f_step_target(state, cfg)):
            np.testing.assert_array_equal(a, b)

    def test_p_one_is_blockwise_soft_threshold(self):
        shape = (4, 4, 4)
        state = make_state(shape, beta=0.5, seed=11)
        cfg = small_cfg(lambda_tv=0.01)
        got = update_f(state, cfg, (1.0, 1.0, 1.0), diff_forward(state.z, cfg.weights))
        for a, b in zip(got.blocks(), f_step_target(state, cfg)):
            np.testing.assert_allclose(a, soft_threshold(b, cfg.lambda_tv / state.beta), atol=1e-14)

    def test_elementwise_objective_optimality(self):
        shape = (3, 3, 3)
        state = make_state(shape, beta=0.4, seed=12)
        cfg = small_cfg(lambda_tv=0.02)
        p_values = (0.642, 0.684, 0.485)
        got = update_f(state, cfg, p_values, diff_forward(state.z, cfg.weights))
        tau = cfg.lambda_tv / state.beta
        for block, source, p in zip(got.blocks(), f_step_target(state, cfg), p_values):
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
        dual_x, dual_grad, beta = update_multipliers(state, cfg, diff_forward(state.z, cfg.weights))
        np.testing.assert_array_equal(dual_x, state.dual_x)
        for a, b in zip(dual_grad.blocks(), state.dual_grad.blocks()):
            np.testing.assert_allclose(a, b, atol=1e-15)
        assert beta == pytest.approx(0.5 * cfg.beta_growth)

    def test_beta_capped_at_max(self):
        shape = (3, 3, 3)
        state = make_state(shape, beta=BETA_MAX, seed=22)
        cfg = small_cfg()
        _, _, beta = update_multipliers(state, cfg, diff_forward(state.z, cfg.weights))
        assert beta == BETA_MAX

    def test_random_mismatch_arithmetic(self):
        shape = (4, 3, 3)
        state = make_state(shape, beta=0.8, seed=23)
        cfg = small_cfg()
        dual_x, dual_grad, _ = update_multipliers(state, cfg, diff_forward(state.z, cfg.weights))
        # bit for bit: the in-place update keeps the plain expression's operation order
        np.testing.assert_array_equal(dual_x, state.dual_x + 0.8 * (state.x - state.z))
        dz = diff_forward(state.z, cfg.weights)
        gap = [d - f for d, f in zip(dz.blocks(), state.f.blocks())]
        for a, old, g in zip(dual_grad.blocks(), state.dual_grad.blocks(), gap):
            np.testing.assert_array_equal(a, old + 0.8 * g)


def held_arrays(state, y):
    """Every array the solver state and the observation hold, by name."""
    named = {"y": y}
    for name in ("x", "z", "s", "b", "dual_x"):
        named[name] = getattr(state, name)
    for name in ("f", "dual_grad"):
        for axis, block in zip("hwp", getattr(state, name).blocks()):
            named[f"{name}.g{axis}"] = block
    for name in ("x_factors", "b_factors"):
        for i, factor in enumerate(getattr(state, name) or ()):
            named[f"{name}[{i}]"] = factor
    return named


def returned_arrays(out):
    if isinstance(out, np.ndarray):
        return [out]
    if isinstance(out, GradientStack):
        return list(out.blocks())
    if isinstance(out, tuple):
        return [a for item in out for a in returned_arrays(item)]
    return []


class TestUpdatesLeaveInputsAlone:
    """The updates may work in place only on their own temporaries."""

    @pytest.mark.parametrize(
        "update", ["update_x", "update_z", "update_f", "update_b", "update_s", "update_multipliers"]
    )
    def test_inputs_unchanged_and_outputs_unshared(self, update):
        shape = (6, 5, 4)
        cfg = small_cfg()
        state = make_state(shape, beta=0.6, seed=43)
        y = np.random.default_rng(44).standard_normal(shape)
        # warm factors, so that the HOOI updates also start from arrays the state holds
        state.x_factors = hosvd_init(state.z, cfg.ranks_x).factors
        state.b_factors = hosvd_init(y - state.z - state.s, cfg.ranks_b).factors
        dz = diff_forward(state.z, cfg.weights)
        inputs = held_arrays(state, y)
        inputs.update({f"dz.g{axis}": block for axis, block in zip("hwp", dz.blocks())})
        before = {name: a.tobytes() for name, a in inputs.items()}
        calls = {
            "update_x": lambda: update_x(state, cfg),
            "update_z": lambda: update_z(state, cfg, y),
            "update_f": lambda: update_f(state, cfg, (0.6, 0.7, 0.5), dz),
            "update_b": lambda: update_b(state, cfg, y),
            "update_s": lambda: update_s(state, cfg, y),
            "update_multipliers": lambda: update_multipliers(state, cfg, dz),
        }
        outputs = returned_arrays(calls[update]())
        assert outputs
        for name, a in inputs.items():
            assert a.tobytes() == before[name], f"{update} wrote into {name}"
            for out in outputs:
                assert not np.shares_memory(out, a), f"{update} returned a view of {name}"


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
            dz = diff_forward(state.z, cfg.weights)
            state.f = update_f(state, cfg, cfg.p_override, dz)
            state.b = update_b(state, cfg, y)
            state.s = update_s(state, cfg, y)
            state.dual_x, state.dual_grad, state.beta = update_multipliers(state, cfg, dz)

    def test_stripes_only_input_separates_stripe_field(self):
        truth = low_rank_cube((48, 48, 16), TuckerRanks(5, 5, 3), seed=11)
        rng = np.random.default_rng(13)
        stripe_field = _stripe_field(truth.shape, "random", (0.4, 0.5), 0.25, rng)
        noisy = truth + stripe_field
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

    @pytest.mark.parametrize("stripe_enabled, svds_per_fit", [(True, 6), (False, 3)])
    def test_one_tucker_sweep_per_term_per_iteration(
        self, monkeypatch, stripe_enabled, svds_per_fit
    ):
        # each fit is one sweep (three subspace solves); the first fit of each
        # term also runs the three of its truncated-HOSVD start
        import hsirestore.tucker

        calls = []
        real_svd = hsirestore.tucker.leading_left_singular_vectors

        def counting_svd(m, r):
            calls.append(r)
            return real_svd(m, r)

        monkeypatch.setattr(hsirestore.tucker, "leading_left_singular_vectors", counting_svd)
        truth = low_rank_cube((12, 12, 6), TuckerRanks(3, 3, 2), seed=37)
        noisy, _ = simulate_case(truth, case_spec(2, seed=37))
        cfg = SolverConfig(
            ranks_x=TuckerRanks(4, 4, 3), max_iter=8, p_override=(0.7, 0.7, 0.7),
            stripe_enabled=stripe_enabled,
        )
        _, diag = solve(noisy, cfg)
        assert len(calls) == svds_per_fit * diag.iterations + svds_per_fit

    @pytest.mark.parametrize("stripe_enabled, terms", [(True, 2), (False, 1)])
    def test_mode_product_budget(self, monkeypatch, stripe_enabled, terms):
        # a fit is one sweep (6 products) plus its reconstruction (3); each
        # term's cold start adds the 3 of its truncated-HOSVD core
        import hsirestore.tucker

        truth = low_rank_cube((12, 12, 6), TuckerRanks(3, 3, 2), seed=41)
        noisy, _ = simulate_case(truth, case_spec(2, seed=41))
        cfg = SolverConfig(
            ranks_x=TuckerRanks(4, 4, 3), max_iter=8, p_override=(0.7, 0.7, 0.7),
            stripe_enabled=stripe_enabled,
        )
        calls = []
        real_mode_product = hsirestore.tucker.mode_product

        def counting_mode_product(t, m, mode):
            calls.append(mode)
            return real_mode_product(t, m, mode)

        monkeypatch.setattr(hsirestore.tucker, "mode_product", counting_mode_product)
        _, diag = solve(noisy, cfg)
        assert len(calls) == 9 * terms * diag.iterations + 3 * terms

    def test_one_gradient_of_z_per_iteration(self, monkeypatch):
        # D z is formed once per iteration and shared by the f-step and the dual step
        import hsirestore.solver

        truth = low_rank_cube((12, 12, 6), TuckerRanks(3, 3, 2), seed=47)
        noisy, _ = simulate_case(truth, case_spec(2, seed=47))
        cfg = SolverConfig(ranks_x=TuckerRanks(4, 4, 3), max_iter=8, p_override=(0.7, 0.7, 0.7))
        calls = []
        real_diff_forward = hsirestore.solver.diff_forward

        def counting_diff_forward(t, weights):
            calls.append(t)
            return real_diff_forward(t, weights)

        monkeypatch.setattr(hsirestore.solver, "diff_forward", counting_diff_forward)
        _, diag = solve(noisy, cfg)
        assert diag.iterations == 8
        assert len(calls) == diag.iterations

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

    def test_resolved_ranks_are_the_feasible_ranks_solved_at(self):
        # denoise-64's default triples are feasible; case2-48's stripe ranks
        # (1, 24, 16) are not, and hooi fits them at (1, 16, 16)
        cfg = SolverConfig().resolve_ranks((64, 64, 32))
        assert (cfg.ranks_x.as_tuple(), cfg.ranks_b.as_tuple()) == ((51, 51, 10), (1, 16, 16))
        cfg = SolverConfig(ranks_x=TuckerRanks(8, 8, 5), ranks_b=TuckerRanks(1, 24, 16))
        cfg = cfg.resolve_ranks((48, 48, 16))
        assert (cfg.ranks_x.as_tuple(), cfg.ranks_b.as_tuple()) == ((8, 8, 5), (1, 16, 16))

    def test_ranks_above_the_shape_rejected_by_resolve(self):
        with pytest.raises(ValueError, match="exceeds"):
            SolverConfig(ranks_x=TuckerRanks(9, 4, 2)).resolve_ranks((8, 8, 4))

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(lambda_tv=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(beta0=2.0 * BETA_MAX)
        with pytest.raises(ValueError, match="beta0"):
            SolverConfig(beta0=0.0)
        with pytest.raises(ValueError):
            SolverConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            SolverConfig(p_override=(0.5, 0.5, 1.5))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("p_override", (0.5, 0.5)),
            ("p_override", ()),
            ("p_override", 0.5),
            ("max_iter", 2.5),
            ("stripe_enabled", "no"),
            ("stripe_enabled", 1),
            ("ranks_x", (4, 4, 2)),
            ("ranks_b", (1, 4, 2)),
            ("weights", (1, 1, 0.5)),
            ("max_iter", True),
        ],
    )
    def test_malformed_field_rejected_up_front(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: value})
