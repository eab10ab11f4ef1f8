import numpy as np
import pytest
from dataclasses import replace

import hsirestore.solver
import hsirestore.tensor_ops
from hsirestore.fileio import normalize_bands
from hsirestore.metrics import evaluate
from hsirestore.noise import _stripe_profile, case_spec, simulate_case
from hsirestore.priors import GradientStack, diff_adjoint, diff_forward, soft_threshold
from hsirestore.solver import (
    BETA_MAX,
    DIFF_WEIGHTS,
    SolverConfig,
    SolverState,
    default_image_ranks,
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
from oracles import (
    dense_difference_matrix,
    gst_minimize_oracle,
    gst_objective,
    stripe_fit_error_oracle,
)


def make_state(shape, beta, seed=0, zero=False):
    state = SolverState.zeros(shape, beta)
    if not zero:
        rng = np.random.default_rng(seed)
        state.x = rng.standard_normal(shape)
        state.z = rng.standard_normal(shape)
        state.s = rng.standard_normal(shape)
        state.b = rng.standard_normal(shape)
        state.f = np.stack([rng.standard_normal(shape) for _ in range(3)])
        state.dual_x = rng.standard_normal(shape)
        state.dual_grad = np.stack([rng.standard_normal(shape) for _ in range(3)])
    return state


def z_step_rhs(state, y, weights):
    """Right-hand side of the z-step, written out as one plain expression per term."""
    shifted = GradientStack(state.beta * state.f - state.dual_grad)
    return (
        y - state.b - state.s + state.dual_x + state.beta * state.x
    ) + diff_adjoint(shifted, weights)


def f_step_target(state):
    """``D z + dual_grad / beta`` block by block, the target of the f-step."""
    dz = diff_forward(state.z, DIFF_WEIGHTS)
    return [d + g * (1 / state.beta) for d, g in zip(dz.blocks(), state.dual_grad)]


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
    def test_zero_weights_scale_rhs(self, monkeypatch):
        shape = (4, 4, 3)
        rng = np.random.default_rng(6)
        y = rng.standard_normal(shape)
        state = make_state(shape, beta=0.8, seed=7)
        monkeypatch.setattr(hsirestore.solver, "DIFF_WEIGHTS", (0.0, 0.0, 0.0))
        got = update_z(state, small_cfg(), y)
        rhs = y - state.b - state.s + state.dual_x + state.beta * state.x
        np.testing.assert_allclose(got, rhs / (1.0 + state.beta), atol=1e-12)

    def test_matches_dense_solve_oracle(self):
        shape = (4, 4, 3)
        beta = 0.37
        weights = DIFF_WEIGHTS
        rng = np.random.default_rng(8)
        y = rng.standard_normal(shape)
        state = make_state(shape, beta=beta, seed=9)
        got = update_z(state, small_cfg(), y)

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
            ((4, 4, 4), (1.0, 1.0, 0.5), 0.61),  # even band count
            ((3, 4, 2), (1.0, 0.8, 0.4), 0.61),
            ((5, 3, 1), (1.0, 1.0, 0.5), 0.61),  # single band
            # at beta=0 the multiplier term -D^T dual_grad stays in the right-hand side
            ((4, 4, 4), (1.0, 1.0, 0.5), 0.0),
            ((3, 4, 2), (1.0, 0.8, 0.4), 0.0),
            ((5, 3, 1), (1.0, 1.0, 0.5), 0.0),
        ],
        ids=["shape0-weights0", "shape1-weights1", "shape2-weights2", "beta0-shape0", "beta0-shape1", "beta0-shape2"],
    )
    def test_real_fft_solve_matches_dense_solve(self, monkeypatch, shape, weights, beta):
        y = np.random.default_rng(30).standard_normal(shape)
        state = make_state(shape, beta=beta, seed=31)
        monkeypatch.setattr(hsirestore.solver, "DIFF_WEIGHTS", weights)
        got = update_z(state, small_cfg(), y)
        d = dense_difference_matrix(shape, weights)
        a = (1.0 + beta) * np.eye(int(np.prod(shape))) + beta * (d.T @ d)
        rhs = z_step_rhs(state, y, weights)
        assert got.shape == shape
        residual = a @ got.ravel() - rhs.ravel()
        assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(rhs)


    def test_equals_the_plain_expression_bit_for_bit(self, monkeypatch):
        # the in-place right-hand side keeps the operation order of the plain expression
        self.check_plain_expression(monkeypatch, (5, 4, 6))

    # the slab-wise FFTs split the height and width unevenly here, or not at all
    @pytest.mark.parametrize("shape", [(47, 45, 15), (1, 7, 2)])
    def test_equals_the_plain_expression_at_odd_shapes(self, monkeypatch, shape):
        self.check_plain_expression(monkeypatch, shape)

    # the width and band terms in blocks of one row, and of two rows, which
    # split 47 rows unevenly
    @pytest.mark.parametrize("block_rows", [1, 2])
    def test_equals_the_plain_expression_in_row_blocks(self, monkeypatch, block_rows):
        shape = (47, 45, 15)
        monkeypatch.setattr(hsirestore.tensor_ops, "BLOCK_ENTRIES", block_rows * 45 * 15 + 1)
        self.check_plain_expression(monkeypatch, shape)

    @staticmethod
    def check_plain_expression(monkeypatch, shape):
        weights, beta = (1.0, 0.8, 0.5), 0.61
        y = np.random.default_rng(32).standard_normal(shape)
        state = make_state(shape, beta=beta, seed=33)
        monkeypatch.setattr(hsirestore.solver, "DIFF_WEIGHTS", weights)
        got = update_z(state, small_cfg(), y)
        mults = [
            w**2 * (2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n))
            for n, w in zip(shape, weights)
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
        expected = f_step_target(state)
        got = update_f(state, cfg, (0.6, 0.7, 0.5))
        for a, b in zip(got.blocks(), expected):
            np.testing.assert_array_equal(a, b)

    def test_p_one_is_blockwise_soft_threshold(self):
        shape = (4, 4, 4)
        state = make_state(shape, beta=0.5, seed=11)
        cfg = small_cfg(lambda_tv=0.01)
        expected = f_step_target(state)
        got = update_f(state, cfg, (1.0, 1.0, 1.0))
        for a, b in zip(got.blocks(), expected):
            np.testing.assert_allclose(a, soft_threshold(b, cfg.lambda_tv / state.beta), atol=1e-14)

    def test_elementwise_objective_optimality(self):
        shape = (3, 3, 3)
        state = make_state(shape, beta=0.4, seed=12)
        cfg = small_cfg(lambda_tv=0.02)
        p_values = (0.642, 0.684, 0.485)
        expected = f_step_target(state)
        got = update_f(state, cfg, p_values)
        tau = cfg.lambda_tv / state.beta
        for block, source, p in zip(got.blocks(), expected, p_values):
            for v, y in zip(block.ravel(), source.ravel()):
                best = gst_minimize_oracle(float(y), tau, p)
                assert gst_objective(float(v), float(y), tau, p) <= (
                    gst_objective(best, float(y), tau, p) + 1e-6
                )

    def test_writes_f_and_dual_grad_in_place(self):
        shape = (4, 3, 5)
        state = make_state(shape, beta=0.8, seed=24)
        f, dual = state.f, state.dual_grad
        old_dual = dual.copy()
        got = update_f(state, small_cfg(lambda_tv=0.05), (0.6, 1.0, 0.5))
        # the returned stack wraps the state's own array
        assert got.g is f and state.f is f and state.dual_grad is dual
        # bit for bit: the multiplier ascends as the plain expression does
        dz = diff_forward(state.z, DIFF_WEIGHTS)
        for a, old, d, fd in zip(dual, old_dual, dz.blocks(), f):
            np.testing.assert_array_equal(a, old + 0.8 * (d - fd))

    def test_invalid_exponent_rejected(self):
        state = make_state((3, 3, 3), beta=0.5, seed=25)
        with pytest.raises(ValueError, match="p must lie in"):
            update_f(state, small_cfg(), (0.5, 1.5, 0.5))

    @pytest.mark.parametrize("name", ["f", "dual_grad"])
    def test_non_c_contiguous_stack_rejected(self, name):
        # a flat scatter into a Fortran-ordered f would land in a copy and leave f zero
        state = make_state((4, 3, 5), beta=0.5, seed=26)
        setattr(state, name, np.asfortranarray(getattr(state, name)))
        with pytest.raises(ValueError, match=f"state.{name} must be a C-contiguous"):
            update_f(state, small_cfg(lambda_tv=0.05), (0.6, 0.7, 0.5))


class TestUpdateB:
    def test_zero_target_gives_zero(self):
        shape = (5, 5, 4)
        state = make_state(shape, beta=0.5, zero=True)
        y = np.zeros(shape)
        assert not update_b(state, small_cfg(), y.mean(axis=0)).any()

    def test_exact_column_stripes_recovered(self):
        shape = (6, 8, 5)
        rng = np.random.default_rng(13)
        profile = rng.uniform(-0.25, 0.25, (shape[1], shape[2]))
        # a stripe profile the model can represent: zero mean across the width
        profile -= profile.mean(axis=0)
        stripes = np.broadcast_to(profile[None], shape).copy()
        state = make_state(shape, beta=0.5, zero=True)
        cfg = small_cfg(ranks_b=TuckerRanks(1, 8, 5))
        got = update_b(state, cfg, stripes.mean(axis=0))
        assert fro_norm(got - stripes) <= 1e-8 * fro_norm(stripes)

    @pytest.mark.parametrize("shape", [(5, 7, 4), (4, 3, 6)])
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_fit_is_the_least_squares_optimum(self, shape, r):
        state = make_state(shape, beta=0.5, seed=14 + r)
        y = np.random.default_rng(r).standard_normal(shape) + 3.0
        got = update_b(state, small_cfg(ranks_b=TuckerRanks(1, r, r)), y.mean(axis=0))
        target = y - state.z - state.s
        # constant along the height: a read-only view of one profile
        assert got.strides[0] == 0 and not got.flags.writeable
        # zero mean across the width in every band
        assert np.max(np.abs(got[0].mean(axis=0))) <= 1e-12 * np.max(np.abs(target))
        # profile rank at most r
        sv = np.linalg.svd(got[0], compute_uv=False)
        assert np.all(sv[r:] <= 1e-10 * sv[0])
        # and no model cube fits better (Eckart-Young)
        err = fro_norm(target - got) ** 2
        assert err == pytest.approx(stripe_fit_error_oracle(target, r), rel=1e-10)

    def test_disabled_stripe_term_returns_zero(self):
        shape = (5, 5, 4)
        state = make_state(shape, beta=0.5, seed=15)
        y = np.random.default_rng(16).standard_normal(shape)
        assert not update_b(state, small_cfg(stripe_enabled=False), y.mean(axis=0)).any()


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

    def test_any_layout_of_y_gives_the_same_bytes(self):
        # the threshold runs in place on the residual's flat view, which a
        # residual in another layout than C order would only copy
        shape = (6, 5, 4)
        state = make_state(shape, beta=0.5, seed=18)
        y = np.random.default_rng(17).standard_normal(shape)
        expected = update_s(state, small_cfg(lambda_sparse=0.3), y)
        assert 0 < np.count_nonzero(expected) < expected.size
        got = update_s(state, small_cfg(lambda_sparse=0.3), np.asfortranarray(y))
        assert got.tobytes() == expected.tobytes()

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
        before = state.dual_x.copy()
        dual_x, beta = update_multipliers(state, cfg)
        np.testing.assert_array_equal(dual_x, before)
        assert beta == pytest.approx(0.5 * cfg.beta_growth)
        # the gradient multiplier ascends in the f-step, by beta * (D z - f):
        # with no threshold and no multiplier f is D z, and it stays zero
        state.dual_grad[...] = 0.0
        update_f(state, small_cfg(lambda_tv=0.0), (0.7, 0.7, 0.7))
        assert not state.dual_grad.any()

    def test_beta_capped_at_max(self):
        shape = (3, 3, 3)
        state = make_state(shape, beta=BETA_MAX, seed=22)
        cfg = small_cfg()
        _, beta = update_multipliers(state, cfg)
        assert beta == BETA_MAX

    def test_random_mismatch_arithmetic(self):
        shape = (4, 3, 3)
        state = make_state(shape, beta=0.8, seed=23)
        cfg = small_cfg()
        before = state.dual_x.copy()
        dual_x, _ = update_multipliers(state, cfg)
        # bit for bit: the in-place update keeps the plain expression's operation order
        np.testing.assert_array_equal(dual_x, before + 0.8 * (state.x - state.z))
        # the ascent is written into the multiplier the state holds
        assert dual_x is state.dual_x


def held_arrays(state, y):
    """Every array the solver state and the observation hold, by name."""
    named = {"y": y}
    for name in ("x", "z", "s", "b", "dual_x"):
        named[name] = getattr(state, name)
    for name in ("f", "dual_grad"):
        for axis, block in zip("hwp", getattr(state, name)):
            named[f"{name}.g{axis}"] = block
    for i, factor in enumerate(state.x_factors or ()):
        named[f"x_factors[{i}]"] = factor
    return named


def returned_arrays(out):
    if isinstance(out, np.ndarray):
        return [out]
    if isinstance(out, GradientStack):
        return list(out.blocks())
    if isinstance(out, tuple):
        return [a for item in out for a in returned_arrays(item)]
    return []


# the arrays each update may overwrite: the f-step owns f and dual_grad, the
# multiplier step dual_x
IN_PLACE = {"update_f": ("f.", "dual_grad."), "update_multipliers": ("dual_x",)}


class TestUpdatesLeaveInputsAlone:
    """The updates may work in place only on their own temporaries and the buffers they own."""

    @pytest.mark.parametrize(
        "update", ["update_x", "update_z", "update_f", "update_b", "update_s", "update_multipliers"]
    )
    def test_inputs_unchanged_and_outputs_unshared(self, update):
        shape = (6, 5, 4)
        cfg = small_cfg()
        state = make_state(shape, beta=0.6, seed=43)
        y = np.random.default_rng(44).standard_normal(shape)
        # warm factors, so that the HOOI update also starts from arrays the state holds
        state.x_factors = hosvd_init(state.z, cfg.ranks_x).factors
        inputs = {
            name: a for name, a in held_arrays(state, y).items()
            if not name.startswith(IN_PLACE.get(update, ()))
        }
        before = {name: a.tobytes() for name, a in inputs.items()}
        calls = {
            "update_x": lambda: update_x(state, cfg),
            "update_z": lambda: update_z(state, cfg, y),
            "update_f": lambda: update_f(state, cfg, (0.6, 0.7, 0.5)),
            "update_b": lambda: update_b(state, cfg, y.mean(axis=0)),
            "update_s": lambda: update_s(state, cfg, y),
            "update_multipliers": lambda: update_multipliers(state, cfg),
        }
        out = calls[update]()
        if update == "update_f":
            # its result wraps the buffer it owns
            assert out.g is state.f
            outputs = []
        else:
            outputs = returned_arrays(out)
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
            update_f(state, cfg, cfg.p_override)
            state.b = update_b(state, cfg, y.mean(axis=0))
            state.s = update_s(state, cfg, y)
            state.dual_x, state.beta = update_multipliers(state, cfg)

    def test_stripes_only_input_separates_stripe_field(self):
        truth = low_rank_cube((48, 48, 16), TuckerRanks(5, 5, 3), seed=11)
        rng = np.random.default_rng(13)
        stripe_field = np.broadcast_to(_stripe_profile(48, 16, "random", (0.4, 0.5), 0.25, rng), truth.shape)
        noisy = truth + stripe_field
        cfg = SolverConfig(ranks_x=TuckerRanks(8, 8, 5), ranks_b=TuckerRanks(1, 24, 16))
        dec, diag = solve(noisy, cfg)
        rel = fro_norm(dec.stripes - stripe_field) / fro_norm(stripe_field)
        assert rel <= 0.2

    def test_fixed_penalty_beats_the_constant_baseline(self):
        # at a fixed beta the solve runs to the model's own minimizer, so the
        # stripe term must not take image content
        truth = normalize_bands(low_rank_cube((48, 48, 16), TuckerRanks(5, 5, 3), seed=7))
        noisy, _ = simulate_case(truth, case_spec(2, seed=7))
        cfg = SolverConfig(
            ranks_x=TuckerRanks(8, 8, 5), ranks_b=TuckerRanks(1, 24, 16),
            p_override=(1.0, 1.0, 1.0), beta0=1.0, beta_growth=1.0, max_iter=400,
        )
        dec, _ = solve(noisy, cfg)
        constant = np.broadcast_to(truth.mean(axis=(0, 1)), truth.shape)
        assert evaluate(truth, dec.clean).mpsnr > evaluate(truth, constant).mpsnr

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

    @pytest.mark.parametrize("stripe_enabled", [True, False])
    def test_stripes_are_a_read_only_profile_view(self, stripe_enabled):
        truth = low_rank_cube((12, 12, 6), TuckerRanks(3, 3, 2), seed=17)
        noisy, _ = simulate_case(truth, case_spec(2, seed=17))
        cfg = SolverConfig(max_iter=5, p_override=(0.7, 0.7, 0.7), stripe_enabled=stripe_enabled)
        dec, _ = solve(noisy, cfg)
        assert dec.stripes.shape == noisy.shape and dec.stripes.strides[0] == 0
        with pytest.raises(ValueError, match="read-only"):
            dec.stripes[0, 0, 0] = 1.0
        assert dec.stripes.any() == stripe_enabled

    def test_convergence_flag_matches_history(self):
        truth = low_rank_cube((16, 16, 8), TuckerRanks(3, 3, 2), seed=19)
        noisy, _ = simulate_case(truth, case_spec(1, seed=19))
        cfg = SolverConfig(ranks_x=TuckerRanks(5, 5, 3), p_override=(0.7, 0.7, 0.7))
        dec, diag = solve(noisy, cfg)
        assert diag.converged
        assert diag.rel_change[-1] <= cfg.epsilon
        assert len(diag.rel_change) == diag.iterations
        assert all(np.isfinite(r) for r in diag.rel_change)

    def test_zero_cube_stops_on_its_first_unchanged_iteration(self):
        # the first x-step is zero for any input, so it cannot count; the
        # second is zero only for a zero input, which the exponent fit rejects
        dec, diag = solve(np.zeros((16, 16, 8)), SolverConfig(p_override=(0.5, 0.5, 0.5)))
        assert (diag.converged, diag.iterations, diag.rel_change) == (True, 2, [1.0, 0.0])
        for name in ("clean", "sparse", "stripes", "residual"):
            assert not getattr(dec, name).any(), name

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
            # warm factors live in the solve's own state: each solve starts cold
            # again; the image is the one Tucker term, the stripe fit is closed-form
            assert cold_starts == [cfg.ranks_x]

    @pytest.mark.parametrize("stripe_enabled", [True, False])
    def test_one_tucker_sweep_per_term_per_iteration(self, monkeypatch, stripe_enabled):
        # the image fit is one sweep (three subspace solves) and its first fit
        # also runs the three of its truncated-HOSVD start; the stripe fit runs
        # none, whether or not it is enabled
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
        assert len(calls) == 3 * diag.iterations + 3

    @pytest.mark.parametrize("stripe_enabled", [True, False])
    def test_mode_product_budget(self, monkeypatch, stripe_enabled):
        # the image fit is one sweep (6 products) plus its reconstruction (3);
        # its cold start adds the 3 of its truncated-HOSVD core
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
        assert len(calls) == 9 * diag.iterations + 3

    def test_one_gradient_of_z_per_iteration(self, monkeypatch):
        # D z is formed once per f-step, one direction at a time, and shared
        # by the f-step and the dual step; the stopping iteration runs no f-step
        truth = low_rank_cube((12, 12, 6), TuckerRanks(3, 3, 2), seed=47)
        noisy, _ = simulate_case(truth, case_spec(2, seed=47))
        cfg = SolverConfig(ranks_x=TuckerRanks(4, 4, 3), max_iter=8, p_override=(0.7, 0.7, 0.7))
        calls = []
        real_circular_diff = hsirestore.solver._circular_diff

        def counting_circular_diff(t, axis, step, weight, out=None):
            if step == 1:
                calls.append(axis)
            return real_circular_diff(t, axis, step, weight, out)

        monkeypatch.setattr(hsirestore.solver, "_circular_diff", counting_circular_diff)
        _, diag = solve(noisy, cfg)
        assert diag.iterations == 8
        assert sorted(calls) == sorted([0, 1, 2] * (diag.iterations - 1))

    def test_non_finite_input_rejected(self):
        y = np.zeros((8, 8, 4))
        y[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            solve(y, SolverConfig())


class TestConfig:
    def test_default_ranks_follow_shape(self):
        assert default_image_ranks((48, 48, 16)).as_tuple() == (38, 38, 10)
        assert default_image_ranks((10, 10, 4)).as_tuple() == (8, 8, 4)
        # the stripe default is the full profile rank, clamped to a feasible triple
        assert SolverConfig().resolve_ranks((48, 48, 16)).ranks_b.as_tuple() == (1, 16, 16)
        assert SolverConfig().resolve_ranks((8, 3, 6)).ranks_b.as_tuple() == (1, 3, 3)

    def test_resolved_ranks_are_the_feasible_ranks_solved_at(self):
        # denoise-64's default image triple is feasible, its full stripe rank
        # (1, 64, 32) is not; case2-48's stripe ranks (1, 24, 16) are not either
        cfg = SolverConfig().resolve_ranks((64, 64, 32))
        assert (cfg.ranks_x.as_tuple(), cfg.ranks_b.as_tuple()) == ((51, 51, 10), (1, 32, 32))
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
            ("p_override", (0.5, 0.5, np.nan)),
            ("max_iter", True),
            # stripes are constant along the height
            ("ranks_b", TuckerRanks(2, 4, 4)),
        ],
    )
    def test_malformed_field_rejected_up_front(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: value})
