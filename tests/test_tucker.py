import numpy as np
import pytest

from hsirestore.tensor_ops import fro_norm, mode_product
from hsirestore.tucker import TuckerFactors, TuckerRanks, hooi, hosvd_init, reconstruct
from oracles import hooi_single_sweep_oracle, truncated_hosvd_error_oracle


def random_orthonormal(n, r, rng):
    q, _ = np.linalg.qr(rng.standard_normal((n, r)))
    return q


def random_tucker_cube(shape, ranks, seed):
    rng = np.random.default_rng(seed)
    factors = tuple(random_orthonormal(n, r, rng) for n, r in zip(shape, ranks))
    core = rng.standard_normal(ranks)
    return reconstruct(TuckerFactors(core, factors))


def fit_error(t, fit):
    return fro_norm(t - reconstruct(fit))


def projection(t, factors):
    """The Tucker fit of ``t`` on fixed factors: the start a sweep improves on."""
    core = t
    for n, m in enumerate(factors, start=1):
        core = mode_product(core, m.T, n)
    return TuckerFactors(core, factors)


def sweep_errors(t, ranks, init, sweeps):
    """Errors of the starting projection and of each of ``sweeps`` warm calls."""
    errors = [fit_error(t, projection(t, init))]
    factors = init
    for _ in range(sweeps):
        fit = hooi(t, ranks, init=factors)
        factors = fit.factors
        errors.append(fit_error(t, fit))
    return errors


class TestReconstruct:
    def test_zero_core_gives_zero_cube(self):
        rng = np.random.default_rng(0)
        f = TuckerFactors(
            np.zeros((2, 2, 2)),
            tuple(random_orthonormal(n, 2, rng) for n in (4, 5, 6)),
        )
        assert not reconstruct(f).any()

    def test_identity_factors_return_core(self):
        t = np.random.default_rng(1).standard_normal((3, 4, 5))
        f = TuckerFactors(t, (np.eye(3), np.eye(4), np.eye(5)))
        np.testing.assert_array_equal(reconstruct(f), t)

    def test_matches_mode_product_composition(self):
        rng = np.random.default_rng(2)
        core = rng.standard_normal((2, 3, 2))
        factors = (
            rng.standard_normal((5, 2)),
            rng.standard_normal((6, 3)),
            rng.standard_normal((7, 2)),
        )
        expected = mode_product(
            mode_product(mode_product(core, factors[0], 1), factors[1], 2), factors[2], 3
        )
        np.testing.assert_allclose(
            reconstruct(TuckerFactors(core, factors)), expected, atol=1e-12
        )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            reconstruct(TuckerFactors(np.zeros((2, 2, 2)), (np.zeros((4, 3)),) * 3))


class TestHosvdInit:
    def test_full_ranks_reconstruct_exactly(self):
        t = np.random.default_rng(3).standard_normal((4, 5, 6))
        f = hosvd_init(t, TuckerRanks(4, 5, 6))
        assert fro_norm(t - reconstruct(f)) <= 1e-10 * fro_norm(t)

    def test_rank_one_outer_product_exact(self):
        rng = np.random.default_rng(4)
        a, b, c = rng.standard_normal(4), rng.standard_normal(5), rng.standard_normal(6)
        t = np.einsum("i,j,k->ijk", a, b, c)
        f = hosvd_init(t, TuckerRanks(1, 1, 1))
        assert fro_norm(t - reconstruct(f)) <= 1e-10 * fro_norm(t)

    def test_error_matches_truncation_oracle(self):
        t = np.random.default_rng(5).standard_normal((8, 8, 8))
        f = hosvd_init(t, TuckerRanks(4, 4, 4))
        err = fro_norm(t - reconstruct(f))
        assert abs(err - truncated_hosvd_error_oracle(t, (4, 4, 4))) <= 1e-10

    def test_rank_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            hosvd_init(np.zeros((3, 3, 3)), TuckerRanks(4, 1, 1))


class TestHooi:
    def test_exactly_representable_tensor_recovered(self):
        ranks = (3, 2, 4)
        t = random_tucker_cube((6, 7, 8), ranks, seed=6)
        f = hooi(t, TuckerRanks(*ranks))
        assert fro_norm(t - reconstruct(f)) <= 1e-8 * fro_norm(t)

    def test_error_never_worse_than_hosvd(self):
        t = np.random.default_rng(7).standard_normal((8, 8, 8))
        ranks = TuckerRanks(4, 4, 4)
        hosvd_err = fro_norm(t - reconstruct(hosvd_init(t, ranks)))
        hooi_err = fro_norm(t - reconstruct(hooi(t, ranks)))
        assert hooi_err <= hosvd_err + 1e-12

    def test_single_sweep_matches_oracle(self):
        t = np.random.default_rng(8).standard_normal((3, 3, 3))
        ranks = (2, 2, 2)
        f = hooi(t, TuckerRanks(*ranks))
        np.testing.assert_allclose(
            reconstruct(f), hooi_single_sweep_oracle(t, ranks), atol=1e-10
        )

    def test_error_monotone_per_sweep(self):
        t = np.random.default_rng(9).standard_normal((8, 7, 6))
        ranks = TuckerRanks(3, 3, 3)
        errors = sweep_errors(t, ranks, hosvd_init(t, ranks).factors, sweeps=8)
        for prev, cur in zip(errors, errors[1:]):
            assert cur <= prev + 1e-12

    def test_factors_stay_orthonormal(self):
        t = np.random.default_rng(10).standard_normal((7, 6, 5))
        ranks = TuckerRanks(3, 2, 2)
        f = hooi(t, ranks)
        for _ in range(5):
            f = hooi(t, ranks, init=f.factors)
        for m in f.factors:
            np.testing.assert_allclose(m.T @ m, np.eye(m.shape[1]), atol=1e-8)

    def test_full_rank_reproduces_input(self):
        t = np.random.default_rng(11).standard_normal((4, 5, 6))
        f = hooi(t, TuckerRanks(4, 5, 6))
        assert fro_norm(t - reconstruct(f)) <= 1e-10 * fro_norm(t)


class TestHooiWarmStart:
    def test_hosvd_start_is_bit_identical_to_cold_start(self):
        t = np.random.default_rng(12).standard_normal((8, 7, 6))
        ranks = TuckerRanks(3, 4, 2)
        cold = hooi(t, ranks)
        warm = hooi(t, ranks, init=hosvd_init(t, ranks).factors)
        np.testing.assert_array_equal(warm.core, cold.core)
        for a, b in zip(warm.factors, cold.factors):
            np.testing.assert_array_equal(a, b)

    def test_errors_non_increasing_from_initial_projection(self):
        rng = np.random.default_rng(13)
        t = rng.standard_normal((8, 7, 6))
        ranks = TuckerRanks(3, 3, 2)
        init = tuple(random_orthonormal(n, r, rng) for n, r in zip(t.shape, ranks.as_tuple()))
        errors = sweep_errors(t, ranks, init, sweeps=8)
        for prev, cur in zip(errors, errors[1:]):
            assert cur <= prev + 1e-12

    @pytest.mark.parametrize("start", ["random", "near_optimum"])
    def test_one_warm_sweep_does_not_exceed_the_initial_projection(self, start):
        # "near_optimum" starts where the error is tiny, so any loss of
        # accuracy in the sweep would show as an increase
        rng = np.random.default_rng(15)
        ranks = TuckerRanks(3, 2, 2)
        t = random_tucker_cube((8, 7, 6), ranks.as_tuple(), seed=16)
        if start == "random":
            t = t + rng.standard_normal(t.shape)
            init = tuple(random_orthonormal(n, r, rng) for n, r in zip(t.shape, ranks.as_tuple()))
        else:
            t = t + 1e-5 * rng.standard_normal(t.shape)
            init = tuple(np.linalg.qr(m + 1e-4 * rng.standard_normal(m.shape))[0]
                         for m in hooi(t, ranks).factors)
        start_err, swept_err = sweep_errors(t, ranks, init, sweeps=1)
        assert swept_err <= start_err + 1e-12 * fro_norm(t)

    def test_single_warm_sweep_matches_oracle(self):
        rng = np.random.default_rng(17)
        t = rng.standard_normal((4, 3, 5))
        ranks = (2, 2, 3)
        init = tuple(random_orthonormal(n, r, rng) for n, r in zip(t.shape, ranks))
        f = hooi(t, TuckerRanks(*ranks), init=init)
        np.testing.assert_allclose(
            reconstruct(f), hooi_single_sweep_oracle(t, ranks, init=init), atol=1e-10
        )

    def test_warm_start_at_the_optimum_stays_there(self):
        ranks = (3, 2, 4)
        t = random_tucker_cube((6, 7, 8), ranks, seed=14)
        fit = hooi(t, TuckerRanks(*ranks))
        again = hooi(t, TuckerRanks(*ranks), init=fit.factors)
        assert fro_norm(t - reconstruct(again)) <= 1e-8 * fro_norm(t)

    @pytest.mark.parametrize(
        "shapes",
        [
            [(8, 3), (7, 3), (6, 3)],  # rank mismatch in mode 3
            [(7, 3), (8, 3), (6, 2)],  # modes 1 and 2 swapped
            [(8, 3), (7, 3)],  # one factor short
        ],
    )
    def test_mismatched_factors_rejected(self, shapes):
        t = np.zeros((8, 7, 6))
        with pytest.raises(ValueError):
            hooi(t, TuckerRanks(3, 3, 2), init=tuple(np.zeros(s) for s in shapes))


class TestTuckerRanks:
    def test_nonpositive_rank_rejected(self):
        with pytest.raises(ValueError):
            TuckerRanks(0, 1, 1)

    @pytest.mark.parametrize("ranks", [(2.0, 2, 2), (2, np.float64(2.0), 2), (2, 2, "2"), (True, 2, 2)])
    def test_non_integer_rank_rejected(self, ranks):
        with pytest.raises(ValueError, match="positive integers"):
            TuckerRanks(*ranks)

    def test_numpy_integer_ranks_accepted(self):
        assert TuckerRanks(np.int64(2), np.int32(3), 4).as_tuple() == (2, 3, 4)

    def test_validate_against_shape(self):
        TuckerRanks(2, 3, 4).validate_for((2, 3, 4))
        with pytest.raises(ValueError):
            TuckerRanks(3, 3, 4).validate_for((2, 3, 4))

    def test_two_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match="3-D"):
            TuckerRanks(1, 1, 1).validate_for((3, 3))
        with pytest.raises(ValueError, match="3-D"):
            hooi(np.ones((3, 3)), TuckerRanks(1, 1, 1))
