import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsirestore.tensor_ops import (
    fold,
    fro_norm,
    leading_left_singular_vectors,
    mode_product,
    unfold,
)
from oracles import (
    fro_norm_oracle,
    mode_product_oracle,
    subspace_angle,
    top_left_singular_subspace_oracle,
    unfold_oracle,
)


def matrix_with_singular_values(shape, s, seed):
    """``U diag(s) V^T`` with random orthonormal ``U``/``V`` and the given spectrum."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((shape[0], len(s))))
    v, _ = np.linalg.qr(rng.standard_normal((shape[1], len(s))))
    return (u * np.asarray(s, dtype=float)) @ v.T


def cube_1_to_8():
    # entries 1..8 laid out with the first index varying fastest
    return np.arange(1, 9, dtype=float).reshape((2, 2, 2), order="F")


class TestUnfoldFold:
    def test_mode1_unfolding_of_counting_cube(self):
        t = cube_1_to_8()
        expected = np.array([[1.0, 3.0, 5.0, 7.0], [2.0, 4.0, 6.0, 8.0]])
        np.testing.assert_array_equal(unfold(t, 1), expected)

    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_unfold_matches_index_map_oracle(self, mode):
        rng = np.random.default_rng(11)
        t = rng.standard_normal((3, 4, 5))
        np.testing.assert_array_equal(unfold(t, mode), unfold_oracle(t, mode))

    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_fold_inverts_unfold_exactly(self, mode):
        rng = np.random.default_rng(2)
        t = rng.standard_normal((3, 4, 5))
        np.testing.assert_array_equal(fold(unfold(t, mode), mode, t.shape), t)

    def test_unfold_of_zero_cube_is_zero(self):
        assert not unfold(np.zeros((2, 3, 4)), 2).any()

    @given(
        st.tuples(
            st.integers(min_value=1, max_value=4),
            st.integers(min_value=1, max_value=4),
            st.integers(min_value=1, max_value=4),
        ),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_fold_unfold_identity_property(self, shape, mode, seed):
        t = np.random.default_rng(seed).standard_normal(shape)
        np.testing.assert_array_equal(fold(unfold(t, mode), mode, shape), t)

    @pytest.mark.parametrize("mode", [0, 4, -1])
    def test_invalid_mode_rejected(self, mode):
        with pytest.raises(ValueError):
            unfold(np.zeros((2, 2, 2)), mode)


class TestModeProduct:
    def test_identity_is_noop(self):
        rng = np.random.default_rng(3)
        t = rng.standard_normal((3, 4, 5))
        for mode in (1, 2, 3):
            np.testing.assert_allclose(
                mode_product(t, np.eye(t.shape[mode - 1]), mode), t, atol=0
            )

    def test_row_sum_matrix_on_counting_cube(self):
        t = cube_1_to_8()
        got = mode_product(t, np.array([[1.0, 1.0]]), 1)
        np.testing.assert_array_equal(got, mode_product_oracle(t, np.array([[1.0, 1.0]]), 1))
        # pairwise sums along mode 1: (1+2, 3+4, 5+6, 7+8)
        np.testing.assert_array_equal(got.ravel(order="F"), [3.0, 7.0, 11.0, 15.0])

    def test_zero_matrix_gives_zero_cube(self):
        t = np.random.default_rng(4).standard_normal((3, 4, 5))
        assert not mode_product(t, np.zeros((2, 4)), 2).any()

    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_matches_summation_oracle(self, mode):
        rng = np.random.default_rng(5)
        t = rng.standard_normal((3, 4, 5))
        m = rng.standard_normal((6, t.shape[mode - 1]))
        np.testing.assert_allclose(
            mode_product(t, m, mode), mode_product_oracle(t, m, mode), atol=1e-12
        )

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mode_product(np.zeros((3, 4, 5)), np.zeros((2, 3)), 2)

    def test_associativity_across_distinct_modes(self):
        rng = np.random.default_rng(6)
        t = rng.standard_normal((4, 5, 6))
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((2, 5))
        left = mode_product(mode_product(t, a, 1), b, 2)
        right = mode_product(mode_product(t, b, 2), a, 1)
        np.testing.assert_allclose(left, right, atol=1e-12)

    def test_unfold_commutes_with_mode_product(self):
        rng = np.random.default_rng(7)
        t = rng.standard_normal((4, 5, 6))
        for mode in (1, 2, 3):
            m = rng.standard_normal((3, t.shape[mode - 1]))
            np.testing.assert_allclose(
                unfold(mode_product(t, m, mode), mode), m @ unfold(t, mode), atol=1e-12
            )

    def test_orthonormal_factor_preserves_norm(self):
        rng = np.random.default_rng(8)
        t = rng.standard_normal((5, 6, 7))
        for mode in (1, 2, 3):
            q, _ = np.linalg.qr(rng.standard_normal((t.shape[mode - 1],) * 2))
            assert abs(fro_norm(mode_product(t, q, mode)) - fro_norm(t)) < 1e-10


class TestFroNorm:
    def test_zero_cube(self):
        assert fro_norm(np.zeros((2, 3, 4))) == 0.0

    def test_singleton(self):
        assert fro_norm(np.full((1, 1, 1), 3.0)) == 3.0

    def test_matches_naive_accumulation(self):
        t = np.random.default_rng(9).standard_normal((4, 4, 4))
        expected = fro_norm_oracle(t)
        assert abs(fro_norm(t) - expected) <= 1e-12 * expected


class TestLeadingLeftSingularVectors:
    def test_identity_matrix(self):
        got = leading_left_singular_vectors(np.eye(4), 2)
        np.testing.assert_allclose(got, np.eye(4)[:, :2], atol=1e-14)

    def test_rank_one_matrix(self):
        rng = np.random.default_rng(10)
        u = rng.standard_normal(5)
        v = rng.standard_normal(7)
        got = leading_left_singular_vectors(np.outer(u, v), 1).ravel()
        expected = u / np.linalg.norm(u)
        if expected[np.argmax(np.abs(expected))] < 0:
            expected = -expected
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_subspace_matches_jacobi_oracle(self):
        m = np.random.default_rng(12).standard_normal((6, 8))
        got = leading_left_singular_vectors(m, 3)
        assert subspace_angle(got, top_left_singular_subspace_oracle(m, 3)) <= 1e-8

    def test_columns_orthonormal_and_sign_fixed(self):
        m = np.random.default_rng(13).standard_normal((7, 5))
        u = leading_left_singular_vectors(m, 4)
        np.testing.assert_allclose(u.T @ u, np.eye(4), atol=1e-12)
        for col in u.T:
            assert col[np.argmax(np.abs(col))] >= 0

    @pytest.mark.parametrize("r", [0, 6])
    def test_rank_out_of_range_rejected(self, r):
        with pytest.raises(ValueError):
            leading_left_singular_vectors(np.zeros((5, 7)), r)

    @pytest.mark.parametrize(
        "m, r",
        [
            (np.random.default_rng(14).standard_normal((16, 2048)), 5),
            (np.random.default_rng(15).standard_normal((64, 40)), 10),
            # rank 6; the leading 4 singular values are well separated
            (matrix_with_singular_values((30, 50), [9.0, 7.0, 5.0, 3.0, 1.0, 0.5], seed=16), 4),
            # the leading singular value is repeated; its pair spans a unique subspace
            (matrix_with_singular_values((20, 30), [4.0, 4.0, 2.0, 1.0, 0.5], seed=17), 2),
        ],
        ids=["wide", "tall", "rank-deficient", "repeated-leading"],
    )
    def test_subspace_matches_full_svd(self, m, r):
        u_svd = np.linalg.svd(m, full_matrices=False)[0][:, :r]
        got = leading_left_singular_vectors(m, r)
        assert got.shape == (m.shape[0], r)
        assert subspace_angle(got, u_svd) <= 1e-8

    def test_zero_matrix_gives_orthonormal_columns(self):
        # the first ADMM Tucker target is all zero
        u = leading_left_singular_vectors(np.zeros((6, 40)), 3)
        np.testing.assert_allclose(u.T @ u, np.eye(3), atol=1e-14)
