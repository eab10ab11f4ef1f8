import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsirestore import fileio, metrics, noise, priors, solver, tensor_ops
from hsirestore.noise import case_spec, simulate_case
from hsirestore.synthetic import low_rank_cube
from hsirestore.tensor_ops import (
    bands_per_block,
    flat_blocks,
    fold,
    fro_norm,
    leading_left_singular_vectors,
    mode_product,
    row_blocks,
    unfold,
)
from hsirestore.tucker import TuckerRanks
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


class TestBlockCuts:
    """The cuts of the one block rule, at a patched ``BLOCK_ENTRIES`` of 10 and ``BAND_BLOCK_BYTES`` of 96."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(tensor_ops, "BLOCK_ENTRIES", 10)
        monkeypatch.setattr(tensor_ops, "BAND_BLOCK_BYTES", 96)

    def test_flat_blocks_cover_the_range_longest_first(self):
        assert flat_blocks(25) == [slice(0, 10), slice(10, 20), slice(20, 25)]
        assert flat_blocks(10) == [slice(0, 10)]
        # one empty block, so that a buffer the first block's length exists
        assert flat_blocks(0) == [slice(0, 0)]

    def test_row_blocks_hold_whole_rows(self):
        # rows of 3 entries: three rows per block
        assert row_blocks((7, 3)) == [slice(0, 3), slice(3, 6), slice(6, 7)]
        assert row_blocks((7, 1, 3), slice(2, 7)) == [slice(2, 5), slice(5, 7)]
        assert row_blocks((7, 3), slice(4, 4)) == []
        # a row longer than a block is a block of its own
        assert row_blocks((3, 4, 5)) == [slice(0, 1), slice(1, 2), slice(2, 3)]

    @pytest.mark.parametrize(
        "shape, itemsize, bands",
        [((2, 3, 9), 4, 4), ((2, 3, 9), 8, 2), ((2, 3, 1), 4, 1), ((5, 5, 9), 8, 1), ((1, 1, 3), 4, 3)],
    )
    def test_bands_per_block(self, shape, itemsize, bands):
        # at least one band, at most every band, and no more bytes than the bound beyond one band
        assert bands_per_block(shape, itemsize) == bands


def blocked_pass_outputs(monkeypatch, block_entries):
    """The bytes of every pass that cuts its work by ``tensor_ops.BLOCK_ENTRIES``, at ``block_entries``.

    The shapes are chosen so that a limit of 300 entries leaves a short last
    block in each pass: 385 shrinkage entries, 7 z-step rows of 60 entries,
    13 spectral-angle rows of 132, split at row 6 between the two threads,
    and 11 impulse rows of 30.
    """
    rng = np.random.default_rng(70)
    out = {}
    with monkeypatch.context() as m:
        m.setattr(tensor_ops, "BLOCK_ENTRIES", block_entries)
        # the helper takes its share of the spectral angles and of the solve
        m.setattr(tensor_ops, "_helper_wanted", lambda: True)
        m.setattr(metrics, "SPLIT_BAND_ENTRIES", 1)
        g = rng.standard_normal((5, 7, 11))
        # two entries past the Newton steps, then one that needs fewer steps
        # than the rest, so a stopping test per block would show
        g[0, 0, :3] = [np.inf, -1e200, 50.0]
        for p in (0.5, 1.0):
            out[f"shrinkage p={p}"] = priors._gst_shrink_in_place(g.copy(), 0.4, p).tobytes()
        shape = (7, 6, 10)
        state = solver.SolverState.zeros(shape, 0.7)
        state.f, state.dual_grad = rng.standard_normal((2, 3) + shape)
        solver._z_gradient_terms(state, 0.7, np.empty(shape))
        out["z-step gradient terms"] = state.z_adjoint.tobytes()
        ref = rng.random((13, 11, 12))
        out["spectral angles"] = repr(metrics.evaluate(ref, ref + rng.normal(0.0, 0.2, ref.shape)).msam)
        cube = rng.random((11, 5, 6))
        mask = noise._impulse_perturbation(cube, np.linspace(0.0, 1.0, 6), np.random.default_rng(71))
        out["impulse draws"] = mask.tobytes() + cube.tobytes()
        truth = low_rank_cube((16, 16, 8), TuckerRanks(3, 3, 2), seed=72)
        noisy, _ = simulate_case(truth, case_spec(2, seed=72))
        dec, diag = solver.solve(noisy, solver.SolverConfig(max_iter=5))
        out["solve"] = b"".join(getattr(dec, name).tobytes() for name in ("clean", "sparse", "stripes", "residual"))
        out["solve"] += repr((diag.p_values, diag.rel_change)).encode()
    return out


# a BLOCK_ENTRIES that cuts every pass into single entries or rows, into blocks
# with a short last one, and into one block
@pytest.mark.parametrize("block_entries", [1, 300, 10**9])
def test_every_blocked_pass_gives_the_bytes_of_one_block(monkeypatch, block_entries):
    blocked = blocked_pass_outputs(monkeypatch, block_entries)
    assert blocked == blocked_pass_outputs(monkeypatch, 10**9)


# one band per buffer, buffers of 3 float64 or 6 float32 bands of 12x11 with
# a short last one, and one buffer for the cube
@pytest.mark.parametrize("band_block_bytes", [1, 3 * 12 * 11 * 8, 10**9])
def test_band_blocks_give_the_bytes_of_one_block(monkeypatch, tmp_path, band_block_bytes):
    rng = np.random.default_rng(73)
    ref = rng.random((12, 11, 7))
    test = np.clip(ref + rng.normal(0.0, 0.1, ref.shape), 0.0, 1.0)

    def outputs(directory):
        directory.mkdir()
        path = directory / "test.cube"
        fileio.write_cube(path, np.asfortranarray(test))
        return (path.read_bytes(), fileio.read_cube(path).tobytes(), fileio.read_cube(path, normalize=True).tobytes(),
                repr(metrics.evaluate(ref, test)))

    with monkeypatch.context() as m:
        m.setattr(tensor_ops, "BAND_BLOCK_BYTES", 10**9)
        whole = outputs(tmp_path / "whole")
    monkeypatch.setattr(tensor_ops, "BAND_BLOCK_BYTES", band_block_bytes)
    assert outputs(tmp_path / "blocked") == whole
