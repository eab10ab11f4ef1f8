import tracemalloc

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from hsirestore.gradient_fit import (
    FIT_K_BOUNDS,
    FIT_P_BOUNDS,
    FIT_START,
    HIST_BINS,
    HIST_CENTERS,
    HIST_EDGES,
    _fit_masses,
    convolve_hist,
    estimate_noise_sigma,
    estimate_p,
    gaussian_histogram,
    histogram,
    hyper_laplacian_histogram,
    nelder_mead,
)
from hsirestore.noise import case_spec, simulate_case
from hsirestore.priors import TvWeights, diff_forward
from hsirestore.synthetic import low_rank_cube
from hsirestore.tucker import TuckerRanks
from oracles import convolve_masses_oracle, estimate_p_stack_oracle, sample_hyper_laplacian

# np.histogram sorts and counts its samples in blocks of this many entries
NUMPY_HIST_BLOCK = 65536


def np_median_sigma(g):
    """The MAD noise estimate written with ``np.median``, as the reference."""
    g = np.asarray(g, dtype=np.float64)
    return float(np.median(np.abs(g - np.median(g))) / 0.6744897501960817 / np.sqrt(2.0))


class TestEstimateNoiseSigma:
    def test_zero_field_gives_zero(self):
        assert estimate_noise_sigma(np.zeros((4, 4, 4))) == 0.0

    def test_recovers_noise_std_from_gradients(self):
        rng = np.random.default_rng(77)
        noise = rng.normal(0.0, 0.10, (64, 64, 16))
        g = diff_forward(noise, TvWeights(1.0, 1.0, 1.0))
        for block in g.blocks():
            assert 0.085 <= estimate_noise_sigma(block) <= 0.115

    def test_constant_cube_gradients_give_zero(self):
        g = diff_forward(np.full((5, 5, 5), 0.3), TvWeights(1.0, 1.0, 1.0))
        assert estimate_noise_sigma(g.g[0]) == 0.0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            estimate_noise_sigma(np.zeros((0,)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            estimate_noise_sigma(np.array([0.0, 1.0, bad, 2.0]))

    @given(
        st.one_of(
            # real-valued samples at ordinary, huge and subnormal scales
            st.tuples(
                st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=60),
                st.sampled_from([1.0, 1e300, 1e-310]),
            ),
            # integer values: medians and deviations full of ties
            st.tuples(st.lists(st.integers(-3, 3), min_size=1, max_size=60), st.just(1.0)),
            # constant fields
            st.tuples(
                st.builds(lambda v, n: [v] * n, st.floats(-1e3, 1e3), st.integers(1, 60)),
                st.sampled_from([1.0, 1e300, 1e-310]),
            ),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_the_np_median_mad_bit_for_bit(self, sample):
        values, scale = sample
        g = np.asarray(values, dtype=np.float64) * scale
        assert estimate_noise_sigma(g) == np_median_sigma(g)

    def test_input_left_unchanged(self):
        cube = np.random.default_rng(5).normal(size=(6, 7, 8))
        view = cube[::2, 1:, ::-3]
        assert not view.flags.c_contiguous
        before = cube.copy()
        assert estimate_noise_sigma(view) == np_median_sigma(view)
        np.testing.assert_array_equal(cube, before)
        estimate_noise_sigma(cube)  # contiguous float64: the one input a reshape would not copy
        np.testing.assert_array_equal(cube, before)

        values = [3.0, -1.0, 2.0, 2.0, 7.5, 0.0]
        assert estimate_noise_sigma(values) == np_median_sigma(values)
        assert values == [3.0, -1.0, 2.0, 2.0, 7.5, 0.0]


def unit_mass_at(index):
    masses = np.zeros(HIST_BINS)
    masses[index] = 1.0
    return masses


class TestHistogramGrid:
    def test_grid_invariants(self):
        assert HIST_BINS % 2 == 1 and HIST_BINS >= 3
        assert HIST_EDGES.shape == (HIST_BINS + 1,) and HIST_CENTERS.shape == (HIST_BINS,)
        np.testing.assert_allclose(HIST_EDGES, -HIST_EDGES[::-1], rtol=0, atol=1e-15)
        assert HIST_CENTERS[HIST_BINS // 2] == 0.0
        np.testing.assert_array_equal(gaussian_histogram(0.0), unit_mass_at(HIST_BINS // 2))


class TestHistogram:
    def test_single_zero_sample_fills_center_bin(self):
        np.testing.assert_array_equal(histogram([0.0]), unit_mass_at(HIST_BINS // 2))

    def test_mirrored_data_gives_mirrored_histogram(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 0.3, 10_000)
        data = np.concatenate([x, -x])
        h = histogram(data)
        np.testing.assert_array_equal(h, h[::-1])

    def test_uniform_samples_spread_evenly(self):
        rng = np.random.default_rng(2)
        n = 1000 * HIST_BINS
        h = histogram(rng.uniform(-1, 1, n))
        target = 1.0 / HIST_BINS
        stderr = np.sqrt(target * (1 - target) / n)
        assert np.all(np.abs(h - target) <= 3 * stderr + 1e-12)

    def test_tails_are_clamped_into_edge_bins(self):
        h = histogram([-5.0, 5.0, 0.0])
        expected = np.zeros(HIST_BINS)
        expected[[0, HIST_BINS // 2, -1]] = 1 / 3
        np.testing.assert_allclose(h, expected)

    @pytest.mark.parametrize(
        "size",
        [1, NUMPY_HIST_BLOCK - 1, NUMPY_HIST_BLOCK, NUMPY_HIST_BLOCK + 1,
         3 * NUMPY_HIST_BLOCK + 5],
    )
    def test_blocks_equal_one_histogram_of_the_clipped_samples(self, size):
        rng = np.random.default_rng(size)
        values = rng.uniform(-1.2, 1.2, size)
        # samples on every edge, tails at +-2 and at the largest finite floats
        # and signed zeros, at random places and at both ends of the array and
        # of every block
        big = np.finfo(float).max
        special = np.concatenate([HIST_EDGES, [-2.0, 2.0, -big, big, -0.0, 0.0]])
        ends = [i for b in range(0, size, NUMPY_HIST_BLOCK) for i in (b, b - 1)]
        places = np.concatenate([rng.integers(0, size, 4 * special.size), ends, [size - 1]])
        values[places] = rng.choice(special, places.size)
        counts, _ = np.histogram(np.clip(values, -1.0, 1.0), bins=HIST_EDGES)
        assert histogram(values).tobytes() == (counts / counts.sum()).tobytes()

    @pytest.mark.parametrize(
        "values", [[np.nan, 0.1, 0.2], [np.inf, 0.1], [-np.inf], [np.nan]], ids=repr
    )
    def test_non_finite_samples_rejected(self, values):
        with pytest.raises(ValueError, match="non-finite"):
            histogram(values)

    def test_non_finite_sample_in_a_later_block_rejected(self):
        values = np.zeros(3 * NUMPY_HIST_BLOCK + 5)
        values[2 * NUMPY_HIST_BLOCK + 3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            histogram(values)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_unit_mass_property(self, seed):
        data = np.random.default_rng(seed).normal(0, 0.5, 1000)
        assert abs(histogram(data).sum() - 1.0) <= 1e-12


class TestModelHistograms:
    def test_large_k_concentrates_at_center(self):
        h = hyper_laplacian_histogram(1000.0, 1.0)
        assert h[HIST_BINS // 2] > 0.99

    def test_unit_mass_and_symmetry(self):
        h = hyper_laplacian_histogram(7.3, 0.6)
        assert abs(h.sum() - 1.0) <= 1e-12
        np.testing.assert_allclose(h, h[::-1], atol=1e-15)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            hyper_laplacian_histogram(0.0, 0.5)
        with pytest.raises(ValueError):
            hyper_laplacian_histogram(1.0, 1.5)

    def test_gaussian_histogram_integrates_bins(self):
        h = gaussian_histogram(0.1)
        assert abs(h.sum() - 1.0) <= 1e-12
        np.testing.assert_allclose(h, h[::-1], atol=1e-15)

    def test_gaussian_sigma_zero_is_delta(self):
        h = gaussian_histogram(0.0)
        assert h[HIST_BINS // 2] == 1.0 and np.count_nonzero(h) == 1

    def test_gaussian_histogram_equals_scipy_erf_formula(self):
        sigmas = np.concatenate(
            [np.random.default_rng(40).uniform(0.0, 1.0, 300), np.geomspace(1e-8, 1e3, 300)]
        )
        for sigma in sigmas.tolist():
            cdf = 0.5 * (1.0 + scipy.special.erf(HIST_EDGES / (sigma * np.sqrt(2.0))))
            cdf[0] = 0.0
            cdf[-1] = 1.0
            np.testing.assert_allclose(
                gaussian_histogram(sigma), np.diff(cdf),
                rtol=0, atol=2 * np.finfo(float).eps, err_msg=repr(sigma),
            )

    def test_nan_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma must be nonnegative"):
            gaussian_histogram(np.nan)

    def test_infinite_sigma_puts_the_mass_in_the_edge_bins(self):
        expected = np.zeros(HIST_BINS)
        expected[[0, -1]] = 0.5
        np.testing.assert_array_equal(gaussian_histogram(np.inf), expected)


class TestConvolveHist:
    def delta(self, offset):
        return unit_mass_at(HIST_BINS // 2 + offset)

    def test_delta_at_zero_is_identity(self):
        rng = np.random.default_rng(3)
        h = histogram(rng.normal(0, 0.3, 5000))
        np.testing.assert_allclose(convolve_hist(h, self.delta(0)), h, atol=1e-15)

    def test_opposite_deltas_cancel(self):
        out = convolve_hist(self.delta(3), self.delta(-3))
        np.testing.assert_array_equal(out, self.delta(0))

    def test_matches_naive_quadratic_oracle(self):
        rng = np.random.default_rng(4)
        a = histogram(rng.normal(0, 0.3, 4000))
        b = histogram(rng.normal(0, 0.2, 4000))
        np.testing.assert_allclose(convolve_hist(a, b), convolve_masses_oracle(a, b), atol=1e-12)


class TestNelderMead:
    def test_quadratic_bowl(self):
        x, _ = nelder_mead(
            lambda v: (v[0] - 2) ** 2 + (v[1] - 0.5) ** 2,
            (1.0, 0.9),
            (0.0, 0.0),
            (10.0, 1.0),
        )
        assert abs(x[0] - 2.0) <= 1e-4 and abs(x[1] - 0.5) <= 1e-4

    def test_rosenbrock_valley(self):
        x, _ = nelder_mead(
            lambda v: (1 - v[0]) ** 2 + 100 * (v[1] - v[0] ** 2) ** 2,
            (-1.2, 1.0),
            (-5.0, -5.0),
            (5.0, 5.0),
        )
        assert abs(x[0] - 1.0) <= 1e-3 and abs(x[1] - 1.0) <= 1e-3

    def test_iterates_respect_box(self):
        seen = []
        nelder_mead(
            lambda v: (seen.append(v.copy()), float(np.sum(v**2)))[1],
            (0.5, 0.5),
            (0.2, 0.2),
            (1.0, 1.0),
        )
        pts = np.array(seen)
        assert pts.min() >= 0.2 - 1e-15 and pts.max() <= 1.0 + 1e-15

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(ValueError):
            nelder_mead(lambda v: 0.0, (1.0, 0.5), (2.0, 0.0), (1.0, 1.0))

    def test_start_outside_bounds_rejected(self):
        with pytest.raises(ValueError):
            nelder_mead(lambda v: 0.0, (5.0, 0.5), (0.0, 0.0), (1.0, 1.0))


class TestFitDirection:
    def test_recovers_planted_exponent_with_noise(self):
        rng = np.random.default_rng(99)
        x = sample_hyper_laplacian(10.0, 0.6, 100_000, rng)
        y = x + rng.normal(0, 0.02, x.shape)
        _, p, _ = _fit_masses(histogram(y), 0.02)
        assert 0.5 <= p <= 0.7

    def test_laplacian_samples_fit_near_one(self):
        rng = np.random.default_rng(5)
        x = sample_hyper_laplacian(8.0, 1.0, 100_000, rng)
        _, p, _ = _fit_masses(histogram(x), 0.0)
        assert p >= 0.9

    def test_result_in_box_and_residual_improves_on_start(self):
        rng = np.random.default_rng(6)
        x = sample_hyper_laplacian(12.0, 0.7, 50_000, rng)
        y = x + rng.normal(0, 0.01, x.shape)
        k, p, residual = _fit_masses(histogram(y), 0.01)
        assert FIT_K_BOUNDS[0] <= k <= FIT_K_BOUNDS[1]
        assert FIT_P_BOUNDS[0] <= p <= FIT_P_BOUNDS[1]
        h = histogram(y)
        sym = 0.5 * (h + h[::-1])
        start_model = convolve_hist(hyper_laplacian_histogram(*FIT_START), gaussian_histogram(0.01))
        start_objective = float(np.sum((sym - start_model) ** 2))
        assert 0.0 <= residual <= start_objective

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            _fit_masses(histogram(np.zeros(10) + 0.1), -1.0)

    def test_non_finite_samples_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            _fit_masses(histogram(np.full(10, np.nan)), 0.1)


class TestEstimateP:
    def piecewise_cube(self, seed=7, shape=(24, 24, 12)):
        rng = np.random.default_rng(seed)
        cube = np.zeros(shape)
        # random axis-aligned constant blocks
        for _ in range(40):
            i0, j0, k0 = (rng.integers(0, s - 1) for s in shape)
            i1 = rng.integers(i0 + 1, shape[0] + 1)
            j1 = rng.integers(j0 + 1, shape[1] + 1)
            k1 = rng.integers(k0 + 1, shape[2] + 1)
            cube[i0:i1, j0:j1, k0:k1] = rng.uniform(0, 1)
        return cube

    def test_piecewise_constant_plus_noise_fits_in_bounds(self):
        rng = np.random.default_rng(8)
        cube = self.piecewise_cube()
        noisy = cube + rng.normal(0, 0.05, cube.shape)
        fit = estimate_p(noisy)
        for p, residual in zip(fit.p_values, fit.residuals):
            assert 0.1 <= p <= 1.0
            assert np.isfinite(residual)

    def test_pure_gaussian_cube_stays_in_bounds(self):
        noisy = np.random.default_rng(9).normal(0.5, 0.1, (16, 16, 8))
        fit = estimate_p(noisy)
        for p, k, sigma in zip(fit.p_values, fit.ks, fit.sigmas):
            assert FIT_P_BOUNDS[0] <= p <= FIT_P_BOUNDS[1]
            assert FIT_K_BOUNDS[0] <= k <= FIT_K_BOUNDS[1]
            assert sigma >= 0.0

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(10)
        cube = self.piecewise_cube(seed=11) + rng.normal(0, 0.03, (24, 24, 12))
        a = estimate_p(cube)
        b = estimate_p(-cube)
        assert a.p_values == b.p_values

    def test_too_small_cube_rejected(self):
        with pytest.raises(ValueError):
            estimate_p(np.zeros((1, 4, 4)))

    # 70x40x30 holds more than one histogram block
    @pytest.mark.parametrize("shape", [(5, 7, 3), (33, 17, 9), (70, 40, 30)])
    @pytest.mark.parametrize("layout", ["C", "F", "float32"])
    def test_equals_the_whole_stack_fit(self, shape, layout):
        rng = np.random.default_rng(sum(shape))
        cube = self.piecewise_cube(seed=shape[0], shape=shape) + rng.normal(0, 0.05, shape)
        cube = {"C": cube, "F": np.asfortranarray(cube), "float32": cube.astype(np.float32)}[layout]
        assert repr(estimate_p(cube)) == repr(estimate_p_stack_oracle(cube))

    def test_peak_memory_is_one_field_plus_histogram_blocks(self):
        # one difference field of y's shape, plus the sorted block copy
        # np.histogram makes and small scratch; the whole (3, h, w, p)
        # stack and a copy for the noise scale would hold three cubes more
        rng = np.random.default_rng(13)
        y = self.piecewise_cube(seed=14, shape=(128, 128, 32)) + rng.normal(0, 0.05, (128, 128, 32))
        tracemalloc.start()
        try:
            estimate_p(y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= y.nbytes + 3 * NUMPY_HIST_BLOCK * y.itemsize

    # the case2-48 benchmark input: the seed-7 rank-(5, 5, 3) truth under case-2
    # noise with stripe amplitude 0.5
    @pytest.mark.parametrize(
        "seed,expected",
        [
            (7, ((0.1, 0.20623779296874956, 0.22575590133666826),
                 (57.232421875, 17.44512939453125, 14.61802339553833),
                 (0.36927916849209746, 0.42360901550984453, 0.4227922971168635))),
            (21, ((0.1, 0.1, 0.1),
                  (57.232421875, 37.24609375, 10.57539903279394),
                  (0.36774179892171216, 0.41022130712156685, 0.41545411536102456))),
        ],
    )
    def test_case2_48_fit_is_pinned(self, seed, expected):
        truth = low_rank_cube((48, 48, 16), TuckerRanks(5, 5, 3), seed=7)
        noisy, _ = simulate_case(truth, case_spec(2, seed=seed, stripe_amplitude=0.5))
        fit = estimate_p(noisy)
        assert (fit.p_values, fit.ks, fit.sigmas) == expected

    def test_unit_mass_of_all_histograms(self):
        rng = np.random.default_rng(12)
        h = histogram(rng.normal(0, 0.2, 10_000))
        model = hyper_laplacian_histogram(10.0, 0.5)
        noise = gaussian_histogram(0.05)
        conv = convolve_hist(model, noise)
        for masses in (h, model, noise, conv):
            assert abs(masses.sum() - 1.0) <= 1e-12
