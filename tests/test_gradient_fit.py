import math

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
    _erf,
    convolve_hist,
    estimate_noise_sigma,
    estimate_p,
    fit_direction,
    gaussian_histogram,
    histogram,
    hyper_laplacian_histogram,
    nelder_mead,
)
from hsirestore.priors import TvWeights, diff_forward
from oracles import convolve_masses_oracle, sample_hyper_laplacian


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
            assert gaussian_histogram(sigma).tobytes() == np.diff(cdf).tobytes(), sigma


class TestErf:
    """``_erf`` against ``scipy.special.erf``, compared by bit pattern (so -0.0 != 0.0)."""

    @staticmethod
    def same_bits_as_scipy(xs: np.ndarray) -> bool:
        return np.array([_erf(x) for x in xs.tolist()]).tobytes() == scipy.special.erf(xs).tobytes()

    def test_dense_grid(self):
        xs = np.concatenate([np.linspace(-30.0, 30.0, 60_001), np.linspace(-1.5, 1.5, 30_001)])
        assert self.same_bits_as_scipy(xs)

    def test_random_inputs(self):
        rng = np.random.default_rng(41)
        xs = np.concatenate([rng.normal(0.0, 3.0, 50_000), rng.uniform(-10.0, 10.0, 50_000)])
        assert self.same_bits_as_scipy(xs)

    def test_branch_edges_tail_and_special_values(self):
        # Cephes switches formulas at 1 and 8 and cuts erfc to 0 where exp(-x^2) underflows
        maxlog_root = math.sqrt(7.09782712893383996843e2)
        edges = [1.0, 8.0, maxlog_root]
        near = [x for e in edges for x in np.nextafter(e, [-np.inf, np.inf]).tolist()]
        tiny = [5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 1e-20]
        xs = np.array(edges + near + tiny + [0.0, 27.0, 1e300, np.inf])
        xs = np.concatenate([xs, -xs])
        assert self.same_bits_as_scipy(xs)
        assert math.copysign(1.0, _erf(-0.0)) == -1.0
        assert _erf(np.inf) == 1.0 and _erf(-np.inf) == -1.0

    def test_nan_propagates(self):
        assert math.isnan(_erf(math.nan))


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
        _, p, _ = fit_direction(y, 0.02)
        assert 0.5 <= p <= 0.7

    def test_laplacian_samples_fit_near_one(self):
        rng = np.random.default_rng(5)
        x = sample_hyper_laplacian(8.0, 1.0, 100_000, rng)
        _, p, _ = fit_direction(x, 0.0)
        assert p >= 0.9

    def test_result_in_box_and_residual_improves_on_start(self):
        rng = np.random.default_rng(6)
        x = sample_hyper_laplacian(12.0, 0.7, 50_000, rng)
        y = x + rng.normal(0, 0.01, x.shape)
        k, p, residual = fit_direction(y, 0.01)
        assert FIT_K_BOUNDS[0] <= k <= FIT_K_BOUNDS[1]
        assert FIT_P_BOUNDS[0] <= p <= FIT_P_BOUNDS[1]
        h = histogram(y)
        sym = 0.5 * (h + h[::-1])
        start_model = convolve_hist(hyper_laplacian_histogram(*FIT_START), gaussian_histogram(0.01))
        start_objective = float(np.sum((sym - start_model) ** 2))
        assert 0.0 <= residual <= start_objective

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            fit_direction(np.zeros(10) + 0.1, -1.0)


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

    def test_planted_direction_exponents_recovered_via_fit(self):
        # Per-direction plants with the true noise scale supplied; the
        # MAD-based scale estimate is exercised separately (it presumes
        # mostly-flat content, which a dense hyper-Laplacian plant is not).
        for p_star, seed in ((0.5, 101), (0.7, 102), (0.9, 103)):
            rng = np.random.default_rng(seed)
            x = sample_hyper_laplacian(10.0, p_star, 100_000, rng)
            y = x + rng.normal(0, 0.01, x.shape)
            _, p_hat, _ = fit_direction(y, 0.01)
            assert abs(p_hat - p_star) <= 0.1

    def test_unit_mass_of_all_histograms(self):
        rng = np.random.default_rng(12)
        h = histogram(rng.normal(0, 0.2, 10_000))
        model = hyper_laplacian_histogram(10.0, 0.5)
        noise = gaussian_histogram(0.05)
        conv = convolve_hist(model, noise)
        for masses in (h, model, noise, conv):
            assert abs(masses.sum() - 1.0) <= 1e-12
