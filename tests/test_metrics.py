import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import correlate1d

import hsirestore.metrics
import hsirestore.tensor_ops
from hsirestore.metrics import evaluate, psnr, sam, ssim
from memory import traced_peak
from oracles import psnr_oracle, sam_oracle, ssim_oracle


def ssim_correlate1d(ref, test):
    """The SSIM formula with the windows taken by ``scipy.ndimage.correlate1d``, as the reference."""
    x = np.arange(-5, 6, dtype=np.float64)
    g = np.exp(-(x**2) / (2.0 * 1.5**2))
    g = g / g.sum()

    def means(field):
        rows = correlate1d(field, g, axis=0)[5:-5]
        return correlate1d(rows, g, axis=1)[:, 5:-5]

    ref = np.asarray(ref, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    mu_r, mu_t = means(ref), means(test)
    var_r = means(ref * ref) - mu_r**2
    var_t = means(test * test) - mu_t**2
    cov = means(ref * test) - mu_r * mu_t
    c1, c2 = 0.01**2, 0.03**2
    ssim_map = ((2.0 * mu_r * mu_t + c1) * (2.0 * cov + c2)) / (
        (mu_r**2 + mu_t**2 + c1) * (var_r + var_t + c2)
    )
    return float(np.mean(ssim_map))


class TestPsnr:
    def test_identical_bands_capped_at_100(self):
        band = np.random.default_rng(0).random((16, 16))
        assert psnr(band, band) == 100.0

    def test_constant_offset_closed_form(self):
        # 10*log10(1 / 0.1**2) at peak 1, for either sign of the offset
        ref = np.full((8, 8), 0.5)
        assert psnr(ref, ref + 0.1) == pytest.approx(20.0)
        assert psnr(ref, ref - 0.25) == pytest.approx(20.0 * np.log10(4.0))

    def test_matches_naive_loop_oracle(self):
        rng = np.random.default_rng(1)
        ref = rng.random((12, 13))
        test = rng.random((12, 13))
        assert psnr(ref, test) == pytest.approx(psnr_oracle(ref, test), abs=1e-10)

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        a, b = rng.random((9, 9)), rng.random((9, 9))
        assert psnr(a, b) == pytest.approx(psnr(b, a), abs=1e-12)

    def test_decreases_with_error_magnitude(self):
        ref = np.zeros((8, 8))
        values = [psnr(ref, np.full((8, 8), eps)) for eps in (0.01, 0.05, 0.1, 0.4)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((4, 4)), np.zeros((5, 4)))


class TestSsim:
    def test_self_similarity_is_one(self):
        band = np.random.default_rng(3).random((20, 20))
        assert ssim(band, band) == pytest.approx(1.0, abs=1e-12)

    def test_constant_images_closed_form(self):
        ref = np.full((16, 16), 0.5)
        test = np.full((16, 16), 0.7)
        c1 = (0.01 * 1.0) ** 2
        c2 = (0.03 * 1.0) ** 2
        expected = ((2 * 0.5 * 0.7 + c1) * c2) / ((0.5**2 + 0.7**2 + c1) * c2)
        got = ssim(ref, test)
        assert got < 1.0
        assert got == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize(
        "shape",
        [(18, 15), (11, 11), (11, 40), (40, 11), (64, 48)],
        ids=lambda s: f"{s[0]}x{s[1]}",
    )
    def test_matches_sliding_window_oracle(self, shape):
        rng = np.random.default_rng(4)
        ref = rng.random(shape)
        test = np.clip(ref + rng.normal(0, 0.1, ref.shape), 0, 1)
        assert ssim(ref, test) == pytest.approx(ssim_oracle(ref, test), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        h=st.integers(11, 40),
        w=st.integers(11, 40),
        layout=st.sampled_from(["C", "F", "strided"]),
        scale=st.sampled_from([1.0, 255.0, 1e-3, 1e6]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_correlate1d_formula_bit_for_bit(self, h, w, layout, scale, seed):
        rng = np.random.default_rng(seed)
        ref = scale * rng.random((h, w))
        test = ref + scale * rng.normal(0.0, 0.1, (h, w))
        if layout == "F":
            ref, test = np.asfortranarray(ref), np.asfortranarray(test)
        elif layout == "strided":
            ref = np.repeat(np.repeat(ref, 2, axis=0), 3, axis=1)[::2, ::3]
            test = np.repeat(np.repeat(test, 2, axis=0), 3, axis=1)[::2, ::3]
        assert ssim(ref, test) == ssim_correlate1d(ref, test)

    def test_symmetric(self):
        rng = np.random.default_rng(5)
        a, b = rng.random((14, 14)), rng.random((14, 14))
        assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)

    def test_too_small_band_rejected(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((10, 12)), np.zeros((10, 12)))


class TestSam:
    def test_identical_spectra_give_zero(self):
        v = np.array([0.2, 0.5, 0.3])
        assert sam(v, v) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_spectra_give_right_angle(self):
        assert sam(np.array([1.0, 0.0]), np.array([0.0, 2.0])) == np.pi / 2
        assert sam(np.array([1.0, 2.0, 0.0]), np.array([-2.0, 1.0, 5.0])) == np.pi / 2

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(6)
        a, b = rng.random(12), rng.random(12)
        assert sam(a, b) == pytest.approx(sam_oracle(a, b), abs=1e-12)

    def test_zero_vector_conventions(self):
        z = np.zeros(4)
        v = np.array([1.0, 0.0, 0.0, 0.0])
        assert sam(z, z) == 0.0
        assert sam(z, v) == np.pi / 2
        assert sam(v, z) == np.pi / 2

    @pytest.mark.parametrize("seed", [5, 6, 7, 8])
    def test_within_5e_16_rad_of_the_extended_precision_angle(self, seed):
        # the same formula in np.longdouble (80-bit on x86-64) as the reference
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(2, 2000, 8))

        def unit(x):
            x = x.astype(np.longdouble)
            return x / np.sqrt(np.sum(x * x, axis=-1))[:, None]

        u, v = unit(a), unit(b)
        chord = np.sqrt(np.sum((u - v) ** 2, axis=-1))
        anti = np.sqrt(np.sum((u + v) ** 2, axis=-1))
        ref = 2 * np.arctan2(chord, anti)
        assert float(np.max(np.abs(sam(a, b) - ref))) <= 5e-16

    def test_symmetric(self):
        rng = np.random.default_rng(7)
        a, b = rng.random(9), rng.random(9)
        assert sam(a, b) == pytest.approx(sam(b, a), abs=1e-14)

    def test_cube_matches_oracle_per_pixel(self):
        rng = np.random.default_rng(12)
        ref = rng.random((3, 4, 6))
        test = rng.random((3, 4, 6))
        ref[0, 0] = 0.0
        test[0, 0] = 0.0
        ref[0, 1] = 0.0
        ref[1, 0] = [2.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        test[1, 0] = -2.0 * ref[1, 0]
        angles = sam(ref, test)
        assert angles.shape == (3, 4)
        assert angles[0, 0] == 0.0
        assert angles[0, 1] == np.pi / 2
        assert angles[1, 0] == np.pi
        for i in range(3):
            for j in range(4):
                if (i, j) not in ((0, 0), (0, 1)):
                    assert angles[i, j] == pytest.approx(
                        sam_oracle(ref[i, j], test[i, j]), abs=1e-12
                    )


class TestEvaluate:
    def test_self_evaluation(self):
        cube = np.random.default_rng(8).random((16, 16, 4))
        report = evaluate(cube, cube)
        assert report.mpsnr == 100.0
        assert report.mssim == pytest.approx(1.0, abs=1e-12)
        assert report.msam == pytest.approx(0.0, abs=1e-12)

    def test_single_band_means_equal_band_values(self):
        rng = np.random.default_rng(9)
        ref = rng.random((16, 16, 1))
        test = rng.random((16, 16, 1))
        report = evaluate(ref, test)
        assert report.mpsnr == pytest.approx(report.psnr_per_band[0])
        assert report.mssim == pytest.approx(report.ssim_per_band[0])

    def test_means_are_arithmetic_means(self):
        rng = np.random.default_rng(10)
        ref = rng.random((14, 14, 5))
        test = rng.random((14, 14, 5))
        report = evaluate(ref, test)
        assert report.mpsnr == pytest.approx(np.mean(report.psnr_per_band), abs=1e-12)
        assert report.mssim == pytest.approx(np.mean(report.ssim_per_band), abs=1e-12)

    def test_msam_invariant_to_shared_spectral_scaling(self):
        rng = np.random.default_rng(11)
        ref = rng.random((12, 12, 6)) + 0.1
        test = rng.random((12, 12, 6)) + 0.1
        scale = rng.uniform(0.5, 2.0, (12, 12, 1))
        a = evaluate(ref, test).msam
        b = evaluate(ref * scale, test * scale).msam
        assert a == pytest.approx(b, abs=1e-12)

    def test_msam_is_the_mean_of_the_map(self):
        rng = np.random.default_rng(13)
        ref = rng.random((12, 12, 6))
        test = rng.random((12, 12, 6))
        ref[0, 0] = 0.0
        test[3, 4] = -ref[3, 4]
        angles = sam(ref, test)
        report = evaluate(ref, test)
        assert report.msam == float(np.mean(angles))
        # the antiparallel pixel's angle of pi is part of that mean
        assert angles[3, 4] == np.pi

    @pytest.mark.parametrize(
        ("block_entries", "split"),
        [(1, False), (500, False), (10**6, False), (960, True)],
        ids=["1", "500", "1000000", "960-split"],
    )
    def test_sam_row_blocks_equal_the_whole_cube_map(self, monkeypatch, block_entries, split):
        # 1 gives one-row blocks, 500 blocks of 2 rows and a short last one,
        # 10**6 one block; 960 gives blocks of 4 rows, and split on the helper
        # the 13 rows halve at row 6, inside the second block
        monkeypatch.setattr(hsirestore.metrics, "SAM_BLOCK_ENTRIES", block_entries)
        if split:
            monkeypatch.setattr(hsirestore.tensor_ops, "_helper_wanted", lambda: True)
            monkeypatch.setattr(hsirestore.metrics, "SPLIT_BAND_ENTRIES", 1)
        rng = np.random.default_rng(15)
        ref = rng.random((13, 12, 20))
        test = ref + rng.normal(0.0, 0.2, ref.shape)
        test[2, 3] = -ref[2, 3]
        ref[5, 6] = 0.0
        angles = sam(ref, test)
        report = evaluate(ref, test)
        assert report.msam == float(np.mean(angles))

    @pytest.mark.parametrize("bands", [1, 3, 4, 5])
    def test_band_blocks_equal_direct_band_values(self, monkeypatch, bands):
        # blocks of 4 bands: one short block, one full, one full and one band
        monkeypatch.setattr(hsirestore.metrics, "PLANE_BLOCK_ENTRIES", 4 * 16 * 13)
        rng = np.random.default_rng(16 + bands)
        ref = rng.random((16, 13, bands))
        test = np.clip(ref + rng.normal(0, 0.1, ref.shape), 0, 1)
        report = evaluate(ref, test)
        assert report.psnr_per_band.shape == report.ssim_per_band.shape == (bands,)
        for b in range(bands):
            assert report.psnr_per_band[b] == psnr(ref[:, :, b], test[:, :, b])
            assert report.ssim_per_band[b] == ssim(ref[:, :, b], test[:, :, b])
        assert report.mpsnr == float(np.mean(report.psnr_per_band))
        assert report.mssim == float(np.mean(report.ssim_per_band))

    def assert_peak_is_two_plane_blocks_plus_band_scratch(self):
        # 128x128x64 makes two blocks of 32 bands; band-major copies of both
        # whole cubes would hold two cubes.  The slack covers the temporaries
        # of one band's SSIM and of one row block's spectral angles.
        rng = np.random.default_rng(17)
        ref = rng.random((128, 128, 64))
        test = np.clip(ref + rng.normal(0, 0.1, ref.shape), 0, 1)
        block_bands = hsirestore.metrics.PLANE_BLOCK_ENTRIES // (128 * 128)
        assert block_bands < 64
        _, peak = traced_peak(evaluate, ref, test)
        assert peak <= 2 * block_bands * 128 * 128 * ref.itemsize + 2**21

    def test_peak_memory_is_two_plane_blocks_plus_band_scratch(self):
        self.assert_peak_is_two_plane_blocks_plus_band_scratch()

    def test_peak_memory_with_every_band_split_on_the_helper(self, monkeypatch):
        # the same bound with both halves of each SSIM map and of the
        # spectral-angle blocks formed at once, one of them on the helper;
        # tracemalloc sees the allocations of every thread
        monkeypatch.setattr(hsirestore.tensor_ops, "_helper_wanted", lambda: True)
        monkeypatch.setattr(hsirestore.metrics, "SPLIT_BAND_ENTRIES", 1)
        # once per process: the helper thread and its import
        hsirestore.tensor_ops._fan_out([lambda: None], [])
        self.assert_peak_is_two_plane_blocks_plus_band_scratch()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evaluate(np.zeros((12, 12, 2)), np.zeros((12, 12, 3)))

    def test_calls_module_ssim_once_per_band(self, monkeypatch):
        # the benchmark tracer wraps hsirestore.metrics.ssim; evaluate must go through it
        calls = []

        def counting_ssim(ref_band, test_band):
            calls.append(ref_band.shape)
            return ssim(ref_band, test_band)

        monkeypatch.setattr("hsirestore.metrics.ssim", counting_ssim)
        rng = np.random.default_rng(14)
        ref = rng.random((24, 20, 5))
        test = np.clip(ref + rng.normal(0, 0.1, ref.shape), 0, 1)
        report = evaluate(ref, test)
        assert calls == [(24, 20)] * 5
        for b in range(5):
            assert report.ssim_per_band[b] == ssim(ref[:, :, b], test[:, :, b])
