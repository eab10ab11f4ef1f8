import tracemalloc

import numpy as np
import pytest

from hsirestore import noise
from hsirestore.noise import (
    DEADLINE_COUNT,
    DEADLINE_WIDTH,
    IMPULSE_BLOCK_ENTRIES,
    NoiseSpec,
    _stripe_field,
    case_spec,
    deadline_mask,
    gaussian_field,
    impulse_perturbation,
    simulate_case,
)
from hsirestore.tensor_ops import validate_cube


def np_where_composition(truth, spec, comps):
    """The noisy cube as two ``np.where`` copies build it from ``comps``.

    The impulse values are not a component, so they come from replaying the
    seeded draws in ``simulate_case``'s order, each impulse draw as one
    whole-cube ``rng.random``; the replayed components must equal the
    returned ones.
    """
    rng = np.random.default_rng(spec.seed)
    p = truth.shape[2]
    sigma_per_band = np.sqrt(rng.uniform(*spec.gaussian_variance, size=p))
    gauss = rng.standard_normal(truth.shape) * sigma_per_band
    stripe_field = _stripe_field(
        truth.shape, spec.stripe_kind, spec.stripe_coverage, spec.stripe_amplitude, rng
    )
    dead = deadline_mask(truth.shape, rng)
    ratio_per_band = rng.uniform(*spec.impulse_ratio, size=p)
    imp_mask = rng.random(truth.shape) < ratio_per_band
    imp_values = (rng.random(truth.shape) < 0.5).astype(np.float64)
    for name, replayed in (
        ("gaussian", gauss),
        ("stripe_field", stripe_field),
        ("deadline_mask", dead),
        ("impulse_mask", imp_mask),
    ):
        np.testing.assert_array_equal(comps[name], replayed)
    noisy = truth + comps["gaussian"] + comps["stripe_field"]
    noisy = np.where(comps["deadline_mask"], 0.0, noisy)
    return np.where(comps["impulse_mask"], imp_values, noisy)


class TestGaussianField:
    def test_zero_sigma_is_identity(self):
        t = np.random.default_rng(0).random((8, 8, 3))
        rng = np.random.default_rng(1)
        np.testing.assert_array_equal(t + gaussian_field(t.shape, np.zeros(3), rng), t)

    def test_per_band_sample_std(self):
        rng = np.random.default_rng(2)
        field = gaussian_field((128, 128, 4), np.full(4, 0.1), rng)
        stds = field.std(axis=(0, 1))
        assert np.all((stds >= 0.095) & (stds <= 0.105))

    def test_band_means_stay_near_input_means(self):
        rng = np.random.default_rng(3)
        t = np.full((128, 128, 4), 0.5)
        sigma = 0.1
        noisy = t + gaussian_field(t.shape, np.full(4, sigma), rng)
        tol = 3 * sigma / np.sqrt(128 * 128)
        assert np.all(np.abs(noisy.mean(axis=(0, 1)) - 0.5) <= tol)


class TestImpulsePerturbation:
    def test_zero_ratio_marks_nothing(self):
        cube = np.full((16, 16, 2), 0.5)
        mask = impulse_perturbation(cube, np.zeros(2), np.random.default_rng(5))
        assert not mask.any()
        assert np.all(cube == 0.5)

    def test_altered_fraction_near_ratio(self):
        mask = impulse_perturbation(np.zeros((256, 256, 1)), np.full(1, 0.2), np.random.default_rng(6))
        assert abs(mask.mean() - 0.2) <= 0.01

    def test_full_ratio_makes_every_voxel_binary(self):
        cube = np.full((32, 32, 2), 0.5)
        mask = impulse_perturbation(cube, np.ones(2), np.random.default_rng(8))
        assert mask.all()
        assert np.all((cube == 0.0) | (cube == 1.0))

    def test_out_of_range_ratio_rejected(self):
        with pytest.raises(ValueError):
            impulse_perturbation(np.zeros((4, 4, 1)), np.full(1, 1.5), np.random.default_rng(9))

    @pytest.mark.parametrize("block_entries", [1, 60, 10**6])
    def test_row_blocks_draw_the_whole_cube_stream(self, monkeypatch, block_entries):
        # 7 rows of 4x5 entries: one row, three rows with a short last block,
        # and the whole cube per block
        monkeypatch.setattr(noise, "IMPULSE_BLOCK_ENTRIES", block_entries)
        cube = np.random.default_rng(10).random((7, 4, 5))
        ratio = np.linspace(0.0, 1.0, 5)
        rng = np.random.default_rng(11)
        mask = rng.random(cube.shape) < ratio
        expected = np.where(mask, rng.random(cube.shape) < 0.5, cube)
        assert impulse_perturbation(cube, ratio, np.random.default_rng(11)).tobytes() == mask.tobytes()
        assert cube.tobytes() == expected.tobytes()


class TestDeadlineMask:
    def test_zero_band_fraction_marks_nothing(self):
        # a third of one band rounds to zero dead bands
        assert not deadline_mask((8, 8, 1), np.random.default_rng(11)).any()

    def test_single_deadline_marks_full_columns(self):
        # a third of four bands rounds to one dead band
        mask = deadline_mask((10, 12, 4), np.random.default_rng(12))
        dead_bands = [b for b in range(4) if mask[:, :, b].any()]
        assert len(dead_bands) == 1
        dead_cols = mask[:, :, dead_bands[0]].any(axis=0)
        assert mask[:, :, dead_bands[0]].sum() == dead_cols.sum() * 10

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6, 7, 9, 16])
    def test_default_ranges(self, p):
        # round(p/3) dead bands, each with 1-3 runs of 1-3 whole columns; the
        # runs may overlap or touch, so a band has 1-9 dead columns in 1-3
        # separate stretches
        assert (DEADLINE_COUNT, DEADLINE_WIDTH) == ((1, 3), (1, 3))
        dead_counts = []
        for seed in range(40):
            mask = deadline_mask((5, 40, p), np.random.default_rng(seed))
            cols = mask.any(axis=0)
            assert np.array_equal(mask, np.broadcast_to(cols, mask.shape))
            dead_bands = np.flatnonzero(cols.any(axis=0))
            assert dead_bands.size == round(p / 3)
            for band in dead_bands:
                stretches = np.count_nonzero(np.diff(cols[:, band].astype(int)) == 1)
                stretches += int(cols[0, band])
                assert 1 <= stretches <= 3
                dead_counts.append(int(cols[:, band].sum()))
        assert set(dead_counts) <= set(range(1, 10))
        if dead_counts:
            assert min(dead_counts) == 1 and max(dead_counts) >= 6

    def test_dead_columns_identical_across_rows(self):
        mask = deadline_mask((16, 16, 6), np.random.default_rng(14))
        for b in range(6):
            cols = mask[:, :, b].any(axis=0)
            for j in np.where(cols)[0]:
                assert mask[:, j, b].all()


class TestAddStripes:
    def test_zero_coverage_random_gives_zero_field(self):
        field = _stripe_field((8, 8, 3), "random", (0.0, 0.0), 0.25, np.random.default_rng(15))
        assert field.shape == (8, 8, 3)
        assert not field.any()

    def test_periodic_coverage_quarter_hits_every_fourth_column(self):
        field = _stripe_field((8, 16, 3), "periodic", (0.25, 0.25), 0.25, np.random.default_rng(16))
        nonzero_cols = {tuple(np.where(field[0, :, b] != 0)[0]) for b in range(3)}
        assert nonzero_cols == {(0, 4, 8, 12)}

    def test_stripe_field_is_rank_one_along_rows(self):
        field = _stripe_field((12, 20, 4), "random", (0.4, 0.5), 0.25, np.random.default_rng(17))
        for b in range(4):
            sv = np.linalg.svd(field[:, :, b], compute_uv=False)
            assert sv[1] <= 1e-10 * max(sv[0], 1e-300)

    def test_mixed_and_wide_kinds_produce_stripes(self):
        for kind in ("mixed", "wide_vertical"):
            field = _stripe_field((8, 40, 2), kind, (0.4, 0.4), 0.25, np.random.default_rng(18))
            assert field.any()
            # constant along rows
            np.testing.assert_array_equal(field, np.broadcast_to(field[:1], field.shape))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="diagonal"):
            _stripe_field((4, 4, 1), "diagonal", (0.4, 0.4), 0.25, np.random.default_rng(19))


class TestSimulateCase:
    def truth(self, seed=20, shape=(24, 24, 8)):
        return np.random.default_rng(seed).uniform(0.05, 0.95, shape)

    def test_case1_has_no_stripes(self):
        noisy, comps = simulate_case(self.truth(), case_spec(1, seed=21))
        assert not comps["stripe_field"].any()

    def test_case2_parameters_are_pinned(self):
        spec = case_spec(2, seed=22)
        assert spec.gaussian_variance == (0.1, 0.1)
        assert spec.impulse_ratio == (0.2, 0.2)
        assert spec.stripe_kind == "random"
        assert spec.stripe_coverage == (0.4, 0.5)

    def test_bit_identical_reruns(self):
        truth = self.truth()
        spec = case_spec(3, seed=23)
        noisy_a, comps_a = simulate_case(truth, spec)
        noisy_b, comps_b = simulate_case(truth, spec)
        np.testing.assert_array_equal(noisy_a, noisy_b)
        for key in comps_a:
            np.testing.assert_array_equal(comps_a[key], comps_b[key])

    @pytest.mark.parametrize("case_id", [1, 2, 3, 4, 5, 6])
    def test_components_reconstruct_untouched_voxels_exactly(self, case_id):
        truth = self.truth(seed=24 + case_id)
        noisy, comps = simulate_case(truth, case_spec(case_id, seed=30 + case_id))
        untouched = ~(comps["impulse_mask"] | comps["deadline_mask"])
        rebuilt = truth + comps["gaussian"] + comps["stripe_field"]
        np.testing.assert_array_equal(rebuilt[untouched], noisy[untouched])

    @pytest.mark.parametrize("case_id", [1, 2, 3, 4, 5, 6])
    def test_truth_unchanged_and_noisy_equals_np_where_composition(self, case_id):
        spec = case_spec(case_id, seed=50 + case_id)
        truth = self.truth(seed=60 + case_id, shape=(12, 16, 6))
        assert validate_cube(truth) is truth  # the cube simulate_case works on is truth itself
        before = truth.copy()
        noisy, comps = simulate_case(truth, spec)
        assert truth.tobytes() == before.tobytes()
        assert noisy.tobytes() == np_where_composition(truth, spec, comps).tobytes()

        fortran = np.asfortranarray(truth)
        noisy_f, _ = simulate_case(fortran, spec)
        assert fortran.tobytes() == before.tobytes()
        assert noisy_f.tobytes() == noisy.tobytes()

    def test_peak_memory_is_returned_bytes_plus_one_impulse_block(self):
        # 128x128x16 holds eight impulse blocks; drawing the impulse uniforms
        # for the whole cube at once would hold two more cube-sized buffers.
        # Beside the block, numpy's iterator takes a fixed buffer of about
        # 64 KiB to broadcast the per-band ratios.
        truth = self.truth(seed=42, shape=(128, 128, 16))
        tracemalloc.start()
        try:
            noisy, comps = simulate_case(truth, case_spec(2, seed=43))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        returned = noisy.nbytes + sum(c.nbytes for c in comps.values())
        assert peak <= returned + IMPULSE_BLOCK_ENTRIES * noisy.itemsize + 2**17

    def test_impulse_voxels_are_binary(self):
        noisy, comps = simulate_case(self.truth(), case_spec(2, seed=40))
        values = noisy[comps["impulse_mask"]]
        assert np.all((values == 0.0) | (values == 1.0))

    def test_deadline_voxels_are_zero_unless_overwritten(self):
        noisy, comps = simulate_case(self.truth(), case_spec(2, seed=41))
        dead_only = comps["deadline_mask"] & ~comps["impulse_mask"]
        assert np.all(noisy[dead_only] == 0.0)

    def test_invalid_case_rejected(self):
        with pytest.raises(ValueError):
            case_spec(7, seed=0)

    def test_bool_case_rejected(self):
        # True == 1, so a dict lookup alone would find case 1
        with pytest.raises(ValueError, match="case_id"):
            case_spec(True, seed=0)


class TestNoiseSpecValidation:
    def test_bad_ranges_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(
                case_id=1,
                gaussian_variance=(0.2, 0.1),
                impulse_ratio=(0.0, 0.1),
                stripe_kind="none",
                stripe_coverage=(0.0, 0.0),
            )
        with pytest.raises(ValueError):
            NoiseSpec(
                case_id=1,
                gaussian_variance=(0.0, 0.1),
                impulse_ratio=(0.0, 1.5),
                stripe_kind="none",
                stripe_coverage=(0.0, 0.0),
            )

    @pytest.mark.parametrize(
        "overrides",
        [
            {"stripe_amplitude": float("nan")},
            {"stripe_amplitude": float("inf")},
            {"stripe_amplitude": -0.5},
            {"gaussian_variance": (0.1, float("inf"))},
        ],
        ids=lambda o: ",".join(f"{k}={v}".replace(" ", "") for k, v in o.items()),
    )
    def test_bad_stripe_and_deadline_settings_rejected(self, overrides):
        field = next(iter(overrides))
        with pytest.raises(ValueError, match=field):
            case_spec(2, seed=0, **overrides)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            case_spec(2, seed=seed)

    def test_zero_amplitude_and_empty_deadline_ranges_accepted(self):
        # one band draws no dead lines, and a zero amplitude draws zero stripes
        spec = case_spec(2, seed=0, stripe_amplitude=0.0)
        _, comps = simulate_case(np.full((8, 8, 1), 0.5), spec)
        assert not comps["deadline_mask"].any()
        assert not comps["stripe_field"].any()

    @pytest.mark.parametrize("case_id", [2.0, np.float64(2.0), "2", None])
    def test_non_integer_case_rejected(self, case_id):
        with pytest.raises(ValueError, match="case_id"):
            case_spec(case_id, seed=0)

    def test_numpy_integer_case_stored_as_int(self):
        spec = case_spec(np.int64(2), seed=0)
        assert type(spec.case_id) is int
        assert spec == case_spec(2, seed=0)
