import numpy as np
import pytest

from hsirestore.noise import (
    NoiseSpec,
    add_stripes,
    case_spec,
    deadline_mask,
    gaussian_field,
    impulse_perturbation,
    simulate_case,
)


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
        mask, _ = impulse_perturbation((16, 16, 2), np.zeros(2), np.random.default_rng(5))
        assert not mask.any()

    def test_altered_fraction_near_ratio(self):
        mask, _ = impulse_perturbation((256, 256, 1), np.full(1, 0.2), np.random.default_rng(6))
        assert abs(mask.mean() - 0.2) <= 0.01

    def test_full_ratio_makes_every_voxel_binary(self):
        mask, values = impulse_perturbation((32, 32, 2), np.ones(2), np.random.default_rng(8))
        assert mask.all()
        assert np.all((values == 0.0) | (values == 1.0))

    def test_out_of_range_ratio_rejected(self):
        with pytest.raises(ValueError):
            impulse_perturbation((4, 4, 1), np.full(1, 1.5), np.random.default_rng(9))


class TestDeadlineMask:
    def base_spec(self, **overrides):
        return case_spec(1, seed=0, **overrides)

    def test_zero_band_fraction_marks_nothing(self):
        spec = self.base_spec(deadline_band_fraction=0.0)
        assert not deadline_mask((8, 8, 4), spec, np.random.default_rng(11)).any()

    def test_single_deadline_marks_full_columns(self):
        spec = self.base_spec(
            deadline_band_fraction=0.25, deadline_count=(1, 1), deadline_width=(2, 2)
        )
        mask = deadline_mask((10, 12, 4), spec, np.random.default_rng(12))
        dead_bands = [b for b in range(4) if mask[:, :, b].any()]
        assert len(dead_bands) == 1
        assert mask[:, :, dead_bands[0]].sum() == 2 * 10

    def test_dead_columns_identical_across_rows(self):
        spec = self.base_spec(deadline_band_fraction=0.5)
        mask = deadline_mask((16, 16, 6), spec, np.random.default_rng(14))
        for b in range(6):
            cols = mask[:, :, b].any(axis=0)
            for j in np.where(cols)[0]:
                assert mask[:, j, b].all()


class TestAddStripes:
    def test_zero_coverage_random_gives_zero_field(self):
        t = np.zeros((8, 8, 3))
        noisy, field = add_stripes(t, "random", 0.0, np.random.default_rng(15))
        assert not field.any()
        np.testing.assert_array_equal(noisy, t)

    def test_periodic_coverage_quarter_hits_every_fourth_column(self):
        t = np.zeros((8, 16, 3))
        _, field = add_stripes(t, "periodic", 0.25, np.random.default_rng(16))
        nonzero_cols = {tuple(np.where(field[0, :, b] != 0)[0]) for b in range(3)}
        assert nonzero_cols == {(0, 4, 8, 12)}

    def test_stripe_field_is_rank_one_along_rows(self):
        t = np.zeros((12, 20, 4))
        _, field = add_stripes(t, "random", (0.4, 0.5), np.random.default_rng(17))
        for b in range(4):
            sv = np.linalg.svd(field[:, :, b], compute_uv=False)
            assert sv[1] <= 1e-10 * max(sv[0], 1e-300)

    def test_mixed_and_wide_kinds_produce_stripes(self):
        t = np.zeros((8, 40, 2))
        for kind in ("mixed", "wide_vertical"):
            _, field = add_stripes(t, kind, 0.4, np.random.default_rng(18))
            assert field.any()
            # constant along rows
            np.testing.assert_array_equal(field, np.broadcast_to(field[:1], field.shape))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            add_stripes(np.zeros((4, 4, 1)), "diagonal", 0.4, np.random.default_rng(19))


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
            {"deadline_count": (3, 1)},
            {"deadline_count": (-1, 2)},
            {"deadline_width": (2, 1)},
            {"deadline_width": (-1, 1)},
        ],
        ids=lambda o: ",".join(f"{k}={v}".replace(" ", "") for k, v in o.items()),
    )
    def test_bad_stripe_and_deadline_settings_rejected(self, overrides):
        field = next(iter(overrides))
        with pytest.raises(ValueError, match=field):
            case_spec(2, seed=0, **overrides)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            case_spec(2, seed=seed)

    def test_zero_amplitude_and_empty_deadline_ranges_accepted(self):
        spec = case_spec(2, seed=0, stripe_amplitude=0.0, deadline_count=(0, 0))
        _, comps = simulate_case(np.full((8, 8, 4), 0.5), spec)
        assert not comps["deadline_mask"].any()
        assert not comps["stripe_field"].any()
