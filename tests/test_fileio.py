from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hsirestore.fileio import (
    ConfigError,
    CubeFileError,
    normalize_bands,
    parse_solver_config,
    read_cube,
    read_manifest,
    solver_config_text,
    write_cube,
    write_manifest,
)
from hsirestore.noise import case_spec
from hsirestore.priors import TvWeights
from hsirestore.solver import SolverConfig
from hsirestore.tucker import TuckerRanks


def f32_cube(seed=0, shape=(5, 6, 3)):
    # values representable exactly in the on-disk float32 payload
    return np.random.default_rng(seed).random(shape).astype(np.float32).astype(np.float64)


class TestCubeRoundTrip:
    def test_write_read_bit_identical(self, tmp_path):
        cube = f32_cube()
        path = tmp_path / "a.cube"
        write_cube(path, cube)
        np.testing.assert_array_equal(read_cube(path), cube)

    def test_header_layout(self, tmp_path):
        cube = f32_cube(shape=(2, 3, 4))
        path = tmp_path / "b.cube"
        write_cube(path, cube)
        raw = path.read_bytes()
        assert raw[:8] == b"HSICUBE1"
        assert np.frombuffer(raw[8:20], dtype="<u4").tolist() == [2, 3, 4]
        assert len(raw) == 20 + 4 * 24

    def test_payload_is_mode1_fastest(self, tmp_path):
        cube = np.zeros((2, 2, 1))
        cube[1, 0, 0] = 1.0  # second element in mode-1-fastest order
        path = tmp_path / "c.cube"
        write_cube(path, cube)
        payload = np.frombuffer(path.read_bytes()[20:], dtype="<f4")
        np.testing.assert_array_equal(payload, [0.0, 1.0, 0.0, 0.0])

    def test_truncated_payload_reports_byte_counts(self, tmp_path):
        path = tmp_path / "d.cube"
        write_cube(path, f32_cube())
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(CubeFileError, match=r"expected \d+ bytes, got \d+"):
            read_cube(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "e.cube"
        write_cube(path, f32_cube())
        raw = bytearray(path.read_bytes())
        raw[:8] = b"NOTACUBE"
        path.write_bytes(bytes(raw))
        with pytest.raises(CubeFileError, match="magic"):
            read_cube(path)

    def test_zero_dimension_rejected(self, tmp_path):
        import struct

        path = tmp_path / "f.cube"
        path.write_bytes(struct.pack("<8sIII", b"HSICUBE1", 0, 3, 4))
        with pytest.raises(CubeFileError, match="zero dimension"):
            read_cube(path)

    def test_non_finite_values_rejected_on_write(self, tmp_path):
        cube = f32_cube()
        cube[0, 0, 0] = np.inf
        with pytest.raises(CubeFileError, match="finite"):
            write_cube(tmp_path / "g.cube", cube)

    def test_non_finite_payload_rejected_on_read(self, tmp_path):
        path = tmp_path / "h.cube"
        write_cube(path, f32_cube(shape=(1, 1, 1)))
        raw = bytearray(path.read_bytes())
        raw[20:24] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(CubeFileError, match="finite"):
            read_cube(path)


class TestNormalization:
    def test_explicit_flag_normalizes_per_band(self, tmp_path):
        rng = np.random.default_rng(1)
        cube = (rng.random((6, 6, 3)) * 5 + 1).astype(np.float32).astype(np.float64)
        path = tmp_path / "n.cube"
        write_cube(path, cube)
        raw = read_cube(path)
        np.testing.assert_array_equal(raw, cube)  # no implicit normalization
        norm = read_cube(path, normalize=True)
        for b in range(3):
            assert norm[:, :, b].min() == pytest.approx(0.0)
            assert norm[:, :, b].max() == pytest.approx(1.0)
        # read_cube normalizes its own cube in place, to the same bytes
        assert norm.flags.c_contiguous
        assert norm.tobytes() == normalize_bands(raw).tobytes()

    def test_constant_band_maps_to_zero(self):
        cube = np.full((4, 4, 2), 3.5)
        out = normalize_bands(cube)
        assert not out.any()

    def test_argument_left_unchanged(self):
        cube = np.random.default_rng(2).random((5, 4, 3)) * 7 - 2
        before = cube.copy()
        out = normalize_bands(cube)
        assert out is not cube
        assert cube.tobytes() == before.tobytes()
        lo = before.min(axis=(0, 1))
        span = before.max(axis=(0, 1)) - lo
        assert out.tobytes() == ((before - lo) / span).tobytes()


class TestSolverConfigIO:
    def test_defaults_from_empty_text(self):
        cfg = parse_solver_config("# nothing but comments\n\n")
        assert cfg == SolverConfig()

    def test_full_round_trip(self):
        cfg = SolverConfig(
            lambda_tv=0.004,
            lambda_sparse=0.05,
            beta0=0.02,
            beta_growth=1.2,
            weights=TvWeights(1.0, 0.9, 0.4),
            ranks_x=TuckerRanks(8, 8, 5),
            ranks_b=TuckerRanks(1, 24, 16),
            epsilon=1e-7,
            max_iter=50,
            p_override=(0.6, 0.7, 0.5),
            stripe_enabled=False,
        )
        assert parse_solver_config(solver_config_text(cfg)) == cfg

    def test_weights_not_given_keep_the_config_defaults(self):
        assert parse_solver_config("weight_h=2").weights == replace(SolverConfig().weights, w_h=2.0)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            parse_solver_config("lambda_tv=0.002\nbogus_key=1\n")
        with pytest.raises(ConfigError, match="unknown config keys"):
            parse_solver_config("hooi_max_iter=0\n")

    def test_invalid_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_solver_config("lambda_tv=abc\n")
        with pytest.raises(ConfigError):
            parse_solver_config("epsilon=0\n")
        with pytest.raises(ConfigError):
            parse_solver_config("ranks_x=1,2\n")
        for text in (
            "weight_h=-1\n",
            "weight_p=nan\n",
            "ranks_x=0,2,2\n",
            "lambda_tv=nan\n",
            "epsilon=nan\n",
            "beta_growth=nan\n",
            "epsilon=inf\n",
        ):
            with pytest.raises(ConfigError):
                parse_solver_config(text)

    def test_readme_config_block_lists_every_key_and_default(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("### Config file", 1)[1].split("```\n", 2)[1]
        lines = [line.split("#", 1)[0].strip() for line in block.splitlines()]
        assert lines == solver_config_text(SolverConfig()).splitlines()

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_solver_config("beta0=0.1\nbeta0=0.2\n")


class TestManifest:
    def test_round_trips_noise_spec(self, tmp_path):
        spec = case_spec(2, seed=99, stripe_amplitude=0.5)
        path = tmp_path / "manifest.txt"
        write_manifest(path, spec)
        assert read_manifest(path) == spec

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "manifest.txt"
        write_manifest(path, case_spec(1, seed=0))
        lines = path.read_text().splitlines()
        assert len(lines) == 10
        for dropped in lines:
            key = dropped.partition("=")[0]
            path.write_text("".join(f"{line}\n" for line in lines if line != dropped))
            with pytest.raises(ConfigError, match=f"missing keys: \\['{key}'\\]"):
                read_manifest(path)

    def test_invalid_value_rejected(self, tmp_path):
        spec = case_spec(2, seed=0)
        path = tmp_path / "manifest.txt"
        write_manifest(path, spec)
        text = path.read_text().replace(f"stripe_kind={spec.stripe_kind}\n", "stripe_kind=bogus\n")
        path.write_text(text)
        with pytest.raises(ConfigError, match="bogus"):
            read_manifest(path)
        for key, bad in (
            ("stripe_amplitude", "nan"),
            ("stripe_amplitude", "-0.5"),
            ("deadline_count", "3,1"),
            ("deadline_count", "-1,2"),
            ("deadline_width", "2,1"),
            ("seed", "-1"),
        ):
            write_manifest(path, spec)
            lines = path.read_text().splitlines()
            lines = [f"{key}={bad}" if line.startswith(f"{key}=") else line for line in lines]
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(ConfigError, match=key):
                read_manifest(path)
