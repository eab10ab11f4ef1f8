import warnings
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from hsirestore import fileio, tensor_ops
from hsirestore.fileio import (
    ConfigError,
    CubeFileError,
    normalize_bands,
    parse_solver_config,
    read_cube,
    record_text,
    write_cube,
)
from hsirestore.noise import NoiseSpec, case_spec
from hsirestore.solver import SolverConfig
from hsirestore.tucker import TuckerRanks
from memory import traced_peak
from oracles import cube_file_oracle, cube_read_oracle, manifest_spec_oracle


def readme_config_block() -> str:
    """The README's "all keys and defaults" config block, comments included."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split("### Config file", 1)[1].split("```\n", 2)[1]


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

    @pytest.mark.parametrize("value", [1e40, -1e40, 2.0 * float(np.finfo(np.float32).max)])
    def test_values_beyond_float32_rejected_on_write(self, tmp_path, value):
        # they would be written as inf, which read_cube then refuses
        path = tmp_path / "o.cube"
        with pytest.raises(CubeFileError, match="finite"):
            write_cube(path, np.full((2, 2, 2), value))
        assert not path.exists()

    def test_largest_float32_value_written(self, tmp_path):
        cube = np.full((2, 2, 2), float(np.finfo(np.float32).max))
        cube[0, 0, 0] = -cube[0, 0, 0]
        path = tmp_path / "m.cube"
        write_cube(path, cube)
        assert read_cube(path).tobytes() == cube.tobytes()

    def test_non_finite_payload_rejected_on_read(self, tmp_path):
        path = tmp_path / "h.cube"
        write_cube(path, f32_cube(shape=(1, 1, 1)))
        raw = bytearray(path.read_bytes())
        raw[20:24] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(CubeFileError, match="finite"):
            read_cube(path)


# the smallest float64 whose float32 cast overflows: the midpoint between the
# largest float32 and 2**128 rounds to the even neighbour, 2**128
FLOAT32_LIMIT = 2.0**128 - 2.0**103


def layouts(shape, seed=31):
    """One cube in each layout ``write_cube`` accepts, all of ``shape``."""
    rng = np.random.default_rng(seed)
    h, w, p = shape
    c = rng.standard_normal(shape) * 3
    return {
        "c": c,
        "fortran": np.asfortranarray(c),
        "strided": rng.standard_normal((2 * h, w, 3 * p))[::2, :, ::3],
        "broadcast": np.broadcast_to(rng.standard_normal((w, p)), shape),
        "bool": c > 0,
    }


class TestStreamedCube:
    """The payload is converted in blocks of whole bands through one float32 buffer."""

    SHAPE = (6, 5, 7)  # 30 values per band

    # one band per block; blocks of 2, 2, 2 and 1 bands; one block for the cube
    @pytest.mark.parametrize("block_entries", [1, 61, 10**9])
    @pytest.mark.parametrize("layout", ["c", "fortran", "strided", "broadcast", "bool"])
    def test_file_and_cube_equal_the_one_shot_cast(self, tmp_path, monkeypatch, block_entries, layout):
        # the transfer buffer holds float32 values
        monkeypatch.setattr(tensor_ops, "BAND_BLOCK_BYTES", 4 * block_entries)
        cube = layouts(self.SHAPE)[layout]
        path = tmp_path / "s.cube"
        write_cube(path, cube)
        raw = path.read_bytes()
        assert raw == cube_file_oracle(cube)
        expected = cube_read_oracle(raw)
        got = read_cube(path)
        assert got.flags.c_contiguous and got.dtype == np.float64
        assert got.tobytes() == expected.tobytes()
        assert read_cube(path, normalize=True).tobytes() == normalize_bands(expected).tobytes()

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_values_just_below_the_float32_limit_written(self, tmp_path, sign):
        cube = f32_cube()
        cube[1, 2, 0] = sign * np.nextafter(FLOAT32_LIMIT, 0.0)
        path = tmp_path / "edge.cube"
        write_cube(path, cube)
        assert path.read_bytes() == cube_file_oracle(cube)
        assert read_cube(path)[1, 2, 0] == sign * float(np.finfo(np.float32).max)

    @pytest.mark.parametrize("value", [FLOAT32_LIMIT, -FLOAT32_LIMIT, np.nan, np.inf, -np.inf])
    def test_rejected_without_a_warning_and_the_path_left_alone(self, tmp_path, value):
        path = tmp_path / "kept.cube"
        write_cube(path, f32_cube(seed=4))
        before = path.read_bytes()
        cube = f32_cube()
        cube[1, 2, 0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CubeFileError, match="not finite in float32"):
                write_cube(path, cube)
        assert path.read_bytes() == before

    @pytest.mark.parametrize("extra", [-1, 4])
    def test_wrong_payload_length_reports_both_byte_counts(self, tmp_path, extra):
        path = tmp_path / "len.cube"
        write_cube(path, f32_cube())
        raw = path.read_bytes()
        expected = len(raw)
        path.write_bytes(raw[:extra] if extra < 0 else raw + b"\0" * extra)
        message = f"payload length mismatch, expected {expected} bytes, got {expected + extra}"
        with pytest.raises(CubeFileError, match=message):
            read_cube(path)

    @pytest.mark.parametrize("block_entries", [1, 10**9])
    def test_short_read_reports_the_bytes_found(self, tmp_path, monkeypatch, block_entries):
        # the file shrinks after read_cube took its size
        monkeypatch.setattr(tensor_ops, "BAND_BLOCK_BYTES", 4 * block_entries)
        path = tmp_path / "short.cube"
        write_cube(path, f32_cube())
        raw = path.read_bytes()
        path.write_bytes(raw[:-6])
        monkeypatch.setattr(fileio, "os", SimpleNamespace(fstat=lambda fd: SimpleNamespace(st_size=len(raw))))
        message = f"payload length mismatch, expected {len(raw)} bytes, got {len(raw) - 6}"
        with pytest.raises(CubeFileError, match=message):
            read_cube(path)

    @pytest.mark.parametrize("band", [0, 6])
    def test_non_finite_value_found_in_any_block(self, tmp_path, monkeypatch, band):
        monkeypatch.setattr(tensor_ops, "BAND_BLOCK_BYTES", 1)
        path = tmp_path / "nan.cube"
        write_cube(path, f32_cube(shape=self.SHAPE))
        raw = bytearray(path.read_bytes())
        offset = 20 + 4 * 30 * band + 4 * 29  # the last value of the band
        raw[offset : offset + 4] = np.array([np.inf], dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(CubeFileError, match="payload contains non-finite values"):
            read_cube(path)


class TestStreamedMemory:
    """Peaks above the inputs on a cube of four blocks, measured with tracemalloc."""

    SHAPE = (128, 128, 256)  # 64 bands per float32 block of BAND_BLOCK_BYTES

    def test_write_holds_one_float32_block(self, tmp_path):
        # a whole-cube cast would hold half a cube of float32 payload
        cube = np.random.default_rng(6).random(self.SHAPE)
        assert 4 * tensor_ops.bands_per_block(self.SHAPE, 4) == self.SHAPE[2]
        _, peak = traced_peak(write_cube, tmp_path / "w.cube", cube)
        assert peak <= 0.2 * cube.nbytes

    def test_normalized_read_holds_the_cube_and_one_block(self, tmp_path):
        # reading the whole file at once would hold half a cube of bytes beside it
        cube = np.random.default_rng(7).random(self.SHAPE)
        path = tmp_path / "r.cube"
        write_cube(path, cube)
        _, peak = traced_peak(read_cube, path, normalize=True)
        assert peak <= 1.2 * cube.nbytes

    def test_both_bounds_hold_with_the_helper_forced_on(self, monkeypatch, tmp_path):
        # the helper thread is on whenever two CPUs are allowed; tracemalloc
        # would see what it allocated too
        monkeypatch.setattr(tensor_ops, "_helper_wanted", lambda: True)
        self.test_write_holds_one_float32_block(tmp_path)
        self.test_normalized_read_holds_the_cube_and_one_block(tmp_path)


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
            ranks_x=TuckerRanks(8, 8, 5),
            ranks_b=TuckerRanks(1, 24, 16),
            epsilon=1e-7,
            max_iter=50,
            p_override=(0.6, 0.7, 0.5),
            stripe_enabled=False,
        )
        assert parse_solver_config(record_text(cfg)) == cfg

    def test_numpy_scalars_round_trip(self):
        # a config built through the API may hold numpy scalars; its config.txt
        # must still parse back to an equal config
        cfg = SolverConfig(
            lambda_tv=np.float64(0.003),
            lambda_sparse=np.float64(0.05),
            beta0=np.float64(0.02),
            beta_growth=np.float64(1.2),
            epsilon=np.float64(1e-7),
            p_override=tuple(np.float64([0.6, 0.7, 0.5])),
        )
        text = record_text(cfg)
        assert "np." not in text
        assert parse_solver_config(text) == cfg

    def test_keys_are_the_config_fields_in_order(self):
        keys = list(fileio._parse_lines(record_text(SolverConfig())))
        assert keys == [f.name for f in fields(SolverConfig)]

    def test_weight_keys_rejected_as_unknown(self):
        # the difference weights are the constant solver.DIFF_WEIGHTS
        for key in ("weight_h", "weight_w", "weight_p"):
            with pytest.raises(ConfigError, match="unknown config keys"):
                parse_solver_config(f"{key}=1.0\n")

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
            "ranks_x=0,2,2\n",
            "lambda_tv=nan\n",
            "epsilon=nan\n",
            "beta_growth=nan\n",
            "epsilon=inf\n",
        ):
            with pytest.raises(ConfigError):
                parse_solver_config(text)

    def test_readme_config_block_lists_every_key_and_default(self):
        written = fileio._parse_lines(record_text(SolverConfig()))
        assert list(fileio._parse_lines(readme_config_block()).items()) == list(written.items())

    def test_readme_config_block_parses_to_the_defaults(self):
        assert parse_solver_config(readme_config_block()) == SolverConfig()

    def test_inline_comment_dropped(self):
        text = "lambda_tv=0.004   # gradient-prior weight\n  # indented comment\nmax_iter=7#no space\n"
        assert parse_solver_config(text) == SolverConfig(lambda_tv=0.004, max_iter=7)

    def test_default_text_exact(self):
        assert record_text(SolverConfig()) == (
            "lambda_tv=0.002\nlambda_sparse=0.02\nbeta0=0.01\nbeta_growth=1.1\n"
            "ranks_x=auto\nranks_b=auto\nepsilon=1e-06\nmax_iter=100\n"
            "p_override=auto\nstripe_enabled=true\n"
        )

    def test_mixed_value_types_text_exact(self):
        # an int where a float is declared, numpy scalars and explicit ranks
        cfg = SolverConfig(
            lambda_tv=1,
            max_iter=np.int64(50),
            p_override=tuple(np.float64([0.6, 0.7, 0.5])),
            ranks_x=TuckerRanks(8, 8, 5),
            ranks_b=TuckerRanks(1, np.int64(4), 4),
            stripe_enabled=False,
        )
        assert record_text(cfg) == (
            "lambda_tv=1.0\nlambda_sparse=0.02\nbeta0=0.01\nbeta_growth=1.1\n"
            "ranks_x=8,8,5\nranks_b=1,4,4\nepsilon=1e-06\nmax_iter=50\n"
            "p_override=0.6,0.7,0.5\nstripe_enabled=false\n"
        )
        assert parse_solver_config(record_text(cfg)) == cfg

    @pytest.mark.parametrize(
        "text, message",
        [
            ("lambda_tv=abc\n", "lambda_tv: expected a number, got 'abc'"),
            ("max_iter=1.5\n", "max_iter: expected an integer, got '1.5'"),
            ("stripe_enabled=maybe\n", "stripe_enabled: expected true/false, got 'maybe'"),
            ("p_override=0.5,0.5\n", "p_override: expected 3 comma-separated values, got '0.5,0.5'"),
            ("ranks_x=4,x,4\n", "ranks_x: expected an integer, got 'x'"),
            ("ranks_b=auto,1,1\n", "ranks_b: expected an integer, got 'auto'"),
            ("epsilon=auto\n", "epsilon: expected a number, got 'auto'"),
            ("bogus=1\nweight_h=1\n", "unknown config keys: ['bogus', 'weight_h']"),
            ("beta0=0.1\nbeta0=0.2\n", "line 2: duplicate key 'beta0'"),
            ("lambda_tv\n", "line 1: expected key=value, got 'lambda_tv'"),
            ("ranks_x=0,2,2\n", "ranks must be positive integers, got (0, 2, 2)"),
        ],
    )
    def test_error_messages(self, text, message):
        with pytest.raises(ConfigError) as info:
            parse_solver_config(text)
        assert str(info.value) == message

    def test_auto_and_booleans_in_any_case(self):
        cfg = parse_solver_config("ranks_x=AUTO\np_override=Auto\nstripe_enabled=No\n")
        assert cfg == SolverConfig(stripe_enabled=False)
        assert parse_solver_config("stripe_enabled=YES\nranks_b=1, 3, 3\n") == SolverConfig(
            ranks_b=TuckerRanks(1, 3, 3)
        )

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_solver_config("beta0=0.1\nbeta0=0.2\n")


class TestManifest:
    def test_case2_seed7_text_exact(self):
        assert record_text(case_spec(2, seed=7)).encode("utf-8") == (
            b"case_id=2\ngaussian_variance=0.1,0.1\nimpulse_ratio=0.2,0.2\n"
            b"stripe_kind=random\nstripe_coverage=0.4,0.5\nstripe_amplitude=0.25\nseed=7\n"
        )

    def test_keys_are_the_spec_fields_in_order(self):
        keys = [line.partition("=")[0] for line in record_text(case_spec(4, seed=1)).splitlines()]
        assert keys == [f.name for f in fields(NoiseSpec)]

    def test_round_trips_noise_spec(self):
        spec = case_spec(2, seed=99, stripe_amplitude=0.5)
        assert manifest_spec_oracle(record_text(spec)) == spec

    @pytest.mark.parametrize("case_id", [1, 2, 3, 4, 5, 6])
    def test_records_every_field_of_each_case(self, case_id):
        # off-default values in every field, so a dropped or swapped key shows
        spec = case_spec(
            case_id, seed=2**40 + case_id, gaussian_variance=(0.1 / 3, 0.2 / 3),
            impulse_ratio=(0.1 / 7, 0.3 / 7), stripe_coverage=(0.2 / 3, 0.4 / 3),
            stripe_amplitude=1 / 7,
        )
        assert manifest_spec_oracle(record_text(spec)) == spec
