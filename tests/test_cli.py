import csv
from pathlib import Path

import numpy as np
import pytest

from hsirestore.cli import main
from hsirestore.fileio import parse_solver_config, read_cube, write_cube
from hsirestore.gradient_fit import estimate_p
from hsirestore.noise import case_spec, simulate_case
from hsirestore.synthetic import low_rank_cube
from hsirestore.tucker import TuckerRanks
from oracles import cube_file_oracle, manifest_spec_oracle


@pytest.fixture()
def truth_file(tmp_path):
    cube = low_rank_cube((24, 24, 8), TuckerRanks(3, 3, 2), seed=5)
    path = tmp_path / "truth.cube"
    write_cube(path, cube)
    return path


def fast_config(tmp_path, **extra):
    lines = ["ranks_x=5,5,3", "ranks_b=1,12,8", "max_iter=30", "p_override=0.7,0.7,0.5"]
    lines += [f"{k}={v}" for k, v in extra.items()]
    path = tmp_path / "config.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestSimulate:
    def test_writes_noisy_components_and_manifest(self, tmp_path, truth_file, capsys):
        out = tmp_path / "sim"
        code = main(
            ["simulate", "--truth", str(truth_file), "--case", "2", "--seed", "9",
             "--out-dir", str(out)]
        )
        assert code == 0
        for name in ("noisy", "gaussian", "stripe_field", "deadline_mask", "impulse_mask"):
            assert (out / f"{name}.cube").exists()
        spec = manifest_spec_oracle((out / "manifest.txt").read_text(encoding="utf-8"))
        assert spec == case_spec(2, seed=9)

    @pytest.mark.parametrize("case_id", [1, 5])
    def test_component_files_equal_the_float64_route(self, tmp_path, truth_file, case_id):
        # the masks go to write_cube as booleans and the stripe field as a
        # view; the files must hold the bytes a whole float64 copy of each gives
        out = tmp_path / "sim"
        assert main(
            ["simulate", "--truth", str(truth_file), "--case", str(case_id), "--seed", "9",
             "--out-dir", str(out)]
        ) == 0
        noisy, comps = simulate_case(read_cube(truth_file), case_spec(case_id, seed=9))
        float64_route = {
            "noisy": noisy,
            "gaussian": comps["gaussian"],
            "stripe_field": np.array(comps["stripe_field"]),
            "deadline_mask": comps["deadline_mask"].astype(float),
            "impulse_mask": comps["impulse_mask"].astype(float),
        }
        for name, cube in float64_route.items():
            assert (out / f"{name}.cube").read_bytes() == cube_file_oracle(cube), name

    def test_case1_manifest_records_zero_stripe_coverage(self, tmp_path, truth_file):
        out = tmp_path / "sim1"
        assert main(
            ["simulate", "--truth", str(truth_file), "--case", "1", "--seed", "3",
             "--out-dir", str(out)]
        ) == 0
        spec = manifest_spec_oracle((out / "manifest.txt").read_text(encoding="utf-8"))
        assert spec.stripe_kind == "none"
        assert spec.stripe_coverage == (0.0, 0.0)
        assert not read_cube(out / "stripe_field.cube").any()

    def test_missing_truth_file_exits_1(self, tmp_path, capsys):
        code = main(
            ["simulate", "--truth", str(tmp_path / "nope.cube"), "--case", "1",
             "--seed", "0", "--out-dir", str(tmp_path / "x")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_seed_reported_before_the_truth_is_read(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(
            ["simulate", "--truth", str(tmp_path / "missing.cube"), "--case", "2",
             "--seed", "-1", "--out-dir", str(out)]
        )
        assert code == 1
        # the message names the seed, not the missing file (whose path names the test)
        assert capsys.readouterr().err.startswith("error: seed")
        assert not out.exists()

    def test_usage_error_exits_2(self):
        assert main(["simulate", "--case", "1"]) == 2


class TestDenoise:
    def test_writes_decomposition_and_diagnostics(self, tmp_path, truth_file):
        sim = tmp_path / "sim"
        main(["simulate", "--truth", str(truth_file), "--case", "1", "--seed", "4",
              "--out-dir", str(sim)])
        out = tmp_path / "den"
        code = main(
            ["denoise", "--in", str(sim / "noisy.cube"),
             "--config", str(fast_config(tmp_path)), "--out-dir", str(out)]
        )
        assert code == 0
        noisy = read_cube(sim / "noisy.cube")
        parts = [read_cube(out / f"{n}.cube") for n in ("clean", "sparse", "stripes", "residual")]
        # float32 reconstruction of the observation from the written parts
        rebuilt = (parts[0] + parts[1] + parts[2] + parts[3]).astype(np.float32)
        np.testing.assert_allclose(rebuilt, noisy.astype(np.float32), atol=1e-6)
        with open(out / "diagnostics.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iter", "rel_change", "beta"]
        assert len(rows) >= 2

    def test_readme_config_block_runs_as_written(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        cfg = tmp_path / "readme.txt"
        cfg.write_text(readme.split("### Config file", 1)[1].split("```\n", 2)[1], encoding="utf-8")
        noisy = tmp_path / "noisy.cube"
        write_cube(noisy, np.random.default_rng(8).random((6, 5, 4)))
        assert main(["denoise", "--in", str(noisy), "--config", str(cfg),
                     "--out-dir", str(tmp_path / "den")]) == 0

    @pytest.mark.parametrize(
        "shape, ranks_x",
        [((64, 32, 1), "26,26,1"), ((16, 12, 1), "10,10,1"), ((1, 8, 4), "1,4,4")],
    )
    def test_config_records_the_ranks_solved_at(self, tmp_path, shape, ranks_x):
        # the default image ranks (51,26,1), (13,10,1) and (1,6,4) are not
        # feasible triples; the solve fits at their clamped values
        noisy = tmp_path / "noisy.cube"
        write_cube(noisy, np.random.default_rng(3).random(shape))
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("p_override=1,1,1\nmax_iter=5\n")
        out = tmp_path / "den"
        assert main(["denoise", "--in", str(noisy), "--config", str(cfg),
                     "--out-dir", str(out)]) == 0
        written = parse_solver_config((out / "config.txt").read_text(encoding="utf-8"))
        assert ",".join(map(str, written.ranks_x.as_tuple())) == ranks_x
        assert written == written.resolve_ranks(shape)

    def test_written_config_repeats_the_run(self, tmp_path, truth_file):
        sim = tmp_path / "sim"
        assert main(["simulate", "--truth", str(truth_file), "--case", "2", "--seed", "6",
                     "--out-dir", str(sim)]) == 0
        # auto ranks and a fitted p, so config.txt is the only record of both
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("max_iter=10\n")
        runs = []
        for name, config in (("first", cfg), ("again", tmp_path / "first" / "config.txt")):
            out = tmp_path / name
            assert main(["denoise", "--in", str(sim / "noisy.cube"), "--config", str(config),
                         "--out-dir", str(out)]) == 0
            runs.append({path.name: path.read_bytes() for path in out.iterdir()})
        assert runs[0].keys() == runs[1].keys()
        for name in runs[0]:
            assert runs[0][name] == runs[1][name], name

    def test_bad_config_exits_1(self, tmp_path, truth_file, capsys):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("mystery=1\n")
        code = main(["denoise", "--in", str(truth_file), "--config", str(cfg),
                     "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_config_file_exits_1(self, tmp_path, truth_file, capsys):
        missing = tmp_path / "missing.txt"
        code = main(["denoise", "--in", str(truth_file), "--config", str(missing),
                     "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1
        assert "error:" in err and "missing.txt" in err

    def test_stripe_ranks_above_one_along_the_height_exit_1(self, tmp_path, truth_file, capsys):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("ranks_b=2,4,4\n")
        code = main(["denoise", "--in", str(truth_file), "--config", str(cfg),
                     "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1
        assert "error:" in err and "ranks_b" in err

    @pytest.mark.parametrize("shape", [(16, 16, 1), (1, 8, 4), (8, 1, 4)])
    def test_mode_of_size_one_without_p_override_exits_1(self, tmp_path, capsys, shape):
        # the exponent fit differences every mode; p_override skips it, as
        # test_config_records_the_ranks_solved_at runs
        noisy = tmp_path / "noisy.cube"
        write_cube(noisy, np.random.default_rng(4).random(shape))
        code = main(["denoise", "--in", str(noisy), "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith("error: the exponent fit") and str(shape) in err
        assert "p_override" in err


class TestEvaluate:
    def test_self_comparison_reports_perfect_scores(self, tmp_path, truth_file, capsys):
        report = tmp_path / "report.csv"
        code = main(["evaluate", "--ref", str(truth_file), "--test", str(truth_file),
                     "--out", str(report)])
        assert code == 0
        assert "mssim=1.000000" in capsys.readouterr().out
        with open(report, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["row", "psnr_db", "ssim", "sam_rad"]
        assert rows[-1][0] == "mean"
        assert float(rows[-1][2]) == pytest.approx(1.0)
        assert len(rows) == 2 + 8  # header + bands + mean


class TestFitP:
    def test_prints_key_value_lines(self, tmp_path, truth_file, capsys):
        sim = tmp_path / "sim"
        main(["simulate", "--truth", str(truth_file), "--case", "1", "--seed", "2",
              "--out-dir", str(sim)])
        capsys.readouterr()
        code = main(["fit-p", "--in", str(sim / "noisy.cube")])
        assert code == 0
        out = capsys.readouterr().out
        values = dict(line.split("=", 1) for line in out.strip().splitlines())
        for key in ("p_h", "p_w", "p_p", "sigma_h", "sigma_w", "sigma_p"):
            assert key in values
            float(values[key])
        assert 0.1 <= float(values["p_h"]) <= 1.0

    def test_prints_every_fitted_value_in_order(self, tmp_path, truth_file, capsys):
        sim = tmp_path / "sim"
        main(["simulate", "--truth", str(truth_file), "--case", "1", "--seed", "2",
              "--out-dir", str(sim)])
        capsys.readouterr()
        assert main(["fit-p", "--in", str(sim / "noisy.cube")]) == 0
        lines = capsys.readouterr().out.splitlines()
        fit = estimate_p(read_cube(sim / "noisy.cube"))
        values = fit.p_values + fit.sigmas + fit.ks + fit.residuals
        keys = [f"{name}_{d}" for name in ("p", "sigma", "k", "residual") for d in "hwp"]
        assert lines == [f"{key}={value!r}" for key, value in zip(keys, values)]


class TestPipelineDeterminism:
    def test_full_pipeline_outputs_are_bit_identical(self, tmp_path, truth_file):
        outputs = []
        for run in ("a", "b"):
            sim = tmp_path / f"sim_{run}"
            den = tmp_path / f"den_{run}"
            assert main(["simulate", "--truth", str(truth_file), "--case", "2",
                         "--seed", "11", "--out-dir", str(sim)]) == 0
            assert main(["denoise", "--in", str(sim / "noisy.cube"),
                         "--config", str(fast_config(tmp_path)),
                         "--out-dir", str(den)]) == 0
            report = tmp_path / f"report_{run}.csv"
            assert main(["evaluate", "--ref", str(truth_file),
                         "--test", str(den / "clean.cube"), "--out", str(report)]) == 0
            blob = b"".join(
                sorted_path.read_bytes()
                for sorted_path in sorted(
                    list(sim.iterdir()) + list(den.iterdir()) + [report]
                )
            )
            outputs.append(blob)
        assert outputs[0] == outputs[1]
