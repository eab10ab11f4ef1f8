"""The memory-layout contract: cubes in memory are C-ordered float64.

``mode_product``, ``reconstruct``, ``hooi`` and ``read_cube`` return C-ordered
arrays whatever layout they are given; the file format stays height-fastest;
``solve``, ``estimate_p`` and ``evaluate`` give the same bytes for a cube and
its Fortran-ordered copy.
"""

import numpy as np
import pytest

from hsirestore.fileio import read_cube, write_cube
from hsirestore.gradient_fit import estimate_p
from hsirestore.metrics import evaluate, psnr, ssim
from hsirestore.noise import case_spec, simulate_case
from hsirestore.solver import SolverConfig, solve
from hsirestore.synthetic import low_rank_cube
from hsirestore.tensor_ops import mode_product
from hsirestore.tucker import TuckerFactors, TuckerRanks, hooi, reconstruct
from oracles import mode_product_oracle


def layouts(t):
    """The same values as a C-ordered, a Fortran-ordered and a strided cube."""
    padded = np.zeros((t.shape[0], 2 * t.shape[1], t.shape[2]))
    padded[:, ::2, :] = t
    return {"C": np.ascontiguousarray(t), "F": np.asfortranarray(t), "strided": padded[:, ::2, :]}


LAYOUTS = ["C", "F", "strided"]


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("mode", [1, 2, 3])
def test_mode_product_returns_c_order_for_any_layout(layout, mode):
    rng = np.random.default_rng(40)
    t = layouts(rng.standard_normal((4, 5, 6)))[layout]
    m = rng.standard_normal((3, t.shape[mode - 1]))
    got = mode_product(t, m, mode)
    assert got.flags.c_contiguous
    np.testing.assert_allclose(got, mode_product_oracle(t, m, mode), atol=1e-12)


def test_reconstruct_and_hooi_core_are_c_ordered():
    rng = np.random.default_rng(41)
    factors = tuple(np.linalg.qr(rng.standard_normal((n, r)))[0] for n, r in ((6, 3), (7, 4), (5, 2)))
    cube = reconstruct(TuckerFactors(np.asfortranarray(rng.standard_normal((3, 4, 2))), factors))
    assert cube.flags.c_contiguous
    fit = hooi(np.asfortranarray(cube), TuckerRanks(3, 4, 2))
    assert fit.core.flags.c_contiguous
    assert reconstruct(fit).flags.c_contiguous


def test_read_cube_returns_c_ordered_float64(tmp_path):
    path = tmp_path / "a.cube"
    write_cube(path, np.random.default_rng(42).random((5, 6, 3)))
    for normalize in (False, True):
        cube = read_cube(path, normalize=normalize)
        assert cube.dtype == np.float64
        assert cube.flags.c_contiguous


@pytest.mark.parametrize("layout", LAYOUTS)
def test_file_bytes_do_not_depend_on_the_layout(tmp_path, layout):
    base = np.random.default_rng(43).random((5, 6, 3))
    cube = layouts(base)[layout]
    path = tmp_path / f"{layout}.cube"
    write_cube(path, cube)
    raw = path.read_bytes()
    assert raw[20:] == cube.astype("<f4").ravel(order="F").tobytes()
    np.testing.assert_array_equal(read_cube(path), base.astype(np.float32))


@pytest.fixture(scope="module")
def noisy_pair():
    truth = low_rank_cube((16, 16, 6), TuckerRanks(3, 3, 2), seed=44)
    noisy, _ = simulate_case(truth, case_spec(2, seed=45))
    return truth, noisy


def test_solve_does_not_depend_on_the_layout(noisy_pair):
    _, noisy = noisy_pair
    cfg = SolverConfig(ranks_x=TuckerRanks(4, 4, 3), ranks_b=TuckerRanks(1, 8, 6), max_iter=10)
    dec_c, diag_c = solve(noisy, cfg)
    dec_f, diag_f = solve(np.asfortranarray(noisy), cfg)
    for name in ("clean", "sparse", "stripes", "residual"):
        assert getattr(dec_c, name).tobytes() == getattr(dec_f, name).tobytes()
    assert diag_c.rel_change == diag_f.rel_change
    assert diag_c.p_values == diag_f.p_values


def test_estimate_p_does_not_depend_on_the_layout(noisy_pair):
    _, noisy = noisy_pair
    assert estimate_p(noisy) == estimate_p(np.asfortranarray(noisy))


def test_evaluate_does_not_depend_on_the_layout(noisy_pair):
    truth, noisy = noisy_pair
    got_c = evaluate(truth, noisy)
    got_f = evaluate(np.asfortranarray(truth), np.asfortranarray(noisy))
    assert got_c.psnr_per_band.tobytes() == got_f.psnr_per_band.tobytes()
    assert got_c.ssim_per_band.tobytes() == got_f.ssim_per_band.tobytes()
    assert got_c.msam == got_f.msam


def test_evaluate_scores_each_band_like_its_slice(noisy_pair):
    truth, noisy = noisy_pair
    report = evaluate(truth, noisy)
    bands = range(truth.shape[2])
    psnr_slices = np.array([psnr(truth[:, :, b], noisy[:, :, b]) for b in bands])
    ssim_slices = np.array([ssim(truth[:, :, b], noisy[:, :, b]) for b in bands])
    assert report.psnr_per_band.tobytes() == psnr_slices.tobytes()
    assert report.ssim_per_band.tobytes() == ssim_slices.tobytes()
