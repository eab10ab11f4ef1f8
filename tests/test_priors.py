import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsirestore.priors import (
    GradientStack,
    _check_shrink_args,
    _gst_shrink_in_place,
    diff_adjoint,
    diff_forward,
    gst_threshold,
    shrink_gradient_stack,
    soft_threshold,
)
from oracles import gst_minimize_oracle, gst_objective

# exponents used throughout are representative fitted values for the three
# gradient directions of a real scene
P_TRIPLE = (0.642, 0.684, 0.485)


def shrunk(y, tau, p):
    """The generalized shrinkage of a C-ordered float64 copy of ``y``, which stays as it is."""
    return _gst_shrink_in_place(np.array(y, dtype=np.float64, order="C"), tau, p)


def impulse_cube():
    t = np.zeros((3, 3, 3))
    t[0, 0, 0] = 1.0
    return t


class TestDiffForward:
    def test_constant_cube_has_zero_gradients(self):
        g = diff_forward(np.full((4, 5, 6), 0.7), (1, 1, 0.5))
        assert g.g.shape == (3, 4, 5, 6) and not g.g.any()

    def test_impulse_stencil_entries(self):
        g = diff_forward(impulse_cube(), (1, 1, 0.5))
        expected_h = np.zeros((3, 3, 3))
        expected_h[2, 0, 0] = 1.0  # wraps around: x(0) - x(2)
        expected_h[0, 0, 0] = -1.0  # x(1) - x(0)
        np.testing.assert_array_equal(g.g[0], expected_h)
        expected_w = np.zeros((3, 3, 3))
        expected_w[0, 2, 0] = 1.0
        expected_w[0, 0, 0] = -1.0
        np.testing.assert_array_equal(g.g[1], expected_w)
        expected_p = np.zeros((3, 3, 3))
        expected_p[0, 0, 2] = 0.5
        expected_p[0, 0, 0] = -0.5
        np.testing.assert_array_equal(g.g[2], expected_p)

    def test_matches_explicit_stencil_loop(self):
        rng = np.random.default_rng(0)
        t = rng.standard_normal((3, 4, 5))
        weights = (1.0, 1.0, 0.5)
        g = diff_forward(t, weights)
        h, w, p = t.shape
        for i in range(h):
            for j in range(w):
                for k in range(p):
                    assert g.g[0, i, j, k] == pytest.approx(t[(i + 1) % h, j, k] - t[i, j, k])
                    assert g.g[1, i, j, k] == pytest.approx(t[i, (j + 1) % w, k] - t[i, j, k])
                    assert g.g[2, i, j, k] == pytest.approx(
                        0.5 * (t[i, j, (k + 1) % p] - t[i, j, k])
                    )

    def test_zero_weights_give_zero_stack(self):
        t = np.random.default_rng(1).standard_normal((3, 3, 3))
        g = diff_forward(t, (0.0, 0.0, 0.0))
        assert g.g.shape == (3, 3, 3, 3) and not g.g.any()

    def test_linearity(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 5, 3))
        y = rng.standard_normal((4, 5, 3))
        weights = (1.0, 0.8, 0.5)
        combo = diff_forward(2.5 * x - 1.5 * y, weights)
        gx = diff_forward(x, weights)
        gy = diff_forward(y, weights)
        for got, a, b in zip(combo.blocks(), gx.blocks(), gy.blocks()):
            np.testing.assert_allclose(got, 2.5 * a - 1.5 * b, atol=1e-12)


class TestDiffAdjoint:
    def test_zero_stack_gives_zero_cube(self):
        g = GradientStack(np.zeros((3, 3, 3, 3)))
        assert not diff_adjoint(g, (1, 1, 0.5)).any()

    def test_adjoint_identity_over_seeds(self):
        weights = (1.0, 1.0, 0.5)
        for seed in range(100):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((4, 5, 3))
            g = GradientStack(np.stack([rng.standard_normal((4, 5, 3)) for _ in range(3)]))
            dx = diff_forward(x, weights)
            lhs = sum(float(np.sum(a * b)) for a, b in zip(dx.blocks(), g.blocks()))
            rhs = float(np.sum(x * diff_adjoint(g, weights)))
            assert abs(lhs - rhs) <= 1e-10

    def test_adjoint_of_constant_gradients_is_zero(self):
        weights = (1, 1, 0.5)
        g = diff_forward(np.full((3, 4, 5), 2.0), weights)
        np.testing.assert_allclose(diff_adjoint(g, weights), 0.0, atol=1e-14)

    def test_malformed_stack_rejected(self):
        # not 4-D, a leading axis other than 3, not float64, not an array
        for g in (np.zeros((3, 3, 3)), np.zeros((2, 3, 3, 3)), np.zeros((4, 3, 3, 3)),
                  np.zeros((3, 3, 3, 3), dtype=np.float32), [np.zeros((3, 3, 3))] * 3):
            with pytest.raises(ValueError, match=r"\(3, h, w, p\) float64"):
                GradientStack(g)


class TestSoftThreshold:
    @pytest.mark.parametrize(
        "x,delta,expected", [(1.2, 0.5, 0.7), (-1.2, 0.5, -0.7), (0.3, 0.5, 0.0)]
    )
    def test_scalar_cases(self, x, delta, expected):
        assert soft_threshold(x, delta) == pytest.approx(expected)

    def test_elementwise_on_cubes(self):
        t = np.array([[[1.2, -1.2, 0.3]]])
        np.testing.assert_allclose(soft_threshold(t, 0.5), [[[0.7, -0.7, 0.0]]])

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(1.0, -0.1)

    @pytest.mark.parametrize("x", [1.2, np.array([[[1.2, -0.3, 0.0]]])], ids=["scalar", "cube"])
    def test_nan_threshold_rejected(self, x):
        with pytest.raises(ValueError, match="threshold must be nonnegative"):
            soft_threshold(x, np.nan)

    def test_infinite_threshold_gives_zeros(self):
        # infinite entries included, where x minus its clip would be inf - inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = soft_threshold(np.array([1e300, -2.0, 0.0, np.inf, -np.inf]), np.inf)
            assert soft_threshold(-np.inf, np.inf) == 0.0
        np.testing.assert_array_equal(got, np.zeros(5))


class TestGstShrink:
    @given(
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=0, max_value=1),
    )
    @settings(max_examples=100, deadline=None)
    def test_p_one_reduces_to_soft_threshold(self, y, tau):
        assert shrunk([y], tau, 1.0)[0] == pytest.approx(soft_threshold(y, tau), abs=1e-14)

    def test_zero_input_maps_to_zero(self):
        assert shrunk([0.0], 0.3, 0.6).tolist() == [0.0]

    def test_objective_matches_grid_oracle_on_200_triples(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            y = rng.uniform(-3, 3)
            tau = rng.uniform(0.01, 1)
            p = rng.uniform(0.2, 0.99)
            got = shrunk([y], tau, p)[0]
            best = gst_minimize_oracle(y, tau, p)
            assert gst_objective(got, y, tau, p) <= gst_objective(best, y, tau, p) + 1e-6

    @pytest.mark.parametrize("tau", [0.01, 0.3])
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.9, 0.99])
    def test_solves_stationarity_equation_just_above_dead_zone(self, p, tau):
        # the objective-based tests above cannot see a stationarity error this
        # small; near the dead zone and for p near 1 the root is hardest to reach
        threshold = gst_threshold(tau, p)
        y = np.linspace(threshold * (1 + 1e-9), 1.5 * threshold, 501)
        x = shrunk(y, tau, p)
        assert np.all(x > 0.0)
        residual = np.abs(x + tau * p * x ** (p - 1.0) - y)
        assert np.all(residual <= 1e-12 * y)

    @given(st.floats(min_value=0, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_odd_in_y(self, y):
        tau, p = 0.2, 0.55
        assert shrunk([-y], tau, p)[0] == pytest.approx(-shrunk([y], tau, p)[0], abs=1e-12)

    @given(st.floats(min_value=-4, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_nonexpansive_toward_zero(self, y):
        assert abs(shrunk([y], 0.3, 0.7)[0]) <= abs(y) + 1e-12

    def test_monotone_in_magnitude(self):
        ys = np.linspace(0, 4, 200)
        outs = shrunk(ys, 0.25, 0.45)
        assert np.all(np.diff(outs) >= -1e-10)

    @pytest.mark.parametrize("p", [0.5, 1.0])
    def test_nan_tau_rejected(self, p):
        with pytest.raises(ValueError, match="tau must be nonnegative"):
            _check_shrink_args(np.nan, p)
        g = GradientStack(np.full((3, 2, 2, 2), 1.2))
        with pytest.raises(ValueError, match="tau must be nonnegative"):
            shrink_gradient_stack(g, np.nan, (p, p, p))
        # rejected before any direction is written
        assert (g.g == 1.2).all()

    @pytest.mark.parametrize("p", [0.5, 1.0])
    def test_infinite_tau_gives_zeros(self, p):
        # a numpy infinity warns where a Python float one does not, at inf * 0
        y = np.array([1e300, -2.0, 0.0, np.inf, -np.inf])
        for tau in (np.float64(np.inf), float("inf")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                np.testing.assert_array_equal(shrunk(y, tau, p), np.zeros(5))
            assert gst_threshold(tau, p) == np.inf

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.9])
    def test_huge_finite_entry_is_its_own_minimizer_and_leaves_its_neighbours(self, p):
        # beyond sqrt(float max) the Newton product would overflow
        big = np.finfo(np.float64).max
        y = np.array([1e150, 1.0, -3.0, 0.9])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alone = shrunk(y, 0.3, p)
            got = shrunk(np.concatenate([y, [1e200, -1e300, big]]), 0.3, p)
            assert shrunk([1e200, 1e150, 1.0], 0.3, 0.5)[0] == 1e200
        assert got[:4].tobytes() == alone.tobytes()
        assert got[0] == pytest.approx(1e150, rel=1e-15)
        assert got[4:].tolist() == [1e200, -1e300, big]

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("tau", [0.0, 0.3])
    def test_infinite_entry_passes_through_and_leaves_its_neighbours(self, p, tau):
        # an infinite entry must not cut short the Newton steps of its finite neighbours
        y = np.array([0.9, 1.7, 3.0, -0.05])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alone = shrunk(y, tau, p)
            got = shrunk(np.concatenate([y, [np.inf, -np.inf]]), tau, p)
        assert got[:4].tobytes() == alone.tobytes()
        assert got[4:].tolist() == [np.inf, -np.inf]
        np.testing.assert_array_equal(soft_threshold(got[4:], tau), got[4:])

    @pytest.mark.parametrize("p", [0.0, -0.5, 1.5])
    def test_invalid_p_rejected(self, p):
        with pytest.raises(ValueError, match="p must lie in"):
            _check_shrink_args(0.1, p)


class TestAhsstvProx:
    # the shrinkage works in place, so each test compares against a copy taken before the call
    def random_stack(self, seed):
        return GradientStack(np.random.default_rng(seed).uniform(-2, 2, (3, 3, 4, 5)))

    def test_zero_threshold_is_identity(self):
        g = self.random_stack(0)
        before = g.g.copy()
        out = shrink_gradient_stack(g, 0.0, P_TRIPLE)
        np.testing.assert_array_equal(out.g, before)

    def test_shrinks_in_place_and_returns_its_input(self):
        g = self.random_stack(3)
        before = g.g.copy()
        out = shrink_gradient_stack(g, 0.3, P_TRIPLE)
        assert out is g
        for got, orig, p in zip(g.blocks(), before, P_TRIPLE):
            assert got.tobytes() == shrunk(orig, 0.3, p).tobytes()

    def test_p_all_one_is_blockwise_soft_threshold(self):
        g = self.random_stack(1)
        before = g.g.copy()
        out = shrink_gradient_stack(g, 0.3, (1.0, 1.0, 1.0))
        for got, orig in zip(out.blocks(), before):
            np.testing.assert_allclose(got, soft_threshold(orig, 0.3), atol=1e-14)

    def test_elementwise_match_against_scalar_oracle(self):
        g = self.random_stack(2)
        before = g.g.copy()
        tau = 0.1
        out = shrink_gradient_stack(g, tau, P_TRIPLE)
        for got, orig, p in zip(out.blocks(), before, P_TRIPLE):
            for value, source in zip(got.ravel(), orig.ravel()):
                best = gst_minimize_oracle(float(source), tau, p)
                assert gst_objective(float(value), float(source), tau, p) <= (
                    gst_objective(best, float(source), tau, p) + 1e-6
                )


def roll_forward(t, weights):
    """Circular forward differences written with ``np.roll``, the reference for the sliced ones."""
    w_h, w_w, w_p = weights
    return (
        w_h * (np.roll(t, -1, axis=0) - t),
        w_w * (np.roll(t, -1, axis=1) - t),
        w_p * (np.roll(t, -1, axis=2) - t),
    )


def roll_adjoint(g, weights):
    w_h, w_w, w_p = weights
    gh, gw, gp = g.g
    out = w_h * (np.roll(gh, 1, axis=0) - gh)
    out += w_w * (np.roll(gw, 1, axis=1) - gw)
    out += w_p * (np.roll(gp, 1, axis=2) - gp)
    return out


def signed_zero_cube(shape, seed):
    """Uniform values with a share of exact +0.0 and -0.0 entries."""
    c = np.random.default_rng(seed).uniform(-1.0, 1.0, shape)
    c[c > 0.7] = -0.0
    c[c < -0.7] = 0.0
    return c


LAYOUTS = {
    "c_order": lambda c: c,
    "fortran": np.asfortranarray,
    "transposed": lambda c: np.ascontiguousarray(c.transpose(2, 0, 1)).transpose(1, 2, 0),
    "strided": lambda c: np.repeat(c, 2, axis=1)[:, ::2],
    "reversed": lambda c: np.ascontiguousarray(c[::-1])[::-1],
}
# the layouts above for a (3, h, w, p) stack, each leaving every (h, w, p) slice in its layout
STACK_LAYOUTS = {
    "c_order": lambda g: g,
    "fortran": lambda g: np.asfortranarray(g.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2),
    "transposed": lambda g: np.ascontiguousarray(g.transpose(0, 3, 1, 2)).transpose(0, 2, 3, 1),
    "strided": lambda g: np.repeat(g, 2, axis=2)[:, :, ::2],
    "reversed": lambda g: np.ascontiguousarray(g[:, ::-1])[:, ::-1],
}
EDGE_SHAPES = [(1, 4, 3), (2, 1, 5), (3, 2, 1), (1, 1, 1), (2, 2, 2), (4, 5, 6)]


class TestLayoutsAndEdges:
    """Slice-based differences and flat-index shrinkage against layout-free references.

    ``tobytes`` lays both sides out in C order, so equal bytes mean equal
    values at every index, signed zeros included.
    """

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("shape", EDGE_SHAPES, ids=str)
    def test_diff_forward_equals_roll_formula(self, shape, layout):
        weights = (1.0, 0.8, 0.5)
        t = LAYOUTS[layout](signed_zero_cube(shape, seed=50))
        for got, expected in zip(diff_forward(t, weights).blocks(), roll_forward(t, weights)):
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("shape", EDGE_SHAPES, ids=str)
    def test_diff_adjoint_equals_roll_formula(self, shape, layout):
        weights = (1.0, 0.8, 0.5)
        c = np.stack([signed_zero_cube(shape, seed=51 + i) for i in range(3)])
        g = GradientStack(STACK_LAYOUTS[layout](c))
        assert diff_adjoint(g, weights).tobytes() == roll_adjoint(g, weights).tobytes()

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("p", [0.485, 1.0])
    def test_gst_shrink_independent_of_layout(self, layout, p):
        # the kernel scatters through a flat view, which a direction in any
        # other layout than C order would only copy: the stack's shrinkage
        # must still land in the stack, in place
        c = np.stack([signed_zero_cube((4, 5, 6), seed=54 + i) for i in range(3)])
        expected = shrink_gradient_stack(GradientStack(c.copy()), 0.2, (p, p, p)).g
        assert np.count_nonzero(expected) > 0
        g = GradientStack(STACK_LAYOUTS[layout](c))
        assert shrink_gradient_stack(g, 0.2, (p, p, p)).g.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_soft_threshold_independent_of_layout(self, layout):
        c = signed_zero_cube((4, 5, 6), seed=55)
        expected = soft_threshold(c, 0.2)
        assert np.count_nonzero(expected) > 0
        assert soft_threshold(LAYOUTS[layout](c), 0.2).tobytes() == expected.tobytes()
