import math
import warnings

import numpy as np
import pytest

from fracheat import DomainError, GridFunction, PowerInterpolant, from_grid


def free_right(vals, alpha, right):
    """Interpolant of interior values vals with y_{n+1} = right, not 0."""
    return PowerInterpolant(alpha, len(vals), np.concatenate(([0.0], vals, [right])))


class TestNodeReproduction:
    def test_random_data(self):
        rng = np.random.default_rng(3)
        n = 37
        vals = rng.standard_normal(n)
        p = from_grid(vals, alpha=1.6)
        h = 1.0 / (n + 1)
        for i in range(1, n + 1):
            assert p(i * h) == pytest.approx(vals[i - 1], abs=1e-14)
        assert p(0.0) == 0.0
        assert p(1.0) == 0.0

    # x_i/h can round to i - 1 ulp, which truncates into cell i - 1
    @pytest.mark.parametrize("alpha", [1.1, 1.4, 2.0])
    @pytest.mark.parametrize("n", [37, 400, 3200, 3207])
    def test_grid_nodes_read_their_own_values_bit_for_bit(self, n, alpha):
        vals = np.random.default_rng(n).standard_normal(n)
        x = GridFunction(alpha, n, vals).x
        assert np.array_equal(from_grid(vals, alpha)(x), vals)


class TestScalarArrayAgreement:
    @pytest.mark.parametrize("alpha", [1.1, 1.5, 2.0])
    def test_scalar_calls_match_array_bit_for_bit(self, alpha):
        rng = np.random.default_rng(17)
        n = 37
        p = free_right(rng.standard_normal(n), alpha, 0.8)
        h = 1.0 / (n + 1)
        xs = np.concatenate([rng.uniform(0.0, 1.0, 500), np.arange(n + 2) * h, [0.0, h / 3, 1.0]])
        xs = np.minimum(xs, 1.0)
        values = p(xs)
        scalars = [p(float(x)) for x in xs]
        assert all(type(v) is float for v in scalars)
        np.testing.assert_array_equal(values, scalars)
        assert np.signbit(values).tolist() == np.signbit(scalars).tolist()
        assert p(np.float64(xs[0])) == values[0]
        assert p(0.25 * h) == pytest.approx(p.y[1] * 0.25 ** (alpha - 1.0), rel=1e-15)
        assert p(1.0) == 0.8


    @pytest.mark.parametrize("alpha", [1.1, 1.5, 2.0])
    def test_matches_pointwise_math_reference(self, alpha):
        # the per-point evaluation with the math module; numpy's array kernels
        # for log, expm1 and ** may round one ulp apart
        rng = np.random.default_rng(23)
        n = 37
        p = free_right(rng.standard_normal(n), alpha, 0.8)
        y, h, beta = p.y, p.h, alpha - 1.0

        def reference(x):
            # the node rule: y_j where x/h lies within 4*eps*(x/h) of an integer j
            t = x / h
            j = round(t)
            if abs(t - j) <= 4 * np.finfo(float).eps * t:
                return y[j]
            i = min(int(t), n)
            if i == 0:
                return y[1] * t**beta
            num = math.expm1(beta * math.log(x / (i * h)))
            den = math.expm1(beta * math.log1p(1.0 / i))
            return y[i] + (y[i + 1] - y[i]) * num / den

        xs = np.concatenate([rng.uniform(0.0, 1.0, 500), np.arange(n + 2) * h, [1.0]])
        xs = np.minimum(xs, 1.0)
        want = [reference(float(x)) for x in xs]
        atol = 8 * np.finfo(float).eps * np.abs(y).max()
        np.testing.assert_allclose(p(xs), want, rtol=0, atol=atol)


class TestPowerExactness:
    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    def test_exact_on_power_function(self, alpha):
        rng = np.random.default_rng(11)
        a = 2.5
        n = 50
        nodes = np.arange(n + 2) * (1.0 / (n + 1))  # x_0 = 0 included: f(0) = 0
        p = PowerInterpolant(alpha, n, a * nodes ** (alpha - 1.0))
        xs = rng.uniform(0.0, 1.0, 1000)
        np.testing.assert_allclose(p(xs), a * xs ** (alpha - 1.0), atol=1e-13 * a)

    def test_zero_function(self):
        p = from_grid(np.zeros(10), 1.5)
        assert p(0.37) == 0.0


class TestClassicalReduction:
    def test_alpha_two_is_piecewise_linear(self):
        rng = np.random.default_rng(5)
        n = 15
        vals = rng.standard_normal(n)
        p = from_grid(vals, alpha=2.0)
        h = 1.0 / (n + 1)
        for i in range(1, n):
            mid = (i + 0.5) * h
            assert p(mid) == pytest.approx(0.5 * (vals[i - 1] + vals[i]), abs=1e-13)


class TestCellMonotonicity:
    def test_values_stay_within_cell_range(self):
        rng = np.random.default_rng(9)
        n = 20
        vals = rng.standard_normal(n)
        p = from_grid(vals, alpha=1.3)
        y = p.y
        h = p.h
        for i in range(n + 1):
            lo = min(y[i], y[i + 1]) - 1e-13
            hi = max(y[i], y[i + 1]) + 1e-13
            for lam in (0.1, 0.5, 0.9):
                v = p((i + lam) * h)
                assert lo <= v <= hi


class TestValidation:
    def test_rejects_out_of_range_point(self):
        p = from_grid(np.ones(5), alpha=1.5)
        with pytest.raises(DomainError):
            p(1.5)
        with pytest.raises(DomainError):
            p(-0.1)

    @pytest.mark.parametrize("bad", [np.nan, 1.2])
    def test_rejects_out_of_range_point_in_array(self, bad):
        p = from_grid(np.ones(5), alpha=1.5)
        with pytest.raises(DomainError):
            p(np.array([0.3, bad, 0.7]))
        with pytest.raises(DomainError):
            p(bad)

    def test_rejects_bad_lengths(self):
        with pytest.raises(DomainError):
            PowerInterpolant(alpha=1.5, n=4, y=np.zeros(4))
        with pytest.raises(DomainError):
            PowerInterpolant(alpha=1.5, n=3, y=np.array([1.0, 0, 0, 0, 0]))
        # two rows of two: numpy's ValueError from the boundary check
        with pytest.raises(DomainError, match=r"1-D array, got shape \(2, 2\)"):
            PowerInterpolant(alpha=1.5, n=0, y=np.zeros((2, 2)))

    def test_rejects_nonfinite_grid_values(self):
        # unchecked, this reads inf at 0.5
        with pytest.raises(DomainError, match="must be finite"):
            from_grid(np.array([1.0, np.inf, 2.0]), 1.5)

    def test_rejects_nan_in_y(self):
        # unchecked, this reads nan in the cells next to the nan
        with pytest.raises(DomainError, match="must be finite"):
            PowerInterpolant(alpha=1.5, n=3, y=np.array([0.0, 1.0, np.nan, 1.0, 0.0]))

    @pytest.mark.parametrize("alpha", [1.0, np.nan, 3.0])
    def test_rejects_alpha_outside_one_two(self, alpha):
        # unchecked, these read nan at 0.55, nan at 0.05 and 0.25 at 0.05
        with pytest.raises(DomainError, match="alpha must be in"):
            from_grid(np.ones(9), alpha)

    # 8.0 and True were built; n = -1 raised ZeroDivisionError at the first evaluation
    @pytest.mark.parametrize("n,y", [(8.0, np.zeros(10)), (True, np.zeros(3)), (-1, np.zeros(1))], ids=["float", "bool", "negative"])
    def test_rejects_sizes_that_are_not_sizes(self, n, y):
        with pytest.raises(DomainError, match=r"n must be an integer in \[0, 1000000\], got "):
            PowerInterpolant(1.4, n, y)(0.5)

    # numpy's ValueError from the concatenation, and a TypeError from len() of the 0-d value
    @pytest.mark.parametrize("values", [np.ones((2, 2)), np.float64(1.0)], ids=["2x2", "0-d"])
    def test_from_grid_rejects_values_not_1d(self, values):
        with pytest.raises(DomainError, match="grid values must be 1-D"):
            from_grid(values, 1.4)

    # a list raised AttributeError at construction, a boolean array numpy's TypeError at evaluation
    def test_values_are_read_as_floats(self):
        assert PowerInterpolant(2.0, 1, [0, 1, 0])(0.25) == 0.5
        assert PowerInterpolant(2.0, 1, np.array([False, True, False]))(0.25) == 0.5

    # the first cell's formula, formed at every x, overflowed beyond the first cell
    def test_large_values_evaluate_without_a_warning(self):
        assert from_grid(np.full(8, 1e308), 1.9)(0.3) == 1e308

    # neighbours of opposite sign near the largest float: y_{i+1} - y_i overflowed, and the
    # value read -inf (or warned of the overflow under -W error) where it lies between them
    def test_opposite_large_neighbours_evaluate_between_them(self):
        p = from_grid([1e308, -1e308, 1e308], 1.4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = p(np.array([0.3, 0.4, 0.6]))
            assert p(0.4) == got[1]
        assert np.all(np.abs(got) < 1e308) and got[0] > 0.0 > got[1] and got[2] < 0.0
        # the convex form y_i*(1-s) + y_{i+1}*s, s the cell fraction of x^(alpha-1)
        x, lo, hi = np.array([0.3, 0.4, 0.6]), np.array([0.25, 0.25, 0.5]), np.array([0.5, 0.5, 0.75])
        s = (x**0.4 - lo**0.4) / (hi**0.4 - lo**0.4)
        ylo, yhi = np.array([1e308, 1e308, -1e308]), np.array([-1e308, -1e308, 1e308])
        np.testing.assert_allclose(got, ylo * (1.0 - s) + yhi * s, rtol=1e-12)


class TestLargeCellStability:
    def test_no_cancellation_blowup_far_right(self):
        # denominators shrink like h * x_i^(alpha-2); the expm1 kernel must hold up
        n = 4095
        alpha = 1.1  # close to 1, worst cancellation
        vals = (np.arange(1, n + 1) / (n + 1)) ** (alpha - 1.0)
        p = free_right(vals, alpha, 1.0)
        xs = np.linspace(0.99, 1.0, 50)
        np.testing.assert_allclose(p(xs), xs ** (alpha - 1.0), atol=1e-12)
