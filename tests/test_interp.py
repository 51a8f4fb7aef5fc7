import numpy as np
import pytest

from fracheat import DomainError, from_grid, project


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


class TestPowerExactness:
    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    def test_exact_on_power_function(self, alpha):
        rng = np.random.default_rng(11)
        a = 2.5
        p = project(lambda x: a * x ** (alpha - 1.0), alpha, 50, dirichlet=False)
        xs = rng.uniform(0.0, 1.0, 1000)
        np.testing.assert_allclose(p(xs), a * xs ** (alpha - 1.0), atol=1e-13 * a)

    def test_zero_function(self):
        p = project(lambda x: 0.0, 1.5, 10)
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

    def test_rejects_bad_lengths(self):
        from fracheat.interp import PowerInterpolant

        with pytest.raises(DomainError):
            PowerInterpolant(alpha=1.5, n=4, y=np.zeros(4))
        with pytest.raises(DomainError):
            PowerInterpolant(alpha=1.5, n=3, y=np.array([1.0, 0, 0, 0, 0]))


class TestLargeCellStability:
    def test_no_cancellation_blowup_far_right(self):
        # denominators shrink like h * x_i^(alpha-2); the expm1 kernel must hold up
        n = 4095
        alpha = 1.1  # close to 1, worst cancellation
        vals = (np.arange(1, n + 1) / (n + 1)) ** (alpha - 1.0)
        p = from_grid(vals, alpha, right_value=1.0)
        xs = np.linspace(0.99, 1.0, 50)
        np.testing.assert_allclose(p(xs), xs ** (alpha - 1.0), atol=1e-12)
