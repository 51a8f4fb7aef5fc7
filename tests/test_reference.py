import math

import numpy as np
import pytest

from fracheat import (
    DomainError,
    GridFunction,
    apply,
    build_operator,
    continuous_inverse_apply,
    eigenfunction_u_c,
    exact_decay_solution,
    gamma,
    gaussian_ic,
    mittag_leffler_e_alpha0,
    observed_order,
    principal_eigenvalue,
)
from fracheat.reference import _unit_weights

INVERSE_ALPHAS = [1.01, 1.1, 1.5, 1.9, 2.0]
INVERSE_XS = np.linspace(0.0, 1.0, 41)


def per_panel_inverse(alpha, g, x, panels=10**4):
    """The product-integration rule panel by panel on [0, c], kept as the reference."""
    ga = gamma(alpha)

    def weighted_integral(c):
        if c <= 0.0:
            return 0.0
        yk = np.linspace(0.0, c, panels + 1)
        gk = np.asarray(g(yk), dtype=float)
        u0 = c - yk[:-1]
        u1 = c - yk[1:]
        m0 = (u0**alpha - u1**alpha) / alpha
        m1 = u0 * m0 - (u0 ** (alpha + 1.0) - u1 ** (alpha + 1.0)) / (alpha + 1.0)
        d = yk[1] - yk[0]
        return float(np.sum(gk[:-1] * m0 + (gk[1:] - gk[:-1]) * m1 / d))

    return (weighted_integral(x) - x ** (alpha - 1.0) * weighted_integral(1.0)) / ga


def bump(y):
    return np.exp(-((np.asarray(y) - 0.5) ** 2) / 0.02)


# product integration is exact on linear g; these are the closed forms
def ones(y):
    return np.ones_like(y)


def identity(y):
    return y


def inverse_of_one(alpha, x):
    return (x**alpha - x ** (alpha - 1.0)) / gamma(alpha + 1.0)


def inverse_of_y(alpha, x):
    return (x ** (alpha + 1.0) - x ** (alpha - 1.0)) / gamma(alpha + 2.0)


class TestPrincipalEigenvalue:
    def test_classical_value(self):
        assert principal_eigenvalue(2.0).c == pytest.approx(-math.pi**2, abs=1e-8)

    def test_frozen_oracle_alpha_15(self):
        # frozen from an independent scan/bisection run of the same series
        assert principal_eigenvalue(1.5).c == pytest.approx(-5.075430029543, abs=1e-7)

    def test_frozen_oracle_alpha_14(self):
        assert principal_eigenvalue(1.4).c == pytest.approx(
            -4.708037786285718, abs=1e-7
        )

    @pytest.mark.parametrize("alpha", [1.2, 1.4, 1.6, 1.8, 2.0])
    def test_root_quality(self, alpha):
        pair = principal_eigenvalue(alpha)
        assert -11.75 < pair.c < 0.0
        assert abs(mittag_leffler_e_alpha0(alpha, pair.c)) <= 1e-11
        assert pair.series_terms > 0

    def test_frozen_series_terms(self):
        # the eigen command prints this count; frozen from the series loop at the root
        assert [principal_eigenvalue(a).series_terms for a in (1.1, 1.4, 2.0)] == [45, 31, 23]

    def test_bits_held(self):
        # c at the ends of the served domain and at the Figure-1 alpha, as printed by `eigen`
        got = [principal_eigenvalue(a).c for a in (1.01, 1.4, 2.0)]
        assert got == [-8.132130564309994, -4.708037786285721, -9.869604401089362]

    @pytest.mark.parametrize("alpha", [1.0, 1.005, 1.0095, 2.5, math.nan])
    def test_rejects_alpha_outside_served_domain(self, alpha):
        # below 1.01 the polish stalls at some alpha; reject before the scan
        with pytest.raises(DomainError, match=r"serve alpha in \[1.01, 2\]"):
            principal_eigenvalue(alpha)

    def test_monotone_in_alpha(self):
        cs = [principal_eigenvalue(a).c for a in (1.2, 1.5, 1.8, 2.0)]
        assert all(b < a for a, b in zip(cs, cs[1:]))


class TestEigenfunction:
    @pytest.mark.parametrize("alpha", [1.2, 1.4, 1.6, 1.8, 2.0])
    def test_vanishes_at_right_boundary(self, alpha):
        pair = principal_eigenvalue(alpha)
        assert abs(eigenfunction_u_c(alpha, pair.c, 1.0)) <= 1e-9

    def test_classical_sine_shape(self):
        # u_c(x) = sin(pi x)/pi at alpha = 2
        c = principal_eigenvalue(2.0).c
        assert eigenfunction_u_c(2.0, c, 0.5) == pytest.approx(
            0.3183098861837907, rel=1e-9
        )
        for x in (0.1, 0.3, 0.7, 0.9):
            assert eigenfunction_u_c(2.0, c, x) == pytest.approx(
                math.sin(math.pi * x) / math.pi, rel=1e-9
            )

    def test_origin_behavior(self):
        # u_c(x) ~ x^(alpha-1)/Gamma(alpha) as x -> 0
        alpha = 1.4
        c = principal_eigenvalue(alpha).c
        for x in (1e-9, 1e-6, 1e-4):
            ratio = eigenfunction_u_c(alpha, c, x) / x ** (alpha - 1.0)
            assert ratio == pytest.approx(1.0 / gamma(alpha), rel=1e-3)
        assert eigenfunction_u_c(alpha, c, 0.0) == 0.0

    def test_series_branch_continuity(self):
        alpha = 1.6
        c = principal_eigenvalue(alpha).c
        below = eigenfunction_u_c(alpha, c, 0.999e-8)
        above = eigenfunction_u_c(alpha, c, 1.001e-8)
        # both branches must track the leading x^(alpha-1) behavior
        assert below == pytest.approx(
            above * (0.999 / 1.001) ** (alpha - 1.0), rel=1e-9
        )


class TestExactDecay:
    def test_zero_time_is_eigenfunction(self):
        alpha = 1.5
        pair = principal_eigenvalue(alpha)
        assert exact_decay_solution(alpha, 0.0, 0.3) == pytest.approx(
            eigenfunction_u_c(alpha, pair.c, 0.3), rel=1e-14
        )

    def test_exponential_factor(self):
        alpha = 1.7
        pair = principal_eigenvalue(alpha)
        v1 = exact_decay_solution(alpha, 0.1, 0.5, pair)
        v2 = exact_decay_solution(alpha, 0.2, 0.5, pair)
        assert v2 / v1 == pytest.approx(math.exp(0.1 * pair.c), rel=1e-12)


class TestContinuousInverse:
    def test_classical_sine_oracle(self):
        # at alpha = 2 the inverse of d^2/dx^2 with these boundary terms maps
        # sin(pi x) to -sin(pi x)/pi^2
        for x in (0.2, 0.5, 0.8):
            v = continuous_inverse_apply(2.0, lambda y: np.sin(np.pi * y), x)
            assert v == pytest.approx(-math.sin(math.pi * x) / math.pi**2, abs=1e-6)

    def test_vanishes_at_one(self):
        v = continuous_inverse_apply(1.5, lambda y: np.exp(y), 1.0)
        assert abs(v) <= 1e-8

    def test_power_law_oracle(self):
        # inverse applied to x^(alpha-1)/Gamma(alpha) gives
        # (x^(2a-1) - x^(a-1))/Gamma(2a)
        alpha = 1.4
        g2 = gamma(2.0 * alpha)
        for x in (0.3, 0.6, 0.9):
            v = continuous_inverse_apply(
                alpha, lambda y: y ** (alpha - 1.0) / gamma(alpha), x
            )
            expected = (x ** (2.0 * alpha - 1.0) - x ** (alpha - 1.0)) / g2
            # g has an unbounded derivative at 0, so the piecewise-linear
            # replacement loses one order in the first panel
            assert v == pytest.approx(expected, abs=1e-6)

    def test_eigenfunction_residual_on_grid(self):
        # M_h applied to the sampled eigenfunction approximates c * u_c at
        # order close to alpha away from the boundary layer
        alpha = 1.5
        pair = principal_eigenvalue(alpha)
        errs = []
        hs = []
        for n in (64, 128, 256, 512):
            h = 1.0 / (n + 1)
            x = np.arange(1, n + 1) * h
            u = np.array([eigenfunction_u_c(alpha, pair.c, xi) for xi in x])
            op = build_operator(alpha, n)
            v = apply(op, GridFunction(alpha=alpha, n=n, values=u)).values
            mask = (x >= 0.2) & (x <= 0.9)
            errs.append(float(np.abs(v[mask] - pair.c * u[mask]).max()))
            hs.append(h)
        slope = observed_order(list(zip(hs, errs)))
        assert slope >= alpha - 0.3


class TestContinuousInverseQuadrature:
    @pytest.mark.parametrize("alpha", INVERSE_ALPHAS)
    def test_exact_on_linear_g(self, alpha):
        for g, closed in ((ones, inverse_of_one), (identity, inverse_of_y)):
            for x in INVERSE_XS:
                v, want = continuous_inverse_apply(alpha, g, x), closed(alpha, x)
                assert abs(v - want) <= 1e-12 * abs(want), (x, v, want)

    @pytest.mark.parametrize("alpha", INVERSE_ALPHAS)
    @pytest.mark.parametrize(
        "g", [bump, lambda y: np.sin(np.pi * y), np.exp], ids=["bump", "sin", "exp"]
    )
    def test_matches_per_panel_rule(self, alpha, g):
        got = np.array([continuous_inverse_apply(alpha, g, x) for x in INVERSE_XS])
        want = np.array([per_panel_inverse(alpha, g, x) for x in INVERSE_XS])
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        assert got[0] == 0.0 and got[-1] == 0.0

    def test_cached_weights_are_read_only(self):
        s, w = _unit_weights(1.5)
        assert not s.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 1.0

    def test_cache_holds_nothing_of_g(self):
        _unit_weights.cache_clear()
        alpha = 1.3
        for x in (0.25, 0.5, 0.75):
            v1 = continuous_inverse_apply(alpha, ones, x)
            v2 = continuous_inverse_apply(alpha, identity, x)
            assert v1 == pytest.approx(inverse_of_one(alpha, x), rel=1e-12)
            assert v2 == pytest.approx(inverse_of_y(alpha, x), rel=1e-12)
        info = _unit_weights.cache_info()
        # one entry, keyed on alpha only, shared by both g
        assert (info.currsize, info.misses, info.hits) == (1, 1, 5)

    @pytest.mark.parametrize(
        "alpha, x",
        [
            (1.5, -0.2),
            (1.5, 1.2),
            (1.5, math.nan),
            (1.5, math.inf),
            (0.5, 0.5),
            (2.5, 0.5),
            (math.nan, 0.5),
        ],
    )
    def test_rejects_bad_input(self, alpha, x):
        with pytest.raises(DomainError):
            continuous_inverse_apply(alpha, bump, x)


class TestGaussianIC:
    def test_peak_height(self):
        peak = gaussian_ic(np.array([0.4]))[0]
        assert peak == pytest.approx(1.0 / math.sqrt(2.0 * math.pi * 0.0005), rel=1e-14)

    def test_unit_mass(self):
        x = np.linspace(0, 1, 200001)
        mass = np.trapezoid(gaussian_ic(x), x)
        assert mass == pytest.approx(1.0, abs=1e-10)

    def test_rejects_bad_variance(self):
        with pytest.raises(DomainError):
            gaussian_ic(np.array([0.5]), sigma2=0.0)
