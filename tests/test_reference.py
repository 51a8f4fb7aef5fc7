import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import trapezoid

from fracheat import (
    DomainError,
    GridFunction,
    apply,
    build_operator,
    continuous_inverse_apply,
    eigenfunction_u_c,
    gamma,
    gaussian_ic,
    mittag_leffler_e_alpha0,
    observed_order,
    principal_eigenvalue,
)
from fracheat import reference
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


def unmemoized_inverse(alpha, g, x):
    """I(x) - x^(alpha-1) * I(1) with both integrals formed on this call."""
    s, _, head, last = _unit_weights(alpha)

    def weighted_integral(c):
        if c == 0.0:
            return 0.0
        gk = np.asarray(g(c * s), dtype=float)
        return c**alpha * (float(head.dot(gk[:-1])) + last * float(gk[-1]))

    return weighted_integral(x) - x ** (alpha - 1.0) * weighted_integral(1.0)


class Counted:
    """A pure g that counts its evaluations; hashed by identity like a function."""

    def __init__(self, g=np.exp):
        self.g, self.calls = g, 0

    def __call__(self, y):
        self.calls += 1
        return self.g(y)


def inverse_sqrt(y):
    with np.errstate(divide="ignore"):
        return y**-0.5


def nan_above_0_9(y):
    return np.where(y > 0.9, np.nan, 1.0)


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


@pytest.fixture
def memo():
    """The I(1) memo, emptied."""
    reference._integral_at_one.cache_clear()
    return reference._integral_at_one


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

    # nan summed 300 terms and returned nan, x = 1e308 raised OverflowError, and below x = 1e-8
    # a nan or huge c and an alpha outside (1, 2] went unchecked
    @pytest.mark.parametrize(
        "alpha,c,x",
        [(1.4, -6.0, math.nan), (1.4, -6.0, math.inf), (1.4, -6.0, 1e308), (1.4, -6.0, 1.5),
         (1.4, math.nan, 1e-9), (1.4, 1e308, 1e-9), (1.4, -12.5, 0.5), (1.0, -6.0, 1e-9)],
    )
    def test_refuses_outside_its_domain(self, alpha, c, x):
        with pytest.raises(DomainError, match="u_c is served for alpha in"):
            eigenfunction_u_c(alpha, c, x)

    # E(c x^alpha)/(c x) divided by zero at c = 0 and where c*x underflows
    @pytest.mark.parametrize("c", [0.0, 5e-324, -1e-9])
    def test_small_c_is_the_leading_power(self, c):
        assert eigenfunction_u_c(1.4, c, 0.5) == pytest.approx(0.5**0.4 / gamma(1.4), rel=1e-8)

    def test_series_branch_continuity(self):
        alpha = 1.6
        c = principal_eigenvalue(alpha).c
        below = eigenfunction_u_c(alpha, c, 0.999e-8)
        above = eigenfunction_u_c(alpha, c, 1.001e-8)
        # both branches must track the leading x^(alpha-1) behavior
        assert below == pytest.approx(
            above * (0.999 / 1.001) ** (alpha - 1.0), rel=1e-9
        )


class TestContinuousInverse:
    def test_classical_sine_oracle(self):
        # at alpha = 2 the inverse of d^2/dx^2 with these boundary terms maps
        # sin(pi x) to -sin(pi x)/pi^2
        for x in (0.2, 0.5, 0.8):
            v = continuous_inverse_apply(2.0, lambda y: np.sin(np.pi * y), x)
            assert v == pytest.approx(-math.sin(math.pi * x) / math.pi**2, abs=1e-6)

    # a numpy float32 alpha or x is read as the float it equals: in float32 I(x) was off by 9e-8
    def test_float32_arguments(self):
        alpha, x = np.float32(1.4), np.float32(0.3)
        v = continuous_inverse_apply(alpha, np.cos, x)
        assert type(v) is float and v == continuous_inverse_apply(float(alpha), np.cos, float(x))

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
        assert np.array_equal(got, [unmemoized_inverse(alpha, g, x) for x in INVERSE_XS])

    def test_one_call_allocates_one_node_array(self, memo):
        # the nodes c*s, which identity returns as they are; the weighted sum takes no temporary
        continuous_inverse_apply(1.5, identity, 0.5)  # weights and I(1) formed
        nbytes = _unit_weights(1.5)[0].nbytes
        tracemalloc.start()
        try:
            continuous_inverse_apply(1.5, identity, 0.25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * nbytes, f"tracemalloc peak {peak} B, one node array is {nbytes} B"

    def test_constant_g_may_return_a_scalar(self):
        for x in (0.25, 0.5, 0.75):
            assert continuous_inverse_apply(1.5, lambda y: 2.0, x) == 2.0 * continuous_inverse_apply(1.5, ones, x)

    @pytest.mark.parametrize("shape", [(5,), (1,), (reference.PANELS + 1, 1)])
    def test_rejects_g_of_another_shape(self, shape, memo):
        with pytest.raises(DomainError, match=re.escape(f"g returned shape {shape} on the quadrature nodes")):
            continuous_inverse_apply(1.5, lambda y: np.ones(shape), 0.5)
        assert memo.cache_info().currsize == 0

    def test_cached_weights_are_read_only(self):
        s, w, head, last = _unit_weights(1.5)
        assert not s.flags.writeable and not w.flags.writeable and not head.flags.writeable
        for array in (w, head):
            with pytest.raises(ValueError):
                array[0] = 1.0
        # the head is w's first 10^4 weights, the last one a Python float
        assert head.base is w and head.shape == (reference.PANELS,)
        assert type(last) is float and last == w[-1]

    # measured worst over these cases: 2.0 units (OpenBLAS ddot, x86-64); np.einsum read up to 14.3
    @pytest.mark.parametrize("alpha", [1.01, 1.5, 2.0])
    @pytest.mark.parametrize("c", [1e-3, 0.37, 1.0])
    @pytest.mark.parametrize("g", [bump, gaussian_ic, lambda y: 2.0], ids=["bump", "gaussian", "constant"])
    def test_weighted_sum_is_correctly_rounded_to_a_few_eps(self, alpha, c, g):
        # against the exactly rounded sum of the per-node products, in units of eps * c^alpha * sum |w_k g_k|
        s, w, _, _ = _unit_weights(alpha)
        products = w * np.broadcast_to(np.asarray(g(c * s), dtype=float), s.shape)
        exact = c**alpha * math.fsum(products)
        unit = np.finfo(float).eps * c**alpha * math.fsum(np.abs(products))
        assert abs(reference._integral(alpha, g, c) - exact) <= 4.0 * unit

    def test_weighted_sum_does_not_depend_on_alignment(self):
        # g's values at every 8-byte offset from a 64-byte boundary give the same bits
        size = reference.PANELS + 1
        buffer = np.empty(size + 16)
        start = (-buffer.ctypes.data % 64) // 8

        def at_offset(offset):
            def g(y):
                values = buffer[start + offset : start + offset + size]
                values[:] = bump(y)
                return values

            return g

        for alpha in (1.01, 1.5, 2.0):
            for c in (1e-3, 0.37, 0.8, 1.0):
                aligned = reference._integral(alpha, at_offset(0), c)
                for offset in range(1, 8):
                    assert reference._integral(alpha, at_offset(offset), c) == aligned, (alpha, c, offset)

    def test_cache_holds_nothing_of_g(self, memo):
        _unit_weights.cache_clear()
        alpha = 1.3
        for x in (0.25, 0.5, 0.75):
            v1 = continuous_inverse_apply(alpha, ones, x)
            v2 = continuous_inverse_apply(alpha, identity, x)
            assert v1 == pytest.approx(inverse_of_one(alpha, x), rel=1e-12)
            assert v2 == pytest.approx(inverse_of_y(alpha, x), rel=1e-12)
        info = _unit_weights.cache_info()
        # one entry, keyed on alpha only, shared by both g: six I(x) and two I(1)
        assert (info.currsize, info.misses, info.hits) == (1, 1, 7)

    def test_criterion_10_pattern_evaluates_g_once_per_call(self, memo):
        # 801 fine points and the interiors of n = 32..256, one g: I(1) is formed
        # once, and I(0) and f(1) need no g, so 1,281 calls make 1,280 evaluations
        # (2,561 when every call formed I(1))
        g = Counted(bump)
        xs = [*np.linspace(0.0, 1.0, 801)]
        for n in (32, 64, 128, 256):
            xs += [i / (n + 1) for i in range(1, n + 1)]
        for x in xs:
            continuous_inverse_apply(1.5, g, x)
        assert (len(xs), g.calls) == (1281, 1280)

    def test_f_at_one_reads_the_memo(self, memo):
        # on a fresh memo x = 1 forms I(1), one evaluation, and returns 0.0 without forming I(1) again
        g = Counted(bump)
        assert continuous_inverse_apply(1.5, g, 1.0) == 0.0 and g.calls == 1
        assert continuous_inverse_apply(1.5, g, 1.0) == 0.0 and g.calls == 1
        assert memo.cache_info().currsize == 1

    def test_memo_keys_on_the_g_object(self, memo):
        g1, g2 = Counted(), Counted()
        v1 = continuous_inverse_apply(1.5, g1, 0.5)
        v2 = continuous_inverse_apply(1.5, g2, 0.5)
        assert v1 == v2
        # the same computation in two objects: two entries, each formed by its own g
        info = memo.cache_info()
        assert (info.currsize, info.misses, info.hits) == (2, 2, 0)
        assert (g1.calls, g2.calls) == (2, 2)
        continuous_inverse_apply(1.7, g1, 0.5)
        assert memo.cache_info().currsize == 3 and g1.calls == 4

    def test_memo_evicts_the_least_recently_used_entry(self, memo):
        gs = [Counted() for _ in range(memo.cache_parameters()["maxsize"] + 1)]
        for g in gs[:-1]:
            continuous_inverse_apply(1.5, g, 0.5)
        continuous_inverse_apply(1.5, gs[0], 0.25)
        assert gs[0].calls == 3  # a hit: I(0.25) only, and gs[0] is now the most recent
        continuous_inverse_apply(1.5, gs[-1], 0.5)  # one entry too many
        assert memo.cache_info().currsize == len(gs) - 1
        continuous_inverse_apply(1.5, gs[0], 0.75)
        assert gs[0].calls == 4  # still held
        continuous_inverse_apply(1.5, gs[1], 0.25)
        assert gs[1].calls == 4  # the least recently used, evicted: I(1) formed again

    # I(1) is formed first: g(0) = inf for inverse_sqrt, and nan_above_0_9 is
    # finite on [0, 0.5] but not on [0, 1]
    @pytest.mark.parametrize("g", [inverse_sqrt, nan_above_0_9])
    @pytest.mark.parametrize("x", [0.5, 1.0])
    def test_rejects_non_finite_quadrature(self, g, x, memo):
        with pytest.raises(DomainError, match=r"\[0, c=1\.0\] is (inf|nan): g is not finite at a quadrature node"):
            continuous_inverse_apply(1.5, g, x)
        assert memo.cache_info().currsize == 0  # never memoized

    def test_rejects_non_finite_quadrature_below_one(self, memo):
        # g is nan only at the node 0.5*s_1 of I(0.5), which is no node of I(1)
        node = 0.5 * _unit_weights(1.5)[0][1]

        def g(y):
            return np.where(y == node, np.nan, 1.0)

        with pytest.raises(DomainError, match=r"\[0, c=0\.5\] is nan"):
            continuous_inverse_apply(1.5, g, 0.5)
        assert memo.cache_info().currsize == 1  # the finite I(1)
        assert continuous_inverse_apply(1.5, g, 1.0) == 0.0 and memo.cache_info().hits == 1

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
        mass = trapezoid(gaussian_ic(x), x)
        assert mass == pytest.approx(1.0, abs=1e-10)

    def test_rejects_bad_variance(self):
        with pytest.raises(DomainError):
            gaussian_ic(np.array([0.5]), sigma2=0.0)

    @pytest.mark.parametrize("sigma2", [np.nan, np.inf, 2.8e307, 1e308])
    def test_rejects_nonfinite_variance(self, sigma2):
        # unchecked, nan passed `sigma2 <= 0` and read nan on every node, and inf read 0.0,
        # as did the finite sigma2 from 2.8e307 on, where 2*pi*sigma2 overflows
        with pytest.raises(DomainError, match="needs a finite mu and a finite sigma2 > 0"):
            gaussian_ic(np.array([0.5]), 0.4, sigma2)

    # nodes the Gaussian cannot reach read 0 with numpy's overflow warning, an error here;
    # a scalar node's square overflowed in Python, and a float32 node divided by 2*sigma2 rounded to 0
    @pytest.mark.parametrize("x", [np.array([0.1, 0.5, 0.9]), 0.5, np.float32(0.1)], ids=["nodes", "scalar", "float32"])
    @pytest.mark.parametrize("mu,sigma2", [(1e308, 0.001), (-1e308, 5e-324), (0.3, 5e-324)])
    def test_unreachable_nodes_read_zero_without_a_warning(self, x, mu, sigma2):
        np.testing.assert_array_equal(gaussian_ic(x, mu, sigma2), 0.0)

    @pytest.mark.parametrize("mu", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_mean(self, mu):
        # unchecked, mu = inf read 0.0 on every node
        with pytest.raises(DomainError, match="needs a finite mu and a finite sigma2 > 0"):
            gaussian_ic(np.array([0.5]), mu)
