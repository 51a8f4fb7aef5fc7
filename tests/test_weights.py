import math

import numpy as np
import pytest

from fracheat import (
    DomainError,
    NumericalError,
    Scheme,
    gamma,
    generating_residual,
    grunwald_weights,
    new_weights,
    qmatrix_report,
    resubstitution_residual,
)
from fracheat import weights as weights_module
from fracheat.weights import MAX_N, reciprocal_series, weights

ALPHAS = [round(1.1 + 0.1 * k, 1) for k in range(9)]  # 1.1 .. 1.9


class TestNewWeights:
    def test_classical_second_difference(self):
        ws = new_weights(2.0, 4)
        np.testing.assert_allclose(ws.w, [1.0, -2.0, 1.0, 0.0, 0.0], atol=1e-12)

    def test_first_weight_is_gamma(self):
        for alpha in (1.2, 1.5, 1.8, 2.0):
            assert new_weights(alpha, 2).w[0] == pytest.approx(gamma(alpha), rel=1e-13)

    def test_second_weight_closed_form(self):
        # second row of the system: w_1 = -w_0 * 2^(alpha-1)
        ws = new_weights(1.5, 2)
        assert ws.w[1] == pytest.approx(-1.2533141373155003, rel=1e-12)

    def test_resubstitution(self):
        for alpha in (1.2, 1.5, 1.8):
            ws = new_weights(alpha, 2048)
            assert resubstitution_residual(ws) <= 1e-10 * gamma(alpha)

    def test_resubstitution_refuses_grunwald(self):
        with pytest.raises(DomainError, match="new scheme only"):
            resubstitution_residual(grunwald_weights(1.5, 50))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            new_weights(1.0, 16)
        with pytest.raises(DomainError):
            new_weights(2.1, 16)
        with pytest.raises(DomainError):
            new_weights(1.5, 1)

    @pytest.mark.parametrize("n", [2, 400, 4096])
    @pytest.mark.parametrize("alpha", [1.01, 1.1, 1.4, 1.9, 1.99, 2.0])
    def test_substitution_is_the_reversed_dot_bit_for_bit(self, alpha, n):
        # the substitution dots a contiguous reversed copy of p: the same products summed in the
        # same order as the dot with the negative-stride view p[k:0:-1], so the same bits
        p = np.arange(1, n + 2, dtype=np.longdouble) ** np.longdouble(alpha - 1.0)
        w = np.zeros(n + 1, dtype=np.longdouble)
        w[0] = gamma(alpha)
        for k in range(1, n + 1):
            w[k] = -np.dot(w[:k], p[k:0:-1])
        np.testing.assert_array_equal(new_weights(alpha, n).w, w.astype(float))

    # where long double is float64 the recurrence's weights turn nonpositive at large n
    def test_refuses_a_float64_long_double(self, monkeypatch):
        monkeypatch.setattr(weights_module, "LONGDOUBLE_NMANT", 52)
        with pytest.raises(NumericalError, match="63 or more mantissa bits, this platform's has 52"):
            new_weights(1.5, 16)
        assert grunwald_weights(1.5, 16).w.size == 17  # Grunwald's closed form needs no long double


class TestArgumentChecks:
    # a size is an integer, numpy's included; 20.0, 20.5 and True are refused, not truncated or cast
    @pytest.mark.parametrize("make", [new_weights, grunwald_weights])
    @pytest.mark.parametrize("n", [20.0, 20.7, np.float64(8.0), True, 1, -3, MAX_N + 1])
    def test_refuses(self, make, n):
        with pytest.raises(DomainError, match=rf"n must be an integer in \[2, {MAX_N}\], got "):
            make(1.4, n)

    @pytest.mark.parametrize("make", [new_weights, grunwald_weights])
    def test_numpy_integer(self, make):
        np.testing.assert_array_equal(make(1.4, np.int64(8)).w, make(1.4, 8).w)

    # a numpy float32 alpha is read as the float it equals: gamma(alpha) in float32 moved w by 1e-7
    @pytest.mark.parametrize("make", [new_weights, grunwald_weights])
    def test_numpy_float32_alpha(self, make):
        ws = make(np.float32(1.4), 8)
        assert type(ws.alpha) is float
        np.testing.assert_array_equal(ws.w, make(float(np.float32(1.4)), 8).w)


class TestGrunwaldWeights:
    def test_classical_case(self):
        ws = grunwald_weights(2.0, 4)
        np.testing.assert_allclose(ws.w, [1.0, -2.0, 1.0, 0.0, 0.0], atol=1e-15)

    def test_leading_entries(self):
        ws = grunwald_weights(1.5, 4)
        assert ws.w[1] == pytest.approx(-1.5, abs=1e-15)
        assert ws.w[2] == pytest.approx(0.375, abs=1e-15)

    def test_matches_new_scheme_at_alpha_two(self):
        a = new_weights(2.0, 64).w
        b = grunwald_weights(2.0, 64).w
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            grunwald_weights(0.9, 8)


class TestGeneratingResidual:
    def test_alpha_two_closed_form(self):
        # both sides equal (1-t)^2 at alpha = 2
        ws = new_weights(2.0, 64)
        assert generating_residual(ws, 0.5) <= 1e-12

    def test_small_t(self):
        ws = new_weights(1.5, 2048)
        assert generating_residual(ws, 0.01) <= 1e-8

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    def test_identity_on_t_grid(self, alpha):
        ws = new_weights(alpha, 2048)
        for t in (0.1, 0.3, 0.5, 0.7, 0.9):
            assert generating_residual(ws, t) <= 1e-8

    def test_domain_errors(self):
        ws = new_weights(1.5, 64)
        with pytest.raises(DomainError):
            generating_residual(ws, 0.95)
        with pytest.raises(DomainError):
            generating_residual(ws, 0.0)
        with pytest.raises(DomainError):
            generating_residual(grunwald_weights(1.5, 64), 0.5)


class TestSignStructure:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_new_scheme_report(self, alpha):
        ws = new_weights(alpha, 1024)
        rep = qmatrix_report(ws)
        assert rep.w1_negative
        assert rep.others_positive
        assert rep.partial_sum_at_N < 0.0
        assert rep.partial_sums_increasing

    def test_partial_sums_shrink_under_extension(self):
        ws = new_weights(1.4, 4096)
        s = ws.partial_sums()
        prev = -math.inf
        for n in (256, 512, 1024, 2048, 4096):
            assert s[n] < 0.0
            assert s[n] > prev
            prev = s[n]
        assert abs(s[4096]) < abs(s[256])

    def test_grunwald_report(self):
        rep = qmatrix_report(grunwald_weights(1.5, 1024))
        assert rep.w1_negative
        assert rep.others_positive
        assert rep.partial_sum_at_N < 0.0
        assert rep.partial_sums_increasing

    def test_alpha_two_terminates(self):
        ws = new_weights(2.0, 8)
        assert ws.partial_sums()[-1] == pytest.approx(0.0, abs=1e-12)

    def test_scheme_tags(self):
        assert new_weights(1.5, 4).scheme is Scheme.NEW
        assert grunwald_weights(1.5, 4).scheme is Scheme.GRUNWALD


class TestWeightsOfAScheme:
    # a name once fell through to the Grunwald maker, "new" included
    @pytest.mark.parametrize("scheme", [Scheme.NEW, "new", Scheme.GRUNWALD, "grunwald"])
    def test_scheme_or_its_name_selects_the_weights(self, scheme):
        ws = weights(1.4, 10, scheme)
        maker = {"new": new_weights, "grunwald": grunwald_weights}[scheme]
        assert ws.scheme is Scheme(scheme)
        np.testing.assert_array_equal(ws.w, maker(1.4, 10).w)

    def test_refuses_an_unknown_name(self):
        with pytest.raises(DomainError, match=r"unknown scheme 'bogus', expected one of \['new', 'grunwald'\]"):
            weights(1.4, 10, "bogus")


class TestReciprocalSeries:
    @pytest.mark.parametrize("alpha", [1.1, 1.4, 1.9, 2.0])
    @pytest.mark.parametrize("weights", [new_weights, grunwald_weights])
    def test_inverts_the_weights(self, weights, alpha):
        # w*g = (1, 0, 0, ...) to the rounding of the nonnegative sums |w|*g
        n = 3200
        ws = weights(alpha, n)
        g = reciprocal_series(ws, n)
        assert g.shape == (n + 1,) and np.all(g > 0.0)
        residual = np.convolve(ws.w, g)[: n + 1]
        residual[0] -= 1.0
        scale = np.convolve(np.abs(ws.w), g)[: n + 1]
        assert np.all(np.abs(residual) <= 8 * np.finfo(float).eps * scale)
