import math

import numpy as np
import pytest

from fracheat import DomainError, gamma, mittag_leffler_e_alpha0, polylog
from fracheat.errors import ConvergenceError
from fracheat.specfun import mittag_leffler_series


class TestGamma:
    def test_integer_factorials(self):
        assert gamma(2.0) == pytest.approx(1.0, rel=1e-12)
        assert gamma(5.0) == pytest.approx(24.0, rel=1e-12)

    def test_half_integer(self):
        # Gamma(1.5) = sqrt(pi)/2
        assert gamma(1.5) == pytest.approx(0.8862269254527580, rel=1e-12)

    def test_against_stdlib_on_window(self):
        xs = np.linspace(-10, 30, 1601)
        for x in xs:
            x = float(x)
            if x == math.floor(x) and x <= 0:
                continue
            assert gamma(x) == pytest.approx(math.gamma(x), rel=1e-12)

    def test_recurrence(self):
        for x in np.linspace(0.5, 20, 79):
            x = float(x)
            assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)

    @pytest.mark.parametrize("x", [0.0, -1.0, -7.0])
    def test_pole_rejected(self, x):
        with pytest.raises(DomainError):
            gamma(x)

    # nan raised ValueError, +-inf OverflowError, and so did x >= 142.37 (Lanczos's power overflows
    # while Gamma is 1.2e244) and x <= -141.37; below |x| = 5.6e-309 Gamma itself overflowed to inf
    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, 142.5, 171.0, -141.5, 5e-324, -1e-310])
    def test_refuses_outside_its_domain(self, x):
        with pytest.raises(DomainError, match=r"gamma serves x in \[-141, 142\] with \|x\| >= 1e-300"):
            gamma(x)

    @pytest.mark.parametrize("x", [142.0, -140.5, 1e-300, -1e-300])
    def test_ends_of_its_domain(self, x):
        assert gamma(x) == pytest.approx(math.gamma(x), rel=1e-12)


class TestMittagLeffler:
    def test_zero(self):
        assert mittag_leffler_e_alpha0(2.0, 0.0) == 0.0

    def test_sinh_identity(self):
        # E_{2,0}(z) = sqrt(z) * sinh(sqrt(z)) for z > 0
        assert mittag_leffler_e_alpha0(2.0, 1.0) == pytest.approx(
            math.sinh(1.0), rel=1e-13
        )
        for z in (0.25, 4.0, 9.0):
            assert mittag_leffler_e_alpha0(2.0, z) == pytest.approx(
                math.sqrt(z) * math.sinh(math.sqrt(z)), rel=1e-12
            )

    def test_negative_argument_sine_identity(self):
        # E_{2,0}(-y^2) = -y*sin(y)
        for y in (1.0, 2.0, math.pi):
            assert mittag_leffler_e_alpha0(2.0, -(y**2)) == pytest.approx(
                -y * math.sin(y), abs=1e-12
            )

    def test_pi_squared_root(self):
        assert abs(mittag_leffler_e_alpha0(2.0, -math.pi**2)) <= 1e-12

    def test_series_reports_terms_used(self):
        # E_{2,0}(1) = sum 1/(2n-1)!: 1/19! is the first term below 1e-16 * sinh(1)
        value, terms = mittag_leffler_series(2.0, 1.0)
        assert value == mittag_leffler_e_alpha0(2.0, 1.0)
        assert terms == 10
        assert mittag_leffler_series(2.0, 0.0) == (0.0, 0)

    def test_domain_errors(self):
        # the served domain |z| <= 12 covers the eigenvalue scan down to -11.75
        assert mittag_leffler_series(2.0, -12.0)[0] == pytest.approx(
            -(12**0.5) * math.sin(12**0.5), abs=1e-13
        )
        # nan passed `abs(z) > 12`, summed 300 terms and returned nan
        for z in (-12.5, 12.5, math.nan):
            with pytest.raises(DomainError, match="served domain"):
                mittag_leffler_series(1.4, z)
        with pytest.raises(DomainError):
            mittag_leffler_e_alpha0(1.0, 1.0)


class TestPolylog:
    def test_geometric(self):
        # Li_0(t) = t/(1-t)
        assert polylog(0.0, 0.5) == pytest.approx(1.0, rel=1e-14)

    def test_s_minus_one(self):
        # Li_{-1}(t) = t/(1-t)^2
        assert polylog(-1.0, 0.5) == pytest.approx(2.0, rel=1e-14)

    def test_empty_sum(self):
        assert polylog(-0.5, 0.0) == 0.0

    def test_against_direct_summation(self):
        for s in (-1.0, -0.5, 0.0):
            for t in (0.25, -0.25, 0.75, -0.75):
                j = np.arange(1, 10**5 + 1)
                direct = float(np.sum(j ** (-s) * t**j))
                assert polylog(s, t) == pytest.approx(direct, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            polylog(-0.5, 1.0)
        with pytest.raises(DomainError):
            polylog(-0.5, -1.5)

    # nan ran 10^6 terms into ConvergenceError, -inf returned inf and -1e308 raised OverflowError
    @pytest.mark.parametrize("s", [math.nan, -math.inf, -1e308, -50.5])
    def test_refuses_an_order_below_minus_50(self, s):
        with pytest.raises(DomainError, match="s >= -50"):
            polylog(s, 0.5)

    def test_order_minus_50(self):
        direct = math.fsum(j**50 * 0.5**j for j in range(1, 3000))
        assert polylog(-50.0, 0.5) == pytest.approx(direct, rel=1e-12)

    def test_convergence_budget(self):
        with pytest.raises(ConvergenceError):
            polylog(-0.5, 0.999999)  # about 2.4e7 terms needed, 1e6 allowed
