"""Scalar special functions: gamma, generalized binomial, Mittag-Leffler, polylog.

All functions here are pure and thread-safe. ``gamma`` uses a Lanczos
approximation (g=7, 9 coefficients) so the library carries no dependency on
scipy.special; accuracy is ~1e-13 relative on [-10, 30].
"""

from __future__ import annotations

import math

from .errors import ConvergenceError, DomainError

# Lanczos coefficients for g=7, n=9 (Godfrey's tabulation).
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def gamma(x: float) -> float:
    """Gamma function for real x excluding the poles 0, -1, -2, ..."""
    if x == math.floor(x) and x <= 0.0:
        raise DomainError(f"gamma pole at x={x}")
    if x < 0.5:
        # reflection: gamma(x) = pi / (sin(pi x) * gamma(1 - x))
        return math.pi / (math.sin(math.pi * x) * gamma(1.0 - x))
    z = x - 1.0
    a = _LANCZOS_COEF[0]
    for i in range(1, len(_LANCZOS_COEF)):
        a += _LANCZOS_COEF[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _SQRT_2PI * t ** (z + 0.5) * math.exp(-t) * a


def gen_binomial(alpha: float, j: int) -> float:
    """Generalized binomial coefficient binom(alpha, j) by the product recurrence."""
    if j < 0:
        raise DomainError(f"gen_binomial needs j >= 0, got {j}")
    b = 1.0
    for k in range(1, j + 1):
        b *= (alpha - k + 1) / k
    return b


def mittag_leffler_e_alpha0(alpha: float, z: float, max_terms: int = 300) -> float:
    """E_{alpha,0}(z) = sum_{n>=1} z^n / Gamma(n*alpha) by direct Kahan-summed series.

    |z| <= 100 is an input guard, not an accuracy domain (no asymptotic branch
    is implemented beyond it). For negative z the terms cancel; against mpmath
    1.3.0 the relative error is 1e-5 at z = -20, 7.6e4 at z = -50 and 9e18 at
    z = -100 for alpha = 1.1; 4e-5 at z = -50 and 6.0 at z = -100 for
    alpha = 1.4; and 2e-11 at z = -100 for alpha = 2.0.
    """
    return mittag_leffler_series(alpha, z, max_terms)[0]


def mittag_leffler_series(alpha: float, z: float, max_terms: int = 300) -> tuple[float, int]:
    """E_{alpha,0}(z) as in ``mittag_leffler_e_alpha0``, and the number of terms summed."""
    if not 1.0 < alpha <= 2.0:
        raise DomainError(f"mittag_leffler requires alpha in (1, 2], got {alpha}")
    if abs(z) > 100.0:
        raise DomainError(f"|z| = {abs(z)} outside the accuracy domain |z| <= 100")
    if z == 0.0:
        return 0.0, 0
    log_az = math.log(abs(z))
    total = 0.0
    comp = 0.0  # Kahan compensation
    for n in range(1, max_terms + 1):
        term = math.exp(n * log_az - math.lgamma(n * alpha))
        if z < 0.0 and n % 2 == 1:
            term = -term
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(term) <= 1e-16 * abs(total):
            break
    return total, n


def polylog(s: float, t: float, max_terms: int = 10**6) -> float:
    """Li_s(t) = sum_{j>=1} j^{-s} t^j for |t| < 1."""
    if not -1.0 < t < 1.0:
        raise DomainError(f"polylog requires |t| < 1, got t={t}")
    if t == 0.0:
        return 0.0
    total = 0.0
    tp = 1.0
    for j in range(1, max_terms + 1):
        tp *= t
        term = j ** (-s) * tp
        total += term
        if abs(term) <= 1e-16 * abs(total):
            return total
    raise ConvergenceError(
        f"polylog series did not converge within {max_terms} terms at s={s}, t={t}"
    )
