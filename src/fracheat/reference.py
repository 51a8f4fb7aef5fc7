"""Analytic reference solutions and continuous-problem oracles.

Principal eigenpair of the fractional generator, the slowest-decaying
eigenfunction, the exact decay solution, the continuous inverse via
product-integration quadrature, and the standard Gaussian initial condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ConvergenceError, NumericalError
from .specfun import gamma, mittag_leffler_e_alpha0, mittag_leffler_series


@dataclass(frozen=True)
class EigenPair:
    alpha: float
    c: float  # principal eigenvalue, largest negative root of E_{alpha,0}
    series_terms: int


@lru_cache(maxsize=None)
def principal_eigenvalue(alpha: float) -> EigenPair:
    """Largest negative root of E_{alpha,0}: coarse scan, bisection, secant polish.

    Scans c from -0.25 downward in steps of 0.25 to -60 for a sign change;
    failure to find one is reported rather than the window widened silently.
    """
    f = lambda c: mittag_leffler_e_alpha0(alpha, c)
    x = -0.25
    prev = f(x)
    lo = hi = None
    while x > -60.0:
        xn = x - 0.25
        cur = f(xn)
        if prev == 0.0:
            lo = hi = x
            break
        if prev * cur < 0.0:
            lo, hi = xn, x
            break
        x, prev = xn, cur
    if lo is None:
        raise ConvergenceError(
            f"no sign change of E_alpha0 found in [-60, 0) for alpha={alpha}"
        )
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            lo = hi = mid
            break
        if fm * flo <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
        if hi - lo <= 1e-15 * abs(lo):
            break
    c = 0.5 * (lo + hi)
    # secant polish
    for _ in range(4):
        fc = f(c)
        dc = 1e-9 * max(1.0, abs(c))
        slope = (f(c + dc) - fc) / dc
        if slope == 0.0:
            break
        c -= fc / slope
    if abs(f(c)) > 1e-11:
        raise NumericalError(
            f"eigenvalue polish stalled at |E|={abs(f(c)):.3e} for alpha={alpha}"
        )
    return EigenPair(alpha=alpha, c=c, series_terms=mittag_leffler_series(alpha, c)[1])


def eigenfunction_u_c(alpha: float, c: float, x: float) -> float:
    """u_c(x) = sum_{n>=1} c^(n-1) x^(n*alpha-1) / Gamma(n*alpha) on [0, 1].

    Evaluated as E_{alpha,0}(c x^alpha)/(c x) away from the origin and by the
    two-term series below x = 1e-8, avoiding the 0/0 limit.
    """
    if x <= 0.0:
        return 0.0
    if x < 1e-8:
        return x ** (alpha - 1.0) / gamma(alpha) + c * x ** (2.0 * alpha - 1.0) / gamma(
            2.0 * alpha
        )
    return mittag_leffler_e_alpha0(alpha, c * x**alpha) / (c * x)


def exact_decay_solution(alpha: float, t: float, x: float, pair: EigenPair | None = None) -> float:
    """e^(c*t) * u_c(x), the slowest-decaying mode of the Dirichlet problem."""
    if pair is None:
        pair = principal_eigenvalue(alpha)
    return math.exp(pair.c * t) * eigenfunction_u_c(alpha, pair.c, x)


def continuous_inverse_apply(
    alpha: float, g: Callable[[np.ndarray], np.ndarray], x: float, panels: int = 10**4
) -> float:
    """Inverse of the continuous generator applied to g, evaluated at x.

    Computes int_0^x (x-y)^(a-1)/Gamma(a) g(y) dy
           - x^(a-1) * int_0^1 (1-y)^(a-1)/Gamma(a) g(y) dy
    by product integration: g is replaced by its piecewise-linear interpolant
    on uniform panels and the weakly singular factor is integrated exactly per
    panel, which keeps the target 1e-8 accuracy near y = x where plain
    trapezoid degrades.
    """
    ga = gamma(alpha)

    def weighted_integral(c: float) -> float:
        if c <= 0.0:
            return 0.0
        yk = np.linspace(0.0, c, panels + 1)
        gk = np.asarray(g(yk), dtype=float)
        u0 = c - yk[:-1]
        u1 = c - yk[1:]
        m0 = (u0**alpha - u1**alpha) / alpha  # int (c-y)^(a-1) dy per panel
        m1 = u0 * m0 - (u0 ** (alpha + 1.0) - u1 ** (alpha + 1.0)) / (alpha + 1.0)
        d = yk[1] - yk[0]
        return float(np.sum(gk[:-1] * m0 + (gk[1:] - gk[:-1]) * m1 / d))

    return (weighted_integral(x) - x ** (alpha - 1.0) * weighted_integral(1.0)) / ga


def gaussian_ic(x, mu: float = 0.4, sigma2: float = 0.0005):
    """Gaussian density with mean mu and variance sigma2 (the Figure-1 data)."""
    if sigma2 <= 0.0:
        from .errors import DomainError

        raise DomainError(f"sigma2 must be > 0, got {sigma2}")
    return np.exp(-((x - mu) ** 2) / (2.0 * sigma2)) / math.sqrt(2.0 * math.pi * sigma2)
