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

from .errors import ConvergenceError, DomainError, NumericalError
from .specfun import gamma, mittag_leffler_e_alpha0, mittag_leffler_series
from .weights import check_alpha


@dataclass(frozen=True)
class EigenPair:
    alpha: float
    c: float  # principal eigenvalue, largest negative root of E_{alpha,0}
    series_terms: int


# Below it the secant polish stalls above its 1e-11 residual at many alpha
# (1.001 to 1.006, 1.008, 1.0095). From it to 2 every root is in [-9.87, -4.5].
EIGEN_MIN_ALPHA = 1.01


@lru_cache(maxsize=None)
def principal_eigenvalue(alpha: float) -> EigenPair:
    """Largest negative root of E_{alpha,0}: coarse scan, bisection, secant polish.

    Serves alpha in [1.01, 2] and raises DomainError below. Scans c from -0.25
    downward in steps of 0.25 to -11.75 for a sign change; failure to find one
    is reported rather than the window widened silently.
    """
    if not EIGEN_MIN_ALPHA <= alpha <= 2.0:
        raise DomainError(
            f"eigen paths serve alpha in [{EIGEN_MIN_ALPHA}, 2], got {alpha}"
        )
    f = lambda c: mittag_leffler_e_alpha0(alpha, c)
    x = -0.25
    prev = f(x)
    lo = hi = None
    while x > -11.75:
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
            f"no sign change of E_alpha0 found in [-11.75, 0) for alpha={alpha}"
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


PANELS = 10**4  # uniform panels of the product-integration rule


@lru_cache(maxsize=8)
def _unit_weights(alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes s_k = k/PANELS and product-integration weights on [0, 1].

    Sum_k w_k g(s_k) is the integral of (1-y)^(alpha-1)/Gamma(alpha) times
    the piecewise-linear interpolant of g on the nodes: per panel, m0 is the
    exact moment of the kernel and m1 its first moment divided by the panel
    width. Both arrays are read-only, as every caller shares them.
    """
    s = np.linspace(0.0, 1.0, PANELS + 1)
    u = 1.0 - s
    p = u**alpha
    q = u ** (alpha + 1.0)
    m0 = (p[:-1] - p[1:]) / alpha
    m1 = PANELS * (u[:-1] * m0 - (q[:-1] - q[1:]) / (alpha + 1.0))
    w = np.zeros(PANELS + 1)
    w[:-1] += m0 - m1
    w[1:] += m1
    w /= gamma(alpha)
    s.setflags(write=False)
    w.setflags(write=False)
    return s, w


def continuous_inverse_apply(alpha: float, g: Callable[[np.ndarray], np.ndarray], x: float) -> float:
    """Inverse of the continuous generator applied to g, evaluated at x.

    Computes f(x) = I(x) - x^(a-1) * I(1), where
    I(c) = int_0^c (c-y)^(a-1)/Gamma(a) g(y) dy, by product integration: g is
    replaced by its piecewise-linear interpolant on PANELS = 10^4 uniform
    panels of [0, c] and the weakly singular kernel is integrated exactly per panel,
    which keeps the target 1e-8 accuracy near y = x where plain trapezoid
    degrades. Under y = c*s these panel moments scale exactly as c^a times
    those of c = 1, so I(c) = c^a * sum_k w_k g(c*s_k) with one weight vector
    w on the nodes s_k = k/PANELS of [0, 1]. (s, w) depend only on alpha and
    are cached (8 entries), never on g; each integral is one evaluation of g
    and one dot product.

    Raises DomainError for alpha outside (1, 2] or x outside [0, 1] (nan
    included).
    """
    check_alpha(alpha)
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"x must be a finite number in [0, 1], got {x}")
    s, w = _unit_weights(alpha)

    def weighted_integral(c: float) -> float:
        if c == 0.0:
            return 0.0
        # numpy's pairwise sum, not np.dot: at this length BLAS ddot wakes a
        # second thread that doubles the CPU time without saving wall time,
        # and the sum is 10x closer to the per-panel rule than einsum's
        gk = np.asarray(g(c * s), dtype=float)
        return c**alpha * float((w * gk).sum())

    return weighted_integral(x) - x ** (alpha - 1.0) * weighted_integral(1.0)


def gaussian_ic(x, mu: float = 0.4, sigma2: float = 0.0005):
    """Gaussian density with mean mu and variance sigma2 (the Figure-1 data)."""
    if sigma2 <= 0.0:
        raise DomainError(f"sigma2 must be > 0, got {sigma2}")
    return np.exp(-((x - mu) ** 2) / (2.0 * sigma2)) / math.sqrt(2.0 * math.pi * sigma2)
