"""Analytic reference solutions and continuous-problem oracles.

Principal eigenpair of the fractional generator, the slowest-decaying
eigenfunction, the continuous inverse via product-integration quadrature,
and the standard Gaussian initial condition.
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
    two-term series below x = 1e-8 or |c| = 1e-8, avoiding the 0/0 limit. Served
    for alpha in (1, 2], |c| <= 12 and x <= 1, where |c x^alpha| stays in the
    series' domain |z| <= 12 (x <= 0 gives 0); elsewhere, nan included, DomainError.
    """
    if not (1.0 < alpha <= 2.0 and abs(c) <= 12.0 and x <= 1.0):
        raise DomainError(f"u_c is served for alpha in (1, 2], |c| <= 12 and x <= 1, got alpha={alpha}, c={c}, x={x}")
    if x <= 0.0:
        return 0.0
    if x < 1e-8 or abs(c) < 1e-8:
        return x ** (alpha - 1.0) / gamma(alpha) + c * x ** (2.0 * alpha - 1.0) / gamma(
            2.0 * alpha
        )
    return mittag_leffler_e_alpha0(alpha, c * x**alpha) / (c * x)


PANELS = 10**4  # uniform panels of the product-integration rule


@lru_cache(maxsize=8)
def _unit_weights(alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Nodes s_k = k/PANELS and product-integration weights w on [0, 1], w's head and last weight.

    Sum_k w_k g(s_k) is the integral of (1-y)^(alpha-1)/Gamma(alpha) times
    the piecewise-linear interpolant of g on the nodes: per panel, m0 is the
    exact moment of the kernel and m1 its first moment divided by the panel
    width. The head w[:-1] and w[-1], a Python float, are the two parts of the
    weighted sum. The arrays are read-only, as every caller shares them.
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
    return s, w, w[:-1], float(w[-1])


def _integral(alpha: float, g: Callable[[np.ndarray], np.ndarray], c: float) -> float:
    """I(c) = c^alpha * sum_k w_k g(c*s_k), the product-integration rule on [0, c]."""
    if c == 0.0:
        return 0.0
    s, _, head, last = _unit_weights(alpha)
    gk = np.asarray(g(c * s), dtype=float)
    if gk.shape != s.shape:
        if gk.ndim:
            raise DomainError(f"g returned shape {gk.shape} on the quadrature nodes, not {s.shape} or a scalar")
        gk = np.full(s.shape, gk)  # a constant g; BLAS takes no stride-0 view
    # one BLAS ddot over the first 10^4 nodes, with no temporary, plus the last node's product:
    # 2.3-3.5 us against 5.8-7.4 for np.einsum("i,i", w, gk). Not one ddot over all 10,001 nodes:
    # OpenBLAS splits a ddot above 10^4 entries across its threads, CPU/wall 1.96-1.98 against 1.00
    # at 10^4 (numpy 2.4's bundled OpenBLAS, x86-64, 2 vCPUs). Its bits do not hang on alignment.
    if math.isfinite(total := c**alpha * (float(head.dot(gk[:-1])) + last * float(gk[-1]))):
        return total
    raise DomainError(f"I(c) on [0, c={c!r}] is {total!r}: g is not finite at a quadrature node")


@lru_cache(maxsize=8)  # I(1) per (alpha, g object); a call that raises is not cached
def _integral_at_one(alpha: float, g: Callable[[np.ndarray], np.ndarray]) -> float:
    return _integral(alpha, g, 1.0)


def continuous_inverse_apply(alpha: float, g: Callable[[np.ndarray], np.ndarray], x: float) -> float:
    """Inverse of the continuous generator applied to g, evaluated at x.

    Computes f(x) = I(x) - x^(a-1) * I(1), where
    I(c) = int_0^c (c-y)^(a-1)/Gamma(a) g(y) dy, by product integration: g is
    replaced by its piecewise-linear interpolant on PANELS = 10^4 uniform
    panels of [0, c] and the weakly singular kernel is integrated exactly per panel,
    where plain trapezoid degrades near y = x. Against a 30-digit mpmath
    quadrature the error reads 3.9e-9 to 4.4e-9 of max|f| for criterion 10's bump
    (alpha 1.1 to 1.9) and 2.6e-8 to 6.0e-8 for the Figure-1 Gaussian (alpha from
    1.4 down to 1.05): O(panel^2) whatever g is (ROADMAP item 22). Under y = c*s these panel
    moments scale exactly as c^a times those of c = 1, so I(c) = c^a * sum_k w_k g(c*s_k)
    with one weight vector w on the nodes s_k = k/PANELS of [0, 1]. I(1) is formed first
    and memoized per (alpha, g object) in 8 entries, least recently used evicted first,
    so a call evaluates g at most once, on x*s, and f(1) is 0.0 from the memo. g must be
    a pure, hashable function of y (functions, lambdas, ufuncs and partials are), or I(1) goes stale.

    Raises DomainError for alpha outside (1, 2] or x outside [0, 1] (nan
    included), for a g that returns neither one value per node nor a scalar,
    and for an inf or nan integral, which is never memoized.
    """
    alpha, x = check_alpha(alpha), float(x)  # a numpy float32 x would compute I(x) in float32
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"x must be a finite number in [0, 1], got {x}")
    at_one = _integral_at_one(alpha, g)  # first: its refusals hold at x = 1 too
    return 0.0 if x == 1.0 else _integral(alpha, g, x) - x ** (alpha - 1.0) * at_one


def gaussian_ic(x, mu: float = 0.4, sigma2: float = 0.0005):
    """Gaussian density with mean mu and variance sigma2 (the Figure-1 data).

    Refuses a non-finite mu and a sigma2 outside (0, 2.8e307), where 2*pi*sigma2 would overflow. At a
    node the Gaussian cannot reach, its exponent overflows to -inf and the density reads 0, with no warning.
    """
    sigma2 = float(sigma2)  # a numpy float32 would warn, cast to compare with 2.8e307
    if not (math.isfinite(mu) and 0.0 < sigma2 < 2.8e307):  # nan included
        raise DomainError(f"Gaussian needs a finite mu and a finite sigma2 > 0 under 2.8e307, got mu={mu}, sigma2={sigma2}")
    with np.errstate(over="ignore"):
        return np.exp(-(np.subtract(x, mu, dtype=float) ** 2) / (2.0 * sigma2)) / math.sqrt(2.0 * math.pi * sigma2)
