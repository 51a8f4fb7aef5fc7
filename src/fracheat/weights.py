"""Weights of the order-alpha scheme and the shifted-Grunwald baseline.

The weight vector ``w`` indexes samples as in the stencil
``(1/h^alpha) * sum_k w[k] f(x - (k-1) h)``: w[0] multiplies the sample one
node to the right, w[1] the on-node sample, w[k>=2] nodes to the left.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DomainError, NumericalError
from .specfun import gamma


class Scheme(str, Enum):
    NEW = "new"
    GRUNWALD = "grunwald"

    @classmethod
    def _missing_(cls, value):  # Scheme(name) refuses an unknown name
        raise DomainError(f"unknown scheme {value!r}, expected one of {[s.value for s in cls]}")


def check_alpha(alpha: float) -> float:
    """alpha as a Python float, refused outside (1, 2]: a numpy float32 would compute in float32."""
    if not 1.0 < alpha <= 2.0:
        raise DomainError(f"alpha must be in (1, 2], got {alpha}")
    return float(alpha)


# At most this many interior nodes per grid; a larger one would not set up in
# useful time, so it is a domain error, refused before anything of its size is
# allocated. At n = 16384, new_weights takes 0.38 s (median of 3, 2 vCPUs) and
# grows as n^2, to about 24 minutes at 10^6; factorize there is O(n^2) too
# (the series 1/q), 34-45 ms.
MAX_N = 10**6


def check_n(n: int, low: int) -> int:
    """n as a Python int, refused unless an integer in [low, MAX_N]: numpy's integers are ones, 20.0 and True are not.

    A numpy integer would make h = 1/(n+1) a numpy float, whose arithmetic warns where Python's overflows to inf.
    """
    if not (isinstance(n, numbers.Integral) and not isinstance(n, bool) and low <= n <= MAX_N):
        raise DomainError(f"n must be an integer in [{low}, {MAX_N}], got {n!r}")
    return int(n)


# Mantissa bits of np.longdouble: 63 in x86's 80-bit format, 52 where it is float64 (MSVC, macOS
# arm64). new_weights needs the 80 bits: in float64 its recurrence reaches w_k <= 0 from k = 1457 at
# alpha = 1.99, N = 4096, which breaks the sign structure the M-matrix rests on.
LONGDOUBLE_NMANT = np.finfo(np.longdouble).nmant


@dataclass(frozen=True)
class WeightSequence:
    alpha: float
    scheme: Scheme
    w: np.ndarray = field(repr=False)  # indices 0..N

    def __post_init__(self):
        object.__setattr__(self, "alpha", check_alpha(self.alpha))
        self.w.setflags(write=False)

    @property
    def n_max(self) -> int:
        return len(self.w) - 1

    def partial_sums(self) -> np.ndarray:
        return np.cumsum(self.w)


def new_weights(alpha: float, n: int) -> WeightSequence:
    """Weights w_0..w_n making the stencil exact on x^(alpha-1).

    Forward substitution on the lower-triangular Toeplitz system
    sum_{m=0}^{k} w_m (k-m+1)^(alpha-1) = Gamma(alpha) * delta_{k,0}.
    O(n^2) time: 0.38 s at n = 16384, about 24 minutes at MAX_N (see there).

    The substitution runs in extended precision: the tail weights decay like
    k^(-alpha-1) while the dot products cancel terms of order k^(alpha-1), so
    plain double accumulation leaves noise above the smallest weights for
    n in the thousands (flipping their sign near alpha = 2). So it refuses with
    NumericalError where np.longdouble has fewer than 63 mantissa bits.
    """
    alpha, n = check_alpha(alpha), check_n(n, 2)
    if LONGDOUBLE_NMANT < 63:
        raise NumericalError(
            f"new_weights needs a long double of 63 or more mantissa bits, this platform's has {LONGDOUBLE_NMANT}:"
            " in float64 the weights turn nonpositive (from k = 1457 at alpha = 1.99, n = 4096)"
        )
    # p[j] = (j+1)^(alpha-1)
    p = np.arange(1, n + 2, dtype=np.longdouble) ** np.longdouble(alpha - 1.0)
    pr = p[::-1].copy()  # pr[n-k:n] is p[k:0:-1] without its negative stride: the same products in the same order
    w = np.zeros(n + 1, dtype=np.longdouble)
    w[0] = gamma(alpha)
    for k in range(1, n + 1):
        w[k] = -np.dot(w[:k], pr[n - k : n])
    return WeightSequence(alpha=alpha, scheme=Scheme.NEW, w=w.astype(float))


def grunwald_weights(alpha: float, n: int) -> WeightSequence:
    """Shifted-Grunwald weights w_k = (-1)^k binom(alpha, k)."""
    alpha, n = check_alpha(alpha), check_n(n, 2)
    w = np.empty(n + 1)
    w[0] = 1.0
    for k in range(1, n + 1):
        w[k] = w[k - 1] * (k - 1 - alpha) / k
    return WeightSequence(alpha=alpha, scheme=Scheme.GRUNWALD, w=w)


def weights(alpha: float, n: int, scheme: Scheme | str = Scheme.NEW) -> WeightSequence:
    """w_0..w_n of the scheme, given as a Scheme or by its name."""
    return new_weights(alpha, n) if Scheme(scheme) is Scheme.NEW else grunwald_weights(alpha, n)


def reciprocal_series(ws: WeightSequence, n: int) -> np.ndarray:
    """g_0..g_n, the power series of 1/w(z) for the scheme's exact weights, in closed form.

    (k+1)^(alpha-1)/Gamma(alpha) by the new scheme's defining system, and
    Gamma(k+alpha)/(Gamma(alpha) k!) for Grunwald's w(z) = (1-z)^alpha: positive
    terms, where inverting the rounded weights cancels every digit near alpha = 2.
    """
    if ws.scheme is Scheme.NEW:
        return np.arange(1.0, n + 2) ** (ws.alpha - 1.0) / gamma(ws.alpha)
    k = np.arange(1.0, n + 1)
    return np.cumprod(np.concatenate(([1.0], (k - 1.0 + ws.alpha) / k)))


def resubstitution_residual(ws: WeightSequence) -> float:
    """Max-norm residual of the defining system when the weights are re-substituted.

    Convolving w with (1, 2^(alpha-1), ..., (N+1)^(alpha-1)) must reproduce
    (Gamma(alpha), 0, ..., 0). Defined for the new scheme only.
    """
    if ws.scheme is not Scheme.NEW:
        raise DomainError("resubstitution_residual is defined for the new scheme only")
    w = ws.w
    n = ws.n_max
    p = np.arange(1, n + 2, dtype=float) ** (ws.alpha - 1.0)
    conv = np.convolve(w, p)[: n + 1]
    conv[0] -= gamma(ws.alpha)
    return float(np.abs(conv).max())


def generating_residual(ws: WeightSequence, t: float) -> float:
    """|sum_k w_k t^k - t*Gamma(alpha)/Li_{1-alpha}(t)| for t in (0, 0.9]."""
    from .specfun import polylog

    if ws.scheme is not Scheme.NEW:
        raise DomainError("generating_residual is defined for the new scheme only")
    if not 0.0 < t <= 0.9:
        raise DomainError(f"t must be in (0, 0.9], got {t}")
    lhs = float(np.polynomial.polynomial.polyval(t, ws.w))
    rhs = t * gamma(ws.alpha) / polylog(1.0 - ws.alpha, t)
    return abs(lhs - rhs)


@dataclass(frozen=True)
class QMatrixReport:
    w1_negative: bool
    others_positive: bool
    partial_sum_at_N: float
    partial_sums_increasing: bool


def qmatrix_report(ws: WeightSequence) -> QMatrixReport:
    """Sign-structure report backing the Q-matrix property of the operator.

    Partial sums are checked from index 1 onward: S_0 = w_0 > 0 always, while
    S_k < 0 for k >= 1 with S_k increasing toward the zero total sum.
    """
    w = ws.w
    s = ws.partial_sums()
    others = np.concatenate((w[:1], w[2:]))
    return QMatrixReport(
        w1_negative=bool(w[1] < 0.0),
        others_positive=bool(np.all(others > 0.0)),
        partial_sum_at_N=float(s[-1]),
        partial_sums_increasing=bool(np.all(np.diff(s[1:]) > 0.0)),
    )
