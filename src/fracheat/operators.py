"""The bounded-domain generator matrix and its closed-form inverse oracle.

The generator is (1/h^alpha) * T where T is lower-Hessenberg Toeplitz:
T[i][j] = w_{i-j+1} for i-j >= -1 (1-based), zero above the superdiagonal.
It is stored Toeplitz-compressed (the weight vector plus dimensions) and only
densified on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .specfun import gamma
from .weights import Scheme, WeightSequence, grunwald_weights, new_weights


@dataclass(frozen=True)
class GridFunction:
    """Values on the interior grid x_i = i*h, i = 1..n, h = 1/(n+1).

    Boundary values u_0 = u_{n+1} = 0 are implied.
    """

    alpha: float
    n: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if len(self.values) != self.n:
            raise DomainError(
                f"grid length {len(self.values)} does not match n={self.n}"
            )
        if not np.all(np.isfinite(self.values)):
            raise DomainError("grid values must be finite")

    @property
    def h(self) -> float:
        return 1.0 / (self.n + 1)

    @property
    def x(self) -> np.ndarray:
        return np.arange(1, self.n + 1) * self.h

    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())

    def l1_norm(self) -> float:
        return float(self.h * np.abs(self.values).sum())


@dataclass(frozen=True)
class OperatorMatrix:
    n: int
    weights: WeightSequence

    def __post_init__(self):
        if self.n < 3:
            raise DomainError(f"operator needs n >= 3, got {self.n}")
        if self.weights.n_max < self.n:
            raise DomainError(
                f"weight vector too short: {self.weights.n_max + 1} < {self.n + 1}"
            )

    @property
    def alpha(self) -> float:
        return self.weights.alpha

    @property
    def h(self) -> float:
        return 1.0 / (self.n + 1)

    @property
    def scheme(self) -> Scheme:
        return self.weights.scheme

    def dense(self) -> np.ndarray:
        """Densified n x n matrix; O(n^2) memory, for solvers and oracles only."""
        w = self.weights.w
        n = self.n
        idx = np.arange(n)
        k = idx[:, None] - idx[None, :] + 1  # weight index i-j+1
        m = np.where(k >= 0, w[np.clip(k, 0, None)], 0.0)
        return m / self.h**self.alpha


def build_operator(alpha: float, n: int, scheme: Scheme = Scheme.NEW) -> OperatorMatrix:
    if n < 3:
        raise DomainError(f"build_operator needs n >= 3, got {n}")
    maker = new_weights if scheme is Scheme.NEW else grunwald_weights
    return OperatorMatrix(n=n, weights=maker(alpha, n))


def apply(op: OperatorMatrix, u: GridFunction) -> GridFunction:
    """Matrix-vector product v = M_h u using the Toeplitz structure, O(n^2)."""
    if u.n != op.n:
        raise DomainError(f"dimension mismatch: operator n={op.n}, grid n={u.n}")
    w = op.weights.w
    n = op.n
    v = np.convolve(w[1 : n + 1], u.values)[:n]
    v[:-1] += w[0] * u.values[1:]  # superdiagonal; u_{n+1} = 0
    v /= op.h**op.alpha
    return GridFunction(alpha=op.alpha, n=n, values=v)


def exactness_residual(alpha: float, n: int) -> float:
    """Residual of the exactness-on-x^(alpha-1) construction, normalized by Gamma(alpha)/h.

    Applies M_h to the vector (0, h^(a-1), ..., ((n-1)h)^(a-1)) and compares
    with (Gamma(alpha)/h, 0, ...). The final row is excluded: the truncated
    Dirichlet matrix necessarily misses the sample beyond the stencil there,
    so the identity holds on the first n-1 rows only.
    """
    if n < 3:
        raise DomainError(f"exactness_residual needs n >= 3, got {n}")
    op = build_operator(alpha, n, Scheme.NEW)
    h = op.h
    xs = np.arange(n) * h
    u = np.zeros(n)
    u[1:] = xs[1:] ** (alpha - 1.0)
    v = apply(op, GridFunction(alpha=alpha, n=n, values=u)).values
    spike = gamma(alpha) / h
    target = np.zeros(n)
    target[0] = spike
    return float(np.abs(v[: n - 1] - target[: n - 1]).max() / spike)


def closed_form_inverse(alpha: float, n: int) -> np.ndarray:
    """Dense inverse of the new-scheme generator from its closed form.

    X[i][j] = h*(H(i-j)*((i-j)h)^(a-1) - (ih)^(a-1)(1-jh)^(a-1))/Gamma(alpha),
    1-based i, j, with H(0)*0^(a-1) taken as 0 (the factor vanishes for a > 1).
    """
    h = 1.0 / (n + 1)
    i = np.arange(1, n + 1, dtype=float)[:, None]
    j = np.arange(1, n + 1, dtype=float)[None, :]
    d = (i - j) * h
    heaviside_part = np.where(d > 0.0, np.abs(d) ** (alpha - 1.0), 0.0)
    rank_one = (i * h) ** (alpha - 1.0) * (1.0 - j * h) ** (alpha - 1.0)
    return h * (heaviside_part - rank_one) / gamma(alpha)
