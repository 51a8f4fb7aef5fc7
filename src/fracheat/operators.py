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
from .weights import Scheme, WeightSequence, check_alpha, check_n, weights


@dataclass(frozen=True)
class GridFunction:
    """Values on the interior grid x_i = i*h, i = 1..n, h = 1/(n+1).

    Boundary values u_0 = u_{n+1} = 0 are implied.
    """

    alpha: float
    n: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "alpha", check_alpha(self.alpha))
        object.__setattr__(self, "n", check_n(self.n, 1))  # an empty grid has no sup norm
        if np.iscomplexobj(self.values):  # the cast below would drop the imaginary part
            raise DomainError("grid values must be real")
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))  # no copy of float64
        if self.values.ndim != 1:
            raise DomainError(f"grid values must be 1-D, got shape {self.values.shape}")
        if len(self.values) != self.n:
            raise DomainError(
                f"grid length {len(self.values)} does not match n={self.n}"
            )
        if not np.isfinite(self.values).all():
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
        object.__setattr__(self, "n", check_n(self.n, 3))
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

    def fit(self, u: GridFunction) -> np.ndarray:
        """u's values, refused unless u is a grid of this operator's n and alpha."""
        if u.n != self.n:
            raise DomainError(f"dimension mismatch: operator n={self.n}, grid n={u.n}")
        if u.alpha != self.alpha:
            raise DomainError(f"alpha mismatch: operator alpha={self.alpha!r}, grid alpha={u.alpha!r}")
        return u.values

    def dense(self) -> np.ndarray:
        """Densified n x n matrix; O(n^2) memory, for solvers and oracles only."""
        w = self.weights.w
        n = self.n
        idx = np.arange(n)
        k = idx[:, None] - idx[None, :] + 1  # weight index i-j+1
        m = np.where(k >= 0, w[np.clip(k, 0, None)], 0.0)
        return m / self.h**self.alpha


def build_operator(alpha: float, n: int, scheme: Scheme | str = Scheme.NEW) -> OperatorMatrix:
    n = check_n(n, 3)  # before the weights, whose own floor is n >= 2
    return OperatorMatrix(n=n, weights=weights(alpha, n, scheme))


def apply(op: OperatorMatrix, u: GridFunction) -> GridFunction:
    """Matrix-vector product v = M_h u using the Toeplitz structure, O(n^2)."""
    values = op.fit(u)
    w = op.weights.w
    n = op.n
    v = np.convolve(w[1 : n + 1], values)[:n]
    v[:-1] += w[0] * values[1:]  # superdiagonal; u_{n+1} = 0
    v /= op.h**op.alpha
    return GridFunction(alpha=op.alpha, n=n, values=v)


def exactness_residual(alpha: float, n: int) -> float:
    """Residual of the exactness-on-x^(alpha-1) construction, normalized by Gamma(alpha)/h.

    Applies M_h to the vector (0, h^(a-1), ..., ((n-1)h)^(a-1)) and compares
    with (Gamma(alpha)/h, 0, ...). The final row is excluded: the truncated
    Dirichlet matrix necessarily misses the sample beyond the stencil there,
    so the identity holds on the first n-1 rows only.
    """
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
    alpha, h = check_alpha(alpha), 1.0 / (check_n(n, 1) + 1)
    i = np.arange(1, n + 1, dtype=float)[:, None]
    j = np.arange(1, n + 1, dtype=float)[None, :]
    d = (i - j) * h
    heaviside_part = np.where(d > 0.0, np.abs(d) ** (alpha - 1.0), 0.0)
    rank_one = (i * h) ** (alpha - 1.0) * (1.0 - j * h) ** (alpha - 1.0)
    return h * (heaviside_part - rank_one) / gamma(alpha)
