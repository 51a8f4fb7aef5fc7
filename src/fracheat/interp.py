"""Piecewise power interpolation: cell-wise basis {1, x^(alpha-1)}, exact on x^(alpha-1).

Reduces to piecewise linear interpolation at alpha = 2. At each node it is that node's value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .weights import check_alpha, check_n


@dataclass(frozen=True)
class PowerInterpolant:
    """Interpolant of y_0..y_{n+1} on the uniform grid x_i = i*h, h = 1/(n+1), for alpha in (1, 2].

    y_0 = 0 always; y_{n+1} = 0 for Dirichlet data, free when interpolating
    data that need not vanish at x = 1.
    """

    alpha: float
    n: int
    y: np.ndarray = field(repr=False)  # length n+2 including boundaries

    def __post_init__(self):
        object.__setattr__(self, "alpha", check_alpha(self.alpha))
        object.__setattr__(self, "n", check_n(self.n, 0))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))  # no copy of float64
        if self.y.ndim != 1 or len(self.y) != self.n + 2:
            raise DomainError(f"need n+2 = {self.n + 2} values in a 1-D array, got shape {self.y.shape}")
        if self.y[0] != 0.0:
            raise DomainError("left boundary value must be 0")
        if not np.isfinite(self.y).all():
            raise DomainError("interpolant values must be finite")
        self.y.setflags(write=False)

    @property
    def h(self) -> float:
        return 1.0 / (self.n + 1)

    def __call__(self, x):
        """The interpolant at x in [0, 1], y_j at a node x_j: a float for a scalar x, else an array of x's shape."""
        scalar = np.ndim(x) == 0
        # 1-d even for a scalar: numpy scalar math rounds ** apart from the array kernels
        x = np.array(x, dtype=float, ndmin=1)
        outside = ~((x >= 0.0) & (x <= 1.0))  # nan included
        if outside.any():
            raise DomainError(f"evaluation point {x[outside].flat[0]} outside [0, 1]")
        h = self.h
        beta = self.alpha - 1.0
        t = x / h
        i = np.minimum(t.astype(np.intp), self.n)
        yi, yi1 = self.y[i], self.y[i + 1]
        # value = y_i + (y_{i+1}-y_i) * (x^b - x_i^b)/(x_{i+1}^b - x_i^b),
        # both differences via expm1 to survive the shrinking denominators
        # (~ h * x_i^(alpha-2)) at large i. The first cell (i = 0, 0/0 here) is y_1*(x/h)^b.
        # Where y_{i+1}-y_i overflows (neighbours of opposite sign near the largest float)
        # the convex form y_i*(1-s) + y_{i+1}*s takes its place, s the fraction above
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            num = np.expm1(beta * np.log(x / (i * h)))
            den = np.expm1(beta * np.log1p(1.0 / i))
            diff = yi1 - yi
            v = yi + diff * num / den
            if not np.isfinite(diff).all():
                s = num / den
                v = np.where(np.isfinite(diff), v, yi * (1.0 - s) + yi1 * s)
        # the first cell's value, where t < 1; t is clipped to 1 elsewhere, where y_1*t^b could overflow unused
        v = np.where(i == 0, self.y[1] * np.minimum(t, 1.0) ** beta, v)
        # y_j where t is within rounding of j (x = k*h_c and x/h: 4 roundings, <= 2*eps*t), y_{n+1} at x = 1
        j = np.rint(t)
        v = np.where(np.abs(t - j) <= 4.0 * np.finfo(float).eps * t, self.y[j.astype(np.intp)], v)
        return float(v[0]) if scalar else v


def from_grid(values: np.ndarray, alpha: float) -> PowerInterpolant:
    """Wrap interior node values u_1..u_n as a PowerInterpolant with y_0 = y_{n+1} = 0."""
    if (values := np.asarray(values, dtype=float)).ndim != 1:
        raise DomainError(f"grid values must be 1-D, got shape {values.shape}")
    y = np.concatenate(([0.0], values, [0.0]))
    return PowerInterpolant(alpha=alpha, n=len(values), y=y)
