"""Piecewise power interpolation: cell-wise basis {1, x^(alpha-1)}, exact on x^(alpha-1).

Reduces to piecewise linear interpolation at alpha = 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class PowerInterpolant:
    """Interpolant of y_0..y_{n+1} on the uniform grid x_i = i*h, h = 1/(n+1).

    y_0 = 0 always; y_{n+1} = 0 for Dirichlet data, free when interpolating
    data that need not vanish at x = 1.
    """

    alpha: float
    n: int
    y: np.ndarray = field(repr=False)  # length n+2 including boundaries

    def __post_init__(self):
        if len(self.y) != self.n + 2:
            raise DomainError(f"need n+2 = {self.n + 2} values, got {len(self.y)}")
        if self.y[0] != 0.0:
            raise DomainError("left boundary value must be 0")
        self.y.setflags(write=False)

    @property
    def h(self) -> float:
        return 1.0 / (self.n + 1)

    def __call__(self, x):
        if np.isscalar(x):
            return self._eval_one(float(x))
        return np.array([self._eval_one(float(v)) for v in np.asarray(x).ravel()])

    def _eval_one(self, x: float) -> float:
        if not 0.0 <= x <= 1.0:
            raise DomainError(f"evaluation point {x} outside [0, 1]")
        if x == 1.0:
            return float(self.y[self.n + 1])
        h = self.h
        beta = self.alpha - 1.0
        i = min(int(x / h), self.n)  # ties resolve to the left cell
        if i == 0:
            return float(self.y[1]) * (x / h) ** beta
        yi, yi1 = float(self.y[i]), float(self.y[i + 1])
        if x == i * h:
            return yi
        # value = y_i + (y_{i+1}-y_i) * (x^b - x_i^b)/(x_{i+1}^b - x_i^b),
        # both differences via expm1 to survive the shrinking denominators
        # (~ h * x_i^(alpha-2)) at large i.
        num = math.expm1(beta * math.log(x / (i * h)))
        den = math.expm1(beta * math.log1p(1.0 / i))
        return yi + (yi1 - yi) * num / den


def from_grid(values: np.ndarray, alpha: float, right_value: float = 0.0) -> PowerInterpolant:
    """Wrap interior node values u_1..u_n as a PowerInterpolant."""
    values = np.asarray(values, dtype=float)
    y = np.concatenate(([0.0], values, [right_value]))
    return PowerInterpolant(alpha=alpha, n=len(values), y=y)


def project(
    f: Callable[[float], float], alpha: float, n: int, dirichlet: bool = True
) -> PowerInterpolant:
    """Projection Pi_n f: sample f at the interior nodes and wrap.

    With ``dirichlet=False`` the right boundary value f(1) is kept, extending
    the projection to data that vanish only at x = 0.
    """
    h = 1.0 / (n + 1)
    vals = np.array([f(i * h) for i in range(1, n + 1)], dtype=float)
    right = 0.0 if dirichlet else float(f(1.0))
    return from_grid(vals, alpha, right_value=right)
