"""Backward-Euler time integration of u' = M_h u with a structure-exploiting solver.

(I - dt*M_h) is a nonsingular M-matrix (diagonal 1 + dt*|w_1|/h^alpha >= 1,
nonpositive off-diagonals, row sums >= 1), so Gaussian elimination needs no
pivoting. The lower-Hessenberg shape means each elimination step touches only
the single superdiagonal entry of the pivot row: the factorization is O(n^2)
with a dense unit-lower-triangular factor and an upper-bidiagonal factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

import numpy as np
from scipy.linalg import solve_banded, solve_triangular

from .errors import DomainError, NumericalError
from .operators import GridFunction, OperatorMatrix, build_operator
from .weights import Scheme, check_alpha


# ---------------------------------------------------------------------------
# initial-condition descriptors

@dataclass(frozen=True)
class GaussianIC:
    mu: float = 0.4
    sigma2: float = 0.0005


@dataclass(frozen=True)
class EigenfunctionIC:
    pass


@dataclass(frozen=True)
class PowerLawIC:
    """a*x^(alpha-1) + b*x^(2alpha-1), the singular part of smooth initial data."""

    a: float = 1.0
    b: float = 0.0


@dataclass(frozen=True)
class CustomIC:
    values: np.ndarray = field(repr=False)


InitialCondition = Union[GaussianIC, EigenfunctionIC, PowerLawIC, CustomIC]


@dataclass(frozen=True)
class EvolutionConfig:
    alpha: float
    n: int
    t_final: float
    scheme: Scheme = Scheme.NEW
    dt: Optional[float] = None  # default h^alpha
    ic: InitialCondition = GaussianIC()

    def __post_init__(self):
        check_alpha(self.alpha)
        if self.n < 3:
            raise DomainError(f"n must be >= 3, got {self.n}")
        if not 0.0 <= self.t_final < math.inf:
            raise DomainError(f"t_final must be finite and >= 0, got {self.t_final}")
        if self.dt is not None and not 0.0 < self.dt < math.inf:
            raise DomainError(f"dt must be finite and > 0, got {self.dt}")
        if self.dt is not None and self.t_final > 0.0 and self.dt > self.t_final:
            raise DomainError("dt must not exceed t_final")

    @property
    def h(self) -> float:
        return 1.0 / (self.n + 1)

    def effective_dt(self) -> float:
        return self.dt if self.dt is not None else self.h**self.alpha


# ---------------------------------------------------------------------------
# Hessenberg factorization of (sigma*I - tau*T)

@dataclass(frozen=True)
class HessenbergFactorization:
    n: int
    lower: np.ndarray = field(repr=False)   # dense unit lower triangular
    banded: np.ndarray = field(repr=False)  # (2, n) for solve_banded: pivots + superdiag


def _factor_shifted(op: OperatorMatrix, sigma: float, tau: float) -> HessenbergFactorization:
    """LU of sigma*I - tau*T without pivoting, T the Toeplitz stencil matrix."""
    w = op.weights.w
    n = op.n
    sup = -tau * w[0]  # constant superdiagonal
    base = np.empty(n)
    base[0] = sigma - tau * w[1]
    base[1:] = -tau * w[2 : n + 1]
    lower = np.zeros((n, n))
    pivots = np.empty(n)
    col = base.copy()
    for j in range(n - 1):
        piv = col[0]
        if piv <= 0.0:
            raise NumericalError(f"nonpositive pivot {piv} at column {j}")
        pivots[j] = piv
        m = col[1:] / piv
        lower[j + 1 :, j] = m
        col = base[: n - 1 - j] - m * sup
    if col[0] <= 0.0:
        raise NumericalError(f"nonpositive pivot {col[0]} at column {n - 1}")
    pivots[n - 1] = col[0]
    np.fill_diagonal(lower, 1.0)
    banded = np.zeros((2, n))
    banded[0, 1:] = sup
    banded[1, :] = pivots
    return HessenbergFactorization(n=n, lower=lower, banded=banded)


def factorize(op: OperatorMatrix, dt: float) -> HessenbergFactorization:
    """Factor (I - dt*M_h) for the backward-Euler step."""
    if dt <= 0.0:
        raise DomainError(f"dt must be > 0, got {dt}")
    return _factor_shifted(op, 1.0, dt / op.h**op.alpha)


def _solve(f: HessenbergFactorization, b: np.ndarray) -> np.ndarray:
    y = solve_triangular(f.lower, b, lower=True, unit_diagonal=True, check_finite=False)
    return solve_banded((0, 1), f.banded, y, check_finite=False)


def step(f: HessenbergFactorization, u: GridFunction) -> GridFunction:
    """One backward-Euler step: solve (I - dt*M_h) v = u."""
    if u.n != f.n:
        raise DomainError(f"dimension mismatch: factorization n={f.n}, grid n={u.n}")
    return GridFunction(alpha=u.alpha, n=u.n, values=_solve(f, u.values))


def resolvent_apply(op: OperatorMatrix, lam: float, g: GridFunction) -> GridFunction:
    """Solve (lam*I - M_h) v = g for lam >= 0; lam = 0 is the negative inverse."""
    if lam < 0.0:
        raise DomainError(f"resolvent parameter must be >= 0, got {lam}")
    if g.n != op.n:
        raise DomainError(f"dimension mismatch: operator n={op.n}, grid n={g.n}")
    f = _factor_shifted(op, lam, 1.0 / op.h**op.alpha)
    return GridFunction(alpha=op.alpha, n=op.n, values=_solve(f, g.values))


# ---------------------------------------------------------------------------
# full trajectories

def step_count(t_final: float, dt: float) -> int:
    """Backward-Euler steps to reach t_final > 0: ceil(t_final/dt), at least 1.

    Callers shrink the step to t_final/step_count so it lands on t_final.
    """
    ratio = t_final / dt if dt > 0.0 else math.inf
    if not ratio < math.inf:
        raise DomainError(f"step count t_final/dt = {t_final!r}/{dt!r} is not finite")
    return max(1, math.ceil(ratio - 1e-12))


@dataclass(frozen=True)
class Trajectory:
    config: EvolutionConfig
    times: np.ndarray
    final: GridFunction
    sup_norms: np.ndarray  # per step, from t = 0
    l1_norms: np.ndarray


def initial_grid(cfg: EvolutionConfig) -> GridFunction:
    """Sample the configured initial condition at the interior nodes."""
    x = np.arange(1, cfg.n + 1) * cfg.h
    ic = cfg.ic
    if isinstance(ic, GaussianIC):
        from .reference import gaussian_ic

        vals = gaussian_ic(x, ic.mu, ic.sigma2)
    elif isinstance(ic, EigenfunctionIC):
        from .reference import eigenfunction_u_c, principal_eigenvalue

        pair = principal_eigenvalue(cfg.alpha)
        vals = np.array([eigenfunction_u_c(cfg.alpha, pair.c, xi) for xi in x])
    elif isinstance(ic, PowerLawIC):
        vals = ic.a * x ** (cfg.alpha - 1.0) + ic.b * x ** (2.0 * cfg.alpha - 1.0)
    elif isinstance(ic, CustomIC):
        vals = np.asarray(ic.values, dtype=float)
    else:
        raise DomainError(f"unknown initial condition {ic!r}")
    return GridFunction(alpha=cfg.alpha, n=cfg.n, values=vals)


def iter_states(cfg: EvolutionConfig) -> Iterator[tuple[float, GridFunction]]:
    """The backward-Euler states (t_k, u_k), k = 0..steps, with t_k = k*dt.

    The step count is ceil(t_final/dt) with dt shrunk to land on t_final
    exactly; one factorization is reused throughout. Every fallible set-up
    (initial grid, step count, operator, factorization) runs before this
    returns, and the states are then computed one at a time as they are read.
    t_final = 0 yields only (0.0, u0).
    """
    u = initial_grid(cfg)
    if cfg.t_final == 0.0:
        return _march(None, u, 0, 0.0)
    steps = step_count(cfg.t_final, cfg.effective_dt())
    dt = cfg.t_final / steps
    op = build_operator(cfg.alpha, cfg.n, cfg.scheme)
    f = factorize(op, dt)
    return _march(f, u, steps, dt)


def _march(
    f: Optional[HessenbergFactorization], u: GridFunction, steps: int, dt: float
) -> Iterator[tuple[float, GridFunction]]:
    yield 0.0, u
    for k in range(1, steps + 1):
        u = step(f, u)
        yield k * dt, u


def evolve(cfg: EvolutionConfig) -> Trajectory:
    """Integrate to t_final over ``iter_states``, keeping the final grid and the
    time and norms of every step."""
    times, sups, l1s = [], [], []
    for t, u in iter_states(cfg):
        times.append(t)
        sups.append(u.sup_norm())
        l1s.append(u.l1_norm())
    return Trajectory(cfg, np.array(times), u, np.array(sups), np.array(l1s))
