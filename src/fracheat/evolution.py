"""Backward-Euler time integration of u' = M_h u with structure-exploiting solvers.

(I - dt*M_h) = sigma*I - tau*T, with T the lower-Hessenberg Toeplitz stencil
matrix, is a nonsingular M-matrix (diagonal 1 + dt*|w_1|/h^alpha >= 1,
nonpositive off-diagonals, row sums >= 1), so Gaussian elimination needs no
pivoting, and each elimination step touches only the single superdiagonal
entry of the pivot row: O(n^2) work. Two representations come out of it,
chosen by grid size alone:

- n < GS_MIN_N: a dense unit-lower-triangular factor and an upper-bidiagonal
  factor, solved by triangular substitution (no subtractions, so a solve of
  b >= 0 is exactly nonnegative);
- n >= GS_MIN_N: the Gohberg-Semencul formula for the inverse of a Toeplitz
  matrix from its first and last columns, O(n) memory and O(n log n) per
  solve by real FFTs, with results of b >= 0 projected onto v >= 0.
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
# factorizations of A = sigma*I - tau*T

# Grids with n >= GS_MIN_N solve through the Gohberg-Semencul formula, smaller
# ones through the dense factor. Median backward-Euler step, dense vs GS, over
# 15 interleaved runs at alpha = 1.4 on a 2-vCPU host: n = 400 0.120 vs 0.136
# ms (GS faster in 0 of 15), 500 0.136 vs 0.129 (10 of 15), 600 0.193 vs
# 0.159 (10 of 15), 700 0.206 vs 0.134 (15 of 15), 800 0.327 vs 0.186 ms. The
# rule also keeps n <= 400, where `solve` prints values with repr, on the
# dense arithmetic, so that output stays byte-identical.
GS_MIN_N = 600

# A GS solve of b >= 0 with an entry below -GS_CLIP_C*eps*log2(n)*max(b) is an
# error, not rounding; see _clip_negative. Over alpha in {1.1, 1.4, 1.9, 2.0},
# both schemes, tau = dt/h^alpha from 0.08 to 1600 and the resolvent at lam = 0,
# n from 600 to 4801 and ten shapes of b (20 chained steps each), and on the
# n = 3200 Figure-1 reference runs, the most negative entry reached 0.19 of
# eps*log2(n)*max(b), so 4.0 leaves a 21x margin.
GS_CLIP_C = 4.0


@dataclass(frozen=True)
class HessenbergFactorization:
    """Dense LU of A without pivoting, for n < GS_MIN_N."""

    n: int
    lower: np.ndarray = field(repr=False)   # dense unit lower triangular
    banded: np.ndarray = field(repr=False)  # (2, n) for solve_banded: pivots + superdiag

    def solve(self, b: np.ndarray) -> np.ndarray:
        y = solve_triangular(self.lower, b, lower=True, unit_diagonal=True, check_finite=False)
        return solve_banded((0, 1), self.banded, y, check_finite=False)


@dataclass(frozen=True)
class GohbergSemenculFactorization:
    """A^-1 from its first and last columns x, y, for n >= GS_MIN_N.

    A^-1 b = (1/x0) [L(x) U(yhat) b - L(Zy) U(Zxhat) b] (Gohberg & Semencul,
    1972), with L(c) / U(r) the lower / upper triangular Toeplitz matrices of
    first column c / first row r, yhat = y reversed, Zy = (0, y_0..y_{n-2})
    and Zxhat = (0, x_{n-1}..x_1). Each triangular Toeplitz product is a
    circular convolution of length fft_len >= 2n - 1, so a solve is six real
    FFTs and the factorization holds four spectra, O(n) memory.
    """

    n: int
    fft_len: int
    u_yhat: np.ndarray = field(repr=False)   # spectra of the U generators
    u_zxhat: np.ndarray = field(repr=False)
    l_x: np.ndarray = field(repr=False)      # spectra of the L generators, / x0
    l_zy: np.ndarray = field(repr=False)

    def solve(self, b: np.ndarray) -> np.ndarray:
        n, size = self.n, self.fft_len
        fb = np.fft.rfft(b, size)
        p = np.fft.irfft(self.u_yhat * fb, size)[:n]
        q = np.fft.irfft(self.u_zxhat * fb, size)[:n]
        v = np.fft.irfft(self.l_x * np.fft.rfft(p, size) - self.l_zy * np.fft.rfft(q, size), size)[:n]
        return _clip_negative(v, b)


Factorization = Union[HessenbergFactorization, GohbergSemenculFactorization]


def _clip_negative(v: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Project a GS solve of b >= 0 onto v >= 0.

    A is an M-matrix, so b >= 0 gives A^-1 b >= 0 exactly; the FFTs leave
    rounding-size negatives that would otherwise build up over the steps.
    Projection cannot increase any entry's error. A negative entry beyond the
    rounding bound GS_CLIP_C*eps*log2(n)*max(b) raises NumericalError. For b
    with negative entries v is returned as is.
    """
    low = v.min()
    if low >= 0.0 or b.min() < 0.0:
        return v
    bound = GS_CLIP_C * np.finfo(float).eps * math.log2(v.size) * b.max()
    if low < -bound:
        raise NumericalError(f"GS solve of b >= 0 has entry {low!r} below -{bound!r}")
    return np.maximum(v, 0.0, out=v)


def _fft_len(m: int) -> int:
    """The smallest 2^a 3^b 5^c >= m.

    numpy's FFT is fast on such lengths and can be 10x slower on others: one
    GS product at n = 3207 costs 2.2 ms at length 2n = 6414 = 2*3*1069 and
    0.13 ms at 6480.
    """
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < m:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def _factor_shifted(op: OperatorMatrix, sigma: float, tau: float) -> Factorization:
    """Factor A = sigma*I - tau*T, T the Toeplitz stencil matrix.

    Both paths run one elimination without pivoting. Below GS_MIN_N it keeps
    the dense multipliers; from GS_MIN_N on it keeps only the pivots and
    forward-substitutes e_0 as it goes, for the Gohberg-Semencul generators.
    """
    w = op.weights.w
    n = op.n
    dense = n < GS_MIN_N
    sup = -tau * w[0]  # constant superdiagonal
    base = np.empty(n)
    base[0] = sigma - tau * w[1]
    base[1:] = -tau * w[2 : n + 1]
    if dense:
        lower = np.zeros((n, n))
    else:
        z = np.zeros(n)  # L^-1 e_0
        z[0] = 1.0
    pivots = np.empty(n)
    col = base.copy()
    for j in range(n - 1):
        piv = col[0]
        if piv <= 0.0:
            raise NumericalError(f"nonpositive pivot {piv} at column {j}")
        pivots[j] = piv
        m = col[1:] / piv
        if dense:
            lower[j + 1 :, j] = m
        else:
            z[j + 1 :] -= m * z[j]
        col = base[: n - 1 - j] - m * sup
    if col[0] <= 0.0:
        raise NumericalError(f"nonpositive pivot {col[0]} at column {n - 1}")
    pivots[n - 1] = col[0]
    banded = np.zeros((2, n))
    banded[0, 1:] = sup
    banded[1, :] = pivots
    if dense:
        np.fill_diagonal(lower, 1.0)
        return HessenbergFactorization(n=n, lower=lower, banded=banded)
    # x = A^-1 e_0 = U^-1 z and y = A^-1 e_{n-1} = U^-1 e_{n-1}, as L^-1 e_{n-1} = e_{n-1}
    rhs = np.zeros((n, 2))
    rhs[:, 0] = z
    rhs[n - 1, 1] = 1.0
    x, y = solve_banded((0, 1), banded, rhs, check_finite=False).T
    size = _fft_len(2 * n - 1)
    upper = np.zeros((2, size))  # first rows yhat and Zxhat, wrapped for circular convolution
    upper[0, 0] = y[n - 1]
    upper[0, size - n + 1 :] = y[:-1]
    upper[1, size - n + 1 :] = x[1:]
    lower_gen = np.zeros((2, n))  # first columns x and Zy
    lower_gen[0] = x
    lower_gen[1, 1:] = y[:-1]
    u_yhat, u_zxhat = np.fft.rfft(upper, axis=1)
    l_x, l_zy = np.fft.rfft(lower_gen / x[0], size, axis=1)
    return GohbergSemenculFactorization(n, size, u_yhat, u_zxhat, l_x, l_zy)


def factorize(op: OperatorMatrix, dt: float) -> Factorization:
    """Factor (I - dt*M_h) for the backward-Euler step."""
    if dt <= 0.0:
        raise DomainError(f"dt must be > 0, got {dt}")
    return _factor_shifted(op, 1.0, dt / op.h**op.alpha)


def step(f: Factorization, u: GridFunction) -> GridFunction:
    """One backward-Euler step: solve (I - dt*M_h) v = u."""
    if u.n != f.n:
        raise DomainError(f"dimension mismatch: factorization n={f.n}, grid n={u.n}")
    return GridFunction(alpha=u.alpha, n=u.n, values=f.solve(u.values))


def resolvent_apply(op: OperatorMatrix, lam: float, g: GridFunction) -> GridFunction:
    """Solve (lam*I - M_h) v = g for lam >= 0; lam = 0 is the negative inverse."""
    if lam < 0.0:
        raise DomainError(f"resolvent parameter must be >= 0, got {lam}")
    if g.n != op.n:
        raise DomainError(f"dimension mismatch: operator n={op.n}, grid n={g.n}")
    f = _factor_shifted(op, lam, 1.0 / op.h**op.alpha)
    return GridFunction(alpha=op.alpha, n=op.n, values=f.solve(g.values))


# ---------------------------------------------------------------------------
# full trajectories

# At most this many backward-Euler steps per run; beyond it a run would not end
# in useful time (54 us a step at n = 3 makes 1e8 steps 1.5 hours), so more is
# a domain error.
MAX_STEPS = 10**8


def step_count(t_final: float, dt: float) -> int:
    """Backward-Euler steps to reach t_final > 0: ceil(t_final/dt), at least 1.

    Callers shrink the step to t_final/step_count so it lands on t_final.
    More than MAX_STEPS steps is a DomainError.
    """
    ratio = t_final / dt if dt > 0.0 else math.inf
    if not ratio < math.inf:
        raise DomainError(f"step count t_final/dt = {t_final!r}/{dt!r} is not finite")
    steps = max(1, math.ceil(ratio - 1e-12))
    if steps > MAX_STEPS:
        raise DomainError(f"step count t_final/dt = {t_final!r}/{dt!r} exceeds {MAX_STEPS} steps")
    return steps


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
    f: Optional[Factorization], u: GridFunction, steps: int, dt: float
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
