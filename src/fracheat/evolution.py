"""Backward-Euler time integration of u' = M_h u with structure-exploiting solvers.

(I - dt*M_h) = sigma*I - tau*T, with T the lower-Hessenberg Toeplitz stencil
matrix, is a nonsingular M-matrix (diagonal 1 + dt*|w_1|/h^alpha >= 1,
nonpositive off-diagonals, row sums >= 1), so Gaussian elimination needs no
pivoting, and each elimination step touches only the single superdiagonal
entry of the pivot row: O(n^2) work. Two representations come out of it:

- an LU factorization: a unit-lower-triangular head of L, an upper-bidiagonal
  U and, from GS_MIN_N on when the elimination's multipliers converge by
  column TAIL_MAX_J (tau up to about 3-10, depending on alpha), the Toeplitz
  tail of L. Below GS_MIN_N the head is all of L, and a solve is triangular
  substitution, LAPACK trtrs on L and tbtrs on U (no subtractions, so a solve
  of b >= 0 is exactly nonnegative); with a tail it is O(n) memory and one
  real FFT pair;
- otherwise: the Gohberg-Semencul formula for the inverse of a Toeplitz
  matrix from its first and last columns, O(n) memory and six real FFTs per
  solve.

The FFT solves project results of b >= 0 onto v >= 0.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec
from typing import Iterator, Optional, Union

import numpy as np
import scipy

from .errors import DomainError, NumericalError
from .operators import GridFunction, OperatorMatrix, build_operator
from .reference import eigenfunction_u_c, gaussian_ic, principal_eigenvalue
from .weights import MAX_N, Scheme, check_alpha


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


InitialCondition = Union[GaussianIC, EigenfunctionIC, PowerLawIC]


@dataclass(frozen=True)
class EvolutionConfig:
    """One run. Building it derives the schedule, never passed in: ``steps`` =
    K = step_count(t_final, dt) steps of ``step_dt`` = t_final/K (0 and 0.0 at
    t_final = 0) for the target step dt, the same for every n.
    """

    alpha: float
    n: int
    t_final: float
    scheme: Scheme = Scheme.NEW
    dt: Optional[float] = None  # target step, default h^alpha
    ic: InitialCondition = GaussianIC()
    steps: int = field(init=False)
    step_dt: float = field(init=False)

    def __post_init__(self):
        check_alpha(self.alpha)
        if not 3 <= self.n <= MAX_N:
            raise DomainError(f"n must be in [3, {MAX_N}], got {self.n}")
        if not 0.0 <= self.t_final < math.inf:
            raise DomainError(f"t_final must be finite and >= 0, got {self.t_final}")
        if self.dt is not None and not 0.0 < self.dt < math.inf:
            raise DomainError(f"dt must be finite and > 0, got {self.dt}")
        if self.dt is not None and self.t_final > 0.0 and self.dt > self.t_final:
            raise DomainError(f"dt={self.dt!r} must not exceed t_final={self.t_final!r}")
        dt = self.h**self.alpha if self.dt is None else self.dt
        steps = step_count(self.t_final, dt) if self.t_final > 0.0 else 0
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "step_dt", self.t_final / steps if steps else 0.0)

    @property
    def h(self) -> float:
        return 1.0 / (self.n + 1)


# ---------------------------------------------------------------------------
# factorizations of A = sigma*I - tau*T

def _load_flapack():
    # scipy's LAPACK extension loads alone in 5 ms, where importing the
    # scipy.linalg package took 0.28 s of every process's set-up (Python 3.11,
    # scipy 1.17, 2 vCPUs), most of it numpy.f2py, numpy.testing, numpy.ma and
    # numpy.random. `import scipy` is cheap and runs its DLL set-up on Windows.
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    loaders = (ExtensionFileLoader, EXTENSION_SUFFIXES)
    spec = FileFinder(os.path.join(scipy.__path__[0], "linalg"), loaders).find_spec(name)
    if spec is None:  # no extension file there: the package knows where it is
        from scipy.linalg import _flapack
        return _flapack
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    # the extension enters itself in sys.modules; without that entry a later
    # `import scipy.linalg` binds it to its package, with the same kernels
    sys.modules.pop(name, None)
    return module


# LAPACK's triangular solves, called directly: at n <= 400 the per-call checks and
# copies of scipy's wrappers cost more than the flops. trtrs is solve_triangular's
# kernel; tbtrs ends in the BLAS tbsv call solve_banded makes for U's band.
_flapack = _load_flapack()
_trtrs, _tbtrs = _flapack.dtrtrs, _flapack.dtbtrs

# Grids with n >= GS_MIN_N solve through the Toeplitz tail or Gohberg-Semencul,
# smaller ones through the dense factor. Median backward-Euler step in us,
# dense / tail / GS, over 15 interleaved runs at alpha = 1.4 on a 2-vCPU host;
# at tau = 1 the tail's head is J = 34 columns, at tau = 10 J = 136 (past
# TAIL_MAX_J, so such grids take GS; the tail was built for the timing):
#   n      400         600         650         700          750          800
#   tau=1  31/72/93    71/83/118   90/94/132   115/100/141  127/91/135   161/99/137
#   tau=10 27/75/91    65/94/116   81/98/128   113/113/133  136/117/138  159/126/142
# The tail beats GS at every size, and dense in 13-15 of 15 runs at n = 750 at
# both tau over nine repeats; at n = 700 it won 12-15 at tau = 1 but 4-15 at
# tau = 10 over fourteen, and at n = 650 at most 13. The crossover is near 750, but
# moving the rule changes `solve` output at the sizes it moves past; it keeps
# n <= 400, where `solve` prints values with repr, on the dense arithmetic.
GS_MIN_N = 600

# An FFT solve (tail or GS) of b >= 0 with an entry below
# -GS_CLIP_C*eps*log2(n)*max(b) is an error, not rounding; see _clip_negative.
# Over alpha in {1.1, 1.4, 1.9, 2.0}, both schemes, n from 600 to 4801 and ten
# shapes of b (20 chained steps each): GS at tau = dt/h^alpha from 0.08 to 1600
# and the resolvent at lam = 0, plus the n = 3200 Figure-1 reference runs,
# reached 0.19 of eps*log2(n)*max(b); a second sweep whose shapes include a
# step function reached 0.43 for GS (n = 1601, alpha = 1.1, tau = 0.08) and
# 0.28 for the tail (n = 600, alpha = 1.9, tau = 0.08), over every tau in
# {0.08, 0.3, 1, 3, 10} and resolvent lam*h^alpha in {0.3, 1, 10} that picks
# it. 4.0 leaves a 9x margin for GS and 14x for the tail.
GS_CLIP_C = 4.0

# From GS_MIN_N on, a factorization whose multipliers converge by column
# TAIL_MAX_J solves through the Toeplitz tail of its LU, any other through
# Gohberg-Semencul. Convergence comes at J = 7-42 for tau <= 1 and alpha in
# [1.05, 2], J = 55 (alpha = 2) to 241 (alpha = 1.05) at tau = 10, and never
# at tau = 1600. A tail step costs n*J for its convolution: at alpha = 1.4,
# tau = 0.5 the median step at J = 20 / 128 / 200 / 300 read 48 / 51 / 60 / 73
# us at n = 600 (GS 63) and 257 / 265 / 306 / 422 us at n = 3200 (GS 353): the
# crossover near J = 250 leaves a 2x margin at 128.
TAIL_MAX_J = 128


@dataclass(frozen=True)
class LUFactorization:
    """A = L U without pivoting: the head of L, U's band and, if any, L's Toeplitz tail.

    Below GS_MIN_N the head is all of L and a solve is two triangular
    substitutions: trtrs on L, tbtrs on U's band, where a zero pivot raises
    NumericalError. From GS_MIN_N on, eliminating column j turns the next
    column into base - sup*m_j, so the multipliers m_j converge, at rate
    |sup/pivot|, to a fixed point l; from column J on L is the lower triangular
    Toeplitz matrix T(l) to rounding and U's pivot is constant. The head is
    then J x J, and a solve also forms the Toeplitz block A21 w by a direct
    convolution with A's first column and applies T(l)^-1 = T(1/l) as one real
    FFT pair, with results of b >= 0 projected onto v >= 0. O(n) memory.
    """

    n: int
    lower: np.ndarray = field(repr=False)   # head x head of L, C order
    banded: np.ndarray = field(repr=False)  # (2, n) LAPACK band of U, F order: superdiag + pivots
    fft_len: int = 0                        # the tail's three fields, set when head < n
    base: Optional[np.ndarray] = field(default=None, repr=False)   # first column of A
    inv_l: Optional[np.ndarray] = field(default=None, repr=False)  # spectrum of 1/l

    def solve(self, b: np.ndarray) -> np.ndarray:
        n, head = self.n, len(self.lower)
        # trtrs solves L y = b through the F-ordered L^T, into a copy of b
        y = _checked(*_trtrs(self.lower.T, b[:head], lower=0, trans=1, unitdiag=1))
        if head < n:
            size = self.fft_len
            w = _checked(*_tbtrs(self.banded[:, :head], y))
            r = b[head:] - np.convolve(self.base, w)[head:n]  # b2 - A21 A11^-1 b1
            y2 = np.fft.irfft(self.inv_l * np.fft.rfft(r, size), size)[: n - head]  # T(1/l) r
            y = np.concatenate((y, y2))  # L^-1 b
        v = _checked(*_tbtrs(self.banded, y, overwrite_b=1))
        return v if head == n else _clip_negative(v, b)


@dataclass(frozen=True)
class GohbergSemenculFactorization:
    """A^-1 from its first and last columns x, y, for n >= GS_MIN_N past TAIL_MAX_J.

    A^-1 b = (1/x0) [L(x) U(yhat) b - L(Zy) U(Zxhat) b] (Gohberg & Semencul,
    1972), with L(c) / U(r) the lower / upper triangular Toeplitz matrices of
    first column c / first row r, yhat = y reversed, Zy = (0, y_0..y_{n-2})
    and Zxhat = (0, x_{n-1}..x_1). Each triangular Toeplitz product is a
    circular convolution of length fft_len >= 2n - 1, so a solve is six real
    FFTs in four numpy calls, two of them batched over a stacked pair of
    spectra, O(n) memory.
    """

    n: int
    fft_len: int
    u: np.ndarray = field(repr=False)  # spectra of the U generators yhat, Zxhat
    l: np.ndarray = field(repr=False)  # spectra of the L generators x, -Zy, / x0

    def solve(self, b: np.ndarray) -> np.ndarray:
        n, size = self.n, self.fft_len
        pq = np.fft.irfft(self.u * np.fft.rfft(b, size), size, axis=1)[:, :n]
        v = np.fft.irfft((self.l * np.fft.rfft(pq, size, axis=1)).sum(0), size)[:n]
        return _clip_negative(v, b)


Factorization = Union[LUFactorization, GohbergSemenculFactorization]


def _checked(x: np.ndarray, info: int) -> np.ndarray:
    if info:
        raise NumericalError(f"LAPACK solve failed with info={info}")
    return x


def _clip_negative(v: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Project an FFT solve (tail or GS) of b >= 0 onto v >= 0.

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
        raise NumericalError(f"FFT solve of b >= 0 has entry {low!r} below -{bound!r}")
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


def _series_inverse(l: np.ndarray) -> np.ndarray:
    """The first len(l) power-series coefficients of 1/l(z), l[0] = 1.

    Newton's iteration c <- c - c*(l*c - 1) doubles the number of correct
    coefficients a round, each product a real FFT pair: O(n log n), where the
    coefficient recurrence is O(n^2) (1.5 vs 12 ms at n = 3200).
    """
    c = np.ones(1)
    m = 1
    while m < l.size:
        k = min(2 * m, l.size)
        size = _fft_len(k + m - 1)
        fc = np.fft.rfft(c, size)
        e = np.fft.irfft(np.fft.rfft(l[:k], size) * fc, size)[m:k]  # l*c - 1, past the m zeros
        c = np.concatenate((c, -np.fft.irfft(fc * np.fft.rfft(e, size), size)[: k - m]))
        m = k
    return c


def _factor_shifted(op: OperatorMatrix, sigma: float, tau: float) -> Factorization:
    """Factor A = sigma*I - tau*T, T the Toeplitz stencil matrix.

    One elimination without pivoting serves both representations. Below
    GS_MIN_N it keeps all of L, an LU without a tail. From GS_MIN_N on it keeps
    the first TAIL_MAX_J columns and stops at the first column J <= TAIL_MAX_J
    whose multipliers equal the previous column's to eps, for an LU whose L
    ends in a Toeplitz tail; past TAIL_MAX_J it keeps only the pivots and
    forward-substitutes e_0 as it goes, for the Gohberg-Semencul generators.
    """
    w = op.weights.w
    n = op.n
    dense = n < GS_MIN_N
    sup = -tau * w[0]  # constant superdiagonal
    base = np.empty(n)
    base[0] = sigma - tau * w[1]
    base[1:] = -tau * w[2 : n + 1]
    rows = n if dense else TAIL_MAX_J  # leading rows and columns of L kept
    lower = np.eye(rows)
    if not dense:
        z = np.zeros(n)  # L^-1 e_0
        z[0] = 1.0
    eps = np.finfo(float).eps
    head = n if dense else 0  # columns of L before its Toeplitz tail; 0: GS
    pivots = np.empty(n)
    col = base.copy()
    m = None
    for j in range(n):
        piv = col[0]
        if piv <= 0.0:
            raise NumericalError(f"nonpositive pivot {piv} at column {j}")
        pivots[j] = piv
        m, last = col[1:] / piv, m
        may_stop = not dense and 0 < j <= TAIL_MAX_J
        if may_stop and np.abs(m - last[:-1]).max() <= eps * np.abs(m).max():
            head = j  # from column j on, L's columns repeat (1, m) and U's pivot piv
            pivots[j + 1 :] = piv
            break
        if j < rows:
            lower[j + 1 :, j] = m[: rows - j - 1]
        if not dense:
            z[j + 1 :] -= m * z[j]
        col = base[: n - 1 - j] - m * sup
    banded = np.zeros((2, n), order="F")
    banded[0, 1:] = sup
    banded[1, :] = pivots
    if head:
        lower = np.ascontiguousarray(lower[:head, :head])
        tail = ()
        if head < n:  # from column head on, L is T(l), l = (1, m)
            size = _fft_len(2 * (n - head) - 1)
            tail = size, base, np.fft.rfft(_series_inverse(np.concatenate(([1.0], m))), size)
        return LUFactorization(n, lower, banded, *tail)
    # x = A^-1 e_0 = U^-1 z and y = A^-1 e_{n-1} = U^-1 e_{n-1}, as L^-1 e_{n-1} = e_{n-1}
    rhs = np.zeros((n, 2), order="F")
    rhs[:, 0] = z
    rhs[n - 1, 1] = 1.0
    x, y = _checked(*_tbtrs(banded, rhs, overwrite_b=1)).T
    size = _fft_len(2 * n - 1)
    upper = np.zeros((2, size))  # first rows yhat and Zxhat, wrapped for circular convolution
    upper[0, 0] = y[n - 1]
    upper[0, size - n + 1 :] = y[:-1]
    upper[1, size - n + 1 :] = x[1:]
    lower_gen = np.zeros((2, n))  # first columns x and -Zy
    lower_gen[0] = x
    lower_gen[1, 1:] = -y[:-1]
    spectra = np.fft.rfft(upper, axis=1), np.fft.rfft(lower_gen / x[0], size, axis=1)
    return GohbergSemenculFactorization(n, size, *spectra)


def factorize(op: OperatorMatrix, dt: float) -> Factorization:
    """Factor (I - dt*M_h) for the backward-Euler step."""
    if not 0.0 < dt < math.inf:
        raise DomainError(f"dt must be finite and > 0, got {dt!r}")
    return _factor_shifted(op, 1.0, dt / op.h**op.alpha)


def step(f: Factorization, u: GridFunction) -> GridFunction:
    """One backward-Euler step: solve (I - dt*M_h) v = u."""
    if u.n != f.n:
        raise DomainError(f"dimension mismatch: factorization n={f.n}, grid n={u.n}")
    return GridFunction(alpha=u.alpha, n=u.n, values=f.solve(u.values))


def resolvent_apply(op: OperatorMatrix, lam: float, g: GridFunction) -> GridFunction:
    """Solve (lam*I - M_h) v = g for lam >= 0; lam = 0 is the negative inverse."""
    if not 0.0 <= lam < math.inf:
        raise DomainError(f"resolvent parameter must be finite and >= 0, got {lam!r}")
    if g.n != op.n:
        raise DomainError(f"dimension mismatch: operator n={op.n}, grid n={g.n}")
    f = _factor_shifted(op, lam, 1.0 / op.h**op.alpha)
    return GridFunction(alpha=op.alpha, n=op.n, values=f.solve(g.values))


# ---------------------------------------------------------------------------
# time marching

# At most this many backward-Euler steps per run; beyond it a run would not end
# in useful time (1e8 steps take 11 minutes at n = 3, 6.6 us a step, and 45 at
# n = 400), so more is a domain error.
MAX_STEPS = 10**8


def step_count(t_final: float, dt: float) -> int:
    """Backward-Euler steps to reach t_final > 0: ceil(t_final/dt), at least 1.

    A ratio within rounding above an integer K counts as K: the tolerance grows
    with the ratio, so step_count(t_final, t_final/K) == K for every K. More
    than MAX_STEPS steps is a DomainError.
    """
    ratio = t_final / dt if dt > 0.0 else math.inf
    if not ratio < math.inf:
        raise DomainError(f"step count t_final/dt = {t_final!r}/{dt!r} is not finite")
    steps = max(1, math.ceil(ratio - max(1e-12, 4.0 * np.finfo(float).eps * ratio)))
    if steps > MAX_STEPS:
        raise DomainError(f"step count t_final/dt = {t_final!r}/{dt!r} exceeds {MAX_STEPS} steps")
    return steps


def initial_grid(cfg: EvolutionConfig) -> GridFunction:
    """Sample the configured initial condition at the interior nodes."""
    x = np.arange(1, cfg.n + 1) * cfg.h
    ic = cfg.ic
    if isinstance(ic, GaussianIC):
        vals = gaussian_ic(x, ic.mu, ic.sigma2)
    elif isinstance(ic, EigenfunctionIC):
        pair = principal_eigenvalue(cfg.alpha)
        vals = np.array([eigenfunction_u_c(cfg.alpha, pair.c, xi) for xi in x])
    elif isinstance(ic, PowerLawIC):
        vals = ic.a * x ** (cfg.alpha - 1.0) + ic.b * x ** (2.0 * cfg.alpha - 1.0)
    else:
        raise DomainError(f"unknown initial condition {ic!r}")
    return GridFunction(alpha=cfg.alpha, n=cfg.n, values=vals)


def iter_states(cfg: EvolutionConfig) -> Iterator[tuple[float, GridFunction]]:
    """The backward-Euler states (t_k, u_k), k = 0..cfg.steps, with t_k = k*cfg.step_dt.

    One factorization is reused throughout. Every fallible set-up (initial
    grid, operator, factorization) runs before this returns, and the states
    are then computed one at a time as they are read.
    """
    u = initial_grid(cfg)
    f = factorize(build_operator(cfg.alpha, cfg.n, cfg.scheme), cfg.step_dt) if cfg.steps else None
    return _march(f, u, cfg)


def _march(
    f: Optional[Factorization], u: GridFunction, cfg: EvolutionConfig
) -> Iterator[tuple[float, GridFunction]]:
    yield 0.0, u
    for k in range(1, cfg.steps + 1):
        u = step(f, u)
        yield k * cfg.step_dt, u


def evolve(cfg: EvolutionConfig) -> GridFunction:
    """The grid at t_final: the last state of ``iter_states``."""
    for _, u in iter_states(cfg):
        pass
    return u
