"""Backward-Euler time integration of u' = M_h u with structure-exploiting solvers.

(I - dt*M_h) = sigma*I - tau*T, with T the lower-Hessenberg Toeplitz stencil
matrix, is a nonsingular M-matrix (diagonal 1 + dt*|w_1|/h^alpha >= 1,
nonpositive off-diagonals, row sums >= 1). It is factored one of two ways:

- below FFT_MIN_N, an LU without pivoting: each elimination step touches only
  the single superdiagonal entry of the pivot row, O(n^2) work, and a solve is
  triangular substitution, LAPACK trtrs on L and tbtrs on U (no subtractions,
  so a solve of b >= 0 is exactly nonnegative), two bare kernel calls
  (1.8 us at n = 50). The elimination stops at its fixed point, the first
  column whose multipliers are the previous column's shifted down by one, bit
  for bit (the floating-point image of the Wiener-Hopf factor below): every
  later pivot and column repeats it and is copied. At n = 400, alpha = 1.4,
  new scheme, that is column 14 (0-based) at tau = 0.05, 50 at tau = 1, 202
  at tau = 10, and none before the last at tau = 1600;
- from FFT_MIN_N on, the Toeplitz matrix with the one root z0 of its symbol
  inside the unit disc divided out (a Wiener-Hopf factorization): a
  bidiagonal factor U and a triangular Toeplitz factor, applied as one real
  FFT pair with U^-1 folded into its spectrum and a rank-2 correction (the
  circulant's wrap and Sherman-Morrison's term), O(n) memory, set up in
  O(n^2) flops from sums of one sign (1/q >= 0 to a few eps relative). Where
  z0 lies within FOLD_MIN/fft_len of 1 the solve applies U^-1 by one tbtrs
  before the FFT pair instead, with a rank-1 correction. Its solves project
  results of b >= 0 onto v >= 0.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec
from types import ModuleType
from typing import Iterator, Optional, Union

import numpy as np

from .errors import DomainError, NumericalError
from .operators import GridFunction, OperatorMatrix, build_operator
from .reference import eigenfunction_u_c, gaussian_ic, principal_eigenvalue
from .weights import Scheme, check_alpha, check_n, reciprocal_series


# ---------------------------------------------------------------------------
# initial-condition descriptors: ic(alpha, x) is the data at the nodes x

@dataclass(frozen=True)
class GaussianIC:
    mu: float = 0.4
    sigma2: float = 0.0005

    def __call__(self, alpha: float, x: np.ndarray) -> np.ndarray:
        return gaussian_ic(x, self.mu, self.sigma2)


@dataclass(frozen=True)
class EigenfunctionIC:
    def __call__(self, alpha: float, x: np.ndarray) -> np.ndarray:
        c = principal_eigenvalue(alpha).c
        return np.array([eigenfunction_u_c(alpha, c, xi) for xi in x])


@dataclass(frozen=True)
class PowerLawIC:
    """a*x^(alpha-1) + b*x^(2alpha-1), the singular part of smooth initial data."""

    a: float = 1.0
    b: float = 0.0

    def __call__(self, alpha: float, x: np.ndarray) -> np.ndarray:
        return self.a * x ** (alpha - 1.0) + self.b * x ** (2.0 * alpha - 1.0)


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
        # the numbers as Python scalars from here on: numpy's warn where Python's overflow to inf
        object.__setattr__(self, "alpha", check_alpha(self.alpha))
        object.__setattr__(self, "scheme", Scheme(self.scheme))  # a name, or DomainError
        object.__setattr__(self, "n", check_n(self.n, 3))
        if not 0.0 <= self.t_final < math.inf:
            raise DomainError(f"t_final must be finite and >= 0, got {self.t_final}")
        if self.dt is not None and not 0.0 < self.dt < math.inf:
            raise DomainError(f"dt must be finite and > 0, got {self.dt}")
        object.__setattr__(self, "t_final", float(self.t_final))
        object.__setattr__(self, "dt", None if self.dt is None else float(self.dt))
        if self.dt is not None and self.t_final > 0.0 and self.dt > self.t_final:
            raise DomainError(f"dt={self.dt!r} must not exceed t_final={self.t_final!r}")
        if not isinstance(self.ic, InitialCondition):
            raise DomainError(f"unknown initial condition {self.ic!r}")
        dt = self.h**self.alpha if self.dt is None else self.dt
        steps = step_count(self.t_final, dt) if self.t_final > 0.0 else 0
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "step_dt", self.t_final / steps if steps else 0.0)

    @property
    def h(self) -> float:
        return 1.0 / (self.n + 1)


# ---------------------------------------------------------------------------
# factorizations of A = sigma*I - tau*T

def _load_extension(name: str):
    if name in sys.modules:
        return sys.modules[name]
    package, _, module = name.rpartition(".")
    # scipy's directory from its spec: `import scipy` would run scipy/__init__, about 15 ms
    directory = os.path.join(find_spec("scipy").submodule_search_locations[0], *package.split(".")[1:])
    spec = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
    if spec is not None:
        try:
            extension = module_from_spec(spec)
            spec.loader.exec_module(extension)
            return extension
        except ImportError:  # on Windows the DLL directories are added by scipy/__init__
            pass
        finally:
            # the extension may enter itself in sys.modules; without that entry a later
            # import of its package binds it to the package, with the same kernels
            sys.modules.pop(name, None)
    # no extension file there, or it did not load on its own: the package knows how
    return getattr(__import__(package, fromlist=[module]), module)


class _Extension(ModuleType):
    """scipy's extension module `name`, loaded the first time one of its kernels is read.

    The first read loads it from its file without importing its package: _flapack loads in 5 ms, where
    the scipy.linalg import took 0.28 s of every set-up (Python 3.11, scipy 1.17, 2 vCPUs), most of it
    numpy.f2py, numpy.testing, numpy.ma and numpy.random, and pypocketfft in 0.7 ms. Nor does it import
    the scipy package (about 15 ms), unless the file is missing or does not load on its own, as on Windows,
    where scipy/__init__ adds the DLL directories. A run that never factors loads nothing of scipy.
    """

    def __getattr__(self, kernel: str):
        # only a name not on the object comes here. The first read copies the extension's names onto it
        # and makes it a plain module: a class with __getattr__ costs 55 ns a read, a module 20 (Python 3.11)
        extension = _load_extension(self.__name__)
        vars(self).update(vars(extension))
        self.__class__ = ModuleType
        return getattr(extension, kernel)


# LAPACK's triangular solves and pocketfft's real FFT pair, called directly: at n <= 400 the per-call
# checks and copies of scipy's wrappers cost more than the flops, and np.fft's pair takes 134 us at
# 6,400 points to 103 (2 vCPUs). dtrtrs is solve_triangular's kernel; dtbtrs ends in the BLAS tbsv call
# solve_banded makes for U's band; r2c/c2r return numpy 2's np.fft.rfft/irfft bit for bit.
_flapack, _pocketfft = _Extension("scipy.linalg._flapack"), _Extension("scipy.fft._pocketfft.pypocketfft")

# Grids with n >= FFT_MIN_N solve through the ToeplitzFactorization, smaller ones through
# the dense LU. README's numerical notes time both steps from n = 200 to 750: they cross between
# 350 and 400 (between 500 and 550 on an earlier host). It keeps n <= 400, where `solve` prints
# values with repr, on dense arithmetic.
FFT_MIN_N = 600

# An FFT solve of b >= 0 with an entry below -FFT_CLIP_C*eps*log2(n)*max(b) is
# an error, not rounding; see _clip_negative. Over both schemes, alpha in
# {1.1, 1.4, 1.9, 2.0}, n in {600, 1601, 3200, 4801}, six shapes of b (uniform,
# Gaussian, step, spike, constant, x^(alpha-1)), 20 chained steps at each tau in
# {0.08, 0.3, 1, 3, 10, 1600} and resolvents at lam*h^alpha in {0, 0.3, 1, 10}
# (23,808 solves; the step is 1 on x < 1/2, the spike sits at n//3, the uniform draw
# uses seed n), the worst negative was 0.28 of eps*log2(n)*max(b) (new, alpha = 2,
# n = 4801, tau = 1600, the step): 4.0 leaves a 14x margin.
FFT_CLIP_C = 4.0

# A Toeplitz solve folds U^-1 into its spectrum where fft_len*(1 - z0) >= FOLD_MIN, z0 the root
# it divides out, and keeps its tbtrs elsewhere: the circulant's wrap is a geometric series of
# ratio z0 over fft_len terms, flat as z0 nears 1, and its correction cancels digits there.
# Against the LU forced past FFT_MIN_N, over both schemes, alpha in {1.1, 1.4, 1.9, 2.0},
# n in {600, 1601, 3200}, steps at tau in {10, 100, 1600, 1e4, 1e5, 1e6, 1e9}, resolvents at
# lam in {1e-9, 1e-6, 1e-3, 1, 10, 100, 1000} and three b (normal, uniform, Gaussian), the
# folded solve's error over the kept one's read up to 2.7e5 below fft_len*(1 - z0) = 0.01
# (grunwald, alpha = 2, n = 600, lam = 1e-9), up to 5.5 below 1 and 1.19 between 1 and 4;
# from 4 on, 504 solves, at most 1.67, on errors of 6e-16.
FOLD_MIN = 4.0


@dataclass(frozen=True)
class LUFactorization:
    """A = L U without pivoting, for n < FFT_MIN_N: all of L and U's band.

    A solve is two triangular substitutions: trtrs on L, tbtrs on U's band,
    where a zero pivot raises NumericalError.
    """

    op: OperatorMatrix  # the operator whose shift this factors
    lower: np.ndarray = field(repr=False)   # n x n unit-lower-triangular L, C order
    banded: np.ndarray = field(repr=False)  # (2, n) LAPACK band of U, F order: superdiag + pivots

    def solve(self, b: np.ndarray) -> np.ndarray:
        # trtrs solves L y = b through the F-ordered L^T (lower=0, trans=1, unitdiag=1), into a copy of b;
        # tbtrs solves U x = y in place (uplo="U", trans="N", diag="N", overwrite_b=1). The flags go
        # positionally: keyword flags and a checking helper took 0.8 of 2.6 us a solve at n = 50
        y, info = _flapack.dtrtrs(self.lower.T, b, 0, 1, 1)
        if not info:
            x, info = _flapack.dtbtrs(self.banded, y, "U", "N", "N", 1)
        if info:
            raise NumericalError(f"LAPACK solve failed with info={info}")
        return x


@dataclass(frozen=True)
class ToeplitzFactorization:
    """A^-1 b = x[:n] + s (r . x), x the first n+1 entries of T(h) U^-1 b, for n >= FFT_MIN_N.

    T(h) is lower triangular Toeplitz with first column h, U unit upper
    bidiagonal. With p(z) = sigma*z - tau*sum_{k<=n} w_k z^k (A's symbol times z):
    - sigma > 0: p = (z - z0) q for its root z0 in (0, 1), and exactly
      A = U T(q) - z0 e_{n-1} q'^T with U = I - z0 Z^T and q'_j = q_{n-j}, so
      h = 1/q, r = (q', 0) and Sherman-Morrison gives s;
    - sigma = 0, or below half an ulp of p_1, where A rounds to the sigma = 0
      matrix: A = -tau T, and T^-1 c = y - (y_n/g_n) g with g = 1/w and
      y = g*(0, c) to n+1 terms, so U = I, h = -(0, g)/tau, r = e_n, s = -g/g_n.
    A solve is one real FFT pair of fft_len = L >= 2n points, a dot and an
    axpy, with results of b >= 0 projected onto v >= 0. Where L*(1 - z0) >=
    FOLD_MIN, U^-1 is folded into the spectrum: the L-point circulant of U
    inverts to 1/(1 - z0 w^k), w = e^(2 pi i/L), and its wrap adds exactly
    y0 e to x, y0 = sum_k z0^k b_k and e_i = [sum_{m>i} h_m z0^(m-i) +
    z0^(L-i) sum_{m<=i} h_m z0^m]/(1 - z0^L), which the solve takes off as
    the second column of s, -f = -(e + s (r . e)). Elsewhere U^-1 is one
    unit-diagonal tbtrs before the FFT pair (none where U = I).
    """

    op: OperatorMatrix  # the operator whose shift this factors
    fft_len: int
    band: Optional[np.ndarray] = field(repr=False)  # (2, n) LAPACK band of U, F order, where tbtrs applies U^-1
    spectrum: np.ndarray = field(repr=False)  # rfft of h, fft_len points, over 1 - z0 w^k where U is folded in
    r: np.ndarray = field(repr=False)         # n + 1 entries
    s: np.ndarray = field(repr=False)         # n entries; where U is folded in (n, 2), F order: s, -f
    powers: Optional[np.ndarray] = field(repr=False)  # where U is folded in, z0^k until they underflow to 0

    def solve(self, b: np.ndarray) -> np.ndarray:
        size, n = self.fft_len, self.op.n
        padded = np.zeros(size)
        padded[:n] = b
        if self.band is not None:  # U^-1 b in place on the padded buffer (uplo="U", trans="N", diag="U", overwrite_b=1)
            _checked(*_flapack.dtbtrs(self.band, padded[:n], "U", "N", "U", 1))
        transform = _pocketfft.r2c(padded)
        # numpy's arithmetic here is the only part of any solve that can warn (LAPACK and pocketfft never do):
        # an overflow of it is refused with NumericalError by the caller's finite check, never warned of
        with np.errstate(over="ignore", invalid="ignore"):
            # spectrum times transform, in this order: numpy's complex product does not commute bit for bit
            np.multiply(self.spectrum, transform, out=transform)
            # c2r with inorm=2 is np.fft.irfft: it applies numpy's 1/size
            x = _pocketfft.c2r(transform, lastsize=size, forward=False, inorm=2)[: n + 1]
            if self.powers is None:
                v = self.s * (self.r @ x)
            else:  # the wrap's y0 e taken off with the correction: [s, -f] @ (r . x, y0)
                v = self.s @ (self.r @ x, self.powers @ b[: self.powers.size])
            v += x[:-1]
            return _clip_negative(v, b)


Factorization = Union[LUFactorization, ToeplitzFactorization]


def _checked(x: np.ndarray, info: int) -> np.ndarray:
    if info:
        raise NumericalError(f"LAPACK solve failed with info={info}")
    return x


def _clip_negative(v: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Project an FFT solve of b >= 0 onto v >= 0.

    A is an M-matrix, so b >= 0 gives A^-1 b >= 0 exactly; the FFTs leave
    rounding-size negatives that would otherwise build up over the steps.
    Projection cannot increase any entry's error. A negative entry beyond the
    rounding bound FFT_CLIP_C*eps*log2(n)*max(b) raises NumericalError. For b
    with negative entries v is returned as is.
    """
    low = v.min()
    if low >= 0.0 or b.min() < 0.0:
        return v
    bound = FFT_CLIP_C * np.finfo(float).eps * math.log2(v.size) * b.max()
    if low < -bound:
        raise NumericalError(f"FFT solve of b >= 0 has entry {low!r} below -{bound!r}")
    return np.maximum(v, 0.0, out=v)


def _rfft(a: np.ndarray, size: int) -> np.ndarray:
    """np.fft.rfft(a, size) for a.size <= size: r2c of a zero-padded to size."""
    padded = np.zeros(size)
    padded[: a.size] = a
    return _pocketfft.r2c(padded)


def _series_inverse(l: np.ndarray) -> np.ndarray:
    """The first len(l) power-series coefficients of 1/l(z), for l[0] = 1 >= 0 >= l[1:].

    Newton's iteration c <- c - c*(l*c - 1) doubles the number of correct
    coefficients a round. Both products are direct sums of terms of one sign
    (l[1:] <= 0 <= c), so every coefficient is >= 0 with a relative error of a
    few eps however small it is, where an FFT product errs by eps times the
    largest. O(n^2) flops in C: 21-26 ms at n = 12,800, where new_weights
    takes 210-240 ms (2 vCPUs).
    """
    c = np.ones(1)
    m = 1
    while m < l.size:
        k = min(2 * m, l.size)
        e = np.convolve(l[1:k], c, "valid")  # (l*c)[m:k]: l*c - 1 past its m zeros
        c = np.concatenate((c, -np.convolve(c[: k - m], e)[: k - m]))
        m = k
    return c


def _symbol_root(p: np.ndarray) -> tuple[float, np.ndarray]:
    """The root z0 in (0, 1) of p(z) = sum_k p_k z^k and the quotient q = p/(z - z0).

    Refuses unless p_0 < 0 < p_1 - sum_{k != 1} |p_k|, summed pairwise: then,
    by Rouche's theorem, p has exactly one root in the open unit disc and none
    on the circle, and p(0) < 0 < p(1). Newton's iteration from z = 0, bisecting
    the bracket whenever a step would leave it, evaluates p and p' by Horner's
    rule: one tbtrs with U = I - z Z^T, whose solve for p_1..p_n is the quotient.
    Its q_1.. sum terms of one sign; q_0 = -p_0/z0, since p_1 + z0 q_1 subtracts.
    """
    n = p.size - 1
    if not p[0] < 0.0 < p[1] - np.abs(np.delete(p, 1)).sum():
        raise NumericalError("the shifted stencil's symbol has no single root inside the unit disc")
    rhs = np.zeros((n, 2), order="F")
    rhs[:, 0] = p[1:]
    rhs[:-1, 1] = np.arange(2, n + 1) * p[2:]  # p'(z) = p_1 + sum_{k>=2} k p_k z^(k-1)
    band = np.ones((2, n), order="F")
    eps = np.finfo(float).eps
    lo, hi, z = 0.0, 1.0, 0.0
    for _ in range(100):
        band[0] = -z
        t = _checked(*_flapack.dtbtrs(band, rhs, diag="U"))
        value = p[0] + z * t[0, 0]
        dz = value / (p[1] + z * t[0, 1])
        lo, hi = (z, hi) if value < 0.0 else (lo, z)
        if abs(dz) <= eps * z or hi - lo <= eps * hi:
            t[0, 0] = -p[0] / z
            return z, t[:, 0]
        z = z - dz if lo < z - dz < hi else 0.5 * (lo + hi)
    raise NumericalError("the root search of the shifted stencil's symbol did not converge")


def _factor_toeplitz(op: OperatorMatrix, sigma: float, tau: float) -> ToeplitzFactorization:
    n = op.n
    # pocketfft's good_size, the smallest 2^a 3^b 5^c >= 2n: it can be 10x slower on other lengths,
    # one product at n = 3207 cost 2.2 ms at length 2n = 6414 = 2*3*1069 and 0.13 ms at 6480
    size = _pocketfft.good_size(2 * n, True)
    p = -tau * op.weights.w[: n + 1]
    if p[1] + sigma == p[1]:  # A is -tau*T to the last bit: 1/w in closed form (the root is 1 at alpha = 2)
        g = reciprocal_series(op.weights, n)
        h = -np.concatenate(([0.0], g[:-1])) / tau
        r = np.zeros(n + 1)
        r[n] = 1.0
        return ToeplitzFactorization(op, size, None, _rfft(h, size), r, -g[:-1] / g[n], None)  # U = I
    p[1] += sigma
    z0, q = _symbol_root(p)
    band = np.ones((2, n), order="F")  # U's band; the unit diagonal row is not read
    band[0] = -z0
    h = _series_inverse(q / q[0]) / q[0]
    r = np.concatenate(([0.0], q[:0:-1], [0.0]))
    # (U T(q))^-1 e_{n-1} = T(h) U^-1 e_{n-1} = u, u_i = sum_{m<=i} h_m z0^(n-1-i+m): positive terms
    k = np.arange(n)  # z0^k is 0 from k*ln(1/z0) > 745.2 on, where pow takes a slow path (0.1 us a power)
    powers = np.power(z0, k, out=np.zeros(n), where=k * -math.log(z0) < 745.2)
    u = powers[::-1] * np.cumsum(h * powers)
    s = z0 * u / (1.0 - z0 * (r[:n] @ u))
    if size * (1.0 - z0) < FOLD_MIN:
        return ToeplitzFactorization(op, size, band, _rfft(h, size), r, s, None)
    # e = [U^-1 z0 (h_1..h_{n-1}, 0) + z0^(L-n+1) u]/(1 - z0^L): sums of positive terms, no transform
    e = _checked(*_flapack.dtbtrs(band, np.append(z0 * h[1:], 0.0), diag="U"))
    e = (e + z0 ** (size - n + 1) * u) / (1.0 - z0**size)
    # 1 - z0 w^k = (1 - z0) + 2 z0 sin^2(pi k/L) - i z0 sin(2 pi k/L): no cancellation near k = 0
    phi = np.pi / size * np.arange(size // 2 + 1)
    symbol = (1.0 - z0) + 2.0 * z0 * np.sin(phi) ** 2 - 1j * z0 * np.sin(2.0 * phi)
    wrap = np.array((s, -(e + s * (r[:n] @ e)))).T  # (n, 2), F order
    powers = powers[: np.count_nonzero(powers)].copy()
    return ToeplitzFactorization(op, size, None, _rfft(h, size) / symbol, r, wrap, powers)


def _factor_shifted(op: OperatorMatrix, sigma: float, tau: float) -> Factorization:
    """Factor A = sigma*I - tau*T, T the Toeplitz stencil matrix.

    From FFT_MIN_N on into a ToeplitzFactorization, below it by one
    elimination without pivoting into an LU.
    """
    n = op.n
    if n >= FFT_MIN_N:
        return _factor_toeplitz(op, sigma, tau)
    w = op.weights.w
    sup = -tau * w[0]  # constant superdiagonal
    base = -tau * w[1 : n + 1]  # first column of A
    base[0] += sigma
    lower = np.eye(n)
    banded = np.zeros((2, n), order="F")  # U: superdiagonal, then the pivots as they are found
    banded[0, 1:] = sup
    col = base.copy()
    for j in range(n):
        piv = col[0]
        if piv <= 0.0:
            raise NumericalError(f"nonpositive pivot {piv} at column {j}")
        banded[1, j] = piv
        m = col[1:] / piv
        lower[j + 1 :, j] = m
        # the fixed point: m is the previous column's multipliers shifted down by one, bit for bit, so the
        # next column base[:n-1-j] - m*sup is col[:-1], and every later pivot and column repeats this one.
        # The first entries go first: the whole comparison costs about 2 us a column
        if 0 < j < n - 1 and m[0] == lower[j, j - 1] and (m == lower[j : n - 1, j - 1]).all():
            banded[1, j + 1 :] = piv
            for k in range(j + 1, n - 1):
                lower[k + 1 :, k] = m[: n - 1 - k]
            break
        col = base[: n - 1 - j] - m * sup
    return LUFactorization(op, lower, banded)


def factorize(op: OperatorMatrix, dt: float) -> Factorization:
    """Factor (I - dt*M_h) for the backward-Euler step.

    Refuses a shift tau = dt/h^alpha whose diagonal 1 + tau*|w_1| overflows: that diagonal bounds
    every entry of A's factors (the Schur complements of a diagonally dominant M-matrix are ones).
    """
    if not 0.0 < dt < math.inf:
        raise DomainError(f"dt must be finite and > 0, got {dt!r}")
    tau = float(dt) / op.h**op.alpha  # Python floats: an overflow here is inf, not a numpy warning
    if not tau * -float(op.weights.w[1]) < math.inf:
        raise DomainError(f"dt={dt!r} at n={op.n} overflows the diagonal 1 + tau*|w_1|, tau = dt/h^alpha = {tau!r}")
    return _factor_shifted(op, 1.0, tau)


def step(f: Factorization, u: GridFunction) -> GridFunction:
    """Solve f's A v = u, for f = factorize(op, dt) one backward-Euler step; refuses a grid not of f's operator.

    u's values are finite, so non-finite values of v are an overflow of the solve: NumericalError, and no
    numpy warning before it, also under -W error (the Toeplitz solve ignores its own; LAPACK never warns).
    """
    return GridFunction(alpha=u.alpha, n=u.n, values=_finite(f.solve(f.op.fit(u))))


def _finite(v: np.ndarray) -> np.ndarray:
    if not np.isfinite(v).all():  # a solve of finite values overflowed
        raise NumericalError(f"step: the solve of a finite grid (n={v.size}) overflowed to non-finite values")
    return v


def resolvent_apply(op: OperatorMatrix, lam: float, g: GridFunction) -> GridFunction:
    """Solve (lam*I - M_h) v = g for lam >= 0 (lam = 0: the negative inverse) by a step on its own factorization.

    An overflow of the solve is refused as in step: NumericalError alone.
    """
    if not 0.0 <= lam < math.inf:
        raise DomainError(f"resolvent parameter must be finite and >= 0, got {lam!r}")
    op.fit(g)  # a grid of another n or alpha is refused before the factorization
    return step(_factor_shifted(op, lam, 1.0 / op.h**op.alpha), g)


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
    with np.errstate(over="ignore", invalid="ignore"):  # GridFunction refuses what overflowed
        values = cfg.ic(cfg.alpha, x)
    return GridFunction(alpha=cfg.alpha, n=cfg.n, values=values)


# A solve keeps a non-finite entry non-finite (b_i enters v_i additively), so the march
# scans for one every FINITE_CHECK_STEPS steps and at its end.
FINITE_CHECK_STEPS = 32


def iter_values(cfg: EvolutionConfig, u0: Optional[np.ndarray] = None) -> Iterator[np.ndarray]:
    """The march: the backward-Euler values u_0..u_K (K = cfg.steps) as bare arrays.

    u_0 is the initial grid, or u0 if given: one grid's values sampled once for
    several marches, which the march never writes to.
    One factorization is reused throughout. Every fallible set-up (initial
    grid, operator, factorization) runs before this returns, and the values
    are then computed one at a time as they are read. An overflow raises
    NumericalError within FINITE_CHECK_STEPS solves, and no numpy warning.
    """
    u0 = initial_grid(cfg).values if u0 is None else GridFunction(alpha=cfg.alpha, n=cfg.n, values=u0).values
    f = factorize(build_operator(cfg.alpha, cfg.n, cfg.scheme), cfg.step_dt) if cfg.steps else None
    return _values(f, u0, cfg.steps)


def _values(f: Optional[Factorization], v: np.ndarray, steps: int) -> Iterator[np.ndarray]:
    yield v
    for k in range(1, steps + 1):
        v = f.solve(v)
        yield _finite(v) if k % FINITE_CHECK_STEPS == 0 or k == steps else v


def iter_states(cfg: EvolutionConfig) -> Iterator[tuple[float, GridFunction]]:
    """The march's states (t_k, u_k), k = 0..cfg.steps, with t_k = k*cfg.step_dt, each checked as it is read."""
    states = enumerate(iter_values(cfg))  # the march's set-up runs here, its solves as the states are read
    return ((k * cfg.step_dt, GridFunction(alpha=cfg.alpha, n=cfg.n, values=_finite(v))) for k, v in states)


def evolve(cfg: EvolutionConfig) -> GridFunction:
    """The grid at t_final: the march's last state. An overflow of a step raises NumericalError alone."""
    for v in iter_values(cfg):
        pass
    return GridFunction(alpha=cfg.alpha, n=cfg.n, values=v)
