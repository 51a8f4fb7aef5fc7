"""Grid-refinement studies, each of both schemes: eigen decay, operator consistency
and the Figure-1 style comparison.

An error report is plain rows (scheme, alpha, n, h, dt, error, observed_order)
and a ``meta`` dict, whose ``meta["norm"]`` names the error quantity; the CLI
writes both as CSV or JSON, in these field names and this order. A study's rows
are one refinement chain per scheme, the new scheme's first. Observed orders on
a row are the log-ratio against the previous row of the same chain;
``observed_order`` computes the least-squares slope over a whole chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError
from .evolution import EigenfunctionIC, EvolutionConfig, GaussianIC, evolve, initial_grid, iter_values
from .interp import from_grid
from .operators import GridFunction, apply, build_operator
from .reference import principal_eigenvalue
from .specfun import gamma
from .weights import MAX_N, Scheme, check_alpha, check_n

TINY = np.finfo(float).tiny  # below it a grid or factor has lost its precision to underflow
# Largest eigen-chain error/decay still read as spatial. At alpha 1.5, n 8,16 it reads 0.081/0.031
# (new) and 0.038/0.026 (Grunwald) at t_final 1, 2.10/0.44 and 0.69/0.26 at 10, and 2.2e11 at 150
# (order 25.6); other tier-1 chains reach 0.035 (Grunwald, alpha 1.2, n 50, t_final 0.05).
MAX_ERROR_OVER_DECAY = 0.5
# Smallest consistency error over its rounding floor still read as truncation. On n = 50..400
# the n = 400 row reads 3,628 at alpha 1.5, 10.7 at 1.8, 2.4 at 1.9, 0.9 at 1.95 and 0.25 at
# 1.99, and alpha 2 (exact on x^3) reads 0.15-0.46 on every row; tested chains reach 194.
MIN_ERROR_OVER_FLOOR = 10.0


@dataclass(frozen=True)
class ErrorRow:
    scheme: str
    alpha: float
    n: int
    h: float
    dt: float
    error: float
    observed_order: Optional[float] = None


@dataclass
class ErrorReport:
    rows: list[ErrorRow] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def chain(self, scheme: Scheme | str) -> list[tuple[float, float]]:
        """(h, error) of the scheme's rows."""
        return [(r.h, r.error) for r in self.rows if r.scheme == scheme]

    def overall_order(self, scheme: Scheme | str) -> float:
        return observed_order(self.chain(scheme))


def error_norms(u: GridFunction, ref: GridFunction) -> dict[str, float]:
    """Sup and L1 error of u against a finer-grid reference.

    The reference is read through its power interpolant, which is the
    reference's own value at every node the two grids share.
    """
    if ref.n < u.n:
        raise DomainError("reference grid must be at least as fine")
    if ref.alpha != u.alpha:
        raise DomainError(f"alpha mismatch: grid alpha={u.alpha!r}, reference alpha={ref.alpha!r}")
    diff = np.abs(u.values - from_grid(ref.values, ref.alpha)(u.x))
    return {"sup": float(diff.max()), "L1": float(u.h * diff.sum())}


def observed_order(chain: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of log(error) vs log(h) over a refinement chain."""
    h = np.array([c[0] for c in chain], dtype=float)
    e = np.array([c[1] for c in chain], dtype=float)
    if not (np.isfinite(h).all() and np.isfinite(e).all()):
        raise DomainError("observed order undefined for non-finite h or errors")
    if np.unique(h).size < 2:
        raise DomainError("observed_order needs at least 2 rows of distinct h")
    if np.any(h <= 0.0) or np.any(e <= 0.0):
        raise DomainError("observed order undefined for nonpositive h or errors")
    return float(np.polyfit(np.log(h), np.log(e), 1)[0])


def _grid_sizes(n_list: Sequence[int]) -> list[int]:
    """n_list sorted ascending; the sizes must be distinct integers in [3, MAX_N] before h is formed."""
    sizes = sorted(check_n(n, 3) for n in n_list)
    if not sizes or len(set(sizes)) < len(sizes):
        raise DomainError(f"n_list needs one or more distinct sizes, got {list(n_list)}")
    return sizes


def _chain(
    base: EvolutionConfig, sizes: Sequence[int], error: Callable[[EvolutionConfig], float]
) -> list[ErrorRow]:
    """Rows of one refinement chain per scheme, the new scheme's first. error(cfg) is the error of
    the grid cfg = replace(base, scheme=scheme, n=n); its row takes cfg's scheme, alpha, h and dt."""
    rows: list[ErrorRow] = []
    for scheme in Scheme:
        for k, n in enumerate(sizes):
            cfg = replace(base, scheme=scheme, n=n)
            err = error(cfg)
            order = None
            if k and not (rows[-1].error <= 0.0 or err <= 0.0):
                order = math.log(rows[-1].error / err) / math.log(rows[-1].h / cfg.h)
            rows.append(ErrorRow(scheme.value, cfg.alpha, n, cfg.h, cfg.step_dt, err, order))
    return rows


def eigen_decay_study(alpha: float, n_list: Sequence[int], t_final: float) -> ErrorReport:
    """Evolve the eigenfunction u_c on both schemes against its backward-Euler image (1 - c*dt)^(-K) u_c.

    The error is purely spatial; all grids share one schedule, the coarsest h^alpha snapped to t_final.
    """
    sizes = _grid_sizes(n_list)
    coarsest = EvolutionConfig(alpha=alpha, n=sizes[0], t_final=t_final, ic=EigenfunctionIC())
    pair = principal_eigenvalue(alpha)
    h_alpha = coarsest.h**alpha
    if t_final <= h_alpha:
        raise DomainError(f"t_final={t_final!r} must exceed the coarsest h^alpha={h_alpha!r}")
    base = replace(coarsest, dt=h_alpha)
    decay = (1.0 - pair.c * base.step_dt) ** -base.steps
    if decay < TINY:  # every error would read as an underflowed 0.0
        raise DomainError(f"t_final={t_final!r} decays u_c by {decay!r}, below the smallest normal float")

    samples: dict[int, np.ndarray] = {}  # u_c on each grid, sampled by the first chain for both

    def error(cfg: EvolutionConfig) -> float:
        if cfg.n not in samples:
            samples[cfg.n] = initial_grid(cfg).values
        values = iter_values(cfg, samples[cfg.n])
        u0 = next(values)
        for final in values:
            pass
        err = float(np.abs(final - decay * u0).max())
        if err > MAX_ERROR_OVER_DECAY * decay:
            raise DomainError(
                f"the {cfg.scheme.value} scheme at t_final={t_final!r} reads error/decay {err / decay!r}"
                f" > {MAX_ERROR_OVER_DECAY} at n = {cfg.n}"
            )
        return err

    return ErrorReport(
        _chain(base, sizes, error),
        meta={
            "study": "eigen_decay",
            "alpha": alpha,
            "t_final": t_final,
            "dt": base.step_dt,
            "c": pair.c,
            "norm": "sup",
        },
    )


def figure1_comparison(
    sigma2: float,
    mu: float,
    alpha: float,
    t_final: float,
    n_list: Sequence[int],
    n_reference: Optional[int] = None,
) -> ErrorReport:
    """Both schemes against a fine-grid new-scheme self-reference, Gaussian data.

    The reference grid defaults to the nested 8*(max n + 1) - 1, which holds every node of
    the finest grid; an explicit n_reference must be at least 8 * max n. Every run, the
    reference included, takes one schedule: the target step h_min^(alpha+0.5) of the finest
    entry in n_list, or t_final if that is smaller, snapped to land on t_final, so that the
    backward-Euler error cancels to leading order in the comparison. The reference is read
    through its power interpolant, which is exact at every node it shares with a coarse grid.
    Errors are relative sup norm (divided by the reference sup norm).
    """
    n_list = _grid_sizes(n_list)
    if n_reference is None:
        n_reference = 8 * (n_list[-1] + 1) - 1
        if n_reference > MAX_N:
            raise DomainError(
                f"n_list entry {n_list[-1]} needs the nested reference 8*(max n + 1) - 1 = {n_reference}, above {MAX_N}"
            )
    elif n_reference < 8 * n_list[-1]:
        raise DomainError("n_reference must be at least 8 * max(n_list)")
    alpha = check_alpha(alpha)  # before h_min^(alpha+0.5) can overflow
    if t_final == 0.0:
        raise DomainError("t_final must be > 0 for a comparison, got 0.0")
    base = EvolutionConfig(
        alpha=alpha, n=n_reference, t_final=t_final, ic=GaussianIC(mu=mu, sigma2=sigma2),
        dt=min((1.0 / (n_list[-1] + 1)) ** (alpha + 0.5), t_final),
    )
    for n in (*n_list, n_reference):  # a grid that sees no data measures nothing
        if initial_grid(replace(base, n=n)).sup_norm() < TINY:
            raise DomainError(
                f"Gaussian mu={mu!r}, sigma2={sigma2!r} is zero or subnormal on every node at n = {n}"
            )
    for k, values in enumerate(iter_values(base)):  # refused at the first underflow: ||(I - dt*M_h)^-1||_inf <= 1
        ref_sup = float(values.max())  # the march keeps Gaussian data >= 0
        if ref_sup < TINY:
            raise DomainError(
                f"t_final={t_final!r} decays the reference below the smallest normal float"
                f" by t = {k * base.step_dt!r} (sup norm {ref_sup!r})"
            )
    ref = GridFunction(alpha=alpha, n=n_reference, values=values)

    def rel_error(cfg: EvolutionConfig) -> float:
        return error_norms(evolve(cfg), ref)["sup"] / ref_sup

    return ErrorReport(
        _chain(base, n_list, rel_error),
        meta={
            "study": "figure1_comparison",
            "alpha": alpha,
            "mu": mu,
            "sigma2": sigma2,
            "t_final": t_final,
            "n_reference": n_reference,
            "dt": base.step_dt,
            "norm": "relative sup",
        },
    )


def operator_consistency_study(alpha: float, n_list: Sequence[int]) -> ErrorReport:
    """Pointwise consistency of both schemes on f = x^(2alpha-1) near x = 0.5.

    The fractional derivative of x^(2alpha-1) is Gamma(2alpha)/Gamma(alpha)
    * x^(alpha-1); the error is measured at the interior node nearest 0.5. A grid whose
    error is within MIN_ERROR_OVER_FLOOR times that entry's rounding floor is refused.
    """
    sizes = _grid_sizes(n_list)
    base = EvolutionConfig(alpha=alpha, n=sizes[0], t_final=0.0)  # stationary: dt = 0.0
    factor = gamma(2.0 * alpha) / gamma(alpha)

    def error(cfg: EvolutionConfig) -> float:
        n = cfg.n
        op = build_operator(alpha, n, cfg.scheme)
        x = np.arange(1, n + 1) * cfg.h
        u = GridFunction(alpha=alpha, n=n, values=x ** (2.0 * alpha - 1.0))
        v = apply(op, u).values
        i = int(np.argmin(np.abs(x - 0.5)))
        err = float(abs(v[i] - factor * x[i] ** (alpha - 1.0)))
        # rounding floor of v[i]: eps times its stencil sum in absolute values (u > 0)
        w, uv = np.abs(op.weights.w), u.values
        floor = float(np.finfo(float).eps * (w[0] * uv[i + 1] + w[1 : i + 2] @ uv[i::-1])) / cfg.h**alpha
        if err < MIN_ERROR_OVER_FLOOR * floor:
            raise DomainError(
                f"the {cfg.scheme.value} scheme at alpha={alpha!r} reads error {err!r} at n = {n},"
                f" within {MIN_ERROR_OVER_FLOOR} times its rounding floor {floor!r}"
            )
        return err

    return ErrorReport(
        _chain(base, sizes, error),
        meta={"study": "operator_consistency", "alpha": alpha, "norm": "pointwise@0.5"},
    )
