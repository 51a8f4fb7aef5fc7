"""Grid-refinement convergence studies and the Figure-1 style scheme comparison.

Error reports are plain rows (scheme, alpha, n, h, dt, error, observed_order)
emitted as CSV or JSON; the report's ``meta["norm"]`` names the error quantity.
Observed orders on a row are the log-ratio against the previous row of the
same chain; ``observed_order`` computes the least-squares slope over a whole
chain.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError
from .evolution import EigenfunctionIC, EvolutionConfig, GaussianIC, evolve, initial_grid, iter_states
from .interp import from_grid
from .operators import GridFunction, apply, build_operator
from .reference import principal_eigenvalue
from .specfun import gamma
from .weights import MAX_N, Scheme, check_alpha

CSV_HEADER = "scheme,alpha,n,h,dt,error,observed_order"
TINY = np.finfo(float).tiny  # below it a grid or factor has lost its precision to underflow
# Largest eigen-chain error/decay still read as spatial. At alpha 1.5, n 8,16 it reads 0.081/0.031
# at t_final 1, 2.10/0.44 at 10 and 2.2e11 at 150 (order 25.6); tier-1 chains reach 0.035.
MAX_ERROR_OVER_DECAY = 0.5


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

    def to_csv(self) -> str:
        lines = [f"# {json.dumps(self.meta, sort_keys=True)}", CSV_HEADER]
        for r in self.rows:
            oo = "" if r.observed_order is None else repr(r.observed_order)
            lines.append(
                f"{r.scheme},{r.alpha!r},{r.n},{r.h!r},{r.dt!r},{r.error!r},{oo}"
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {"meta": self.meta, "rows": [asdict(r) for r in self.rows]},
            sort_keys=True,
            indent=2,
        )


def error_norms(u: GridFunction, ref: GridFunction) -> dict[str, float]:
    """Sup and L1 error of u against a finer-grid reference.

    The reference is read at the coarse nodes directly when the node sets
    nest, and through its power interpolant otherwise.
    """
    if ref.n < u.n:
        raise DomainError("reference grid must be at least as fine")
    if (ref.n + 1) % (u.n + 1) == 0:
        stride = (ref.n + 1) // (u.n + 1)
        rv = ref.values[stride - 1 :: stride][: u.n]
    else:
        rv = from_grid(ref.values, ref.alpha)(u.x)
    diff = np.abs(u.values - rv)
    return {"sup": float(diff.max()), "L1": float(u.h * diff.sum())}


def observed_order(chain: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of log(error) vs log(h) over a refinement chain."""
    if len(chain) < 2:
        raise DomainError("observed_order needs at least 2 rows")
    h = np.array([c[0] for c in chain])
    e = np.array([c[1] for c in chain])
    if np.any(e <= 0.0):
        raise DomainError("observed order undefined for nonpositive errors")
    return float(np.polyfit(np.log(h), np.log(e), 1)[0])


def _grid_sizes(n_list: Sequence[int]) -> list[int]:
    """n_list sorted ascending; the sizes must be distinct and in [3, MAX_N] before h is formed."""
    sizes = sorted(n_list)
    if not sizes or sizes[0] < 3 or sizes[-1] > MAX_N or len(set(sizes)) < len(sizes):
        raise DomainError(f"n_list needs one or more distinct sizes, all in [3, {MAX_N}], got {list(n_list)}")
    return sizes


def _chain(
    base: EvolutionConfig, sizes: Sequence[int], error: Callable[[EvolutionConfig], float]
) -> list[ErrorRow]:
    """Rows of one refinement chain; error(cfg) is the error of the grid cfg = replace(base, n=n).

    Each row's scheme, alpha, h and dt are its grid's, so a chain has one scheme and one step.
    """
    rows: list[ErrorRow] = []
    for n in sizes:
        cfg = replace(base, n=n)
        err = error(cfg)
        order = None
        if rows and not (rows[-1].error <= 0.0 or err <= 0.0):
            order = math.log(rows[-1].error / err) / math.log(rows[-1].h / cfg.h)
        rows.append(ErrorRow(cfg.scheme.value, cfg.alpha, n, cfg.h, cfg.step_dt, err, order))
    return rows


def eigen_decay_study(
    alpha: float,
    n_list: Sequence[int],
    t_final: float,
    scheme: Scheme = Scheme.NEW,
) -> ErrorReport:
    """Evolve the eigenfunction u_c against its backward-Euler image (1 - c*dt)^(-K) u_c.

    The error is purely spatial; all grids share one schedule, the coarsest h^alpha snapped to t_final.
    """
    sizes = _grid_sizes(n_list)
    coarsest = EvolutionConfig(alpha=alpha, n=sizes[0], t_final=t_final, scheme=scheme, ic=EigenfunctionIC())
    pair = principal_eigenvalue(alpha)
    h_alpha = coarsest.h**alpha
    if t_final <= h_alpha:
        raise DomainError(f"t_final={t_final!r} must exceed the coarsest h^alpha={h_alpha!r}")
    base = replace(coarsest, dt=h_alpha)
    decay = (1.0 - pair.c * base.step_dt) ** -base.steps
    if decay < TINY:  # every error would read as an underflowed 0.0
        raise DomainError(f"t_final={t_final!r} decays u_c by {decay!r}, below the smallest normal float")

    def error(cfg: EvolutionConfig) -> float:
        states = iter_states(cfg)
        _, u0 = next(states)
        for _, final in states:
            pass
        err = float(np.abs(final.values - decay * u0.values).max())
        if err > MAX_ERROR_OVER_DECAY * decay:
            raise DomainError(f"t_final={t_final!r} reads error/decay {err / decay!r} > {MAX_ERROR_OVER_DECAY} at n = {cfg.n}")
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
    at coarse nodes directly when the grids nest and through power interpolation otherwise.
    Errors are relative sup norm (divided by the reference sup norm).
    """
    n_list = _grid_sizes(n_list)
    if n_reference is None:
        n_reference = 8 * (n_list[-1] + 1) - 1
    elif n_reference < 8 * n_list[-1]:
        raise DomainError("n_reference must be at least 8 * max(n_list)")
    check_alpha(alpha)  # before h_min^(alpha+0.5) can overflow
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
    ref = evolve(base)
    ref_sup = ref.sup_norm()
    if ref_sup < TINY:
        raise DomainError(
            f"t_final={t_final!r} decays the reference to sup norm {ref_sup!r}, below the smallest normal float"
        )

    def rel_error(cfg: EvolutionConfig) -> float:
        return error_norms(evolve(cfg), ref)["sup"] / ref_sup

    report = ErrorReport(
        meta={
            "study": "figure1_comparison",
            "alpha": alpha,
            "mu": mu,
            "sigma2": sigma2,
            "t_final": t_final,
            "n_reference": n_reference,
            "dt": base.step_dt,
            "norm": "relative sup",
        }
    )
    for scheme in (Scheme.NEW, Scheme.GRUNWALD):
        report.rows.extend(_chain(replace(base, scheme=scheme), n_list, rel_error))
    return report


def operator_consistency_study(alpha: float, n_list: Sequence[int]) -> ErrorReport:
    """Pointwise consistency of the scheme on f = x^(2alpha-1) near x = 0.5.

    The fractional derivative of x^(2alpha-1) is Gamma(2alpha)/Gamma(alpha)
    * x^(alpha-1); the error is measured at the interior node nearest 0.5.
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
        return float(abs(v[i] - factor * x[i] ** (alpha - 1.0)))

    return ErrorReport(
        _chain(base, sizes, error),
        meta={"study": "operator_consistency", "alpha": alpha, "norm": "pointwise@0.5"},
    )
