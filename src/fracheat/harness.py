"""Grid-refinement convergence studies and the Figure-1 style scheme comparison.

Error reports are plain rows (scheme, alpha, n, h, dt, norm, error,
observed_order) emitted as CSV or JSON. Observed orders on a row are the
log-ratio against the previous row of the same chain; ``observed_order``
computes the least-squares slope over a whole chain.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError
from .evolution import EigenfunctionIC, EvolutionConfig, GaussianIC, evolve, iter_states, step_count
from .interp import from_grid
from .operators import GridFunction, apply, build_operator
from .reference import principal_eigenvalue
from .specfun import gamma
from .weights import Scheme, check_alpha

CSV_HEADER = "scheme,alpha,n,h,dt,norm,error,observed_order"


@dataclass(frozen=True)
class ErrorRow:
    scheme: str
    alpha: float
    n: int
    h: float
    dt: float
    norm: str  # always "sup"; ErrorReport.meta["norm"] names the quantity
    error: float
    observed_order: Optional[float] = None


@dataclass
class ErrorReport:
    rows: list[ErrorRow] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def chain(self, scheme: Scheme | str) -> list[tuple[float, float]]:
        """(h, error) of the scheme's sup-norm rows."""
        name = scheme.value if isinstance(scheme, Scheme) else scheme
        return [(r.h, r.error) for r in self.rows if r.scheme == name and r.norm == "sup"]

    def overall_order(self, scheme: Scheme | str) -> float:
        return observed_order(self.chain(scheme))

    def to_csv(self) -> str:
        lines = [f"# {json.dumps(self.meta, sort_keys=True)}", CSV_HEADER]
        for r in self.rows:
            oo = "" if r.observed_order is None else repr(r.observed_order)
            lines.append(
                f"{r.scheme},{r.alpha!r},{r.n},{r.h!r},{r.dt!r},{r.norm},{r.error!r},{oo}"
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
    """n_list sorted ascending; every size must be >= 3 before h = 1/(n+1) is formed."""
    sizes = sorted(n_list)
    if not sizes or sizes[0] < 3:
        raise DomainError(f"n_list needs one or more sizes, all >= 3, got {list(n_list)}")
    return sizes


def _chain(
    scheme: Scheme,
    alpha: float,
    sizes: Sequence[int],
    run: Callable[[int, float], tuple[float, float]],
) -> list[ErrorRow]:
    """Rows of one refinement chain; run(n, h) returns (dt, sup error).

    Each row's observed order is the log-ratio against the previous row.
    """
    rows: list[ErrorRow] = []
    for n in sizes:
        h = 1.0 / (n + 1)
        dt, err = run(n, h)
        prev = rows[-1] if rows else None
        order = None
        if prev is not None and not (prev.error <= 0.0 or err <= 0.0):
            order = math.log(prev.error / err) / math.log(prev.h / h)
        rows.append(ErrorRow(scheme.value, alpha, n, h, dt, "sup", err, order))
    return rows


def eigen_decay_study(
    alpha: float,
    n_list: Sequence[int],
    t_final: float,
    scheme: Scheme = Scheme.NEW,
) -> ErrorReport:
    """Evolve the projected principal eigenfunction and compare with e^(ct) u_c.

    dt = h^(alpha+0.5): the extra half order keeps the O(dt) Euler error
    below the O(h^alpha) spatial target across the chain.
    """
    sizes = _grid_sizes(n_list)
    dt_exponent = alpha + 0.5
    pair = principal_eigenvalue(alpha)
    if t_final <= (1.0 / (sizes[0] + 1)) ** alpha:
        raise DomainError("t_final must exceed the coarsest h^alpha")
    report = ErrorReport(
        meta={
            "study": "eigen_decay",
            "alpha": alpha,
            "t_final": t_final,
            "dt_exponent": dt_exponent,
            "c": pair.c,
            "norm": "sup",
        }
    )
    decay = math.exp(pair.c * t_final)

    def run(n: int, h: float) -> tuple[float, float]:
        dt = t_final / step_count(t_final, h**dt_exponent)
        cfg = EvolutionConfig(
            alpha=alpha, n=n, t_final=t_final, scheme=scheme, dt=dt, ic=EigenfunctionIC()
        )
        states = iter_states(cfg)
        _, u0 = next(states)
        for _, final in states:
            pass
        return dt, float(np.abs(final.values - decay * u0.values).max())

    report.rows.extend(_chain(scheme, alpha, sizes, run))
    return report


def figure1_comparison(
    sigma2: float,
    mu: float,
    alpha: float,
    t_final: float,
    n_list: Sequence[int],
    n_reference: int,
) -> ErrorReport:
    """Both schemes against a fine-grid new-scheme self-reference, Gaussian data.

    A single time step, snapped from h_min^(alpha+0.5) of the finest entry in
    n_list, is shared by every run including the reference so that the
    backward-Euler error cancels to leading order in the comparison. The
    reference is read at coarse nodes directly when the grids nest and through
    power interpolation otherwise. Errors are relative sup norm (divided by
    the reference sup norm).
    """
    n_list = _grid_sizes(n_list)
    if n_reference < 8 * n_list[-1]:
        raise DomainError("n_reference must be at least 8 * max(n_list)")
    dt = t_final / step_count(t_final, (1.0 / (n_list[-1] + 1)) ** (alpha + 0.5))

    def run(scheme: Scheme, n: int) -> GridFunction:
        cfg = EvolutionConfig(
            alpha=alpha,
            n=n,
            t_final=t_final,
            scheme=scheme,
            dt=dt,
            ic=GaussianIC(mu=mu, sigma2=sigma2),
        )
        return evolve(cfg)

    ref = run(Scheme.NEW, n_reference)
    ref_sup = ref.sup_norm()
    report = ErrorReport(
        meta={
            "study": "figure1_comparison",
            "alpha": alpha,
            "mu": mu,
            "sigma2": sigma2,
            "t_final": t_final,
            "n_reference": n_reference,
            "dt": dt,
            "norm": "relative sup",
        }
    )
    for scheme in (Scheme.NEW, Scheme.GRUNWALD):
        def rel_error(n: int, h: float) -> tuple[float, float]:
            return dt, error_norms(run(scheme, n), ref)["sup"] / ref_sup

        report.rows.extend(_chain(scheme, alpha, n_list, rel_error))
    return report


def operator_consistency_study(alpha: float, n_list: Sequence[int]) -> ErrorReport:
    """Pointwise consistency of the scheme on f = x^(2alpha-1) near x = 0.5.

    The fractional derivative of x^(2alpha-1) is Gamma(2alpha)/Gamma(alpha)
    * x^(alpha-1); the error is measured at the interior node nearest 0.5.
    """
    sizes = _grid_sizes(n_list)
    check_alpha(alpha)
    factor = gamma(2.0 * alpha) / gamma(alpha)
    report = ErrorReport(
        meta={"study": "operator_consistency", "alpha": alpha, "norm": "pointwise@0.5"}
    )

    def run(n: int, h: float) -> tuple[float, float]:
        op = build_operator(alpha, n, Scheme.NEW)
        x = np.arange(1, n + 1) * h
        u = GridFunction(alpha=alpha, n=n, values=x ** (2.0 * alpha - 1.0))
        v = apply(op, u).values
        i = int(np.argmin(np.abs(x - 0.5)))
        return 0.0, float(abs(v[i] - factor * x[i] ** (alpha - 1.0)))

    report.rows.extend(_chain(Scheme.NEW, alpha, sizes, run))
    return report
