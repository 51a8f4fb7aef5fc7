"""Command-line front end: weights / eigen / solve / converge / consistency / compare.

Output files are deterministic: identical configs produce byte-identical
files (no timestamps; the header carries a config echo only). Exit codes:
0 success, 2 usage error, 3 numerical or convergence error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, astuple, dataclass, field, fields
from typing import Iterable, Iterator, Optional, Sequence

from .errors import ConvergenceError, DomainError, NumericalError
from .evolution import EigenfunctionIC, EvolutionConfig, GaussianIC, PowerLawIC, iter_states
from .harness import ErrorRow, eigen_decay_study, figure1_comparison, operator_consistency_study
from .operators import GridFunction
from .reference import principal_eigenvalue
from .weights import Scheme, weights

COMMANDS = ("weights", "eigen", "solve", "converge", "consistency", "compare")


# argparse names the type function in its error message: "invalid int_list value"
def finite_float(text: str) -> float:
    if not math.isfinite(value := float(text)):
        raise ValueError(text)
    return value


def int_list(text: str) -> tuple[int, ...]:
    if not (sizes := tuple(int(s) for s in text.split(",") if s.strip())):
        raise ValueError(text)  # no size: an empty list must not read as "not given"
    return sizes


# --ic: each name's initial condition, built from the run's options
_ICS = {
    "gaussian": lambda cfg: GaussianIC(mu=cfg.mu, sigma2=cfg.sigma2),
    "eigen": lambda cfg: EigenfunctionIC(),
    "power": lambda cfg: PowerLawIC(a=cfg.power_a, b=cfg.power_b),
}


# reads: the runs that read the option, each a command or "command:ic" (only with that --ic)
def _option(default, type, reads=COMMANDS, choices=None, help=None):
    return field(default=default, metadata={"reads": reads, "type": type, "choices": choices, "help": help})


@dataclass(frozen=True)
class RunConfig:
    """A parsed run; every later field is an option, e.g. ``t_final`` is both the
    flag ``--t-final`` and the config-file key. The library checks the domains."""

    command: str
    alpha: float = _option(1.5, finite_float)
    n: Optional[int] = _option(None, int, ("weights", "solve"))
    n_list: tuple[int, ...] = _option(
        (), int_list, ("converge", "consistency", "compare"), help="comma-separated grid sizes"
    )
    dt: Optional[float] = _option(None, finite_float, ("solve",))
    t_final: float = _option(0.01, finite_float, ("solve", "converge", "compare"))
    scheme: Scheme = _option(Scheme.NEW, Scheme, ("weights", "solve"), [s.value for s in Scheme])
    ic: str = _option("gaussian", str, ("solve",), list(_ICS))
    mu: float = _option(GaussianIC.mu, finite_float, ("solve:gaussian", "compare"))
    sigma2: float = _option(GaussianIC.sigma2, finite_float, ("solve:gaussian", "compare"))
    power_a: float = _option(PowerLawIC.a, finite_float, ("solve:power",))
    power_b: float = _option(PowerLawIC.b, finite_float, ("solve:power",))
    out: Optional[str] = _option(None, str)
    format: str = _option("csv", str, choices=["csv", "json"])


_OPTIONS = {f.name: f for f in fields(RunConfig) if f.name != "command"}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fracheat", description=__doc__)
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--config", help="key = value config file; flags override it")
    for name, f in _OPTIONS.items():
        kwargs = {k: v for k, v in f.metadata.items() if k != "reads"}
        p.add_argument(_flag(name), dest=name, default=argparse.SUPPRESS, **kwargs)
    return p


def _read_config_file(path: str) -> list[str]:
    """The file's ``key = value`` lines as ``--key=value`` argv tokens."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    tokens = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _OPTIONS:
            raise DomainError(f"{path}:{lineno}: unknown key {key!r}")
        tokens.append(f"{_flag(key)}={value}")
    return tokens


def parse_config(argv: Sequence[str]) -> RunConfig:
    """Parse argv into a RunConfig. Config-file entries become flags placed before
    argv, so one parser checks both, a command-line flag overrides a file entry, and
    an option that the run does not read is refused from either."""
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.config:
        ns = parser.parse_args(_read_config_file(ns.config) + list(argv))
    del ns.config
    cfg = RunConfig(**vars(ns))
    runs = {cfg.command, f"{cfg.command}:{cfg.ic}"}
    unread = [_flag(k) for k in _OPTIONS if k in ns and runs.isdisjoint(_OPTIONS[k].metadata["reads"])]
    if unread:
        reads_ic = cfg.command in _OPTIONS["ic"].metadata["reads"]
        run = f"{cfg.command} --ic {cfg.ic}" if reads_ic else cfg.command
        raise DomainError(f"{run} does not read {', '.join(unread)}")
    return cfg


# ---------------------------------------------------------------------------
# command bodies

def _echo(cfg: RunConfig) -> dict:
    # also unread options, at their defaults: the pinned `solve` header depends on these keys
    keys = ("command", "alpha", "n", "n_list", "dt", "t_final", "scheme", "ic")
    return {k: getattr(cfg, k) for k in keys}


def _csv(head: dict, columns: Sequence[str], rows: Iterable[Sequence]) -> str:
    """``# {head as sorted JSON}``, the column names, then per row: floats as repr(float), None empty, else str."""
    lines = [f"# {json.dumps(head, sort_keys=True)}", ",".join(columns)]
    for row in rows:
        cells = ("" if v is None else repr(float(v)) if isinstance(v, float) else str(v) for v in row)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _json(obj) -> list[str]:
    return [json.dumps(obj, sort_keys=True)]


def _run_weights(cfg: RunConfig) -> Iterable[str]:
    n = cfg.n if cfg.n is not None else 64
    ws = weights(cfg.alpha, n, cfg.scheme)
    sums = ws.partial_sums()
    if cfg.format == "json":
        return _json(
            {"alpha": cfg.alpha, "scheme": cfg.scheme.value, "w": list(ws.w), "partial_sum": list(sums)}
        )
    return [_csv(_echo(cfg), ("k", "w_k", "partial_sum"), zip(range(n + 1), ws.w, sums))]


def _run_eigen(cfg: RunConfig) -> Iterable[str]:
    pair = principal_eigenvalue(cfg.alpha)
    if cfg.format == "json":
        return _json({"alpha": pair.alpha, "c": pair.c, "series_terms": pair.series_terms})
    return [_csv(_echo(cfg), ("alpha", "c", "series_terms"), [(pair.alpha, pair.c, pair.series_terms)])]


def _run_solve(cfg: RunConfig) -> Iterable[str]:
    n = cfg.n if cfg.n is not None else 100
    econf = EvolutionConfig(
        alpha=cfg.alpha, n=n, t_final=cfg.t_final, scheme=cfg.scheme, dt=cfg.dt, ic=_ICS[cfg.ic](cfg)
    )
    return _solve_chunks(cfg, econf, iter_states(econf))


def _solve_chunks(cfg: RunConfig, econf: EvolutionConfig, states: Iterator[tuple[float, GridFunction]]) -> Iterator[str]:
    """One chunk per state, as it is read: its ``t,x,u`` rows after the CSV header, or its row of the JSON
    ``u``, in the bytes of json.dumps(sort_keys=True): ``t`` (t_k = k*step_dt) first, then ``u``, then ``x``."""
    if as_json := cfg.format == "json":
        yield from (('{"t": [' if k == 0 else ", ") + repr(k * econf.step_dt) for k in range(econf.steps + 1))
    yield '], "u": [' if as_json else _csv(_echo(cfg), ("t", "x", "u"), ())
    for k, (t, u) in enumerate(states):
        if as_json:  # a finite float as repr, as json.dumps writes it
            yield ("[" if k == 0 else ", [") + ", ".join(map(repr, u.values.tolist())) + "]"
            continue
        xs = xs if k else [f",{xi!r}," for xi in u.x.tolist()]
        tt = repr(t)
        yield "".join([f"{tt}{xi}{ui!r}\n" for xi, ui in zip(xs, u.values.tolist())])
    if as_json:
        yield f'], "x": [{", ".join(map(repr, u.x.tolist()))}]}}'


def _run_study(cfg: RunConfig) -> Iterable[str]:
    """The command's study, one library call, as one CSV or JSON report."""
    n_list = cfg.n_list or (50, 100, 200, 400)
    if cfg.command == "converge":
        report = eigen_decay_study(cfg.alpha, n_list, cfg.t_final)
    elif cfg.command == "consistency":
        report = operator_consistency_study(cfg.alpha, n_list)
    else:
        report = figure1_comparison(
            sigma2=cfg.sigma2, mu=cfg.mu, alpha=cfg.alpha, t_final=cfg.t_final, n_list=n_list
        )
    if cfg.format == "json":  # indented, no trailing newline
        return [json.dumps({"meta": report.meta, "rows": list(map(asdict, report.rows))}, sort_keys=True, indent=2)]
    return [_csv(report.meta, [f.name for f in fields(ErrorRow)], map(astuple, report.rows))]


def run(cfg: RunConfig) -> int:
    """Execute a parsed config; writes to cfg.out or stdout. Returns exit status.

    A command body does all its set-up before it returns its chunks, so a run
    that fails there writes nothing and creates no output file.
    """
    bodies = {"weights": _run_weights, "eigen": _run_eigen, "solve": _run_solve}
    chunks = bodies.get(cfg.command, _run_study)(cfg)  # every other command is a study
    if cfg.out is None:
        sys.stdout.writelines(chunks)
    else:
        with open(cfg.out, "w") as fh:
            fh.writelines(chunks)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        return run(parse_config(argv))
    except SystemExit as exc:  # argparse usage errors
        return int(exc.code or 0)
    except DomainError as exc:
        print(f"fracheat: usage error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, NumericalError) as exc:
        print(f"fracheat: numerical error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"fracheat: i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
