"""A seeded fuzz of the library's entry points, the twin of test_cli.py's TestArgvFuzz.

The CLI's parser hands the library Python ints and floats only. A library
caller can pass more: a float or bool size, numpy scalars, subnormal,
overflowing and non-finite reals. Every call must return or raise a
FracheatError, with numpy's warnings as errors: never a TypeError from
numpy, nor a RuntimeWarning before a refusal. Grids have at most 32 nodes,
references at most 8*(32 + 1) - 1: 40 seeds of ROUNDS calls to each entry
point run in about 1.5 s.
"""

import math
import random
import warnings

import numpy as np
import pytest

from fracheat import (
    EigenfunctionIC,
    EvolutionConfig,
    FracheatError,
    GaussianIC,
    GridFunction,
    PowerInterpolant,
    PowerLawIC,
    build_operator,
    closed_form_inverse,
    continuous_inverse_apply,
    eigen_decay_study,
    eigenfunction_u_c,
    evolve,
    factorize,
    figure1_comparison,
    from_grid,
    gamma,
    gaussian_ic,
    grunwald_weights,
    mittag_leffler_e_alpha0,
    new_weights,
    operator_consistency_study,
    polylog,
    principal_eigenvalue,
    resolvent_apply,
    step,
)

SIZES = [3, 8, 20.0, 20.5, np.int64(8), np.float64(8.0), True, -1, 0, 2, 10**7]
REALS = [math.nan, math.inf, -math.inf, 0.0, 5e-324, 1e308, -1.0, np.float32(1.4), True]
# an argument is an edge value at rate EDGE, else an in-domain one, so that calls get past their first check
EDGE = 0.3
ROUNDS = 10
GOOD_SIZES = [3, 8, 16, 32]
GOOD = {
    "alpha": [1.4, 1.9, 2.0],
    "t_final": [0.01, 0.05],
    "dt": [0.001, 0.004],
    "lam": [0.0, 2.0],
    "x": [0.3, 1.0],
    "mu": [0.4, 0.6],
    "sigma2": [0.001, 0.01],
    "a": [1.0, -0.5],
    "b": [0.0, 2.0],
    "data": [1.0, 1e-3],  # the value of every node of a solve's right-hand side
    "c": [-6.0, -9.5],  # u_c's eigenvalue
    "z": [-11.0, 3.0],  # the Mittag-Leffler argument
    "s": [-0.4, -1.0],  # the polylog order and argument
    "t": [0.5, -0.75],
}


class Draws:
    """One call's arguments, drawn from a seeded stream; ``args`` records them."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.args = []

    def _keep(self, name, value):
        self.args.append(f"{name}={value!r}")
        return value

    def real(self, name):
        pool = REALS if self.rng.random() < EDGE else GOOD[name]
        return self._keep(name, self.rng.choice(pool))

    def size(self, name="n"):
        return self._keep(name, self.rng.choice(SIZES if self.rng.random() < EDGE else GOOD_SIZES))

    def sizes(self):
        return self._keep("n_list", [self.size("entry") for _ in range(self.rng.randrange(1, 3))])

    def scheme(self):
        return self._keep("scheme", self.rng.choice(["new", "grunwald"]))

    def ic(self):
        kind = self.rng.randrange(3)
        if kind == 0:
            return GaussianIC(mu=self.real("mu"), sigma2=self.real("sigma2"))
        return PowerLawIC(a=self.real("a"), b=self.real("b")) if kind == 1 else EigenfunctionIC()

    def operator(self):
        return build_operator(self.real("alpha"), self.size(), self.scheme())

    def grid(self, op):
        return GridFunction(alpha=op.alpha, n=op.n, values=np.full(op.n, self.real("data")))

    def values(self, n):
        """As many node values as a size n gives (none for n < 0, at most 40), or a 2-D array of them at rate EDGE.

        At rate one half their signs alternate, +data at even indices and -data at odd ones.
        """
        count = min(max(int(n), 0), 40)
        shape = (2, count) if self.rng.random() < EDGE else (count,)
        data = self.real("data")
        sign = np.where(np.arange(count) % 2, -1.0, 1.0) if self.rng.random() < 0.5 else 1.0
        self.args.append(f"values=np.full({shape}, {data!r}) * {sign!r}")
        return np.full(shape, data) * sign


def run_evolve(d):
    dt = d.real("dt") if d.rng.random() < 0.5 else None
    alpha, n, t_final = d.real("alpha"), d.size(), d.real("t_final")
    return evolve(EvolutionConfig(alpha=alpha, n=n, t_final=t_final, scheme=d.scheme(), dt=dt, ic=d.ic()))


def run_factorize(d):
    op = d.operator()
    return step(factorize(op, d.real("dt")), d.grid(op))


def run_resolvent(d):
    op = d.operator()
    return resolvent_apply(op, d.real("lam"), d.grid(op))


def run_figure1(d):
    return figure1_comparison(d.real("sigma2"), d.real("mu"), d.real("alpha"), d.real("t_final"), d.sizes())


def run_grid_function(d):
    n = d.size()
    return GridFunction(alpha=d.real("alpha"), n=n, values=d.values(n))


def run_interpolant(d):
    n = d.size()
    y = d.values(n + 2)
    y[..., :1] = 0.0  # the left boundary value
    return PowerInterpolant(alpha=d.real("alpha"), n=n, y=y)(d.real("x"))


def run_gaussian_ic(d):
    x = np.arange(1, 9) / 9 if d.rng.random() < 0.5 else d.real("x")
    return gaussian_ic(x, d.real("mu"), d.real("sigma2"))


TARGETS = {
    "evolve": run_evolve,
    "build_operator": lambda d: d.operator(),
    "new_weights": lambda d: new_weights(d.real("alpha"), d.size()),
    "grunwald_weights": lambda d: grunwald_weights(d.real("alpha"), d.size()),
    "factorize": run_factorize,
    "resolvent_apply": run_resolvent,
    "continuous_inverse_apply": lambda d: continuous_inverse_apply(d.real("alpha"), np.cos, d.real("x")),
    "principal_eigenvalue": lambda d: principal_eigenvalue(d.real("alpha")),
    "eigen_decay_study": lambda d: eigen_decay_study(d.real("alpha"), d.sizes(), d.real("t_final")),
    "operator_consistency_study": lambda d: operator_consistency_study(d.real("alpha"), d.sizes()),
    "figure1_comparison": run_figure1,
    "GridFunction": run_grid_function,
    "PowerInterpolant": run_interpolant,
    "from_grid": lambda d: from_grid(d.values(d.size()), d.real("alpha"))(d.real("x")),
    "closed_form_inverse": lambda d: closed_form_inverse(d.real("alpha"), d.size()),
    "gamma": lambda d: gamma(d.real("x")),
    "mittag_leffler_e_alpha0": lambda d: mittag_leffler_e_alpha0(d.real("alpha"), d.real("z")),
    "eigenfunction_u_c": lambda d: eigenfunction_u_c(d.real("alpha"), d.real("c"), d.real("x")),
    "polylog": lambda d: polylog(d.real("s"), d.real("t")),
    "gaussian_ic": run_gaussian_ic,
}


class TestLibraryFuzz:
    @pytest.mark.parametrize("seed", range(40))
    def test_returns_or_refuses(self, seed):
        for k in range(ROUNDS):
            for name, target in TARGETS.items():
                d = Draws(f"{seed}-{k}-{name}")
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        target(d)
                except FracheatError:
                    pass
                except Exception as exc:
                    pytest.fail(f"{name}({', '.join(d.args)}) raised {exc!r}")
