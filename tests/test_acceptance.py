"""Acceptance suite: one criterion per test, one pass/fail line printed each.

The lines are registered with the conftest scorecard, which the
terminal-summary hook prints after the run so they show regardless of
pytest's output capturing.
"""

import functools
import math

import numpy as np
from conftest import ACCEPTANCE_LINES

from fracheat import (
    ErrorReport,
    Scheme,
    build_operator,
    closed_form_inverse,
    continuous_inverse_apply,
    eigen_decay_study,
    eigenfunction_u_c,
    exactness_residual,
    factorize,
    figure1_comparison,
    from_grid,
    generating_residual,
    new_weights,
    observed_order,
    principal_eigenvalue,
    qmatrix_report,
    step,
)
from fracheat.operators import GridFunction


def report(num: int, title: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {title} ({detail})"
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def test_criterion_01_weight_sign_structure():
    worst = ""
    ok = True
    for alpha in [round(1.1 + 0.1 * k, 1) for k in range(9)]:
        ws = new_weights(alpha, 4096)
        rep = qmatrix_report(ws)
        sums = ws.partial_sums()
        good = (
            rep.w1_negative
            and rep.others_positive
            and rep.partial_sum_at_N < 0.0
            and rep.partial_sums_increasing
            and abs(sums[4096]) < abs(sums[256])
        )
        if not good:
            ok = False
            worst = f"alpha={alpha}"
    report(1, "weight sign structure, alpha 1.1..1.9, N=4096", ok, worst or "all alphas")


def test_criterion_02_classical_reduction():
    w = new_weights(2.0, 64).w
    wref = np.zeros(65)
    wref[:3] = [1.0, -2.0, 1.0]
    w_err = float(np.abs(w - wref).max())
    pair = principal_eigenvalue(2.0)
    c_err = abs(pair.c + math.pi**2)
    xs = np.linspace(0.0, 1.0, 1000)
    u = np.array([eigenfunction_u_c(2.0, pair.c, x) for x in xs])
    u_err = float(np.abs(u - np.sin(math.pi * xs) / math.pi).max())
    ok = w_err <= 1e-10 and c_err <= 1e-8 and u_err <= 1e-10
    report(
        2,
        "classical reduction at alpha=2",
        ok,
        f"weight err {w_err:.2e}, eigenvalue err {c_err:.2e}, u_c sup err {u_err:.2e}",
    )


def test_criterion_03_exactness_on_power_function():
    residuals = {a: exactness_residual(a, 1000) for a in (1.2, 1.5, 1.8)}
    worst = max(residuals.values())
    report(
        3,
        "exactness on x^(alpha-1), n=1000",
        worst <= 1e-9,
        f"max normalized residual {worst:.2e}",
    )


def test_criterion_04_closed_form_inverse():
    alpha, n = 1.4, 256
    m = build_operator(alpha, n).dense()
    x = closed_form_inverse(alpha, n)
    err = float(np.abs(m @ x - np.eye(n)).max())
    report(4, "closed-form inverse, alpha=1.4, n=256", err <= 1e-8, f"|MX-I|_max {err:.2e}")


def test_criterion_05_generating_identity():
    worst = 0.0
    for alpha in (1.2, 1.5, 1.8):
        ws = new_weights(alpha, 2048)
        for t in (0.1, 0.3, 0.5, 0.7, 0.9):
            worst = max(worst, generating_residual(ws, t))
    report(5, "generating-function identity, N=2048", worst <= 1e-8, f"max residual {worst:.2e}")


@functools.cache
def _decay_report() -> ErrorReport:
    # both chains take one dt, the coarsest grid's h^alpha, against the Euler image of u_c
    return eigen_decay_study(1.4, [50, 100, 200, 400], t_final=0.05)


def test_criterion_06_new_scheme_order():
    order = _decay_report().overall_order(Scheme.NEW)
    report(
        6,
        "new-scheme decay order in [1.15, 1.7] at alpha=1.4",
        1.15 <= order <= 1.7,
        f"observed order {order:.3f}",
    )


def test_criterion_07_baseline_order_drop():
    order = _decay_report().overall_order(Scheme.GRUNWALD)
    report(
        7,
        "baseline decay order in [0.2, 0.7] at alpha=1.4",
        0.2 <= order <= 0.7,
        f"observed order {order:.3f}",
    )


def test_criterion_08_figure1_error_ratio():
    """Figure-1 order separation at t_final = 0.1.

    The orders separate at the left boundary, where Grünwald drops to order
    alpha-1. At t_final = 0.01 the solution on x <= 0.1 is still 7e-15 of its
    sup, so both schemes sit in their interior regime (Grünwald's last-pair
    order is 0.96); by t_final = 0.1 it has reached x = 0.
    """
    rep = figure1_comparison(
        sigma2=0.0005,
        mu=0.4,
        alpha=1.4,
        t_final=0.1,
        n_list=[50, 100, 200, 400],
        n_reference=3200,
    )
    new_rows = {r.n: r for r in rep.rows if r.scheme == "new"}
    base_rows = {r.n: r for r in rep.rows if r.scheme == "grunwald"}
    new_err, base_err = new_rows[400].error, base_rows[400].error
    new_order, base_order = new_rows[400].observed_order, base_rows[400].observed_order
    ratio = base_err / new_err
    report(
        8,
        "error ratio >= 3 at n=400, t_final=0.1; last-pair orders new in [1.15, 1.7], "
        "baseline in [0.2, 0.7]",
        ratio >= 3.0 and 1.15 <= new_order <= 1.7 and 0.2 <= base_order <= 0.7,
        f"ratio {ratio:.3f} (new {new_err:.3e}, baseline {base_err:.3e}); "
        f"orders new {new_order:.3f}, baseline {base_order:.3f}",
    )


def test_criterion_09_positivity_and_contraction():
    rng = np.random.default_rng(2024)
    n = 100
    min_entry = math.inf
    contraction_ok = True
    for alpha in (1.3, 1.7):
        op = build_operator(alpha, n)
        f = factorize(op, op.h**alpha)
        for _ in range(100):
            u = GridFunction(alpha=alpha, n=n, values=rng.uniform(0.0, 1.0, n))
            for _ in range(100):
                v = step(f, u)
                min_entry = min(min_entry, float(v.values.min()))
                if v.sup_norm() > u.sup_norm() * (1.0 + 1e-14):
                    contraction_ok = False
                u = v
    ok = min_entry >= -1e-12 and contraction_ok
    report(
        9,
        "positivity and sup-norm contraction, 100 ICs x 100 steps",
        ok,
        f"min entry {min_entry:.2e}, contraction {'held' if contraction_ok else 'violated'}",
    )


def test_criterion_10_projection_rate():
    alpha = 1.5

    def bump(y):
        return np.exp(-((np.asarray(y) - 0.5) ** 2) / 0.02)

    xs = np.linspace(0.0, 1.0, 801)
    f_xs = np.array([continuous_inverse_apply(alpha, bump, x) for x in xs])
    chain = []
    for n in (32, 64, 128, 256):
        h = 1.0 / (n + 1)
        vals = np.array(
            [continuous_inverse_apply(alpha, bump, i * h) for i in range(1, n + 1)]
        )
        p = from_grid(vals, alpha)
        chain.append((h, float(np.abs(p(xs) - f_xs).max())))
    order = observed_order(chain)
    report(
        10,
        "projection sup-norm rate >= alpha-0.2 at alpha=1.5",
        order >= alpha - 0.2,
        f"observed order {order:.3f}",
    )
