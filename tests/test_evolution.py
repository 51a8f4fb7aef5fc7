import math

import numpy as np
import pytest

from fracheat import (
    CustomIC,
    DomainError,
    EvolutionConfig,
    GaussianIC,
    GridFunction,
    PowerLawIC,
    Scheme,
    build_operator,
    closed_form_inverse,
    evolve,
    factorize,
    initial_grid,
    iter_states,
    resolvent_apply,
    step,
)
from fracheat.errors import NumericalError
from fracheat.evolution import step_count


def grid(alpha, n, values):
    return GridFunction(alpha=alpha, n=n, values=np.asarray(values, dtype=float))


class TestFactorization:
    def test_three_by_three_oracle(self):
        # dt chosen so I - dt*M_h = [[3,-1,0],[-1,3,-1],[0,-1,3]] at alpha = 2:
        # dt*2/h^2 = 2 -> dt = h^2
        n = 3
        op = build_operator(2.0, n)
        dt = op.h**2
        f = factorize(op, dt)
        a = np.array([[3.0, -1.0, 0.0], [-1.0, 3.0, -1.0], [0.0, -1.0, 3.0]])
        lu = f.lower @ (np.diag(f.banded[1]) + np.diag(f.banded[0, 1:], 1))
        np.testing.assert_allclose(lu, a, atol=1e-13)

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8, 2.0])
    def test_reconstructs_shifted_matrix(self, alpha):
        n = 40
        op = build_operator(alpha, n)
        dt = 0.3 * op.h**alpha
        f = factorize(op, dt)
        a = np.eye(n) - dt * op.dense()
        lu = f.lower @ (np.diag(f.banded[1]) + np.diag(f.banded[0, 1:], 1))
        np.testing.assert_allclose(lu, a, atol=1e-11 * np.abs(a).max())

    def test_pivots_at_least_one(self):
        op = build_operator(1.4, 64)
        f = factorize(op, 1e-3)
        assert np.all(f.banded[1] >= 1.0)

    def test_rejects_nonpositive_dt(self):
        op = build_operator(1.4, 8)
        with pytest.raises(DomainError):
            factorize(op, 0.0)


class TestStep:
    def test_matches_dense_solve(self):
        rng = np.random.default_rng(2)
        n = 60
        alpha = 1.6
        op = build_operator(alpha, n)
        dt = 0.7 * op.h**alpha
        f = factorize(op, dt)
        a = np.eye(n) - dt * op.dense()
        u = rng.standard_normal(n)
        v = step(f, grid(alpha, n, u)).values
        np.testing.assert_allclose(v, np.linalg.solve(a, u), atol=1e-12 * np.abs(u).max())

    def test_positivity_and_contraction(self):
        # backward Euler with an M-matrix preserves positivity and shrinks norms
        rng = np.random.default_rng(4)
        n = 80
        alpha = 1.4
        op = build_operator(alpha, n)
        f = factorize(op, op.h**alpha)
        u = grid(alpha, n, rng.uniform(0.1, 1.0, n))
        for _ in range(5):
            v = step(f, u)
            assert np.all(v.values > 0.0)
            assert v.sup_norm() <= u.sup_norm() + 1e-14
            assert v.l1_norm() <= u.l1_norm() + 1e-14
            u = v

    def test_classical_eigenvector_step(self):
        n = 50
        op = build_operator(2.0, n)
        h = op.h
        dt = h**2
        x = np.arange(1, n + 1) * h
        u = np.sin(np.pi * x)
        lam = -(2.0 - 2.0 * math.cos(math.pi * h)) / h**2
        v = step(factorize(op, dt), grid(2.0, n, u)).values
        np.testing.assert_allclose(v, u / (1.0 - dt * lam), atol=1e-12)

    def test_dimension_guard(self):
        op = build_operator(1.5, 16)
        f = factorize(op, 1e-3)
        with pytest.raises(DomainError):
            step(f, grid(1.5, 8, np.zeros(8)))


class TestResolvent:
    def test_lambda_zero_is_negative_inverse(self):
        rng = np.random.default_rng(6)
        n = 64
        alpha = 1.5
        op = build_operator(alpha, n)
        x = closed_form_inverse(alpha, n)
        g = rng.standard_normal(n)
        v = resolvent_apply(op, 0.0, grid(alpha, n, g)).values
        np.testing.assert_allclose(v, -x @ g, atol=1e-8 * np.abs(g).max())

    def test_residual_of_defining_equation(self):
        rng = np.random.default_rng(8)
        n = 48
        alpha = 1.3
        op = build_operator(alpha, n)
        m = op.dense()
        g = rng.standard_normal(n)
        for lam in (0.0, 1.0, 50.0):
            v = resolvent_apply(op, lam, grid(alpha, n, g)).values
            res = (lam * np.eye(n) - m) @ v - g
            assert np.abs(res).max() <= 1e-9 * np.abs(g).max()

    def test_positivity(self):
        n = 40
        alpha = 1.7
        op = build_operator(alpha, n)
        g = grid(alpha, n, np.ones(n))
        v = resolvent_apply(op, 1.0, g)
        assert np.all(v.values > 0.0)

    def test_large_lambda_limit(self):
        # lam*(lam I - M)^-1 -> identity: lam*v approaches g
        n = 32
        alpha = 1.5
        op = build_operator(alpha, n)
        g = grid(alpha, n, np.sin(np.pi * np.arange(1, n + 1) / (n + 1)))
        v = resolvent_apply(op, 1e6, g).values
        assert np.abs(1e6 * v - g.values).max() <= 1e-3 * g.sup_norm()

    def test_rejects_negative_lambda(self):
        op = build_operator(1.5, 8)
        with pytest.raises(DomainError):
            resolvent_apply(op, -1.0, grid(1.5, 8, np.zeros(8)))


class TestInitialGrid:
    def test_gaussian_peak(self):
        cfg = EvolutionConfig(alpha=1.5, n=99, t_final=0.01, ic=GaussianIC())
        u0 = initial_grid(cfg)
        peak = 1.0 / math.sqrt(2.0 * math.pi * 0.0005)
        assert u0.sup_norm() == pytest.approx(peak, rel=1e-3)
        assert u0.values.argmax() == 39  # node x = 0.4

    def test_power_law(self):
        cfg = EvolutionConfig(
            alpha=1.5, n=9, t_final=0.01, ic=PowerLawIC(a=2.0, b=-1.0)
        )
        u0 = initial_grid(cfg)
        x = np.arange(1, 10) / 10.0
        np.testing.assert_allclose(u0.values, 2.0 * x**0.5 - x**2.0, atol=1e-14)

    def test_custom(self):
        vals = np.arange(1.0, 6.0)
        cfg = EvolutionConfig(alpha=1.5, n=5, t_final=0.01, ic=CustomIC(vals))
        np.testing.assert_array_equal(initial_grid(cfg).values, vals)


class TestEvolve:
    def test_zero_time(self):
        cfg = EvolutionConfig(alpha=1.5, n=20, t_final=0.0)
        traj = evolve(cfg)
        np.testing.assert_array_equal(traj.final.values, initial_grid(cfg).values)
        assert list(traj.times) == [0.0]
        [(t0, u0)] = iter_states(cfg)
        assert t0 == 0.0
        np.testing.assert_array_equal(u0.values, traj.final.values)

    def test_step_count_lands_on_t_final(self):
        cfg = EvolutionConfig(alpha=1.5, n=20, t_final=0.01, dt=0.003)
        traj = evolve(cfg)
        assert traj.times[-1] == pytest.approx(0.01, abs=1e-15)
        assert len(traj.times) == 5  # ceil(0.01/0.003) = 4 steps

    def test_iter_states_matches_evolve(self):
        cfg = EvolutionConfig(alpha=1.4, n=20, t_final=0.01, dt=0.002)
        traj = evolve(cfg)
        states = list(iter_states(cfg))
        assert len(states) == 6
        times, grids = zip(*states)
        np.testing.assert_array_equal(times, traj.times)
        np.testing.assert_array_equal(grids[-1].values, traj.final.values)
        np.testing.assert_array_equal([g.sup_norm() for g in grids], traj.sup_norms)
        np.testing.assert_array_equal([g.l1_norm() for g in grids], traj.l1_norms)

    def test_norm_monotone_decay(self):
        cfg = EvolutionConfig(alpha=1.3, n=60, t_final=0.05)
        traj = evolve(cfg)
        assert np.all(np.diff(traj.sup_norms) <= 1e-14)
        assert np.all(np.diff(traj.l1_norms) <= 1e-14)

    def test_classical_against_textbook_tridiagonal(self):
        # independent implicit solver for u_t = u_xx with the standard stencil
        n, t_final, dt = 40, 0.02, 1e-4
        h = 1.0 / (n + 1)
        x = np.arange(1, n + 1) * h
        u0 = np.sin(np.pi * x)
        a = np.eye(n) * (1.0 + 2.0 * dt / h**2)
        a -= np.diag(np.ones(n - 1), 1) * dt / h**2
        a -= np.diag(np.ones(n - 1), -1) * dt / h**2
        v = u0.copy()
        for _ in range(round(t_final / dt)):
            v = np.linalg.solve(a, v)
        cfg = EvolutionConfig(
            alpha=2.0, n=n, t_final=t_final, dt=dt, ic=CustomIC(u0)
        )
        traj = evolve(cfg)
        np.testing.assert_allclose(traj.final.values, v, atol=1e-11)

    def test_scheme_selection_changes_result(self):
        kw = dict(alpha=1.4, n=50, t_final=0.01)
        a = evolve(EvolutionConfig(scheme=Scheme.NEW, **kw))
        b = evolve(EvolutionConfig(scheme=Scheme.GRUNWALD, **kw))
        assert np.abs(a.final.values - b.final.values).max() > 1e-6

    def test_config_validation(self):
        with pytest.raises(DomainError):
            EvolutionConfig(alpha=1.5, n=2, t_final=0.01)
        with pytest.raises(DomainError):
            EvolutionConfig(alpha=1.5, n=10, t_final=-1.0)
        with pytest.raises(DomainError):
            EvolutionConfig(alpha=1.5, n=10, t_final=0.01, dt=-0.1)
        with pytest.raises(DomainError):
            EvolutionConfig(alpha=1.5, n=10, t_final=0.01, dt=0.02)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(alpha=2.5),
            dict(alpha=2.5, t_final=0.0),  # evolve returns before building the operator
            dict(alpha=math.nan),
            dict(t_final=math.inf),
            dict(t_final=math.nan),
            dict(dt=math.nan),
            dict(dt=math.inf),
        ],
    )
    def test_rejects_bad_alpha_and_non_finite_times(self, kw):
        with pytest.raises(DomainError):
            EvolutionConfig(**{**dict(alpha=1.5, n=10, t_final=0.01), **kw})


class TestStepCount:
    def test_ceiling_with_tolerance(self):
        assert step_count(0.01, 0.003) == 4
        assert step_count(0.01, 0.005) == 2
        assert step_count(0.001, 0.005) == 1

    @pytest.mark.parametrize("t_final,dt", [(1e308, 1e-308), (0.01, 0.0), (math.nan, 0.1)])
    def test_rejects_non_finite_count(self, t_final, dt):
        with pytest.raises(DomainError):
            step_count(t_final, dt)

    def test_overflowing_config_is_a_domain_error(self):
        cfg = EvolutionConfig(alpha=1.5, n=10, t_final=1e308, dt=1e-308)
        with pytest.raises(DomainError):
            evolve(cfg)
