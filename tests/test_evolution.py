import math
import subprocess
import sys
import textwrap
from dataclasses import replace

import numpy as np
import pytest
from conftest import child_env
from scipy.linalg import solve_banded, solve_triangular

from fracheat import (
    DomainError,
    EigenfunctionIC,
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
from fracheat.evolution import (
    GS_CLIP_C,
    GS_MIN_N,
    MAX_STEPS,
    TAIL_MAX_J,
    GohbergSemenculFactorization,
    LUFactorization,
    _clip_negative,
    _fft_len,
    _series_inverse,
    step_count,
)
from fracheat import evolution
from fracheat.reference import gaussian_ic


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

    # both solver paths: a NaN or infinite step once gave a factor full of NaN
    @pytest.mark.parametrize("n", [8, 700])
    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_dt(self, n, dt):
        with pytest.raises(DomainError, match=f"got {dt!r}"):
            factorize(build_operator(1.4, n), dt)


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

    @pytest.mark.parametrize("n", [3, 4, 50, 400, GS_MIN_N - 1])
    @pytest.mark.parametrize("alpha", [1.1, 1.4, 1.9, 2.0])
    @pytest.mark.parametrize("scheme", [Scheme.NEW, Scheme.GRUNWALD])
    def test_dense_solve_is_scipy_wrappers_bit_for_bit(self, scheme, alpha, n):
        # the direct trtrs/tbtrs calls end in the BLAS kernels solve_triangular
        # and solve_banded run, so 50 chained steps agree exactly
        op = build_operator(alpha, n, scheme)
        f = factorize(op, 0.7 * op.h**alpha)
        assert isinstance(f, LUFactorization) and f.lower.shape == (n, n)
        got = want = np.random.default_rng(14).uniform(0.0, 1.0, n)
        for _ in range(50):
            got = f.solve(got)
            y = solve_triangular(f.lower, want, lower=True, unit_diagonal=True)
            want = solve_banded((0, 1), f.banded, y)
            np.testing.assert_array_equal(got, want)

    def test_lapack_failure_raises(self):
        # a zero pivot in column 3 of a hand-built U: tbtrs reports it as info = 3
        n = 5
        banded = np.ones((2, n), order="F")
        banded[1, 2] = 0.0
        f = LUFactorization(n=n, lower=np.eye(n), banded=banded)
        with pytest.raises(NumericalError, match="info=3"):
            f.solve(np.ones(n))

    @pytest.mark.parametrize("n", [3, 50, 400, GS_MIN_N - 1, GS_MIN_N, 3200])
    def test_lu_holds_tail_arrays_only_with_a_tail(self, n):
        # below GS_MIN_N the LU holds n^2 + 2n doubles, all of L and U's band;
        # from it on, at tau = 1, a head of at most TAIL_MAX_J columns and the tail
        op = build_operator(1.4, n)
        f = factorize(op, op.h**1.4)
        assert isinstance(f, LUFactorization)
        held = sum(v.nbytes for v in vars(f).values() if isinstance(v, np.ndarray))
        if n < GS_MIN_N:
            assert f.fft_len == 0 and f.base is None and f.inv_l is None
            assert f.lower.shape == (n, n)
            assert held == n * n * 8 + 2 * n * 8
        else:
            head = len(f.lower)
            assert f.lower.shape == (head, head) and head <= TAIL_MAX_J
            assert f.fft_len >= 2 * (n - head) - 1 and f.base.shape == (n,) and f.inv_l is not None

    @pytest.mark.parametrize("n", [GS_MIN_N - 1, GS_MIN_N])
    def test_solves_leave_their_input_alone(self, n):
        # all three solver paths (the step at n = GS_MIN_N takes the Toeplitz
        # tail, the resolvent GS); tbtrs solves in place, so only its own copy
        # may change
        alpha = 1.4
        op = build_operator(alpha, n)
        b = np.random.default_rng(16).uniform(0.0, 1.0, n)
        for solve in (
            lambda g: step(factorize(op, op.h**alpha), g),
            lambda g: resolvent_apply(op, 0.0, g),
        ):
            g = grid(alpha, n, b.copy())
            v = solve(g).values
            np.testing.assert_array_equal(g.values, b)
            assert not np.shares_memory(v, g.values)

    def test_dimension_guard(self):
        op = build_operator(1.5, 16)
        f = factorize(op, 1e-3)
        with pytest.raises(DomainError):
            step(f, grid(1.5, 8, np.zeros(8)))


def run_child(code: str, *args: str) -> str:
    """stdout of `code` run in a fresh interpreter, which must exit 0."""
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# a dense (n = 50), a Toeplitz-tail (n = 700, tau = 0.7) and a GS (n = 700,
# tau = 1600) solve, saved to argv[1] under the path each took
SOLVES = textwrap.dedent("""
    import sys
    import numpy as np
    from fracheat import build_operator, factorize
    from fracheat.evolution import GohbergSemenculFactorization

    rng = np.random.default_rng(19)
    got = {}
    for n, tau in ((50, 0.7), (700, 0.7), (700, 1600.0)):
        op = build_operator(1.4, n)
        f = factorize(op, tau * op.h**1.4)
        path = "gs" if isinstance(f, GohbergSemenculFactorization) else "dense" if len(f.lower) == n else "tail"
        got[path] = f.solve(rng.uniform(0.0, 1.0, n))
    np.savez(sys.argv[1], **got)
    print(*got, "scipy.linalg" in sys.modules)
""")


class TestLapackLoader:
    """The kernels load from scipy's LAPACK extension, not the scipy.linalg package."""

    def test_cli_solve_imports_neither_scipy_linalg_nor_fft(self, tmp_path):
        # a later import in src/ that brings either back shows here
        out = run_child(
            """
            import sys
            import fracheat, fracheat.cli

            assert fracheat.cli.main(["solve", "--n", "8", "--t-final", "0.01", "--out", sys.argv[1]]) == 0
            print([m for m in ("scipy.linalg", "scipy.fft") if m in sys.modules])
            """,
            str(tmp_path / "solve.csv"),
        )
        assert out == "[]\n"

    def test_kernels_are_scipys_own(self):
        run_child(
            """
            import numpy as np
            from fracheat import evolution
            import scipy.linalg
            from scipy.linalg import _flapack, get_lapack_funcs, solve_banded, solve_triangular

            assert evolution._trtrs is scipy.linalg.lapack.dtrtrs
            assert evolution._tbtrs is scipy.linalg.lapack.dtbtrs
            trtrs, tbtrs = get_lapack_funcs(("trtrs", "tbtrs"), dtype=np.float64)
            assert trtrs is evolution._trtrs and tbtrs is evolution._tbtrs
            assert scipy.linalg._flapack is _flapack and _flapack.dtrtrs is evolution._trtrs
            np.testing.assert_array_equal(solve_triangular([[2.0, 0.0], [1.0, 4.0]], [2.0, 9.0], lower=True), [1.0, 2.0])
            np.testing.assert_array_equal(solve_banded((0, 1), [[0.0, 1.0], [2.0, 4.0]], [4.0, 8.0]), [1.0, 2.0])
            """
        )

    def test_fallback_through_scipy_linalg_solves_the_same(self, tmp_path):
        # a finder that knows no extension suffix sends the loader through
        # scipy.linalg; the import system's own finders keep theirs
        blind = "import importlib.machinery\nimportlib.machinery.EXTENSION_SUFFIXES = []\n"
        normal_path, blind_path = tmp_path / "normal.npz", tmp_path / "blind.npz"
        kinds = "dense tail gs"
        assert run_child(SOLVES, str(normal_path)) == f"{kinds} False\n"
        assert run_child(blind + SOLVES, str(blind_path)) == f"{kinds} True\n"
        with np.load(normal_path) as normal, np.load(blind_path) as fallback:
            for kind in kinds.split():
                np.testing.assert_array_equal(fallback[kind], normal[kind])


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

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_rejects_non_finite_lambda(self, lam):
        op = build_operator(1.5, 8)
        with pytest.raises(DomainError, match=f"got {lam!r}"):
            resolvent_apply(op, lam, grid(1.5, 8, np.zeros(8)))


class TestGohbergSemencul:
    """The n >= GS_MIN_N solvers, Toeplitz tail and Gohberg-Semencul, against dense oracles."""

    @pytest.mark.parametrize("n", [GS_MIN_N, 3200])
    @pytest.mark.parametrize("alpha", [1.1, 1.4, 1.9, 2.0])
    @pytest.mark.parametrize("scheme", [Scheme.NEW, Scheme.GRUNWALD])
    def test_step_matches_dense_solve(self, scheme, alpha, n):
        # tau = 0.08 takes the tail, 1600 GS, and 10 the tail at alpha >= 1.9
        rng = np.random.default_rng(10)
        op = build_operator(alpha, n, scheme)
        m = op.dense()
        b = np.column_stack([rng.standard_normal(n), rng.uniform(0.0, 1.0, n)])
        for tau in (0.08, 10.0, 1600.0):
            dt = tau * op.h**alpha
            f = factorize(op, dt)
            assert isinstance(f, GohbergSemenculFactorization) or len(f.lower) < n
            a = m * -dt  # I - dt*M_h, one n x n temporary
            a.flat[:: n + 1] += 1.0
            want = np.linalg.solve(a, b)
            for k in range(b.shape[1]):
                got = step(f, grid(alpha, n, b[:, k])).values
                err = np.abs(got - want[:, k]).max() / np.abs(want[:, k]).max()
                assert err <= 1e-12, (type(f).__name__, tau, k, err)

    # the column at which the multipliers converge, the same at both sizes
    @pytest.mark.parametrize("n", [GS_MIN_N, 3200])
    @pytest.mark.parametrize(
        "alpha,tau,head",
        [(1.4, 0.08, 12), (1.4, 1.0, 34), (2.0, 10.0, 55), (1.4, 10.0, None), (2.0, 1600.0, None)],
    )
    def test_tail_or_gs_rule(self, alpha, tau, head, n):
        op = build_operator(alpha, n)
        f = factorize(op, tau * op.h**alpha)
        if head is None:  # J = 136 at alpha = 1.4, tau = 10; no convergence at tau = 1600
            assert isinstance(f, GohbergSemenculFactorization)
        else:
            assert isinstance(f, LUFactorization)
            assert f.lower.shape == (head, head) and head <= TAIL_MAX_J

    @pytest.mark.parametrize("size", [1, 2, 3, 1000, 3000])
    def test_series_inverse_is_the_recurrence(self, size):
        # the O(n^2) coefficient recurrence of 1/l is the reference; for l[1:]
        # <= 0, as the tail's multipliers are, it sums nonnegative terms, and
        # Newton's FFT products may differ by rounding of the largest one
        l = np.ones(size)
        l[1:] = -0.4 * np.arange(1.0, size) ** -2.4
        want = np.zeros(size)
        want[0] = 1.0
        for k in range(1, size):
            want[k] = -np.dot(l[k:0:-1], want[:k])
        got = _series_inverse(l)
        assert got.shape == (size,)
        assert np.abs(got - want).max() <= 8 * np.finfo(float).eps * want.max()

    @pytest.mark.parametrize(
        "alpha,n", [(1.1, GS_MIN_N), (1.4, GS_MIN_N), (1.9, GS_MIN_N), (2.0, GS_MIN_N), (1.9, 3207)]
    )
    def test_resolvent_is_negative_closed_form_inverse(self, alpha, n):
        # cond(M_h) ~ n^alpha: the dense factor misses by as much (1.45e-11 at
        # alpha = 1.9, n = 3200); n = 3207 pads to an FFT length of 6480 > 2n
        g = np.random.default_rng(12).standard_normal(n)
        want = -closed_form_inverse(alpha, n) @ g
        got = resolvent_apply(build_operator(alpha, n), 0.0, grid(alpha, n, g)).values
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    @pytest.mark.parametrize("n", [GS_MIN_N, 3207])
    @pytest.mark.parametrize("alpha", [1.1, 1.4, 1.9, 2.0])
    @pytest.mark.parametrize("scheme", [Scheme.NEW, Scheme.GRUNWALD])
    def test_batched_solve_is_six_fft_formula(self, scheme, alpha, n):
        # the four FFT calls, two of them batched, against the six separate
        # ones, written out; tau = 1600 takes GS at every alpha
        op = build_operator(alpha, n, scheme)
        f = factorize(op, 1600.0 * op.h**alpha)
        assert isinstance(f, GohbergSemenculFactorization)
        size = f.fft_len
        u_yhat, u_zxhat = f.u
        l_x, l_zy = f.l[0], -f.l[1]
        rng = np.random.default_rng(18)
        for b in (rng.standard_normal(n), rng.uniform(0.0, 1.0, n)):
            fb = np.fft.rfft(b, size)
            p = np.fft.irfft(u_yhat * fb, size)[:n]
            q = np.fft.irfft(u_zxhat * fb, size)[:n]
            fpq = l_x * np.fft.rfft(p, size) - l_zy * np.fft.rfft(q, size)
            want = _clip_negative(np.fft.irfft(fpq, size)[:n], b)
            np.testing.assert_array_equal(f.solve(b), want)

    def test_fft_len_is_smallest_5_smooth(self):
        def smooth(k):
            for p in (2, 3, 5):
                while k % p == 0:
                    k //= p
            return k == 1

        for m in range(1, 2000):
            want = next(k for k in range(m, 2 * m + 1) if smooth(k))
            assert _fft_len(m) == want

    def test_size_rule(self):
        op = build_operator(1.4, GS_MIN_N - 1)
        f = factorize(op, 1e-3)
        assert isinstance(f, LUFactorization) and len(f.lower) == f.n

    def test_factorization_is_small(self):
        op = build_operator(1.4, 3200)
        for dt, kind in ((1e-3, GohbergSemenculFactorization), (op.h**1.4, LUFactorization)):
            f = factorize(op, dt)
            assert isinstance(f, kind)
            assert kind is GohbergSemenculFactorization or len(f.lower) < f.n
            held = sum(v.nbytes for v in vars(f).values() if isinstance(v, np.ndarray))
            assert held < 1e6

    @pytest.mark.parametrize("scheme", [Scheme.NEW, Scheme.GRUNWALD])
    def test_figure1_reference_stays_nonnegative(self, scheme, monkeypatch):
        # the Figure-1 reference set-up at t_final = 0.01 (tau = 0.9), through
        # the tail and, with the tail cap at 0, through GS; unprojected, GS
        # leaves negatives here that build up over the 884 steps
        n, alpha, t_final = 3200, 1.4, 0.01
        cfg = EvolutionConfig(
            alpha=alpha, n=n, t_final=t_final, scheme=scheme, dt=(1.0 / 401) ** (alpha + 0.5),
            ic=GaussianIC(0.4, 0.0005),
        )
        op = build_operator(alpha, n, scheme)
        for cap, kind in ((TAIL_MAX_J, LUFactorization), (0, GohbergSemenculFactorization)):
            monkeypatch.setattr(evolution, "TAIL_MAX_J", cap)
            f = factorize(op, cfg.step_dt)
            assert isinstance(f, kind)
            assert kind is GohbergSemenculFactorization or len(f.lower) < n
            for _, u in iter_states(cfg):
                assert u.values.min() >= 0.0

    def test_guard_raises_past_the_rounding_bound(self):
        n = 3200
        b = gaussian_ic(np.arange(1, n + 1) / (n + 1), 0.4, 0.0005)
        v = factorize(build_operator(1.4, n), 1e-3).solve(b)
        bound = GS_CLIP_C * np.finfo(float).eps * math.log2(n) * b.max()
        inside = v.copy()
        inside[7] = -0.5 * bound
        clipped = _clip_negative(inside, b)
        assert clipped.min() == 0.0 and clipped[7] == 0.0
        past = v.copy()
        past[7] = -2.0 * bound
        with pytest.raises(NumericalError):
            _clip_negative(past, b)
        # b with negative entries: A^-1 b may be negative, the result is kept
        signed = past.copy()
        np.testing.assert_array_equal(_clip_negative(signed, -b), past)


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


class TestEvolve:
    def test_zero_time(self):
        cfg = EvolutionConfig(alpha=1.5, n=20, t_final=0.0)
        np.testing.assert_array_equal(evolve(cfg).values, initial_grid(cfg).values)
        [(t0, u0)] = iter_states(cfg)
        assert t0 == 0.0
        np.testing.assert_array_equal(u0.values, initial_grid(cfg).values)

    def test_step_count_lands_on_t_final(self):
        cfg = EvolutionConfig(alpha=1.5, n=20, t_final=0.01, dt=0.003)
        times = [t for t, _ in iter_states(cfg)]
        assert times[-1] == pytest.approx(0.01, abs=1e-15)
        assert len(times) == 5  # ceil(0.01/0.003) = 4 steps

    def test_iter_states_matches_evolve(self):
        cfg = EvolutionConfig(alpha=1.4, n=20, t_final=0.01, dt=0.002)
        states = list(iter_states(cfg))
        assert len(states) == 6
        times, grids = zip(*states)
        np.testing.assert_allclose(times, np.arange(6) * 0.002, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(grids[-1].values, evolve(cfg).values)

    @pytest.mark.parametrize("n", [GS_MIN_N - 1, GS_MIN_N])
    def test_evolve_is_last_state(self, n):
        # the dense factor below GS_MIN_N, the Toeplitz tail (tau = 1) from it on
        cfg = EvolutionConfig(alpha=1.4, n=n, t_final=0.01, ic=EigenfunctionIC())
        final = evolve(cfg)
        assert isinstance(final, GridFunction)
        *_, (t_last, u_last) = iter_states(cfg)
        assert t_last == pytest.approx(0.01, abs=1e-15)
        np.testing.assert_array_equal(final.values, u_last.values)

    def test_norm_monotone_decay(self):
        cfg = EvolutionConfig(alpha=1.3, n=60, t_final=0.05)
        grids = [u for _, u in iter_states(cfg)]
        assert np.all(np.diff([u.sup_norm() for u in grids]) <= 1e-14)
        assert np.all(np.diff([u.l1_norm() for u in grids]) <= 1e-14)

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
        f = factorize(build_operator(2.0, n), dt)
        u = GridFunction(alpha=2.0, n=n, values=u0)
        for _ in range(round(t_final / dt)):
            v = np.linalg.solve(a, v)
            u = step(f, u)
        np.testing.assert_allclose(u.values, v, atol=1e-11)

    def test_scheme_selection_changes_result(self):
        kw = dict(alpha=1.4, n=50, t_final=0.01)
        a = evolve(EvolutionConfig(scheme=Scheme.NEW, **kw))
        b = evolve(EvolutionConfig(scheme=Scheme.GRUNWALD, **kw))
        assert np.abs(a.values - b.values).max() > 1e-6

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

    def test_step_budget(self):
        assert step_count(1.0, 1.0 / MAX_STEPS) == MAX_STEPS
        with pytest.raises(DomainError, match="exceeds"):
            step_count(1.0, 0.5 / MAX_STEPS)
        with pytest.raises(DomainError):
            step_count(0.1, 1e-30)

    # the config derives its schedule when built, so the refusals fire there
    def test_overflowing_config_is_a_domain_error(self):
        with pytest.raises(DomainError, match="is not finite"):
            EvolutionConfig(alpha=1.5, n=10, t_final=1e308, dt=1e-308)
        with pytest.raises(DomainError, match="exceeds"):
            EvolutionConfig(alpha=1.5, n=10, t_final=1.0, dt=0.5 / MAX_STEPS)

    # t_final/(t_final/K) rounds to K(1 + d) with |d| up to about eps, which a
    # fixed 1e-12 no longer covers from K = 18,749 at t_final = 0.01 on
    @pytest.mark.parametrize("t_final", [0.01, 0.05, 0.33, 1.0, 1.42, 7.3, 300.0])
    def test_snap_is_idempotent(self, t_final):
        rng = np.random.default_rng(16)
        ks = [18_749, *range(18_000, 20_000), *rng.integers(1, MAX_STEPS, 2_000, endpoint=True)]
        bad = [k for k in map(int, ks) if step_count(t_final, t_final / k) != k]
        assert bad == []


class TestSchedule:
    def test_derived_from_target_step(self):
        cfg = EvolutionConfig(alpha=1.5, n=20, t_final=0.01, dt=0.003)
        assert (cfg.steps, cfg.step_dt) == (4, 0.01 / 4)
        default = EvolutionConfig(alpha=1.5, n=20, t_final=0.01)
        assert default.steps == step_count(0.01, default.h**1.5)

    def test_zero_time_has_no_steps(self):
        cfg = EvolutionConfig(alpha=1.5, n=20, t_final=0.0, dt=0.003)
        assert (cfg.steps, cfg.step_dt) == (0, 0.0)

    def test_schedule_cannot_be_passed_in(self):
        with pytest.raises(TypeError):
            EvolutionConfig(alpha=1.5, n=20, t_final=0.01, steps=3)
        cfg = EvolutionConfig(alpha=1.5, n=20, t_final=0.01)
        with pytest.raises(ValueError):
            replace(cfg, step_dt=0.001)

    def test_shared_by_every_size(self):
        base = EvolutionConfig(alpha=1.4, n=50, t_final=0.33, dt=(1.0 / 401) ** 1.9)
        schedules = {(c.steps, c.step_dt) for c in (replace(base, n=n) for n in (50, 100, 3207))}
        assert schedules == {(base.steps, base.step_dt)}

    # rebuilding a config from its own step keeps its step count
    @pytest.mark.parametrize("alpha", [1.1, 1.4, 1.75, 2.0])
    @pytest.mark.parametrize("t_final", [0.01, 0.33, 1.42])
    def test_rebuilt_from_own_step(self, alpha, t_final):
        for n in range(3, 400, 7):
            cfg = EvolutionConfig(alpha=alpha, n=n, t_final=t_final)
            assert replace(cfg, dt=cfg.step_dt).steps == cfg.steps, n
