import hashlib
import math
import re
import subprocess
import sys
import textwrap
import warnings
from dataclasses import replace

import numpy as np
import pytest
from conftest import child_env
import scipy.linalg
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
    evolution,
    evolve,
    factorize,
    initial_grid,
    iter_states,
    resolvent_apply,
    step,
)
from fracheat.errors import NumericalError
from fracheat.evolution import (
    FFT_CLIP_C,
    FFT_MIN_N,
    FOLD_MIN,
    FINITE_CHECK_STEPS,
    MAX_STEPS,
    LUFactorization,
    ToeplitzFactorization,
    _clip_negative,
    _factor_toeplitz,
    _rfft,
    _series_inverse,
    _symbol_root,
    step_count,
)
from fracheat.operators import OperatorMatrix
from fracheat.reference import gaussian_ic
from fracheat.weights import WeightSequence

# the sizes on either side of FFT_MIN_N, with ids that name their role, so
# that moving the constant renames no test
FIRST_FFT = pytest.param(FFT_MIN_N, id="first-fft-size")
LAST_DENSE = pytest.param(FFT_MIN_N - 1, id="last-dense-size")


def grid(alpha, n, values):
    return GridFunction(alpha=alpha, n=n, values=np.asarray(values, dtype=float))


def full_elimination(op, sigma, tau):
    """L, U's pivots and the fixed-point column of sigma*I - tau*T's elimination without pivoting, every
    column divided out. The fixed point is the first column before the last whose multipliers are the
    previous column's shifted down by one, bit for bit (None if there is none)."""
    n, w = op.n, op.weights.w
    sup = -tau * w[0]
    base = -tau * w[1 : n + 1]
    base[0] += sigma
    lower, pivots, fixed = np.eye(n), np.empty(n), None
    col = base.copy()
    for j in range(n):
        pivots[j] = col[0]
        lower[j + 1 :, j] = col[1:] / col[0]
        if fixed is None and 0 < j < n - 1 and np.array_equal(lower[j + 1 :, j], lower[j : n - 1, j - 1]):
            fixed = j
        col = base[: n - 1 - j] - lower[j + 1 :, j] * sup
    return lower, pivots, fixed


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

    @pytest.mark.parametrize("alpha", [1.01, 1.4, 1.9, 2.0])
    @pytest.mark.parametrize("scheme", [Scheme.NEW, Scheme.GRUNWALD])
    def test_early_stop_is_the_full_elimination_bit_for_bit(self, scheme, alpha):
        # the elimination stops at the column whose multipliers repeat the last
        # column's shifted down by one, and copies the rest: the same L and pivots
        for n in (3, 8, 50, 401, FFT_MIN_N - 1):
            op = build_operator(alpha, n, scheme)
            for sigma, tau in ((1.0, 0.01), (1.0, 1.0), (1.0, 10.0), (1.0, 1600.0), (0.0, 1.0), (1e-3, 1.0)):
                lower, pivots, _ = full_elimination(op, sigma, tau)
                f = evolution._factor_shifted(op, sigma, tau)
                np.testing.assert_array_equal(f.lower, lower, err_msg=f"{n=}, {sigma=}, {tau=}")
                np.testing.assert_array_equal(f.banded[1], pivots, err_msg=f"{n=}, {sigma=}, {tau=}")

    def test_set_up_bits_held(self):
        # every ndarray field of 224 factorizations, pinned: the LU (n = 50, 599), and the U = I side
        # (resolvent lam = 0), the kept side and the folded side of the ToeplitzFactorization (n = 600, 1201)
        digest = hashlib.sha256()
        for scheme in Scheme:
            for alpha in (1.1, 1.4, 1.9, 2.0):
                for n in (50, FFT_MIN_N - 1, FFT_MIN_N, 1201):
                    op = build_operator(alpha, n, scheme)
                    fs = [factorize(op, tau * op.h**alpha) for tau in (0.08, 1.0, 1600.0, 1e6)]
                    fs += [evolution._factor_shifted(op, lam, 1.0 / op.h**alpha) for lam in (0.0, 1e-9, 1e-3)]
                    for f in fs:
                        for name, value in sorted(vars(f).items()):
                            if isinstance(value, np.ndarray):
                                digest.update(name.encode())
                                digest.update(value.tobytes())
        assert digest.hexdigest() == "721d956abcaddd8124f86b08146fb48d3e0f80f280744a94f3ffce1c00446eb2"

    @pytest.mark.parametrize("tau, column", [(401**-0.5, 14), (1.0, 50), (10.0, 202), (1600.0, None)])
    def test_fixed_point_column(self, tau, column):
        # at n = 400 (alpha = 1.4, new scheme): figure1_comparison's tau on its
        # finest grid, and 1, 10 and 1600, where no column before the last repeats
        assert full_elimination(build_operator(1.4, 400), 1.0, tau)[2] == column

    def test_pivots_at_least_one(self):
        op = build_operator(1.4, 64)
        f = factorize(op, 1e-3)
        assert np.all(f.banded[1] >= 1.0)

    def test_rejects_nonpositive_dt(self):
        op = build_operator(1.4, 8)
        with pytest.raises(DomainError):
            factorize(op, 0.0)

    # both sides of FFT_MIN_N: a NaN or infinite step once gave a factor full of NaN
    @pytest.mark.parametrize("n", [8, FIRST_FFT])
    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_dt(self, n, dt):
        op = build_operator(1.4, n)
        f = factorize(op, op.h**1.4)  # tau = 1: the dense LU, or the Toeplitz factorization from FFT_MIN_N on
        assert isinstance(f, LUFactorization if n < FFT_MIN_N else ToeplitzFactorization)
        with pytest.raises(DomainError, match=f"got {dt!r}"):
            factorize(op, dt)

    # a finite dt whose shift tau = dt/h^alpha, or the diagonal 1 + tau*|w_1| it sets, overflows: the
    # elimination once divided by an infinite pivot, a RuntimeWarning first and an LU of nan after it.
    # At alpha = 2, n = 3 the shift 1.6e308 is finite and only the diagonal 2*tau overflows
    @pytest.mark.parametrize(
        "alpha, n, dt", [(1.5, 8, 1e308), pytest.param(1.4, FFT_MIN_N, 1e305, id="first-fft-size"), (2.0, 3, 1e307)]
    )
    def test_rejects_an_overflowing_shift(self, alpha, n, dt):
        op = build_operator(alpha, n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=re.escape(f"dt={dt!r} at n={n} overflows the diagonal")):
                factorize(op, dt)
            # a dt whose diagonal is half the largest float still factors and solves, to finite values
            tau = np.finfo(float).max / 2.0 / -op.weights.w[1]
            f = factorize(op, tau * op.h**alpha)
            v = step(f, grid(alpha, op.n, np.ones(op.n))).values
        assert np.isfinite(v).all() and (v >= 0.0).all()


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

    @pytest.mark.parametrize("n", [3, 4, 50, 400, LAST_DENSE])
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
        f = LUFactorization(op=build_operator(1.5, n), lower=np.eye(n), banded=banded)
        with pytest.raises(NumericalError, match="info=3"):
            f.solve(np.ones(n))

    def test_kernels_take_the_flags_in_the_order_the_solves_pass_them(self):
        # the solves pass trtrs (lower, trans, unitdiag) and tbtrs (uplo, trans,
        # diag, overwrite_b) positionally: a scipy whose f2py signatures order
        # them otherwise would solve another system without an error
        def optional(kernel, name):
            first_line = kernel.__doc__.splitlines()[0]
            return re.fullmatch(rf"x,info = {name}\(\w+,b,\[([\w,]+)\]\)", first_line).group(1).split(",")

        assert optional(evolution._flapack.dtrtrs, "dtrtrs")[:3] == ["lower", "trans", "unitdiag"]
        assert optional(evolution._flapack.dtbtrs, "dtbtrs")[:4] == ["uplo", "trans", "diag", "overwrite_b"]

    @pytest.mark.parametrize("n", [3, 50, 400, LAST_DENSE, FIRST_FFT, 3200])
    def test_held_bytes_by_representation(self, n):
        # below FFT_MIN_N the LU holds n^2 + 2n doubles, all of L and U's band.
        # From it on the Toeplitz factorization holds r (n + 1) and the spectrum
        # (fft_len/2 + 1 complex), and by the side its solve takes
        # - folded (tau = 1): s beside -f (2n) and the m <= n powers z0^k that do not underflow;
        # - kept (tau = 1e6, z0 within FOLD_MIN/fft_len of 1): U's band (2n) and s (n);
        # - U = I (the resolvent at lam = 0): s (n) alone
        op = build_operator(1.4, n)
        f = factorize(op, op.h**1.4)
        held = lambda f: sum(v.nbytes for v in vars(f).values() if isinstance(v, np.ndarray))
        if n < FFT_MIN_N:
            assert isinstance(f, LUFactorization) and f.lower.shape == (n, n)
            assert held(f) == n * n * 8 + 2 * n * 8
            return
        assert isinstance(f, ToeplitzFactorization) and f.fft_len >= 2 * n
        spectrum = (f.fft_len // 2 + 1) * 16
        m = f.powers.size
        assert f.band is None and f.s.shape == (n, 2) and np.all(f.powers > 0.0)
        assert m == n or f.powers[-1] < 1e-320  # cut where z0^k underflows to 0
        assert held(f) == (3 * n + 1 + m) * 8 + spectrum
        kept = factorize(op, 1e6 * op.h**1.4)
        assert kept.powers is None and kept.band.shape == (2, n) and kept.s.shape == (n,)
        assert held(kept) == (4 * n + 1) * 8 + spectrum
        identity = evolution._factor_shifted(op, 0.0, 1.0 / op.h**1.4)
        assert identity.powers is None and identity.band is None
        assert held(identity) == (2 * n + 1) * 8 + spectrum

    @pytest.mark.parametrize("n", [LAST_DENSE, FIRST_FFT])
    def test_solves_leave_their_input_alone(self, n):
        # the dense LU, and the Toeplitz factorization's root-divided (the step)
        # and sigma = 0 (the resolvent) set-ups; tbtrs solves in place, so only
        # its own copy may change
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

    def test_overflowing_solve_is_numerical_error(self):
        # finite data whose L-solve overflows, through step and through evolve
        cfg = EvolutionConfig(alpha=1.5, n=8, t_final=1.0, dt=0.5, ic=PowerLawIC(a=1e308, b=1e308))
        f = factorize(build_operator(1.5, 8), cfg.step_dt)
        for run in (lambda: step(f, initial_grid(cfg)), lambda: evolve(cfg)):
            with pytest.raises(NumericalError, match=r"finite grid \(n=8\) overflowed"):
                run()

    def test_overflowing_fft_solve_is_only_refused(self):
        # at n >= FFT_MIN_N the overflowed tbtrs result went through numpy's FFT
        # and multiply, which warned before the refusal (a RuntimeWarning under "error"):
        # the march, one step, and resolvents at lam = 0 and 2, each a Toeplitz solve
        cfg = EvolutionConfig(alpha=1.5, n=1000, t_final=1.0, dt=0.5, ic=PowerLawIC(a=1e308))
        op = build_operator(1.5, 1000)
        g = grid(1.5, 1000, np.full(1000, 1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for run in (
                lambda: evolve(cfg),
                lambda: list(iter_states(cfg)),
                lambda: step(factorize(op, cfg.step_dt), g),
                lambda: resolvent_apply(op, 0.0, g),
                lambda: resolvent_apply(op, 2.0, g),
            ):
                with pytest.raises(NumericalError, match=r"finite grid \(n=1000\) overflowed"):
                    run()

    def test_dimension_guard(self):
        op = build_operator(1.5, 16)
        f = factorize(op, 1e-3)
        with pytest.raises(DomainError):
            step(f, grid(1.5, 8, np.zeros(8)))

    @pytest.mark.parametrize("n", [10, FIRST_FFT])
    def test_alpha_guard(self, n):
        # a factorization carries its operator, so a grid of another alpha is
        # refused, not returned under its own label
        op = build_operator(1.4, n)
        f = factorize(op, 1e-3)
        assert f.op is op
        with pytest.raises(DomainError, match="operator alpha=1.4, grid alpha=1.9"):
            step(f, grid(1.9, n, np.ones(n)))
        with pytest.raises(DomainError, match=f"dimension mismatch: operator n={n}, grid n={n + 1}"):
            step(f, grid(1.4, n + 1, np.ones(n + 1)))


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


# a dense (n = 50) and a Toeplitz-factorization (n = FFT_MIN_N + 100) solve at
# tau = 0.7, saved to argv[1] under the path each took
SOLVES = textwrap.dedent("""
    import sys
    import numpy as np
    from fracheat import build_operator, factorize
    from fracheat.evolution import FFT_MIN_N, ToeplitzFactorization

    rng = np.random.default_rng(19)
    got = {}
    for n in (50, FFT_MIN_N + 100):
        op = build_operator(1.4, n)
        f = factorize(op, 0.7 * op.h**1.4)
        path = "fft" if isinstance(f, ToeplitzFactorization) else "dense"
        got[path] = f.solve(rng.uniform(0.0, 1.0, n))
    np.savez(sys.argv[1], **got)
    print(*got, "scipy.linalg" in sys.modules, "scipy.fft" in sys.modules)
""")


# the loading contract in its order, in one fresh interpreter: each stage prints what
# is loaded after it, the scipy modules and the extensions behind evolution's two
# objects, which become plain modules when loaded (an extension loaded from its file
# is not kept in sys.modules); the CLI writes to argv[2], SOLVES saves to argv[1]
CONTRACT = textwrap.dedent("""
    import sys
    import fracheat, fracheat.cli
    from fracheat import evolution
    from fracheat.evolution import FFT_MIN_N

    def loaded():
        modules = [m for m in ("scipy", "scipy.linalg", "scipy.linalg._flapack", "scipy.fft") if m in sys.modules]
        extensions = (("_flapack", evolution._flapack), ("pypocketfft", evolution._pocketfft))
        return modules + [name for name, e in extensions if not isinstance(e, evolution._Extension)]

    print("import", loaded())
    for argv in (["eigen"], ["weights", "--n", "8"], ["consistency"], ["solve", "--n", "8", "--t-final", "0"]):
        assert fracheat.cli.main([*argv, "--out", sys.argv[2]]) == 0, argv
        print(argv[0], loaded())
    for n in (8, FFT_MIN_N):
        assert fracheat.cli.main(["solve", "--n", str(n), "--t-final", "0.01", "--out", sys.argv[2]]) == 0, n
        print("solve", n, loaded())
""")

# the kernels are scipy's own objects, the ones its packages use; run last, as it imports them
IDENTITY = textwrap.dedent("""
    import scipy.linalg
    from scipy.linalg import _flapack, get_lapack_funcs, solve_banded, solve_triangular

    assert evolution._flapack.dtrtrs is scipy.linalg.lapack.dtrtrs
    assert evolution._flapack.dtbtrs is scipy.linalg.lapack.dtbtrs
    trtrs, tbtrs = get_lapack_funcs(("trtrs", "tbtrs"), dtype=np.float64)
    assert trtrs is evolution._flapack.dtrtrs and tbtrs is evolution._flapack.dtbtrs
    assert scipy.linalg._flapack is _flapack and _flapack.dtrtrs is evolution._flapack.dtrtrs
    np.testing.assert_array_equal(solve_triangular([[2.0, 0.0], [1.0, 4.0]], [2.0, 9.0], lower=True), [1.0, 2.0])
    np.testing.assert_array_equal(solve_banded((0, 1), [[0.0, 1.0], [2.0, 4.0]], [4.0, 8.0]), [1.0, 2.0])
    print("LAPACK kernels are scipy's own")

    import scipy.fft
    from scipy.fft._pocketfft import pypocketfft

    assert evolution._pocketfft.r2c is pypocketfft.r2c and evolution._pocketfft.c2r is pypocketfft.c2r
    assert evolution._pocketfft.good_size is pypocketfft.good_size
    assert scipy.fft._pocketfft.pypocketfft is pypocketfft
    np.testing.assert_array_equal(scipy.fft.irfft(scipy.fft.rfft([1.0, 2.0, 3.0, 4.0])), [1.0, 2.0, 3.0, 4.0])
    print("FFT kernels are scipy's own")
""")


class TestLapackLoader:
    """The kernels load from scipy's extensions, not its packages: _flapack at the first
    dense solve or Toeplitz set-up, pypocketfft at the first Toeplitz set-up."""

    @pytest.fixture(scope="class")
    def contract(self, tmp_path_factory):
        # one child runs every ordered check; the tests below read its lines
        path = tmp_path_factory.mktemp("contract")
        out = run_child(CONTRACT + SOLVES + IDENTITY, str(path / "normal.npz"), str(path / "out.csv"))
        return out.splitlines(), path / "normal.npz"

    def test_runs_that_never_factor_import_no_scipy(self, contract):
        # the kernels load at the first solve; import and these commands never factor
        assert contract[0][:5] == ["import []", "eigen []", "weights []", "consistency []", "solve []"]

    def test_cli_solve_imports_neither_scipy_linalg_nor_fft(self, contract):
        # a later import in src/ that brings either back shows here, on the dense
        # path and on the Toeplitz factorization's FFT path; only the latter loads pocketfft
        assert contract[0][5:7] == [
            "solve 8 ['_flapack']",
            f"solve {FFT_MIN_N} ['_flapack', 'pypocketfft']",
        ]

    def test_kernels_are_scipys_own(self, contract):
        assert "LAPACK kernels are scipy's own" in contract[0]

    def test_fft_kernels_are_scipys_own(self, contract):
        assert "FFT kernels are scipy's own" in contract[0]

    def test_fallback_returns_the_packages_module(self, monkeypatch):
        # a finder that finds no extension file sends the loader to the package:
        # scipy.linalg for LAPACK, scipy.fft._pocketfft for pocketfft
        class Blind:
            def __init__(self, path, *loaders):
                pass

            def find_spec(self, name):
                asked.append(name)

        asked = []
        factorize(build_operator(1.4, FFT_MIN_N), 1e-3)  # the first set-up loads both extensions' kernels
        monkeypatch.setattr(evolution, "FileFinder", Blind)
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        module = evolution._load_extension("scipy.linalg._flapack")
        assert asked == ["scipy.linalg._flapack"]
        assert module is scipy.linalg._flapack
        assert module.dtrtrs is evolution._flapack.dtrtrs and module.dtbtrs is evolution._flapack.dtbtrs
        monkeypatch.delitem(sys.modules, "scipy.fft._pocketfft.pypocketfft", raising=False)
        module = evolution._load_extension("scipy.fft._pocketfft.pypocketfft")
        assert asked == ["scipy.linalg._flapack", "scipy.fft._pocketfft.pypocketfft"]
        assert module is sys.modules["scipy.fft._pocketfft"].pypocketfft
        assert module.r2c is evolution._pocketfft.r2c and module.c2r is evolution._pocketfft.c2r

    def test_fallback_on_a_file_that_does_not_load(self, monkeypatch):
        # an extension file that raises ImportError as it loads, as one does on Windows
        # before scipy/__init__ adds its DLL directories, sends the loader to the package
        import scipy.fft  # both packages imported first: the patch refuses every extension file

        refused = []

        def refuse(self, module):
            refused.append(module.__name__)
            raise ImportError(f"DLL load failed while importing {module.__name__}")

        factorize(build_operator(1.4, FFT_MIN_N), 1e-3)  # the first set-up loads both extensions' kernels
        monkeypatch.setattr(evolution.ExtensionFileLoader, "exec_module", refuse)
        for loaded, kernels in ((evolution._flapack, ("dtrtrs", "dtbtrs")), (evolution._pocketfft, ("r2c", "c2r"))):
            name = loaded.__name__
            package, _, extension = name.rpartition(".")
            monkeypatch.delitem(sys.modules, name, raising=False)
            module = evolution._load_extension(name)
            assert refused[-1] == name  # the file was found, and its load refused
            assert module is getattr(sys.modules[package], extension) and name not in sys.modules
            for kernel in kernels:
                assert getattr(module, kernel) is getattr(loaded, kernel)

    def test_fallback_through_scipy_linalg_solves_the_same(self, contract, tmp_path):
        # a finder that knows no extension suffix sends the loader through
        # scipy.linalg for LAPACK and scipy.fft for pocketfft; the import
        # system's own finders keep theirs
        blind = "import importlib.machinery\nimportlib.machinery.EXTENSION_SUFFIXES = []\n"
        blind_path = tmp_path / "blind.npz"
        kinds = "dense fft"
        assert contract[0][7] == f"{kinds} False False"
        assert run_child(blind + SOLVES, str(blind_path)) == f"{kinds} True True\n"
        with np.load(contract[1]) as normal, np.load(blind_path) as fallback:
            for kind in kinds.split():
                np.testing.assert_array_equal(fallback[kind], normal[kind])


class TestResolvent:
    @pytest.mark.parametrize("lam", [0.0, 2.0])
    def test_grid_guard(self, lam):
        op = build_operator(1.4, 8)
        with pytest.raises(DomainError, match="operator alpha=1.4, grid alpha=1.9"):
            resolvent_apply(op, lam, grid(1.9, 8, np.ones(8)))
        with pytest.raises(DomainError, match="dimension mismatch: operator n=8, grid n=9"):
            resolvent_apply(op, lam, grid(1.4, 9, np.ones(9)))

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

    @pytest.mark.parametrize("scheme", [Scheme.NEW, Scheme.GRUNWALD])
    @pytest.mark.parametrize("n,lam", [(FFT_MIN_N, 1e-12), (3200, 1e-12), (3200, 1e-9)])
    def test_tiny_shift_at_alpha_two_solves(self, scheme, n, lam, monkeypatch):
        # lam below half an ulp of p_1 vanishes when the diagonal is formed, so the
        # matrix is the lam = 0 one to the last bit; its symbol's root is 1 at
        # alpha = 2, and the root search refused it. The oracle is the pivot-free LU
        # forced past FFT_MIN_N (the worst read 3.9e-13)
        op = build_operator(2.0, n, scheme)
        g = np.random.default_rng(22).standard_normal(n)
        got = resolvent_apply(op, lam, grid(2.0, n, g)).values
        monkeypatch.setattr(evolution, "FFT_MIN_N", n + 1)
        want = evolution._factor_shifted(op, lam, 1.0 / op.h**2.0).solve(g)
        assert np.abs(got - want).max() <= 2e-12 * np.abs(want).max()

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_rejects_non_finite_lambda(self, lam):
        op = build_operator(1.5, 8)
        with pytest.raises(DomainError, match=f"got {lam!r}"):
            resolvent_apply(op, lam, grid(1.5, 8, np.zeros(8)))

    @pytest.fixture
    def unfactored(self, monkeypatch):
        """A grid that resolvent_apply refuses is refused before lam*I - M_h is factored."""

        def factor(*args):
            raise AssertionError("factored before the grid was checked")

        monkeypatch.setattr(evolution, "_factor_shifted", factor)

    def test_rejects_grid_of_another_size(self, unfactored):
        op = build_operator(1.5, 8)
        with pytest.raises(DomainError, match="operator n=8, grid n=9"):
            resolvent_apply(op, 1.0, grid(1.5, 9, np.zeros(9)))

    def test_rejects_grid_of_another_alpha(self, unfactored):
        op = build_operator(1.4, 8)
        with pytest.raises(DomainError, match="operator alpha=1.4, grid alpha=1.9"):
            resolvent_apply(op, 1.0, grid(1.9, 8, np.zeros(8)))


class TestToeplitzFactorization:
    """The n >= FFT_MIN_N solver against dense and closed-form oracles."""

    @pytest.mark.parametrize("n", [FIRST_FFT, 3200])
    @pytest.mark.parametrize("alpha", [1.1, 1.4, 1.9, 2.0])
    @pytest.mark.parametrize("scheme", [Scheme.NEW, Scheme.GRUNWALD])
    def test_step_matches_dense_solve(self, scheme, alpha, n, monkeypatch):
        # tau = 0.08, 10 and 1600 put the symbol's root near 0.07, 0.8 and 0.99.
        # The oracle is np.linalg.solve on op.dense() at n = FFT_MIN_N and for
        # one case at n = 3200, where the pivot-free LU, forced past FFT_MIN_N,
        # must agree with it too; the other n = 3200 cases read that LU, whose
        # elimination stops at its fixed point (0.2 s against 1.6 s a case).
        # Over all eight, the LU's worst error against np.linalg.solve read
        # 2.2e-13 (new, alpha = 1.4) and the Toeplitz solve's against the LU
        # 2.3e-13 (grunwald, alpha = 2). Each case takes the side its own root
        # picks: U^-1 folded into the spectrum where fft_len*(1 - z0) >= FOLD_MIN,
        # tbtrs elsewhere. At alpha = 2 the resolvents at lam = 1e-9 and 1e-3 sit
        # within FOLD_MIN/fft_len of z0 = 1 and keep tbtrs (lam = 1e-9 at n = 3200
        # rounds away, U = I). lam - M_h has the condition number (lam + 4/h^2)/8
        # there, 1.8e5 and 5.1e6, and the Toeplitz solve is held to eps times it:
        # the worst read 0.1 of that (new, lam = 1e-9 at n = 600 and 1e-3 at 3200),
        # where the LU errs by 6e-13
        rng = np.random.default_rng(10)
        op = build_operator(alpha, n, scheme)
        dense = n == FFT_MIN_N or (scheme, alpha) == (Scheme.NEW, 1.4)
        m = op.dense() if dense else None
        b = np.column_stack([rng.standard_normal(n), rng.uniform(0.0, 1.0, n)])
        cases = [(1.0, tau * op.h**alpha, tau) for tau in (0.08, 10.0, 1600.0)]  # sigma, dt, tau: sigma*I - dt*M_h
        if alpha == 2.0:
            cases += [(lam, 1.0, 1.0 / op.h**2) for lam in (1e-9, 1e-3)]
        for sigma, dt, tau in cases:
            factor = lambda: factorize(op, dt) if sigma == 1.0 else evolution._factor_shifted(op, sigma, tau)
            f = factor()
            assert isinstance(f, ToeplitzFactorization)
            p = -tau * op.weights.w[: n + 1]
            if p[1] + sigma == p[1]:
                assert f.band is None and f.powers is None, (sigma, tau)  # U = I
            else:
                p[1] += sigma
                folded = f.fft_len * (1.0 - _symbol_root(p)[0]) >= FOLD_MIN
                assert folded == (f.powers is not None) == (f.band is None), (sigma, tau)
                assert sigma == 1.0 or not folded, (sigma, tau)
            with monkeypatch.context() as patched:
                patched.setattr(evolution, "FFT_MIN_N", n + 1)
                lu = factor()
            assert isinstance(lu, LUFactorization)
            want = np.column_stack([lu.solve(b[:, k]) for k in range(b.shape[1])])
            if dense:
                a = m * -dt  # I - dt*M_h, one n x n temporary
                a.flat[:: n + 1] += sigma
                exact = np.linalg.solve(a, b)
                err = np.abs(want - exact).max(0) / np.abs(exact).max(0)
                assert np.all(err <= 1e-12), (tau, "lu", err)
                want = exact
            bound = 1e-12 if sigma == 1.0 else np.finfo(float).eps * (sigma + 4.0 / op.h**2) / 8.0
            for k in range(b.shape[1]):
                got = step(f, grid(alpha, n, b[:, k])).values
                err = np.abs(got - want[:, k]).max() / np.abs(want[:, k]).max()
                assert err <= bound, (sigma, tau, k, err)

    @pytest.mark.parametrize("alpha", [1.1, 1.4, 1.9, 2.0])
    @pytest.mark.parametrize("scheme", [Scheme.NEW, Scheme.GRUNWALD])
    def test_root_division_is_exact(self, scheme, alpha):
        # A = U T(q) - z0 e_{n-1} r^T, U = I - z0 Z^T, r_j = q_{n-j}, to rounding,
        # at sigma = 1 and at the resolvent's sigma = 0; there Rouche's condition
        # fails at alpha = 2, where the symbol's root is 1, so sigma = 0 takes
        # the series of 1/w instead
        n = FFT_MIN_N
        op = build_operator(alpha, n, scheme)
        t = op.dense() * op.h**alpha
        for sigma, tau in [(1.0, 0.08), (1.0, 1.0), (1.0, 10.0), (1.0, 1600.0), (0.0, 1.0 / op.h**alpha)]:
            p = -tau * op.weights.w[: n + 1]
            p[1] += sigma
            if sigma == 0.0 and alpha == 2.0:
                with pytest.raises(NumericalError, match="no single root"):
                    _symbol_root(p)
                continue
            z0, q, _ = _symbol_root(p)
            tq = np.zeros((n, n))
            for k in range(n):
                tq[k:, k] = q[: n - k]
            factored = tq.copy()
            factored[:-1] -= z0 * tq[1:]  # U T(q)
            factored[-1, 1:] -= z0 * q[:0:-1]
            a = sigma * np.eye(n) - tau * t
            res = np.abs(factored - a).max() / np.abs(a).max()
            assert res <= 4 * np.finfo(float).eps, (sigma, tau, res)

    @pytest.mark.parametrize("alpha", [1.1, 1.4, 1.9, 2.0])
    @pytest.mark.parametrize("scheme", [Scheme.NEW, Scheme.GRUNWALD])
    def test_root_in_unit_interval_and_inverse_quotient_nonnegative(self, scheme, alpha):
        # w_1 < 0 <= w_k otherwise make q_0 = -p_0/z0 > 0 >= q_k exactly, and the
        # series inverse sums terms of one sign, so 1/q >= 0 with no exception
        n = FFT_MIN_N
        op = build_operator(alpha, n, scheme)
        for tau in (0.08, 1.0, 10.0, 1600.0):
            p = -tau * op.weights.w[: n + 1]
            p[1] += 1.0
            z0, q, _ = _symbol_root(p)
            assert 0.0 < z0 < 1.0
            assert q[0] == -p[0] / z0 and np.all(q[1:] <= 0.0)
            inv = _series_inverse(q / q[0]) / q[0]
            assert inv.min() >= 0.0, (tau, inv.min())

    @pytest.mark.parametrize("alpha", [1.1, 1.4, 1.9, 2.0])
    @pytest.mark.parametrize("scheme", [Scheme.NEW, Scheme.GRUNWALD])
    def test_set_up_matches_a_40_digit_oracle_entry_by_entry(self, scheme, alpha, monkeypatch):
        # the oracle divides the float p by z - z0 in 40 digits, for the set-up's own
        # root z0, then forms 1/q by its recurrence, u and s; z0 itself is checked
        # against the 40-digit root. Every entry of 1/q (read where the set-up
        # transforms it) and of s above 1e-300 is within 1e-13 relative: the worst
        # read 1.2e-14 and 1.9e-15, where FFT products erred by up to 7e114
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp
        n = 100
        op = build_operator(alpha, n, scheme)
        transformed = []
        rfft = evolution._rfft
        monkeypatch.setattr(evolution, "_rfft", lambda a, size: transformed.append(a) or rfft(a, size))
        for tau in (0.08, 1.0, 10.0, 1600.0):
            p = -tau * op.weights.w[: n + 1]
            f = _factor_toeplitz(op, 1.0, tau, p.copy())
            p[1] += 1.0
            z0 = _symbol_root(p)[0]
            with mp.workdps(40):
                p = [mp.mpf(float(v)) for v in p]
                z = root = mp.mpf(z0)
                for _ in range(5):
                    value, slope = mp.polyval(p[::-1], root, derivative=True)
                    root -= value / slope
                assert abs(z - root) <= 1e-14 * root, tau
                q = [p[n]]
                for k in range(n - 1, 0, -1):
                    q.insert(0, p[k] + z * q[0])
                h = [1 / q[0]]
                for k in range(1, n):
                    h.append(-mp.fdot(q[1 : k + 1], h[::-1]) / q[0])
                partial = np.cumsum([v * z**m for m, v in enumerate(h)])  # 40-digit running sums
                u = [z ** (n - 1 - i) * v for i, v in enumerate(partial)]
                s = [z * v / (1 - z * mp.fdot(q[:0:-1], u[1:])) for v in u]
            for got, want in ((transformed.pop()[:n], h), (f.s if f.powers is None else f.s[:, 0], s)):
                want = np.array(want, dtype=float)
                assert got.min() >= 0.0, tau
                shown = want > 1e-300
                assert np.all(np.abs(got - want)[shown] <= 1e-13 * want[shown]), tau

    @pytest.mark.parametrize("alpha", [1.1, 1.4, 1.9, 2.0])
    @pytest.mark.parametrize("scheme", [Scheme.NEW, Scheme.GRUNWALD])
    def test_folded_set_up_matches_direct_sums(self, scheme, alpha, monkeypatch):
        # the folded solve reads the circulant's result x + y0 e, y0 = sum_k z0^k b_k and
        # e_i = [sum_{m>i} h_m z0^(m-i) + z0^(L-i) sum_{m<=i} h_m z0^m]/(1 - z0^L), and holds
        # f = e + s (r . e) as -s[:, 1]. Against e summed directly, n^2 positive terms, every
        # entry of f is within 1e-13 of e + s |r . e| (r <= 0: f may cancel); the spectrum is
        # rfft(h)/(1 - z0 w^k), w = e^(2 pi i/L), and the powers z0^k (the worst read 6.6e-16
        # and 4.6 eps). FOLD_MIN = 0 folds every tau, also 1600, where L (1 - z0) reads 0.37
        # to 4.9 at n = 100
        n = 100
        op = build_operator(alpha, n, scheme)
        transformed = []
        rfft = evolution._rfft
        monkeypatch.setattr(evolution, "_rfft", lambda a, size: transformed.append(a) or rfft(a, size))
        monkeypatch.setattr(evolution, "FOLD_MIN", 0.0)
        eps = np.finfo(float).eps
        for tau in (0.08, 1.0, 10.0, 1600.0):
            p = -tau * op.weights.w[: n + 1]
            f = _factor_toeplitz(op, 1.0, tau, p.copy())
            p[1] += 1.0
            z0, size, h = _symbol_root(p)[0], f.fft_len, transformed.pop()
            i, m = np.arange(n)[:, None], np.arange(n)
            e = z0 ** np.where(m > i, m - i, size - i + m) @ h / (1.0 - z0**size)
            s, r_e = f.s[:, 0], f.r[:n] @ e
            assert f.band is None and f.s.shape == (n, 2), tau
            assert np.all(np.abs(-f.s[:, 1] - (e + s * r_e)) <= 1e-13 * (e + s * abs(r_e))), tau
            k = np.arange(size // 2 + 1)
            want = np.fft.rfft(h, size) / (1.0 - z0 * np.exp(2j * np.pi * k / size))
            assert np.abs(f.spectrum - want).max() <= 64 * eps * np.abs(want).max(), tau
            np.testing.assert_allclose(f.powers, z0 ** np.arange(f.powers.size), rtol=64 * eps)

    def test_set_up_transforms_once(self, monkeypatch):
        # the spectrum of 1/q is the set-up's only transform (38 r2c and 25 c2r
        # calls at n = 3200 when Newton's products ran on FFTs)
        op = build_operator(1.4, 3200)
        calls = []

        def spy(name):
            kernel = getattr(evolution._pocketfft, name)
            return lambda *args, **kwargs: calls.append(name) or kernel(*args, **kwargs)

        for name in ("r2c", "c2r"):
            monkeypatch.setattr(evolution._pocketfft, name, spy(name))
        assert isinstance(factorize(op, op.h**1.4), ToeplitzFactorization)
        assert calls == ["r2c"]

    def test_refuses_a_symbol_without_one_root_in_the_disc(self):
        # |sigma - tau*w_1| = 1 + tau against tau*(|w_0| + |w_2|) = 2*tau:
        # Rouche's condition fails from tau = 1 on
        n = FFT_MIN_N
        w = np.zeros(n + 1)
        w[:3] = 1.0, -1.0, 1.0
        op = OperatorMatrix(n, WeightSequence(1.4, Scheme.NEW, w))
        for tau in (1.0, 10.0):
            with pytest.raises(NumericalError, match="no single root"):
                factorize(op, tau * op.h**1.4)
        with pytest.raises(NumericalError, match="no single root"):
            resolvent_apply(op, 1.0, grid(1.4, n, np.ones(n)))

    @pytest.mark.parametrize("alpha", [1.1, 1.4, 1.9, 2.0])
    @pytest.mark.parametrize("scheme", [Scheme.NEW, Scheme.GRUNWALD])
    def test_resolvent_is_backward_stable(self, scheme, alpha):
        # |(lam - M_h) v - g| within rounding of |lam - M_h| |v|, at every
        # lam*h^alpha: 0 takes the series of 1/w (the only check of Grunwald's
        # closed form), the others divide out the root; the worst read 6.6 eps
        n = FFT_MIN_N
        op = build_operator(alpha, n, scheme)
        m = op.dense()
        g = np.random.default_rng(20).standard_normal(n)
        for c in (0.0, 0.3, 1.0, 10.0):
            lam = c / op.h**alpha
            a = lam * np.eye(n) - m
            v = resolvent_apply(op, lam, grid(alpha, n, g)).values
            res = np.abs(a @ v - g).max() / (np.abs(a).sum(1).max() * np.abs(v).max())
            assert res <= 16 * np.finfo(float).eps, (c, res)

    @pytest.mark.parametrize("size", [1, 2, 3, 1000, 3000])
    def test_series_inverse_is_the_recurrence(self, size):
        # the O(n^2) coefficient recurrence of 1/l is the reference; for l[1:]
        # <= 0, as q/q_0's are, it and Newton's direct products sum terms of one
        # sign, so they agree to a few eps on every coefficient, however small
        l = np.ones(size)
        l[1:] = -0.4 * np.arange(1.0, size) ** -2.4
        want = np.zeros(size)
        want[0] = 1.0
        for k in range(1, size):
            want[k] = -np.dot(l[k:0:-1], want[:k])
        got = _series_inverse(l)
        assert got.shape == (size,)
        assert np.all(np.abs(got - want) <= 8 * np.finfo(float).eps * want)

    @pytest.mark.parametrize(
        "alpha,n",
        [
            pytest.param(alpha, FFT_MIN_N, id=f"{alpha}-first-fft-size") for alpha in (1.1, 1.4, 1.9, 2.0)
        ] + [(1.9, 3207)],
    )
    def test_resolvent_is_negative_closed_form_inverse(self, alpha, n):
        # cond(M_h) ~ n^alpha: the dense factor misses by as much (1.45e-11 at
        # alpha = 1.9, n = 3200); n = 3207 pads to an FFT length of 6480 > 2n
        g = np.random.default_rng(12).standard_normal(n)
        want = -closed_form_inverse(alpha, n) @ g
        got = resolvent_apply(build_operator(alpha, n), 0.0, grid(alpha, n, g)).values
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    @pytest.mark.parametrize("m", [2, 7, 97, 2 * FFT_MIN_N, 6400, 9601])
    def test_fft_pair_is_numpys_within_rounding(self, m):
        # the same transforms as np.fft.rfft/irfft; numpy 2 ships the same pocketfft
        # (bit for bit), numpy 1.24 an older one, so the bound is a rounding bound;
        # a solve calls c2r as below
        size = evolution._pocketfft.good_size(m, True)
        rng = np.random.default_rng(m)
        eps = np.finfo(float).eps
        for fill in sorted({1, m // 2 + 1, m, size}):
            a = rng.standard_normal(fill)
            want = np.fft.rfft(a, size)
            assert np.linalg.norm(_rfft(a, size) - want) <= 8 * eps * math.log2(size) * np.linalg.norm(want)
        spectrum = np.fft.rfft(rng.standard_normal(size))
        want = np.fft.irfft(spectrum, size)
        got = evolution._pocketfft.c2r(spectrum, lastsize=size, forward=False, inorm=2)
        assert np.linalg.norm(got - want) <= 8 * eps * math.log2(size) * np.linalg.norm(want)

    def test_fft_len_is_smallest_5_smooth(self):
        def smooth(k):
            for p in (2, 3, 5):
                while k % p == 0:
                    k //= p
            return k == 1

        # pocketfft's good_size for real transforms, and the length a set-up pads
        # 2n to (6414 = 2*3*1069 would take 10x longer than 6480 at n = 3207)
        for m in range(1, 2000):
            want = next(k for k in range(m, 2 * m + 1) if smooth(k))
            assert evolution._pocketfft.good_size(m, True) == want
        for n, want in ((FFT_MIN_N, 1200), (3207, 6480)):
            assert factorize(build_operator(1.4, n), 1e-3).fft_len == want

    def test_size_rule(self):
        for n, kind in ((FFT_MIN_N - 1, LUFactorization), (FFT_MIN_N, ToeplitzFactorization)):
            f = factorize(build_operator(1.4, n), 1e-3)
            assert isinstance(f, kind) and f.op.n == n

    def test_factorization_is_small(self):
        op = build_operator(1.4, 3200)
        for dt in (1e-3, op.h**1.4):
            f = factorize(op, dt)
            assert isinstance(f, ToeplitzFactorization)
            held = sum(v.nbytes for v in vars(f).values() if isinstance(v, np.ndarray))
            assert held < 1e6

    @pytest.mark.parametrize("scheme", [Scheme.NEW, Scheme.GRUNWALD])
    def test_figure1_reference_stays_nonnegative(self, scheme):
        # the Figure-1 reference set-up at t_final = 0.01 (tau = 0.9) over its
        # 884 steps; unprojected, the FFT solves leave rounding-size negatives
        # that would build up over them
        n, alpha, t_final = 3200, 1.4, 0.01
        cfg = EvolutionConfig(
            alpha=alpha, n=n, t_final=t_final, scheme=scheme, dt=(1.0 / 401) ** (alpha + 0.5),
            ic=GaussianIC(0.4, 0.0005),
        )
        assert isinstance(factorize(build_operator(alpha, n, scheme), cfg.step_dt), ToeplitzFactorization)
        for _, u in iter_states(cfg):
            assert u.values.min() >= 0.0

    def test_guard_raises_past_the_rounding_bound(self):
        n = 3200
        b = gaussian_ic(np.arange(1, n + 1) / (n + 1), 0.4, 0.0005)
        v = factorize(build_operator(1.4, n), 1e-3).solve(b)
        bound = FFT_CLIP_C * np.finfo(float).eps * math.log2(n) * b.max()
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

    def test_rejects_a_gaussian_mean_at_infinity(self):
        # unchecked, evolve read all zeros
        cfg = EvolutionConfig(alpha=1.5, n=9, t_final=0.01, ic=GaussianIC(mu=math.inf))
        with pytest.raises(DomainError, match="got mu=inf"):
            evolve(cfg)

    def test_overflowing_power_law_is_only_refused(self):
        # the sum overflows at n = 1000: no numpy warning, the refusal alone
        cfg = EvolutionConfig(alpha=1.5, n=1000, t_final=1.0, dt=0.5, ic=PowerLawIC(a=1e308, b=1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="grid values must be finite"):
                initial_grid(cfg)

    def test_rejects_unknown_initial_condition(self):
        with pytest.raises(DomainError, match="unknown initial condition 'gaussian'"):
            EvolutionConfig(alpha=1.5, n=9, t_final=0.01, ic="gaussian")


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

    @pytest.mark.parametrize("n, u0, match", [
        pytest.param(50, np.ones(51), "grid length 51 does not match n=50", id="one-too-many"),
        # trtrs printed "parameter number 9 had an illegal value" before refusing it
        pytest.param(50, np.ones(49), "grid length 49 does not match n=50", id="one-too-few"),
        # tbtrs's f2py wrapper raised its own ValueError
        pytest.param(700, np.ones(699), "grid length 699 does not match n=700", id="one-too-few-fft"),
        # reported as an overflow at the first finiteness scan
        pytest.param(50, np.r_[np.ones(49), np.nan], "grid values must be finite", id="nan"),
        # marched as an (n, 1) array
        pytest.param(50, np.ones((50, 1)), r"must be 1-D, got shape \(50, 1\)", id="column"),
    ])
    def test_iter_values_refuses_data_not_of_the_grid(self, n, u0, match, capfd):
        cfg = EvolutionConfig(alpha=1.4, n=n, t_final=0.05)
        with pytest.raises(DomainError, match=match):
            list(evolution.iter_values(cfg, u0))
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("n", [LAST_DENSE, FIRST_FFT])
    def test_evolve_is_last_state(self, n):
        # the dense factor below FFT_MIN_N, the Toeplitz factorization from it on
        cfg = EvolutionConfig(alpha=1.4, n=n, t_final=0.01, ic=EigenfunctionIC())
        final = evolve(cfg)
        assert isinstance(final, GridFunction)
        *_, (t_last, u_last) = iter_states(cfg)
        assert t_last == pytest.approx(0.01, abs=1e-15)
        np.testing.assert_array_equal(final.values, u_last.values)

    @pytest.mark.parametrize("n, kind, ic", [
        (8, LUFactorization, PowerLawIC(a=1e308, b=1e308)),
        (1000, ToeplitzFactorization, PowerLawIC(a=1e308)),
    ])
    def test_overflow_is_refused_within_the_check_interval(self, n, kind, ic, monkeypatch):
        # the bare-array march scans for non-finite values every FINITE_CHECK_STEPS
        # solves, and a solve keeps them non-finite, so a run of 20,000 steps that
        # overflows at its first stops at the first scan
        solves = []
        real_solve = kind.solve
        monkeypatch.setattr(kind, "solve", lambda f, b: solves.append(1) or real_solve(f, b))
        cfg = EvolutionConfig(alpha=1.5, n=n, t_final=1e4, dt=0.5, ic=ic)
        assert cfg.steps == 20_000
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=rf"finite grid \(n={n}\) overflowed"):
                evolve(cfg)
        assert len(solves) == FINITE_CHECK_STEPS

    @pytest.mark.parametrize("steps", [1, FINITE_CHECK_STEPS - 1, FINITE_CHECK_STEPS + 1])
    def test_overflow_at_the_last_step_is_refused(self, steps, monkeypatch):
        # the march scans its last state whatever the step count
        real_solve = LUFactorization.solve
        solves = []

        def solve(f, b):
            solves.append(1)
            return real_solve(f, b) if len(solves) < steps else np.full_like(b, np.inf)

        monkeypatch.setattr(LUFactorization, "solve", solve)
        cfg = EvolutionConfig(alpha=1.5, n=8, t_final=1.0, dt=1.0 / steps)
        assert cfg.steps == steps
        with pytest.raises(NumericalError, match=r"finite grid \(n=8\) overflowed"):
            evolve(cfg)
        assert len(solves) == steps

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

    # "new" once evolved Grunwald, and so did "bogus"
    def test_scheme_by_name(self):
        kw = dict(alpha=1.4, n=10, t_final=0.01)
        cfg = EvolutionConfig(scheme="new", **kw)
        assert cfg.scheme is Scheme.NEW
        np.testing.assert_array_equal(evolve(cfg).values, evolve(EvolutionConfig(scheme=Scheme.NEW, **kw)).values)
        with pytest.raises(DomainError, match="unknown scheme 'bogus'"):
            EvolutionConfig(scheme="bogus", **kw)

    # n = 20.5 once built a config and failed on its grid of 21 values; numpy's integers are sizes
    @pytest.mark.parametrize("n", [20.5, 20.0, np.float64(8.0), True])
    def test_config_refuses_non_integer_n(self, n):
        with pytest.raises(DomainError, match=r"n must be an integer in \[3, "):
            EvolutionConfig(alpha=1.5, n=n, t_final=0.01)

    def test_config_takes_numpy_integer_n(self):
        kw = dict(alpha=1.5, t_final=0.01)
        cfg = EvolutionConfig(n=np.int64(8), **kw)
        assert type(cfg.n) is int
        np.testing.assert_array_equal(evolve(cfg).values, evolve(EvolutionConfig(n=8, **kw)).values)

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
