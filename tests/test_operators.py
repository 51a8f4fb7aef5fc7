import math

import numpy as np
import pytest

from fracheat import (
    DomainError,
    GridFunction,
    OperatorMatrix,
    Scheme,
    apply,
    build_operator,
    closed_form_inverse,
    exactness_residual,
    gamma,
    new_weights,
)

ALPHAS = [round(1.1 + 0.1 * k, 1) for k in range(9)]


def grid(alpha, n, values):
    return GridFunction(alpha=alpha, n=n, values=np.asarray(values, dtype=float))


class TestBuildAndDense:
    def test_classical_tridiagonal(self):
        op = build_operator(2.0, 3)
        h = 0.25
        expected = np.array([[-2, 1, 0], [1, -2, 1], [0, 1, -2]], dtype=float) / h**2
        np.testing.assert_allclose(op.dense(), expected, atol=1e-10)

    def test_alpha_is_read_from_the_weights(self):
        # no second alpha can disagree with the one the weights were built for
        op = OperatorMatrix(n=10, weights=new_weights(1.4, 10))
        assert op.alpha == 1.4
        with pytest.raises(TypeError):
            OperatorMatrix(alpha=1.9, n=10, weights=new_weights(1.4, 10))

    def test_first_column_and_superdiagonal(self):
        op = build_operator(1.5, 3)
        w = op.weights.w
        d = op.dense() * op.h**1.5
        np.testing.assert_allclose(d[:, 0], w[1:4], rtol=1e-14)
        np.testing.assert_allclose(np.diag(d, 1), [w[0], w[0]], rtol=1e-14)

    # "new" once built Grunwald weights, and "bogus" did too
    def test_scheme_by_name(self):
        np.testing.assert_array_equal(build_operator(1.4, 10, "new").weights.w, new_weights(1.4, 10).w)
        assert build_operator(1.4, 10, "grunwald").weights.scheme is Scheme.GRUNWALD
        with pytest.raises(DomainError, match="unknown scheme 'bogus'"):
            build_operator(1.4, 10, "bogus")

    @pytest.mark.parametrize("n", [2, 1, 0, -5])
    def test_rejects_small_n(self, n):
        with pytest.raises(DomainError, match=r"n must be an integer in \[3, "):
            build_operator(1.5, n)

    # before the weights, whose floor is 2: a float size was numpy's TypeError there
    @pytest.mark.parametrize("n", [20.0, 20.5, np.float64(8.0), True])
    def test_rejects_non_integer_n(self, n):
        with pytest.raises(DomainError, match=r"n must be an integer in \[3, "):
            build_operator(1.4, n)
        with pytest.raises(DomainError, match=r"n must be an integer in \[3, "):
            OperatorMatrix(n=n, weights=new_weights(1.4, 32))

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_q_matrix_structure(self, alpha):
        d = build_operator(alpha, 200).dense()
        off = d - np.diag(np.diag(d))
        assert np.all(off >= 0.0)
        assert np.all(np.diag(d) < 0.0)
        assert np.all(d.sum(axis=1) <= 1e-12)

    def test_boundary_rows_strictly_negative_sums(self):
        d = build_operator(1.4, 100).dense()
        sums = d.sum(axis=1)
        assert sums[0] < -1e-6  # first row misses the positive tail entirely
        assert sums[-1] < 0.0


class TestApply:
    def test_zero_maps_to_zero(self):
        op = build_operator(1.4, 16)
        v = apply(op, grid(1.4, 16, np.zeros(16)))
        np.testing.assert_array_equal(v.values, np.zeros(16))

    def test_matches_dense_columns(self):
        op = build_operator(1.3, 24)
        d = op.dense()
        for j in range(24):
            e = np.zeros(24)
            e[j] = 1.0
            col = apply(op, grid(1.3, 24, e)).values
            np.testing.assert_allclose(col, d[:, j], atol=1e-13 * np.abs(d).max())

    def test_discrete_laplacian_eigenvector(self):
        n = 64
        op = build_operator(2.0, n)
        h = op.h
        x = np.arange(1, n + 1) * h
        u = np.sin(np.pi * x)
        lam = -(2.0 - 2.0 * math.cos(math.pi * h)) / h**2
        v = apply(op, grid(2.0, n, u)).values
        # rows near the ends feel the weight-truncation roundoff; interior exact
        np.testing.assert_allclose(v[1:-1], lam * u[1:-1], atol=1e-10 * abs(lam))

    def test_exact_spike_on_power_function(self):
        n = 128
        alpha = 1.4
        op = build_operator(alpha, n)
        h = op.h
        u = np.zeros(n)
        u[1:] = (np.arange(1, n) * h) ** (alpha - 1.0)
        v = apply(op, grid(alpha, n, u)).values
        spike = gamma(alpha) / h
        assert v[0] == pytest.approx(spike, rel=1e-12)
        assert np.abs(v[1 : n - 1]).max() <= 1e-9 * spike

    def test_dimension_mismatch(self):
        op = build_operator(1.4, 16)
        with pytest.raises(DomainError):
            apply(op, grid(1.4, 8, np.zeros(8)))

    def test_alpha_mismatch(self):
        op = build_operator(1.4, 8)
        with pytest.raises(DomainError, match="operator alpha=1.4, grid alpha=1.9"):
            apply(op, grid(1.9, 8, np.zeros(8)))


class TestExactnessResidual:
    @pytest.mark.parametrize("alpha,n,tol", [(1.4, 512, 1e-9), (1.9, 64, 1e-9), (2.0, 512, 1e-12)])
    def test_contract(self, alpha, n, tol):
        assert exactness_residual(alpha, n) <= tol


class TestClosedFormInverse:
    def test_inverse_identity_both_sides(self):
        for alpha, n in ((1.4, 128), (1.7, 96), (2.0, 64)):
            m = build_operator(alpha, n).dense()
            x = closed_form_inverse(alpha, n)
            eye = np.eye(n)
            assert np.abs(m @ x - eye).max() <= 1e-8
            assert np.abs(x @ m - eye).max() <= 1e-8

    def test_alpha_two_green_function(self):
        n = 32
        h = 1.0 / (n + 1)
        x = closed_form_inverse(2.0, n)
        xi = np.arange(1, n + 1) * h
        expected = -h * np.minimum.outer(xi, xi) * (1.0 - np.maximum.outer(xi, xi))
        np.testing.assert_allclose(x, expected, atol=1e-14)

    # an alpha outside (1, 2] and a float or empty size were computed with: 3x3 at n = 2.5
    @pytest.mark.parametrize("alpha,n,match", [(3.0, 4, "alpha must be"), (1.4, 2.5, "n must be"), (1.4, 0, "n must be")])
    def test_refuses_outside_its_domain(self, alpha, n, match):
        with pytest.raises(DomainError, match=match):
            closed_form_inverse(alpha, n)

    def test_recovers_vector(self):
        rng = np.random.default_rng(7)
        n = 96
        alpha = 1.5
        op = build_operator(alpha, n)
        x = closed_form_inverse(alpha, n)
        u = rng.standard_normal(n)
        mu = apply(op, grid(alpha, n, u)).values
        np.testing.assert_allclose(x @ mu, u, atol=1e-8 * np.abs(u).max())


class TestGridFunction:
    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            grid(1.5, 3, [0.0, np.nan, 1.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(DomainError):
            grid(1.5, 4, [0.0, 1.0])

    @pytest.mark.parametrize("alpha", [1.0, np.nan, 3.0])
    def test_rejects_alpha_outside_one_two(self, alpha):
        # unchecked, a nan grid constructs and two of them read as an alpha mismatch
        with pytest.raises(DomainError, match="alpha must be in"):
            grid(alpha, 3, np.ones(3))

    # a list was kept as given, and apply raised TypeError on it; a float array is kept, not copied
    def test_values_are_a_float_array(self):
        values = np.arange(1.0, 6.0)
        u = GridFunction(1.5, 5, [1.0, 2.0, 3.0, 4.0, 5.0])
        op = build_operator(1.5, 5)
        assert grid(1.5, 5, values).values is values
        np.testing.assert_array_equal(apply(op, u).values, apply(op, grid(1.5, 5, values)).values)

    @pytest.mark.parametrize("values", [np.ones((3, 1)), np.ones((3, 3)), np.float64(1.0)], ids=["3x1", "3x3", "0-d"])
    def test_rejects_values_not_1d(self, values):
        with pytest.raises(DomainError, match="grid values must be 1-D"):
            grid(1.5, 3, values)

    # cast to float, the imaginary part would be dropped with only a ComplexWarning
    def test_rejects_complex_values(self):
        with pytest.raises(DomainError, match="grid values must be real"):
            GridFunction(1.5, 3, np.array([1 + 1j, 2, 3]))

    # n was stored as given: 8.0 and True were built, and an empty grid's sup_norm raised ValueError
    @pytest.mark.parametrize("n,values", [(8.0, np.ones(8)), (True, np.ones(1)), (0, np.ones(0))], ids=["float", "bool", "empty"])
    def test_rejects_sizes_that_are_not_sizes(self, n, values):
        with pytest.raises(DomainError, match=r"n must be an integer in \[1, 1000000\], got "):
            GridFunction(1.4, n, values)

    def test_numpy_integer_size_is_an_int(self):
        assert type(GridFunction(1.4, np.int64(3), np.ones(3)).n) is int

    def test_norms(self):
        g = grid(1.5, 3, [1.0, -2.0, 0.5])
        assert g.sup_norm() == 2.0
        assert g.l1_norm() == pytest.approx(3.5 / 4.0)

    def test_weights_length_guard(self):
        with pytest.raises(DomainError):
            OperatorMatrix(n=10, weights=new_weights(1.5, 4))

    # build_operator refuses these first, so only a direct construction reaches this check
    def test_direct_construction_rejects_small_n(self):
        with pytest.raises(DomainError, match=r"n must be an integer in \[3, 1000000\], got 2"):
            OperatorMatrix(n=2, weights=new_weights(1.5, 4))
