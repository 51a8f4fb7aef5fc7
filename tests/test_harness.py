import json

import numpy as np
import pytest

from fracheat import (
    DomainError,
    ErrorReport,
    ErrorRow,
    GridFunction,
    Scheme,
    eigen_decay_study,
    error_norms,
    figure1_comparison,
    observed_order,
    operator_consistency_study,
)

CSV_HEADER = "scheme,alpha,n,h,dt,norm,error,observed_order"


def grid(alpha, n, values):
    return GridFunction(alpha=alpha, n=n, values=np.asarray(values, dtype=float))


class TestErrorNorms:
    def test_against_nested_grid(self):
        # fine grid with (ref.n+1) divisible by (u.n+1): shared nodes read directly
        alpha = 1.5
        f = lambda x: x * (1 - x)
        nu, nr = 9, 39
        u = grid(alpha, nu, [f(i / (nu + 1)) for i in range(1, nu + 1)])
        ref = grid(alpha, nr, [f(i / (nr + 1)) for i in range(1, nr + 1)])
        e = error_norms(u, ref)
        assert e["sup"] <= 1e-14
        assert e["L1"] <= 1e-14

    def test_against_nonnested_grid_uses_interpolation(self):
        alpha = 1.5
        f = lambda x: x ** (alpha - 1.0)  # exactly representable
        nu, nr = 9, 24
        u = grid(alpha, nu, [f(i / (nu + 1)) for i in range(1, nu + 1)])
        ref = grid(alpha, nr, [f(i / (nr + 1)) for i in range(1, nr + 1)])
        # right boundary of ref is forced to 0, so exactness holds away from x=1
        e = error_norms(u, ref)
        assert e["L1"] <= 0.02

    def test_rejects_coarser_reference(self):
        u = grid(1.5, 9, np.zeros(9))
        ref = grid(1.5, 4, np.zeros(4))
        with pytest.raises(DomainError):
            error_norms(u, ref)


class TestObservedOrder:
    def test_exact_power_law(self):
        chain = [(h, 3.0 * h**1.7) for h in (0.1, 0.05, 0.025)]
        assert observed_order(chain) == pytest.approx(1.7, abs=1e-12)

    def test_guards(self):
        with pytest.raises(DomainError):
            observed_order([(0.1, 1.0)])
        with pytest.raises(DomainError):
            observed_order([(0.1, 1.0), (0.05, 0.0)])


class TestErrorReport:
    def _report(self):
        rows = [
            ErrorRow("new", 1.5, 9, 0.1, 0.01, "sup", 1e-2, None),
            ErrorRow("new", 1.5, 19, 0.05, 0.01, "sup", 3.5e-3, 1.5),
            ErrorRow("grunwald", 1.5, 9, 0.1, 0.01, "sup", 5e-2, None),
        ]
        return ErrorReport(rows=rows, meta={"study": "demo"})

    def test_chain_filters_by_scheme(self):
        rep = self._report()
        assert rep.chain(Scheme.NEW) == [(0.1, 1e-2), (0.05, 3.5e-3)]
        assert rep.chain("grunwald") == [(0.1, 5e-2)]

    def test_overall_order(self):
        assert self._report().overall_order(Scheme.NEW) == pytest.approx(
            np.log(1e-2 / 3.5e-3) / np.log(2.0)
        )

    def test_csv_shape(self):
        text = self._report().to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == '# {"study": "demo"}'
        assert lines[1] == CSV_HEADER
        assert len(lines) == 5
        first = lines[2].split(",")
        assert first[0] == "new"
        assert float(first[6]) == 1e-2
        assert first[7] == ""  # no observed order on the first row

    def test_json_round_trip(self):
        data = json.loads(self._report().to_json())
        assert data["meta"]["study"] == "demo"
        assert len(data["rows"]) == 3
        assert data["rows"][1]["observed_order"] == 1.5


class TestEigenDecayStudy:
    def test_new_scheme_order_near_alpha(self):
        rep = eigen_decay_study(1.4, [32, 64, 128], t_final=0.05)
        order = rep.overall_order(Scheme.NEW)
        assert 1.1 <= order <= 1.7
        errs = [r.error for r in rep.rows]
        assert errs == sorted(errs, reverse=True)

    def test_baseline_order_near_alpha_minus_one(self):
        rep = eigen_decay_study(1.4, [32, 64, 128], t_final=0.05, scheme=Scheme.GRUNWALD)
        order = rep.overall_order(Scheme.GRUNWALD)
        assert 0.1 <= order <= 0.8

    def test_rejects_too_small_t_final(self):
        with pytest.raises(DomainError):
            eigen_decay_study(1.4, [8, 16], t_final=1e-4)

    def test_meta_records_eigenvalue(self):
        rep = eigen_decay_study(1.4, [32, 64], t_final=0.05)
        assert rep.meta["c"] == pytest.approx(-4.708037786285718, abs=1e-7)


class TestOperatorConsistencyStudy:
    @pytest.mark.parametrize("alpha", [1.3, 1.6])
    def test_order_near_alpha(self, alpha):
        rep = operator_consistency_study(alpha, [64, 128, 256, 512])
        order = rep.overall_order(Scheme.NEW)
        assert order >= alpha - 0.35

    def test_dt_column_zero_for_stationary_study(self):
        rep = operator_consistency_study(1.5, [32, 64])
        assert all(r.dt == 0.0 for r in rep.rows)


class TestFigureComparison:
    def test_new_scheme_beats_baseline(self):
        rep = figure1_comparison(
            sigma2=0.0005, mu=0.4, alpha=1.4, t_final=0.05, n_list=[25, 50], n_reference=407
        )
        new_err = dict((r.n, r.error) for r in rep.rows if r.scheme == "new")
        base_err = dict((r.n, r.error) for r in rep.rows if r.scheme == "grunwald")
        assert set(new_err) == {25, 50}
        for n in (25, 50):
            assert new_err[n] < base_err[n]

    def test_shared_dt_across_rows(self):
        rep = figure1_comparison(
            sigma2=0.0005, mu=0.4, alpha=1.4, t_final=0.05, n_list=[25, 50], n_reference=407
        )
        assert len({r.dt for r in rep.rows}) == 1
        assert rep.meta["dt"] == rep.rows[0].dt

    def test_rejects_thin_reference(self):
        with pytest.raises(DomainError):
            figure1_comparison(
                sigma2=0.0005, mu=0.4, alpha=1.4, t_final=0.05, n_list=[50], n_reference=100
            )


class TestGridSizeGuard:
    @pytest.mark.parametrize("n_list", [[-1], [0, 16], [2, 8], []])
    @pytest.mark.parametrize(
        "study",
        [
            lambda ns: eigen_decay_study(1.4, ns, t_final=0.05),
            lambda ns: operator_consistency_study(1.4, ns),
            lambda ns: figure1_comparison(
                sigma2=0.0005, mu=0.4, alpha=1.4, t_final=0.05, n_list=ns, n_reference=-1
            ),
        ],
        ids=["eigen_decay", "operator_consistency", "figure1"],
    )
    def test_rejects_sizes_below_three(self, study, n_list):
        with pytest.raises(DomainError):
            study(n_list)

    def test_rejects_out_of_domain_alpha_before_gamma(self):
        with pytest.raises(DomainError):
            operator_consistency_study(1e300, [8, 16])
