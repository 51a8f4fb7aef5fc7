import json
import math
import re

import numpy as np
import pytest

from fracheat import (
    DomainError,
    ErrorReport,
    ErrorRow,
    EvolutionConfig,
    GaussianIC,
    GridFunction,
    Scheme,
    cli,
    eigen_decay_study,
    error_norms,
    evolution,
    evolve,
    figure1_comparison,
    harness,
    observed_order,
    operator_consistency_study,
)
from fracheat.weights import MAX_N

CSV_HEADER = "scheme,alpha,n,h,dt,error,observed_order"


def grid(alpha, n, values):
    return GridFunction(alpha=alpha, n=n, values=np.asarray(values, dtype=float))


def rows_of(rep, scheme):
    """The report's rows of one scheme's chain."""
    return [r for r in rep.rows if r.scheme == scheme]


class TestErrorNorms:
    def test_against_nested_grid(self):
        # fine grid with (ref.n+1) divisible by (u.n+1): shared nodes read the reference's own values
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

    def test_reads_shared_nodes_of_non_nested_grids(self):
        # 51 does not divide 3201, but x = 1/3 and 2/3 are nodes 17, 34 of n = 50 and
        # 1067, 2134 of n = 3200; the reference vanishes more than 1/3201 from them
        ref = np.zeros(3200)
        ref[[1066, 2133]] = [0.7, -1.3]
        u = np.zeros(50)
        u[[16, 33]] = [0.7, -1.3]
        assert error_norms(grid(1.4, 50, u), grid(1.4, 3200, ref)) == {"sup": 0.0, "L1": 0.0}

    def test_rejects_coarser_reference(self):
        u = grid(1.5, 9, np.zeros(9))
        ref = grid(1.5, 4, np.zeros(4))
        with pytest.raises(DomainError):
            error_norms(u, ref)

    def test_rejects_reference_of_another_alpha(self):
        # read through the reference's own interpolant, ones against ones would read 0
        with pytest.raises(DomainError, match="grid alpha=1.4, reference alpha=1.8"):
            error_norms(grid(1.4, 9, np.ones(9)), grid(1.8, 39, np.ones(39)))


class TestObservedOrder:
    def test_exact_power_law(self):
        chain = [(h, 3.0 * h**1.7) for h in (0.1, 0.05, 0.025)]
        assert observed_order(chain) == pytest.approx(1.7, abs=1e-12)

    def test_guards(self):
        with pytest.raises(DomainError):
            observed_order([(0.1, 1.0)])
        with pytest.raises(DomainError):
            observed_order([(0.1, 1.0), (0.05, 0.0)])

    def test_refuses_a_chain_of_one_h(self):
        # unchecked, this read 0.075 with a RankWarning
        with pytest.raises(DomainError, match="2 rows of distinct h"):
            observed_order([(0.1, 1.0), (0.1, 0.5)])

    @pytest.mark.parametrize("h", [0.0, -0.1])
    def test_refuses_a_nonpositive_h(self, h):
        # unchecked, numpy's polyfit raised LinAlgError on log(h)
        with pytest.raises(DomainError, match="nonpositive h"):
            observed_order([(h, 1.0), (0.05, 0.5)])

    def test_refuses_a_nonfinite_h(self):
        # unchecked, numpy's polyfit raised LinAlgError
        with pytest.raises(DomainError, match="non-finite"):
            observed_order([(0.1, 1.0), (np.nan, 0.5), (0.025, 0.25)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_refuses_a_nonfinite_error(self, bad):
        # unchecked, a nan error read as order nan
        with pytest.raises(DomainError, match="non-finite"):
            observed_order([(0.1, 1.0), (0.05, bad)])


class TestErrorReport:
    def _report(self):
        rows = [
            ErrorRow("new", 1.5, 9, 0.1, 0.01, 1e-2, None),
            ErrorRow("new", 1.5, 19, 0.05, 0.01, 3.5e-3, 1.5),
            ErrorRow("grunwald", 1.5, 9, 0.1, 0.01, 5e-2, None),
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

    def _written(self, fmt, monkeypatch, capsys):
        """The demo report as the CLI writes a study's report."""
        monkeypatch.setattr(cli, "operator_consistency_study", lambda alpha, n_list: self._report())
        assert cli.main(["consistency", "--format", fmt]) == 0
        return capsys.readouterr().out

    def test_csv_shape(self, monkeypatch, capsys):
        text = self._written("csv", monkeypatch, capsys)
        lines = text.strip().split("\n")
        assert lines[0] == '# {"study": "demo"}'
        assert lines[1] == CSV_HEADER
        assert len(lines) == 5
        first = lines[2].split(",")
        assert first[0] == "new"
        assert float(first[5]) == 1e-2
        assert first[6] == ""  # no observed order on the first row

    def test_json_round_trip(self, monkeypatch, capsys):
        data = json.loads(self._written("json", monkeypatch, capsys))
        assert data["meta"]["study"] == "demo"
        assert len(data["rows"]) == 3
        assert data["rows"][1]["observed_order"] == 1.5


class TestEigenDecayStudy:
    # Last-pair orders on n = 50..400, t_final = 0.05 read 1.192, 1.397, 1.599,
    # 1.799, 1.950 (new) and 0.180, 0.394, 0.598, 0.801, 0.954 (Grünwald).
    # Excluded: alpha = 2, where both schemes have the weights (1, -2, 1), and
    # 1.1, where Grünwald's alpha - 1 = 0.1 is still pre-asymptotic.
    ORDER_ALPHAS = [1.2, 1.4, 1.6, 1.8, 1.95]
    N_LIST = [50, 100, 200, 400]

    @pytest.mark.parametrize("alpha", ORDER_ALPHAS)
    def test_new_scheme_order_near_alpha(self, alpha):
        rows = rows_of(eigen_decay_study(alpha, self.N_LIST, t_final=0.05), "new")
        assert abs(rows[-1].observed_order - alpha) <= 0.05
        errs = [r.error for r in rows]
        assert errs == sorted(errs, reverse=True)

    @pytest.mark.parametrize("alpha", ORDER_ALPHAS)
    def test_baseline_order_near_alpha_minus_one(self, alpha):
        rows = rows_of(eigen_decay_study(alpha, self.N_LIST, t_final=0.05), "grunwald")
        assert abs(rows[-1].observed_order - (alpha - 1.0)) <= 0.05

    def test_both_chains_new_scheme_first(self):
        rep = eigen_decay_study(1.4, [32, 64], t_final=0.05)
        assert [(r.scheme, r.n) for r in rep.rows] == [("new", 32), ("new", 64), ("grunwald", 32), ("grunwald", 64)]
        assert rep.rows[2].observed_order is None  # each chain's orders are its own

    def test_classical_error_is_purely_spatial(self):
        # At alpha = 2, u_c = sin(pi x)/pi, c = -pi^2, and the nodal sines are
        # exact eigenvectors of M_h with lam_h = -(4/h^2) sin^2(pi h/2), so K
        # steps leave exactly |(1 - lam_h dt)^-K - (1 - c dt)^-K| * max u0.
        # Both schemes have the weights (1, -2, 1) here, so this holds on both chains.
        # Measured agreement: 2.7e-7 relative at n = 400.
        rep = eigen_decay_study(2.0, self.N_LIST, t_final=0.05)
        dt = rep.meta["dt"]
        steps = round(0.05 / dt)
        for r in rep.rows:
            assert r.dt == dt
            lam = -(4.0 / r.h**2) * math.sin(math.pi * r.h / 2.0) ** 2
            u0_max = float(np.sin(math.pi * r.h * np.arange(1, r.n + 1)).max()) / math.pi
            gap = abs((1.0 - lam * dt) ** -steps - (1.0 + math.pi**2 * dt) ** -steps)
            assert r.error == pytest.approx(gap * u0_max, rel=3e-6)
        assert [r.observed_order for r in rep.rows[3::4]] == pytest.approx([2.0, 2.0], abs=1e-3)  # both last pairs

    def test_rejects_too_small_t_final(self):
        with pytest.raises(DomainError):
            eigen_decay_study(1.4, [8, 16], t_final=1e-4)

    # (1 - c*dt)^(-K) is 0.0 here, so every error would read 0.0 with no order
    def test_rejects_t_final_that_underflows_the_decay_factor(self):
        with pytest.raises(DomainError, match=r"t_final=300\.0 decays u_c by 0\.0"):
            eigen_decay_study(1.5, [8, 16], t_final=300.0)

    # The discrete eigenvalue's mismatch with c compounds over the steps: at
    # t_final = 150 the errors 2.3e-292 and 1.9e-299 once gave an order of 25.6
    def test_rejects_t_final_past_the_spatial_readout(self):
        with pytest.raises(DomainError, match=r"t_final=150\.0 reads error/decay 2181\d{8}\.\d* > 0\.5 at n = 8"):
            eigen_decay_study(1.5, [8, 16], t_final=150.0)

    def test_keeps_t_final_inside_the_spatial_readout(self):
        rep = eigen_decay_study(1.5, [8, 16], t_final=1.0)
        decay = (1.0 - rep.meta["c"] * rep.meta["dt"]) ** -round(1.0 / rep.meta["dt"])
        assert max(r.error for r in rep.rows) / decay <= harness.MAX_ERROR_OVER_DECAY

    def test_meta_records_eigenvalue(self):
        rep = eigen_decay_study(1.4, [32, 64], t_final=0.05)
        assert rep.meta["c"] == pytest.approx(-4.708037786285718, abs=1e-7)

    def test_samples_each_grid_once(self, monkeypatch):
        # u_c on n = 50..400 is 750 nodes, shared by both chains (1,500 when each chain sampled it)
        calls = []
        real = evolution.eigenfunction_u_c
        monkeypatch.setattr(evolution, "eigenfunction_u_c", lambda *args: calls.append(args) or real(*args))
        rep = eigen_decay_study(1.4, self.N_LIST, t_final=0.05)
        assert len(calls) == sum(self.N_LIST) == 750
        assert len(rep.rows) == 2 * len(self.N_LIST)


class TestOperatorConsistencyStudy:
    @pytest.mark.parametrize("alpha", [1.3, 1.6])
    def test_order_near_alpha(self, alpha):
        rep = operator_consistency_study(alpha, [64, 128, 256, 512])
        order = rep.overall_order(Scheme.NEW)
        assert order >= alpha - 0.35

    def test_dt_column_zero_for_stationary_study(self):
        rep = operator_consistency_study(1.5, [32, 64])
        assert [r.scheme for r in rep.rows] == ["new", "new", "grunwald", "grunwald"]
        assert all(r.dt == 0.0 for r in rep.rows)


class TestSchemeContrast:
    # The paper's contrast: shifted Grunwald is consistent at O(h), yet on the bounded
    # domain it converges at alpha - 1. Its last-pair orders read 1.0007 and 1.0001
    # (consistency, n = 64..512) and 0.290 and 0.598 (eigen decay, n = 50..400,
    # t_final = 0.05) at alpha = 1.3 and 1.6; the new scheme's read 2.61, 3.21, 1.295, 1.599.
    @pytest.mark.parametrize("alpha", [1.3, 1.6])
    def test_grunwald_is_consistent_at_one_and_converges_at_alpha_minus_one(self, alpha):
        consistency = rows_of(operator_consistency_study(alpha, [64, 128, 256, 512]), "grunwald")
        decay = rows_of(eigen_decay_study(alpha, [50, 100, 200, 400], t_final=0.05), "grunwald")
        assert abs(consistency[-1].observed_order - 1.0) <= 0.01
        assert abs(decay[-1].observed_order - (alpha - 1.0)) <= 0.05


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

    def test_default_reference_is_the_nested_grid(self):
        kw = dict(sigma2=0.0005, mu=0.4, alpha=1.4, t_final=0.001, n_list=[10, 20])
        default, explicit = figure1_comparison(**kw), figure1_comparison(**kw, n_reference=167)
        assert (default.rows, default.meta) == (explicit.rows, explicit.meta)

    def test_rejects_thin_reference(self):
        with pytest.raises(DomainError):
            figure1_comparison(
                sigma2=0.0005, mu=0.4, alpha=1.4, t_final=0.05, n_list=[50], n_reference=100
            )

    def test_rejects_zero_final_time_by_name(self):
        with pytest.raises(DomainError, match="t_final"):
            figure1_comparison(
                sigma2=0.0005, mu=0.4, alpha=1.4, t_final=0.0, n_list=[8, 16], n_reference=135
            )

    def test_reference_is_evolve_bit_for_bit(self, monkeypatch):
        # the reference marches on bare arrays, reading its sup norm each step;
        # its grid is evolve's, here on the Toeplitz path at fig1's n = 3200
        refs = []
        real_error_norms = harness.error_norms
        monkeypatch.setattr(harness, "error_norms", lambda u, ref: refs.append(ref) or real_error_norms(u, ref))
        figure1_comparison(sigma2=0.0005, mu=0.4, alpha=1.4, t_final=0.01, n_list=[400], n_reference=3200)
        cfg = EvolutionConfig(
            alpha=1.4, n=3200, t_final=0.01, ic=GaussianIC(mu=0.4, sigma2=0.0005), dt=(1.0 / 401) ** 1.9
        )
        assert len(refs) == 2 and refs[0] is refs[1] and cfg.steps == 884
        np.testing.assert_array_equal(refs[0].values, evolve(cfg).values)

    # sigma2 = 1e-9 is 0.0 on every node of n = 50, though not of n = 400 or the reference
    def test_rejects_gaussian_a_study_grid_cannot_see(self):
        with pytest.raises(DomainError, match=r"mu=0.4, sigma2=1e-09 .* n = 50"):
            figure1_comparison(
                sigma2=1e-9, mu=0.4, alpha=1.4, t_final=0.01, n_list=[50, 400], n_reference=3207
            )


# each study as study(alpha, n_list)
STUDIES = pytest.mark.parametrize(
    "study",
    [
        lambda a, ns: eigen_decay_study(a, ns, t_final=0.05),
        lambda a, ns: operator_consistency_study(a, ns),
        lambda a, ns: figure1_comparison(sigma2=0.0005, mu=0.4, alpha=a, t_final=0.05, n_list=ns),
    ],
    ids=["eigen_decay", "operator_consistency", "figure1"],
)


class TestGridSizeGuard:
    @pytest.mark.parametrize("n_list", [[-1], [0, 16], [2, 8], [], [8, 8]])
    @STUDIES
    def test_rejects_sizes_below_three(self, study, n_list):
        # an empty or repeated list is refused as a list, a size below 3 by itself
        if n_list and min(n_list) < 3:
            message = f"n must be an integer in [3, {MAX_N}], got {min(n_list)}"
        else:
            message = f"n_list needs one or more distinct sizes, got {n_list}"
        with pytest.raises(DomainError, match=re.escape(message)):
            study(1.4, n_list)

    # the study's own check names alpha before any power or gamma of it overflows
    @pytest.mark.parametrize("alpha", [1e300, -1e308])
    @STUDIES
    def test_rejects_out_of_domain_alpha_before_gamma(self, study, alpha):
        with pytest.raises(DomainError, match=r"alpha must be in \(1, 2\]"):
            study(alpha, [8, 16])
