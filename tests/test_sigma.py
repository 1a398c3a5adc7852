"""Tests for the exact sufficient-statistic chain and its analysis."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dagbroadcast.model import BudgetExceededError, LayerSchedule, MAJ3
from dagbroadcast.sigma import (
    DELTA_ANDOR,
    DELTA_MAJ,
    DegenerateThresholdError,
    SigmaDistribution,
    binomial_pmf_table,
    coupled_mc,
    exact_chain,
    fixed_points,
    g_and,
    g_andor,
    g_derivative,
    g_majority,
    g_or,
    lipschitz,
    majority_rule,
    ml_error,
    mutual_information,
    quenched_error_estimate,
    tv,
)
from dagbroadcast.model import sample_random_dag
from dagbroadcast import sigma as sigma_mod

from oracles import dense_chain, gate_output_prob


def make_dist(level, plus, minus):
    plus = np.asarray(plus, dtype=float)
    return SigmaDistribution(level, len(plus) - 1, plus, np.asarray(minus, dtype=float))


class TestGCurves:
    def test_majority_half_fixed(self):
        for d in (0.05, 0.2, 0.45):
            assert g_majority(0.5, d) == pytest.approx(0.5)

    def test_majority_noiseless(self):
        assert g_majority(0.3, 0.0) == pytest.approx(0.216)

    def test_majority_formula(self):
        assert g_majority(1.0, 0.1) == pytest.approx(0.972)

    def test_majority_matches_gate_output(self):
        for s in np.linspace(0, 1, 11):
            for d in (0.1, 0.3):
                m = s * (1 - d) + d * (1 - s)
                assert g_majority(s, d) == pytest.approx(gate_output_prob(MAJ3, m))

    def test_andor_stages_noiseless(self):
        s = 0.37
        assert g_and(s, 0.0) == pytest.approx(s**2)
        assert g_or(s, 0.0) == pytest.approx(2 * s - s**2)

    def test_andor_endpoints_noiseless(self):
        assert g_andor(1.0, 0.0) == pytest.approx(1.0)
        assert g_andor(0.0, 0.0) == pytest.approx(0.0)

    def test_andor_step_by_step(self):
        # OR stage at 0.5 gives 0.75; AND stage squares its convolution
        assert g_or(0.5, 0.1) == pytest.approx(0.75)
        assert g_andor(0.5, 0.1) == pytest.approx(0.49)

    def test_majority_self_duality(self):
        for s in np.linspace(0, 1, 33):
            assert g_majority(1 - s, 0.2) == pytest.approx(1 - g_majority(s, 0.2))

    @given(st.floats(0, 1), st.floats(0.01, 0.49))
    def test_derivative_matches_finite_difference(self, s, d):
        h = 1e-6
        lo, hi = max(0.0, s - h), min(1.0, s + h)
        for model, g in (("maj3", g_majority), ("andor2", g_andor)):
            fd = (g(hi, d) - g(lo, d)) / (hi - lo)
            assert g_derivative(model, s, d) == pytest.approx(fd, abs=1e-4)


class TestFixedPoints:
    def test_maj3_near_noiseless(self):
        report = fixed_points("maj3", 1e-9)
        vals = [p.value for p in report.points]
        assert vals == pytest.approx([0.0, 0.5, 1.0], abs=1e-4)

    def test_maj3_example(self):
        report = fixed_points("maj3", 0.1)
        assert report.points[-1].value == pytest.approx(0.9419417, abs=1e-7)

    def test_andor2_noiseless_middle(self):
        report = fixed_points("andor2", 0.0)
        assert report.points[1].value == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-12)

    def test_supercritical_counts(self):
        assert len(fixed_points("maj3", 0.2).points) == 1
        assert len(fixed_points("andor2", 0.12).points) == 1

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateThresholdError):
            fixed_points("maj3", DELTA_MAJ)
        with pytest.raises(DegenerateThresholdError):
            fixed_points("andor2", DELTA_ANDOR)

    @pytest.mark.parametrize("model,deltas", [
        ("maj3", np.linspace(0.01, 0.16, 20)),
        ("maj3", np.linspace(0.17, 0.49, 20)),
        ("andor2", np.linspace(0.01, 0.085, 20)),
        ("andor2", np.linspace(0.095, 0.49, 20)),
    ])
    def test_residuals_tiny(self, model, deltas):
        g = g_majority if model == "maj3" else g_andor
        for d in deltas:
            for p in fixed_points(model, float(d)).points:
                assert abs(g(p.value, float(d)) - p.value) < 1e-12

    @pytest.mark.parametrize("model, critical", [("maj3", DELTA_MAJ), ("andor2", DELTA_ANDOR)])
    @pytest.mark.parametrize("offset", [-1e-8, -1e-9, -1e-10, 1e-10, 1e-9, 1e-8])
    def test_near_critical(self, model, critical, offset):
        report = fixed_points(model, critical + offset)
        assert len(report.points) == (3 if offset < 0 else 1)
        g = g_majority if model == "maj3" else g_andor
        for p in report.points:
            assert abs(g(p.value, critical + offset) - p.value) < 1e-12

    def test_stability_flags(self):
        report = fixed_points("maj3", 0.1)
        assert [p.stable for p in report.points] == [True, False, True]
        report = fixed_points("andor2", 0.05)
        assert [p.stable for p in report.points] == [True, False, True]


class TestLipschitz:
    def test_maj3_value(self):
        assert lipschitz("maj3", 0.25) == pytest.approx(0.75)

    def test_andor2_second_branch(self):
        assert lipschitz("andor2", 0.3) == pytest.approx(0.225792)

    def test_andor2_first_branch(self):
        assert lipschitz("andor2", 0.1) == pytest.approx(0.96**1.5, abs=1e-4)

    @pytest.mark.parametrize("model", ["maj3", "andor2"])
    @pytest.mark.parametrize("delta", [0.02, 0.1, 0.2, 0.35, 0.49])
    def test_dominates_derivative_grid(self, model, delta):
        grid = np.linspace(0, 1, 10_001)
        sup = np.abs(g_derivative(model, grid, delta)).max()
        assert lipschitz(model, delta) >= sup - 1e-9


class TestBinomialPmf:
    def test_rows_normalized(self):
        table = binomial_pmf_table(50, np.linspace(0, 1, 23)).toarray()
        np.testing.assert_allclose(table.sum(axis=1), 1.0, atol=1e-12)

    def test_matches_scipy(self):
        from scipy.stats import binom

        p = np.array([0.0, 0.17, 0.5, 0.93, 1.0])
        table = binomial_pmf_table(40, p).toarray()
        for i, pi in enumerate(p):
            np.testing.assert_allclose(table[i], binom.pmf(np.arange(41), 40, pi), atol=1e-12)

    def test_large_n_stable(self):
        table = binomial_pmf_table(5000, np.array([0.01, 0.99])).toarray()
        assert np.isfinite(table).all()
        np.testing.assert_allclose(table.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("n", [200, 1000, 4096])
    def test_row_drop_bounds_missing_mass(self, n):
        from scipy.stats import binom

        p = np.concatenate([np.linspace(0, 1, 300), g_majority(np.linspace(0, 1, 300), 0.1)])
        kernel = binomial_pmf_table(n, p)
        table = kernel.toarray()
        assert kernel.size < table.size
        exact = binom.pmf(np.arange(n + 1)[None, :], n, p[:, None])
        missing = np.where(table == 0.0, exact, 0.0).sum(axis=1)
        assert (kernel.drop >= missing).all()
        assert kernel.drop.max() <= sigma_mod.BAND_EPS

    def test_apply_matches_dense_product(self):
        kernel = binomial_pmf_table(700, g_or(np.linspace(0, 1, 301), 0.07))
        pair = np.random.default_rng(0).random((2, 301))
        np.testing.assert_allclose(kernel.apply(pair), pair @ kernel.toarray(), rtol=1e-13, atol=1e-16)


def _window(L: int) -> int:
    return math.ceil(math.sqrt(L * math.log(2 / sigma_mod.BAND_EPS) / 2))


class TestBandedChain:
    @pytest.mark.parametrize("model", ["maj3", "andor2"])
    @pytest.mark.parametrize("spec, depth", [("const:64", 100), ("const:512", 100), ("linear", 200), ("log:10", 100)])
    @pytest.mark.parametrize("delta", [0.0, 0.05, 0.16, 0.18, 0.3])
    def test_matches_dense_oracle(self, model, spec, depth, delta):
        schedule = LayerSchedule.parse(spec)
        chain = exact_chain(model, delta, schedule, depth)
        oracle = dense_chain(model, delta, schedule, depth)
        for dist, (plus, minus) in zip(chain, oracle):
            err = max(np.abs(dist.plus - plus).sum(), np.abs(dist.minus - minus).sum())
            assert err <= dist.dropped + 1e-13
            assert abs(tv(dist) - 0.5 * np.abs(plus - minus).sum()) <= dist.dropped + 1e-13
            if all(schedule.size(k) + 1 <= 2 * _window(schedule.size(k)) + 1 for k in range(1, dist.level + 1)):
                assert dist.dropped == 0.0

    def test_one_kernel_build_per_stage_on_constant_schedules(self, monkeypatch):
        calls = []
        build = sigma_mod.binomial_pmf_table
        monkeypatch.setattr(sigma_mod, "binomial_pmf_table", lambda n, p: calls.append(n) or build(n, p))
        exact_chain("maj3", 0.1, LayerSchedule.constant(300), 40)
        assert len(calls) == 2
        calls.clear()
        # OR from 1 to 300, AND from 300 to 300, OR from 300 to 300
        exact_chain("andor2", 0.1, LayerSchedule.constant(300), 40)
        assert len(calls) == 3


class TestExactChain:
    def test_noiseless_point_mass(self):
        out = exact_chain("maj3", 0.0, LayerSchedule.constant(1), 1)[1]
        np.testing.assert_allclose(out.plus, [0, 1])

    def test_single_bernoulli_step(self):
        out = exact_chain("maj3", 0.1, LayerSchedule.constant(1), 1)[1]
        np.testing.assert_allclose(out.plus, [0.028, 0.972], atol=1e-12)

    def test_depth_one_tv(self):
        chain = exact_chain("maj3", 0.1, LayerSchedule.constant(1), 1)
        assert tv(chain[1]) == pytest.approx(0.944)

    def test_supercritical_tv_collapses(self):
        chain = exact_chain("maj3", 0.22, LayerSchedule.constant(64), 100)
        assert tv(chain[100]) < 1e-3

    def test_subcritical_tv_persists(self):
        chain = exact_chain("maj3", 0.10, LayerSchedule.constant(64), 100)
        assert tv(chain[100]) > 0.5

    def test_tv_nonincreasing(self):
        for model, d in (("maj3", 0.12), ("maj3", 0.3), ("andor2", 0.07)):
            chain = exact_chain(model, d, LayerSchedule.constant(24), 40)
            if model == "andor2":
                chain = [c for c in chain if c.level % 2 == 0]
            tvs = [tv(c) for c in chain]
            assert all(b <= a + 1e-12 for a, b in zip(tvs, tvs[1:]))

    def test_self_duality_reversal(self):
        chain = exact_chain("maj3", 0.2, LayerSchedule.constant(16), 12)
        for dist in chain:
            np.testing.assert_allclose(dist.minus, dist.plus[::-1], atol=1e-13)

    def test_budget_refused(self):
        with pytest.raises(BudgetExceededError):
            exact_chain("maj3", 0.2, LayerSchedule.constant(8192), 3)
        # overridable
        chain = exact_chain("maj3", 0.2, LayerSchedule.constant(8192), 1, budget=8192)
        assert chain[1].L == 8192

    def test_contraction_bound_maj3(self):
        for d in (0.2, 0.3):
            chain = exact_chain("maj3", d, LayerSchedule.constant(32), 40)
            c = 1.5 * (1 - 2 * d)
            for dist in chain[1:]:
                assert tv(dist) <= dist.L * c**dist.level + 1e-12


class TestFunctionals:
    def test_tv_trivia(self):
        assert tv(make_dist(1, [0.5, 0.5], [0.5, 0.5])) == 0
        assert tv(make_dist(1, [0, 1], [1, 0])) == 1
        assert tv(make_dist(1, [0.9, 0.1], [0.2, 0.8])) == pytest.approx(0.7)

    def test_ml_error_formula(self):
        d = make_dist(1, [0.9, 0.1], [0.2, 0.8])
        assert ml_error(d) == pytest.approx((1 - 0.7) / 2)

    @settings(max_examples=50)
    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=9), st.data())
    def test_ml_error_matches_rule_enumeration(self, raw, data):
        plus = np.asarray(raw) + 1e-9
        plus = plus / plus.sum()
        raw2 = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(raw), max_size=len(raw)))
        minus = np.asarray(raw2) + 1e-9
        minus = minus / minus.sum()
        d = make_dist(1, plus, minus)
        rule = (plus > minus).astype(int)  # the ML decision per one-count
        # exhaustive evaluation: error of the rule under the uniform prior
        err = 0.5 * float(plus[rule == 0].sum() + minus[rule == 1].sum())
        assert err == pytest.approx(ml_error(d), abs=1e-12)

    def test_mutual_information_trivia(self):
        same = make_dist(1, [0.3, 0.7], [0.3, 0.7])
        assert mutual_information(same) == 0
        disjoint = make_dist(1, [0, 1], [1, 0])
        assert mutual_information(disjoint) == pytest.approx(1.0)

    @pytest.mark.filterwarnings("error")
    def test_mutual_information_finite_with_subnormal_mass(self):
        # level 1 holds 5e-324 where the other conditional is 0
        chain = exact_chain("maj3", 0.1, LayerSchedule.constant(1024), 50)
        for dist in chain[1:]:
            assert 0.0 <= mutual_information(dist) <= 1.0 + 1e-12

    def test_mutual_information_binary(self):
        d = make_dist(1, [0.972, 0.028], [0.028, 0.972])
        h2 = -(0.028 * math.log2(0.028) + 0.972 * math.log2(0.972))
        assert mutual_information(d) == pytest.approx(1 - h2, abs=1e-12)

    def test_decision_rules(self):
        assert majority_rule(0.5) == 1
        assert majority_rule(0.49) == 0
        assert majority_rule(1.0) == 1


class TestCoupledMc:
    def test_monotone_and_contraction(self):
        stats = coupled_mc("maj3", 0.25, LayerSchedule.constant(16), 20, 20_000, seed=2)
        assert stats.min_gap >= 0
        assert stats.monotone_fraction == 1.0
        for i, k in enumerate(stats.levels):
            bound = 0.75 ** int(k)
            assert stats.mean_gap[i] <= bound + 3 * stats.sem_gap[i]

    def test_subcritical_separation(self):
        stats = coupled_mc("maj3", 0.1, LayerSchedule.constant(64), 50, 4000, seed=3)
        sep = (stats.final_plus >= 0.5).mean() - (stats.final_minus >= 0.5).mean()
        assert sep > 0.5

    def test_deterministic(self):
        a = coupled_mc("maj3", 0.2, LayerSchedule.constant(8), 10, 500, seed=7)
        b = coupled_mc("maj3", 0.2, LayerSchedule.constant(8), 10, 500, seed=7)
        np.testing.assert_array_equal(a.mean_gap, b.mean_gap)


class TestQuenched:
    def test_noiseless_error_zero(self):
        dag = sample_random_dag(11, 3, LayerSchedule.constant(5), 8)
        est = quenched_error_estimate(dag, MAJ3, 0.0, majority_rule, 200, seed=1)
        assert est.p_err == 0

    def test_seeds_agree_within_noise(self):
        dag = sample_random_dag(12, 3, LayerSchedule.logarithmic(10), 20)
        a = quenched_error_estimate(dag, MAJ3, 0.05, majority_rule, 4000, seed=1)
        b = quenched_error_estimate(dag, MAJ3, 0.05, majority_rule, 4000, seed=2)
        pbar = 0.5 * (a.p_err + b.p_err)
        sigma = math.sqrt(2 * max(pbar * (1 - pbar), 2e-4) / 4000)
        assert abs(a.p_err - b.p_err) <= 4 * sigma

    def test_ci_brackets_estimate(self):
        dag = sample_random_dag(13, 3, LayerSchedule.constant(7), 10)
        est = quenched_error_estimate(dag, MAJ3, 0.1, majority_rule, 1000, seed=5)
        assert est.ci_low <= est.p_err <= est.ci_high


class TestAlmostSureLimit:
    """Above the critical delta the chain converges to its unique attracting point."""

    def test_maj3_concentrates_at_half(self):
        # final-level fraction fluctuates by ~sqrt(1/4L); log growth with a
        # coefficient of 400 puts the tolerance several sigmas out
        stats = coupled_mc("maj3", 0.25, LayerSchedule.logarithmic(400), 80, 400, seed=4)
        for final in (stats.final_plus, stats.final_minus):
            assert (np.abs(final - 0.5) < 0.05).mean() >= 0.98

    def test_andor2_concentrates_at_t(self):
        (t,) = fixed_points("andor2", 0.2).points
        stats = coupled_mc("andor2", 0.2, LayerSchedule.logarithmic(400), 80, 400, seed=4)
        for final in (stats.final_plus, stats.final_minus):
            assert (np.abs(final - t.value) < 0.05).mean() >= 0.98
