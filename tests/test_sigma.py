"""Tests for the exact sufficient-statistic chain and its analysis."""

import dataclasses
import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dagbroadcast.model import AND2, IDENTITY, MAJ3, NAND2, OR2, XOR2, BudgetExceededError, Gate, LayerSchedule
from dagbroadcast.sigma import (
    DELTA_ANDOR,
    DELTA_MAJ,
    DegenerateThresholdError,
    SigmaDistribution,
    binomial_pmf_table,
    coupled_mc,
    critical_delta,
    exact_chain,
    fixed_points,
    g_derivative,
    lipschitz,
    majority_rule,
    ml_error,
    mutual_information,
    quenched_error_estimate,
    tv,
)
from dagbroadcast.model import propagate_many, sample_random_dag
from dagbroadcast import sigma as sigma_mod

from oracles import (
    CLOSED_FORM_CURVES,
    dense_chain,
    fixed_points_closed_form,
    g_derivative_closed_form,
    gate_output_prob,
    kernel_toarray,
    lipschitz_closed_form,
)


# Each model's stage gates for one period, stated here rather than read from
# sigma.STAGES, so the dense oracle is an independent route.
MODEL_GATES = {"maj3": (MAJ3,), "andor2": (OR2, AND2)}


# Anchors for grids around each critical delta, as plain float expressions of
# the closed forms.  The grids step at least 1e-10 away from them, so an anchor
# a few ulp off (the andor2 one is 2.26 ulp low) serves; ``TestCriticalDelta``
# checks the exact position.
CRITICAL_ANCHORS = [("maj3", 1 / 6), ("andor2", (3 - math.sqrt(7)) / 4)]


def _majority(d: int) -> Gate:
    return Gate.from_function(f"MAJ{d}", d, lambda *b: int(sum(b) > d // 2))


def make_dist(level, plus, minus):
    plus = np.asarray(plus, dtype=float)
    return SigmaDistribution(level, len(plus) - 1, plus, np.asarray(minus, dtype=float))


class TestGCurves:
    def test_majority_half_fixed(self):
        for d in (0.05, 0.2, 0.45):
            assert sigma_mod._stage_g("maj3", d)(0.5) == pytest.approx(0.5)

    def test_majority_noiseless(self):
        assert sigma_mod._stage_g("maj3", 0.0)(0.3) == pytest.approx(0.216)

    def test_majority_formula(self):
        assert sigma_mod._stage_g("maj3", 0.1)(1.0) == pytest.approx(0.972)

    def test_majority_matches_gate_output(self):
        for s in np.linspace(0, 1, 11):
            for d in (0.1, 0.3):
                m = s * (1 - d) + d * (1 - s)
                assert sigma_mod._stage_g("maj3", d)(s) == pytest.approx(gate_output_prob(MAJ3, m))

    def test_andor_stages_noiseless(self):
        s = 0.37
        assert sigma_mod._stage_g("andor2", 0.0, 2)(s) == pytest.approx(s**2)
        assert sigma_mod._stage_g("andor2", 0.0, 1)(s) == pytest.approx(2 * s - s**2)

    def test_andor_endpoints_noiseless(self):
        assert sigma_mod._stage_g("andor2", 0.0)(1.0) == pytest.approx(1.0)
        assert sigma_mod._stage_g("andor2", 0.0)(0.0) == pytest.approx(0.0)

    def test_andor_step_by_step(self):
        # OR stage at 0.5 gives 0.75; AND stage squares its convolution
        assert sigma_mod._stage_g("andor2", 0.1, 1)(0.5) == pytest.approx(0.75)
        assert sigma_mod._stage_g("andor2", 0.1)(0.5) == pytest.approx(0.49)

    def test_majority_self_duality(self):
        g = sigma_mod._stage_g("maj3", 0.2)
        for s in np.linspace(0, 1, 33):
            assert g(1 - s) == pytest.approx(1 - g(s))

    @pytest.mark.parametrize(
        "model, k, stages",
        [("maj3", None, (MAJ3,)), ("andor2", 2, (AND2,)), ("andor2", 1, (OR2,)), ("andor2", None, (OR2, AND2))],
        ids=["g_majority", "g_and", "g_or", "g_andor"],
    )
    def test_bit_for_bit_the_bsc_then_gate_formula(self, model, k, stages):
        # the curves read sigma through x (1 - d) + d (1 - x) in floats and apply
        # each stage's gate; ends and subnormals of [0, 1] are accepted
        s = np.concatenate([np.linspace(0.0, 1.0, 1001), [5e-324, np.nextafter(1.0, 0.0)]])
        for d in (0.0, 0.1, DELTA_MAJ, 0.3, float(np.nextafter(0.5, 0.0))):
            want = s
            for gate in stages:
                want = CLOSED_FORM_CURVES[gate](want * (1.0 - d) + d * (1.0 - want))
            curve = sigma_mod._stage_g(model, d, k)
            assert curve(s).tobytes() == want.tobytes()
            assert curve(float(s[321])) == want[321]

    @given(st.floats(0, 1), st.floats(0.01, 0.49))
    def test_derivative_matches_finite_difference(self, s, d):
        h = 1e-6
        lo, hi = max(0.0, s - h), min(1.0, s + h)
        for model in ("maj3", "andor2"):
            g = sigma_mod._stage_g(model, d)
            fd = (g(hi) - g(lo)) / (hi - lo)
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

    def test_new_row_needs_no_stated_critical_delta(self, monkeypatch):
        # a STAGES row alone serves the whole analysis: its delta_c is derived
        monkeypatch.setitem(sigma_mod.STAGES, "maj5", (_majority(5),))
        assert lipschitz("maj5", 0.1) == pytest.approx(1.5)
        assert len(fixed_points("maj5", 0.1).points) == 3
        assert len(fixed_points("maj5", 0.3).points) == 1
        lo, hi = critical_delta("maj5")
        for d in (lo - 5e-13, lo, hi, hi + 5e-13):
            with pytest.raises(DegenerateThresholdError, match=r"critical delta of maj5, in \["):
                fixed_points("maj5", d)

    @pytest.mark.parametrize("model,deltas", [
        ("maj3", np.linspace(0.01, 0.16, 20)),
        ("maj3", np.linspace(0.17, 0.49, 20)),
        ("andor2", np.linspace(0.01, 0.085, 20)),
        ("andor2", np.linspace(0.095, 0.49, 20)),
    ])
    def test_residuals_tiny(self, model, deltas):
        for d in deltas:
            g = sigma_mod._stage_g(model, float(d))
            for p in fixed_points(model, float(d)).points:
                assert abs(g(p.value) - p.value) < 1e-12

    @pytest.mark.parametrize("model, critical", CRITICAL_ANCHORS)
    @pytest.mark.parametrize("offset", [-1e-8, -1e-9, -1e-10, 1e-10, 1e-9, 1e-8])
    def test_near_critical(self, model, critical, offset):
        report = fixed_points(model, critical + offset)
        assert len(report.points) == (3 if offset < 0 else 1)
        g = sigma_mod._stage_g(model, critical + offset)
        for p in report.points:
            assert abs(g(p.value) - p.value) < 1e-12

    def test_stability_flags(self):
        report = fixed_points("maj3", 0.1)
        assert [p.stable for p in report.points] == [True, False, True]
        report = fixed_points("andor2", 0.05)
        assert [p.stable for p in report.points] == [True, False, True]


def _exact_critical(model: str) -> Decimal:
    """The closed-form critical delta, to 40 digits: (3 - sqrt 7) / 4 for andor2,
    1/2 - 2^(d-2) / (c C(d, c)) with c = ceil(d/2) for d-majority."""
    with localcontext() as ctx:
        ctx.prec = 40
        if model == "andor2":
            return (3 - Decimal(7).sqrt()) / 4
        d = int(model.removeprefix("maj"))
        c = (d + 1) // 2
        return Decimal(1) / 2 - Decimal(2 ** (d - 2)) / (c * math.comb(d, c))


class TestCriticalDelta:
    """``critical_delta`` derives each row's delta_c from the period map alone."""

    @pytest.fixture(autouse=True)
    def _majority_rows(self, monkeypatch):
        for d in (5, 7, 9):
            monkeypatch.setitem(sigma_mod.STAGES, f"maj{d}", (_majority(d),))

    @pytest.mark.parametrize("model", ["maj3", "andor2", "maj5", "maj7", "maj9"])
    def test_bracket_holds_the_closed_form(self, model):
        lo, hi = critical_delta(model)
        assert hi == np.nextafter(lo, 1.0)
        assert Decimal(lo) < _exact_critical(model) < Decimal(hi)

    def test_nand_row_gives_andor2_bracket(self, monkeypatch):
        # NAND at every level is AND/OR alternation with every other layer complemented
        monkeypatch.setitem(sigma_mod.STAGES, "nand2", (NAND2, NAND2))
        assert critical_delta("nand2") == critical_delta("andor2")

    def test_cached_by_row_not_name(self, monkeypatch):
        before = critical_delta("maj3")
        monkeypatch.setitem(sigma_mod.STAGES, "maj3", sigma_mod.STAGES["maj5"])
        assert critical_delta("maj3") == critical_delta("maj5") != before

    @pytest.mark.parametrize("model", ["maj3", "andor2", "maj5"])
    def test_root_count_falls_once(self, model):
        # the bisection's assumption: three fixed points below delta_c, one above
        lo, hi = critical_delta(model)
        assert sigma_mod._fixed_point_count(model, lo - 1e-6) == 3
        assert sigma_mod._fixed_point_count(model, hi + 1e-6) == 1
        counts = [sigma_mod._fixed_point_count(model, float(d)) for d in np.linspace(0.001, 0.499, 200)]
        assert set(counts) == {3, 1} and counts == sorted(counts, reverse=True)

    @pytest.mark.parametrize("gates", [(AND2,), (XOR2,), (IDENTITY,), (AND2, AND2)])
    def test_row_without_transition_takes_one_count(self, gates, monkeypatch):
        # one fixed point at the least delta > 0: the bracket the full bisection
        # would reach, from a single Sturm count instead of about 1,075
        monkeypatch.setitem(sigma_mod.STAGES, "flat", gates)
        monkeypatch.setattr(sigma_mod, "_BRACKETS", {})
        calls = []
        count = sigma_mod._fixed_point_count
        monkeypatch.setattr(sigma_mod, "_fixed_point_count", lambda m, d: calls.append(d) or count(m, d))
        assert critical_delta("flat") == (0.0, 5e-324)
        assert calls == [5e-324]

    @pytest.mark.parametrize("gates, noiseless", [((AND2,), [0.0, 1.0]), ((XOR2,), [0.0, 0.5]), ((IDENTITY,), [0.0, 1.0])])
    def test_row_without_transition_is_never_degenerate(self, gates, noiseless, monkeypatch):
        # nothing merges on such a row, so delta = 0 and deltas below 1e-12 are answered
        monkeypatch.setitem(sigma_mod.STAGES, "flat", gates)
        assert [p.value for p in fixed_points("flat", 0.0).points] == noiseless
        assert len(fixed_points("flat", 1e-13).points) == 1

    @pytest.mark.parametrize("model", ["maj3", "andor2"])
    def test_rows_with_a_transition_count_more_at_the_least_delta(self, model):
        assert sigma_mod._fixed_point_count(model, 5e-324) == 3

    @pytest.mark.parametrize("model, constant", [("maj3", DELTA_MAJ), ("andor2", DELTA_ANDOR)])
    def test_exported_targets(self, model, constant):
        # within half an ulp of the closed form, and inside the derived bracket
        assert abs(Decimal(constant) - _exact_critical(model)) <= Decimal(math.ulp(constant)) / 2
        lo, hi = critical_delta(model)
        assert lo <= constant <= hi


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


def _deltas_around(critical: float) -> list[float]:
    """A grid on both sides of the critical delta, from 0 to just below 1/2, and points within 1e-8 of it."""
    below = np.linspace(0.0, critical - 1e-3, 25)
    above = np.linspace(critical + 1e-3, 0.4999, 25)
    return [float(d) for d in (*below, *above, *(critical + o for o in (-1e-8, -1e-10, 1e-10, 1e-8)))]


class TestClosedForms:
    """The analysis derived from the period map's polynomial agrees with the hand-worked closed forms."""

    @pytest.mark.parametrize("model, critical", CRITICAL_ANCHORS)
    def test_fixed_points_and_lipschitz(self, model, critical):
        for d in _deltas_around(critical):
            report = fixed_points(model, d)
            want = fixed_points_closed_form(model, d)
            assert len(report.points) == len(want), d
            np.testing.assert_allclose([p.value for p in report.points], want, rtol=0, atol=1e-11, err_msg=str(d))
            stable = np.abs(g_derivative_closed_form(model, np.array(want), d)) < 1.0
            assert [p.stable for p in report.points] == stable.tolist(), d
            assert abs(report.lipschitz - lipschitz_closed_form(model, d)) < 1e-14, d

    @pytest.mark.parametrize("model", ["maj3", "andor2"])
    def test_derivative(self, model):
        xs = np.linspace(0.0, 1.0, 101)
        for d in np.linspace(0.0, 0.4999, 30):
            np.testing.assert_allclose(g_derivative(model, xs, d), g_derivative_closed_form(model, xs, d), rtol=0, atol=1e-14)


class TestLogComb:
    @pytest.mark.parametrize("n", [1, 2, 3, 64, 511, 4096])
    def test_within_one_ulp_of_exact(self, n):
        values = sigma_mod._log_comb(n)
        assert values.shape == (n + 1,)
        ks = sorted({*range(0, n + 1, 1 if n < 4096 else 37), *range(min(n, 3)), *range(max(n - 2, 0), n + 1)})
        with localcontext() as ctx:
            ctx.prec = 40
            for k in ks:
                exact = Decimal(math.comb(n, k)).ln()
                err = abs(Decimal(float(values[k])) - exact)
                assert err <= Decimal(float(np.spacing(float(exact)))), (n, k)

    def test_independent_of_call_order(self, monkeypatch):
        monkeypatch.setattr(sigma_mod, "_LOG_FACT", [np.zeros(2), np.zeros(2)])
        before = sigma_mod._log_comb(5).tobytes()
        big = sigma_mod._log_comb(4096).tobytes()
        assert sigma_mod._log_comb(5).tobytes() == before
        monkeypatch.setattr(sigma_mod, "_LOG_FACT", [np.zeros(2), np.zeros(2)])
        assert sigma_mod._log_comb(4096).tobytes() == big
        assert sigma_mod._log_comb(5).tobytes() == before


class TestBinomialPmf:
    def test_rows_normalized(self):
        table = kernel_toarray(binomial_pmf_table(50, np.linspace(0, 1, 23)))
        np.testing.assert_allclose(table.sum(axis=1), 1.0, atol=1e-12)

    def test_matches_scipy(self):
        from scipy.stats import binom

        p = np.array([0.0, 0.17, 0.5, 0.93, 1.0])
        table = kernel_toarray(binomial_pmf_table(40, p))
        for i, pi in enumerate(p):
            np.testing.assert_allclose(table[i], binom.pmf(np.arange(41), 40, pi), atol=1e-12)

    def test_large_n_stable(self):
        table = kernel_toarray(binomial_pmf_table(5000, np.array([0.01, 0.99])))
        assert np.isfinite(table).all()
        np.testing.assert_allclose(table.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("n", [200, 1000, 4096])
    def test_row_drop_bounds_missing_mass(self, n):
        from scipy.stats import binom

        p = np.concatenate([np.linspace(0, 1, 300), sigma_mod._stage_g("maj3", 0.1)(np.linspace(0, 1, 300))])
        kernel = binomial_pmf_table(n, p)
        table = kernel_toarray(kernel)
        assert kernel.size < table.size
        exact = binom.pmf(np.arange(n + 1)[None, :], n, p[:, None])
        missing = np.where(table == 0.0, exact, 0.0).sum(axis=1)
        assert (kernel.drop >= missing).all()
        assert kernel.drop.max() <= sigma_mod.BAND_EPS

    @pytest.mark.parametrize("n", [40, 401, 4096])
    def test_drift_is_the_raw_row_sum_error(self, n):
        # no row drifts past 1e-12 here, so the blocks are the raw build and
        # drift can be read off them; point-mass rows are exact
        p = np.concatenate(([0.0, 1.0], sigma_mod._stage_g("maj3", 0.1)(np.linspace(0, 1, 300))))
        kernel = binomial_pmf_table(n, p)
        sums = np.concatenate([block.sum(axis=1) for block in kernel.blocks])
        assert 0.0 < kernel.drift == np.abs(sums - 1.0).max() <= 1e-12

    def test_drift_reports_the_rescale(self, monkeypatch):
        # every entry scaled by e^1e-10: rows are rescaled, and drift says by how much
        log_comb = sigma_mod._log_comb
        monkeypatch.setattr(sigma_mod, "_log_comb", lambda n: log_comb(n) + 1e-10)
        kernel = binomial_pmf_table(401, np.linspace(0.1, 0.9, 100))
        sums = np.concatenate([block.sum(axis=1) for block in kernel.blocks])
        assert kernel.drift == pytest.approx(1e-10, rel=1e-4)
        assert np.abs(sums - 1.0).max() < 1e-13

    # Two log-space builds of one pmf differ by their round-off, whose relative
    # size per entry is about eps * |ln C(n, k)| <= eps * 0.7 n: the bound is
    # 1e-13 in row L1 up to n = 256 and grows with n beyond (6.1e-13 seen at 4096)
    @pytest.mark.parametrize("n", [1, 64, 401, 4096])
    @pytest.mark.parametrize("L", [1, 2, 63, 64, 301])
    @pytest.mark.parametrize("delta", [0.0, 0.01, 0.1, 0.3])
    def test_mirror_classes(self, n, L, delta):
        tol = 1e-13 * max(1.0, n / 256)
        sig = np.arange(L + 1) / L
        maj, and_stage, or_stage = (sigma_mod._stage_g(model, delta, k) for model, k in (("maj3", 1), ("andor2", 2), ("andor2", 1)))
        half = kernel_toarray(binomial_pmf_table(n, maj(sig[: L // 2 + 1])))
        mirrored = np.vstack((half, half[: (L + 1) // 2][::-1, ::-1]))
        full = kernel_toarray(binomial_pmf_table(n, maj(sig)))
        assert np.abs(full - mirrored).sum(axis=1).max() <= tol
        flipped_and = kernel_toarray(binomial_pmf_table(n, and_stage(sig)))[::-1, ::-1]
        direct_or = kernel_toarray(binomial_pmf_table(n, or_stage(sig)))
        assert np.abs(direct_or - flipped_and).sum(axis=1).max() <= tol

    def test_blocks_do_not_depend_on_blas_threads(self):
        code = (
            "import hashlib, numpy as np\n"
            "from dagbroadcast.model import LayerSchedule\n"
            "from dagbroadcast.sigma import _stage_g, binomial_pmf_table, exact_chain\n"
            "h = hashlib.sha256()\n"
            "for n in (64, 401, 4096):\n"
            "    for block in binomial_pmf_table(n, _stage_g('maj3', 0.1)(np.arange(301) / 300)).blocks:\n"
            "        h.update(block.tobytes())\n"
            "h.update(exact_chain('maj3', 0.15, LayerSchedule.linear(), 150)[-1].plus.tobytes())\n"
            "print(h.hexdigest())\n"
        )
        env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        digests = [
            subprocess.run([sys.executable, "-c", code], env=extra, capture_output=True, text=True, timeout=120, check=True).stdout
            for extra in (env, {**env, "OPENBLAS_NUM_THREADS": "1"})
        ]
        assert len(digests[0]) == 65 and digests[0] == digests[1]

    def test_apply_matches_dense_product(self):
        kernel = binomial_pmf_table(700, sigma_mod._stage_g("andor2", 0.07, 1)(np.linspace(0, 1, 301)))
        pair = np.random.default_rng(0).random((2, 301))
        np.testing.assert_allclose(kernel.apply(pair), pair @ kernel_toarray(kernel), rtol=1e-13, atol=1e-16)


def _window(L: int) -> int:
    return math.ceil(math.sqrt(L * math.log(2 / sigma_mod.BAND_EPS) / 2))


class TestBandedChain:
    @pytest.mark.parametrize("model", ["maj3", "andor2"])
    @pytest.mark.parametrize("spec, depth", [("const:64", 100), ("const:512", 100), ("linear", 200), ("log:10", 100)])
    @pytest.mark.parametrize("delta", [0.0, 0.05, 0.16, 0.18, 0.3])
    def test_matches_dense_oracle(self, model, spec, depth, delta):
        schedule = LayerSchedule.parse(spec)
        chain = exact_chain(model, delta, schedule, depth)
        oracle = dense_chain(MODEL_GATES[model], delta, schedule, depth)
        for dist, (plus, minus) in zip(chain, oracle):
            err = max(np.abs(dist.plus - plus).sum(), np.abs(dist.minus - minus).sum())
            assert err <= dist.dropped + 1e-13
            assert abs(tv(dist) - 0.5 * np.abs(plus - minus).sum()) <= dist.dropped + 1e-13
            if all(schedule.size(k) + 1 <= 2 * _window(schedule.size(k)) + 1 for k in range(1, dist.level + 1)):
                assert dist.dropped == 0.0

    # rows a model table may gain: a wider self-dual gate, andor2's stages swapped,
    # a gate read through its dual, mixed arities, a repeated self-dual stage, and a
    # gate that is neither self-dual nor read through its dual
    NEW_ROWS = {
        "maj5": (Gate.from_function("MAJ5", 5, lambda *bits: int(sum(bits) >= 3)),),
        "andor2-swapped": (AND2, OR2),
        "nand2": (NAND2,),
        "maj3-and2": (MAJ3, AND2),
        "maj3-maj3": (MAJ3, MAJ3),
        "xor2": (XOR2,),
    }

    @pytest.mark.parametrize("row", NEW_ROWS)
    @pytest.mark.parametrize("spec", ["const:33", "linear", "const:64"])
    @pytest.mark.parametrize("delta", [0.03, 0.12, 0.25])
    def test_new_stages_rows_match_dense_oracle(self, row, spec, delta, monkeypatch):
        # a new model is one STAGES row: exact_chain reads its mirror classes from the gates
        monkeypatch.setitem(sigma_mod.STAGES, row, self.NEW_ROWS[row])
        schedule = LayerSchedule.parse(spec)
        chain = exact_chain(row, delta, schedule, 30)
        for dist, (plus, minus) in zip(chain, dense_chain(self.NEW_ROWS[row], delta, schedule, 30), strict=True):
            err = max(np.abs(dist.plus - plus).sum(), np.abs(dist.minus - minus).sum())
            assert err <= dist.dropped + 1e-13, (dist.level, err)

    def test_one_kernel_build_per_mirror_class_on_constant_schedules(self, monkeypatch):
        calls = []
        build = sigma_mod.binomial_pmf_table
        monkeypatch.setattr(sigma_mod, "binomial_pmf_table", lambda n, p: calls.append((n, len(p))) or build(n, p))
        # half kernels: rows 0 .. L//2 of 1 -> 300 and 300 -> 300
        exact_chain("maj3", 0.1, LayerSchedule.constant(300), 40)
        assert calls == [(300, 1), (300, 151)]
        calls.clear()
        # AND kernels 1 -> 300 (for the OR step) and 300 -> 300 (for both stages)
        exact_chain("andor2", 0.1, LayerSchedule.constant(300), 40)
        assert calls == [(300, 2), (300, 301)]


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
        # at every level, andor2's odd ones included: exact_chain's early stop
        # (stop_below) relies on it; deltas on both sides of each threshold
        cases = [("maj3", d) for d in (0.12, 0.16, 0.18, 0.3)]
        cases += [("andor2", d) for d in (0.07, 0.085, 0.095, 0.2)]
        for spec in ("const:24", "linear", "log:4"):
            for model, d in cases:
                tvs = [tv(c) for c in exact_chain(model, d, LayerSchedule.parse(spec), 40)]
                assert all(b <= a + 1e-12 for a, b in zip(tvs, tvs[1:])), (spec, model, d)

    @pytest.mark.parametrize("model", ["maj3", "andor2"])
    @pytest.mark.parametrize("spec", ["const:16", "const:64", "log:4"])
    @pytest.mark.parametrize("depth", [40, 41])
    @pytest.mark.parametrize("cutoff", [0.005, 0.01, 0.02, 0.05])
    def test_stop_below_is_a_prefix(self, model, spec, depth, cutoff):
        # a stopped chain ends at its first level with TV below the cutoff, or
        # where the full chain's TV at the read level r stays at or above it
        schedule = LayerSchedule.parse(spec)
        read = depth - depth % len(sigma_mod.STAGES[model])
        for d in (0.08, 0.1, 0.12, 0.16, 0.2):
            full = exact_chain(model, d, schedule, depth)
            stopped = exact_chain(model, d, schedule, depth, stop_below=cutoff)
            for a, b in zip(stopped, full, strict=False):
                assert (a.level, a.L, a.dropped) == (b.level, b.L, b.dropped)
                assert np.array_equal(a.plus, b.plus) and np.array_equal(a.minus, b.minus)
            first = next((c.level for c in full if tv(c) < cutoff), None)
            end = stopped[-1].level
            if tv(stopped[-1]) < cutoff:
                assert end == first, (d, first)
            else:
                assert end <= read and tv(full[read]) >= cutoff, (d, end)
                assert first is None or first > end, (d, first)

    def test_stay_above_waits_for_the_last_size_change(self):
        # TV holds near 1 on the wide layers and decays on the one-node tail, so
        # a stop certified before level 20 would be wrong
        schedule = LayerSchedule.explicit([64] * 20 + [1] * 40)
        full = exact_chain("maj3", 0.12, schedule, 60)
        stopped = exact_chain("maj3", 0.12, schedule, 60, stop_below=0.1)
        assert tv(full[19]) > 0.99 and tv(full[60]) < 0.1
        assert stopped[-1].level == next(c.level for c in full if tv(c) < 0.1)

    def test_kernel_drift_widens_the_stay_above_margin(self, monkeypatch):
        # with drift 1e-3, eta = 16 * 2 * 1e-3 leaves room for m(m+1) eta / 2 < 1
        # only within m <= 7 periods of level 200; the true drift stops at level 20
        build = sigma_mod.binomial_pmf_table
        monkeypatch.setattr(sigma_mod, "binomial_pmf_table", lambda n, p: dataclasses.replace(build(n, p), drift=1e-3))
        chain = exact_chain("andor2", 0.05, LayerSchedule.parse("const:512"), 200, stop_below=0.02)
        assert 186 <= chain[-1].level < 200 and tv(chain[-1]) >= 0.02

    def test_self_duality_reversal(self):
        for spec in ("const:16", "linear", "log:10"):
            for dist in exact_chain("maj3", 0.2, LayerSchedule.parse(spec), 40):
                assert np.array_equal(dist.minus, dist.plus[::-1]), (spec, dist.level)

    def test_budget_refused(self):
        with pytest.raises(BudgetExceededError):
            exact_chain("maj3", 0.2, LayerSchedule.constant(8192), 3)
        # overridable
        chain = exact_chain("maj3", 0.2, LayerSchedule.constant(8192), 1, budget=8192)
        assert chain[1].L == 8192

    def test_budget_checked_before_any_kernel_build(self, monkeypatch):
        monkeypatch.setattr(sigma_mod, "binomial_pmf_table", lambda n, p: pytest.fail("kernel built"))
        schedule = LayerSchedule.explicit([8] * 39 + [64])
        with pytest.raises(BudgetExceededError, match="level 40"):
            exact_chain("maj3", 0.2, schedule, 40, budget=32, stop_below=2.0)

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

    @pytest.mark.parametrize("model", ["maj3", "andor2"])
    @pytest.mark.parametrize("delta", [0.5 - 2.0**-20, float(np.nextafter(0.5, 0.0))])
    def test_monotone_where_the_cuts_share_hi(self, model, delta):
        # near delta = 1/2 both chains' node laws lie within 2^-16 of 1/2, so they
        # share their lane cut and the one refinement decides both
        stats = coupled_mc(model, delta, LayerSchedule.constant(1000), 6, 40, 3)
        assert stats.monotone_fraction == 1.0 and stats.min_gap >= 0

    def test_subcritical_separation(self):
        stats = coupled_mc("maj3", 0.1, LayerSchedule.constant(64), 50, 4000, seed=3)
        sep = (stats.final_plus >= 0.5).mean() - (stats.final_minus >= 0.5).mean()
        assert sep > 0.5

    def test_deterministic(self):
        a = coupled_mc("maj3", 0.2, LayerSchedule.constant(8), 10, 500, seed=7)
        b = coupled_mc("maj3", 0.2, LayerSchedule.constant(8), 10, 500, seed=7)
        np.testing.assert_array_equal(a.mean_gap, b.mean_gap)

    def test_zero_depth_refused(self):
        with pytest.raises(ValueError, match="depth must be >= 1"):
            coupled_mc("maj3", 0.2, LayerSchedule.constant(8), 0, 10, seed=7)


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

    def test_rule_called_once_per_fraction(self):
        dag = sample_random_dag(14, 3, LayerSchedule.logarithmic(10), 30)
        seen = []

        def counting_rule(s):
            seen.append(s)
            return majority_rule(s)

        est = quenched_error_estimate(dag, MAJ3, 0.1, counting_rule, 3000, seed=4)
        assert len(seen) == len(set(seen)) <= dag.layer_sizes[-1] + 1
        # the same error count as the rule read trial by trial
        roots = (np.arange(3000) % 2).astype(np.uint8)
        final = propagate_many(dag, MAJ3, 0.1, roots, 4)
        errors = sum(majority_rule(s) != r for s, r in zip(final.mean(axis=1), roots))
        assert (round(est.p_err * est.trials), est.trials) == (errors, 3000)


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
