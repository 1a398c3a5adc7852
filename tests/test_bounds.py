"""Tests for the closed-form impossibility bounds."""

import math

import pytest
from hypothesis import given, strategies as st

from dagbroadcast.model import LayerSchedule
from dagbroadcast.bounds import bond_bound, delta_es, evans_schulman, slow_growth_threshold


def below_threshold(schedule, d, delta, K, k_max=2000):
    """Whether L_k <= slow_growth_threshold(k) for every K <= k <= k_max."""
    return all(schedule.size(k) <= slow_growth_threshold(k, d, delta) for k in range(max(K, 2), k_max + 1))


class TestClosedForms:
    def test_delta_es_values(self):
        assert delta_es(3) == pytest.approx(0.5 - 0.5 / math.sqrt(3))
        assert delta_es(2) == pytest.approx(0.5 - 0.5 / math.sqrt(2))
        assert delta_es(1) == 0.0

    def test_bond_bound_values(self):
        assert bond_bound(3) == pytest.approx(1.0 / 3.0)
        assert bond_bound(2) == pytest.approx(0.25)

    @pytest.mark.parametrize("fn", [delta_es, bond_bound])
    def test_degree_validated(self, fn):
        with pytest.raises(ValueError):
            fn(0)

    @given(st.integers(2, 50))
    def test_bond_bound_above_delta_es(self, d):
        # the percolation value is the weaker (larger) threshold
        assert bond_bound(d) > delta_es(d)

    def test_evans_schulman_formula(self):
        assert evans_schulman(64, 0.22, 3, 5) == pytest.approx(
            64 * ((0.56) ** 2 * 3) ** 5
        )

    def test_evans_schulman_critical_flat(self):
        d = 3
        delta = delta_es(d)
        vals = [evans_schulman(10, delta, d, k) for k in (1, 5, 20)]
        assert vals == pytest.approx([10.0, 10.0, 10.0])

    def test_evans_schulman_decays_above_threshold(self):
        vals = [evans_schulman(100, 0.3, 3, k) for k in range(1, 30)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-3


class TestSlowGrowth:
    def test_formula(self):
        assert slow_growth_threshold(100, 3, 0.25) == pytest.approx(
            math.log(100) / (3 * math.log(2))
        )

    def test_small_k_rejected(self):
        with pytest.raises(ValueError):
            slow_growth_threshold(1, 3, 0.25)

    def test_constant_one_qualifies_eventually(self):
        sched = LayerSchedule.constant(1)
        # need log(k) >= 3 log(2), i.e. k >= 8
        assert below_threshold(sched, 3, 0.25, K=8)
        assert not below_threshold(sched, 3, 0.25, K=2)

    def test_linear_never_qualifies(self):
        assert not below_threshold(LayerSchedule.linear(), 3, 0.25, K=100)

    def test_tiny_log_schedule_qualifies(self):
        sched = LayerSchedule.logarithmic(0.1)
        assert below_threshold(sched, 3, 0.25, K=8)
