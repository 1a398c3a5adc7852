"""Tests for channels, gates, schedules, DAG sampling, and propagation."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.stats import chisquare

from dagbroadcast.model import (
    AND2,
    IDENTITY,
    MAJ3,
    NAND2,
    OR2,
    XOR2,
    Gate,
    LayerSchedule,
    as_delta,
    convolve,
    propagate_many,
    sample_random_dag,
)
from oracles import gate_output_prob


class TestCrossoverProb:
    """``as_delta``, the one check of a crossover probability."""

    @pytest.mark.parametrize("bad", [0.0, 0.5, -0.1, 0.7, 1.0])
    def test_endpoints_rejected(self, bad):
        with pytest.raises(ValueError):
            as_delta(bad)

    def test_interior_accepted(self):
        assert as_delta(0.25) == 0.25

    def test_noiseless_test_mode(self):
        assert as_delta(0.0, noiseless_ok=True) == 0.0
        with pytest.raises(ValueError):
            as_delta(0.5, noiseless_ok=True)


class TestConvolve:
    def test_half_is_fixed(self):
        for d in (0.1, 0.25, 0.49):
            assert convolve(0.5, d) == pytest.approx(0.5)

    def test_one(self):
        assert convolve(1.0, 0.1) == pytest.approx(0.9)

    def test_hand_value(self):
        assert convolve(0.3, 0.2) == pytest.approx(0.38)

    @given(st.floats(0, 1), st.floats(0.001, 0.499))
    def test_affine_range_and_symmetry(self, sigma, delta):
        out = convolve(sigma, delta)
        assert delta - 1e-12 <= out <= 1 - delta + 1e-12
        assert convolve(1 - sigma, delta) == pytest.approx(1 - out)


class TestGate:
    def test_named_tables(self):
        assert MAJ3.table == tuple(int(w.bit_count() >= 2) for w in range(8))
        assert AND2.table == (0, 0, 0, 1)
        assert OR2.table == (0, 1, 1, 1)
        assert XOR2.table == (0, 1, 1, 0)
        assert NAND2.table == (1, 1, 1, 0)
        assert IDENTITY.table == (0, 1)

    def test_bad_table_rejected(self):
        with pytest.raises(ValueError):
            Gate("BAD", 2, (0, 1))
        with pytest.raises(ValueError):
            Gate("BAD", 2, (0, 1, 2, 0))

    def test_call(self):
        assert MAJ3(1, 1, 0) == 1
        assert MAJ3(1, 0, 0) == 0


class TestGateOutputProb:
    def test_self_dual_at_half(self):
        assert gate_output_prob(MAJ3, 0.5) == pytest.approx(0.5)

    def test_and_is_square(self):
        assert gate_output_prob(AND2, 0.9) == pytest.approx(0.81)

    def test_maj3_brute(self):
        # brute force over 8 input words, p = 0.3
        assert gate_output_prob(MAJ3, 0.3) == pytest.approx(0.3**3 + 3 * 0.3**2 * 0.7)

    @pytest.mark.parametrize("gate", [MAJ3, AND2, OR2])
    def test_monotone_gates_monotone_in_p(self, gate):
        grid = np.linspace(0, 1, 41)
        vals = [gate_output_prob(gate, p) for p in grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    @given(st.floats(0, 1))
    def test_or_closed_form(self, p):
        assert gate_output_prob(OR2, p) == pytest.approx(1 - (1 - p) ** 2)


class TestLayerSchedule:
    def test_root_level_always_one(self):
        for sched in (
            LayerSchedule.constant(7),
            LayerSchedule.linear(),
            LayerSchedule.logarithmic(3),
            LayerSchedule.explicit([4, 5]),
        ):
            assert sched.size(0) == 1

    def test_kinds(self):
        assert LayerSchedule.constant(7).size(3) == 7
        assert LayerSchedule.linear().size(3) == 4
        assert LayerSchedule.logarithmic(5).size(1) == int(np.ceil(5 * np.log(3)))
        assert LayerSchedule.explicit([4, 5]).size(2) == 5

    def test_parse_round_trip(self):
        assert LayerSchedule.parse("const:64") == LayerSchedule.constant(64)
        assert LayerSchedule.parse("linear") == LayerSchedule.linear()
        assert LayerSchedule.parse("log:10") == LayerSchedule.logarithmic(10)
        assert LayerSchedule.parse("list:1,2,4") == LayerSchedule.explicit([1, 2, 4])

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            LayerSchedule.parse("fancy:3")


class TestSampleRandomDag:
    def test_single_node_layers(self):
        dag = sample_random_dag(5, 3, LayerSchedule.constant(1), 5)
        for level in dag.parents:
            assert (level == 0).all()

    def test_deterministic(self):
        a = sample_random_dag(1, 3, LayerSchedule.constant(10), 4)
        b = sample_random_dag(1, 3, LayerSchedule.constant(10), 4)
        for x, y in zip(a.parents, b.parents):
            np.testing.assert_array_equal(x, y)

    def test_rejects_depth_zero(self):
        with pytest.raises(ValueError):
            sample_random_dag(1, 3, LayerSchedule.constant(4), 0)

    def test_parent_uniformity_chi2(self):
        # 2 levels of 100 nodes, d = 3: level-2 slots draw from [0, 100).
        dag = sample_random_dag(42, 3, LayerSchedule.constant(100), 2)
        draws = dag.parents[1].ravel()
        # top up with many more realizations for power
        extra = [
            sample_random_dag(s, 3, LayerSchedule.constant(100), 2).parents[1].ravel()
            for s in range(43, 43 + 330)
        ]
        draws = np.concatenate([draws] + extra)
        assert len(draws) >= 99000
        counts = np.bincount(draws, minlength=100)
        _, p = chisquare(counts)
        assert p > 0.01


def _final_level(dag, gate, delta, root, seed):
    """The last level's bits of one broadcast from ``root``."""
    return propagate_many(dag, gate, delta, np.array([root]), seed)[0]


class TestBscSample:
    """The copy-or-refresh edge noise of ``propagate_many``, on one edge."""

    def _one_edge(self, root, delta, trials, seed):
        dag = sample_random_dag(1, 1, LayerSchedule.constant(1), 1)
        return propagate_many(dag, IDENTITY, delta, np.full(trials, root), seed)[:, 0]

    def test_deterministic(self):
        np.testing.assert_array_equal(self._one_edge(1, 0.25, 100, 7), self._one_edge(1, 0.25, 100, 7))

    def test_fresh_frequency(self):
        # the same draws from roots 0 and 1 differ exactly where the edge copies,
        # which happens with probability 1 - 2*delta
        copied = (self._one_edge(0, 0.01, 100_000, 11) != self._one_edge(1, 0.01, 100_000, 11)).mean()
        assert abs(copied - 0.98) < 3 * np.sqrt(0.02 * 0.98 / 100_000)

    def test_marginal_flip_rate(self):
        flips = self._one_edge(0, 0.25, 100_000, 13).mean()
        assert abs(flips - 0.25) < 3 * np.sqrt(0.25 * 0.75 / 100_000)


class TestPropagate:
    def test_identity_chain_coupling(self):
        # d = 1 identity chain with a shared seed: the root flip
        # propagates through every copying channel and disappears at the
        # first fresh draw, so the disagreement pattern is a prefix.
        # Level k of the depth-40 chain is the last level of its depth-k prefix.
        sched = LayerSchedule.constant(1)
        diffs = [1]
        for k in range(1, 41):
            dag = sample_random_dag(3, 1, sched, k)
            diffs.append(int(_final_level(dag, IDENTITY, 0.3, 1, 99)[0] != _final_level(dag, IDENTITY, 0.3, 0, 99)[0]))
        assert all(a >= b for a, b in zip(diffs, diffs[1:]))
        # at delta = 0.3 a fresh draw within 40 levels is essentially sure
        assert diffs[-1] == 0

    def test_noiseless_majority_consensus(self):
        for depth in range(1, 7):
            dag = sample_random_dag(8, 3, LayerSchedule.constant(9), depth)
            assert _final_level(dag, MAJ3, 0.0, 1, 5).all()
            assert not _final_level(dag, MAJ3, 0.0, 0, 5).any()

    def test_pure_function(self):
        dag = sample_random_dag(2, 3, LayerSchedule.constant(5), 4)
        roots = np.array([0, 1, 1, 0, 1])
        a = propagate_many(dag, MAJ3, 0.2, roots, seed=17)
        b = propagate_many(dag, MAJ3, 0.2, roots, seed=17)
        np.testing.assert_array_equal(a, b)

    def test_arity_mismatch(self):
        dag = sample_random_dag(2, 3, LayerSchedule.constant(5), 2)
        with pytest.raises(ValueError):
            propagate_many(dag, AND2, 0.2, np.ones(3), seed=1)

    def test_single_node_level_matches_g(self):
        # one MAJ3 step from root 1 at delta = 0.1: P(one) = 0.972
        dag = sample_random_dag(4, 3, LayerSchedule.constant(1), 1)
        roots = np.ones(100_000, dtype=np.uint8)
        bits = propagate_many(dag, MAJ3, 0.1, roots, seed=21)
        p_hat = bits.mean()
        expect = gate_output_prob(MAJ3, 0.9)
        assert expect == pytest.approx(0.972)
        assert abs(p_hat - expect) < 3 * np.sqrt(expect * (1 - expect) / 100_000)

    def test_layer_law_chi2(self):
        # conditioned on the previous level, layer bits are iid
        # Bernoulli(g): check the one-count distribution of a width-8
        # layer against Binomial(8, g) when the previous level is frozen.
        from scipy.stats import binom

        dag = sample_random_dag(6, 3, LayerSchedule.constant(8), 1)
        roots = np.ones(60_000, dtype=np.uint8)
        bits = propagate_many(dag, MAJ3, 0.15, roots, seed=33)
        counts = np.bincount(bits.sum(axis=1), minlength=9)
        g = gate_output_prob(MAJ3, convolve(1.0, 0.15))
        expected = binom.pmf(np.arange(9), 8, g) * 60_000
        keep = expected > 5
        _, p = chisquare(counts[keep], expected[keep] * counts[keep].sum() / expected[keep].sum())
        assert p > 0.01
