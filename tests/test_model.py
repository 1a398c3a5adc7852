"""Tests for channels, gates, schedules, DAG sampling, and propagation."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
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
from oracles import CLOSED_FORM_CURVES, gate_node_law, gate_output_prob, propagate_many_dense


PAR9 = Gate.from_function("PAR9", 9, lambda *b: sum(b) % 2)


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


def _grid_tables_by_loops(f1, f2, delta):
    """The grid's per-node tables as four explicit loops: p2[b] and p11[a, b]."""
    p2 = np.array([(1.0 - delta) * f2.table[b] + delta * f2.table[1 - b] for b in range(2)])
    p11 = np.zeros((2, 2))
    for a in range(2):
        for b in range(2):
            for z1 in range(2):
                for z2 in range(2):
                    w = (delta if z1 else 1.0 - delta) * (delta if z2 else 1.0 - delta)
                    p11[a, b] += w * f1.table[(a ^ z1) | ((b ^ z2) << 1)]
    return p2, p11


class TestNoisyOutputProbs:
    @pytest.mark.parametrize("gate", [MAJ3, AND2, OR2, XOR2, NAND2, IDENTITY, PAR9])
    @pytest.mark.parametrize("delta", [0.0, 0.01, 0.13, 0.3, 0.49])
    def test_matches_enumeration(self, gate, delta):
        # the node law propagate_many draws from, against the sum over the node's edge flips
        np.testing.assert_allclose(gate.noisy_output_probs(delta), gate_node_law(gate, delta), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("gate", [MAJ3, AND2, OR2, IDENTITY, PAR9])
    @pytest.mark.parametrize("delta", [0.0, 0.07, 0.31])
    def test_equal_parent_bits_match_gate_output_prob(self, gate, delta):
        # equal parent bits reach the gate as i.i.d. Bernoulli(delta) or Bernoulli(1 - delta) inputs
        law = gate.noisy_output_probs(delta)
        assert law[0] == pytest.approx(gate_output_prob(gate, delta), abs=1e-14)
        assert law[-1] == pytest.approx(gate_output_prob(gate, 1.0 - delta), abs=1e-14)

    @pytest.mark.parametrize("f1", [AND2, OR2, XOR2, NAND2])
    def test_grid_tables_bit_for_bit(self, f1):
        # the grid DP reads p2 from the boundary gate and p11[a, b] from the
        # interior gate's table of words a | b << 1
        for delta in np.linspace(0.0, 0.49, 50):
            p2, p11 = _grid_tables_by_loops(f1, IDENTITY, float(delta))
            assert IDENTITY.noisy_output_probs(delta).tobytes() == p2.tobytes()
            assert f1.noisy_output_probs(delta).reshape(2, 2).T.tobytes() == p11.tobytes()

    def test_delta_checked(self):
        with pytest.raises(ValueError):
            AND2.noisy_output_probs(0.5)


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


class TestGateCurve:
    """``Gate.curve``, the g-curve the sigma-chain applies, derived from the truth table alone."""

    GATES = [MAJ3, AND2, OR2, XOR2, NAND2, IDENTITY]
    CONSTANT = [Gate("ZERO", 2, (0, 0, 0, 0)), Gate("ONE", 1, (1, 1))]

    @pytest.mark.parametrize("gate", GATES + [PAR9] + CONSTANT, ids=lambda g: g.name)
    def test_exact_in_fractions(self, gate):
        for m in (Fraction(0), Fraction(1), Fraction(1, 3), Fraction(5, 7), Fraction(999, 1000)):
            got = gate.curve(m)
            assert got == gate_output_prob(gate, m)
            assert isinstance(got, (int, Fraction))

    @pytest.mark.parametrize("gate", GATES, ids=lambda g: g.name)
    @pytest.mark.parametrize("delta", [0.0, 0.07, 0.31, 0.49])
    def test_matches_the_node_law(self, gate, delta):
        # an independent route: P(word | sigma) times the node law of each noiseless parent word
        sigma = np.linspace(0.0, 1.0, 257)
        ones = np.array([w.bit_count() for w in range(1 << gate.arity)])
        weight = sigma[:, None] ** ones * (1.0 - sigma[:, None]) ** (gate.arity - ones)
        want = weight @ gate.noisy_output_probs(delta)
        np.testing.assert_allclose(gate.curve(convolve(sigma, delta)), want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("gate", list(CLOSED_FORM_CURVES), ids=lambda g: g.name)
    def test_bit_for_bit_the_closed_forms(self, gate):
        closed = CLOSED_FORM_CURVES[gate]
        m = np.concatenate([np.random.default_rng(5).random(100_000), [0.0, 1.0, 5e-324, np.nextafter(1.0, 0.0)]])
        assert gate.curve(m).tobytes() == closed(m).tobytes()
        assert gate.curve(float(m[7])) == closed(float(m[7]))
        for d in (0.0, 0.1, 0.3):
            poly = convolve(np.poly1d([1.0, 0.0]), d)
            assert gate.curve(poly) == closed(poly)

    @pytest.mark.parametrize("gate", CONSTANT, ids=lambda g: g.name)
    def test_constant_gate_keeps_the_shape(self, gate):
        assert gate.curve(np.linspace(0.0, 1.0, 5)).tolist() == [gate.table[0]] * 5

    def test_built_once_per_gate(self):
        assert MAJ3.curve is MAJ3.curve


class TestGateDual:
    """``Gate.dual``, x -> 1 - f(1 - x), from which the sigma-chain takes its kernel mirror classes."""

    @pytest.mark.parametrize("gate", TestGateCurve.GATES + [PAR9] + TestGateCurve.CONSTANT, ids=lambda g: g.name)
    def test_complements_inputs_and_output(self, gate):
        full = (1 << gate.arity) - 1
        assert all(gate.dual.table[w] == 1 - gate.table[w ^ full] for w in range(full + 1))
        assert gate.dual.dual.table == gate.table
        assert gate.via_dual == (sum(gate.table) > sum(gate.dual.table))
        for m in (Fraction(0), Fraction(1, 3), Fraction(5, 7), Fraction(1)):
            assert gate.dual.curve(1 - m) == 1 - gate.curve(m)

    def test_named_duals(self):
        assert OR2.dual.table == AND2.table and AND2.dual.table == OR2.table
        assert NAND2.dual.table == (1, 0, 0, 0)  # NOR
        assert MAJ3.dual is MAJ3 and PAR9.dual is PAR9
        assert XOR2.dual.table == (1, 0, 0, 1)  # XNOR
        assert [g.name for g in TestGateCurve.GATES if g.via_dual] == ["OR", "NAND"]


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

    @pytest.mark.parametrize(
        "spec, match",
        [
            ("log:inf", "positive and finite, got inf"),
            ("log:nan", "positive and finite, got nan"),
            ("log:-inf", "positive and finite, got -inf"),
            ("log:0", "positive and finite, got 0.0"),
            ("linear:5", "takes no parameter, got 'linear:5'"),
            ("linear:", "takes no parameter"),
        ],
    )
    def test_parse_refuses_bad_parameters(self, spec, match):
        with pytest.raises(ValueError, match=match):
            LayerSchedule.parse(spec)

    def test_log_size_overflow_refused(self):
        sched = LayerSchedule.parse("log:1e308")
        assert sched.size(1) == math.ceil(1e308 * math.log(3))
        with pytest.raises(ValueError, match="overflows at level 100"):
            sched.size(100)


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


# delta just below 1/2: every node's law lies within a few ulps of 1/2 whatever its parents hold
_NEAR_HALF = float(np.nextafter(0.5, 0.0))


class TestPropagateMatchesDense:
    """``propagate_many`` reads each node's law from ``Gate.noisy_output_probs``; the
    dense oracle sums each node's edge noise itself.  Both draw one uniform per
    node, and the bits must agree exactly."""

    @staticmethod
    def _both(d, gate_at, schedule, depth, delta, trials, seed):
        dag = sample_random_dag(seed, d, schedule, depth)
        roots = (np.arange(trials) + seed % 2) % 2
        got = propagate_many(dag, gate_at, delta, roots, seed)
        want = propagate_many_dense(dag, gate_at, delta, roots, seed)
        assert got.dtype == want.dtype == np.uint8 and got.shape == want.shape
        np.testing.assert_array_equal(got, want)
        return got

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**64 - 1),
        st.integers(1, 60),
        st.integers(1, 12),
        st.sampled_from([0.0, 0.01, 0.1, 0.23, _NEAR_HALF]),
    )
    def test_maj3(self, seed, trials, depth, delta):
        self._both(3, lambda k: MAJ3, LayerSchedule.logarithmic(3), depth, delta, trials, seed)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(1, 40), st.integers(1, 10), st.floats(0.0, 0.49))
    def test_andor_alternating(self, seed, trials, depth, delta):
        self._both(2, lambda k: AND2 if k % 2 else OR2, LayerSchedule.constant(6), depth, delta, trials, seed)

    @pytest.mark.parametrize("gate", [IDENTITY, PAR9])
    def test_arity_1_and_9(self, gate):
        # nine inputs need a 16-bit gate word
        self._both(gate.arity, lambda k: gate, LayerSchedule.constant(5), 4, 0.2, 30, 8)

    def test_no_refresh_copies_parents(self):
        bits = self._both(3, lambda k: MAJ3, LayerSchedule.constant(7), 6, 0.0, 20, 4)
        np.testing.assert_array_equal(bits, np.repeat(np.arange(20) % 2, 7).reshape(20, 7))

    def test_every_edge_refreshes(self):
        # the output forgets the root: both root vectors give the same bits
        dag = sample_random_dag(2, 3, LayerSchedule.constant(9), 5)
        a = propagate_many(dag, MAJ3, _NEAR_HALF, np.zeros(50, dtype=np.uint8), 3)
        b = propagate_many(dag, MAJ3, _NEAR_HALF, np.ones(50, dtype=np.uint8), 3)
        np.testing.assert_array_equal(a, b)
        self._both(3, lambda k: MAJ3, LayerSchedule.constant(9), 5, _NEAR_HALF, 50, 3)

    def test_half_refused(self):
        dag = sample_random_dag(2, 3, LayerSchedule.constant(4), 2)
        for fn in (propagate_many, propagate_many_dense):
            with pytest.raises(ValueError, match="delta must lie in"):
                fn(dag, lambda k: MAJ3, 0.5, np.ones(3), 1)
