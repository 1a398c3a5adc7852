"""Tests for the coupled AND grid and oriented bond percolation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dagbroadcast.cli import ConfigError, ExperimentConfig
from dagbroadcast.model import AND2, IDENTITY
from dagbroadcast.grid import grid_exact_distribution
from dagbroadcast.coupling import (
    SYM_1U,
    _NONE,
    _node_tails,
    _percolation_reach,
    _reach_probs,
    coupled_grid_runs,
    coupling_tv_bound,
    estimate_alpha,
)
from oracles import (
    NO_PARENT,
    SYM_0C,
    SYM_1C,
    coupled_and,
    coupled_channel_matrix,
    coupled_grid_coalesced,
    coupled_grid_runs_dense,
    coupled_node_law,
    decode_symbol,
    encode_pair,
    percolation_edges_by_loop,
    percolation_node_law,
    percolation_reach_dense,
)

SYMBOLS = (SYM_0C, SYM_1U, SYM_1C)


class TestSymbols:
    def test_round_trip(self):
        for sym in SYMBOLS:
            assert encode_pair(*decode_symbol(sym)) == sym

    def test_unrepresentable_pair(self):
        with pytest.raises(ValueError):
            encode_pair(1, 0)

    def test_and_table_is_coordinatewise_and(self):
        for a in SYMBOLS:
            for b in SYMBOLS:
                am, ap = decode_symbol(a)
                bm, bp = decode_symbol(b)
                assert decode_symbol(coupled_and(a, b)) == (am & bm, ap & bp)

    def test_and_is_min(self):
        # coupled_grid_runs draws P(AND >= s) as a product of tails, which needs the AND to be the min
        for a in SYMBOLS:
            for b in SYMBOLS:
                assert coupled_and(a, b) == np.minimum(np.int8(a), np.int8(b))


class TestCoupledChannel:
    def test_matrix_rows_stochastic(self):
        m = coupled_channel_matrix(0.2)
        np.testing.assert_allclose(m.sum(axis=1), 1.0)
        assert (m >= 0).all()

    def test_agreement_never_breaks(self):
        m = coupled_channel_matrix(0.3)
        assert m[SYM_0C, SYM_1U] == 0
        assert m[SYM_1C, SYM_1U] == 0
        # parents in {0c, 1c, none}: P(node >= 1u) == P(node >= 1c), so no uniform falls on 1u
        agreed = [4 * a + b for a in (SYM_0C, SYM_1C, _NONE) for b in (SYM_0C, SYM_1C, _NONE)]
        for delta in (0.0, 0.01, 0.3, 0.49):
            tails = _node_tails(delta)
            np.testing.assert_array_equal(tails[0, agreed], tails[1, agreed])

    def test_marginals_are_bsc(self):
        # each coordinate of the decoded pair flips with probability delta
        delta = 0.17
        m = coupled_channel_matrix(delta)
        for sym in SYMBOLS:
            minus_in, plus_in = decode_symbol(sym)
            p_minus = sum(m[sym, out] * decode_symbol(out)[0] for out in SYMBOLS)
            p_plus = sum(m[sym, out] * decode_symbol(out)[1] for out in SYMBOLS)
            assert p_minus == pytest.approx(delta if minus_in == 0 else 1 - delta)
            assert p_plus == pytest.approx(delta if plus_in == 0 else 1 - delta)

    @pytest.mark.parametrize("delta", [0.0, 0.01, 0.25, 0.49])
    def test_node_law_matches_enumeration(self, delta):
        # every parent pair, boundary nodes' missing parent included, against the
        # coupled AND summed over both parents' channel outputs
        assert _NONE == NO_PARENT
        law = coupled_node_law(delta)
        tails = _node_tails(delta).reshape(2, 4, 4)
        for left in (*SYMBOLS, _NONE):
            for right in (*SYMBOLS, _NONE):
                if left == right == _NONE:
                    continue
                at_least = law[left, right, ::-1].cumsum()[::-1]  # P(node >= 0c, 1u, 1c)
                np.testing.assert_allclose(tails[:, left, right], at_least[1:], rtol=0, atol=1e-15)

    def test_step_frequencies_match_matrix(self):
        # level 1's two boundary nodes each read the root 1u through one channel;
        # the library gives P(T = 1), the dense oracle the whole count law
        delta = 0.15
        m = coupled_channel_matrix(delta)
        n = 40_000
        stay = m[SYM_1U, SYM_1U]
        law = [(1 - stay) ** 2, 2 * stay * (1 - stay), stay**2]
        times = coupled_grid_runs(delta, 1, n, seed=31)
        freq = (times == 1).mean()
        assert abs(freq - law[0]) < 4 * np.sqrt(law[0] * (1 - law[0]) / n)
        _, counts = coupled_grid_runs_dense(delta, 1, n, seed=31)
        freq = np.bincount(counts[:, 1], minlength=3) / n
        for ones, p in enumerate(law):
            assert abs(freq[ones] - p) < 4 * np.sqrt(p * (1 - p) / n)


class TestCoupledGrid:
    def test_absorbing_after_coalescence(self):
        # the oracle steps coalesced runs too: they regain no 1u after T
        times = coupled_grid_runs(0.3, 25, 500, seed=2)
        _, counts = coupled_grid_runs_dense(0.3, 25, 500, seed=2)
        for i in range(500):
            t = times[i]
            if t >= 0:
                assert (counts[i, t:] == 0).all()
                assert (counts[i, :t] > 0).all()

    def test_single_run_wrapper(self):
        times = coupled_grid_runs(0.3, 30, 1, seed=7)
        assert times.shape == (1,) and (times[0] == -1 or 1 <= times[0] <= 30)

    def test_coalescence_matches_exact_law(self):
        # the channel draws and the np.minimum AND together against the exact law
        n = 40_000
        exact = coupled_grid_coalesced(0.2, 4)
        times = coupled_grid_runs(0.2, 4, n, seed=19)
        for k in range(1, 5):
            freq = ((0 < times) & (times <= k)).mean()
            assert abs(freq - exact[k]) < 4 * np.sqrt(exact[k] * (1 - exact[k]) / n)

    def test_noiseless_never_coalesces(self):
        # without noise the single disagreement propagates deterministically
        times = coupled_grid_runs(0.0, 10, 50, seed=3)
        assert (times == -1).all()

    def test_deterministic(self):
        a = coupled_grid_runs(0.2, 15, 300, seed=5)
        b = coupled_grid_runs(0.2, 15, 300, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_bound_dominates_exact_tv(self):
        delta = 0.3
        exact = grid_exact_distribution(AND2, IDENTITY, delta, 8)
        bound = coupling_tv_bound(delta, 8, 20_000, seed=11)
        for k in range(9):
            assert exact[k].tv() <= bound.ci_high[k] + 1e-9

    def test_bound_monotone_and_bracketed(self):
        bound = coupling_tv_bound(0.25, 12, 5000, seed=13)
        assert bound.bound[0] == 1.0
        assert all(b <= a + 1e-12 for a, b in zip(bound.bound, bound.bound[1:]))
        assert (bound.ci_low <= bound.bound).all()
        assert (bound.bound <= bound.ci_high).all()

    def test_high_noise_coalesces_fast(self):
        times = coupled_grid_runs(0.45, 40, 400, seed=17)
        assert (times >= 0).mean() > 0.95


class TestPercolation:
    @pytest.mark.parametrize("p", [0.0, 1e-9, 0.3, 0.645, 0.99, 1.0])
    def test_node_law_matches_enumeration(self, p):
        # c = 0, 1, 2 reached parents against the open patterns of their c edges
        np.testing.assert_allclose(_reach_probs(p), percolation_node_law(p), rtol=0, atol=1e-15)

    def test_full_open_survives(self):
        right, left = _percolation_reach(1.0, 20, 3, seed=1)
        assert (right[:, 20] >= 0).all()
        np.testing.assert_array_equal(right, np.tile(np.arange(21), (3, 1)))
        np.testing.assert_array_equal(left, np.zeros((3, 21), dtype=np.int64))
        est = estimate_alpha(1.0, 20, 3, seed=1)
        assert est.surviving == 3 and est.alpha == 1.0

    def test_closed_dies_immediately(self):
        right, left = _percolation_reach(0.0, 10, 3, seed=1)
        assert (right[:, 1:] == -1).all() and (left[:, 1:] == -1).all()
        assert estimate_alpha(0.0, 10, 3, seed=1).surviving == 0

    def test_zero_depth_refused(self):
        with pytest.raises(ValueError, match="depth must be >= 1"):
            estimate_alpha(0.7, 0, 10, seed=1)

    @pytest.mark.parametrize(
        "p, trials, match",
        [(1.5, 20, "p must lie in \\[0, 1\\], got 1.5"), (-0.1, 20, "p must lie in \\[0, 1\\], got -0.1"),
         (float("nan"), 20, "p must lie in \\[0, 1\\], got nan"), (0.7, 0, "trials must be >= 1"),
         (0.7, -3, "trials must be >= 1")],
    )
    def test_bad_arguments_refused(self, p, trials, match):
        with pytest.raises(ValueError, match=match):
            estimate_alpha(p, 10, trials, seed=1)

    def test_p_validated(self):
        for p in (-0.1, 1.2):
            with pytest.raises(ConfigError, match="delta_start"):
                ExperimentConfig(model="percolation", delta_start=p, delta_stop=0.5, trials=5).validate()

    @pytest.mark.parametrize("p, depth, trials, seed", [(0.5, 30, 40, 2), (0.65, 40, 30, 6), (0.3, 12, 50, 1)])
    def test_edges_match_per_trial_loop(self, p, depth, trials, seed):
        right, left = _percolation_reach(p, depth, trials, seed)
        want_right, want_left = percolation_edges_by_loop(p, depth, trials, seed)
        np.testing.assert_array_equal(right, want_right)
        np.testing.assert_array_equal(left, want_left)
        assert estimate_alpha(p, depth, trials, seed).surviving == int((want_right[:, depth] >= 0).sum())
        # the runs exercise dead trials and single-node clusters
        assert (want_right[:, depth] < 0).any()
        assert ((want_right == want_left) & (want_right > 0)).any()

    def test_cluster_shape_sane(self):
        right, left = _percolation_reach(0.8, 50, 20, seed=9)
        for r_row, l_row in zip(right, left):
            for k in np.flatnonzero(r_row >= 0):
                assert 0 <= l_row[k] <= r_row[k] <= k

    def test_alpha_full_lattice(self):
        est = estimate_alpha(1.0, 40, 20, seed=3)
        assert est.surviving == 20
        assert est.alpha == pytest.approx(1.0, abs=1e-9)

    def test_alpha_monotone_in_p(self):
        hi = estimate_alpha(0.95, 120, 300, seed=4)
        lo = estimate_alpha(0.75, 120, 300, seed=4)
        assert 0 < lo.alpha < hi.alpha <= 1.0 + 1e-9

    def test_delta_perc_bracket(self):
        # the oriented bond percolation threshold, near 0.645, lies where the
        # survival frequency to depth 150 crosses 5 %
        below = estimate_alpha(0.5, 150, 400, seed=6)
        above = estimate_alpha(0.75, 150, 400, seed=6)
        assert below.surviving / 400 < 0.05 < above.surviving / 400


class TestMatchesDense:
    """The coupled grid steps only uncoalesced runs and percolation only the live
    clusters' columns; the dense oracles draw every node.  Outputs agree exactly."""

    @staticmethod
    def _grid(delta, depth, trials, seed):
        times = coupled_grid_runs(delta, depth, trials, seed)
        want_times, _ = coupled_grid_runs_dense(delta, depth, trials, seed)
        assert times.dtype == want_times.dtype
        np.testing.assert_array_equal(times, want_times)
        return times

    @staticmethod
    def _perc(p, depth, trials, seed):
        got = _percolation_reach(p, depth, trials, seed)
        want = percolation_reach_dense(p, depth, trials, seed)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            np.testing.assert_array_equal(a, b)
        return got

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**64 - 1),
        st.integers(1, 40),
        st.integers(1, 40),
        st.sampled_from([0.0, 0.01, 0.05, 0.2, 0.45]),
    )
    def test_coupled_grid(self, seed, trials, depth, delta):
        self._grid(delta, depth, trials, seed)

    def test_grid_without_noise_never_coalesces(self):
        assert (self._grid(0.0, 12, 20, 3) == -1).all()

    def test_grid_every_run_coalesces_early(self):
        times = self._grid(0.45, 60, 200, 11)
        assert (times >= 0).all() and times.max() < 20

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**64 - 1),
        st.integers(1, 40),
        st.integers(1, 60),
        st.floats(0.0, 1.0),
    )
    def test_percolation(self, seed, trials, depth, p):
        self._perc(p, depth, trials, seed)

    def test_percolation_closed_dies_at_level_1(self):
        right, left = self._perc(0.0, 10, 7, 2)
        assert (right[:, 1:] == -1).all() and (left[:, 1:] == -1).all()

    def test_percolation_open_fills_the_lattice(self):
        right, left = self._perc(1.0, 25, 4, 5)
        assert (right[:, 25] >= 0).all() and (right == np.arange(26)).all() and (left == 0).all()

    def test_percolation_near_threshold(self):
        # at p = 0.65 some clusters die part way, so the live set shrinks
        right, _ = self._perc(0.65, 80, 60, 9)
        assert (right[:, 80] < 0).any() and (right[:, 80] >= 0).any()
