"""Tests for the coupled AND grid and oriented bond percolation."""

import numpy as np
import pytest

from dagbroadcast.cli import ConfigError, ExperimentConfig
from dagbroadcast.model import AND2, IDENTITY
from dagbroadcast.grid import grid_exact_distribution
from dagbroadcast.coupling import (
    SYM_0C,
    SYM_1C,
    SYM_1U,
    _channel_step_array,
    _percolation_reach,
    coupled_grid_runs,
    coupling_tv_bound,
    estimate_alpha,
)
from dagbroadcast.rng import uniforms
from oracles import coupled_and, coupled_channel_matrix, coupled_grid_coalesced, decode_symbol, encode_pair

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
        # coupled_grid_runs applies the AND as np.minimum on the symbol codes
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
        u = uniforms(5, 10_000)
        for sym in (SYM_0C, SYM_1C):
            assert (_channel_step_array(np.full(10_000, sym, dtype=np.int8), 0.3, u) != SYM_1U).all()

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

    def test_step_frequencies_match_matrix(self):
        delta = 0.15
        m = coupled_channel_matrix(delta)
        n = 10_000
        for sym in SYMBOLS:
            outs = _channel_step_array(np.full(n, sym, dtype=np.int8), delta, uniforms(31 + sym, n))
            freq = np.bincount(outs, minlength=3) / n
            for out in SYMBOLS:
                se = np.sqrt(max(m[sym, out] * (1 - m[sym, out]), 1e-4) / n)
                assert abs(freq[out] - m[sym, out]) < 4 * se


class TestCoupledGrid:
    def test_absorbing_after_coalescence(self):
        times, counts = coupled_grid_runs(0.3, 25, 500, seed=2)
        for i in range(500):
            t = times[i]
            if t >= 0:
                assert (counts[i, t:] == 0).all()
                assert (counts[i, :t] > 0).all()

    def test_single_run_wrapper(self):
        times, counts = coupled_grid_runs(0.3, 30, 1, seed=7)
        assert counts.shape == (1, 31) and counts[0, 0] == 1
        if times[0] >= 0:
            assert counts[0, times[0]] == 0

    def test_coalescence_matches_exact_law(self):
        # the channel draws and the np.minimum AND together against the exact law
        n = 40_000
        exact = coupled_grid_coalesced(0.2, 4)
        _, counts = coupled_grid_runs(0.2, 4, n, seed=19)
        for k in range(1, 5):
            freq = (counts[:, k] == 0).mean()
            assert abs(freq - exact[k]) < 4 * np.sqrt(exact[k] * (1 - exact[k]) / n)

    def test_noiseless_never_coalesces(self):
        times, counts = coupled_grid_runs(0.0, 10, 50, seed=3)
        assert (times == -1).all()
        # without noise the single disagreement propagates deterministically
        assert (counts > 0).all()

    def test_deterministic(self):
        a, _ = coupled_grid_runs(0.2, 15, 300, seed=5)
        b, _ = coupled_grid_runs(0.2, 15, 300, seed=5)
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
        times, _ = coupled_grid_runs(0.45, 40, 400, seed=17)
        assert (times >= 0).mean() > 0.95


class TestPercolation:
    def test_full_open_survives(self):
        reach, right, left = _percolation_reach(1.0, 20, 3, seed=1)
        assert reach.all()
        np.testing.assert_array_equal(right, np.tile(np.arange(21), (3, 1)))
        np.testing.assert_array_equal(left, np.zeros((3, 21), dtype=np.int64))
        est = estimate_alpha(1.0, 20, 3, seed=1)
        assert est.surviving == 3 and est.alpha == 1.0

    def test_closed_dies_immediately(self):
        reach, right, _ = _percolation_reach(0.0, 10, 3, seed=1)
        assert not reach.any()
        assert (right[:, 1:] == -1).all()
        assert estimate_alpha(0.0, 10, 3, seed=1).surviving == 0

    def test_p_validated(self):
        for p in (-0.1, 1.2):
            with pytest.raises(ConfigError, match="delta_start"):
                ExperimentConfig(model="percolation", delta_start=p, delta_stop=0.5, trials=5).validate()

    def test_cluster_shape_sane(self):
        _, right, left = _percolation_reach(0.8, 50, 20, seed=9)
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
