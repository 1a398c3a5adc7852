"""Tests for the deterministic 2D grid engine and its exact DP."""

import numpy as np
import pytest

from dagbroadcast.model import AND2, IDENTITY, OR2, XOR2, BudgetExceededError, Gate
from dagbroadcast.grid import (
    TAG_GRID,
    GridDistribution,
    _grid_level_step,
    grid_exact_distribution,
    grid_mc_tv_estimate,
)
from oracles import grid_dense_dp, grid_joint_by_enumeration

NOT = Gate("NOT", 1, (1, 0))
# left parent AND NOT right parent: the one gate here that tells its inputs apart
ANDN = Gate("ANDN", 2, (0, 1, 0, 0))


def grid_levels(f1, f2, delta, root, depth, seed):
    """Bit arrays of levels 0..depth of one grid run, one level step at a time."""
    levels = [np.array([root], dtype=np.uint8)]
    for k in range(1, depth + 1):
        levels.append(_grid_level_step(f1, f2, delta, levels[-1], k, seed, TAG_GRID))
    return levels


class TestGridPropagate:
    """Grid runs built from ``_grid_level_step``, the step the grid Monte Carlo uses."""

    def test_level_shapes(self):
        levels = grid_levels(XOR2, IDENTITY, 0.1, 1, 9, seed=3)
        assert [len(lv) for lv in levels] == list(range(1, 11))

    def test_deterministic(self):
        a = grid_levels(AND2, IDENTITY, 0.2, 1, 8, seed=11)
        b = grid_levels(AND2, IDENTITY, 0.2, 1, 8, seed=11)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_noiseless_and_grid_consensus(self):
        for root in (0, 1):
            levels = grid_levels(AND2, IDENTITY, 0.0, root, 10, seed=1)
            for lv in levels:
                assert (lv == root).all()

    def test_noiseless_xor_is_pascal_parity(self):
        levels = grid_levels(XOR2, IDENTITY, 0.0, 1, 8, seed=1)
        for k, lv in enumerate(levels):
            expect = [(j & k) == j for j in range(k + 1)]
            np.testing.assert_array_equal(lv, np.array(expect, dtype=np.uint8))

    def test_gate_arity_checked(self):
        for f1, f2 in ((IDENTITY, IDENTITY), (AND2, AND2)):
            with pytest.raises(ValueError):
                grid_exact_distribution(f1, f2, 0.1, 3)
            with pytest.raises(ValueError):
                grid_mc_tv_estimate(f1, f2, 0.1, 3, 10, seed=1)


class TestGridDistribution:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridDistribution(1, np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            GridDistribution(
                0, np.array([0.7, 0.7]), np.array([0.5, 0.5])
            )

    def test_tv_and_ml(self):
        d = GridDistribution(0, np.array([0.1, 0.9]), np.array([0.6, 0.4]))
        assert d.tv() == pytest.approx(0.5)
        assert d.ml_error() == pytest.approx(0.25)


class TestExactDp:
    @pytest.mark.parametrize("f1", [AND2, OR2, XOR2])
    @pytest.mark.parametrize("f2", [IDENTITY, NOT])
    @pytest.mark.parametrize("delta", [0.0, 0.13, 0.3])
    def test_matches_enumeration_oracle(self, f1, f2, delta):
        dists = grid_exact_distribution(f1, f2, delta, 3)
        for depth in (1, 2, 3):
            for root, vec in ((1, dists[depth].plus), (0, dists[depth].minus)):
                oracle = grid_joint_by_enumeration(f1, f2, delta, depth, root)
                np.testing.assert_allclose(vec, oracle, atol=1e-12)

    @pytest.mark.parametrize("f1", [AND2, OR2, XOR2, ANDN])
    @pytest.mark.parametrize("f2", [IDENTITY, NOT])
    @pytest.mark.parametrize("delta", [0.0, 0.13, 0.3])
    def test_matches_dense_oracle(self, f1, f2, delta):
        dists = grid_exact_distribution(f1, f2, delta, 10)
        for dist, (plus, minus) in zip(dists, grid_dense_dp(f1, f2, delta, 10), strict=True):
            np.testing.assert_allclose(dist.plus, plus, rtol=0, atol=1e-13)
            np.testing.assert_allclose(dist.minus, minus, rtol=0, atol=1e-13)

    def test_level_one_tv_closed_form(self):
        # both level-1 nodes are boundary nodes: two independent noisy
        # copies of the root, so TV = (1 - delta)^2 - delta^2 = 1 - 2 delta
        for delta in (0.1, 0.2, 0.35):
            dists = grid_exact_distribution(XOR2, IDENTITY, delta, 1)
            assert dists[1].tv() == pytest.approx(1 - 2 * delta, abs=1e-12)

    def test_tv_nonincreasing(self):
        for f1 in (AND2, XOR2):
            dists = grid_exact_distribution(f1, IDENTITY, 0.12, 9)
            tvs = [d.tv() for d in dists]
            assert all(b <= a + 1e-10 for a, b in zip(tvs, tvs[1:]))

    def test_noiseless_point_masses(self):
        dists = grid_exact_distribution(AND2, IDENTITY, 0.0, 5)
        for d in dists:
            assert d.tv() == pytest.approx(1.0)
            assert d.plus[(1 << (d.level + 1)) - 1] == pytest.approx(1.0)
            assert d.minus[0] == pytest.approx(1.0)

    def test_depth_cap(self):
        with pytest.raises(BudgetExceededError, match="128 MiB"):
            grid_exact_distribution(AND2, IDENTITY, 0.1, 21)
        dists = grid_exact_distribution(AND2, IDENTITY, 0.1, 21, depth_cap=21)
        assert dists[-1].level == 21

    def test_xor_grid_tv_decays(self):
        dists = grid_exact_distribution(XOR2, IDENTITY, 0.2, 10)
        assert dists[10].tv() < 0.05 * dists[1].tv()


class TestMcTvEstimate:
    def test_agrees_with_dp(self):
        exact = grid_exact_distribution(XOR2, IDENTITY, 0.15, 6)
        est = grid_mc_tv_estimate(XOR2, IDENTITY, 0.15, 6, 40_000, seed=9)
        for e in est:
            truth = exact[e.level].tv()
            assert abs(e.tv - truth) <= 3 * e.dev + 1e-9

    def test_and_grid_agrees_with_dp(self):
        exact = grid_exact_distribution(AND2, IDENTITY, 0.25, 5)
        est = grid_mc_tv_estimate(AND2, IDENTITY, 0.25, 5, 40_000, seed=10)
        for e in est:
            assert abs(e.tv - exact[e.level].tv()) <= 3 * e.dev + 1e-9

    def test_deterministic(self):
        a = grid_mc_tv_estimate(XOR2, IDENTITY, 0.2, 4, 2000, seed=5)
        b = grid_mc_tv_estimate(XOR2, IDENTITY, 0.2, 4, 2000, seed=5)
        assert [e.tv for e in a] == [e.tv for e in b]

    def test_depth_guard(self):
        with pytest.raises(BudgetExceededError):
            grid_mc_tv_estimate(XOR2, IDENTITY, 0.2, 21, 10, seed=1)
