"""Tests for the deterministic 2D grid engine and its exact DP."""

import itertools

import numpy as np
import pytest

from dagbroadcast.model import AND2, IDENTITY, NAND2, OR2, XOR2, BudgetExceededError, Gate
from dagbroadcast import grid as grid_mod
from dagbroadcast.grid import (
    GridDistribution,
    _grid_level_step,
    grid_exact_distribution,
    grid_mc_tv_estimate,
)
from oracles import (
    grid_dense_dp,
    grid_joint_by_enumeration,
    grid_level_step_by_floats,
    grid_mc_tv_estimate_bytewise,
)

NOT = Gate("NOT", 1, (1, 0))
# left parent AND NOT right parent: the one gate here that tells its inputs apart
ANDN = Gate("ANDN", 2, (0, 1, 0, 0))


def to_planes(bits):
    """Bit arrays of shape (trials, k) as the step's bit-planes, shape (k, ceil(trials / 8))."""
    return np.packbits(bits.T, axis=1, bitorder="little")


def step_bits(f1, f2, delta, prev, k, seed):
    """``_grid_level_step`` on bit arrays of shape (trials, k): pack, step, unpack."""
    planes = _grid_level_step(f1, f2, delta, to_planes(prev), len(prev), k, seed)
    return np.unpackbits(planes, axis=1, count=len(prev), bitorder="little").T


def grid_levels(f1, f2, delta, root, depth, seed):
    """Bit arrays of levels 0..depth of one grid run, one level step at a time."""
    levels = [np.array([root], dtype=np.uint8)]
    for k in range(1, depth + 1):
        levels.append(step_bits(f1, f2, delta, levels[-1][None], k, seed)[0])
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

    @pytest.mark.parametrize("f1, f2", [(ANDN, NOT), (XOR2, IDENTITY), (AND2, IDENTITY)])
    @pytest.mark.parametrize("delta", [0.0, 0.05, 0.3, 0.5])
    def test_step_matches_float_draws(self, f1, f2, delta):
        # the step's noise is exactly the float compare of the level's (trials, k, 2) stream
        prev = np.random.default_rng(4).integers(0, 2, size=(300, 1), dtype=np.uint8)
        for k in range(1, 9):
            got = step_bits(f1, f2, delta, prev, k, seed=21)
            np.testing.assert_array_equal(got, grid_level_step_by_floats(f1, f2, delta, prev, k, seed=21))
            prev = got

    @pytest.mark.parametrize("t1", range(16))
    def test_step_reads_every_truth_table(self, t1):
        # the step reads a gate's output as a bit of its truth table: every
        # two-input table, with every one-input table at the boundary
        f1 = Gate(f"table {t1}", 2, tuple((t1 >> w) & 1 for w in range(4)))
        prev = np.random.default_rng(t1).integers(0, 2, size=(50, 6), dtype=np.uint8)
        for t2 in range(4):
            f2 = Gate(f"table {t2}", 1, tuple((t2 >> w) & 1 for w in range(2)))
            got = step_bits(f1, f2, 0.3, prev, 6, seed=t2)
            np.testing.assert_array_equal(got, grid_level_step_by_floats(f1, f2, 0.3, prev, 6, seed=t2))

    def test_step_ignores_padding_bits(self):
        # 13 trials leave bits 5..7 of the last byte as padding: setting them moves no trial's bits
        clean = to_planes(np.random.default_rng(2).integers(0, 2, size=(13, 5), dtype=np.uint8))
        dirty = clean | np.array([0, 0xE0], dtype=np.uint8)
        for f1 in (AND2, XOR2, ANDN):
            a, b = (_grid_level_step(f1, NOT, 0.2, prev, 13, 5, seed=3) for prev in (clean, dirty))
            np.testing.assert_array_equal(*(np.unpackbits(x, axis=1, count=13, bitorder="little") for x in (a, b)))

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

    def test_xor_grid_tv_decays(self):
        dists = grid_exact_distribution(XOR2, IDENTITY, 0.2, 10)
        assert dists[10].tv() < 0.05 * dists[1].tv()

    @pytest.mark.parametrize("delta", [0.01, 0.07, 0.2])
    def test_or_grid_is_the_and_grid_relabelled(self, delta):
        # De Morgan with a symmetric BSC: flipping every bit of an OR grid
        # (the root included) gives an AND grid, so word w of one conditional
        # is word ~w of the other conditional of the other gate
        or_dists = grid_exact_distribution(OR2, IDENTITY, delta, 14)
        and_dists = grid_exact_distribution(AND2, IDENTITY, delta, 14)
        for o, a in zip(or_dists, and_dists, strict=True):
            complement = np.arange(len(o.plus))[::-1]  # ~w within level-k words
            np.testing.assert_allclose(o.plus, a.minus[complement], rtol=0, atol=4e-15)
            np.testing.assert_allclose(o.minus, a.plus[complement], rtol=0, atol=4e-15)
            assert abs(o.tv() - a.tv()) <= 4e-15

    @pytest.mark.parametrize("delta", [0.05, 0.1])
    def test_gates_reading_both_inputs_fall_into_four_tv_classes(self, delta):
        # duality (x -> 1 - f(1 - x)) and the left-right mirror keep the TV;
        # tables list f(left, right) at word left | right << 1
        classes = [
            [(0, 0, 0, 1), (0, 1, 1, 1)],  # AND, OR
            [(1, 1, 1, 0), (1, 0, 0, 0)],  # NAND, NOR
            [(0, 1, 1, 0), (1, 0, 0, 1)],  # XOR, XNOR
            [(0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1)],  # one input negated
        ]
        both = [
            t
            for t in itertools.product((0, 1), repeat=4)
            if (t[0] != t[1] or t[2] != t[3]) and (t[0] != t[2] or t[1] != t[3])  # reads left, reads right
        ]
        assert sorted(t for c in classes for t in c) == both
        tvs = [
            [[d.tv() for d in grid_exact_distribution(Gate(str(t), 2, t), IDENTITY, delta, 12)] for t in c]
            for c in classes
        ]
        for c in tvs:
            for other in c[1:]:
                np.testing.assert_allclose(other, c[0], rtol=0, atol=1e-14)
        last = sorted(c[0][-1] for c in tvs)
        assert min(b - a for a, b in zip(last, last[1:])) > 1e-5


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

    @pytest.mark.parametrize("t1", range(16))
    def test_equals_bytewise_estimator_for_every_truth_table(self, t1):
        # bit-planes draw the stream the byte-per-node oracle draws, so every
        # estimate is the same float; 1, 7, 9 and 2003 trials end in a partial byte
        f1 = Gate(f"table {t1}", 2, tuple((t1 >> w) & 1 for w in range(4)))
        for t2 in range(4):
            f2 = Gate(f"table {t2}", 1, tuple((t2 >> w) & 1 for w in range(2)))
            for i, (delta, trials) in enumerate(itertools.product((0.0, 0.05, 0.3, 0.45), (1, 7, 8, 9, 2003))):
                args = (f1, f2, delta, 1 + (t1 + t2 + i) % 6, trials, 16 * t1 + t2)
                assert grid_mc_tv_estimate(*args) == grid_mc_tv_estimate_bytewise(*args)

    @pytest.mark.parametrize("f1, delta, trials", [(AND2, 0.05, 2003), (XOR2, 0.45, 9), (ANDN, 0.3, 7)])
    def test_equals_bytewise_estimator_to_the_depth_cap(self, f1, delta, trials):
        args = (f1, IDENTITY, delta, grid_mod.DEFAULT_DEPTH_CAP, trials, 5)
        assert grid_mc_tv_estimate(*args) == grid_mc_tv_estimate_bytewise(*args)

    @pytest.mark.parametrize(
        "gate, seed",
        [(XOR2, 0), (XOR2, 1), (XOR2, 16), (XOR2, 17), (NAND2, 25), (OR2, 6), (OR2, 23)],
        ids=lambda v: v.name if isinstance(v, Gate) else str(v),
    )
    def test_tv_at_most_one_when_every_word_is_distinct(self, gate, seed):
        # at small noise and few trials the two batches often share no level
        # word, and then a float sum of |fp - fm| can round above 1
        for est in grid_mc_tv_estimate(gate, IDENTITY, 0.02, 12, 50, seed):
            assert 0.0 <= est.tv <= 1.0


def test_dp_and_mc_share_one_depth_cap(monkeypatch):
    cap = grid_mod.DEFAULT_DEPTH_CAP
    messages = []
    for call in (
        lambda depth: grid_exact_distribution(AND2, IDENTITY, 0.1, depth),
        lambda depth: grid_mc_tv_estimate(AND2, IDENTITY, 0.1, depth, 10, seed=1),
    ):
        with pytest.raises(BudgetExceededError) as exc:
            call(cap + 1)
        messages.append(str(exc.value))
        with pytest.raises(ValueError) as low:
            call(0)
        messages.append(str(low.value))
    assert messages[0] == messages[2] and f"cap {cap}" in messages[0]
    assert messages[1] == messages[3] == "depth must be >= 1"
    monkeypatch.setattr(grid_mod, "DEFAULT_DEPTH_CAP", 4)
    assert grid_exact_distribution(AND2, IDENTITY, 0.1, 4)[-1].level == 4
    assert grid_mc_tv_estimate(AND2, IDENTITY, 0.1, 4, 10, seed=1)[-1].level == 4
    with pytest.raises(BudgetExceededError, match="cap 4"):
        grid_mc_tv_estimate(AND2, IDENTITY, 0.1, 5, 10, seed=1)
