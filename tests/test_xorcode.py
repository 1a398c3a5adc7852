"""Tests for GF(2) linear algebra, XOR-grid parity checks, and erasures."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dagbroadcast.model import IDENTITY, XOR2, BudgetExceededError
from dagbroadcast.grid import grid_exact_distribution
from dagbroadcast.xorcode import (
    SLOT_LEFT,
    SLOT_RIGHT,
    BitMatrix,
    EdgeIndex,
    binom_parity,
    build_Hk,
    check_omega,
    erasure_mc_error_bound,
    erasure_ml_fails,
    export_parity_check,
    omega_vector,
    sample_erasure_pattern,
)
from oracles import (
    coding_problem_ml_error,
    f2_rank,
    inference_problem_ml_error,
    lemma_coupling_identity_holds,
    random_block_instance,
    rank_by_span_enumeration,
    xor_grid_bits_by_recursion,
)


class TestBitMatrix:
    def test_get_set_round_trip(self):
        m = BitMatrix(3, 5)
        m.set(1, 4, 1)
        m.set(2, 0, 1)
        assert m.get(1, 4) == 1
        assert m.get(0, 4) == 0
        m.set(1, 4, 0)
        assert m.get(1, 4) == 0

    def test_bounds_checked(self):
        m = BitMatrix(2, 2)
        with pytest.raises(IndexError):
            m.get(2, 0)
        with pytest.raises(IndexError):
            m.set(0, 2, 1)

    def test_stray_bits_rejected(self):
        with pytest.raises(ValueError):
            BitMatrix(1, 2, [0b100])

    def test_column_and_dense_agree(self):
        m = BitMatrix(3, 4, [0b1010, 0b0111, 0b1100])
        for c in range(4):
            packed = m.column(c)
            assert [m.get(r, c) for r in range(3)] == [(packed >> r) & 1 for r in range(3)]

    def test_columns_follow_later_edits(self):
        m = BitMatrix(3, 4, [0b1010, 0b0111, 0b1100])
        assert m.column(0) == 0b010
        m.set(0, 0, 1)
        assert m.column(0) == 0b011
        assert m.columns()[0] == 0b011
        m.rows[2] ^= 0b0001
        assert m.column(0) == 0b111
        with pytest.raises(IndexError):
            m.column(4)

    def test_mul_vector(self):
        m = BitMatrix(2, 3, [0b011, 0b110])
        assert m.mul_vector(0b001) == 0b01
        assert m.mul_vector(0b111) == 0b00


class TestRankAndSolve:
    """The rank oracle that ``test_span_test_matches_rank_equality`` relies on."""

    @settings(max_examples=100)
    @given(st.lists(st.integers(0, 255), min_size=1, max_size=8))
    def test_rank_matches_span_oracle(self, rows):
        assert f2_rank(rows) == rank_by_span_enumeration(rows)


class TestBinomParity:
    def test_matches_comb(self):
        for k in range(20):
            for j in range(k + 1):
                assert binom_parity(k, j) == math.comb(k, j) % 2

    def test_range_checked(self):
        with pytest.raises(ValueError):
            binom_parity(3, 4)


class TestEdgeIndex:
    @pytest.mark.parametrize("k", [1, 2, 5, 9])
    def test_edge_count(self, k):
        idx = EdgeIndex.build(k)
        assert idx.n_edges == k * (k + 1)

    def test_canonical_order_prefix(self):
        idx = EdgeIndex.build(3)
        assert idx.edges[:4] == (
            (1, 0, SLOT_RIGHT),
            (1, 1, SLOT_LEFT),
            (2, 0, SLOT_RIGHT),
            (2, 1, SLOT_LEFT),
        )

    def test_column_of_is_inverse(self):
        idx = EdgeIndex.build(6)
        for i, e in enumerate(idx.edges):
            assert idx.column_of(*e) == i + 1


class TestBuildHk:
    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    def test_dimensions(self, k):
        h, idx = build_Hk(k)
        assert (h.nrows, h.ncols) == (k + 1, 1 + k * (k + 1))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8, 12])
    def test_root_column_is_pascal_parity(self, k):
        h, _ = build_Hk(k)
        for j in range(k + 1):
            assert h.get(j, 0) == binom_parity(k, j)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_rows_reproduce_simulation(self, k):
        # evaluating the symbolic forms at random noise assignments must
        # reproduce the direct recursive simulation
        h, idx = build_Hk(k)
        rng = np.random.default_rng(100 + k)
        for _ in range(20):
            root = int(rng.integers(2))
            noise = {e: int(rng.integers(2)) for e in idx.edges}
            vec = root
            for e, b in noise.items():
                vec |= b << idx.column_of(*e)
            out = h.mul_vector(vec)
            expect = xor_grid_bits_by_recursion(k, root, noise)
            assert [(out >> j) & 1 for j in range(k + 1)] == expect

    def test_cap(self):
        with pytest.raises(BudgetExceededError):
            build_Hk(65)
        with pytest.raises(ValueError):
            build_Hk(0)


class TestOmegaCertificate:
    @pytest.mark.parametrize("k", [2, 4, 8, 16, 32])
    def test_power_of_two_annihilated(self, k):
        assert check_omega(k)

    @pytest.mark.parametrize("k", [3, 5, 6, 7, 12])
    def test_non_power_not_annihilated(self, k):
        h, idx = build_Hk(k)
        assert h.mul_vector(omega_vector(k, idx)) != 0

    def test_check_omega_rejects_non_powers(self):
        with pytest.raises(ValueError):
            check_omega(6)
        with pytest.raises(ValueError):
            check_omega(1)

    def test_weight_three(self):
        idx = EdgeIndex.build(8)
        assert omega_vector(8, idx).bit_count() == 3


class TestErasure:
    def test_empty_pattern_recoverable(self):
        h, _ = build_Hk(8)
        assert not erasure_ml_fails(h, [])

    def test_all_erased_fails(self):
        h, _ = build_Hk(5)
        assert erasure_ml_fails(h, range(1, h.ncols))

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_omega_support_fails(self, k):
        h, idx = build_Hk(k)
        pattern = [idx.column_of(k, 0, SLOT_RIGHT), idx.column_of(k, k, SLOT_LEFT)]
        assert erasure_ml_fails(h, pattern)

    def test_monotone_in_pattern(self):
        h, _ = build_Hk(5)
        rng = np.random.default_rng(7)
        cols = list(range(1, h.ncols))
        for _ in range(50):
            a = [c for c in cols if rng.random() < 0.4]
            extra = [c for c in cols if rng.random() < 0.2]
            if erasure_ml_fails(h, a):
                assert erasure_ml_fails(h, a + extra)

    def test_failure_matches_span_oracle(self):
        h, _ = build_Hk(3)
        rng = np.random.default_rng(11)
        cols = list(range(1, h.ncols))
        for _ in range(60):
            pattern = [c for c in cols if rng.random() < 0.3]
            erased = [h.column(c) for c in pattern]
            root = h.column(0)
            in_span = (
                rank_by_span_enumeration(erased + [root])
                == rank_by_span_enumeration(erased or [0])
            )
            assert erasure_ml_fails(h, pattern) == in_span

    @pytest.mark.parametrize("k", [8, 16])
    def test_span_test_matches_rank_equality(self, k):
        h, _ = build_Hk(k)
        rng = np.random.default_rng(200 + k)
        outcomes = set()
        for _ in range(100):
            rate = rng.uniform(0.0, 0.3)
            pattern = [c for c in range(1, h.ncols) if rng.random() < rate]
            erased = [h.column(c) for c in pattern]
            base = f2_rank(erased)
            with_root = f2_rank(erased + [h.column(0)])
            fails = erasure_ml_fails(h, pattern)
            assert fails == (with_root == base)
            outcomes.add(fails)
        assert outcomes == {False, True}

    @pytest.mark.parametrize("bad", [0, -1, 73])
    def test_erased_index_range_checked(self, bad):
        h, _ = build_Hk(8)  # 73 columns: the root and 72 edges
        with pytest.raises(ValueError, match=f"erased index {bad} "):
            erasure_ml_fails(h, [3, bad, 5])

    def test_pattern_sampling_rate(self):
        idx = EdgeIndex.build(20)
        delta = 0.15
        total = 0
        trials = 200
        for t in range(trials):
            total += len(sample_erasure_pattern(idx, delta, seed=3, trial=t))
        rate = total / (trials * idx.n_edges)
        se = math.sqrt(2 * delta * (1 - 2 * delta) / (trials * idx.n_edges))
        assert abs(rate - 2 * delta) < 4 * se

    def test_mc_bound_high_noise(self):
        est = erasure_mc_error_bound(4, 0.25, 400, seed=1)
        assert est.failure_freq >= 0.25
        assert est.error_bound == pytest.approx(0.5 * est.failure_freq)
        assert est.ci_low <= est.error_bound <= est.ci_high

    def test_bound_below_exact_ml_error(self):
        # the erasure genie sees strictly more than the noisy grid, so its
        # ML error cannot exceed the grid's exact ML error
        k, delta = 6, 0.2
        exact = grid_exact_distribution(XOR2, IDENTITY, delta, k)[k].ml_error()
        est = erasure_mc_error_bound(k, delta, 2000, seed=2)
        assert est.ci_low <= exact + 1e-9

    @pytest.mark.parametrize("delta", [0.05, 0.1])
    def test_bound_below_exact_ml_error_at_power_of_two(self, delta):
        # at k = 16 the weight-3 certificate applies, and the exact DP and
        # the erasure bound can be compared there
        exact = grid_exact_distribution(XOR2, IDENTITY, delta, 16)[16].ml_error()
        est = erasure_mc_error_bound(16, delta, 2000, seed=16)
        assert est.ci_low <= exact

    def test_mc_bound_pinned(self):
        # guards the random stream and the span test together
        assert erasure_mc_error_bound(12, 0.05, 400, 7).failure_freq == 0.3525


class TestExport:
    def test_round_trip(self):
        h, _ = build_Hk(5)
        text = export_parity_check(h)
        lines = text.strip().split("\n")
        header = lines[0].split()
        assert header == ["#", f"rows={h.nrows}", f"cols={h.ncols}"]
        rebuilt = BitMatrix(h.nrows, h.ncols)
        for r, line in enumerate(lines[1:]):
            for c in line.split():
                rebuilt.set(r, int(c), 1)
        assert rebuilt.rows == h.rows

    def test_trailing_newline(self):
        h, _ = build_Hk(2)
        assert export_parity_check(h).endswith("\n")


class TestCodingReduction:
    """Brute-force equivalence of the coding and inference formulations.

    A uniform codeword of the nullspace of a block matrix [[1, B1], [0, B2]]
    observed through (useless) Bernoulli(1/2) noise on bit one and BSC(delta)
    noise elsewhere has the same ML error as inferring X' from the syndrome
    S' = H (X', Z).  Verified by exhaustive enumeration at tiny sizes.
    """

    def test_ml_errors_equal_random_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            b1, b2_rows, n1 = random_block_instance(rng, max_cols=8)
            delta = float(rng.uniform(0.05, 0.45))
            a = coding_problem_ml_error(b1, b2_rows, n1, delta)
            b = inference_problem_ml_error(b1, b2_rows, n1, delta)
            assert a == pytest.approx(b, abs=1e-12)

    def test_coupling_identity(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            b1, b2_rows, n1 = random_block_instance(rng, max_cols=8)
            assert lemma_coupling_identity_holds(b1, b2_rows, n1, rng)

    def test_error_bounded_by_half(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            b1, b2_rows, n1 = random_block_instance(rng, max_cols=7)
            err = inference_problem_ml_error(b1, b2_rows, n1, 0.3)
            assert 0.0 <= err <= 0.5 + 1e-12
