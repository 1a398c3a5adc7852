"""Tests for GF(2) linear algebra, XOR-grid parity checks, and erasures."""

import dataclasses
import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dagbroadcast import xorcode
from dagbroadcast.cli import main
from dagbroadcast.model import IDENTITY, XOR2, BudgetExceededError
from dagbroadcast.grid import grid_exact_distribution
from dagbroadcast.rng import uniforms
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
    canonical_edges,
    coding_problem_ml_error,
    columns_by_bit_loop,
    erasure_failures_by_trial,
    f2_rank,
    inference_problem_ml_error,
    lemma_coupling_identity_holds,
    random_block_instance,
    rank_by_span_enumeration,
    xor_grid_bits_by_recursion,
)


class TestBitMatrix:
    def test_get_reads_rows(self):
        m = BitMatrix(3, 5, (0, 0b10000, 0b00001))
        assert m.get(1, 4) == 1
        assert m.get(0, 4) == 0
        assert m.get(2, 0) == 1
        assert m.get(2, 4) == 0

    def test_bounds_checked(self):
        m = BitMatrix(2, 2, (0, 0))
        with pytest.raises(IndexError):
            m.get(2, 0)
        with pytest.raises(IndexError):
            m.get(0, 2)
        with pytest.raises(IndexError):
            m.column(2)
        with pytest.raises(ValueError):
            BitMatrix(2, 2, (0,))

    def test_stray_bits_rejected(self):
        with pytest.raises(ValueError):
            BitMatrix(1, 2, (0b100,))

    def test_immutable(self):
        m = BitMatrix(2, 2, (0b01, 0b10))
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.rows = (0, 0)

    def test_column_and_dense_agree(self):
        m = BitMatrix(3, 4, (0b1010, 0b0111, 0b1100))
        assert m.column(0) == 0b010
        for c in range(4):
            packed = m.column(c)
            assert [m.get(r, c) for r in range(3)] == [(packed >> r) & 1 for r in range(3)]
            assert m.columns[c] == packed

    @pytest.mark.parametrize("k", [1, 7, 32, 64])
    def test_columns_match_bit_loop_on_Hk(self, k):
        h, _ = build_Hk(k)
        assert h.columns == columns_by_bit_loop(h.rows, h.ncols)

    @pytest.mark.parametrize("nrows, ncols", [(9, 13), (8, 16), (17, 1), (1, 70), (65, 4161), (0, 5), (3, 0)])
    def test_columns_match_bit_loop(self, nrows, ncols):
        pick = random.Random(nrows * 10_000 + ncols)
        m = BitMatrix(nrows, ncols, tuple(pick.getrandbits(ncols) for _ in range(nrows)))
        assert m.columns == columns_by_bit_loop(m.rows, ncols)
        assert len(m.columns) == ncols

    def test_mul_vector(self):
        m = BitMatrix(2, 3, (0b011, 0b110))
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
        assert EdgeIndex(k).n_edges == k * (k + 1) == len(canonical_edges(k))

    def test_canonical_order_prefix(self):
        idx = EdgeIndex(3)
        first = [(1, 0, SLOT_RIGHT), (1, 1, SLOT_LEFT), (2, 0, SLOT_RIGHT), (2, 1, SLOT_LEFT)]
        assert canonical_edges(3)[:4] == first
        assert [idx.column_of(*e) for e in first] == [1, 2, 3, 4]

    def test_column_of_is_inverse(self):
        for k in range(1, 13):
            idx = EdgeIndex(k)
            edges = canonical_edges(k)
            assert [idx.column_of(*e) for e in edges] == list(range(1, len(edges) + 1))
            assert idx.n_edges == len(edges)

    @pytest.mark.parametrize(
        "edge",
        [
            (0, 0, SLOT_RIGHT),  # the root has no parent
            (5, 0, SLOT_RIGHT),  # below level k = 4
            (2, 0, SLOT_LEFT),  # the left boundary node has no left parent
            (2, 2, SLOT_RIGHT),  # the right boundary node has no right parent
            (2, 3, SLOT_LEFT),  # no node 3 on level 2
            (2, -1, SLOT_RIGHT),
            (2, 1, 2),  # no third slot
        ],
    )
    def test_non_edge_refused(self, edge):
        with pytest.raises(KeyError):
            EdgeIndex(4).column_of(*edge)


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
            noise = {e: int(rng.integers(2)) for e in canonical_edges(k)}
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

    def test_built_once_per_k(self):
        assert build_Hk(9) is build_Hk(9)

    def test_grid_xor_builds_once(self, monkeypatch, capsys):
        # the subcommand, check_omega and the erasure bound all read H_16
        builds = []
        monkeypatch.setattr(xorcode, "EdgeIndex", lambda k: builds.append(k) or EdgeIndex(k))
        build_Hk.cache_clear()
        assert main(["grid-xor", "--k", "16", "--delta", "0.1", "--trials", "10"]) == 0
        assert builds == [16]


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
        idx = EdgeIndex(8)
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

    @pytest.mark.parametrize("k", [8, 16, 32, 64])
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
            # the decision is the span's, whatever order the columns come in
            rng.shuffle(pattern)
            assert erasure_ml_fails(h, pattern) == fails
            outcomes.add(fails)
        assert outcomes == {False, True}

    @pytest.mark.parametrize("bad", [0, -1, 73])
    def test_erased_index_range_checked(self, bad):
        h, _ = build_Hk(8)  # 73 columns: the root and 72 edges
        with pytest.raises(ValueError, match=f"erased index {bad} "):
            erasure_ml_fails(h, [3, bad, 5])

    def test_pattern_sampling_rate(self):
        idx = EdgeIndex(20)
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
        assert erasure_mc_error_bound(12, 0.05, 400, 7).failure_freq == 0.39


class ColumnReads(tuple):
    """A matrix's columns that log every index read from them."""

    def __getitem__(self, c):
        self.reads.append(c)
        return super().__getitem__(c)


def column_reads(h: BitMatrix) -> BitMatrix:
    """A copy of h whose ``columns`` log their reads in ``.columns.reads``."""
    logged = BitMatrix(h.nrows, h.ncols, h.rows)
    logged.__dict__["columns"] = ColumnReads(h.columns)
    logged.columns.reads = []
    return logged


class TestErasureEarlyStop:
    """The elimination stops once the root is in the span, with the span's decision."""

    KS = [3, 8, 12, 16, 32, 33, 64]

    @staticmethod
    def decision_by_rank(h, pattern):
        erased = [h.column(c) for c in pattern]
        return f2_rank(erased) == f2_rank([*erased, h.column(0)])

    @staticmethod
    def root_supports(k, idx):
        # both edges out of the root: their columns sum to the root column
        # (Pascal's rule); and for k a power of two the weight-3 certificate
        supports = [[idx.column_of(1, 0, SLOT_RIGHT), idx.column_of(1, 1, SLOT_LEFT)]]
        if k & (k - 1) == 0:
            supports.append([idx.column_of(k, 0, SLOT_RIGHT), idx.column_of(k, k, SLOT_LEFT)])
        return supports

    @pytest.mark.parametrize("k", KS)
    def test_root_in_span_before_full_rank(self, k):
        h, idx = build_Hk(k)
        rng = np.random.default_rng(500 + k)
        for support in self.root_supports(k, idx):
            for count in (0, 1, k // 2):  # at most k // 2 + 2 columns: short of the k + 1 rows
                extras = rng.choice(np.arange(1, h.ncols), size=count, replace=False).tolist()
                pattern = sorted(set(support + extras))
                assert f2_rank([h.column(c) for c in pattern]) < h.nrows
                assert self.decision_by_rank(h, pattern)
                assert erasure_ml_fails(h, pattern)

    @pytest.mark.parametrize("k", [8, 16, 32, 64])
    def test_no_column_read_after_the_root_enters_the_span(self, k):
        # the certificate's two edges are level k's first and last columns,
        # the first two read; every shallower extra is left unread
        h, idx = build_Hk(k)
        first, last = idx.column_of(k, 0, SLOT_RIGHT), idx.column_of(k, k, SLOT_LEFT)
        extras = list(range(1, first, 3))
        logged = column_reads(h)
        assert erasure_ml_fails(logged, [*extras, first, last])
        assert sorted(logged.columns.reads) == [0, first, last]

    @pytest.mark.parametrize("k", KS)
    def test_root_never_in_span(self, k):
        # every edge erased but the left boundary path, whose noise bits
        # give node (k, 0) = root + their sum: the root stays recoverable
        h, idx = build_Hk(k)
        path = {idx.column_of(level, 0, SLOT_RIGHT) for level in range(1, k + 1)}
        pattern = [c for c in range(1, h.ncols) if c not in path]
        assert not self.decision_by_rank(h, pattern)
        assert not erasure_ml_fails(h, pattern)
        logged = column_reads(h)
        erasure_ml_fails(logged, pattern)
        assert sorted(logged.columns.reads) == [0, *pattern]

    @pytest.mark.parametrize("k", KS)
    def test_duplicates_unsorted_and_numpy_ints(self, k):
        h, _ = build_Hk(k)
        rng = np.random.default_rng(600 + k)
        outcomes = set()
        for _ in range(40):
            rate = rng.uniform(0.0, 0.25)
            pattern = [c for c in range(1, h.ncols) if rng.random() < rate]
            fails = self.decision_by_rank(h, pattern)
            outcomes.add(fails)
            messy = pattern + pattern[: len(pattern) // 3]
            rng.shuffle(messy)
            for form in (messy, np.array(messy, dtype=np.int64), [np.uint16(c) for c in messy]):
                assert erasure_ml_fails(h, form) == fails
        assert outcomes == {False, True}

    def test_patterns_are_ascending_python_ints_across_a_batch_boundary(self):
        idx = EdgeIndex(64)
        step = xorcode._PATTERN_CELLS // idx.n_edges
        patterns = list(xorcode._erasure_patterns(idx.n_edges, 0.05, 9, step - 3, step + 3))
        assert len(patterns) == 6
        for pattern in patterns:
            assert type(pattern) is list and pattern
            assert all(type(c) is int for c in pattern)
            assert pattern == sorted(set(pattern)) and 1 <= pattern[0] and pattern[-1] <= idx.n_edges

    def test_empty_trial_inside_a_batch(self):
        # delta 0 erases nothing: every trial of the batch yields []
        assert list(xorcode._erasure_patterns(EdgeIndex(3).n_edges, 0.0, 1, 0, 5)) == [[]] * 5

    @pytest.mark.parametrize("k, trials, failures", [(32, 400, 372), (64, 50, 50)])
    def test_failures_pinned_at_benchmark_sizes(self, k, trials, failures):
        # with test_mc_bound_pinned's k = 12, the three erasure runs of the benchmark
        est = erasure_mc_error_bound(k, 0.05, trials, 7)
        assert est.failure_freq == failures / trials


class TestErasureBatches:
    """Patterns drawn a batch of trials at a time are the one-trial patterns, bit for bit."""

    def test_sample_is_row_of_batch(self):
        idx = EdgeIndex(64)
        step = xorcode._PATTERN_CELLS // idx.n_edges
        batch = list(xorcode._erasure_patterns(idx.n_edges, 0.05, 5, 0, 2 * step + 3))
        assert len(batch) == 2 * step + 3
        for t, pattern in enumerate(batch):
            assert sample_erasure_pattern(idx, 0.05, 5, t) == pattern, f"trial {t}"
        # a run that starts past zero reads the same trials
        assert list(xorcode._erasure_patterns(idx.n_edges, 0.05, 5, step - 2, step + 5)) == batch[step - 2 : step + 5]

    @pytest.mark.parametrize(
        "k, delta, trials, seed",
        [(1, 0.2, 50, 7), (12, 0.1, 200, 8), (32, 0.05, 600, 7)],  # k = 32: 496 trials a batch
    )
    def test_bound_matches_per_trial_loop(self, k, delta, trials, seed):
        est = erasure_mc_error_bound(k, delta, trials, seed)
        assert est.failure_freq == erasure_failures_by_trial(k, delta, trials, seed) / trials

    def test_draws_stay_within_batch_size(self, monkeypatch):
        sizes = []

        def recording(seed, n, below=None):
            out = uniforms(seed, n, below=below)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(xorcode, "uniforms", recording)
        erasure_mc_error_bound(64, 0.05, 1000, 1)
        assert sum(sizes) == 1000 * EdgeIndex(64).n_edges
        assert max(sizes) <= xorcode._PATTERN_CELLS
        assert len(sizes) == math.ceil(1000 / (xorcode._PATTERN_CELLS // EdgeIndex(64).n_edges))


class TestExport:
    def test_round_trip(self):
        h, _ = build_Hk(5)
        text = export_parity_check(h)
        lines = text.strip().split("\n")
        header = lines[0].split()
        assert header == ["#", f"rows={h.nrows}", f"cols={h.ncols}"]
        rows = tuple(sum(1 << int(c) for c in line.split()) for line in lines[1:])
        assert BitMatrix(h.nrows, h.ncols, rows) == h

    def test_trailing_newline(self):
        h, _ = build_Hk(2)
        assert export_parity_check(h).endswith("\n")

    def test_h64_export_pinned(self):
        text = export_parity_check(build_Hk(64)[0])
        assert hashlib.sha256(text.encode()).hexdigest() == "08b15718b4c9db45ab4062a0bad07b1e1db0de5818f43dafcf2246d280a2093a"

    @pytest.mark.parametrize("nrows, ncols", [(0, 0), (1, 0), (0, 5), (3, 1), (5, 17)])
    def test_matches_bit_loop(self, nrows, ncols):
        rng = random.Random(nrows * 31 + ncols)
        rows = tuple(rng.getrandbits(ncols) for _ in range(nrows))
        lines = export_parity_check(BitMatrix(nrows, ncols, rows)).split("\n")
        assert lines[1:-1] == [" ".join(str(c) for c in range(ncols) if row >> c & 1) for row in rows]


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
