"""Tests for the counter-based RNG and shared statistics helpers."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import kstest

from dagbroadcast.rng import _BLOCK, GOLDEN, MASK64, _threshold, derive_seed, mix64, uniforms
from dagbroadcast.stats import wilson_interval
from oracles import uniform_matrix, uniforms_reference


class TestMix64:
    def test_deterministic(self):
        assert mix64(12345) == mix64(12345)

    def test_zero_maps_to_zero(self):
        # the SplitMix64 finalizer fixes 0; derive_seed avoids feeding it 0
        assert mix64(0) == 0

    def test_no_small_collisions(self):
        outs = {mix64(i) for i in range(10_000)}
        assert len(outs) == 10_000

    def test_range(self):
        assert 0 <= mix64((1 << 64) - 1) < 1 << 64


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, 1, 2, 3) == derive_seed(7, 1, 2, 3)

    def test_path_order_matters(self):
        assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)

    def test_path_extension_differs(self):
        assert derive_seed(7, 1) != derive_seed(7, 1, 0)

    def test_distinct_children(self):
        children = {derive_seed(42, tag, t) for tag in range(12) for t in range(1000)}
        assert len(children) == 12_000


class TestUniforms:
    def test_range_and_length(self):
        u = uniforms(99, 10_000)
        assert len(u) == 10_000
        assert (u >= 0).all() and (u < 1).all()

    def test_prefix_property(self):
        # counter streams: a shorter draw is a prefix of a longer one
        np.testing.assert_array_equal(uniforms(5, 100)[:40], uniforms(5, 40))

    def test_uniformity_ks(self):
        u = uniforms(2718, 100_000)
        stat, p = kstest(u, "uniform")
        assert p > 0.01

    def test_lag_one_correlation_small(self):
        u = uniforms(31337, 100_000)
        r = np.corrcoef(u[:-1], u[1:])[0, 1]
        assert abs(r) < 0.01

    def test_streams_independent_means(self):
        a = uniforms(derive_seed(1, 1), 50_000)
        b = uniforms(derive_seed(1, 2), 50_000)
        assert abs(a.mean() - 0.5) < 0.007
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.01

    def test_matrix_is_reshaped_stream(self):
        m = uniform_matrix(77, (4, 5, 2))
        np.testing.assert_array_equal(m.ravel(), uniforms(77, 40))

    def test_zero_size_is_empty(self):
        assert uniforms(3, 0).shape == (0,) and uniforms(3, 0).dtype == np.float64
        assert uniform_matrix(3, (2, 0)).shape == (2, 0)

    def test_negative_size_refused(self):
        with pytest.raises(ValueError, match="n must be >= 0, got -3"):
            uniforms(3, -3)
        # reshape would read -1 as "infer this axis"
        with pytest.raises(ValueError, match=r"shape\[1\] must be >= 0, got -1"):
            uniform_matrix(3, (2, -1))


class TestStreamBitIdentity:
    """The blocked evaluation returns the one-shot counter stream, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, MASK64, GOLDEN, derive_seed(7, 3, 11)])
    @pytest.mark.parametrize("n", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5, 10**6])
    def test_equals_one_shot_formula(self, seed, n):
        got, want = uniforms(seed, n), uniforms_reference(seed, n)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    def test_pinned_hash(self):
        digest = hashlib.sha256(uniforms(2718, 10**6).tobytes()).hexdigest()
        assert digest == "ce3b46950a27c8a49d05677e6d7785854fd811b5acb9e0e0458a4e6f822bf249"


def _at(seed: int, p: int) -> float:
    """Stream element at position ``p`` from the scalar finalizer, in Python integers."""
    return (mix64((seed + GOLDEN * (p + 1)) & MASK64) >> 11) * 2.0 ** -53


class TestPositionForms:
    """Array positions read the same stream as the count form; a ``range`` is refused."""

    SEED = derive_seed(5, 2, 9)
    REF = uniforms_reference(SEED, 4 * _BLOCK)

    @pytest.mark.parametrize("step", [1, 2, 3, 100, _BLOCK + 1])
    @pytest.mark.parametrize(
        "start, stop",
        [(0, _BLOCK - 1), (0, _BLOCK), (0, _BLOCK + 1), (1, 2 * _BLOCK + 1), (_BLOCK - 1, 4 * _BLOCK)],
    )
    def test_range_is_strided_slice(self, start, stop, step):
        got = uniforms(self.SEED, np.arange(start, stop, step))
        assert got.dtype == np.float64
        assert got.tobytes() == self.REF[start:stop:step].tobytes()

    def test_range_refused(self):
        for below in (None, 0.5):
            with pytest.raises(TypeError, match="'range' object cannot be interpreted as an integer"):
                uniforms(self.SEED, range(4), below=below)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64, np.int32, np.uint16])
    def test_gather_keeps_shape(self, dtype):
        pos = np.random.default_rng(3).integers(0, 2**16, size=(7, 11)).astype(dtype)
        got = uniforms(self.SEED, pos)
        assert got.shape == (7, 11)
        assert got.tobytes() == self.REF[pos.astype(np.int64)].tobytes()

    def test_gather_across_blocks(self):
        pos = np.arange(4 * _BLOCK)[::-1].copy()
        assert uniforms(self.SEED, pos).tobytes() == self.REF[::-1].tobytes()

    @pytest.mark.parametrize(
        "n, shape",
        [(np.arange(0), (0,)), (np.arange(9, 9), (0,)), (np.arange(7, 3), (0,)), (np.arange(7, -3, 100), (0,)),
         (np.array([], dtype=np.int64), (0,)), (np.zeros((2, 0), dtype=np.int64), (2, 0))],
    )
    def test_empty(self, n, shape):
        got = uniforms(self.SEED, n)
        assert got.shape == shape and got.dtype == np.float64

    @pytest.mark.parametrize("p", [2**32 - 1, 2**32, 2**32 + 1, 2**40 + 3, 2**63 - 1])
    def test_positions_beyond_32_bits(self, p):
        want = _at(self.SEED, p)
        assert uniforms(self.SEED, np.array([p], dtype=np.int64))[0] == want
        assert uniforms(self.SEED, np.arange(p - 6, p + 1, 3, dtype=np.uint64))[-1] == want

    def test_top_uint64_position(self):
        p = 2**64 - 1  # its counter is seed + GOLDEN * 2^64 = seed mod 2^64
        assert uniforms(self.SEED, np.array([p], dtype=np.uint64))[0] == _at(self.SEED, p)

    @pytest.mark.parametrize("n", [np.arange(-1, 5), np.arange(-3, -1), np.array([4, -1, 2]), np.array([[-5]])])
    def test_negative_position_refused(self, n):
        with pytest.raises(ValueError, match="positions must be >= 0"):
            uniforms(self.SEED, n)

    @pytest.mark.parametrize("pos", [np.array([0.0, 1.0]), np.array([True, False])])
    def test_non_integer_positions_refused(self, pos):
        with pytest.raises(TypeError, match="positions must be integers"):
            uniforms(self.SEED, pos)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, MASK64),
        st.integers(0, 3 * _BLOCK),
        st.integers(0, 3 * _BLOCK),
        st.integers(1, 40),
    )
    def test_range_matches_reference(self, seed, start, length, step):
        ref = uniforms_reference(seed, start + length)
        assert uniforms(seed, np.arange(start, start + length, step)).tobytes() == ref[start::step].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, MASK64), st.lists(st.integers(0, 2 * _BLOCK), max_size=200))
    def test_gather_matches_reference(self, seed, pos):
        ref = uniforms_reference(seed, 2 * _BLOCK + 1)
        got = uniforms(seed, np.array(pos, dtype=np.int64))
        assert got.tobytes() == ref[np.array(pos, dtype=np.int64)].tobytes()


class TestBelow:
    """``below=p`` is the float compare ``uniforms(...) < p``, element for element, in every position form."""

    SEED = derive_seed(11, 4)
    THRESHOLDS = [0.0, -0.0, 5e-324, 2.0**-53, 0.1, 0.5, np.nextafter(1.0, 0.0), 1.0, 1.5, -0.3,
                  np.nan, np.inf, -np.inf]

    @staticmethod
    def _positions(form: str, n: int):
        if form == "count":
            return n
        if form == "range":
            return np.arange(5, 5 + 3 * n, 3)
        return np.random.default_rng(n).integers(0, 4 * _BLOCK, size=(n, 1))

    @pytest.mark.parametrize("form", ["count", "range", "gather"])
    @pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK + 1])
    def test_equals_float_compare(self, form, n):
        pos = self._positions(form, n)
        u = uniforms(self.SEED, pos)
        # a threshold equal to a drawn value excludes it; the next float up includes it
        # (below 1/2 that float lies between two multiples of 2^-53)
        hits = [u.flat[n // 2], u.min(), u.max()]
        for p in [*self.THRESHOLDS, *hits, *np.nextafter(hits, 1.0)]:
            got = uniforms(self.SEED, pos, below=p)
            assert got.dtype == bool and got.shape == u.shape
            np.testing.assert_array_equal(got, u < p, err_msg=f"p = {p!r}")

    @pytest.mark.parametrize(
        "p, want",
        [(0.0, 0), (-0.0, 0), (-0.3, 0), (np.nan, 0), (-np.inf, 0), (5e-324, 1), (2.0**-53, 1),
         (1.5 * 2.0**-53, 2), (0.5, 2**52), (np.nextafter(1.0, 0.0), 2**53 - 1), (1.0, 2**53),
         (1.5, 2**53), (np.inf, 2**53)],
    )
    def test_integer_threshold(self, p, want):
        # the largest draw m = 2^53 - 1 is below 1.0, so the clamp must be 2^53, not 2^53 - 1
        assert _threshold(p) == want

    def test_empty(self):
        got = uniforms(self.SEED, 0, below=0.5)
        assert got.shape == (0,) and got.dtype == bool


class TestSeedArray:
    """A 1-D seed array gives one row per seed, each the count form of that seed, bit for bit."""

    SEEDS = np.array([0, 1, 2**63, 2**64 - 1, GOLDEN, derive_seed(3, 10, 7)], dtype=np.uint64)

    @pytest.mark.parametrize("below", [None, 0.1, 0.5])
    @pytest.mark.parametrize("n", [0, 1, 155, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
    def test_rows_are_single_seed_streams(self, n, below):
        got = uniforms(self.SEEDS, n, below=below)
        assert got.shape == (len(self.SEEDS), n)
        assert got.dtype == (np.float64 if below is None else bool)
        for r, seed in enumerate(self.SEEDS):
            assert got[r].tobytes() == uniforms(seed, n, below=below).tobytes(), f"row {r}"

    @pytest.mark.parametrize("dtype", [np.int64, np.uint32, np.int16])
    def test_many_rows_across_blocks(self, dtype):
        # 155-element rows: each block holds _BLOCK // 155 whole rows, and 500 rows span three blocks
        seeds = (np.arange(500) * 37).astype(dtype)
        got = uniforms(seeds, 155)
        want = np.stack([uniforms(int(s), 155) for s in seeds])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [0, 5])
    def test_empty_seed_array(self, n):
        assert uniforms(np.array([], dtype=np.int64), n).shape == (0, n)
        assert uniforms(np.array([], dtype=np.uint64), n, below=0.5).shape == (0, n)

    @pytest.mark.parametrize(
        "seeds, n, error, match",
        [
            (np.zeros((2, 3), dtype=np.int64), 4, TypeError, r"1-D .*shape \(2, 3\)"),
            (np.array([3, -1]), 4, ValueError, "seeds must be >= 0, got -1"),
            (np.array([1.0, 2.0]), 4, TypeError, "dtype float64"),
            (np.array([1, 2]), range(4), TypeError, "'range' object cannot be interpreted as an integer"),
            (np.array([1, 2]), np.arange(4), TypeError, "only integer scalar arrays"),
            (np.array([1, 2]), -1, ValueError, "n must be >= 0, got -1"),
        ],
    )
    def test_refused(self, seeds, n, error, match):
        with pytest.raises(error, match=match):
            uniforms(seeds, n)


class TestWilsonInterval:
    def test_frozen_value(self):
        lo, hi = wilson_interval(8, 10)
        assert lo == pytest.approx(0.49015, abs=1e-4)
        assert hi == pytest.approx(0.94333, abs=1e-4)

    def test_contains_phat(self):
        for s, n in [(0, 50), (50, 50), (13, 77), (1, 3)]:
            lo, hi = wilson_interval(s, n)
            assert 0.0 <= lo <= s / n <= hi <= 1.0

    def test_symmetric_at_half(self):
        lo, hi = wilson_interval(50, 100)
        assert lo + hi == pytest.approx(1.0)

    def test_shrinks_with_n(self):
        w1 = np.diff(wilson_interval(10, 20))[0]
        w2 = np.diff(wilson_interval(1000, 2000))[0]
        assert w2 < w1

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)
