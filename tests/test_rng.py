"""Tests for the counter-based RNG and shared statistics helpers."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import kstest

from dagbroadcast.rng import _BLOCK, GOLDEN, MASK64, _threshold, derive_seed, mix64, uniforms
from dagbroadcast.stats import wilson_interval
from oracles import (
    bernoulli_draw_reference,
    bernoulli_uniforms_reference,
    threshold_reference,
    uniform_matrix,
    uniforms_reference,
)


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


def _at(seed: int, p: int) -> float:
    """Stream element at position ``p`` from the scalar finalizer, in Python integers."""
    return (mix64((seed + GOLDEN * (p + 1)) & MASK64) >> 11) * 2.0 ** -53


class TestStreamBitIdentity:
    """The blocked evaluation returns the one-shot counter stream, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, MASK64, GOLDEN, derive_seed(7, 3, 11)])
    @pytest.mark.parametrize("n", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5, 10**6])
    def test_equals_one_shot_formula(self, seed, n):
        got, want = uniforms(seed, n), uniforms_reference(seed, n)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        assert [float(u) for u in got[-2:]] == [_at(seed, p) for p in range(max(0, n - 2), n)]

    def test_pinned_hash(self):
        digest = hashlib.sha256(uniforms(2718, 10**6).tobytes()).hexdigest()
        assert digest == "ce3b46950a27c8a49d05677e6d7785854fd811b5acb9e0e0458a4e6f822bf249"


class TestPositionForms:
    """Bernoulli row segments read the same stream as the count form; the float
    stream takes a count only, and a gather or a ``range`` is refused."""

    SEED = derive_seed(5, 2, 9)
    REF = uniforms(SEED, 4 * _BLOCK + 5, below=0.5)

    @pytest.mark.parametrize("step", [1, 2, 3, 100, _BLOCK + 1])
    @pytest.mark.parametrize(
        "start, stop",
        [(0, _BLOCK - 1), (0, _BLOCK), (0, _BLOCK + 1), (1, 2 * _BLOCK + 1), (_BLOCK - 1, 4 * _BLOCK)],
    )
    def test_range_is_strided_slice(self, start, stop, step):
        # starts stepping by whole words, as the coupled grid's and percolation's stride * trial + lo
        starts = np.arange(start, stop, 4 * step)
        got = uniforms(self.SEED, (starts, 5), below=0.5)
        assert got.dtype == bool and got.shape == (starts.size, 5)
        assert got.tobytes() == self.REF[starts[:, None] + np.arange(5)].tobytes()

    @pytest.mark.parametrize(
        "n, error, match",
        [
            ((np.zeros((2, 2), dtype=np.int64), 3), TypeError, "starts must be 1-D"),
            ((np.array([1, -2]), 3), ValueError, "positions must be >= 0"),
            ((np.array([1.0]), 3), TypeError, "positions must be integers"),
            ((np.array([1, 2]), -1), ValueError, "width must be >= 0"),
            ((np.array([4, 9]), 3), ValueError, "share one lane offset"),
        ],
    )
    def test_segments_refused(self, n, error, match):
        with pytest.raises(error, match=match):
            uniforms(self.SEED, n, below=0.5)

    @pytest.mark.parametrize("n", [(3, 4), (np.array([0, 4]), 3)], ids=["shape", "segments"])
    def test_float_stream_takes_no_shape_or_segments(self, n):
        with pytest.raises(TypeError, match="'tuple' object cannot be interpreted as an integer"):
            uniforms(self.SEED, n)

    def test_range_refused(self):
        for below in (None, 0.5):
            with pytest.raises(TypeError, match="'range' object cannot be interpreted as an integer"):
                uniforms(self.SEED, range(4), below=below)

    @pytest.mark.parametrize("below", [None, 0.5])
    @pytest.mark.parametrize("pos", [np.array([3]), np.arange(5, dtype=np.uint64), np.zeros((2, 3), dtype=np.int32)])
    def test_gather_refused(self, pos, below):
        with pytest.raises(TypeError, match="only integer scalar arrays"):
            uniforms(self.SEED, pos, below=below)

    @pytest.mark.parametrize(
        "n, shape",
        [((0,), (0,)), ((2, 0, 3), (2, 0, 3)), ((0, 5), (0, 5)), ((np.array([], dtype=np.uint64), 0), (0, 0)),
         ((np.array([1, 6]), 0), (2, 0)), ((np.array([], dtype=np.int32), 7), (0, 7))],
    )
    def test_empty(self, n, shape):
        # an empty row reads no lane, so width-0 segments may start at mixed lane offsets
        got = uniforms(self.SEED, n, below=0.5)
        assert got.shape == shape and got.dtype == bool

    @pytest.mark.parametrize("p", [2**32 - 1, 2**32, 2**32 + 1, 2**40 + 3, 2**63 - 1])
    def test_positions_beyond_32_bits(self, p):
        m = bernoulli_draw_reference(self.SEED, p)
        for dtype in (np.int64, np.uint64):
            # the draw's own value is excluded and the next one included, which pins all 53 bits
            for starts, width in ((np.array([p], dtype=dtype), 1), (np.array([p - 10, p - 6], dtype=dtype), 7)):
                assert not uniforms(self.SEED, (starts, width), below=m * 2.0**-53)[-1, -1]
                assert uniforms(self.SEED, (starts, width), below=(m + 1) * 2.0**-53)[-1, -1]

    def test_top_uint64_position(self):
        # a start near 2^64 is refused, not wrapped round to a low word
        for starts in (np.array([2**64 - 1], dtype=np.uint64), np.array([4, 2**64 - 4], dtype=np.uint64)):
            with pytest.raises(ValueError, match="< 2\\^63"):
                uniforms(self.SEED, (starts, 1), below=0.5)

    @pytest.mark.parametrize(
        "n", [(np.array([-4, 0]), 3), (np.arange(-3, -1), 0), (np.array([4, -1, 2]), 1), (np.array([-5], dtype=np.int8), 2)]
    )
    def test_negative_position_refused(self, n):
        with pytest.raises(ValueError, match="positions must be >= 0"):
            uniforms(self.SEED, n, below=0.5)

    @pytest.mark.parametrize("pos", [np.array([0.0, 4.0]), np.array([True, False])])
    def test_non_integer_positions_refused(self, pos):
        with pytest.raises(TypeError, match="positions must be integers"):
            uniforms(self.SEED, (pos, 3), below=0.5)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, MASK64),
        st.integers(0, 3 * _BLOCK),
        st.integers(0, 3 * _BLOCK),
        st.integers(1, 40),
        st.integers(0, 9),
    )
    def test_range_matches_reference(self, seed, start, length, step, width):
        # segments at a range of starts against the one-shot numpy reference of the uniforms behind the draws
        starts = np.arange(start, start + length, 4 * step)
        ref = bernoulli_uniforms_reference(seed, starts[:, None] + np.arange(width, dtype=np.int64))
        assert np.array_equal(uniforms(seed, (starts, width), below=0.3), ref < 0.3)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, MASK64),
        st.integers(0, 3),
        st.one_of(st.tuples(st.integers(0, 300), st.integers(0, 1200)),
                  st.tuples(st.integers(4 * _BLOCK - 8, 4 * _BLOCK + 8), st.integers(0, 3))),
        st.integers(_BLOCK - 400, _BLOCK),
        st.integers(0, 2**32 - 1),
    )
    def test_segments_match_count_stream(self, seed, off, size, first, spread):
        # starts in the words around the count stream's first block edge; rows of up to 300 draws
        # (76 words) fill a block at about 430 rows, and a row of about 4 * _BLOCK draws crosses one
        width, rows = size
        starts = 4 * (first + np.random.default_rng(spread).integers(0, 400, size=rows)) + off
        cols = starts[:, None] + np.arange(width)
        n = int(cols.max()) + 1 if cols.size else 0
        # the cuts share the lane cut 2^15, so about one draw in 2^16 is a tie its refinement settles
        t1, t2 = 0.5 + 2.0**-17, 0.5 + 2.0**-18
        assert uniforms(seed, (starts, width), below=t1).tobytes() == uniforms(seed, n, below=t1)[cols].tobytes()
        rank = uniforms(seed, (starts, width), below=(t1, t2))
        assert rank.dtype == np.uint8 and rank.tobytes() == uniforms(seed, n, below=(t1, t2))[cols].tobytes()


class TestBelow:
    """``below=`` draws equal the Python-integer reference bit for bit: draw q is
    m < ceil(p * 2^53) for the 53-bit m = lane * 2^37 + refinement, which is the
    float compare u < p of the uniform u = m * 2^-53 behind the draw."""

    SEED = derive_seed(11, 4)
    THRESHOLDS = [0.0, -0.0, 5e-324, 2.0**-53, 0.1, 0.5, np.nextafter(1.0, 0.0), 1.0, 1.5, -0.3,
                  np.nan, np.inf, -np.inf]

    @staticmethod
    def _positions(form: str, n: int):
        if form == "count":
            return n
        if form == "shape":  # the first positions, row-major in rows of 7
            return n // 7, 7
        return 12 * np.arange(n // 9) + 3, 9  # segments: rows of 9 consecutive positions, each from lane 3 of a word

    @classmethod
    def _draws(cls, pos) -> np.ndarray:
        """The reference's 53-bit draws at ``pos`` (a count, a shape or row segments), shaped as the result."""
        if isinstance(pos, tuple) and isinstance(pos[0], np.ndarray):
            q = pos[0][:, None] + np.arange(pos[1])
        else:
            q = np.arange(math.prod(pos) if isinstance(pos, tuple) else pos).reshape(pos)
        m = np.array([bernoulli_draw_reference(cls.SEED, x) for x in q.reshape(-1).tolist()], dtype=np.uint64)
        return m.reshape(q.shape)

    @staticmethod
    def _tie_thresholds(m: np.ndarray) -> list[float]:
        """Thresholds that tie with drawn lanes: a draw's own value (excluded) and the
        next 53-bit value (included), and k * 2^-16 for its lane k with both float neighbours."""
        out = []
        for v in (int(m.flat[m.size // 2]), int(m.min()), int(m.max())):
            lane_cut = (v >> 37) * 2.0**-16
            out += [v * 2.0**-53, (v + 1) * 2.0**-53, lane_cut, np.nextafter(lane_cut, 0.0), np.nextafter(lane_cut, 1.0)]
        return out

    @pytest.mark.parametrize("form", ["count", "shape", "segments"])
    @pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK + 1])
    def test_equals_float_compare(self, form, n):
        pos = self._positions(form, n)
        m = self._draws(pos)
        for p in [*self.THRESHOLDS, *self._tie_thresholds(m)]:
            got = uniforms(self.SEED, pos, below=p)
            assert got.dtype == bool and got.shape == m.shape
            want = m < np.uint64(threshold_reference(p))
            np.testing.assert_array_equal(got, want, err_msg=f"p = {p!r}")
        # a draw's own value is a tie that its refinement excludes
        v = int(m.flat[m.size // 2])
        assert not uniforms(self.SEED, pos, below=v * 2.0**-53).flat[m.size // 2]
        assert uniforms(self.SEED, pos, below=(v + 1) * 2.0**-53).flat[m.size // 2]

    @pytest.mark.parametrize("n", [4 * _BLOCK - 1, 4 * _BLOCK + 5])
    def test_across_lane_blocks(self, n):
        m = self._draws(n)
        for p in [0.3, *self._tie_thresholds(m)]:
            np.testing.assert_array_equal(uniforms(self.SEED, n, below=p), m < np.uint64(threshold_reference(p)))

    def test_seed_rows(self):
        seeds = np.array([0, 1, 2**63, 2**64 - 1, derive_seed(3, 10, 7)], dtype=np.uint64)
        m = np.array([[bernoulli_draw_reference(int(s), q) for q in range(301)] for s in seeds], dtype=np.uint64)
        for p in [0.0, 0.37, 1.0, np.nan, *self._tie_thresholds(m)]:
            np.testing.assert_array_equal(uniforms(seeds, 301, below=p), m < np.uint64(threshold_reference(p)))

    @pytest.mark.parametrize("form", ["count", "shape", "segments"])
    def test_table_at_index(self, form):
        pos = self._positions(form, 2000)
        m = self._draws(pos)
        table = np.array([*self.THRESHOLDS, *self._tie_thresholds(m)])
        at = np.random.default_rng(1).integers(0, table.size, size=m.shape)
        shape = m.shape if form == "count" else pos
        got = uniforms(self.SEED, shape, below=table, at=at)
        assert got.dtype == bool and got.shape == m.shape
        cuts = np.array([threshold_reference(p) for p in table], dtype=np.uint64)
        np.testing.assert_array_equal(got, m < cuts[at])

    def test_threshold_array_broadcasts(self):
        pos = self._positions("segments", 2000)
        m = self._draws(pos)
        per_row = np.resize(self._tie_thresholds(m) + [0.5, np.nan], len(pos[0]))[:, None]  # (222, 1) against (222, 9)
        got = uniforms(self.SEED, pos, below=per_row)
        assert got.dtype == bool and got.shape == m.shape == (len(per_row), 9)
        cuts = np.array([threshold_reference(p) for p in per_row[:, 0]], dtype=np.uint64)[:, None]
        np.testing.assert_array_equal(got, m < cuts)
        with pytest.raises(ValueError):
            uniforms(self.SEED, (4, 5), below=np.full(3, 0.5))

    @pytest.mark.parametrize("form", ["count", "shape", "segments"])
    def test_nested_cuts(self, form):
        pos = self._positions(form, 2000)
        m = self._draws(pos)
        v = int(m.flat[7])
        pairs = [(0.5, 0.2), (1.0, 0.0), (0.3, 0.3), (np.nan, -1.0), (np.inf, 1.0),
                 ((v + 1) * 2.0**-53, v * 2.0**-53), (v * 2.0**-53, (v >> 37) * 2.0**-16)]
        t1, t2 = (np.array(t) for t in zip(*pairs))
        at = np.random.default_rng(2).integers(0, len(pairs), size=m.shape)
        shape = m.shape if form == "count" else pos
        got = uniforms(self.SEED, shape, below=(t1, t2), at=at)
        assert got.dtype == np.uint8 and got.shape == m.shape
        cut1 = np.array([threshold_reference(t) for t in t1], dtype=np.uint64)[at]
        cut2 = np.array([threshold_reference(t) for t in t2], dtype=np.uint64)[at]
        np.testing.assert_array_equal(got, (m < cut1).astype(np.uint8) + (m < cut2))
        # one scalar pair draws the same ranks as a table of that pair
        np.testing.assert_array_equal(uniforms(self.SEED, shape, below=(0.5, 0.2)), (m < 2**52).astype(np.uint8) + (m < np.uint64(threshold_reference(0.2))))

    def test_nested_cuts_must_nest(self):
        with pytest.raises(ValueError, match="t1 >= t2"):
            uniforms(self.SEED, 10, below=(0.2, 0.5))
        with pytest.raises(ValueError, match="t1 >= t2"):
            uniforms(self.SEED, 10, below=(np.array([0.5, 0.1]), np.array([0.2, 0.2])), at=np.zeros(10, dtype=np.intp) + 1)
        with pytest.raises(ValueError, match="a pair"):
            uniforms(self.SEED, 10, below=(0.5, 0.4, 0.3))
        with pytest.raises(TypeError, match="needs below="):
            uniforms(self.SEED, 10, at=np.zeros(10, dtype=np.intp))

    def test_positions_below_2_63(self):
        p = 2**63 - 1
        got = uniforms(self.SEED, (np.array([p], dtype=np.uint64), 1), below=0.5)
        assert got[0, 0] == (bernoulli_draw_reference(self.SEED, p) < 2**52)
        with pytest.raises(ValueError, match="< 2\\^63"):
            uniforms(self.SEED, (np.array([2**63], dtype=np.uint64), 1), below=0.5)
        assert uniforms(self.SEED, (np.array([p - 3], dtype=np.uint64), 4), below=0.5).shape == (1, 4)
        with pytest.raises(ValueError, match="< 2\\^63"):
            uniforms(self.SEED, (np.array([p - 3], dtype=np.uint64), 5), below=0.5)

    def test_matches_one_shot_reference(self):
        # the numpy one-shot reference the dense oracles use agrees with the integer one
        pos = np.random.default_rng(5).integers(0, 2**40, size=3000)
        want = np.array([bernoulli_draw_reference(self.SEED, int(q)) for q in pos]) * 2.0**-53
        assert bernoulli_uniforms_reference(self.SEED, pos).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "p, want",
        [(0.0, 0), (-0.0, 0), (-0.3, 0), (np.nan, 0), (-np.inf, 0), (5e-324, 1), (2.0**-53, 1),
         (1.5 * 2.0**-53, 2), (0.5, 2**52), (np.nextafter(1.0, 0.0), 2**53 - 1), (1.0, 2**53),
         (1.5, 2**53), (np.inf, 2**53)],
    )
    def test_integer_threshold(self, p, want):
        # the largest draw m = 2^53 - 1 is below 1.0, so the clamp must be 2^53, not 2^53 - 1
        assert _threshold(p) == want == threshold_reference(p)

    def test_empty(self):
        for n, shape in ((0, (0,)), ((3, 0), (3, 0)), ((np.array([], dtype=np.int64), 4), (0, 4)),
                         ((np.array([3, 6]), 0), (2, 0))):
            got = uniforms(self.SEED, n, below=0.5)
            assert got.shape == shape and got.dtype == bool
        assert uniforms(self.SEED, 0, below=(0.5, 0.2)).dtype == np.uint8


class TestNestedCutsAtTies:
    """Two cuts sharing their lane cut hi: the one refinement decides both, so the
    rank stays monotone, (u < t2) never without (u < t1)."""

    SEED = derive_seed(8, 1)
    N = 1 << 20

    def test_refinement_decides_both(self):
        m = (bernoulli_uniforms_reference(self.SEED, np.arange(self.N)) * 2.0**53).astype(np.uint64)
        lanes = m >> np.uint64(37)
        lane = int(np.bincount(lanes).argmax())
        tied = lanes == lane
        r = np.sort(m[tied] & np.uint64(2**37 - 1))
        cut1, cut2 = (lane << 37) + int(r[2 * r.size // 3]), (lane << 37) + int(r[r.size // 3])
        rank = uniforms(self.SEED, self.N, below=(cut1 * 2.0**-53, cut2 * 2.0**-53))
        assert rank.dtype == np.uint8 and set(np.unique(rank).tolist()) <= {0, 1, 2}
        np.testing.assert_array_equal(rank, (m < np.uint64(cut1)).astype(np.uint8) + (m < np.uint64(cut2)))
        assert set(rank[tied].tolist()) == {0, 1, 2}  # the refinement put tied draws on all three sides
        for q in np.flatnonzero(tied):
            assert bernoulli_draw_reference(self.SEED, int(q)) == int(m[q])

    @pytest.mark.parametrize("delta", [0.1, 0.5 - 2.0**-30])
    def test_coupled_grid_tables_never_give_one_zero(self, delta):
        # at delta = 1/2 - 2^-30, P(>= 1u) and P(>= 1c) of a 1u parent share hi
        from dagbroadcast.coupling import _node_tails

        at_least_1u, at_least_1c = _node_tails(delta)
        pair = np.random.default_rng(3).integers(0, 16, size=(600, 100))
        rank = uniforms(self.SEED, pair.shape, below=(at_least_1u, at_least_1c), at=pair)
        u = bernoulli_uniforms_reference(self.SEED, np.arange(pair.size)).reshape(pair.shape)
        plus, minus = u < at_least_1u[pair], u < at_least_1c[pair]
        assert not (minus & ~plus).any()  # the root-0 run never holds a 1 the root-1 run lacks
        np.testing.assert_array_equal(rank, plus.astype(np.uint8) + minus)

class TestSeedArray:
    """A 1-D seed array gives one Bernoulli row per seed, each the count form of that seed, bit for bit;
    the float stream takes no seed array."""

    SEEDS = np.array([0, 1, 2**63, 2**64 - 1, GOLDEN, derive_seed(3, 10, 7)], dtype=np.uint64)

    @pytest.mark.parametrize("below", [0.1, 0.5])
    @pytest.mark.parametrize("n", [0, 1, 155, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
    def test_rows_are_single_seed_streams(self, n, below):
        got = uniforms(self.SEEDS, n, below=below)
        assert got.shape == (len(self.SEEDS), n)
        assert got.dtype == bool
        for r, seed in enumerate(self.SEEDS):
            assert got[r].tobytes() == uniforms(seed, n, below=below).tobytes(), f"row {r}"

    @pytest.mark.parametrize("dtype", [np.int64, np.uint32, np.int16])
    def test_many_rows_across_blocks(self, dtype):
        # rows of 620 draws, 155 words: each block holds _BLOCK // 155 whole rows, and 500 rows span three blocks
        seeds = (np.arange(500) * 37).astype(dtype)
        got = uniforms(seeds, 620, below=0.3)
        want = np.stack([uniforms(int(s), 620, below=0.3) for s in seeds])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("below", [0.3, (0.7, 0.2)])
    def test_negative_seeds_read_mod_2_64(self, below):
        # as a scalar seed is: a seed array has no sign rule of its own
        seeds = np.array([3, -1, -(2**63), -GOLDEN // 2])
        got = uniforms(seeds, 155, below=below)
        for r, seed in enumerate(seeds):
            assert got[r].tobytes() == uniforms(int(seed) % 2**64, 155, below=below).tobytes(), f"row {r}"

    @pytest.mark.parametrize("n", [0, 5])
    def test_empty_seed_array(self, n):
        assert uniforms(np.array([], dtype=np.int64), n, below=0.5).shape == (0, n)
        assert uniforms(np.array([], dtype=np.uint64), n, below=(0.5, 0.2)).shape == (0, n)

    @pytest.mark.parametrize(
        "seeds, n, error, match",
        [
            (np.zeros((2, 3), dtype=np.int64), 4, TypeError, r"1-D .*shape \(2, 3\)"),
            (np.array([True, False]), 4, TypeError, "dtype bool"),
            (np.array([1.0, 2.0]), 4, TypeError, "dtype float64"),
            (np.array([1, 2]), range(4), TypeError, "'range' object cannot be interpreted as an integer"),
            (np.array([1, 2]), np.arange(4), TypeError, "only integer scalar arrays"),
            (np.array([1, 2]), -1, ValueError, "n must be >= 0, got -1"),
        ],
    )
    def test_refused(self, seeds, n, error, match):
        with pytest.raises(error, match=match):
            uniforms(seeds, n, below=0.5)

    @pytest.mark.parametrize("seeds", [SEEDS, np.array([], dtype=np.int64)])
    def test_float_rows_refused(self, seeds):
        with pytest.raises(TypeError, match="seed array .* needs below="):
            uniforms(seeds, 5)


class TestTracedPeak:
    """A Bernoulli call holds its result and one block's word buffers, never a
    temporary the size of the result.  numpy reports its buffers to
    ``tracemalloc``, so the bound does not depend on how the heap is laid out."""

    @staticmethod
    def _peak(call) -> int:
        call()
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()

    def test_nested_per_row_cut(self):
        # two blocks of whole rows, each cut a (1000, 1) column broadcast against its block
        pp = np.linspace(0.2, 0.9, 1000)[:, None]
        peak = self._peak(lambda: uniforms(5, (1000, 256), below=(pp, 0.5 * pp)))
        assert peak < 1000 * 256 + 4 * 256 * 1024

    def test_scalar_cut(self):
        # four blocks of whole rows: the call holds the result, the word buffer and its
        # scratch (256 KiB each) and a few small arrays
        peak = self._peak(lambda: uniforms(5, 400_000, below=0.05))
        assert peak < 400_000 + 3 * 256 * 1024


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
