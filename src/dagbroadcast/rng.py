"""Deterministic counter-based random number generation.

All randomness in this package flows through a 64-bit counter-style
generator built on the SplitMix64 finalizer.  A draw is a pure function
of (seed, derivation path), so Monte Carlo work can be reordered or
parallelized without changing results.

Scheme
------
* ``mix64`` is the SplitMix64 output function (xor-shift-multiply).
  Word w of the stream of ``seed`` is ``mix64(seed + GOLDEN * (w + 1))``.
* ``derive_seed(seed, *path)`` folds integer path components (purpose
  tag, trial, level, node, slot indices) into the seed, applying the
  finalizer at every step.
* ``uniforms(seed, n)`` is the float stream: the uniform at position p is
  word p mapped to [0, 1) with 53-bit resolution.  ``n`` names the
  positions: a count for the first ones, or an integer array for a gather
  (the result takes the array's shape).
  Each element is a pure function of its position, so the stream is
  evaluated in cache-resident blocks with in-place array steps, and a
  consumer evaluates only the positions it reads; neither changes a value.
* ``uniforms(seeds, n)`` with a 1-D integer array of seeds has row r equal
  to ``uniforms(seeds[r], n)``, and a block holds whole rows.
* ``uniforms(seed, n, below=p)`` is the Bernoulli stream: bools, draw q
  true with probability exactly T / 2^53, T = ceil(p * 2^53) clamped to
  [0, 2^53] (NaN gives 0), and no float is formed.  Besides a count, a
  gather and a seed array, ``n`` may be a shape (the first positions in
  row-major order) or row segments ``(starts, width)``, row r holding
  positions starts[r] .. starts[r] + width - 1, where every start lies
  at the same lane offset (start mod 4).  Draw q is the 53-bit
  integer m = lane * 2^37 + r compared with T, where the lane is 16-bit
  lane q mod 4 (bits 16 l .. 16 l + 15) of word q div 4, and r is the top
  37 bits of word q div 4 + (2 l + 1) * 2^61.  Lane and r are independent
  and uniform, so m is uniform on [0, 2^53).  The lane alone decides
  unless it equals hi = min(T >> 37, 2^16 - 1) (a tie, probability
  2^-16); only then is r mixed, for all ties of a call at once.  So one
  finalizer serves four draws.  Bernoulli positions are below 2^63: their
  words then lie below 2^61, and the four refinement ranges
  [(2 l + 1) * 2^61, (2 l + 2) * 2^61) are disjoint from them and from
  each other.  The Bernoulli stream of ``seed`` from position 4w on is
  the one of ``seed + GOLDEN * w``, so a count, a seed row and a row
  segment mix each of their words once; a gather mixes one per position.
* ``below`` is a number or an array that broadcasts against the result;
  ``below=table, at=index`` gives draw i the threshold ``table[index[i]]``
  with the table converted once; and ``below=(t1, t2)`` with t1 >= t2
  returns the uint8 rank [m < T1] + [m < T2] of one draw against two
  nested cuts, so samplers coupled through it stay monotone at ties.

By convention a seed value is used either as a stream (via ``uniforms``,
floats or Bernoulli draws but not both) or for further derivation, never
both, which keeps streams disjoint.  The lanes are read as little-endian
``uint16`` views of the words.
"""

from __future__ import annotations

import math
import operator

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_BLOCK = 1 << 15  # one block's three 256 KiB uint64 operands stay in L2
_LANE_WORDS = _BLOCK  # words a Bernoulli block mixes: 2^17 draws, its two 256 KiB operands in L2

_XSM = (np.uint64(30), np.uint64(_M1)), (np.uint64(27), np.uint64(_M2))
# Weyl offsets GOLDEN * (1 .. _BLOCK) mod 2^64; block a adds seed + GOLDEN * a * _BLOCK
_WEYL = np.arange(1, _BLOCK + 1, dtype=np.uint64) * np.uint64(GOLDEN)
_WEYL.flags.writeable = False
_REFINE_ROWS = np.array([[0], [1]], dtype=np.uint64)

__all__ = ["mix64", "derive_seed", "uniforms"]


def mix64(x: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer."""
    z = x & MASK64
    z = ((z ^ (z >> 30)) * _M1) & MASK64
    z = ((z ^ (z >> 27)) * _M2) & MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, *path: int) -> int:
    """Derive a child seed from integer path components.

    Identical (seed, path) pairs always produce identical child seeds.
    """
    s = seed & MASK64
    for p in path:
        s = mix64((s + GOLDEN * (int(p) + 1)) & MASK64)
    return s


def _check_size(n, what: str) -> int:
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"{what} must be >= 0, got {n}")
    return n


def _threshold(p) -> np.ndarray:
    """ceil(p * 2^53) clamped to [0, 2^53], elementwise: a 53-bit m is below p * 2^53 exactly when it is below this.

    p * 2^53 is exact in binary floating point (a power-of-two scaling never
    rounds, and only p > 1 can overflow, to inf).
    """
    x = np.asarray(p, dtype=np.float64) * 2.0**53
    return np.where(x > 0.0, np.minimum(np.ceil(x), 2.0**53), 0.0).astype(np.uint64)  # NaN gives 0


def uniforms(seed: "int | np.ndarray", n, below=None, at=None) -> np.ndarray:
    """Return the draws at positions ``n`` of the counter stream of ``seed``.

    ``n`` is a count or an integer array of positions (the result has its
    shape); anything else, a ``range`` say, raises ``TypeError``.  A 1-D
    integer array of seeds with a count ``n`` gives one row per seed.
    Without ``below`` the draws are uniforms in [0, 1); with it they are
    Bernoulli draws (see the module docstring): bools for one threshold or
    table (``at=``), a uint8 rank for a pair of nested cuts ``(t1, t2)``,
    and ``n`` may also be a shape (the first positions, row-major) or row
    segments ``(starts, width)`` (row r holds positions starts[r] ..
    starts[r] + width - 1) whose starts share one lane offset, start mod 4.
    """
    if below is None:
        if at is not None:
            raise TypeError("at= indexes a threshold table and needs below=")
        return _floats(seed, n)
    return _bernoulli(*_lane_rows(seed, n), below, at)


def _segments(n) -> tuple[np.ndarray, int, int]:
    """(starts, width, off) of Bernoulli row segments, off their one lane offset."""
    starts, width = _positions(n[0], False), _check_size(n[1], "width")
    if starts.ndim != 1:
        raise TypeError(f"segment starts must be 1-D, got shape {starts.shape}")
    starts = starts.astype(np.uint64)
    if starts.size and width and int(starts.max()) + width > 1 << 63:
        raise ValueError(f"Bernoulli positions must be < 2^63, got {int(starts.max()) + width - 1}")
    off = starts & np.uint64(3)
    if width and not (off == off[:1]).all():  # an empty row reads no lane
        raise ValueError("segment starts must share one lane offset (start mod 4)")
    return starts, width, int(off[0]) if off.size else 0


def _seed_array(seeds: np.ndarray) -> np.ndarray:
    if seeds.ndim != 1 or seeds.dtype.kind not in "iu":
        raise TypeError(f"a seed array must be 1-D of integers, got shape {seeds.shape} dtype {seeds.dtype}")
    if seeds.dtype.kind == "i" and seeds.size and seeds.min() < 0:
        raise ValueError(f"seeds must be >= 0, got {seeds.min()}")
    return seeds.astype(np.uint64)


def _positions(pos: np.ndarray, bernoulli: bool) -> np.ndarray:
    if pos.dtype.kind not in "iu":
        raise TypeError(f"positions must be integers, got dtype {pos.dtype}")
    if pos.dtype.kind == "i" and pos.size and pos.min() < 0:
        raise ValueError(f"positions must be >= 0, got {pos.min()}")
    if bernoulli and pos.size and int(pos.max()) >= 1 << 63:
        raise ValueError(f"Bernoulli positions must be < 2^63, got {pos.max()}")
    return pos


def _mix_in_place(z: np.ndarray, t: np.ndarray) -> None:
    """The SplitMix64 finalizer on the uint64 array ``z``, with ``t`` as scratch of its size."""
    # uint64 array arithmetic wraps mod 2^64 without an overflow warning,
    # so no np.errstate is needed
    for shift, mult in _XSM:
        np.right_shift(z, shift, out=t)
        np.bitwise_xor(z, t, out=z)
        np.multiply(z, mult, out=z)
    np.right_shift(z, np.uint64(31), out=t)
    np.bitwise_xor(z, t, out=z)


# ---------------------------------------------------------------------------
# The float stream


def _floats(seed, n) -> np.ndarray:
    if isinstance(seed, np.ndarray):
        seeds, n = _seed_array(seed), _check_size(n, "n")
        # row r's counters are seeds[r] + GOLDEN * (1 .. n); a block holds as many whole rows as fit, or one
        weyl = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(GOLDEN)

        def counters(z, b):
            np.add(seeds[b // n : (b + z.size) // n, None], weyl, out=z.reshape(-1, n))

        return _mix(seeds.size * n, max(n, _BLOCK - _BLOCK % n) if n else _BLOCK, counters).reshape(seeds.size, n)
    if isinstance(n, np.ndarray):
        flat = _positions(n, False).reshape(-1)
        golden, first = np.uint64(GOLDEN), np.uint64((int(seed) + GOLDEN) & MASK64)

        def counters(z, b):
            # seed + GOLDEN * (p + 1) = (seed + GOLDEN) + GOLDEN * p
            np.multiply(flat[b : b + z.size], golden, out=z, dtype=np.uint64, casting="unsafe")
            np.add(z, first, out=z)

        return _mix(flat.size, _BLOCK, counters).reshape(n.shape)
    # element i of a block starting at element b has counter seed + GOLDEN*(b + i + 1) = base_b + _WEYL[i]
    base = int(seed)

    def counters(z, b):
        np.add(_WEYL[: z.size], np.uint64((base + GOLDEN * b) & MASK64), out=z)

    return _mix(_check_size(n, "n"), _BLOCK, counters)


def _mix(n: int, block: int, counters) -> np.ndarray:
    """Mix ``n`` counters into uniforms in the output's own memory, ``block`` at a time.

    ``counters(z, b)`` writes the counters of elements ``b .. b + z.size - 1``
    into the ``uint64`` view ``z``.
    """
    out = np.empty(n, dtype=np.float64)
    bits = out.view(np.uint64)
    tmp = np.empty(min(n, block), dtype=np.uint64)
    for start in range(0, n, block):
        stop = min(start + block, n)
        z = bits[start:stop]
        counters(z, start)
        _mix_in_place(z, tmp[: z.size])
        np.right_shift(z, np.uint64(11), out=z)
        np.multiply(z, 2.0 ** -53, out=out[start:stop])
    return out


# ---------------------------------------------------------------------------
# The Bernoulli stream
#
# A call draws rows: row r reads lanes off .. off + width - 1 of the words
# whose counters are bases[r] + GOLDEN * (1, 2, ...), and its draws fill the
# result's flat entries r * width .. (r + 1) * width - 1.  A count or a
# shape is one row from base seed, a seed array a row per seed, a segment a
# row from the word its start lies in, and a gather a row of width 1 per
# position, each with its own lane offset.


def _lane_rows(seed, n) -> tuple[np.ndarray, "int | np.ndarray", int, tuple]:
    """(bases, off, width, shape) of the rows the draws at positions ``n`` read."""
    if isinstance(seed, np.ndarray):
        bases, width = _seed_array(seed), _check_size(n, "n")  # an array n is no count: TypeError
        return bases, 0, width, (bases.size, width)
    seed = int(seed) & MASK64
    if isinstance(n, tuple) and len(n) == 2 and isinstance(n[0], np.ndarray):
        starts, width, off = _segments(n)
        return _word_bases(seed, starts), off, width, (starts.size, width)
    if isinstance(n, np.ndarray):
        q = _positions(n, bernoulli=True).reshape(-1)
        return _word_bases(seed, q), (q & 3).astype(np.intp), 1, n.shape
    shape = tuple(_check_size(s, "n") for s in n) if isinstance(n, tuple) else (_check_size(n, "n"),)
    return np.array([seed], dtype=np.uint64), 0, math.prod(shape), shape


def _word_bases(seed: int, q: np.ndarray) -> np.ndarray:
    """seed + GOLDEN * (q div 4): the Bernoulli stream from the word of position q on."""
    return np.uint64(seed) + np.uint64(GOLDEN) * (q.astype(np.uint64) >> np.uint64(2))


def _cut(p, at, shape):
    """One threshold over a result of ``shape``: (hi, t, whole), with hi the
    lane cut of each draw, flat or one scalar, t the converted thresholds
    (one per table entry), and whole(i) the thresholds T of the draws at
    flat indices i."""
    t = _threshold(p)
    hi = np.minimum(t >> np.uint64(37), 0xFFFF).astype(np.uint16)
    if at is not None:
        index = np.asarray(at)
        if index.shape != shape:
            index = np.broadcast_to(index, shape)
        return hi.take(index).reshape(-1), t, lambda i: t.take(index.flat[i])
    if t.ndim == 0:
        return hi, t, lambda i: t
    return np.broadcast_to(hi, shape).reshape(-1), t, lambda i: np.broadcast_to(t, shape).flat[i]


def _bernoulli(bases: np.ndarray, off, width: int, shape: tuple, below, at) -> np.ndarray:
    """The draws of the rows against ``below`` (and ``at``): each lane is compared
    with its lane cut, and the ties are settled by their refinements at the end."""
    nested = isinstance(below, tuple)
    if nested and len(below) != 2:
        raise ValueError(f"nested cuts come as a pair (t1, t2), got {len(below)}")
    cuts = [_cut(p, at, shape) for p in (below if nested else (below,))]
    if nested and not np.all(cuts[0][1] >= cuts[1][1]):
        raise ValueError("nested cuts need t1 >= t2")
    out = np.empty(shape, dtype=np.uint8 if nested else bool)
    flat = out.reshape(-1)
    ties = []
    for f, lanes in _lane_blocks(bases, off, width):
        o = flat[f : f + lanes.size].reshape(lanes.shape)
        his = [hi if hi.ndim == 0 else hi[f : f + lanes.size].reshape(lanes.shape) for hi, _, _ in cuts]
        np.less(lanes, his[0], out=o.view(bool))
        tie = lanes == his[0]
        if nested:
            o += lanes < his[1]
            tie |= lanes == his[1]
        ties.append(np.flatnonzero(tie) + f)
    if ties and (i := ties[0] if len(ties) == 1 else np.concatenate(ties)).size:
        m = _tie_draws(bases, off, width, i)
        flat[i] = sum((m < whole(i)).astype(np.uint8) for _, _, whole in cuts)
    return out


def _lane_blocks(bases: np.ndarray, off, width: int):
    """Yield (f, lanes): the ``uint16`` lanes of the draws at flat indices
    f, f + 1, ..., as a (rows, columns) view, a block of words at a time.

    A block holds as many whole rows as fit in ``_LANE_WORDS`` words, or a
    part of one row.  ``off`` is one lane offset, or an array of one per row
    of width 1.
    """
    words = ((off if isinstance(off, int) else 3) + width + 3) >> 2  # an offset is at most 3
    if not bases.size or not width:
        return
    chunk = min(words, _LANE_WORDS)
    per = max(1, _LANE_WORDS // words)
    z = np.empty(min(bases.size, per) * chunk, dtype=np.uint64)
    t = np.empty_like(z)
    for r0 in range(0, bases.size, per):
        r1 = min(r0 + per, bases.size)
        for j0 in range(0, words, chunk):
            j1 = min(j0 + chunk, words)
            w = z[: (r1 - r0) * (j1 - j0)]
            np.add(bases[r0:r1, None], _WEYL[: j1 - j0], out=w.reshape(r1 - r0, j1 - j0))
            if j0:
                w += np.uint64((GOLDEN * j0) & MASK64)
            _mix_in_place(w, t[: w.size])
            lanes = w.view(np.uint16).reshape(r1 - r0, -1)
            if isinstance(off, np.ndarray):
                yield r0, np.take_along_axis(lanes, off[r0:r1, None], axis=1)
                continue
            c0, c1 = max(0, 4 * j0 - off), min(width, 4 * j1 - off)
            yield r0 * width + c0, lanes[:, c0 + off - 4 * j0 : c1 + off - 4 * j0]


def _tie_draws(bases: np.ndarray, off, width: int, i: np.ndarray) -> np.ndarray:
    """The whole 53-bit draws m = lane * 2^37 + r at flat indices ``i``."""
    r, c = np.divmod(i, width)
    lane = (c + (off[r] if isinstance(off, np.ndarray) else off)).astype(np.uint64)
    shift = lane & np.uint64(3)
    # row 0: the counter of each draw's word; row 1: of its refinement, (2 shift + 1) * 2^61 words on
    pos = (lane >> np.uint64(2)) + np.uint64(1) + _REFINE_ROWS * ((shift << np.uint64(1) | np.uint64(1)) << np.uint64(61))
    z = bases[r] + np.uint64(GOLDEN) * pos
    _mix_in_place(z, np.empty_like(z))
    return (z[0] >> (shift << np.uint64(4)) & np.uint64(0xFFFF)) << np.uint64(37) | z[1] >> np.uint64(27)
