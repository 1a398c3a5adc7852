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
* ``uniforms(seed, n)`` is the float stream: the first ``n`` uniforms,
  the one at position p word p mapped to [0, 1) with 53-bit resolution.
* ``uniforms(seed, n, below=p)`` is the Bernoulli stream: bools, draw q
  true with probability exactly T / 2^53, T = ceil(p * 2^53) clamped to
  [0, 2^53] (NaN gives 0), and no float is formed.  ``n`` is a count, a
  shape (the first positions in row-major order) or row segments
  ``(starts, width)``, row r holding positions starts[r] .. starts[r] +
  width - 1, where every start lies at the same lane offset (start mod
  4).  With a 1-D integer array of seeds and a count ``n``, row r is
  ``uniforms(seeds[r], n, below=p)``, each seed read mod 2^64 as a
  scalar seed is.  Draw q is the 53-bit
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
  the one of ``seed + GOLDEN * w``, so a segment is a row of words from
  the word its start lies in.
* ``below`` is a number or an array that broadcasts against the result;
  ``below=table, at=index`` gives draw i the threshold ``table[index[i]]``
  with the table converted once; and ``below=(t1, t2)`` with t1 >= t2
  returns the uint8 rank [m < T1] + [m < T2] of one draw against two
  nested cuts, so samplers coupled through it stay monotone at ties.

Both streams come from one loop over blocks of whole result rows, about
``_BLOCK`` words each, mixed in place into one word buffer per call (a word
two blocks share is mixed twice).  A Bernoulli block is compared in place
with its cuts (a per-row cut as a broadcast view, a table cut gathered per
block): no temporary is the size of the result; blocking changes no value.

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
_BLOCK = 1 << 15  # words a block mixes: its two 256 KiB uint64 operands stay in L2

_XSM = (np.uint64(30), np.uint64(_M1)), (np.uint64(27), np.uint64(_M2))
# Weyl offsets GOLDEN * (1 .. _BLOCK) mod 2^64; word j0 + j of base b has counter (b + GOLDEN * j0) + _WEYL[j]
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

    Without ``below``: the first ``n`` uniforms in [0, 1).  With it: Bernoulli
    draws (see the module docstring), ``n`` a count, a shape or row segments
    ``(starts, width)``, or a count with a 1-D integer array of seeds.  Any
    other ``n``, an integer array or a ``range`` say, raises ``TypeError``.
    """
    if below is not None:
        return _bernoulli(*_lane_rows(seed, n), below, at)
    if at is not None:
        raise TypeError("at= indexes a threshold table and needs below=")
    if isinstance(seed, np.ndarray):
        raise TypeError("a seed array draws Bernoulli rows and needs below=")
    out = np.empty(_check_size(n, "n"), dtype=np.float64)
    for (_, cs), _, words, _ in _word_blocks(np.array([int(seed) & MASK64], dtype=np.uint64), 0, 1, out.size, 1):
        np.right_shift(words, np.uint64(11), out=words)
        np.multiply(words[0], 2.0**-53, out=out[cs])
    return out


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


def _word_blocks(bases: np.ndarray, off: int, rows: int, cols: int, per: int, prepare=lambda block: None):
    """Yield (block, prepare(block), items, scratch) over a rows x cols result:
    ``items[i, j]`` is entry (i, j) of ``block`` (a pair of slices), item q of a
    stream being its word q div ``per`` read as ``per`` little-endian lanes (1:
    the word; 4: uint16 lanes).  One base: row r reads items off + r * cols ..
    of its stream; a base per row: items off .. of its own.  A block holds as
    many whole rows as fit in ``_BLOCK`` words, or a part of one row, mixed in
    place into one word buffer of the call, so each is read before the next is
    asked for; ``scratch`` (8 bytes a word) is free once it is mixed, and
    ``prepare`` runs before, so the first block's temporaries are gone first."""
    if not rows or not cols:
        return
    stride = cols if bases.size == 1 else 0  # items from one row's start to the next's in one stream
    span = per * (_BLOCK - 1) + 1  # items a block reads: at most _BLOCK words at any lane offset
    row_words = (off + cols - 1) // per + 1
    per_block = span // cols if stride else _BLOCK // row_words
    step, width = (per_block, cols) if per_block else (1, span)
    z = t = None
    for r0 in range(0, rows, step):
        for c0 in range(0, cols, width):
            r1, c1 = min(rows, r0 + step), min(cols, c0 + width)
            block = np.s_[r0:r1, c0:c1]
            prepared = prepare(block)
            if z is None:
                z = np.empty(min(_BLOCK, (off + rows * cols - 1) // per + 1 if stride else rows * row_words), dtype=np.uint64)
                t = np.empty_like(z)
            # the items of the block's rows, and the words w0 .. w0 + nw - 1 they lie in
            q0, q1 = off + c0 + r0 * stride, off + c1 + (r1 - 1) * stride
            w0, nw = q0 // per, (q1 - 1) // per + 1 - q0 // per
            b = bases if stride else bases[r0:r1]
            words = z[: b.size * nw].reshape(b.size, nw)
            np.add((b + np.uint64((GOLDEN * w0) & MASK64))[:, None], _WEYL[:nw], out=words)
            _mix_in_place(words.reshape(-1), t[: words.size])
            items = words.view(np.uint16 if per == 4 else np.uint64)
            yield block, prepared, items[:, q0 - per * w0 : q1 - per * w0].reshape(r1 - r0, c1 - c0), t[: words.size]


# ---------------------------------------------------------------------------
# The Bernoulli stream
#
# A call draws rows: row r reads lanes off .. off + width - 1 of the words
# of base bases[r], and its draws fill the result's flat entries
# r * width .. (r + 1) * width - 1.  A count or a shape is one row from base
# seed, a seed array a row per seed, and a segment a row from the word its
# start lies in.


def _lane_rows(seed, n) -> tuple[np.ndarray, int, int, tuple]:
    """(bases, off, width, shape) of the rows the draws at positions ``n`` read."""
    if isinstance(seed, np.ndarray):
        if seed.ndim != 1 or seed.dtype.kind not in "iu":
            raise TypeError(f"a seed array must be 1-D of integers, got shape {seed.shape} dtype {seed.dtype}")
        width = _check_size(n, "n")  # an array n is no count: TypeError
        return seed.astype(np.uint64), 0, width, (seed.size, width)
    seed = int(seed) & MASK64
    if isinstance(n, tuple) and len(n) == 2 and isinstance(n[0], np.ndarray):
        starts, width = n[0], _check_size(n[1], "width")
        if starts.dtype.kind not in "iu":
            raise TypeError(f"positions must be integers, got dtype {starts.dtype}")
        if starts.ndim != 1:
            raise TypeError(f"segment starts must be 1-D, got shape {starts.shape}")
        if starts.dtype.kind == "i" and starts.size and starts.min() < 0:
            raise ValueError(f"positions must be >= 0, got {starts.min()}")
        starts = starts.astype(np.uint64)
        if starts.size and width and int(starts.max()) + width > 1 << 63:
            raise ValueError(f"Bernoulli positions must be < 2^63, got {int(starts.max()) + width - 1}")
        off = starts & np.uint64(3)
        if width and not (off == off[:1]).all():  # an empty row reads no lane
            raise ValueError("segment starts must share one lane offset (start mod 4)")
        bases = np.uint64(seed) + np.uint64(GOLDEN) * (starts >> np.uint64(2))
        return bases, int(off[0]) if off.size else 0, width, (starts.size, width)
    shape = tuple(_check_size(s, "n") for s in n) if isinstance(n, tuple) else (_check_size(n, "n"),)
    return np.array([seed], dtype=np.uint64), 0, math.prod(shape), shape


def _cut(p, at, shape, grid):
    """One threshold over a result of ``shape`` seen as a ``grid``: (hi, t, whole), with hi(block)
    the lane cuts of a block of the grid (a scalar, a view of the broadcast cut or a table
    gather), t the thresholds T (one per table entry) and whole(i) the T of the draws at flat i."""
    t = _threshold(p)
    hi = np.minimum(t >> np.uint64(37), 0xFFFF).astype(np.uint16)
    if at is not None:
        index = np.asarray(at)
        index = (index if index.shape == shape else np.broadcast_to(index, shape)).reshape(grid)
        return lambda b: hi.take(index[b]), t, lambda i: t.take(index.flat[i])
    if t.ndim == 0:
        return lambda b: hi, t, lambda i: t
    his = np.broadcast_to(hi, shape).reshape(grid)
    return lambda b: his[b], t, lambda i: np.broadcast_to(t, shape).flat[i]


def _bernoulli(bases: np.ndarray, off: int, width: int, shape: tuple, below, at) -> np.ndarray:
    """The draws of the rows against ``below`` (and ``at``), in blocks of whole
    result rows: each lane is compared with its lane cut, and the ties are
    settled by their refinements at the end."""
    nested = isinstance(below, tuple)
    if nested and len(below) != 2:
        raise ValueError(f"nested cuts come as a pair (t1, t2), got {len(below)}")
    grid = (shape[0], math.prod(shape[1:])) if shape else (1, 1)
    cuts = [_cut(p, at, shape, grid) for p in (below if nested else (below,))]
    if nested and not np.all(cuts[0][1] >= cuts[1][1]):
        raise ValueError("nested cuts need t1 >= t2")
    out = np.empty(shape, dtype=np.uint8 if nested else bool)
    ties = []
    for block, his, lanes, scratch in _word_blocks(bases, off, *grid, 4, lambda b: [hi(b) for hi, _, _ in cuts]):
        o = out.reshape(grid)[block]
        tie, second = scratch.view(bool)[: 2 * lanes.size].reshape(2, *lanes.shape)
        np.less(lanes, his[0], out=o.view(bool))
        np.equal(lanes, his[0], out=tie)
        if nested:
            o += np.less(lanes, his[1], out=second).view(np.uint8)
            tie |= np.equal(lanes, his[1], out=second)
        ties.append(np.flatnonzero(tie) + (block[0].start * grid[1] + block[1].start))
    if ties and (i := ties[0] if len(ties) == 1 else np.concatenate(ties)).size:
        m = _tie_draws(bases, off, width, i)
        out.reshape(-1)[i] = sum((m < whole(i)).astype(np.uint8) for _, _, whole in cuts)
    return out


def _tie_draws(bases: np.ndarray, off: int, width: int, i: np.ndarray) -> np.ndarray:
    """The whole 53-bit draws m = lane * 2^37 + r at flat indices ``i``."""
    r, c = np.divmod(i, width)
    lane = (c + off).astype(np.uint64)
    shift = lane & np.uint64(3)
    # row 0: the counter of each draw's word; row 1: of its refinement, (2 shift + 1) * 2^61 words on
    pos = (lane >> np.uint64(2)) + np.uint64(1) + _REFINE_ROWS * ((shift << np.uint64(1) | np.uint64(1)) << np.uint64(61))
    z = bases[r] + np.uint64(GOLDEN) * pos
    _mix_in_place(z, np.empty_like(z))
    return (z[0] >> (shift << np.uint64(4)) & np.uint64(0xFFFF)) << np.uint64(37) | z[1] >> np.uint64(27)
