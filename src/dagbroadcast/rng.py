"""Deterministic counter-based random number generation.

All randomness in this package flows through a 64-bit counter-style
generator built on the SplitMix64 finalizer.  A draw is a pure function
of (seed, derivation path), so Monte Carlo work can be reordered or
parallelized without changing results.

Scheme
------
* ``mix64`` is the SplitMix64 output function (xor-shift-multiply).
* ``derive_seed(seed, *path)`` folds integer path components (purpose
  tag, trial, level, node, slot indices) into the seed, applying the
  finalizer at every step.
* ``uniforms(seed, n)`` is the counter stream: element at position ``p``
  is ``mix64(seed + GOLDEN * (p + 1))`` mapped to [0, 1) with 53-bit
  resolution.  ``n`` names the positions: an ``int`` for the first ``n``,
  or an integer array for a gather (the result takes the array's shape).
  Each element is a pure function of its position, so the stream is
  evaluated in cache-resident blocks with in-place array steps, and a
  consumer evaluates only the positions it reads; neither changes a value.
* ``uniforms(seeds, n)`` with a 1-D integer array of seeds has row r equal
  to ``uniforms(seeds[r], n)``, and a block holds whole rows: the erasure
  bound draws a whole batch of trials' patterns in one call.
* ``uniforms(seed, n, below=p)`` is ``uniforms(seed, n) < p`` as bools,
  for consumers that compare each draw with one threshold.  A uniform is
  m * 2^-53 for the 53-bit integer m = z >> 11, and p * 2^53 is exact in
  binary floating point (a power-of-two scaling never rounds, and an
  overflow to inf only happens for p > 1), so u < p holds exactly when
  m < ceil(p * 2^53).  The block loop compares m with that integer,
  clamped to [0, 2^53] (NaN gives 0), and never forms a float64.

By convention a seed value is used either as a stream (via ``uniforms``)
or for further derivation, never both, which keeps streams disjoint.
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

_XSM = (np.uint64(30), np.uint64(_M1)), (np.uint64(27), np.uint64(_M2))
# Weyl offsets GOLDEN * (1 .. _BLOCK) mod 2^64; block a adds seed + GOLDEN * a * _BLOCK
_WEYL = np.arange(1, _BLOCK + 1, dtype=np.uint64) * np.uint64(GOLDEN)
_WEYL.flags.writeable = False

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


def _threshold(p) -> np.uint64:
    """ceil(p * 2^53) clamped to [0, 2^53]: a uniform m * 2^-53 is below p exactly when m is below this."""
    x = float(p) * 2.0**53
    if not x > 0.0:  # also NaN, which no uniform is below
        return np.uint64(0)
    return np.uint64(1 << 53 if x >= 2.0**53 else math.ceil(x))


def uniforms(seed: "int | np.ndarray", n: "int | np.ndarray", below=None) -> np.ndarray:
    """Return the uniforms in [0, 1) at positions ``n`` of the counter stream of ``seed``.

    ``n`` is a count (positions ``0 .. n-1``) or an integer array of
    positions (the result has its shape); anything else, a ``range`` say,
    raises ``TypeError``.  A 1-D integer array of seeds with a count ``n``
    gives one row per seed.  With ``below=p`` the result is
    ``uniforms(seed, n) < p`` as bools, compared in integers without
    forming the floats.
    """
    threshold = None if below is None else _threshold(below)
    if isinstance(seed, np.ndarray):
        return _rows(seed, n, threshold)
    if isinstance(n, np.ndarray):
        return _gather(int(seed), n, threshold)
    # element i of a block starting at element b has counter seed + GOLDEN*(b + i + 1) = base_b + _WEYL[i]
    base = int(seed)

    def counters(z, b):
        np.add(_WEYL[: z.size], np.uint64((base + GOLDEN * b) & MASK64), out=z)

    return _mix(_check_size(n, "n"), _BLOCK, counters, threshold)


def _rows(seeds: np.ndarray, n, threshold) -> np.ndarray:
    if seeds.ndim != 1 or seeds.dtype.kind not in "iu":
        raise TypeError(f"a seed array must be 1-D of integers, got shape {seeds.shape} dtype {seeds.dtype}")
    if seeds.dtype.kind == "i" and seeds.size and seeds.min() < 0:
        raise ValueError(f"seeds must be >= 0, got {seeds.min()}")
    n, seeds = _check_size(n, "n"), seeds.astype(np.uint64)  # an array n is no count: TypeError
    # row r's counters are seeds[r] + GOLDEN * (1 .. n); a block holds as many whole rows as fit, or one
    weyl = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(GOLDEN)

    def counters(z, b):
        np.add(seeds[b // n : (b + z.size) // n, None], weyl, out=z.reshape(-1, n))

    return _mix(seeds.size * n, max(n, _BLOCK - _BLOCK % n) if n else _BLOCK, counters, threshold).reshape(seeds.size, n)


def _gather(seed: int, pos: np.ndarray, threshold) -> np.ndarray:
    if pos.dtype.kind not in "iu":
        raise TypeError(f"positions must be integers, got dtype {pos.dtype}")
    if pos.dtype.kind == "i" and pos.size and pos.min() < 0:
        raise ValueError(f"positions must be >= 0, got {pos.min()}")
    flat = pos.reshape(-1)
    golden, first = np.uint64(GOLDEN), np.uint64((seed + GOLDEN) & MASK64)

    def counters(z, b):
        # seed + GOLDEN * (p + 1) = (seed + GOLDEN) + GOLDEN * p
        np.multiply(flat[b : b + z.size], golden, out=z, dtype=np.uint64, casting="unsafe")
        np.add(z, first, out=z)

    return _mix(flat.size, _BLOCK, counters, threshold).reshape(pos.shape)


def _mix(n: int, block: int, counters, threshold) -> np.ndarray:
    """Mix ``n`` counters into uniforms, ``block`` at a time.

    ``counters(z, b)`` writes the counters of elements ``b .. b + z.size - 1``
    into the ``uint64`` view ``z``.  Without a ``threshold`` the uniforms are
    mixed in the output's own memory; with one, the output holds the bools
    (z >> 11) < threshold and the counters are mixed in one block of scratch.
    """
    if threshold is None:
        out = np.empty(n, dtype=np.float64)
        bits = out.view(np.uint64)
    else:
        out = np.empty(n, dtype=bool)
        bits = np.empty(min(n, block), dtype=np.uint64)
    tmp = np.empty(min(n, block), dtype=np.uint64)
    # uint64 array arithmetic wraps mod 2^64 without an overflow warning,
    # so no np.errstate is needed
    for start in range(0, n, block):
        stop = min(start + block, n)
        z = bits[start:stop] if threshold is None else bits[: stop - start]
        t = tmp[: z.size]
        counters(z, start)
        for shift, mult in _XSM:
            np.right_shift(z, shift, out=t)
            np.bitwise_xor(z, t, out=z)
            np.multiply(z, mult, out=z)
        np.right_shift(z, np.uint64(31), out=t)
        np.bitwise_xor(z, t, out=z)
        np.right_shift(z, np.uint64(11), out=z)
        if threshold is None:
            np.multiply(z, 2.0 ** -53, out=out[start:stop])
        else:
            np.less(z, threshold, out=out[start:stop])
    return out

