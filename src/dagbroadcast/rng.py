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
* ``uniforms(seed, n)`` is the counter stream: element ``i`` is
  ``mix64(seed + GOLDEN * (i + 1))`` mapped to [0, 1) with 53-bit
  resolution.  Each element is a pure function of its index, so the
  stream is evaluated in cache-resident blocks of ``_BLOCK`` elements with
  in-place array steps; the chunking never changes a value.

By convention a seed value is used either as a stream (via ``uniforms``)
or for further derivation, never both, which keeps streams disjoint.
"""

from __future__ import annotations

import operator

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_BLOCK = 1 << 15  # one block's three 256 KiB uint64 operands stay in L2

_XSM = (np.uint64(30), np.uint64(_M1)), (np.uint64(27), np.uint64(_M2))
with np.errstate(over="ignore"):
    # Weyl offsets GOLDEN * (1 .. _BLOCK) mod 2^64; block a adds seed + GOLDEN * a * _BLOCK
    _WEYL = np.arange(1, _BLOCK + 1, dtype=np.uint64) * np.uint64(GOLDEN)
_WEYL.flags.writeable = False

__all__ = ["mix64", "derive_seed", "uniforms", "uniform_matrix"]


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


def uniforms(seed: int, n: int) -> np.ndarray:
    """Return ``n`` uniforms in [0, 1) from the counter stream of ``seed``."""
    n = _check_size(n, "n")
    seed = int(seed)
    out = np.empty(n, dtype=np.float64)
    bits = out.view(np.uint64)  # each block is mixed in place in the output's memory
    tmp = np.empty(min(n, _BLOCK), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for start in range(0, n, _BLOCK):
            z = bits[start : start + _BLOCK]
            t = tmp[: z.size]
            np.add(_WEYL[: z.size], np.uint64((seed + GOLDEN * start) & MASK64), out=z)
            for shift, mult in _XSM:
                np.right_shift(z, shift, out=t)
                np.bitwise_xor(z, t, out=z)
                np.multiply(z, mult, out=z)
            np.right_shift(z, np.uint64(31), out=t)
            np.bitwise_xor(z, t, out=z)
            np.right_shift(z, np.uint64(11), out=z)
            np.multiply(z, 2.0 ** -53, out=out[start : start + _BLOCK])
    return out


def uniform_matrix(seed: int, shape: tuple[int, ...]) -> np.ndarray:
    """Counter stream reshaped to ``shape`` (row-major counter order)."""
    n = 1
    for i, s in enumerate(shape):
        n *= _check_size(s, f"shape[{i}]")
    return uniforms(seed, n).reshape(shape)
