"""GF(2) view of the XOR grid: parity-check matrices and erasure analysis.

With f1 = XOR and f2 = identity, every grid bit is a GF(2) linear form
in the root bit and the edge noise bits.  Collecting the forms of level
k's nodes gives a binary matrix H_k with one row per node and one column
per variable: column 0 is the root, followed by one column per grid edge
above level k in a fixed canonical order.

Key facts exercised here:

* The root coefficient of node (k, j) is the parity of binomial(k, j),
  by Lucas' theorem.
* For k a power of two, the weight-3 vector with ones on the root and
  the two outermost level-k edges is in the null space of H_k, so
  erasing just those two edges makes the root unrecoverable.
* Under the erasure reduction (each noise bit revealed unless erased,
  independently with probability 2*delta), maximum-likelihood recovery
  of the root fails exactly when the root column lies in the span of the
  erased edge columns.

Edge enumeration: edges are ordered by (level ascending, node ascending,
left-parent edge before right-parent edge), where the left parent of
node (i, j) is (i-1, j-1) and the right parent is (i-1, j).  Boundary
nodes have only one of the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Iterator

import numpy as np

from .model import BudgetExceededError, as_delta
from .rng import derive_seed, uniforms
from .stats import wilson_interval

__all__ = [
    "BitMatrix",
    "EdgeIndex",
    "ErasureEstimate",
    "binom_parity",
    "check_k",
    "build_Hk",
    "check_omega",
    "omega_vector",
    "erasure_ml_fails",
    "sample_erasure_pattern",
    "erasure_mc_error_bound",
    "export_parity_check",
]

TAG_ERASE = 10
_PATTERN_CELLS = 1 << 18  # erasure indicators drawn in one call, at most: memory stays flat in the trials

DEFAULT_K_CAP = 64

SLOT_LEFT = 0
SLOT_RIGHT = 1


@dataclass(frozen=True)
class BitMatrix:
    """Immutable dense GF(2) matrix with bit-packed rows (one Python int per row)."""

    nrows: int
    ncols: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.rows) != self.nrows:
            raise ValueError("row count mismatch")
        mask = (1 << self.ncols) - 1
        if any(r & ~mask for r in self.rows):
            raise ValueError("row has bits beyond ncols")

    def get(self, r: int, c: int) -> int:
        if not (0 <= r < self.nrows and 0 <= c < self.ncols):
            raise IndexError("bit index out of range")
        return (self.rows[r] >> c) & 1

    def _bits(self) -> np.ndarray:
        """The matrix as a (nrows, ncols) uint8 array of bits, unpacked from the rows' little-endian bytes."""
        width = (self.ncols + 7) // 8
        rows = np.frombuffer(b"".join(r.to_bytes(width, "little") for r in self.rows), dtype=np.uint8)
        return np.unpackbits(rows.reshape(self.nrows, width), axis=1, count=self.ncols, bitorder="little")

    @cached_property
    def columns(self) -> tuple[int, ...]:
        """Every column as a bit-packed int over rows: ``_bits`` transposed and packed again, once."""
        height = (self.nrows + 7) // 8
        packed = np.packbits(np.ascontiguousarray(self._bits().T), axis=1, bitorder="little").tobytes()
        return tuple([int.from_bytes(packed[c * height : (c + 1) * height], "little") for c in range(self.ncols)])

    def column(self, c: int) -> int:
        """Column c as a bit-packed int over rows."""
        if not 0 <= c < self.ncols:
            raise IndexError("column index out of range")
        return self.columns[c]

    def mul_vector(self, vec: int) -> int:
        """Matrix-vector product over GF(2); vec is bit-packed over columns."""
        out = 0
        for r, row in enumerate(self.rows):
            out |= ((row & vec).bit_count() & 1) << r
        return out


def binom_parity(k: int, j: int) -> int:
    """Parity of binomial(k, j), via Lucas' theorem."""
    if not 0 <= j <= k:
        raise ValueError("need 0 <= j <= k")
    return int((j & k) == j)


@dataclass(frozen=True)
class EdgeIndex:
    """Canonical enumeration of all grid edges above level k.

    ``column_of(level, node, slot)`` maps an edge to its column in H_k
    (columns 1 .. k*(k+1); column 0 is the root).  Level l holds 2l edges,
    after the l*(l-1) edges of the levels above it.
    """

    k: int

    @property
    def n_edges(self) -> int:
        return self.k * (self.k + 1)

    def column_of(self, level: int, node: int, slot: int) -> int:
        # the edge's parent, node - 1 + slot, must lie on level - 1
        if not (1 <= level <= self.k and slot in (SLOT_LEFT, SLOT_RIGHT) and 0 <= node - 1 + slot < level):
            raise KeyError(f"no edge {(level, node, slot)} above level {self.k}")
        return level * (level - 1) + 2 * node + slot


def check_k(k: int) -> None:
    """Refuse a level that H_k is not built for: below 1, or beyond DEFAULT_K_CAP."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > DEFAULT_K_CAP:
        raise BudgetExceededError(f"k = {k} exceeds the cap {DEFAULT_K_CAP}")


@cache
def build_Hk(k: int) -> tuple[BitMatrix, EdgeIndex]:
    """Parity-check matrix of the level-k XOR grid by symbolic propagation.

    Each node carries its coefficient vector over {root} + edges as a
    bit-packed int; a node's vector is the XOR of its parents' vectors
    plus the indicator bits of its incoming edges.  Built once per k and
    shared: both results are immutable.
    """
    check_k(k)
    idx = EdgeIndex(k)
    ncols = 1 + idx.n_edges
    vecs = [1]  # root node: coefficient 1 on the root column
    for level in range(1, k + 1):
        new = []
        for node in range(level + 1):
            v = 0
            if node > 0:
                v ^= vecs[node - 1] ^ (1 << idx.column_of(level, node, SLOT_LEFT))
            if node < level:
                v ^= vecs[node] ^ (1 << idx.column_of(level, node, SLOT_RIGHT))
            new.append(v)
        vecs = new
    return BitMatrix(k + 1, ncols, tuple(vecs)), idx


def omega_vector(k: int, idx: EdgeIndex) -> int:
    """The weight-3 certificate: root plus the two outermost level-k edges."""
    e1 = idx.column_of(k, 0, SLOT_RIGHT)  # (X_{k-1,0}, X_{k,0})
    e2 = idx.column_of(k, k, SLOT_LEFT)  # (X_{k-1,k-1}, X_{k,k})
    return 1 | (1 << e1) | (1 << e2)


def check_omega(k: int) -> bool:
    """Verify H_k annihilates the weight-3 certificate (k a power of two)."""
    if k < 2 or k & (k - 1):
        raise ValueError("the certificate is only claimed for k a power of 2")
    h, idx = build_Hk(k)
    return h.mul_vector(omega_vector(k, idx)) == 0


def erasure_ml_fails(h: BitMatrix, erased: Iterable[int]) -> bool:
    """Decide ML failure for an erasure pattern over the edges.

    ``erased`` lists erased edge column indices (1-based, root excluded;
    the root itself is never observed), in any order.  Recovery fails
    exactly when the root column is in the span of the erased columns.
    One elimination decides it.  The erased columns are reduced into a
    basis indexed by highest set bit, in descending index: the deepest
    level's columns are the sparsest and reduce the cheapest.  The root
    column is kept reduced against the basis; only a new basis vector on
    its highest set bit changes it.  The root is in the span as soon as
    it reduces to 0, at the latest when the basis spans all k + 1 rows,
    and the loop stops there; no order changes the decision.  A trial
    costs a sort, at most k + 1 XORs per column reduced before the stop,
    and at most k + 1 XORs on the root.
    """
    erased = sorted(erased, reverse=True)
    for c in erased[-1:] + erased[:1]:
        if not 1 <= c < h.ncols:
            raise ValueError(f"erased index {c} outside the edge columns 1..{h.ncols - 1}")
    cols = h.columns
    basis = [0] * h.nrows
    root = h.column(0)
    top = root.bit_length() - 1
    for c in erased:
        vec = cols[c]
        while vec:
            b = vec.bit_length() - 1
            if not basis[b]:
                break
            vec ^= basis[b]
        else:
            continue  # in the span already
        basis[b] = vec
        if b == top:
            root ^= vec
            while root:
                top = root.bit_length() - 1
                if not basis[top]:
                    break
                root ^= basis[top]
            else:
                return True
    return False


def _erasure_patterns(n_edges: int, d: float, seed: int, start: int, stop: int) -> Iterator[list[int]]:
    """Erased edge columns of trials start .. stop-1, each trial's ascending.

    One uniforms call (<= _PATTERN_CELLS cells) and one ``np.flatnonzero``
    decode a batch; only one trial's columns at a time become a Python list.
    """
    step = max(_PATTERN_CELLS // n_edges, 1)
    for t0 in range(start, stop, step):
        seeds = np.array([derive_seed(seed, TAG_ERASE, t) for t in range(t0, min(t0 + step, stop))], dtype=np.uint64)
        flat = np.flatnonzero(uniforms(seeds, n_edges, below=2.0 * d))
        cols = flat % n_edges + 1
        begin = 0
        for end in np.searchsorted(flat, np.arange(1, len(seeds) + 1) * n_edges).tolist():
            yield cols[begin:end].tolist()
            begin = end


def sample_erasure_pattern(idx: EdgeIndex, delta, seed: int, trial: int = 0) -> list[int]:
    """Edge columns erased i.i.d. with probability 2*delta."""
    return next(_erasure_patterns(idx.n_edges, as_delta(delta, noiseless_ok=True), seed, trial, trial + 1))


@dataclass(frozen=True)
class ErasureEstimate:
    """Monte Carlo lower bound on ML error under the erasure reduction.

    ``error_bound`` is half the failure frequency.  The erasure-model
    genie observes strictly more than the plain noisy grid, so its ML
    error lower-bounds the grid's: grid ML error >= this bound.
    """

    k: int
    delta: float
    failure_freq: float
    error_bound: float
    ci_low: float
    ci_high: float
    trials: int


def erasure_mc_error_bound(k: int, delta, trials: int, seed: int) -> ErasureEstimate:
    """Sample erasure patterns and report the failure frequency."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    d = as_delta(delta, noiseless_ok=True)
    h, idx = build_Hk(k)
    failures = sum(erasure_ml_fails(h, pattern) for pattern in _erasure_patterns(idx.n_edges, d, seed, 0, trials))
    freq = failures / trials
    lo, hi = wilson_interval(failures, trials)
    return ErasureEstimate(k, d, freq, 0.5 * freq, 0.5 * lo, 0.5 * hi, trials)


def export_parity_check(h: BitMatrix) -> str:
    """Plain-text export: one row per line, column indices of ones."""
    lines = [f"# rows={h.nrows} cols={h.ncols}"]
    lines += [" ".join(map(str, np.flatnonzero(bits).tolist())) for bits in h._bits()]
    return "\n".join(lines) + "\n"
