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

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .model import BudgetExceededError, as_delta
from .rng import derive_seed, uniforms
from .stats import wilson_interval

__all__ = [
    "BitMatrix",
    "EdgeIndex",
    "ErasureEstimate",
    "binom_parity",
    "build_Hk",
    "check_omega",
    "omega_vector",
    "erasure_ml_fails",
    "sample_erasure_pattern",
    "erasure_mc_error_bound",
    "export_parity_check",
]

TAG_ERASE = 10

DEFAULT_K_CAP = 64

SLOT_LEFT = 0
SLOT_RIGHT = 1


@dataclass
class BitMatrix:
    """Dense GF(2) matrix with bit-packed rows (one Python int per row)."""

    nrows: int
    ncols: int
    rows: list[int] = field(default_factory=list)
    # columns() cache and the rows it was transposed from
    _cols: tuple[int, ...] = field(default=(), init=False, repr=False, compare=False)
    _cols_of: list[int] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.rows:
            self.rows = [0] * self.nrows
        if len(self.rows) != self.nrows:
            raise ValueError("row count mismatch")
        mask = (1 << self.ncols) - 1
        if any(r & ~mask for r in self.rows):
            raise ValueError("row has bits beyond ncols")

    def get(self, r: int, c: int) -> int:
        self._check(r, c)
        return (self.rows[r] >> c) & 1

    def set(self, r: int, c: int, bit: int) -> None:
        self._check(r, c)
        if bit:
            self.rows[r] |= 1 << c
        else:
            self.rows[r] &= ~(1 << c)

    def _check(self, r: int, c: int) -> None:
        if not (0 <= r < self.nrows and 0 <= c < self.ncols):
            raise IndexError("bit index out of range")

    def columns(self) -> tuple[int, ...]:
        """Every column as a bit-packed int over rows, transposed in one pass.

        The result is cached and recomputed whenever ``rows`` differs from
        the rows it was built from.
        """
        if self._cols_of != self.rows:
            cols = [0] * self.ncols
            for r, row in enumerate(self.rows):
                while row:
                    low = row & -row
                    cols[low.bit_length() - 1] |= 1 << r
                    row ^= low
            self._cols, self._cols_of = tuple(cols), list(self.rows)
        return self._cols

    def column(self, c: int) -> int:
        """Column c as a bit-packed int over rows."""
        if not 0 <= c < self.ncols:
            raise IndexError("column index out of range")
        return self.columns()[c]

    def mul_vector(self, vec: int) -> int:
        """Matrix-vector product over GF(2); vec is bit-packed over columns."""
        out = 0
        for r, row in enumerate(self.rows):
            out |= ((row & vec).bit_count() & 1) << r
        return out


def _reduce(vec: int, basis: dict[int, int]) -> int:
    """Reduce vec against a basis keyed by lowest set bit; returns the remainder.

    A nonzero remainder is independent of the basis and has a lowest set
    bit that no basis vector owns.
    """
    while vec:
        pivot = basis.get(vec & -vec)
        if pivot is None:
            return vec
        vec ^= pivot
    return 0


def binom_parity(k: int, j: int) -> int:
    """Parity of binomial(k, j), via Lucas' theorem."""
    if not 0 <= j <= k:
        raise ValueError("need 0 <= j <= k")
    return int((j & k) == j)


@dataclass(frozen=True)
class EdgeIndex:
    """Canonical enumeration of all grid edges above level k.

    ``column_of(level, node, slot)`` maps an edge to its column in H_k
    (columns 1 .. k*(k+1); column 0 is the root).  ``edges[i]`` is the
    (level, node, slot) triple at column i + 1.
    """

    k: int
    edges: tuple[tuple[int, int, int], ...]
    _lookup: dict = field(default_factory=dict, repr=False)

    @staticmethod
    def build(k: int) -> "EdgeIndex":
        edges = []
        for level in range(1, k + 1):
            for node in range(level + 1):
                if node > 0:
                    edges.append((level, node, SLOT_LEFT))
                if node < level:
                    edges.append((level, node, SLOT_RIGHT))
        idx = EdgeIndex(k, tuple(edges))
        idx._lookup.update({e: i + 1 for i, e in enumerate(edges)})
        return idx

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def column_of(self, level: int, node: int, slot: int) -> int:
        return self._lookup[(level, node, slot)]


def build_Hk(k: int, k_cap: int = DEFAULT_K_CAP) -> tuple[BitMatrix, EdgeIndex]:
    """Parity-check matrix of the level-k XOR grid by symbolic propagation.

    Each node carries its coefficient vector over {root} + edges as a
    bit-packed int; a node's vector is the XOR of its parents' vectors
    plus the indicator bits of its incoming edges.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > k_cap:
        raise BudgetExceededError(f"k = {k} exceeds the cap {k_cap}")
    idx = EdgeIndex.build(k)
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
    return BitMatrix(k + 1, ncols, vecs), idx


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
    the root itself is never observed).  Recovery fails exactly when some
    null-space vector has root coordinate 1 and support inside the erased
    set, i.e. when the root column is in the span of the erased columns.
    The erased columns are reduced into a basis, then the root column
    against it; once the basis spans all rows the root is in the span.
    """
    erased = list(erased)
    for c in (min(erased, default=1), max(erased, default=1)):
        if not 1 <= c < h.ncols:
            raise ValueError(f"erased index {c} outside the edge columns 1..{h.ncols - 1}")
    cols = h.columns()
    basis: dict[int, int] = {}
    for c in erased:
        vec = _reduce(cols[c], basis)
        if vec:
            basis[vec & -vec] = vec
            if len(basis) == h.nrows:
                return True
    return _reduce(h.column(0), basis) == 0


def sample_erasure_pattern(idx: EdgeIndex, delta, seed: int, trial: int = 0) -> list[int]:
    """Edge columns erased i.i.d. with probability 2*delta."""
    d = as_delta(delta, noiseless_ok=True)
    u = uniforms(derive_seed(seed, TAG_ERASE, trial), idx.n_edges)
    return (np.flatnonzero(u < 2.0 * d) + 1).tolist()


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
    failures = 0
    for t in range(trials):
        pattern = sample_erasure_pattern(idx, d, seed, t)
        if erasure_ml_fails(h, pattern):
            failures += 1
    freq = failures / trials
    lo, hi = wilson_interval(failures, trials)
    return ErasureEstimate(k, d, freq, 0.5 * freq, 0.5 * lo, 0.5 * hi, trials)


def export_parity_check(h: BitMatrix) -> str:
    """Plain-text export: one row per line, column indices of ones."""
    lines = [f"# rows={h.nrows} cols={h.ncols}"]
    for row in h.rows:
        cols = []
        c = 0
        while row:
            if row & 1:
                cols.append(str(c))
            row >>= 1
            c += 1
        lines.append(" ".join(cols))
    return "\n".join(lines) + "\n"
