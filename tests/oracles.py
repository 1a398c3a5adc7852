"""Independent brute-force oracles used by the test suite.

Everything here recomputes quantities from first principles (exhaustive
enumeration), deliberately avoiding the package's own algorithms, so the
tests compare two independent routes to the same numbers.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.special import gammaln

from dagbroadcast.coupling import SYM_0C, SYM_1C, SYM_1U
from dagbroadcast.model import Gate, LayerSchedule
from dagbroadcast.sigma import g_and, g_majority, g_or


def gate_output_prob(gate: Gate, p: float) -> float:
    """P(gate = 1) when inputs are i.i.d. Bernoulli(p), summed over the truth table."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    d = gate.arity
    total = 0.0
    for w in range(1 << d):
        if gate.table[w]:
            ones = w.bit_count()
            total += p ** ones * (1.0 - p) ** (d - ones)
    return total


def grid_joint_by_enumeration(
    f1: Gate, f2: Gate, delta: float, depth: int, root: int
) -> np.ndarray:
    """Exact distribution of the level-``depth`` grid word by summing over
    every edge-noise assignment.  Only feasible for depth <= 3.

    Word encoding matches the package: node j at bit j.
    """
    edges = []  # (level, node, slot) with slot 0 = left parent, 1 = right parent
    for level in range(1, depth + 1):
        for node in range(level + 1):
            if node > 0:
                edges.append((level, node, 0))
            if node < level:
                edges.append((level, node, 1))
    n_edges = len(edges)
    dist = np.zeros(1 << (depth + 1))
    for assignment in range(1 << n_edges):
        flips = {e: (assignment >> i) & 1 for i, e in enumerate(edges)}
        weight = delta ** assignment.bit_count() * (1 - delta) ** (n_edges - assignment.bit_count())
        bits = [root]
        for level in range(1, depth + 1):
            new = []
            for node in range(level + 1):
                if node == 0:
                    new.append(f2(bits[0] ^ flips[(level, 0, 1)]))
                elif node == level:
                    new.append(f2(bits[level - 1] ^ flips[(level, level, 0)]))
                else:
                    left = bits[node - 1] ^ flips[(level, node, 0)]
                    right = bits[node] ^ flips[(level, node, 1)]
                    new.append(f1(left, right))
            bits = new
        word = sum(b << j for j, b in enumerate(bits))
        dist[word] += weight
    return dist


def grid_dense_dp(
    f1: Gate, f2: Gate, delta: float, depth: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Root-1 and root-0 level-word distributions for levels 0..depth by
    multiplying with each level's dense 2^k x 2^(k+1) transition matrix.

    Costs O(4^k) per level, so keep depth <= 11.  Word encoding matches
    the package: node j at bit j.
    """
    def weight(flip: int) -> float:
        return delta if flip else 1.0 - delta

    # P(node = 1): p2[b] for a boundary node, p11[a][b] for left/right parents a, b
    p2 = np.array([sum(weight(z) * f2(b ^ z) for z in (0, 1)) for b in (0, 1)])
    p11 = np.array([
        [sum(weight(z1) * weight(z2) * f1(a ^ z1, b ^ z2) for z1 in (0, 1) for z2 in (0, 1)) for b in (0, 1)]
        for a in (0, 1)
    ])
    plus, minus = np.array([0.0, 1.0]), np.array([1.0, 0.0])
    out = [(plus, minus)]
    for k in range(1, depth + 1):
        bits = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
        probs = [p2[bits[:, 0]]] + [p11[bits[:, j - 1], bits[:, j]] for j in range(1, k)] + [p2[bits[:, k - 1]]]
        block = np.ones((1 << k, 1))
        for pj in probs:  # node j's bit lands above the bits of nodes 0..j-1
            block = np.concatenate([block * (1.0 - pj[:, None]), block * pj[:, None]], axis=1)
        plus, minus = plus @ block, minus @ block
        out.append((plus, minus))
    return out


def _dense_pmf_table(n: int, p: np.ndarray) -> np.ndarray:
    """Dense (len(p), n + 1) table of Binomial(n, p_i) pmfs in log space."""
    k = np.arange(n + 1, dtype=float)
    log_comb = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
    safe = np.clip(p, 1e-300, 1.0 - 1e-16)
    log_pmf = log_comb[None, :] + k[None, :] * np.log(safe)[:, None]
    log_pmf += (n - k)[None, :] * np.log1p(-safe)[:, None]
    pmf = np.exp(log_pmf)
    pmf[p <= 0.0] = 0.0
    pmf[p <= 0.0, 0] = 1.0
    pmf[p >= 1.0] = 0.0
    pmf[p >= 1.0, n] = 1.0
    sums = pmf.sum(axis=1)
    if np.abs(sums - 1.0).max() > 1e-12:
        pmf = pmf / sums[:, None]
    return pmf


def dense_chain(
    model: str, delta: float, schedule: LayerSchedule, depth: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Root-1 and root-0 one-count distributions for levels 0..depth from
    full (L_prev + 1) x (L + 1) kernels, applied by two mat-vecs per level.

    maj3 applies g_majority at every level; andor2 applies g_or entering
    odd levels and g_and entering even ones.
    """
    plus, minus = np.array([0.0, 1.0]), np.array([1.0, 0.0])
    out = [(plus, minus)]
    kernels: dict[tuple, np.ndarray] = {}
    for k in range(1, depth + 1):
        g = g_majority if model == "maj3" else (g_or if k % 2 == 1 else g_and)
        L_prev, L = len(plus) - 1, schedule.size(k)
        key = (g, L_prev, L)
        if key not in kernels:
            kernels[key] = _dense_pmf_table(L, g(np.arange(L_prev + 1) / L_prev, delta))
        plus, minus = plus @ kernels[key], minus @ kernels[key]
        plus, minus = plus / plus.sum(), minus / minus.sum()
        out.append((plus, minus))
    return out


def xor_grid_bits_by_recursion(
    depth: int, root: int, noise: dict[tuple[int, int, int], int]
) -> list[int]:
    """Level-``depth`` bits of the XOR grid for explicit edge-noise bits.

    ``noise`` is keyed by (level, node, slot) with slot 0 = left parent
    edge and slot 1 = right parent edge.
    """
    bits = [root]
    for level in range(1, depth + 1):
        new = []
        for node in range(level + 1):
            v = 0
            if node > 0:
                v ^= bits[node - 1] ^ noise[(level, node, 0)]
            if node < level:
                v ^= bits[node] ^ noise[(level, node, 1)]
            new.append(v)
        bits = new
    return bits


def f2_rank(rows: list[int]) -> int:
    """GF(2) rank of bit-packed rows, by elimination on the highest set bit.

    Fast enough for the parity-check matrices of depth-16 grids, where
    ``rank_by_span_enumeration`` is not.
    """
    basis: list[int] = []  # distinct highest set bits, kept in decreasing order
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis = sorted([*basis, row], reverse=True)
    return len(basis)


def rank_by_span_enumeration(rows: list[int]) -> int:
    """GF(2) rank via explicit row-span enumeration (tiny matrices only)."""
    span = {0}
    for row in rows:
        span |= {v ^ row for v in span}
    return len(span).bit_length() - 1


# ---------------------------------------------------------------------------
# Two-problem equivalence at tiny scale


def _bit(v: int, i: int) -> int:
    return (v >> i) & 1


def _apply(rows: list[int], x: int) -> int:
    """Multiply a bit-packed matrix (list of row ints) by vector x."""
    out = 0
    for r, row in enumerate(rows):
        out |= ((row & x).bit_count() & 1) << r
    return out


def _vec_weight(v: int, n: int, delta: float) -> float:
    ones = v.bit_count()
    return delta ** ones * (1 - delta) ** (n - ones)


def coding_problem_ml_error(b1: int, b2_rows: list[int], n_minus_1: int, delta: float) -> float:
    """Exact ML error of decoding the first codeword bit through the noise.

    The code is the nullspace of H = [[1, b1], [0, B2]]; the first bit is
    observed through pure Bernoulli(1/2) noise (hence carries nothing) and
    the rest through i.i.d. Bernoulli(delta) flips.
    """
    code0 = []  # x2 with codeword (0, x2)
    code1 = []  # x2 with codeword (1, x2)
    for x2 in range(1 << n_minus_1):
        if _apply(b2_rows, x2) == 0:
            if _apply([b1], x2) == 0:
                code0.append(x2)
            else:
                code1.append(x2)
    if not code1:
        raise ValueError("no codeword with first bit 1; instance is degenerate")
    assert len(code0) == len(code1)
    lik = np.zeros((2, 1 << n_minus_1))
    for x1, members in ((0, code0), (1, code1)):
        for x2 in members:
            for z2 in range(1 << n_minus_1):
                lik[x1, x2 ^ z2] += _vec_weight(z2, n_minus_1, delta) / len(members)
    return 0.5 * float(np.minimum(lik[0], lik[1]).sum())


def inference_problem_ml_error(b1: int, b2_rows: list[int], n_minus_1: int, delta: float) -> float:
    """Exact ML error of decoding X' from S' = H (X', Z)."""
    m_minus_1 = len(b2_rows)
    lik = np.zeros((2, 2, 1 << m_minus_1))  # [x', s1, s2]
    for z in range(1 << n_minus_1):
        w = _vec_weight(z, n_minus_1, delta)
        s1 = _apply([b1], z)
        s2 = _apply(b2_rows, z)
        lik[0, s1, s2] += w
        lik[1, s1 ^ 1, s2] += w
    return 0.5 * float(np.minimum(lik[0], lik[1]).sum())


def lemma_coupling_identity_holds(
    b1: int, b2_rows: list[int], n_minus_1: int, rng: np.random.Generator, draws: int = 50
) -> bool:
    """Check S' = (B1 Y2, B2 Y2) under the stated coupling by simulation."""
    code1 = [
        x2
        for x2 in range(1 << n_minus_1)
        if _apply(b2_rows, x2) == 0 and _apply([b1], x2) == 1
    ]
    code0 = [
        x2
        for x2 in range(1 << n_minus_1)
        if _apply(b2_rows, x2) == 0 and _apply([b1], x2) == 0
    ]
    if not code1:
        raise ValueError("degenerate instance")
    for _ in range(draws):
        x1 = int(rng.integers(2))
        x2 = int(rng.choice(code1 if x1 else code0))
        z = int(rng.integers(1 << n_minus_1))
        y2 = x2 ^ z
        s1_coding = _apply([b1], y2)
        s2_coding = _apply(b2_rows, y2)
        s1_inf = x1 ^ _apply([b1], z)
        s2_inf = _apply(b2_rows, z)
        if (s1_coding, s2_coding) != (s1_inf, s2_inf):
            return False
    return True


def random_block_instance(rng: np.random.Generator, max_cols: int = 10):
    """Random block parity-check instance admitting a first-bit-1 codeword."""
    while True:
        n = int(rng.integers(3, max_cols + 1))
        m = int(rng.integers(2, n + 1))
        b1 = int(rng.integers(1, 1 << (n - 1)))
        b2_rows = [int(rng.integers(0, 1 << (n - 1))) for _ in range(m - 1)]
        has_one = any(
            _apply(b2_rows, x2) == 0 and _apply([b1], x2) == 1
            for x2 in range(1 << (n - 1))
        )
        if has_one:
            return b1, b2_rows, n - 1


# ---------------------------------------------------------------------------
# Coupled AND grid on the symbols 0c = (0, 0) < 1u = (0, 1) < 1c = (1, 1)

_DECODE = {SYM_0C: (0, 0), SYM_1U: (0, 1), SYM_1C: (1, 1)}

# Coupled-AND table: entry [a][b] for symbols a, b, written out so tests
# can check it against coordinate-wise AND of the decoded pairs and
# against the ``np.minimum`` the coupled grid applies.
_AND_TABLE = (
    (SYM_0C, SYM_0C, SYM_0C),
    (SYM_0C, SYM_1U, SYM_1U),
    (SYM_0C, SYM_1U, SYM_1C),
)


def decode_symbol(sym: int) -> tuple[int, int]:
    """Map a coupled symbol to its (minus-run bit, plus-run bit) pair."""
    return _DECODE[sym]


def encode_pair(minus_bit: int, plus_bit: int) -> int:
    """Inverse of decode_symbol; rejects the unrepresentable pair (1, 0)."""
    for sym, pair in _DECODE.items():
        if pair == (minus_bit, plus_bit):
            return sym
    raise ValueError("pair (1, 0) is not representable in the monotone coupling")


def coupled_and(a: int, b: int) -> int:
    """Symbol-wise AND of two coupled symbols."""
    return _AND_TABLE[a][b]


def coupled_channel_matrix(delta: float) -> np.ndarray:
    """Transition matrix of one coupled BSC(delta) edge over (0c, 1u, 1c)."""
    return np.array(
        [
            [1.0 - delta, 0.0, delta],
            [delta, 1.0 - 2.0 * delta, delta],
            [delta, 0.0, 1.0 - delta],
        ]
    )


def coupled_grid_coalesced(delta: float, depth: int) -> list[float]:
    """P(level k holds no 1u) for k = 0..depth in the coupled AND grid.

    Exact forward law over whole symbol words, each node drawn given its
    parents: a boundary node through one coupled channel, an interior node
    as the coupled AND of two independent channels.  Costs 9^(k+1) per
    level, so keep depth <= 4.
    """
    m = coupled_channel_matrix(delta)
    interior = np.zeros((3, 3, 3))  # [left parent, right parent, node]
    for x, y, a, b in itertools.product(range(3), repeat=4):
        interior[x, y, coupled_and(a, b)] += m[x, a] * m[y, b]
    law = {(SYM_1U,): 1.0}
    out = [0.0]
    for k in range(1, depth + 1):
        new: dict[tuple[int, ...], float] = {}
        for word, p in law.items():
            nodes = [m[word[0]], *(interior[word[j - 1], word[j]] for j in range(1, k)), m[word[k - 1]]]
            for child in itertools.product(range(3), repeat=k + 1):
                q = p * float(np.prod([node[s] for node, s in zip(nodes, child)]))
                if q:
                    new[child] = new.get(child, 0.0) + q
        law = new
        out.append(sum(p for word, p in law.items() if SYM_1U not in word))
    return out
