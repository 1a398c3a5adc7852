"""Independent brute-force oracles used by the test suite.

Everything here recomputes quantities from first principles (exhaustive
enumeration), deliberately avoiding the package's own algorithms, so the
tests compare two independent routes to the same numbers.
"""

from __future__ import annotations

import numpy as np

from dagbroadcast.model import Gate


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
