"""Independent brute-force oracles used by the test suite.

Everything here recomputes quantities from first principles (exhaustive
enumeration), deliberately avoiding the package's own algorithms, so the
tests compare two independent routes to the same numbers.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from dagbroadcast.coupling import SYM_1U, TAG_COUPLE, TAG_PERC
from dagbroadcast.grid import TAG_GRID, TAG_GRID_MC, GridTvEstimate, _check_args
from dagbroadcast.model import AND2, MAJ3, OR2, TAG_TRIAL, Gate, LayerSchedule, as_delta
from dagbroadcast.rng import derive_seed, uniforms
from dagbroadcast.sigma import BLOCK_ROWS, BinomialKernel, exact_chain, tv
from dagbroadcast.xorcode import TAG_ERASE, build_Hk


def gate_output_prob(gate: Gate, p):
    """P(gate = 1) when inputs are i.i.d. Bernoulli(p), summed over the truth table
    word by word; exact for a ``Fraction`` p."""
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    d = gate.arity
    total = 0
    for w in range(1 << d):
        if gate.table[w]:
            ones = w.bit_count()
            total += p ** ones * (1 - p) ** (d - ones)
    return total


# The g-curves the sigma-chain once stated by hand, P(gate = 1) at input
# one-probability m: references for ``Gate.curve``, which must equal them
# bit for bit.
CLOSED_FORM_CURVES = {
    MAJ3: lambda m: m**2 * (3 - 2 * m),
    AND2: lambda m: m**2,
    OR2: lambda m: 1 - (1 - m) ** 2,
}


def gate_node_law(gate: Gate, delta: float) -> np.ndarray:
    """P(node = 1) for each word of noiseless parent bits: the output through
    ``Gate.__call__`` summed over every flip pattern of the node's incoming edges."""
    n = 1 << gate.arity
    out = [gate(*(((x >> i) & 1) for i in range(gate.arity))) for x in range(n)]
    weight = [delta ** z.bit_count() * (1.0 - delta) ** (gate.arity - z.bit_count()) for z in range(n)]
    return np.array([sum(weight[z] * out[word ^ z] for z in range(n)) for word in range(n)])


def canonical_edges(k: int) -> list[tuple[int, int, int]]:
    """Every grid edge above level k as (level, node, slot), in H_k's column order.

    Edges run by level, then node, then slot (0 = left parent (level - 1,
    node - 1), 1 = right parent (level - 1, node)); the boundary nodes have
    one parent only.  The edge at list index i is column i + 1 of H_k.
    """
    edges = []
    for level in range(1, k + 1):
        for node in range(level + 1):
            if node > 0:
                edges.append((level, node, 0))
            if node < level:
                edges.append((level, node, 1))
    return edges


def grid_joint_by_enumeration(
    f1: Gate, f2: Gate, delta: float, depth: int, root: int
) -> np.ndarray:
    """Exact distribution of the level-``depth`` grid word by summing over
    every edge-noise assignment.  Only feasible for depth <= 3.

    Word encoding matches the package: node j at bit j.
    """
    edges = canonical_edges(depth)
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


def kernel_toarray(kernel: BinomialKernel) -> np.ndarray:
    """The dense (rows, n + 1) table a banded kernel holds, zero off its blocks."""
    table = np.zeros((len(kernel.drop), kernel.n + 1))
    for r0, block, c0 in zip(range(0, len(kernel.drop), BLOCK_ROWS), kernel.blocks, kernel.starts):
        table[r0:r0 + block.shape[0], c0:c0 + block.shape[1]] = block
    return table


def _dense_pmf_table(n: int, p: np.ndarray) -> np.ndarray:
    """Dense (len(p), n + 1) table of Binomial(n, p_i) pmfs in log space,
    with ln C(n, k) from exact integers."""
    k = np.arange(n + 1, dtype=float)
    log_comb = np.array([math.log(math.comb(n, j)) for j in range(n + 1)])
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
    gates: tuple[Gate, ...], delta: float, schedule: LayerSchedule, depth: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Root-1 and root-0 one-count distributions for levels 0..depth from
    full (L_prev + 1) x (L + 1) kernels, applied by two mat-vecs per level.

    The step into level k applies ``gates[(k - 1) % len(gates)]``: row i of its
    kernel is Binomial(L, ``gate_output_prob``) at the noisy input
    one-probability of i / L_prev, every row computed, none mirrored.
    """
    plus, minus = np.array([0.0, 1.0]), np.array([1.0, 0.0])
    out = [(plus, minus)]
    kernels: dict[tuple, np.ndarray] = {}
    for k in range(1, depth + 1):
        gate = gates[(k - 1) % len(gates)]
        L_prev, L = len(plus) - 1, schedule.size(k)
        key = (gate, L_prev, L)
        if key not in kernels:
            noisy = [(i * (1.0 - delta) + (L_prev - i) * delta) / L_prev for i in range(L_prev + 1)]
            kernels[key] = _dense_pmf_table(L, np.array([gate_output_prob(gate, m) for m in noisy]))
        plus, minus = plus @ kernels[key], minus @ kernels[key]
        plus, minus = plus / plus.sum(), minus / minus.sum()
        out.append((plus, minus))
    return out


# ---------------------------------------------------------------------------
# Closed forms of the g-curve analysis, worked out by hand from the period maps
# of maj3 and andor2 (OR then AND); the library derives the same quantities
# from the period map's polynomial.


def g_derivative_closed_form(model: str, sigma, delta: float):
    """d/dsigma of the period map: 6 (1 - 2d) m (1 - m) for maj3 with m the
    noisy input, 4 (1 - 2d)^2 m' (1 - m) for andor2 with m' the noisy OR output."""
    s = np.asarray(sigma, dtype=float)
    m = s * (1.0 - delta) + delta * (1.0 - s)
    if model == "maj3":
        return 6.0 * (1.0 - 2.0 * delta) * m * (1.0 - m)
    m_or = 1.0 - (1.0 - m) ** 2
    inner = m_or * (1.0 - delta) + delta * (1.0 - m_or)
    return 4.0 * (1.0 - 2.0 * delta) ** 2 * inner * (1.0 - m)


def lipschitz_closed_form(model: str, delta: float) -> float:
    """max |g'| over [0, 1]: at sigma = 1/2 for maj3; for andor2 at the interior
    maximum up to delta = (9 - sqrt(33)) / 12 and at an end point beyond it."""
    d = delta
    if model == "maj3":
        return 1.5 * (1.0 - 2.0 * d)
    if d <= (9.0 - math.sqrt(33.0)) / 12.0:
        return (4.0 * (1.0 - d) * (1.0 - 2.0 * d) / 3.0) ** 1.5
    return 4.0 * d * (1.0 - d) ** 2 * (1.0 - 2.0 * d) ** 2 * (3.0 - 2.0 * d)


def fixed_points_closed_form(model: str, delta: float) -> list[float]:
    """Roots of g(x) - x in [0, 1] from the quadratic formula.

    maj3: 1/2, and (1 +- sqrt((1 - 6d) / (1 - 2d)^3)) / 2 below d = 1/6.
    andor2: g(x) - x factors into two quadratics; the middle root t is
    rationalized to avoid the cancellation near d = 1/2, and the outer two
    are real below d = (3 - sqrt(7)) / 4.
    """
    d = delta
    if model == "maj3":
        if d >= 1.0 / 6.0:
            return [0.5]
        sigma_hat = 0.5 * (1.0 + math.sqrt((1.0 - 6.0 * d) / (1.0 - 2.0 * d) ** 3))
        return [1.0 - sigma_hat, 0.5, sigma_hat]
    b = 2.0 * (1.0 - d) * (1.0 - 2.0 * d)
    denom = 2.0 * (1.0 - 2.0 * d) ** 2
    a = 4.0 * (1.0 - d) * (1.0 - 2.0 * d) - 3.0
    t = b * b / (denom * (b + 1.0 + math.sqrt(2.0 * b + 1.0)))  # (b + 1 - sqrt(a + 4)) / denom, a + 4 = 2b + 1
    if a <= 0.0:
        return [t]
    return sorted([(b - 1.0 - math.sqrt(a)) / denom, t, (b - 1.0 + math.sqrt(a)) / denom])


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


def columns_by_bit_loop(rows: tuple[int, ...], ncols: int) -> tuple[int, ...]:
    """Bit-packed rows transposed into bit-packed columns by visiting every set bit."""
    cols = [0] * ncols
    for r, row in enumerate(rows):
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= 1 << r
            row ^= low
    return tuple(cols)


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


def erasure_failures_by_trial(k: int, delta: float, trials: int, seed: int) -> int:
    """Erasure-bound failures with one draw per trial, and the span test by rank.

    The root column lies in the span of the erased columns exactly when
    adding it leaves their rank unchanged.
    """
    h, idx = build_Hk(k)
    failures = 0
    for t in range(trials):
        erased = uniforms(derive_seed(seed, TAG_ERASE, t), idx.n_edges, below=2.0 * delta)
        cols = [h.column(int(c) + 1) for c in np.flatnonzero(erased)]
        failures += f2_rank(cols) == f2_rank([*cols, h.column(0)])
    return failures


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

# the library names only 1u, the symbol it counts
SYM_0C = 0
SYM_1C = 2

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


NO_PARENT = 3  # the missing parent of a boundary node


def coupled_node_law(delta: float) -> np.ndarray:
    """P(node = s) over (0c, 1u, 1c), indexed [left parent, right parent] with
    NO_PARENT for a boundary node's missing one: the coupled AND of the two
    parents' channel outputs, summed over both; a missing parent gives 1c,
    the AND's identity."""
    rows = np.vstack([coupled_channel_matrix(delta), [0.0, 0.0, 1.0]])
    law = np.zeros((4, 4, 3))
    for x, y, a, b in itertools.product(range(4), range(4), range(3), range(3)):
        law[x, y, coupled_and(a, b)] += rows[x, a] * rows[y, b]
    return law


def channel_step_where(left: np.ndarray, right: np.ndarray, delta: float, u: np.ndarray) -> np.ndarray:
    """Coupled-grid nodes from their parent symbols and uniforms, as nested ``np.where``
    over the node law: 1c below P(1c), 1u below P(1c) + P(1u), else 0c."""
    law = coupled_node_law(delta)[left, right]
    top = law[..., SYM_1C]
    out = np.where(u < top, SYM_1C, np.where(u < top + law[..., SYM_1U], SYM_1U, SYM_0C))
    return out.astype(np.int8)


def percolation_node_law(p: float) -> np.ndarray:
    """P(node reached) with c = 0, 1, 2 reached parents, summed over the open
    patterns of their c edges that open at least one."""
    return np.array([
        sum(p ** opened.bit_count() * (1.0 - p) ** (c - opened.bit_count()) for opened in range(1, 1 << c))
        for c in range(3)
    ])


def percolation_edges_by_loop(p: float, depth: int, trials: int, seed: int):
    """Rightmost and leftmost reached node per (trial, level), -1 once the cluster
    has died, by walking each trial's nodes one by one over the same draws."""
    law = percolation_node_law(p)
    right = np.full((trials, depth + 1), -1, dtype=np.int64)
    left = np.full((trials, depth + 1), -1, dtype=np.int64)
    reached = [{0} for _ in range(trials)]
    right[:, 0] = left[:, 0] = 0
    for k in range(1, depth + 1):
        u = node_matrix(derive_seed(seed, TAG_PERC, k), trials, k)
        for t in range(trials):
            nxt = {j for j in range(k + 1) if u[t, j] < law[(j - 1 in reached[t]) + (j in reached[t])]}
            reached[t] = nxt
            if nxt:
                right[t, k], left[t, k] = max(nxt), min(nxt)
    return right, left


def grid_level_step_by_floats(f1: Gate, f2: Gate, delta: float, prev: np.ndarray, k: int, seed: int) -> np.ndarray:
    """``grid._grid_level_step`` on bit arrays, one byte per node: ``prev`` of shape
    (..., k) gives level k of shape (..., k + 1), where the step itself takes and
    returns bit-planes (row j is node j, trial t is bit t % 8 of byte t // 8).  It
    works node by node from the uniforms behind the step's Bernoulli draws: node
    j's edge from parent j - 1 flips where u[..., j - 1, 1] < delta, from parent j
    where u[..., j, 0] < delta."""
    u = bernoulli_matrix(derive_seed(seed, TAG_GRID, k), prev.shape[:-1] + (k, 2))
    flip = (u < delta).astype(np.uint8)
    out = np.empty(prev.shape[:-1] + (k + 1,), dtype=np.uint8)
    for j in range(k + 1):
        left = prev[..., j - 1] ^ flip[..., j - 1, 1] if j > 0 else None
        right = prev[..., j] ^ flip[..., j, 0] if j < k else None
        if left is None or right is None:
            out[..., j] = np.asarray(f2.table)[right if left is None else left]
        else:
            out[..., j] = np.asarray(f1.table)[left | (right << 1)]
    return out


def _grid_level_step_bytewise(f1: Gate, f2: Gate, delta: float, prev: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Advance bit arrays of shape (..., k) to level k (shape (..., k + 1))."""
    # parent j's two out-edges own positions 2j (to node j) and 2j + 1 (to node j + 1) of a trial's 2k
    shape = prev.shape[:-1]
    flips = uniforms(derive_seed(seed, TAG_GRID, k), math.prod(shape) * k * 2, below=delta)
    flips = flips.view(np.uint8).reshape(shape + (k, 2))
    noisy_right = prev ^ flips[..., 0]  # input to nodes 0..k-1 from parent j
    noisy_left = prev ^ flips[..., 1]  # input to nodes 1..k from parent j-1
    # a gate's output on input word w is bit w of its truth table read as an int
    f1_bits, f2_bits = (sum(b << w for w, b in enumerate(f.table)) for f in (f1, f2))
    out = np.empty(shape + (k + 1,), dtype=np.uint8)
    out[..., 0] = f2_bits >> noisy_right[..., 0]
    out[..., k] = f2_bits >> noisy_left[..., k - 1]
    out[..., 1:k] = f1_bits >> (noisy_left[..., :-1] | (noisy_right[..., 1:] << 1))
    out &= 1
    return out


def grid_mc_tv_estimate_bytewise(
    f1: Gate, f2: Gate, delta, depth: int, trials: int, seed: int
) -> list[GridTvEstimate]:
    """``grid.grid_mc_tv_estimate`` with one byte per node per trial, the level
    words packed by an integer matmul: the bit-sliced estimator must equal it
    exactly, as it draws the same stream."""
    _check_args(f1, f2, depth)
    d = as_delta(delta, noiseless_ok=True)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    states = {
        root: np.full((trials, 1), root, dtype=np.uint8) for root in (0, 1)
    }
    out = []
    for k in range(1, depth + 1):
        counts = {}
        for root in (0, 1):
            states[root] = _grid_level_step_bytewise(f1, f2, d, states[root], k, derive_seed(seed, TAG_GRID_MC, root))
            packed = states[root] @ (1 << np.arange(k + 1))
            counts[root] = np.bincount(packed, minlength=1 << (k + 1))
        # from the integer counts, so the TV is at most 1 after its one rounding
        tv_hat = float(np.abs(counts[1] - counts[0]).sum() / (2 * trials))
        fp = counts[1] / trials
        fm = counts[0] / trials
        dev = 0.5 * float(
            (np.sqrt(fp * (1.0 - fp) / trials) + np.sqrt(fm * (1.0 - fm) / trials)).sum()
        )
        out.append(GridTvEstimate(k, tv_hat, dev))
    return out


def _splitmix_words(seed: int, positions: np.ndarray) -> np.ndarray:
    """Words at ``positions`` of the counter stream in one shot: the SplitMix64
    finalizer of seed + golden * (position + 1) mod 2^64."""
    with np.errstate(over="ignore"):
        z = np.uint64(seed % (1 << 64)) + np.uint64(0x9E3779B97F4A7C15) * (positions + np.uint64(1))
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def uniforms_reference(seed: int, n: int) -> np.ndarray:
    """The counter stream in one shot: element i is word i's top 53 bits scaled into [0, 1)."""
    z = _splitmix_words(seed, np.arange(n, dtype=np.uint64))
    return (z >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def bernoulli_uniforms_reference(seed: int, positions: np.ndarray) -> np.ndarray:
    """The uniform m * 2^-53 behind each Bernoulli draw, in one shot: m is lane q mod 4
    (16 bits, lowest first) of word q div 4 over the top 37 bits of word
    q div 4 + (2 (q mod 4) + 1) * 2^61.  A Bernoulli draw below p is this uniform below p."""
    q = np.asarray(positions, dtype=np.uint64)
    word, lane = q >> np.uint64(2), q & np.uint64(3)
    with np.errstate(over="ignore"):
        refine = word + ((np.uint64(2) * lane + np.uint64(1)) << np.uint64(61))
    top = (_splitmix_words(seed, word) >> (np.uint64(16) * lane)) & np.uint64(0xFFFF)
    m = (top << np.uint64(37)) | (_splitmix_words(seed, refine) >> np.uint64(27))
    return m.astype(np.float64) * (2.0 ** -53)


def _splitmix(x: int) -> int:
    x &= (1 << 64) - 1
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) % (1 << 64)
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) % (1 << 64)
    return x ^ (x >> 31)


def bernoulli_draw_reference(seed: int, q: int) -> int:
    """The 53-bit integer behind Bernoulli draw q, in Python integers: lane
    q mod 4 of word q div 4 (bits 16 (q mod 4) and up) times 2^37, plus the
    top 37 bits of word q div 4 + (2 (q mod 4) + 1) * 2^61 (the refinement)."""
    w, lane = divmod(q, 4)
    word = _splitmix(seed + 0x9E3779B97F4A7C15 * (w + 1))
    refinement = _splitmix(seed + 0x9E3779B97F4A7C15 * (w + (2 * lane + 1) * 2**61 + 1))
    return ((word >> (16 * lane)) & 0xFFFF) * 2**37 + (refinement >> 27)


def threshold_reference(p: float) -> int:
    """ceil(p * 2^53) clamped to [0, 2^53], from the exact rational value of p (NaN gives 0):
    a 53-bit m is below p * 2^53 exactly when it is below this."""
    p = float(p)
    if math.isnan(p) or p <= 0.0:
        return 0
    if p >= 1.0:
        return 2**53
    return math.ceil(Fraction(p) * 2**53)


# ---------------------------------------------------------------------------
# Dense Monte Carlo: every draw of every level, whether or not a result reads it.
# The library's consumers evaluate only the stream positions they read; these
# draw each level's whole block, so the two must agree bit for bit.  They read
# the uniform m * 2^-53 behind each Bernoulli draw from the one-shot reference
# and compare it in floats, which is exact: m * 2^-53 < p iff m < ceil(p * 2^53).


def uniform_matrix(seed: int, shape: tuple[int, ...]) -> np.ndarray:
    """The counter stream of ``seed`` reshaped to ``shape``, in row-major counter order."""
    for i, s in enumerate(shape):
        if s < 0:
            raise ValueError(f"shape[{i}] must be >= 0, got {s}")
    return uniforms(seed, math.prod(shape)).reshape(shape)


def bernoulli_matrix(seed: int, shape: tuple[int, ...]) -> np.ndarray:
    """The uniforms behind the first Bernoulli draws of ``seed``, reshaped to ``shape``."""
    return bernoulli_uniforms_reference(seed, np.arange(math.prod(shape))).reshape(shape)


def node_matrix(seed: int, trials: int, k: int) -> np.ndarray:
    """The uniforms behind the level-k nodes of the coupled grid and percolation:
    trial t's k + 1 nodes start at position s t, s = k + 1 rounded up to a multiple of 4."""
    stride = -(-(k + 1) // 4) * 4
    return bernoulli_matrix(seed, (trials, stride))[:, : k + 1]


def propagate_many_dense(dag, gate_at, delta: float, roots: np.ndarray, seed: int) -> np.ndarray:
    """``model.propagate_many`` from the (trials, L_k) block of each level's stream:
    a node is 1 where its uniform is below the gate's node law at the word of its
    noiseless parent bits; ``gate_at(k)`` is level k's gate."""
    d = as_delta(delta, noiseless_ok=True)
    laws: dict[Gate, np.ndarray] = {}
    trials = len(roots)
    bits = np.asarray(roots, dtype=np.uint8).reshape(trials, 1)
    for k in range(1, dag.depth + 1):
        gate = gate_at(k)
        if gate not in laws:
            laws[gate] = gate_node_law(gate, d)
        u = bernoulli_matrix(derive_seed(seed, TAG_TRIAL, k), (trials, dag.layer_sizes[k]))
        word = np.zeros(u.shape, dtype=np.int64)
        for i in range(dag.d):
            word |= bits[:, dag.parents[k - 1][:, i]].astype(np.int64) << i
        bits = (u < laws[gate][word]).astype(np.uint8)
    return bits


def coupled_grid_runs_dense(delta: float, max_depth: int, trials: int, seed: int):
    """``coupling.coupled_grid_runs`` stepping every run at every level, coalesced
    or not, through the nested-``where`` node step; returns (times, counts)."""
    state = np.full((trials, 1), SYM_1U, dtype=np.int8)
    times = np.full(trials, -1, dtype=np.int64)
    counts = np.zeros((trials, max_depth + 1), dtype=np.int32)
    counts[:, 0] = 1
    none = np.full((trials, 1), NO_PARENT, dtype=np.int8)
    for k in range(1, max_depth + 1):
        u = node_matrix(derive_seed(seed, TAG_COUPLE, k), trials, k)
        state = channel_step_where(np.hstack([none, state]), np.hstack([state, none]), delta, u)
        counts[:, k] = (state == SYM_1U).sum(axis=1)
        times[(times < 0) & (counts[:, k] == 0)] = k
    return times, counts


def percolation_reach_dense(p: float, depth: int, trials: int, seed: int):
    """``coupling._percolation_reach`` drawing every trial's every node at every
    level; returns (R, L)."""
    law = percolation_node_law(p)
    reach = np.ones((trials, 1), dtype=bool)
    right = np.full((trials, depth + 1), -1, dtype=np.int64)
    left = np.full((trials, depth + 1), -1, dtype=np.int64)
    right[:, 0] = left[:, 0] = 0
    for k in range(1, depth + 1):
        u = node_matrix(derive_seed(seed, TAG_PERC, k), trials, k)
        reached_parents = np.zeros((trials, k + 1), dtype=np.int64)
        reached_parents[:, :k] += reach
        reached_parents[:, 1:] += reach
        reach = u < law[reached_parents]
        alive = reach.any(axis=1)
        cols = np.arange(k + 1)
        right[alive, k] = np.where(reach, cols, -1).max(axis=1)[alive]
        left[alive, k] = np.where(reach, cols, k + 1).min(axis=1)[alive]
        if not alive.any():
            break
    return right, left


def threshold_bisect_full_depth(
    model: str,
    schedule: LayerSchedule,
    depth: int,
    tol: float,
    cutoff: float,
    delta_lo: float = 0.05,
    delta_hi: float = 0.45,
) -> tuple[float, float]:
    """``threshold_bisect``'s bracket with every chain run to ``depth``.

    The criterion reads TV at the final level (for andor2 the last even
    level) of an ``exact_chain`` with no early stop, so comparing brackets
    checks the stopping rule and nothing else.
    """

    def criterion(delta: float) -> bool:
        chain = exact_chain(model, delta, schedule, depth)
        dist = chain[depth - depth % 2 if model == "andor2" else depth]
        return tv(dist) < cutoff

    if criterion(delta_lo):
        return (delta_lo, delta_lo)
    if not criterion(delta_hi):
        return (delta_hi, delta_hi)
    lo, hi = delta_lo, delta_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if criterion(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi
