"""Deterministic 2D grid broadcast engine.

Level k of the grid has k + 1 nodes.  Node j at level k receives the bit
of node j - 1 (its left parent) and node j (its right parent) from level
k - 1, each through an independent BSC(delta), and applies the two-input
gate f1.  The boundary nodes j = 0 and j = k have a single parent and
apply the one-input gate f2.

The module contains an exact forward dynamic program over all 2^(k+1)
level words, which serves as the oracle for the grid impossibility
results, and a Monte Carlo TV estimator for cross-checking it.  The DP
applies each level's kernel one node at a time (a transfer-matrix sweep),
at O(k 2^k) cost per level.  The Monte Carlo is bit-sliced: row j of a
batch is node j, with trial t at bit t % 8 of byte t // 8, so each array
operation moves eight trials per byte.  Both refuse depths below 1 or
beyond DEFAULT_DEPTH_CAP = 20.

Level words are encoded with node j at bit j (node 0 least significant).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .model import BudgetExceededError, Gate, as_delta
from .rng import derive_seed, uniforms

__all__ = [
    "GridDistribution",
    "GridTvEstimate",
    "grid_exact_distribution",
    "grid_mc_tv_estimate",
]

TAG_GRID = 6
TAG_GRID_MC = 7

DEFAULT_DEPTH_CAP = 20


def _check_args(f1: Gate, f2: Gate, depth: int) -> None:
    """Refuse gates of the wrong arity, and depths below 1 or beyond DEFAULT_DEPTH_CAP."""
    if f1.arity != 2:
        raise ValueError("f1 must be a two-input gate")
    if f2.arity != 1:
        raise ValueError("f2 must be a one-input gate")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth > DEFAULT_DEPTH_CAP:
        raise BudgetExceededError(
            f"depth {depth} exceeds the grid depth cap {DEFAULT_DEPTH_CAP}: its level words take "
            f"2^{depth + 1} cells, and the exact DP's levels about {2 * 8 * 2 ** (depth + 2) / 2**20:.0f} MiB"
        )


def _on_planes(table: tuple[int, ...], *inputs: np.ndarray) -> np.ndarray:
    """A gate on whole bit-planes: the OR of its truth table's minterms (input i is bit i of a word)."""
    out = np.zeros_like(inputs[0])
    for w, bit in enumerate(table):
        if bit:
            out |= reduce(np.bitwise_and, [x if w >> i & 1 else ~x for i, x in enumerate(inputs)])
    return out


def _grid_level_step(f1: Gate, f2: Gate, delta: float, prev: np.ndarray, trials: int, k: int, seed: int) -> np.ndarray:
    """Advance ``trials`` grids from bit-planes of shape (k, ceil(trials / 8)) to level k:
    row j is node j, and trial t is bit t % 8 of byte t // 8 (``np.packbits(...,
    bitorder="little")``).  The bits past ``trials`` are padding that no trial reads."""
    # parent j's two out-edges own positions 2j (to node j) and 2j + 1 (to node j + 1) of a trial's 2k
    flips = uniforms(derive_seed(seed, TAG_GRID, k), trials * k * 2, below=delta).reshape(trials, 2 * k)
    planes = np.packbits(np.ascontiguousarray(flips.T), axis=1, bitorder="little")  # packs fastest on a contiguous axis
    right = prev ^ planes[0::2]  # input to nodes 0..k-1 from parent j
    left = prev ^ planes[1::2]  # input to nodes 1..k from parent j-1
    # a two-input gate's input word is left | right << 1
    out = np.empty((k + 1, prev.shape[1]), dtype=np.uint8)
    out[0] = _on_planes(f2.table, right[0])
    out[k] = _on_planes(f2.table, left[k - 1])
    out[1:k] = _on_planes(f1.table, left[:-1], right[1:])
    return out


@dataclass(frozen=True)
class GridDistribution:
    """Exact root-conditional distributions over level-k grid words."""

    level: int
    plus: np.ndarray
    minus: np.ndarray

    def __post_init__(self) -> None:
        n = 1 << (self.level + 1)
        for vec in (self.plus, self.minus):
            if len(vec) != n:
                raise ValueError("distribution length must be 2^(level+1)")
            if vec.min() < 0 or abs(vec.sum() - 1.0) > 1e-10:
                raise ValueError("distribution must be normalized and nonnegative")

    def tv(self) -> float:
        return 0.5 * float(np.abs(self.plus - self.minus).sum())

    def ml_error(self) -> float:
        return 0.5 * (1.0 - self.tv())


def grid_exact_distribution(f1: Gate, f2: Gate, delta, depth: int) -> list[GridDistribution]:
    """Exact forward DP of the conditional pair over full level words.

    Given the previous word x, node 0 of level k is Bernoulli in x_0, node
    j in (x_(j-1), x_j) and node k in x_(k-1), so the kernel is applied
    node by node: attach y_0, then attach y_j and sum out x_(j-1) for each
    j.  This costs O(k 2^k) per level.  The returned levels hold about
    2 * 2^(depth+2) float64 values; deeper than DEFAULT_DEPTH_CAP is refused.
    """
    _check_args(f1, f2, depth)
    d = as_delta(delta, noiseless_ok=True)
    p2, p11 = f2.noisy_output_probs(d), f1.noisy_output_probs(d).reshape(2, 2).T  # p11[x_(j-1), x_j]
    # first[x_0, y_0]; inner/last[x_j, x_(j-1), y_j, 1] with a length-1 x_j axis for node k
    first = np.stack([1.0 - p2, p2], axis=-1)
    inner = np.stack([1.0 - p11, p11], axis=-1).transpose(1, 0, 2)[..., None]
    last = first[None, :, :, None]
    pair = np.array([[0.0, 1.0], [1.0, 0.0]])  # rows: root 1, root 0
    dists = [GridDistribution(0, pair[0], pair[1])]
    for k in range(1, depth + 1):
        # axes (root, x_(j+1..k-1), x_j, y_j..y_0): y_0 fastest, as in the word encoding
        w = pair.reshape(2, -1, 2, 1) * first
        for j in range(1, k + 1):
            f = inner if j < k else last
            w = w.reshape(2, -1, len(f), 2, 1, 1 << j)
            w = w[:, :, :, 0] * f[:, 0] + w[:, :, :, 1] * f[:, 1]
        pair = w.reshape(2, -1)
        dists.append(GridDistribution(k, pair[0], pair[1]))
    return dists


@dataclass(frozen=True)
class GridTvEstimate:
    """Plug-in TV estimate with an L1 sampling-deviation scale.

    ``dev`` sums the per-cell binomial standard errors of both empirical
    distributions (halved, matching the TV normalization); 3 * dev is the
    tolerance used when comparing against the exact DP.
    """

    level: int
    tv: float
    dev: float


def grid_mc_tv_estimate(
    f1: Gate, f2: Gate, delta, depth: int, trials: int, seed: int
) -> list[GridTvEstimate]:
    """Plug-in TV estimates from empirical level-word frequencies.

    Runs ``trials`` independent grids for each root value (independent
    noise between the two batches) and compares empirical distributions.
    """
    _check_args(f1, f2, depth)
    d = as_delta(delta, noiseless_ok=True)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    states = {root: np.full((1, -(-trials // 8)), 255 * root, dtype=np.uint8) for root in (0, 1)}
    out = []
    for k in range(1, depth + 1):
        # a float32 GEMV sums the level words exactly: they stay below 2^(DEFAULT_DEPTH_CAP + 1) < 2^24
        weights = np.exp2(np.arange(k + 1, dtype=np.float32))
        counts = {}
        for root in (0, 1):
            states[root] = _grid_level_step(f1, f2, d, states[root], trials, k, derive_seed(seed, TAG_GRID_MC, root))
            bits = np.unpackbits(states[root], axis=1, count=trials, bitorder="little")
            counts[root] = np.bincount((weights @ bits.astype(np.float32)).astype(np.intp), minlength=1 << (k + 1))
        # from the integer counts, so the TV is at most 1 after its one rounding
        tv_hat = float(np.abs(counts[1] - counts[0]).sum() / (2 * trials))
        fp = counts[1] / trials
        fm = counts[0] / trials
        dev = 0.5 * float(
            (np.sqrt(fp * (1.0 - fp) / trials) + np.sqrt(fm * (1.0 - fm) / trials)).sum()
        )
        out.append(GridTvEstimate(k, tv_hat, dev))
    return out
