"""Deterministic 2D grid broadcast engine.

Level k of the grid has k + 1 nodes.  Node j at level k receives the bit
of node j - 1 (its left parent) and node j (its right parent) from level
k - 1, each through an independent BSC(delta), and applies the two-input
gate f1.  The boundary nodes j = 0 and j = k have a single parent and
apply the one-input gate f2.

The module contains an exact forward dynamic program over all 2^(k+1)
level words, which serves as the oracle for the grid impossibility
results, and a Monte Carlo TV estimator for cross-checking it.  The DP applies each level's kernel one node at a
time (a transfer-matrix sweep), at O(k 2^k) cost per level; depths up to
DEFAULT_DEPTH_CAP = 20 run by default.

Level words are encoded with node j at bit j (node 0 least significant).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BudgetExceededError, Gate, as_delta
from .rng import derive_seed, uniform_matrix

__all__ = [
    "GridDistribution",
    "GridTvEstimate",
    "grid_exact_distribution",
    "grid_mc_tv_estimate",
]

TAG_GRID = 6
TAG_GRID_MC = 7

DEFAULT_DEPTH_CAP = 20


def _check_gates(f1: Gate, f2: Gate) -> None:
    if f1.arity != 2:
        raise ValueError("f1 must be a two-input gate")
    if f2.arity != 1:
        raise ValueError("f2 must be a one-input gate")


def _grid_level_step(
    f1: Gate, f2: Gate, delta: float, prev: np.ndarray, k: int, seed: int, tag: int
) -> np.ndarray:
    """Advance bit arrays of shape (..., k) to level k (shape (..., k + 1))."""
    shape = prev.shape[:-1]
    u = uniform_matrix(derive_seed(seed, tag, k), shape + (k + 1, 2))
    flip_left = (u[..., 0] < delta).astype(np.uint8)
    flip_right = (u[..., 1] < delta).astype(np.uint8)
    noisy_left = prev ^ flip_left[..., 1:]  # input to nodes 1..k from parent j-1
    noisy_right = prev ^ flip_right[..., :k]  # input to nodes 0..k-1 from parent j
    f1_table = np.asarray(f1.table, dtype=np.uint8)
    f2_table = np.asarray(f2.table, dtype=np.uint8)
    out = np.empty(shape + (k + 1,), dtype=np.uint8)
    out[..., 0] = f2_table[noisy_right[..., 0]]
    out[..., k] = f2_table[noisy_left[..., k - 1]]
    if k >= 2:
        word = noisy_left[..., :-1].astype(np.int64) | (noisy_right[..., 1:].astype(np.int64) << 1)
        out[..., 1:k] = f1_table[word]
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


def _node_success_probs(f1: Gate, f2: Gate, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-node P(output = 1) tables given parent bits.

    Returns (p2, p11): p2[b] for boundary nodes with parent bit b, and
    p11[a, b] for interior nodes with left parent a and right parent b.
    """
    p2 = np.empty(2)
    for b in range(2):
        p2[b] = (1.0 - delta) * f2.table[b] + delta * f2.table[1 - b]
    p11 = np.zeros((2, 2))
    for a in range(2):
        for b in range(2):
            for z1 in range(2):
                for z2 in range(2):
                    w = (delta if z1 else 1.0 - delta) * (delta if z2 else 1.0 - delta)
                    p11[a, b] += w * f1.table[(a ^ z1) | ((b ^ z2) << 1)]
    return p2, p11


def grid_exact_distribution(
    f1: Gate,
    f2: Gate,
    delta,
    depth: int,
    depth_cap: int = DEFAULT_DEPTH_CAP,
) -> list[GridDistribution]:
    """Exact forward DP of the conditional pair over full level words.

    Given the previous word x, node 0 of level k is Bernoulli in x_0, node
    j in (x_(j-1), x_j) and node k in x_(k-1), so the kernel is applied
    node by node: attach y_0, then attach y_j and sum out x_(j-1) for each
    j.  This costs O(k 2^k) per level.  The returned levels hold about
    2 * 2^(depth+2) float64 values; deeper than ``depth_cap`` is refused.
    """
    _check_gates(f1, f2)
    d = as_delta(delta, noiseless_ok=True)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth > depth_cap:
        raise BudgetExceededError(
            f"depth {depth} exceeds the exact-DP cap {depth_cap}; its levels would need about "
            f"{2 * 8 * 2 ** (depth + 2) / 2**20:.0f} MiB; raise depth_cap to accept the cost"
        )
    p2, p11 = _node_success_probs(f1, f2, d)
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
    _check_gates(f1, f2)
    d = as_delta(delta, noiseless_ok=True)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if depth > 20:
        raise BudgetExceededError("depth > 20 would need > 2^21 count cells")
    states = {
        root: np.full((trials, 1), root, dtype=np.uint8) for root in (0, 1)
    }
    out = []
    for k in range(1, depth + 1):
        counts = {}
        for root in (0, 1):
            states[root] = _grid_level_step(
                f1, f2, d, states[root], k, derive_seed(seed, TAG_GRID_MC, root), TAG_GRID
            )
            packed = (states[root].astype(np.int64) << np.arange(k + 1)).sum(axis=1)
            counts[root] = np.bincount(packed, minlength=1 << (k + 1))
        fp = counts[1] / trials
        fm = counts[0] / trials
        tv_hat = 0.5 * float(np.abs(fp - fm).sum())
        dev = 0.5 * float(
            (np.sqrt(fp * (1.0 - fp) / trials) + np.sqrt(fm * (1.0 - fm) / trials)).sum()
        )
        out.append(GridTvEstimate(k, tv_hat, dev))
    return out
