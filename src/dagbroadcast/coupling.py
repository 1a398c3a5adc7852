"""Coupled AND-grid construction and oriented bond percolation diagnostics.

The AND grid run from root 0 and root 1 can be coupled so that the pair
of node values lives on the three-symbol alphabet

* ``0c`` = (0, 0): both runs agree on 0,
* ``1u`` = (0, 1): runs disagree (only the root=1 run holds a 1),
* ``1c`` = (1, 1): both runs agree on 1.

The pair (1, 0) is never reachable (the coupling is monotone).  Each
edge applies a coupled channel whose rows are, over (0c, 1u, 1c):

    0c: (1-delta, 0,         delta)
    1u: (delta,   1-2*delta, delta)
    1c: (delta,   0,         1-delta)

and each interior node takes the symbol-wise AND (the minimum under the
encoding 0c=0 < 1u=1 < 1c=2), so P(node >= s) is the product of its
parents' channel tails (a boundary node has one parent).  Every edge
feeds one node, so given a level the next level's nodes are independent,
and each is one Bernoulli draw ranked against the nested cuts
P(node >= 1u) >= P(node >= 1c), which gives the symbol 0c, 1u or 1c.
Once a level is free of 1u the two runs have coalesced and stay equal
forever, so P(T > k), with T the first 1u-free level, upper-bounds the
TV distance between the root-conditional laws at level k.

The percolation helpers estimate when disagreements can spread at all:
each grid edge is open independently with probability p and the root's
open cluster is tracked via its leftmost and rightmost reached nodes; a
node with c reached parents is reached with probability 1 - (1 - p)^c.

Both samplers draw node j of trial t at level k from position s t + j of
the level-k Bernoulli stream, s = k + 1 rounded up to a multiple of 4, so a
trial's nodes start a word of the stream and are read four to a word.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import as_delta
from .rng import derive_seed, uniforms
from .stats import wilson_interval

__all__ = [
    "SYM_1U",
    "CouplingTvBound",
    "AlphaEstimate",
    "coupled_grid_runs",
    "coupling_tv_bound",
    "estimate_alpha",
]

SYM_1U = 1  # (0, 1)

TAG_COUPLE = 8
TAG_PERC = 9


_NONE = 3  # the missing parent of a boundary node, which lets the other parent's symbol through


def _stride(k: int) -> int:
    """Stream positions per trial at level k: its k + 1 nodes, rounded up to a whole word of four draws."""
    return (k + 4) & ~3


def _node_tails(delta: float) -> np.ndarray:
    """P(node >= 1u) in row 0 and P(node >= 1c) in row 1, for the parent pair 4 * left + right."""
    tail = np.array([[delta, delta], [1.0 - delta, delta], [1.0 - delta, 1.0 - delta], [1.0, 1.0]])
    return (tail[:, None] * tail[None, :]).reshape(16, 2).T


def coupled_grid_runs(delta, max_depth: int, trials: int, seed: int) -> np.ndarray:
    """Run many coupled grids; returns their coalescence times, -1 for a run
    that has not coalesced by ``max_depth``."""
    d = as_delta(delta, noiseless_ok=True)
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    at_least_1u, at_least_1c = _node_tails(d)
    # a coalesced run holds no 1u and never regains one, so only the live runs are stepped
    live = np.arange(trials)
    state = np.full((trials, 1), SYM_1U, dtype=np.int8)
    times = np.full(trials, -1, dtype=np.int64)
    for k in range(1, max_depth + 1):
        pair = np.full((live.size, k + 1), 5 * _NONE, dtype=np.int8)
        pair[:, :k] += state - _NONE  # right parent of nodes 0 .. k-1
        pair[:, 1:] += 4 * (state - _NONE)  # left parent of nodes 1 .. k
        rows = (_stride(k) * live, k + 1)
        new = uniforms(derive_seed(seed, TAG_COUPLE, k), rows, below=(at_least_1u, at_least_1c), at=pair).view(np.int8)
        done = np.count_nonzero(new == SYM_1U, axis=1) == 0
        times[live[done]] = k
        live, state = live[~done], new[~done]
        if live.size == 0:
            break
    return times


@dataclass(frozen=True)
class CouplingTvBound:
    """Empirical P(T > k) per level with Wilson confidence bands."""

    levels: np.ndarray
    bound: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    trials: int


def coupling_tv_bound(delta, depth: int, trials: int, seed: int) -> CouplingTvBound:
    """Estimate the coupling upper bound P(T > k) on grid TV per level."""
    times = coupled_grid_runs(delta, depth, trials, seed)
    surviving = trials - np.bincount(times[times >= 0], minlength=depth + 1).cumsum()
    lo, hi = np.array([wilson_interval(int(n), trials) for n in surviving]).T
    return CouplingTvBound(np.arange(depth + 1), surviving / trials, lo, hi, trials)


# ---------------------------------------------------------------------------
# Oriented bond percolation


def _reach_probs(p: float) -> np.ndarray:
    """P(node reached) by its number of reached parents, 0, 1 or 2: some edge from them is open."""
    return np.array([0.0, p, 1.0 - (1.0 - p) ** 2])


def _percolation_reach(p: float, depth: int, trials: int, seed: int):
    """Vectorized reachability; returns the (R, L) arrays, -1 where no node is reached.

    Only the trials alive at the previous level are stepped, over the columns
    from their leftmost reached node to one past their rightmost: no node
    outside that rectangle has a reached parent, so none of its draws is read.
    """
    reach_probs = _reach_probs(p)
    right = np.full((trials, depth + 1), -1, dtype=np.int64)
    left = np.full((trials, depth + 1), -1, dtype=np.int64)
    right[:, 0] = left[:, 0] = 0
    live = np.arange(trials)
    reach = np.ones((trials, 1), dtype=bool)  # live trials x columns lo .. hi
    lo = hi = 0
    for k in range(1, depth + 1):
        w = hi - lo + 1
        parents = np.zeros((live.size, w + 1), dtype=np.uint8)
        parents[:, :w] = reach
        parents[:, 1:] += reach
        new = uniforms(derive_seed(seed, TAG_PERC, k), (_stride(k) * live + lo, w + 1), below=reach_probs, at=parents)
        alive = new.any(axis=1)
        live, new = live[alive], new[alive]
        if live.size == 0:
            break
        r = lo + w - new[:, ::-1].argmax(axis=1)
        l = lo + new.argmax(axis=1)
        right[live, k], left[live, k] = r, l
        base, lo, hi = lo, int(l.min()), int(r.max())
        reach = new[:, lo - base : hi - base + 1]
    return right, left


@dataclass(frozen=True)
class AlphaEstimate:
    """Edge-speed estimate from surviving percolation runs.

    The open cluster's width grows linearly; (R_k - L_k) / k converges to
    the edge-speed constant alpha(p).  The estimate is the mean over
    surviving runs of the least-squares slope of R_k - L_k against k on
    the second half of the levels.
    """

    alpha: float
    std: float
    surviving: int
    trials: int


def estimate_alpha(p: float, depth: int, trials: int, seed: int) -> AlphaEstimate:
    """Estimate the edge speed alpha(p) from ``trials`` percolation runs of ``depth`` levels (see ``AlphaEstimate``)."""
    if not 0.0 <= p <= 1.0:  # NaN fails both comparisons
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    right, left = _percolation_reach(p, depth, trials, seed)
    alive = right[:, depth] >= 0
    n_alive = int(alive.sum())
    if n_alive == 0:
        return AlphaEstimate(float("nan"), float("nan"), 0, trials)
    ks = np.arange(depth // 2, depth + 1)
    widths = (right[alive][:, ks] - left[alive][:, ks]).astype(float)
    kc = ks - ks.mean()
    slopes = (widths * kc).sum(axis=1) / (kc * kc).sum()
    return AlphaEstimate(float(slopes.mean()), float(slopes.std(ddof=1)) if n_alive > 1 else 0.0, n_alive, trials)
