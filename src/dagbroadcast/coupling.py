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
encoding 0c=0 < 1u=1 < 1c=2).  Once a level is free of 1u the two runs
have coalesced and stay equal forever, so P(T > k), with T the first
1u-free level, upper-bounds the TV distance between the root-conditional
laws at level k.

The percolation helpers estimate when disagreements can spread at all:
each grid edge is open independently with probability p and the root's
open cluster is tracked via its leftmost and rightmost reached nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import as_delta
from .rng import derive_seed, uniform_matrix
from .stats import wilson_interval

__all__ = [
    "SYM_0C",
    "SYM_1U",
    "SYM_1C",
    "CouplingTvBound",
    "AlphaEstimate",
    "coupled_grid_runs",
    "coupling_tv_bound",
    "estimate_alpha",
]

SYM_0C = 0  # (0, 0)
SYM_1U = 1  # (0, 1)
SYM_1C = 2  # (1, 1)

TAG_COUPLE = 8
TAG_PERC = 9


def _channel_step_array(sym: np.ndarray, delta: float, u: np.ndarray) -> np.ndarray:
    """Vectorized coupled channel: thresholds chosen to match the matrix rows above."""
    # 0c: -> 1c w.p. delta, else 0c.          (never 1u)
    # 1c: -> 0c w.p. delta, else 1c.          (never 1u)
    # 1u: -> 0c w.p. delta, 1c w.p. delta, else stays 1u.
    out = np.where(
        sym == SYM_1U,
        np.where(u < delta, SYM_0C, np.where(u < 2.0 * delta, SYM_1C, SYM_1U)),
        np.where(
            sym == SYM_0C,
            np.where(u < delta, SYM_1C, SYM_0C),
            np.where(u < delta, SYM_0C, SYM_1C),
        ),
    )
    return out.astype(np.int8)


def coupled_grid_runs(
    delta, max_depth: int, trials: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Run many coupled grids; returns (coalescence times, 1u counts).

    Times are -1 for runs that have not coalesced by ``max_depth``.  The
    counts array has shape (trials, max_depth + 1).
    """
    d = as_delta(delta, noiseless_ok=True)
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    state = np.full((trials, 1), SYM_1U, dtype=np.int8)
    times = np.full(trials, -1, dtype=np.int64)
    counts = np.zeros((trials, max_depth + 1), dtype=np.int32)
    counts[:, 0] = 1
    for k in range(1, max_depth + 1):
        width = k  # previous level width
        u = uniform_matrix(derive_seed(seed, TAG_COUPLE, k), (trials, width, 2))
        left = _channel_step_array(state, d, u[..., 0])
        right = _channel_step_array(state, d, u[..., 1])
        new = np.empty((trials, k + 1), dtype=np.int8)
        new[:, 0] = right[:, 0]
        new[:, k] = left[:, width - 1]
        if k >= 2:
            new[:, 1:k] = np.minimum(left[:, :-1], right[:, 1:])
        state = new
        counts[:, k] = (state == SYM_1U).sum(axis=1)
        fresh = (times < 0) & (counts[:, k] == 0)
        times[fresh] = k
        if (times >= 0).all():
            counts[:, k + 1 :] = 0
            break
    return times, counts


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
    times, _ = coupled_grid_runs(delta, depth, trials, seed)
    levels = np.arange(depth + 1)
    bound = np.empty(depth + 1)
    lo = np.empty(depth + 1)
    hi = np.empty(depth + 1)
    for k in levels:
        surviving = int(((times < 0) | (times > k)).sum())
        bound[k] = surviving / trials
        lo[k], hi[k] = wilson_interval(surviving, trials)
    return CouplingTvBound(levels, bound, lo, hi, trials)


# ---------------------------------------------------------------------------
# Oriented bond percolation


def _percolation_reach(p: float, depth: int, trials: int, seed: int):
    """Vectorized reachability; returns (reach mask final, R, L) arrays."""
    reach = np.ones((trials, 1), dtype=bool)
    right = np.full((trials, depth + 1), -1, dtype=np.int64)
    left = np.full((trials, depth + 1), -1, dtype=np.int64)
    right[:, 0] = 0
    left[:, 0] = 0
    alive = np.ones(trials, dtype=bool)
    for k in range(1, depth + 1):
        u = uniform_matrix(derive_seed(seed, TAG_PERC, k), (trials, k, 2))
        open_straight = u[..., 0] < p  # edge (k-1, j) -> (k, j)
        open_diag = u[..., 1] < p  # edge (k-1, j) -> (k, j+1)
        new = np.zeros((trials, k + 1), dtype=bool)
        new[:, :k] |= reach & open_straight
        new[:, 1:] |= reach & open_diag
        reach = new
        alive = reach.any(axis=1)
        idx = np.arange(k + 1)
        right[alive, k] = np.where(reach[alive], idx, -1).max(axis=1)
        left[alive, k] = np.where(reach[alive], idx, k + 1).min(axis=1)
        if not alive.any():
            break
    return reach, right, left


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
    reach, right, left = _percolation_reach(p, depth, trials, seed)
    alive = reach.any(axis=1)
    n_alive = int(alive.sum())
    if n_alive == 0:
        return AlphaEstimate(float("nan"), float("nan"), 0, trials)
    ks = np.arange(depth // 2, depth + 1)
    widths = (right[alive][:, ks] - left[alive][:, ks]).astype(float)
    kc = ks - ks.mean()
    slopes = (widths * kc).sum(axis=1) / (kc * kc).sum()
    return AlphaEstimate(float(slopes.mean()), float(slopes.std(ddof=1)) if n_alive > 1 else 0.0, n_alive, trials)
