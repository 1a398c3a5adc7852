"""Closed-form impossibility bounds.

These are the cheap outer bounds that any broadcast scheme must obey:
the mutual-information contraction bound, its critical crossover value
delta_ES(d), the weaker bond-percolation value, and the slow-layer-growth
impossibility threshold.
"""

from __future__ import annotations

import math

from .model import as_delta

__all__ = [
    "evans_schulman",
    "delta_es",
    "bond_bound",
    "slow_growth_threshold",
]


def evans_schulman(L_k: int, delta, d: int, k: int) -> float:
    """Information contraction bound: I(root; level k) <= L_k ((1-2d)^2 d)^k."""
    dv = as_delta(delta, noiseless_ok=True)
    return L_k * ((1.0 - 2.0 * dv) ** 2 * d) ** k


def delta_es(d: int) -> float:
    """Crossover value above which the contraction bound forces extinction."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return 0.5 - 0.5 / math.sqrt(d)


def bond_bound(d: int) -> float:
    """Bond-percolation impossibility value 1/2 - 1/(2d); weaker than delta_es."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return 0.5 - 0.5 / d


def slow_growth_threshold(k: int, d: int, delta) -> float:
    """Layer-size growth rate below which reconstruction is impossible.

    If L_k stays below log(k) / (d log(1/(2 delta))) for all large k, the
    root bit is eventually forgotten regardless of the gates.
    """
    dv = as_delta(delta)
    if k < 2:
        raise ValueError("k must be >= 2")
    return math.log(k) / (d * math.log(1.0 / (2.0 * dv)))
