"""Small shared statistics helpers for Monte Carlo estimates."""

from __future__ import annotations

import math

__all__ = ["wilson_interval"]

_Z = 1.96  # two-sided 95 % standard normal quantile


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """Wilson score 95 % confidence interval for a binomial proportion."""
    if n <= 0:
        raise ValueError("n must be positive")
    phat = successes / n
    z2 = _Z * _Z
    denom = 1.0 + z2 / n
    center = (phat + z2 / (2 * n)) / denom
    half = (_Z / denom) * math.sqrt(phat * (1.0 - phat) / n + z2 / (4 * n * n))
    # the bounds are exactly 0 and 1 at the degenerate counts; avoid the
    # float round-off that would otherwise exclude the point estimate
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == n else min(1.0, center + half)
    return lo, hi
