"""Exact analysis of the layer one-fraction Markov chain.

In the random-DAG model the fraction of ones at level k is a sufficient
statistic for the root bit.  Conditioned on the previous fraction sigma,
the next level's one-count is Binomial(L_next, g(sigma)) where g is the
gate's conditional-mean curve.  This module propagates the two
root-conditional distributions of that chain exactly, analyzes the
g-curves (fixed points, Lipschitz constants), and provides the coupled
and quenched Monte Carlo estimators.

Two named models are supported:

* ``maj3``: degree 3, 3-input majority at every level.
* ``andor2``: degree 2, AND gates at even levels and OR gates at odd
  levels; quantities of interest are reported at even levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import gammaln

from .model import BudgetExceededError, DagRealization, LayerSchedule, as_delta, convolve
from .rng import derive_seed, uniform_matrix
from .stats import wilson_interval

__all__ = [
    "MODEL_MAJ3",
    "MODEL_ANDOR2",
    "DELTA_MAJ",
    "DELTA_ANDOR",
    "DegenerateThresholdError",
    "SigmaDistribution",
    "FixedPoint",
    "FixedPointReport",
    "CoupledChainStats",
    "QuenchedEstimate",
    "g_majority",
    "g_and",
    "g_or",
    "g_andor",
    "g_derivative",
    "fixed_points",
    "lipschitz",
    "BinomialKernel",
    "binomial_pmf_table",
    "exact_chain",
    "tv",
    "ml_error",
    "mutual_information",
    "majority_rule",
    "coupled_mc",
    "quenched_error_estimate",
]

MODEL_MAJ3 = "maj3"
MODEL_ANDOR2 = "andor2"

DELTA_MAJ = 1.0 / 6.0
DELTA_ANDOR = (3.0 - math.sqrt(7.0)) / 4.0

# Branch point of the andor2 Lipschitz formula.
_ANDOR_LIP_BRANCH = (9.0 - math.sqrt(33.0)) / 12.0

TAG_COUPLED = 4


class DegenerateThresholdError(ValueError):
    """Raised when fixed points are requested exactly at a critical delta."""


def _check_model(model: str) -> str:
    m = model.lower()
    if m not in (MODEL_MAJ3, MODEL_ANDOR2):
        raise ValueError(f"unknown model {model!r}")
    return m


# ---------------------------------------------------------------------------
# g-curves


# P(gate = 1) when each input bit is 1 with probability m.  The constants
# are integers so the same code evaluates floats, arrays and Fractions.


def _maj3_gate(m):
    return m ** 2 * (3 - 2 * m)


def _and_gate(m):
    return m ** 2


def _or_gate(m):
    return 1 - (1 - m) ** 2


def g_majority(sigma, delta):
    """Conditional mean map for the degree-3 majority model."""
    return _maj3_gate(convolve(np.asarray(sigma, dtype=float), delta))


def g_and(sigma, delta):
    """AND-stage map: probability both noisy inputs are 1."""
    return _and_gate(convolve(np.asarray(sigma, dtype=float), delta))


def g_or(sigma, delta):
    """OR-stage map: probability at least one noisy input is 1."""
    return _or_gate(convolve(np.asarray(sigma, dtype=float), delta))


def g_andor(sigma, delta):
    """Two-level composition: OR stage followed by AND stage."""
    return g_and(g_or(sigma, delta), delta)


def g_derivative(model: str, sigma, delta):
    """d/dsigma of the model's g-curve (closed forms)."""
    model = _check_model(model)
    d = as_delta(delta, noiseless_ok=True)
    s = np.asarray(sigma, dtype=float)
    if model == MODEL_MAJ3:
        m = convolve(s, d)
        return 6.0 * (1.0 - 2.0 * d) * m * (1.0 - m)
    inner = convolve(g_or(s, d), d)
    return 4.0 * (1.0 - 2.0 * d) ** 2 * inner * (1.0 - convolve(s, d))


def _stage_g(model: str, delta: float, k: int | None = None):
    """g-curve of the step into level k, or of one whole period if k is None.

    maj3 applies g_majority at every level.  andor2 applies the OR stage
    entering odd levels and the AND stage entering even levels, so its
    period map, the one whose fixed points matter, is g_andor.
    """
    if model == MODEL_MAJ3:
        g = g_majority
    elif k is None:
        g = g_andor
    else:
        g = g_or if k % 2 == 1 else g_and
    return lambda s: g(s, delta)


# ---------------------------------------------------------------------------
# Fixed points and Lipschitz constants


@dataclass(frozen=True)
class FixedPoint:
    value: float
    stable: bool


@dataclass(frozen=True)
class FixedPointReport:
    model: str
    delta: float
    points: tuple[FixedPoint, ...]
    lipschitz: float


def _exact_residual(model: str, delta: float, x: float) -> Fraction:
    """g(x) - x of the period map in exact rational arithmetic."""
    d, s = Fraction(delta), Fraction(x)

    def noisy(v):
        return v * (1 - d) + d * (1 - v)

    if model == MODEL_MAJ3:
        return _maj3_gate(noisy(s)) - s
    return _and_gate(noisy(_or_gate(noisy(s)))) - s


def _cross_check(model: str, delta: float, value: float, tol: float = 1e-10) -> None:
    """Verify that a root of g(x) - x lies within ``tol`` of a closed form.

    The bracket [value - tol, value + tol] isolates the root from its
    neighbours, and the residual's sign at its ends is exact, since g is a
    polynomial in x and delta.  Near the critical delta |g' - 1| falls to
    1e-10, so float rounding of g(x) - x alone would move a float
    bisection's root by up to 1e-7.
    """
    lo = max(0.0, value - tol)
    hi = min(1.0, value + tol)
    f_lo = _exact_residual(model, delta, lo)
    f_hi = _exact_residual(model, delta, hi)
    if f_lo != 0 and f_hi != 0 and (f_lo > 0) == (f_hi > 0):
        raise ArithmeticError(
            f"no root of g(x) - x within {tol:g} of closed-form fixed point {value}"
        )


def lipschitz(model: str, delta) -> float:
    """Lipschitz constant of the model's g-curve over [0, 1]."""
    model = _check_model(model)
    d = as_delta(delta, noiseless_ok=True)
    if model == MODEL_MAJ3:
        return 1.5 * (1.0 - 2.0 * d)
    if d <= _ANDOR_LIP_BRANCH:
        return (4.0 * (1.0 - d) * (1.0 - 2.0 * d) / 3.0) ** 1.5
    return 4.0 * d * (1.0 - d) ** 2 * (1.0 - 2.0 * d) ** 2 * (3.0 - 2.0 * d)


def fixed_points(model: str, delta) -> FixedPointReport:
    """Closed-form fixed points of g, each checked to lie within 1e-10 of a root.

    Below the critical delta the map has three fixed points, above it a
    single one.  Exactly at the critical value the roots merge; that case
    is reported as degenerate rather than returning a near-singular list.
    """
    model = _check_model(model)
    d = as_delta(delta, noiseless_ok=True)
    g = _stage_g(model, d)

    if model == MODEL_MAJ3:
        if abs(d - DELTA_MAJ) < 1e-12:
            raise DegenerateThresholdError("delta = 1/6 is the degenerate triple root")
        values = [0.5]
        if d < DELTA_MAJ:
            sigma_hat = 0.5 * (1.0 + math.sqrt((1.0 - 6.0 * d) / (1.0 - 2.0 * d) ** 3))
            values = [1.0 - sigma_hat, 0.5, sigma_hat]
    else:
        if abs(d - DELTA_ANDOR) < 1e-12:
            raise DegenerateThresholdError("delta = (3 - sqrt(7))/4 is degenerate")
        b = 2.0 * (1.0 - d) * (1.0 - 2.0 * d)
        denom = 2.0 * (1.0 - 2.0 * d) ** 2
        a = 4.0 * (1.0 - d) * (1.0 - 2.0 * d) - 3.0
        # t = (b + 1 - sqrt(a + 4)) / denom, rationalized to avoid the
        # catastrophic cancellation near delta = 1/2 (note a + 4 = 2b + 1)
        t = b * b / (denom * (b + 1.0 + math.sqrt(2.0 * b + 1.0)))
        values = [t]
        if d < DELTA_ANDOR:
            t0 = (b - 1.0 - math.sqrt(a)) / denom
            t1 = (b - 1.0 + math.sqrt(a)) / denom
            values = sorted([t0, t, t1])

    points = []
    for v in values:
        if abs(g(v) - v) >= 1e-12:
            raise ArithmeticError(f"fixed-point residual too large at {v}")
        _cross_check(model, d, v)
        slope = float(np.abs(g_derivative(model, v, d)))
        points.append(FixedPoint(value=float(v), stable=slope < 1.0))
    return FixedPointReport(model, d, tuple(points), lipschitz(model, d))


# ---------------------------------------------------------------------------
# Exact chain

# Kernel rows are computed only on their Hoeffding window n*p +- t, with
# t = ceil(sqrt(n * ln(2 / BAND_EPS) / 2)), which holds all but at most
# BAND_EPS of a row's mass.  Rows are stored in dense blocks of BLOCK_ROWS.
BAND_EPS = 1e-20
BLOCK_ROWS = 64


@dataclass(frozen=True)
class SigmaDistribution:
    """Root-conditional distributions of the level-k one-count.

    ``plus[m]`` is P(one-count = m | root = 1), ``minus`` the same for
    root = 0, over m in {0, ..., L}.  ``dropped`` bounds the L1 distance
    of each from the untruncated chain's, so TV is exact to within
    ``dropped`` and ML error to within half of it; it is 0.0 when no
    kernel row on the way was truncated.
    """

    level: int
    L: int
    plus: np.ndarray
    minus: np.ndarray
    dropped: float = 0.0

    def __post_init__(self) -> None:
        for vec in (self.plus, self.minus):
            if len(vec) != self.L + 1:
                raise ValueError("distribution length must be L + 1")
            if vec.min() < 0 or abs(vec.sum() - 1.0) > 1e-12:
                raise ValueError("distribution must be normalized and nonnegative")


@dataclass(frozen=True)
class BinomialKernel:
    """Banded table of Binomial(n, p_i) pmf rows.

    Rows ``i*BLOCK_ROWS`` onwards form ``blocks[i]``, which holds their
    pmf on columns ``starts[i]`` to ``starts[i] + blocks[i].shape[1] - 1``
    and 0 elsewhere.  ``drop[i]`` is a certified upper bound on the mass
    row i has outside its block's columns.
    """

    n: int
    blocks: tuple[np.ndarray, ...]
    starts: tuple[int, ...]
    drop: np.ndarray

    @property
    def size(self) -> int:
        """Number of table entries computed."""
        return sum(block.size for block in self.blocks)

    def toarray(self) -> np.ndarray:
        table = np.zeros((len(self.drop), self.n + 1))
        for r0, block, c0 in self._placed():
            table[r0:r0 + block.shape[0], c0:c0 + block.shape[1]] = block
        return table

    def apply(self, pair: np.ndarray) -> np.ndarray:
        """``pair @ toarray()`` for a (2, rows) pair, one matmul per block."""
        out = np.zeros((pair.shape[0], self.n + 1))
        for r0, block, c0 in self._placed():
            out[:, c0:c0 + block.shape[1]] += pair[:, r0:r0 + block.shape[0]] @ block
        return out

    def _placed(self):
        return zip(range(0, len(self.drop), BLOCK_ROWS), self.blocks, self.starts)


def binomial_pmf_table(n: int, p: np.ndarray) -> BinomialKernel:
    """Rows of Binomial(n, p_i) pmfs, computed in log space on their bands.

    Row i is computed on its Hoeffding window n*p_i +- t (see BAND_EPS);
    each block of BLOCK_ROWS rows spans the union of its rows' windows.
    The mass a row has outside its block is bounded by Hoeffding's
    inequality at the block edges and reported in ``drop``.  When 2t >= n
    every row is computed in full and the table is dense with zero drop.
    p <= 0 and p >= 1 rows are exact point masses.  Log-gamma keeps the
    computation stable for n in the thousands; rows are renormalized when
    accumulated drift exceeds 1e-12.
    """
    p = np.asarray(p, dtype=float)
    k = np.arange(n + 1, dtype=float)
    log_comb = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
    safe = np.clip(p, 1e-300, 1.0 - 1e-16)
    log_p, log_q = np.log(safe), np.log1p(-safe)
    mean = n * p
    t = math.ceil(math.sqrt(n * math.log(2.0 / BAND_EPS) / 2.0))
    if 2 * t >= n:
        t = n  # the windows cover at least half of each row: compute rows in full
    lo = np.clip(np.floor(mean - t), 0, n).astype(np.int64)
    hi = np.clip(np.ceil(mean + t), 0, n).astype(np.int64)
    blocks, starts = [], []
    edge_lo, edge_hi = np.empty_like(lo), np.empty_like(hi)
    for r0 in range(0, len(p), BLOCK_ROWS):
        rows = slice(r0, r0 + BLOCK_ROWS)
        c0, c1 = int(lo[rows].min()), int(hi[rows].max()) + 1
        block = np.multiply.outer(log_p[rows], k[c0:c1])
        block += log_comb[c0:c1]
        block += np.multiply.outer(log_q[rows], n - k[c0:c1])
        blocks.append(np.exp(block, out=block))
        starts.append(c0)
        edge_lo[rows], edge_hi[rows] = c0, c1
    # Hoeffding: P(X <= np - s) and P(X >= np + s) are each <= exp(-2 s^2 / n)
    drop = np.where(edge_lo > 0, np.exp(-2.0 * (mean - edge_lo + 1) ** 2 / n), 0.0)
    drop += np.where(edge_hi <= n, np.exp(-2.0 * (edge_hi - mean) ** 2 / n), 0.0)
    for i in np.flatnonzero((p <= 0.0) | (p >= 1.0)):
        b, r = divmod(i, BLOCK_ROWS)
        blocks[b][r] = 0.0
        blocks[b][r, (0 if p[i] <= 0.0 else n) - starts[b]] = 1.0
        drop[i] = 0.0
    sums = [block.sum(axis=1) for block in blocks]
    if max(np.abs(row_sums - 1.0).max() for row_sums in sums) > 1e-12:
        for block, row_sums in zip(blocks, sums):
            block /= row_sums[:, None]
    return BinomialKernel(n, tuple(blocks), tuple(starts), drop)


def _renorm(pair: np.ndarray) -> np.ndarray:
    """Remove float round-off drift; refuse anything beyond round-off scale."""
    totals = pair.sum(axis=-1, keepdims=True)
    if np.abs(totals - 1.0).max() > 1e-9:
        raise ArithmeticError(f"probability mass drifted to {totals.ravel()}")
    return pair / totals


def exact_chain(
    model: str,
    delta,
    schedule: LayerSchedule,
    depth: int,
    budget: int = 4096,
) -> list[SigmaDistribution]:
    """Propagate the conditional pair exactly from the root to ``depth``.

    For ``andor2`` the OR stage is applied entering odd levels and the
    AND stage entering even levels; meaningful comparisons for that model
    should be made at even levels.  Kernels are banded (see
    ``binomial_pmf_table``), and each level's ``dropped`` carries the
    certified bound on what the bands left out.  One kernel per stage is
    kept and reused while the layer sizes repeat, so constant schedules
    pay the kernel cost once and memory holds O(1) kernels.
    """
    model = _check_model(model)
    d = as_delta(delta, noiseless_ok=True)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    dists = [
        SigmaDistribution(0, 1, np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    ]
    kernels: dict[int, tuple[tuple[int, int], BinomialKernel]] = {}
    for k in range(1, depth + 1):
        L_next = schedule.size(k)
        if L_next > budget:
            raise BudgetExceededError(
                f"layer size {L_next} at level {k} exceeds budget {budget}"
            )
        prev = dists[-1]
        stage = 0 if model == MODEL_MAJ3 else k % 2 + 1
        sizes, kernel = kernels.get(stage, (None, None))
        if sizes != (prev.L, L_next):
            sig = np.arange(prev.L + 1, dtype=float) / prev.L
            kernel = binomial_pmf_table(L_next, _stage_g(model, d, k)(sig))
            kernels[stage] = ((prev.L, L_next), kernel)
        pair = _renorm(kernel.apply(np.stack((prev.plus, prev.minus))))
        # truncation changes each conditional by <= max drop in L1, and
        # renormalizing it afterwards by as much again
        dropped = prev.dropped + 2.0 * float(kernel.drop.max())
        dists.append(SigmaDistribution(k, L_next, pair[0], pair[1], dropped))
    return dists


# ---------------------------------------------------------------------------
# Functionals of the conditional pair


def tv(dist: SigmaDistribution) -> float:
    """Total variation distance between the two root-conditionals."""
    return 0.5 * float(np.abs(dist.plus - dist.minus).sum())


def ml_error(dist: SigmaDistribution) -> float:
    """Minimum error probability of guessing the root, uniform prior."""
    return 0.5 * (1.0 - tv(dist))


def mutual_information(dist: SigmaDistribution) -> float:
    """I(root; one-count) in bits under the uniform root prior."""
    # plus + minus rather than their half, which underflows to 0 where one
    # of them is the smallest subnormal and the other 0
    both = dist.plus + dist.minus
    total = 0.0
    for vec in (dist.plus, dist.minus):
        mask = vec > 0
        total += 0.5 * float(np.sum(vec[mask] * np.log2(2.0 * vec[mask] / both[mask])))
    return max(0.0, total)


def majority_rule(sigma: float) -> int:
    """Guess 1 iff at least half the level is ones (boundary inclusive)."""
    return int(sigma >= 0.5)


# ---------------------------------------------------------------------------
# Monte Carlo


@dataclass(frozen=True)
class CoupledChainStats:
    """Per-level statistics of the monotone coupled pair of chains."""

    levels: np.ndarray
    prob_unequal: np.ndarray
    mean_gap: np.ndarray
    sem_gap: np.ndarray
    min_gap: float
    monotone_fraction: float
    final_plus: np.ndarray
    final_minus: np.ndarray


def coupled_mc(
    model: str,
    delta,
    schedule: LayerSchedule,
    depth: int,
    trials: int,
    seed: int,
) -> CoupledChainStats:
    """Simulate the root=1 and root=0 chains under a monotone coupling.

    Each node's Bernoulli draw in the two chains shares one uniform, so
    the draws are comonotone given the pair of success probabilities and
    the plus-chain fraction dominates the minus-chain fraction pathwise.
    """
    model = _check_model(model)
    d = as_delta(delta, noiseless_ok=True)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    sp = np.ones(trials)
    sm = np.zeros(trials)
    prob_unequal = np.empty(depth)
    mean_gap = np.empty(depth)
    sem_gap = np.empty(depth)
    min_gap = np.inf
    monotone = 0
    total_pairs = 0
    for k in range(1, depth + 1):
        L = schedule.size(k)
        g = _stage_g(model, d, k)
        pp = np.asarray(g(sp))
        pm = np.asarray(g(sm))
        u = uniform_matrix(derive_seed(seed, TAG_COUPLED, k), (trials, L))
        sp = (u < pp[:, None]).mean(axis=1)
        sm = (u < pm[:, None]).mean(axis=1)
        gap = sp - sm
        prob_unequal[k - 1] = float((gap != 0).mean())
        mean_gap[k - 1] = float(gap.mean())
        sem_gap[k - 1] = float(gap.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
        min_gap = min(min_gap, float(gap.min()))
        monotone += int((gap >= 0).sum())
        total_pairs += trials
    return CoupledChainStats(
        levels=np.arange(1, depth + 1),
        prob_unequal=prob_unequal,
        mean_gap=mean_gap,
        sem_gap=sem_gap,
        min_gap=min_gap,
        monotone_fraction=monotone / total_pairs,
        final_plus=sp,
        final_minus=sm,
    )


@dataclass(frozen=True)
class QuenchedEstimate:
    """Monte Carlo error estimate on one frozen DAG realization."""

    p_err: float
    ci_low: float
    ci_high: float
    trials: int


def quenched_error_estimate(
    dag: DagRealization,
    gates,
    delta,
    rule,
    trials: int,
    seed: int,
) -> QuenchedEstimate:
    """Estimate P(rule(final fraction) != root) on a fixed realization.

    The root prior is made exactly uniform by alternating root bits across
    trials.  Used to certify a sampled DAG as a reconstruction witness.
    """
    from .model import propagate_many

    if trials < 1:
        raise ValueError("trials must be >= 1")
    roots = (np.arange(trials) % 2).astype(np.uint8)
    final = propagate_many(dag, gates, delta, roots, seed)
    sig = final.mean(axis=1)
    guesses = np.fromiter((rule(s) for s in sig), dtype=np.int64, count=trials)
    errors = int((guesses != roots).sum())
    lo, hi = wilson_interval(errors, trials)
    return QuenchedEstimate(errors / trials, lo, hi, trials)
