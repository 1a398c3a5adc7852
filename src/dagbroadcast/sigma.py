"""Exact analysis of the layer one-fraction Markov chain.

In the random-DAG model the fraction of ones at level k is a sufficient
statistic for the root bit.  Conditioned on the previous fraction sigma,
the next level's one-count is Binomial(L_next, g(sigma)) where g is the
gate's conditional-mean curve.  This module propagates the two
root-conditional distributions of that chain exactly, analyzes the
g-curves, and provides the coupled and quenched Monte Carlo estimators.

A model is a row of ``STAGES`` alone, its critical delta derived from it
(``critical_delta``): the model's ``model.Gate``s for one period, in level
order.  A stage reads BSC(delta) and applies its gate's ``Gate.curve``, from
the truth table, and ``exact_chain`` takes each stage's kernel mirror class
from the gate's duality (``Gate.dual``).  ``maj3`` is 3-majority at every
level; ``andor2`` is OR into odd and AND into even levels, read at even levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import AND2, MAJ3, OR2, BudgetExceededError, DagRealization, LayerSchedule, as_delta, convolve
from .rng import derive_seed, uniforms
from .stats import wilson_interval

__all__ = [
    "MODEL_MAJ3",
    "MODEL_ANDOR2",
    "DELTA_MAJ",
    "DELTA_ANDOR",
    "DEFAULT_BUDGET",
    "STAGES",
    "DegenerateThresholdError",
    "SigmaDistribution",
    "FixedPoint",
    "FixedPointReport",
    "CoupledChainStats",
    "QuenchedEstimate",
    "g_derivative",
    "critical_delta",
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
DELTA_ANDOR = 0.5 / (3.0 + math.sqrt(7.0))  # (3 - sqrt 7) / 4, without the cancellation

TAG_COUPLED = 4

# Largest layer size ``exact_chain`` builds kernels for unless told otherwise.
DEFAULT_BUDGET = 4096


class DegenerateThresholdError(ValueError):
    """Raised when fixed points are requested within 1e-12 of a critical delta's bracket."""


def _check_model(model: str) -> str:
    if model not in STAGES:
        raise ValueError(f"unknown model {model!r}")
    return model


# ---------------------------------------------------------------------------
# g-curves


# Each model's gates for one period, in level order: the step into level k
# applies gate (k - 1) % len, and the model is read every len levels.
STAGES = {MODEL_MAJ3: (MAJ3,), MODEL_ANDOR2: (OR2, AND2)}
_BRACKETS: dict = {}  # critical_delta's, by STAGES row


def _stage_g(model: str, delta, k: int | None = None):
    """g-curve of the step into level k, or of one whole period if k is None.

    Each stage reads its input through BSC(delta) (``model.convolve``) and
    applies its gate's ``Gate.curve``.  It evaluates floats and arrays, ``Fraction``s exactly
    for a ``Fraction`` delta, and ``np.poly1d``s, unchecked.
    """
    gates = STAGES[model]
    if k is not None:
        gates = (gates[(k - 1) % len(gates)],)

    def g(x):
        for gate in gates:
            x = gate.curve(convolve(x, delta))
        return x

    return g


def _period_poly(model: str, delta) -> np.poly1d:
    """The period map as a polynomial in x: float coefficients, or exact ones for a ``Fraction`` delta."""
    return _stage_g(model, delta)(np.poly1d([type(delta)(1), 0]))


def g_derivative(model: str, sigma, delta):
    """d/dsigma of the model's period g-curve, from its polynomial."""
    model = _check_model(model)
    d = as_delta(delta, noiseless_ok=True)
    return _period_poly(model, d).deriv()(np.asarray(sigma, dtype=float))


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


def _in_unit(points) -> list[float]:
    """The real parts of ``points`` that lie in [0, 1]."""
    return [float(x) for x in np.real(points) if 0.0 <= x <= 1.0]


def lipschitz(model: str, delta) -> float:
    """Lipschitz constant of the model's g-curve over [0, 1]: max |g'| at 0,
    at 1 and at the roots of g'' (a real part that is no root only adds a
    point, which cannot raise the maximum)."""
    model = _check_model(model)
    slope = _period_poly(model, as_delta(delta, noiseless_ok=True)).deriv()
    return float(np.abs(slope(np.array([0.0, 1.0, *_in_unit(slope.deriv().roots)]))).max())


def _fixed_point_count(model: str, delta: float) -> int:
    """Distinct roots in (0, 1] of P(x) - x, P the period map at ``delta``: Sturm's theorem in rationals."""
    from fractions import Fraction  # off start-up, as in fixed_points
    h = _period_poly(model, Fraction(delta)) - np.poly1d([1, 0])
    seq = [h, h.deriv()]
    while seq[-1].order > 0:  # append -(seq[-2] mod seq[-1]), by long division (np.polydiv takes no Fractions)
        r, b = list(seq[-2]), list(seq[-1])
        while len(r) >= len(b):
            q = r[0] / b[0]
            r = [x - q * y for x, y in zip(r[1:], b[1:] + [0] * (len(r) - len(b)))]
        seq.append(-np.poly1d(r))
    at_0, at_1 = ([v > 0 for v in (p(x) for p in seq) if v] for x in (0, 1))  # nonzero signs at 0 and at 1
    return int(np.count_nonzero(np.diff(at_0)) - np.count_nonzero(np.diff(at_1)))


def critical_delta(model: str) -> tuple[float, float]:
    """Adjacent floats lo < hi around the delta where the period map's fixed points merge,
    bisected from [0, 1/2] on "more than one", which assumes the count falls once, so a row
    with one at delta = 5e-324 gets [0.0, 5e-324] at once.  Cached by gates, not name."""
    gates = STAGES[_check_model(model)]
    if gates not in _BRACKETS and _fixed_point_count(model, 5e-324) <= 1:
        _BRACKETS[gates] = 0.0, 5e-324
    lo, hi = _BRACKETS.get(gates, (0.0, 0.5))  # a cached bracket is adjacent floats: no step runs
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if _fixed_point_count(model, mid) > 1 else (lo, mid)
    _BRACKETS[gates] = lo, hi
    return lo, hi


def fixed_points(model: str, delta) -> FixedPointReport:
    """Fixed points of g, each a float next to a root of g(x) - x.

    g(x) - x is cut into monotone pieces at the roots of its derivative, and
    also just either side of its own float roots (an extra cut does no
    harm).  A piece whose ends differ in sign holds one root, bisected down
    to two adjacent floats; the one with the smaller residual is reported.
    Signs are exact, from the period map in rationals: near the critical
    delta |g' - 1| falls to 1e-10, and float rounding of g(x) - x alone
    would move a float bisection's root by up to 1e-7.

    Below the critical delta the map has more than one fixed point, above it
    one.  Within 1e-12 of ``critical_delta``'s bracket, where they merge, it
    refuses as degenerate rather than return a near-singular list; a row
    with no transition (bracket [0.0, 5e-324]) has nothing to merge.
    """
    from fractions import Fraction  # only this exact search needs it; keeps it off start-up

    model = _check_model(model)
    d = as_delta(delta, noiseless_ok=True)
    lo, hi = critical_delta(model)
    if lo > 0.0 and lo - 1e-12 < d < hi + 1e-12:
        raise DegenerateThresholdError(
            f"{d!r} lies within 1e-12 of the critical delta of {model}, in [{lo!r}, {hi!r}], where the fixed points merge"
        )
    exact = _stage_g(model, Fraction(d))

    def residual(x: float):
        return exact(Fraction(x)) - Fraction(x)

    h = _period_poly(model, d) - np.poly1d([1.0, 0.0])
    near = np.concatenate((h.deriv().roots, h.roots * (1 - 2.0**-40), h.roots * (1 + 2.0**-40)))
    cuts = sorted({0.0, 1.0, *_in_unit(near)})
    signs = [residual(x) for x in cuts]
    values = [x for x, f in zip(cuts, signs) if f == 0]
    for lo, hi, f_lo, f_hi in zip(cuts, cuts[1:], signs, signs[1:]):
        if f_lo * f_hi >= 0:
            continue
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            f_mid = residual(mid)
            if (f_mid > 0) == (f_lo > 0):
                lo, f_lo = mid, f_mid
            else:
                hi, f_hi = mid, f_mid
        values.append(lo if abs(f_lo) <= abs(f_hi) else hi)

    values.sort()
    g = _stage_g(model, d)
    for v in values:
        if abs(g(v) - v) >= 1e-12:
            raise ArithmeticError(f"fixed-point residual too large at {v}")
    slopes = np.abs(g_derivative(model, values, d))
    points = tuple(FixedPoint(value=v, stable=bool(s < 1.0)) for v, s in zip(values, slopes))
    return FixedPointReport(model, d, points, lipschitz(model, d))


# ---------------------------------------------------------------------------
# Exact chain

# Kernel rows are computed only on their Hoeffding window n*p +- t, with
# t = ceil(sqrt(n * ln(2 / BAND_EPS) / 2)), which holds all but at most
# BAND_EPS of a row's mass.  Rows are stored in dense blocks of BLOCK_ROWS.
BAND_EPS = 1e-20
BLOCK_ROWS = 64

# ln(i!) for i = 0, 1, ... as hi + lo.  hi is the running sum of ln(i) rounded
# to the 2^-20 grid; lo holds the rest, with the Neumaier compensation term.
# Each growth rebuilds the table from i = 2, so no entry depends on the order
# of the calls that grew it.
_LOG_FACT = [np.zeros(2), np.zeros(2)]


def _log_comb(n: int) -> np.ndarray:
    """ln C(n, k) for k = 0 .. n, within an ulp of exact (tested up to n = 4096).

    hi[n] - hi[k] - hi[n-k] is exact (multiples of 2^-20 below 2^33 fit in
    53 bits), so besides the table's own error the only roundings are those
    of the lo sum and of the final add.
    """
    hi, lo = _LOG_FACT
    if n >= hi.size:
        size = max(n + 1, 2 * hi.size)
        his, los = [0.0, 0.0], [0.0, 0.0]
        s = c = 0.0
        for i in range(2, size):
            x = math.log(i)
            t = s + x
            c += (s - t) + x if abs(s) >= x else (x - t) + s
            s = t
            h = round(s * 2.0 ** 20) * 2.0 ** -20
            his.append(h)
            los.append((s - h) + c)
        hi, lo = np.array(his), np.array(los)
        _LOG_FACT[:] = hi, lo
    return (hi[n] - hi[: n + 1] - hi[n::-1]) + (lo[n] - lo[: n + 1] - lo[n::-1])


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
    row i has outside its block's columns.  A kernel may hold only the rows
    its caller needs, such as the half of a self-dual kernel whose other
    half is its mirror image (see ``exact_chain``).  ``drift`` is the
    largest raw |row sum - 1| the build measured, before any rescale.
    """

    n: int
    blocks: tuple[np.ndarray, ...]
    starts: tuple[int, ...]
    drop: np.ndarray
    drift: float

    @property
    def size(self) -> int:
        """Number of table entries computed."""
        return sum(block.size for block in self.blocks)

    def apply(self, pair: np.ndarray) -> np.ndarray:
        """``pair`` times the dense table, for a (2, rows) pair, one matmul per block."""
        out = np.zeros((pair.shape[0], self.n + 1))
        for r0, block, c0 in zip(range(0, len(self.drop), BLOCK_ROWS), self.blocks, self.starts):
            out[:, c0:c0 + block.shape[1]] += pair[:, r0:r0 + block.shape[0]] @ block
        return out


def binomial_pmf_table(n: int, p: np.ndarray) -> BinomialKernel:
    """Rows of Binomial(n, p_i) pmfs, computed in log space on their bands.

    Row i is computed on its Hoeffding window n*p_i +- t (see BAND_EPS);
    each block of BLOCK_ROWS rows spans the union of its rows' windows.
    The mass a row has outside its block is bounded by Hoeffding's
    inequality at the block edges and reported in ``drop``.  When 2t >= n
    every row is computed in full and the table is dense with zero drop.
    p <= 0 and p >= 1 rows are exact point masses.  Entries are computed
    in log space: with ``terms`` = [ln p_i, ln q_i, 1] per row and ``cols``
    = [k, n - k, ln C(n, k)] per column, formed once per build, each block
    is one (rows x 3) @ (3 x width) product ``terms[rows] @ cols[:, c0:c1]``
    exponentiated in place.  ln C(n, k) comes from ``_log_comb``, within an
    ulp of exact.  The largest raw row-sum drift measured (maj3 rows) is
    2.8e-13 at n = 4096 and 6.0e-13 at n = 8192, so the rescale of rows
    whose drift exceeds 1e-12 fires only from about n = 16384.
    """
    p = np.asarray(p, dtype=float)
    safe = np.minimum(np.maximum(p, 1e-300), 1.0 - 1e-16)
    terms, cols = np.ones((len(p), 3)), np.empty((3, n + 1))
    terms[:, 0], terms[:, 1] = np.log(safe), np.log1p(-safe)
    cols[0], cols[2] = np.arange(n + 1), _log_comb(n)
    cols[1] = n - cols[0]
    mean = n * p
    t = math.ceil(math.sqrt(n * math.log(2.0 / BAND_EPS) / 2.0))
    if 2 * t >= n:
        t = n  # the windows cover at least half of each row: compute rows in full
    heads = np.arange(0, len(p), BLOCK_ROWS)  # floor, ceil, clip are monotone: take a block's extreme means
    edge_lo = np.clip(np.floor(np.minimum.reduceat(mean, heads) - t), 0, n).astype(np.int64)
    edge_hi = np.clip(np.ceil(np.maximum.reduceat(mean, heads) + t), 0, n).astype(np.int64) + 1
    blocks = [terms[r0:r0 + BLOCK_ROWS] @ cols[:, c0:c1] for r0, c0, c1 in zip(heads, edge_lo, edge_hi)]
    for block in blocks:
        np.exp(block, out=block)
    starts, drop = edge_lo.tolist(), np.zeros(len(p))
    if t < n:  # Hoeffding: P(X <= np - s) and P(X >= np + s) are each <= exp(-2 s^2 / n)
        lo, hi = np.repeat(edge_lo, BLOCK_ROWS)[: len(p)], np.repeat(edge_hi, BLOCK_ROWS)[: len(p)]
        drop = np.where(lo > 0, np.exp(-2.0 * (mean - lo + 1) ** 2 / n), 0.0)
        drop += np.where(hi <= n, np.exp(-2.0 * (hi - mean) ** 2 / n), 0.0)
    if p.min() <= 0.0 or p.max() >= 1.0:
        for i in np.flatnonzero((p <= 0.0) | (p >= 1.0)):
            b, r = divmod(i, BLOCK_ROWS)
            blocks[b][r] = 0.0
            blocks[b][r, (0 if p[i] <= 0.0 else n) - starts[b]] = 1.0
            drop[i] = 0.0
    sums = [block.sum(axis=1) for block in blocks]
    drift = max(float(np.abs(row_sums - 1.0).max()) for row_sums in sums)
    if drift > 1e-12:
        for block, row_sums in zip(blocks, sums):
            block /= row_sums[:, None]
    return BinomialKernel(n, tuple(blocks), tuple(starts), drop, drift)


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
    budget: int = DEFAULT_BUDGET,
    stop_below: float = 0.0,
) -> list[SigmaDistribution]:
    """Propagate the conditional pair exactly from the root to ``depth``.

    For ``andor2`` the OR stage is applied entering odd levels and the
    AND stage entering even levels; meaningful comparisons for that model
    should be made at even levels.  Kernels are banded (see
    ``binomial_pmf_table``), and each level's ``dropped`` carries the
    certified bound on what the bands left out.  Every level's size is
    checked against ``budget`` before any kernel is built.

    With ``stop_below > 0`` the chain ends, as a prefix of the full chain,
    once its verdict at the read level r = depth - depth % P (P the
    ``STAGES`` period) is certain: after the first level whose TV is below
    ``stop_below`` (by data processing no later level has a larger TV), or
    at a level k = r - mP with TV_k - m (eps + (m+1) eta) / 2 >= stop_below
    once levels k - P .. r have one size L.  With D = plus - minus,
    eps = |D_k - D_{k-P}|_1 and A the stochastic P-step map, D_r - D_k =
    sum_{j<m} (D_k - D_{k-P}) A^(j+1), so |D_r - D_k|_1 <= m eps as
    |vA|_1 <= |v|_1 for signed v.  A computed step is v -> vA' + e, A' the
    kernel with rows scaled to sum 1 (they miss 1 by <= drift + (L+2)u,
    u = 2^-53; ``BinomialKernel.drift`` holds the banding drop), and the
    GEMV's dot products of <= L + 2 terms and the renormalising give
    |e|_1 <= 2 drift + (6L+12)u.  So each period's difference grows by
    <= 4P max|e|_1 = 2 eta', |D_r - D_k|_1 <= m eps + m(m+1) eta', and
    eta = 16P (drift + 8(L+4)u), over every kernel built, covers eta' and
    the TV and eps sums' roundings: a stop implies the full chain's ``tv``
    at r is >= stop_below.

    Kernels are built once per mirror class, read from each stage gate's
    ``Gate.dual``.  A gate ``via_dual``, such as OR, has
    g(s) = 1 - g_dual(1 - s), so its kernel is its dual's reversed on both
    axes: the dual's kernel is applied to the reversed pair, and the result
    reversed.  If every stage is self-dual, as maj3 is, kernel row L - i is
    row i reversed: only rows 0 .. L//2 are built, ``plus`` is propagated
    through them and their mirror, and ``minus`` is ``plus`` reversed.  The
    last kernel, keyed by (L_prev, L_next, table), is kept for reuse, so
    constant schedules pay the kernel cost once or twice (andor2's OR and
    AND steps share the AND kernel) and memory holds one kernel.
    """
    gates = STAGES[_check_model(model)]
    d = as_delta(delta, noiseless_ok=True)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    sizes = [schedule.size(k) for k in range(depth + 1)]
    for k, L_next in enumerate(sizes[1:], start=1):
        if L_next > budget:
            raise BudgetExceededError(f"layer size {L_next} at level {k} exceeds budget {budget}")
    read = steady = depth - depth % len(gates)  # levels steady .. read have one size
    while steady > 0 and sizes[steady - 1] == sizes[read]:
        steady -= 1
    half = all(gate.dual is gate for gate in gates)
    pair = np.array([[0.0, 1.0], [1.0, 0.0]])  # plus and minus as one array, unless half
    dist = SigmaDistribution(0, 1, *pair)
    dists = [dist]
    key = None  # (L_prev, L_next, table) of ``kernel``
    prior, drift = pair[0] - pair[1], 0.0  # D at the last level r - mP; largest kernel drift
    for k, L_next in enumerate(sizes[1:], start=1):
        L, gate = dist.L, gates[(k - 1) % len(gates)]
        base = gate.dual if gate.via_dual else gate
        if key != (L, L_next, base.table):
            rows = L // 2 + 1 if half else L + 1
            kernel = binomial_pmf_table(L_next, base.curve(convolve(np.arange(rows) / L, d)))
            key, drift = (L, L_next, base.table), max(drift, kernel.drift)
            eta = 16 * len(gates) * (drift + 8 * (L_next + 4) * 2.0**-53)
            # truncation changes each conditional by <= max drop in L1, and
            # renormalizing it afterwards by as much again; a mirrored row
            # misses exactly the mass of the row it mirrors
            step_drop = 2.0 * float(kernel.drop.max())
        if half:
            # rows above L//2 enter as the head of reversed plus, through the
            # reversed kernel; an even L's middle row is counted in the first half
            h = L // 2 + 1
            halves = np.stack((dist.plus[:h], dist.plus[::-1][:h]))
            if L % 2 == 0:
                halves[1, -1] = 0.0
            r = kernel.apply(halves)
            plus = _renorm(r[0] + r[1, ::-1])
            minus = plus[::-1]
        else:
            step = 1 if base is gate else -1  # a gate via its dual: its kernel on the reversed pair, reversed
            pair = _renorm(kernel.apply(pair[:, ::step])[:, ::step])
            plus, minus = pair
        dist = SigmaDistribution(k, L_next, plus, minus, dist.dropped + step_drop)
        dists.append(dist)
        if stop_below > 0.0:
            diff = plus - minus
            level_tv = 0.5 * float(np.abs(diff).sum())  # tv(dist), bit for bit
            m, off = divmod(read - k, len(gates))
            if level_tv < stop_below or off == 0 and k - len(gates) >= steady and (
                level_tv - 0.5 * m * (float(np.abs(diff - prior).sum()) + (m + 1) * eta) >= stop_below
            ):
                break
            prior = diff if off == 0 else prior
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

    Each node's Bernoulli draws in the two chains are one draw against the
    nested pair of success probabilities (``below=(pp, pm)``), so they are
    comonotone, ties included, and the plus-chain fraction dominates the
    minus-chain fraction pathwise.
    """
    model = _check_model(model)
    d = as_delta(delta, noiseless_ok=True)
    if depth < 1:
        raise ValueError("depth must be >= 1")
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
        # g is increasing, so pm <= pp; near delta = 1/2 the floats can cross by an
        # ulp, and the clamp keeps the two cuts nested
        pm = np.minimum(g(sm), pp)
        # a node's rank is 2 where both chains hold a 1, 1 where only the plus chain does
        rank = uniforms(derive_seed(seed, TAG_COUPLED, k), (trials, L), below=(pp[:, None], pm[:, None]))
        # the row sums of rank and of rank >> 1, in the least type that holds 2 L, count the nodes
        # at rank >= 1 plus those at rank 2, and those at rank 2; count / L is the mean bit for bit
        ranks = np.add.reduce(rank, axis=1, dtype=(wide := np.min_scalar_type(2 * L)))
        twos = np.add.reduce(np.right_shift(rank, 1, out=rank), axis=1, dtype=wide)
        sp, sm = (ranks - twos) / L, twos / L
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
    ``rule`` must be a pure function of the fraction: it is called once for
    each fraction c / L_depth, c = 0 .. L_depth, not once per trial.
    """
    from .model import propagate_many

    if trials < 1:
        raise ValueError("trials must be >= 1")
    roots = (np.arange(trials) % 2).astype(np.uint8)
    final = propagate_many(dag, gates, delta, roots, seed)
    # a row's mean is its count c over L_depth, the same float as c / L_depth
    L = final.shape[1]
    guesses = np.fromiter((rule(s) for s in np.arange(L + 1) / L), dtype=np.int64, count=L + 1)[final.sum(axis=1)]
    errors = int((guesses != roots).sum())
    lo, hi = wilson_interval(errors, trials)
    return QuenchedEstimate(errors / trials, lo, hi, trials)
