"""Core broadcast model: channels, gates, layer schedules, random DAGs.

A single root bit is propagated level by level.  Every node at level k
picks d parents at the previous level (with replacement), reads each
parent bit through an independent binary symmetric channel with
crossover probability delta, and applies a Boolean gate to the noisy
inputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

from .rng import derive_seed, uniforms

__all__ = [
    "BudgetExceededError",
    "Gate",
    "MAJ3",
    "AND2",
    "OR2",
    "XOR2",
    "NAND2",
    "IDENTITY",
    "LayerSchedule",
    "DagRealization",
    "sample_random_dag",
    "propagate_many",
]

# Purpose tags keep derived seed streams for different uses disjoint.
TAG_DAG = 1
TAG_TRIAL = 3


class BudgetExceededError(RuntimeError):
    """Raised when a computation would exceed a configured size budget."""


def as_delta(delta: float, noiseless_ok: bool = False) -> float:
    """Validate a crossover probability: (0, 1/2), or [0, 1/2) if ``noiseless_ok``."""
    d = float(delta)
    lo_ok = (d == 0.0 and noiseless_ok) or d > 0.0
    if not (lo_ok and d < 0.5):
        raise ValueError(f"delta must lie in (0, 1/2), got {d}")
    return d


@dataclass(frozen=True)
class Gate:
    """Boolean gate given by its truth table.

    ``table[w]`` is the output for the input word ``w`` where input slot i
    contributes bit ``(w >> i) & 1``.
    """

    name: str
    arity: int
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ValueError("gate arity must be positive")
        if len(self.table) != 1 << self.arity:
            raise ValueError("truth table length must be 2**arity")
        if any(b not in (0, 1) for b in self.table):
            raise ValueError("truth table entries must be bits")

    @staticmethod
    def from_function(name: str, arity: int, fn: Callable[..., int]) -> "Gate":
        table = tuple(
            int(fn(*(((w >> i) & 1) for i in range(arity)))) for w in range(1 << arity)
        )
        return Gate(name, arity, table)

    def __call__(self, *bits: int) -> int:
        if len(bits) != self.arity:
            raise ValueError("wrong number of inputs")
        w = 0
        for i, b in enumerate(bits):
            w |= (int(b) & 1) << i
        return self.table[w]

    @property
    def via_dual(self) -> bool:
        """More words map to 1 than to 0, so the curve and chain kernels are the ``dual``'s, reflected."""
        return 2 * sum(self.table) > len(self.table)

    @cached_property
    def dual(self) -> "Gate":
        """x -> 1 - f(1 - x), the table reversed and flipped; a self-dual gate is its own, as an object."""
        table = tuple(1 - b for b in reversed(self.table))
        return self if table == self.table else Gate(f"dual {self.name}", self.arity, table)

    @cached_property
    def curve(self) -> Callable:
        """P(output = 1) as a function of m, when every input is 1 with probability m.

        A gate ``via_dual`` is 1 - dual(1 - m).  Any other sums m^ones (1 - m)^zeros
        over the words mapped to 1: m^j0 times an integer polynomial in Horner
        form, so it evaluates floats, arrays, ``Fraction``s (exactly) and ``np.poly1d``s.
        """
        if self.via_dual:
            dual = self.dual.curve
            return lambda m: 1 - dual(1 - m)
        n = self.arity
        coef = [0] * (n + 1)
        for w in (w for w, out in enumerate(self.table) if out):
            j = w.bit_count()
            for i in range(n - j + 1):  # m^j (1 - m)^(n - j), expanded
                coef[j + i] += (-1) ** i * math.comb(n - j, i)
        nonzero = [j for j, c in enumerate(coef) if c] or [0]
        j0, rest = nonzero[0], coef[nonzero[0] : nonzero[-1] + 1]

        def curve(m):
            p = m**j0
            if rest != [1]:  # multiplying by a lone 1 would cost an array pass per call
                acc = rest[-1]
                for c in rest[-2::-1]:
                    acc = acc * m + c
                p = p * acc
            return p

        return curve

    def noisy_output_probs(self, delta: float) -> np.ndarray:
        """P(output = 1) for each input word, every input read through its own BSC(delta)."""
        d = as_delta(delta, noiseless_ok=True)
        table = np.asarray(self.table, dtype=np.float64)
        words = np.arange(len(table))
        probs = np.zeros(len(table))
        for flips in itertools.product((0, 1), repeat=self.arity):
            weight = 1.0
            for z in flips:
                weight *= d if z else 1.0 - d
            probs += weight * table[words ^ sum(z << i for i, z in enumerate(flips))]
        return probs


MAJ3 = Gate.from_function("MAJ3", 3, lambda a, b, c: int(a + b + c >= 2))
AND2 = Gate.from_function("AND", 2, lambda a, b: a & b)
OR2 = Gate.from_function("OR", 2, lambda a, b: a | b)
XOR2 = Gate.from_function("XOR", 2, lambda a, b: a ^ b)
NAND2 = Gate.from_function("NAND", 2, lambda a, b: 1 - (a & b))
IDENTITY = Gate.from_function("IDENTITY", 1, lambda a: a)


def convolve(sigma, delta):
    """Probability that a Bernoulli(sigma) bit survives a BSC(delta) as 1.

    Internal and unchecked, so it is not exported: the constants are
    integers, so the same code evaluates floats, arrays, ``Fraction``s and
    polynomials, which no range check could take.  Its callers are
    ``sigma._stage_g`` and ``sigma.exact_chain``'s kernel grid, and every
    public entry point above them passes its delta through ``as_delta``.
    """
    return sigma * (1 - delta) + delta * (1 - sigma)


@dataclass(frozen=True)
class LayerSchedule:
    """Layer-size rule L_k with L_0 = 1.

    kinds: ``const`` (value c), ``linear`` (k+1), ``log`` (ceil(c*ln(k+2))),
    ``list`` (explicit sizes for k >= 1).
    """

    kind: str
    param: float = 0.0
    sizes: tuple[int, ...] = ()

    @staticmethod
    def constant(c: int) -> "LayerSchedule":
        if c < 1:
            raise ValueError("constant layer size must be >= 1")
        return LayerSchedule("const", float(c))

    @staticmethod
    def linear() -> "LayerSchedule":
        return LayerSchedule("linear")

    @staticmethod
    def logarithmic(c: float) -> "LayerSchedule":
        if not 0 < c < math.inf:  # NaN too
            raise ValueError(f"log schedule coefficient must be positive and finite, got {c}")
        return LayerSchedule("log", float(c))

    @staticmethod
    def explicit(sizes: Iterable[int]) -> "LayerSchedule":
        t = tuple(int(s) for s in sizes)
        if any(s < 1 for s in t):
            raise ValueError("explicit layer sizes must be >= 1")
        return LayerSchedule("list", 0.0, t)

    @staticmethod
    def parse(spec: str) -> "LayerSchedule":
        """Parse specs like ``const:64``, ``linear``, ``log:10``, ``list:1,2,4``."""
        head, sep, rest = spec.strip().partition(":")
        if head == "const":
            return LayerSchedule.constant(int(rest))
        if head == "linear":
            if sep:
                raise ValueError(f"linear schedule takes no parameter, got {spec!r}")
            return LayerSchedule.linear()
        if head == "log":
            return LayerSchedule.logarithmic(float(rest))
        if head == "list":
            return LayerSchedule.explicit(int(x) for x in rest.split(","))
        raise ValueError(f"unknown schedule spec {spec!r}")

    def size(self, k: int) -> int:
        if k < 0:
            raise ValueError("level must be >= 0")
        if k == 0:
            return 1
        if self.kind == "const":
            return int(self.param)
        if self.kind == "linear":
            return k + 1
        if self.kind == "log":
            if (size := self.param * math.log(k + 2)) == math.inf:
                raise ValueError(f"log schedule size overflows at level {k}")
            return max(1, math.ceil(size))
        if k - 1 >= len(self.sizes):
            raise ValueError(f"explicit schedule has no size for level {k}")
        return self.sizes[k - 1]


@dataclass(frozen=True)
class DagRealization:
    """A sampled finite DAG: per level, each node's d parent indices."""

    depth: int
    d: int
    layer_sizes: tuple[int, ...]
    parents: tuple[np.ndarray, ...]  # parents[k-1] has shape (L_k, d)
    seed: int

    def __post_init__(self) -> None:
        if len(self.layer_sizes) != self.depth + 1 or self.layer_sizes[0] != 1:
            raise ValueError("layer_sizes must cover levels 0..depth with L_0 = 1")
        if len(self.parents) != self.depth:
            raise ValueError("parents must cover levels 1..depth")
        for k in range(1, self.depth + 1):
            arr = self.parents[k - 1]
            if arr.shape != (self.layer_sizes[k], self.d):
                raise ValueError(f"parent array at level {k} has wrong shape")
            if arr.min(initial=0) < 0 or arr.max(initial=0) >= self.layer_sizes[k - 1]:
                raise ValueError(f"parent index out of range at level {k}")


def sample_random_dag(seed: int, d: int, schedule: LayerSchedule, depth: int) -> DagRealization:
    """Sample parent indices i.i.d. uniform with replacement, per node and slot."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if d < 1:
        raise ValueError("d must be >= 1")
    sizes = tuple(schedule.size(k) for k in range(depth + 1))
    parents = []
    for k in range(1, depth + 1):
        u = uniforms(derive_seed(seed, TAG_DAG, k), sizes[k] * d).reshape(sizes[k], d)
        parents.append(np.minimum((u * sizes[k - 1]).astype(np.int64), sizes[k - 1] - 1))
    return DagRealization(depth, d, sizes, tuple(parents), seed)


def propagate_many(
    dag: DagRealization,
    gates: "Gate | Callable[[int], Gate]",
    delta: float,
    roots: np.ndarray,
    seed: int,
) -> np.ndarray:
    """Simulate many independent broadcasts on one fixed DAG.

    ``gates`` is one gate or a function from level k to its gate, and
    ``roots`` a 1-D bit array, one entry per trial.  Returns the final
    level's bits with shape (trials, L_depth).  Every edge feeds exactly one
    node and the edge noises are independent, so given level k - 1 the
    nodes of level k are independent: a node is 1 with probability
    ``gate.noisy_output_probs(delta)[w]`` for the word w of its noiseless
    parent bits, and is one Bernoulli draw of ``uniforms`` against that
    probability (``below=`` the gate's table ``at=`` the words).  The draws
    do not depend on the bits, so calls that differ only in ``roots`` are
    coupled.  Noise comes from one derived counter stream per level,
    so the result is a pure function of (dag, gates, delta, roots, seed).

    Node v of trial t at level k owns position t * L_k + v of the level's stream.
    The level below is kept node-major, so a parent gather copies whole rows;
    a level is drawn trial-major (``at=`` the words transposed), then transposed.
    """
    dval = as_delta(delta, noiseless_ok=True)
    gate_at = (lambda k: gates) if isinstance(gates, Gate) else gates
    trials = len(roots)
    probs: dict[Gate, np.ndarray] = {}
    drawn = np.asarray(roots, dtype=np.uint8).reshape(trials, 1)
    for k in range(1, dag.depth + 1):
        gate = gate_at(k)
        if gate.arity != dag.d:
            raise ValueError(f"gate arity {gate.arity} != dag degree {dag.d} at level {k}")
        if gate not in probs:
            probs[gate] = gate.noisy_output_probs(dval)
        parents = dag.parents[k - 1]
        bits = np.ascontiguousarray(drawn.T)
        word = bits.take(parents[:, 0], axis=0).astype(np.min_scalar_type((1 << gate.arity) - 1), copy=False)
        for i in range(1, gate.arity):
            word |= np.left_shift(bits.take(parents[:, i], axis=0), i, dtype=word.dtype)
        drawn = bits = None  # free the level below before the draw
        drawn = uniforms(derive_seed(seed, TAG_TRIAL, k), word.T.shape, below=probs[gate], at=word.T).view(np.uint8)
    return drawn
