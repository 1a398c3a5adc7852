"""Core broadcast model: channels, gates, layer schedules, random DAGs.

A single root bit is propagated level by level.  Every node at level k
picks d parents at the previous level (with replacement), reads each
parent bit through an independent binary symmetric channel with
crossover probability delta, and applies a Boolean gate to the noisy
inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .rng import derive_seed, uniform_matrix
# unused here, but perfbench/test_bench.py checks that the tracer wraps model.uniforms
from .rng import uniforms  # noqa: F401

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
    "convolve",
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


MAJ3 = Gate.from_function("MAJ3", 3, lambda a, b, c: int(a + b + c >= 2))
AND2 = Gate.from_function("AND", 2, lambda a, b: a & b)
OR2 = Gate.from_function("OR", 2, lambda a, b: a | b)
XOR2 = Gate.from_function("XOR", 2, lambda a, b: a ^ b)
NAND2 = Gate.from_function("NAND", 2, lambda a, b: 1 - (a & b))
IDENTITY = Gate.from_function("IDENTITY", 1, lambda a: a)


def convolve(sigma: float, delta: float) -> float:
    """Probability that a Bernoulli(sigma) bit survives a BSC(delta) as 1."""
    d = as_delta(delta, noiseless_ok=True)
    if np.isscalar(sigma) and not 0.0 <= sigma <= 1.0:
        raise ValueError("sigma must lie in [0, 1]")
    return sigma * (1.0 - d) + d * (1.0 - sigma)


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
        if c <= 0:
            raise ValueError("log schedule coefficient must be positive")
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
        head, _, rest = spec.strip().partition(":")
        if head == "const":
            return LayerSchedule.constant(int(rest))
        if head == "linear":
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
            return max(1, math.ceil(self.param * math.log(k + 2)))
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
        level_seed = derive_seed(seed, TAG_DAG, k)
        u = uniform_matrix(level_seed, (sizes[k], d))
        parents.append(np.minimum((u * sizes[k - 1]).astype(np.int64), sizes[k - 1] - 1))
    return DagRealization(depth, d, sizes, tuple(parents), seed)


def _gate_schedule(gates: "Gate | Sequence[Gate] | Callable[[int], Gate]") -> Callable[[int], Gate]:
    if isinstance(gates, Gate):
        return lambda k: gates
    if callable(gates):
        return gates
    seq = list(gates)
    return lambda k: seq[k - 1]


def _apply_gate_vec(gate: Gate, noisy: np.ndarray) -> np.ndarray:
    """Apply a gate to noisy parent bits of shape (..., d)."""
    word = np.zeros(noisy.shape[:-1], dtype=np.int64)
    for i in range(gate.arity):
        word |= noisy[..., i].astype(np.int64) << i
    return np.asarray(gate.table, dtype=np.uint8)[word]


def propagate_many(
    dag: DagRealization,
    gates: "Gate | Sequence[Gate] | Callable[[int], Gate]",
    delta: float,
    roots: np.ndarray,
    seed: int,
) -> np.ndarray:
    """Simulate many independent broadcasts on one fixed DAG.

    ``roots`` is a 1-D bit array, one entry per trial.  Returns the final
    level's bits with shape (trials, L_depth).  Each edge is a BSC(delta)
    drawn as copy-or-refresh: with probability 2*delta the parent bit is
    replaced by a fair bit, else copied.  The draws do not depend on the
    bits, so calls that differ only in ``roots`` are coupled.  Noise comes
    from one derived counter stream per level, partitioned across trials,
    so the result is a pure function of (dag, gates, delta, roots, seed).
    """
    dval = as_delta(delta, noiseless_ok=True)
    gate_at = _gate_schedule(gates)
    trials = len(roots)
    bits = np.asarray(roots, dtype=np.uint8).reshape(trials, 1)
    for k in range(1, dag.depth + 1):
        gate = gate_at(k)
        if gate.arity != dag.d:
            raise ValueError(f"gate arity {gate.arity} != dag degree {dag.d} at level {k}")
        par = dag.parents[k - 1]
        lk = dag.layer_sizes[k]
        u = uniform_matrix(derive_seed(seed, TAG_TRIAL, k), (trials, lk, dag.d, 2))
        fresh = u[..., 0] < 2.0 * dval
        fair = (u[..., 1] < 0.5).astype(np.uint8)
        noisy = np.where(fresh, fair, bits[:, par])
        bits = _apply_gate_vec(gate, noisy).astype(np.uint8)
    return bits
