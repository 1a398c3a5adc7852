"""Per-layer tracing of the library from outside it.

A layer is one ``dagbroadcast`` module.  ``Tracer.installed()`` wraps the
public functions named in ``TARGETS`` and puts each wrapper wherever the
original function object is bound: in its own module and in every module
that imported it by name (``from .rng import uniforms``).  Leaving the
block puts every original back.

Each wrapped call records a span (name, start, end, parent span) and the
work it did (draws, kernel entries, ...), kept in memory.  The hot
``BitMatrix.column`` method is only counted, since a span per call would
dominate the time it measures.  ``layer_metrics`` turns one pass's spans
into the per-layer numbers; a layer's self time is its spans' duration
minus the duration of their direct child spans.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

PACKAGE = "dagbroadcast"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same pass, -1 at top level
    work: dict = field(default_factory=dict)


def _node_evals(args, kwargs, result) -> dict:
    dag = args[0] if args else kwargs["dag"]
    return {"node_evals": result.shape[0] * sum(dag.layer_sizes[1:])}


def _chain_work(args, kwargs, result) -> dict:
    # each level reads its (L_prev + 1) x (L + 1) float64 kernel twice,
    # once for the root=1 and once for the root=0 distribution
    read = sum(2 * 8 * (a.L + 1) * (b.L + 1) for a, b in zip(result, result[1:]))
    return {"levels": len(result) - 1, "apply_bytes": read}


def _dp_states(args, kwargs, result) -> dict:
    # level k multiplies a 2^k x 2^(k+1) block
    return {"states": sum((1 << k) * (1 << (k + 1)) for k in range(1, len(result)))}


def _csv_work(args, kwargs, result) -> dict:
    rows = args[0] if args else kwargs["rows"]
    return {"rows": len(rows), "bytes": len(result.encode("utf-8"))}


# (module, public function, work counter or None); spans are named module.function
TARGETS: tuple[tuple[str, str, Callable | None], ...] = (
    ("rng", "uniforms", lambda a, k, r: {"draws": r.size}),
    ("model", "propagate_many", _node_evals),
    ("model", "sample_random_dag", None),
    ("sigma", "binomial_pmf_table", lambda a, k, r: {"entries": r.size}),
    ("sigma", "exact_chain", _chain_work),
    ("sigma", "tv", None),
    ("sigma", "ml_error", None),
    ("sigma", "mutual_information", None),
    ("sigma", "coupled_mc", None),
    ("sigma", "quenched_error_estimate", None),
    ("grid", "grid_exact_distribution", _dp_states),
    ("grid", "grid_mc_tv_estimate", None),
    ("coupling", "coupled_grid_runs", None),
    ("coupling", "estimate_alpha", None),
    ("xorcode", "erasure_ml_fails", None),
    ("xorcode", "sample_erasure_pattern", None),
    ("xorcode", "build_Hk", None),
    ("cli", "run", None),
    ("cli", "rows_to_csv", _csv_work),
    ("cli", "threshold_bisect", None),
)

FUNCTIONALS = ("sigma.tv", "sigma.ml_error", "sigma.mutual_information")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.column_calls = 0
        self._stack: list[int] = []

    def _wrap(self, name: str, fn: Callable, work: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if work is not None:
                span.work = work(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every target while the block runs; restore the originals after."""
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        patched: list[tuple[object, str, object]] = []
        try:
            for module_name, func_name, work in TARGETS:
                original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], func_name)
                wrapper = self._wrap(f"{module_name}.{func_name}", original, work)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            patched.append((module, attr, original))
                            setattr(module, attr, wrapper)
            bitmatrix = sys.modules[f"{PACKAGE}.xorcode"].BitMatrix
            column = vars(bitmatrix)["column"]

            @functools.wraps(column)
            def counted_column(matrix, c):
                self.column_calls += 1
                return column(matrix, c)

            patched.append((bitmatrix, "column", column))
            bitmatrix.column = counted_column
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def take(self) -> tuple[list[Span], int]:
        """Hand over the spans and column count recorded so far, and reset."""
        if self._stack:
            raise RuntimeError("take() called inside a traced call")
        spans, calls = self.spans, self.column_calls
        self.spans, self.column_calls = [], 0
        return spans, calls


# metric name -> unit; the order is the order of the report
UNITS = {
    "rng.calls": "count",
    "rng.draws": "count",
    "rng.busy_s": "s",
    "rng.ns_per_draw": "ns",
    "model.propagate_many.self_s": "s",
    "model.node_evals": "count",
    "model.sample_dag.busy_s": "s",
    "sigma.kernel_build.calls": "count",
    "sigma.kernel_build.entries": "count",
    "sigma.kernel_build.busy_s": "s",
    "sigma.levels": "count",
    "sigma.kernel_cache.hit_ratio": "ratio",
    "sigma.exact_chain.self_s": "s",
    "sigma.kernel_apply.bytes": "bytes_computed",
    "sigma.functionals.busy_s": "s",
    "sigma.coupled_mc.self_s": "s",
    "sigma.quenched.self_s": "s",
    "grid.exact_dp.busy_s": "s",
    "grid.exact_dp.states": "count",
    "grid.mc_tv.self_s": "s",
    "coupling.coupled_grid.self_s": "s",
    "coupling.percolation.self_s": "s",
    "xorcode.ml_fails.calls": "count",
    "xorcode.ml_fails.busy_s": "s",
    "xorcode.column.calls": "count",
    "xorcode.sample_pattern.self_s": "s",
    "xorcode.build_Hk.busy_s": "s",
    "cli.run.self_s": "s",
    "cli.csv.busy_s": "s",
    "cli.csv.rows": "count",
    "cli.csv.bytes": "bytes",
    "cli.bisect.evals": "count",
}

COUNTS = tuple(name for name, unit in UNITS.items() if unit in ("count", "bytes", "bytes_computed"))


def layer_metrics(spans: list[Span], column_calls: int) -> dict[str, float]:
    """Per-layer numbers of one pass, from its spans."""
    duration = [s.end - s.start for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            child_time[s.parent] += duration[i]

    def indices(*names: str) -> list[int]:
        return [i for i, s in enumerate(spans) if s.name in names]

    def inside(i: int, names: tuple[str, ...]) -> bool:
        p = spans[i].parent
        while p >= 0:
            if spans[p].name in names:
                return True
            p = spans[p].parent
        return False

    def busy(*names: str) -> float:
        return sum(duration[i] for i in indices(*names) if not inside(i, names))

    def self_time(name: str) -> float:
        return sum(duration[i] - child_time[i] for i in indices(name))

    def work(name: str, key: str) -> int:
        return sum(spans[i].work[key] for i in indices(name))

    draws = work("rng.uniforms", "draws")
    builds = len(indices("sigma.binomial_pmf_table"))
    levels = work("sigma.exact_chain", "levels")
    csv_name = "cli.rows_to_csv"
    metrics = {
        "rng.calls": len(indices("rng.uniforms")),
        "rng.draws": draws,
        "rng.busy_s": busy("rng.uniforms"),
        "rng.ns_per_draw": busy("rng.uniforms") / draws * 1e9 if draws else 0.0,
        "model.propagate_many.self_s": self_time("model.propagate_many"),
        "model.node_evals": work("model.propagate_many", "node_evals"),
        "model.sample_dag.busy_s": busy("model.sample_random_dag"),
        "sigma.kernel_build.calls": builds,
        "sigma.kernel_build.entries": work("sigma.binomial_pmf_table", "entries"),
        "sigma.kernel_build.busy_s": busy("sigma.binomial_pmf_table"),
        "sigma.levels": levels,
        "sigma.kernel_cache.hit_ratio": 1.0 - builds / levels if levels else 0.0,
        "sigma.exact_chain.self_s": self_time("sigma.exact_chain"),
        "sigma.kernel_apply.bytes": work("sigma.exact_chain", "apply_bytes"),
        "sigma.functionals.busy_s": busy(*FUNCTIONALS),
        "sigma.coupled_mc.self_s": self_time("sigma.coupled_mc"),
        "sigma.quenched.self_s": self_time("sigma.quenched_error_estimate"),
        "grid.exact_dp.busy_s": busy("grid.grid_exact_distribution"),
        "grid.exact_dp.states": work("grid.grid_exact_distribution", "states"),
        "grid.mc_tv.self_s": self_time("grid.grid_mc_tv_estimate"),
        "coupling.coupled_grid.self_s": self_time("coupling.coupled_grid_runs"),
        "coupling.percolation.self_s": self_time("coupling.estimate_alpha"),
        "xorcode.ml_fails.calls": len(indices("xorcode.erasure_ml_fails")),
        "xorcode.ml_fails.busy_s": busy("xorcode.erasure_ml_fails"),
        "xorcode.column.calls": column_calls,
        "xorcode.sample_pattern.self_s": self_time("xorcode.sample_erasure_pattern"),
        "xorcode.build_Hk.busy_s": busy("xorcode.build_Hk"),
        "cli.run.self_s": self_time("cli.run"),
        "cli.csv.busy_s": busy(csv_name),
        "cli.csv.rows": work(csv_name, "rows"),
        "cli.csv.bytes": work(csv_name, "bytes"),
        "cli.bisect.evals": sum(1 for i in indices("sigma.exact_chain") if inside(i, ("cli.threshold_bisect",))),
    }
    return metrics


def summarize(passes: list[dict[str, float]]) -> tuple[dict[str, float], bool]:
    """Median of each time over the traced passes; counts must not vary."""
    summary = {}
    counts_repeat = True
    for name in UNITS:
        values = [p[name] for p in passes]
        if name in COUNTS:
            counts_repeat &= len(set(values)) == 1
            summary[name] = values[0]
        else:
            summary[name] = statistics.median(values)
    return summary, counts_repeat
