"""Run one workload in this process and print what it measured as JSON.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload W --seed N --setup-only

``run.py`` starts this script; it is not the benchmark's entry point.
Set-up is the import, building the inputs from the seed and one warm-up
pass at tiny sizes.  After one uncounted full pass, full passes repeat
until ``--seconds`` have passed, and each pass's outputs are checked after its timer stops.  With ``--trace 1`` untraced and traced passes alternate,
which gives the tracing overhead; the spans are written to
``perfbench/out/`` when the run ends.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import platform
import resource
import statistics
import sys
import time

import tracing
import workloads


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS will use, or None if there is none."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def library_facts() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": blas_threads(),
    }


def measure(workload, inputs: dict, reference: dict, seconds: float, tracer=None) -> dict:
    """Run passes until ``seconds`` have passed, checking each pass's outputs.

    With a tracer, untraced and traced passes alternate, so both kinds see
    the same state of the machine and the overhead ratio compares like
    with like.
    """
    untraced: list[float] = []
    traced: list[float] = []
    spans_per_pass: list[list] = []
    layers_per_pass: list[dict] = []
    attempted = 0
    failed: list[str] = []
    begin = time.perf_counter()
    while not untraced or (tracer and not traced) or time.perf_counter() - begin < seconds:
        tracing_this = tracer is not None and len(untraced) > len(traced)
        with tracer.installed() if tracing_this else contextlib.nullcontext():
            start = time.perf_counter()
            out = workload.run(inputs)
            elapsed = time.perf_counter() - start
        if tracing_this:
            traced.append(elapsed)
            spans, column_calls = tracer.take()
            spans_per_pass.append(spans)
            layers_per_pass.append(tracing.layer_metrics(spans, column_calls))
        else:
            untraced.append(elapsed)
        checks = workload.check(inputs, out, reference)
        attempted += len(checks)
        failed.extend(name for name, ok in checks if not ok)
    return {
        "untraced": untraced,
        "traced": traced,
        "spans": spans_per_pass,
        "layers": layers_per_pass,
        "attempted": attempted,
        "failed": failed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed, False)
    workload.run(workload.make_inputs(args.seed, True))
    if args.setup_only:
        return 0

    reference = workloads.load_reference()
    # the first full pass pays one-off costs (page faults as the kernel
    # cache grows, lazy imports); it is recorded but not counted
    start = time.perf_counter()
    workload.run(inputs)
    first_pass = time.perf_counter() - start
    result = measure(workload, inputs, reference, args.seconds, tracing.Tracer() if args.trace else None)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs": inputs,
        "facts": library_facts(),
        "first_pass_s": first_pass,
        "pass_s": result["untraced"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        layers, counts_repeat = tracing.summarize(result["layers"])
        record["attempted"] += 1
        if not counts_repeat:
            record["failed"].append("work counts repeat in every traced pass")
        record["traced_pass_s"] = result["traced"]
        record["overhead_ratio"] = statistics.median(result["traced"]) / statistics.median(result["untraced"])
        record["layers"] = {name: {"value": v, "unit": tracing.UNITS[name]} for name, v in layers.items()}
        record["span_file"] = write_spans(args.workload, args.seed, result["spans"])
    print(json.dumps(record))
    return 0


def write_spans(workload: str, seed: int, passes: list[list]) -> str:
    """One JSON line per span: pass, name, start and end, parent, work.

    Times are seconds from the pass's first span; parent indexes the
    spans of the same pass, -1 at top level.
    """
    path = workloads.OUT_DIR / f"spans-{workload}-{seed}.jsonl"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for number, spans in enumerate(passes):
            origin = spans[0].start if spans else 0.0
            for s in spans:
                fh.write(json.dumps([number, s.name, s.start - origin, s.end - origin, s.parent, s.work]) + "\n")
    return str(path.relative_to(workloads.ROOT))


if __name__ == "__main__":
    sys.exit(main())
