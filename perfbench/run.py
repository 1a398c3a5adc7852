"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload chain_exact --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports ``dagbroadcast`` from that
checkout's ``src/``.  It times ``SETUP_RUNS`` fresh set-up processes, then
one fresh process that runs the workload for ``--seconds`` (see
``worker.py``).  It prints the run's facts as one JSON line, then, as the
last line, the result: with ``--trace 0`` the end-to-end metrics, with
``--trace 1`` the per-layer metrics.  The full record goes to
``perfbench/out/``.  Any failure to run exits non-zero without a result.

This process imports no numpy, so its own cost stays out of the numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = HERE / "out"
WORKLOADS = ("chain_exact", "monte_carlo", "grid_gf2")
SETUP_RUNS = 5
DEADLINE_S = 170.0


def worker(args: list[str], timeout: float) -> str:
    """Run the worker to completion and return its standard output."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return proc.stdout


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or "unknown"


def cpu_facts() -> dict:
    facts = {"nproc": os.cpu_count(), "cpu_model": "unknown"}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            facts["cpu_model"] = next(
                line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            facts[f"L{level}_cache"] = size
    return facts


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    begin = time.perf_counter()

    def remaining() -> float:
        return DEADLINE_S - (time.perf_counter() - begin)

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setup = []
        for _ in range(SETUP_RUNS):
            start = time.perf_counter()
            worker([*common, "--setup-only"], remaining())
            setup.append(time.perf_counter() - start)
        out = worker([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], remaining())
        record = json.loads(out.strip().splitlines()[-1])
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    record["setup_s"] = setup
    record["facts"].update(cpu_facts(), src_lines=src_lines(), commit=git_commit(), seed=args.seed)
    passes = record["pass_s"]
    record["wall_s"] = {"median": statistics.median(passes), "max": max(passes), "passes": len(passes)}
    if args.trace:
        metrics = dict(record["layers"])
        metrics["trace.overhead_ratio"] = {"value": record["overhead_ratio"], "unit": "ratio"}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(passes), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        }
    attempted, failed = record["attempted"], len(record["failed"])
    record["fail_frac"] = failed / attempted
    OUT_DIR.mkdir(exist_ok=True)
    detail = OUT_DIR / f"run-{args.workload}-{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for name in record["failed"]:
        print(f"check failed: {name}", file=sys.stderr)
    print(json.dumps({"facts": record["facts"], "fail_frac": record["fail_frac"], "record": str(detail.relative_to(ROOT))}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
