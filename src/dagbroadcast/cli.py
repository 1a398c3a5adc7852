"""Experiment orchestration and command-line interface.

Configurations are flat key=value text files (CLI flags override file
values).  Every subcommand that writes rows turns its flags into one
ExperimentConfig and hands it to ``run``, the only code that builds rows
and writes a CSV.  Results are written as CSV with a fixed, sorted schema
so that reruns with the same config and seed produce byte-identical
output.

Exit codes: 0 success, 2 configuration error, 3 budget exceeded.
The master seed is --seed, else the config file's seed, else the
environment variable NBL_SEED, else 0.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import bounds as bounds_mod
from . import coupling as coupling_mod
from . import grid as grid_mod
from . import sigma as sigma_mod
from . import xorcode as xorcode_mod
from .model import AND2, IDENTITY, NAND2, OR2, XOR2, BudgetExceededError, LayerSchedule
from .stats import wilson_interval

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ResultRow",
    "run",
    "threshold_bisect",
    "main",
]

METRICS = (
    "tv_exact",
    "tv_mc",
    "ml_error",
    "mi_bits",
    "coalesce_prob",
    "erasure_fail",
    "bound_value",
)

CSV_HEADER = [
    "model",
    "delta",
    "k",
    "L_k",
    "metric",
    "value",
    "ci_low",
    "ci_high",
    "seed",
    "trials",
]

DEFAULT_BUDGET = 4096

GRID_GATES = {"and": AND2, "or": OR2, "xor": XOR2, "nand": NAND2}


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _require(ok: bool, field: str, message: str) -> None:
    if not ok:
        raise ConfigError(f"field {field}: {message}")


def _require_delta(value: float, field: str, model: str = "") -> None:
    """Crossover probabilities lie in (0, 1/2); percolation's p lies in [0, 1]."""
    if model == "percolation":
        _require(0.0 <= value <= 1.0, field, f"{value} out of range [0, 1]")
    else:
        _require(0.0 < value < 0.5, field, f"{value} out of range (0, 1/2)")


def _parse_schedule(text: str) -> LayerSchedule:
    try:
        return LayerSchedule.parse(text)
    except ValueError as exc:
        raise ConfigError(f"field schedule: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: model, parameter sweep, sizes, seed, output path.

    For the ``percolation`` model the delta fields carry the edge-open
    probability p (and may therefore exceed 1/2).  ``trials > 0`` adds the
    model's Monte Carlo rows to its exact ones; ``grid-and-couple`` and
    ``percolation`` are Monte Carlo only and need ``trials >= 1``.
    """

    model: str = "random-dag-maj3"
    delta_start: float = 0.1
    delta_stop: float = 0.1
    delta_count: int = 1
    depth: int = 50
    schedule: str = "const:64"
    trials: int = 0
    seed: int = 0
    out: str = ""
    budget: int = DEFAULT_BUDGET
    tv_epsilon: float = 0.01
    d: int = 3

    def validate(self) -> None:
        if self.model not in MODELS:
            raise ConfigError(f"field model: unknown model {self.model!r}")
        if self.delta_count < 1:
            raise ConfigError("field delta_count: must be >= 1")
        for name in ("delta_start", "delta_stop"):
            _require_delta(getattr(self, name), name, self.model)
        if self.depth < 1:
            raise ConfigError("field depth: must be >= 1")
        if self.trials < 0:
            raise ConfigError("field trials: must be >= 0")
        if self.model in _MC_MODELS and self.trials < 1:
            raise ConfigError(f"field trials: must be >= 1 for the Monte Carlo model {self.model}")
        if self.budget < 1:
            raise ConfigError("field budget: must be >= 1")
        if self.d < 1:
            raise ConfigError("field d: must be >= 1")
        _parse_schedule(self.schedule)

    def deltas(self) -> np.ndarray:
        if self.delta_count == 1:
            return np.array([self.delta_start])
        return np.linspace(self.delta_start, self.delta_stop, self.delta_count)


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"field config: {exc}") from None


def _fields_of_text(text: str) -> dict:
    """The typed field values a config text sets, without defaults."""
    kwargs = {}
    types = {
        f.name: (f.type if isinstance(f.type, str) else f.type.__name__)
        for f in fields(ExperimentConfig)
    }
    casts = {"float": float, "int": int, "str": str}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in types:
            raise ConfigError(f"line {lineno}: unknown field {key!r}")
        try:
            kwargs[key] = casts[types[key]](value.strip())
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: field {key}: {exc}") from exc
    return kwargs


@dataclass(frozen=True)
class ResultRow:
    model: str
    delta: float
    k: int
    L_k: int
    metric: str
    value: float
    ci_low: float
    ci_high: float
    seed: int
    trials: int

    def __post_init__(self) -> None:
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")
        if not (self.ci_low <= self.value <= self.ci_high) and not math.isnan(self.value):
            raise ValueError("value must lie inside its confidence interval")


def _exact_row(model, delta, k, L_k, metric, value, seed):
    return ResultRow(model, float(delta), k, L_k, metric, float(value), float(value), float(value), seed, 0)


def _wilson_row(model, delta, k, L_k, metric, successes, trials, seed):
    lo, hi = wilson_interval(successes, trials)
    return ResultRow(model, float(delta), k, L_k, metric, successes / trials, lo, hi, seed, trials)


def rows_to_csv(rows: list[ResultRow]) -> str:
    """Serialize rows deterministically (sorted, LF endings, repr floats)."""
    ordered = sorted(rows, key=lambda r: (r.model, r.delta, r.k, r.metric))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in ordered:
        writer.writerow(
            [r.model, repr(r.delta), r.k, r.L_k, r.metric, repr(r.value), repr(r.ci_low), repr(r.ci_high), r.seed, r.trials]
        )
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Experiment drivers


def _run_dag_model(config: ExperimentConfig) -> tuple[list[ResultRow], list[str]]:
    """Exact chain rows, plus coupled-chain rows P(T > k) when trials > 0.

    The coupled chains share their uniforms, so once sigma+ = sigma- they
    stay equal: the fraction of unequal pairs at level k estimates P(T > k),
    an upper bound on TV(k).
    """
    model = config.model.removeprefix("random-dag-")
    schedule = LayerSchedule.parse(config.schedule)
    rows: list[ResultRow] = []
    finals: list[tuple[float, float]] = []
    coupled: list[str] = []
    dropped = 0.0
    for delta in config.deltas():
        chain = sigma_mod.exact_chain(model, float(delta), schedule, config.depth, config.budget)
        dropped = max(dropped, chain[-1].dropped)
        report_levels = [
            d for d in chain[1:] if model == "maj3" or d.level % 2 == 0
        ]
        for dist in report_levels:
            t = sigma_mod.tv(dist)
            rows.append(_exact_row(config.model, delta, dist.level, dist.L, "tv_exact", t, config.seed))
            rows.append(_exact_row(config.model, delta, dist.level, dist.L, "ml_error", sigma_mod.ml_error(dist), config.seed))
            rows.append(
                _exact_row(config.model, delta, dist.level, dist.L, "mi_bits", sigma_mod.mutual_information(dist), config.seed)
            )
        finals.append((float(delta), sigma_mod.tv(report_levels[-1])))
        if config.trials > 0:
            stats = sigma_mod.coupled_mc(model, float(delta), schedule, config.depth, config.trials, config.seed)
            coupled.append(
                f"coupled chains: model={model} delta={float(delta):g} trials={config.trials} "
                f"monotone_fraction={stats.monotone_fraction:.6f}"
            )
            for k, p, gap, sem in zip(stats.levels, stats.prob_unequal, stats.mean_gap, stats.sem_gap):
                k = int(k)
                unequal = round(p * config.trials)
                rows.append(
                    _wilson_row(config.model, delta, k, schedule.size(k), "coalesce_prob", unequal, config.trials, config.seed)
                )
                coupled.append(f"  k={k:3d} P(unequal)={p:.4f} E[gap]={gap:.6f} (sem {sem:.2g})")
    summary = [
        f"{config.model}: exact chain to depth {config.depth}, schedule {config.schedule}",
        f"banded kernels: TV within {dropped:.3g} of the untruncated chain at every level",
    ]
    crossing = next((d for d, t in finals if t < config.tv_epsilon), None)
    if crossing is not None:
        below = [d for d, t in finals if t >= config.tv_epsilon and d < crossing]
        lo = max(below) if below else None
        if lo is not None:
            summary.append(
                f"threshold crossing: final-level TV drops below {config.tv_epsilon} "
                f"between delta={lo:g} and delta={crossing:g}"
            )
        else:
            summary.append(f"final-level TV already below {config.tv_epsilon} at delta={crossing:g}")
    else:
        summary.append(f"no crossing: final-level TV stays >= {config.tv_epsilon} on the sweep")
    return rows, summary + coupled


def _run_grid_model(config: ExperimentConfig) -> tuple[list[ResultRow], list[str]]:
    f1 = GRID_GATES[config.model.removeprefix("grid-")]
    rows: list[ResultRow] = []
    dp_depth = min(config.depth, grid_mod.DEFAULT_DEPTH_CAP)
    summary = [f"{config.model}: exact DP to depth {dp_depth}"]
    if dp_depth < config.depth:
        note = (
            f"requested depth {config.depth} exceeds the exact-DP cap; "
            f"exact and MC rows reach depth {dp_depth} only"
        )
        print(f"warning: {note}", file=sys.stderr)
        summary.append(note)
    for delta in config.deltas():
        dists = grid_mod.grid_exact_distribution(f1, IDENTITY, float(delta), dp_depth)
        for dist in dists:
            tv, ml = dist.tv(), dist.ml_error()
            rows.append(_exact_row(config.model, delta, dist.level, dist.level + 1, "tv_exact", tv, config.seed))
            rows.append(_exact_row(config.model, delta, dist.level, dist.level + 1, "ml_error", ml, config.seed))
            summary.append(f"  k={dist.level:2d} tv={tv:.8f} ml_error={ml:.8f}")
        if config.trials > 0:
            for est in grid_mod.grid_mc_tv_estimate(f1, IDENTITY, float(delta), dp_depth, config.trials, config.seed):
                rows.append(
                    ResultRow(
                        config.model,
                        float(delta),
                        est.level,
                        est.level + 1,
                        "tv_mc",
                        est.tv,
                        max(0.0, est.tv - 3 * est.dev),
                        min(1.0, est.tv + 3 * est.dev),
                        config.seed,
                        config.trials,
                    )
                )
                summary.append(f"  k={est.level:2d} tv_mc={est.tv:.6f} (+/- 3*{est.dev:.6f})")
        if config.model == "grid-xor" and config.trials > 0:
            est = xorcode_mod.erasure_mc_error_bound(config.depth, float(delta), config.trials, config.seed)
            rows.append(
                ResultRow(
                    config.model,
                    float(delta),
                    config.depth,
                    config.depth + 1,
                    "erasure_fail",
                    est.failure_freq,
                    2 * est.ci_low,
                    2 * est.ci_high,
                    config.seed,
                    config.trials,
                )
            )
            summary.append(
                f"delta={float(delta):g}: erasure failure frequency {est.failure_freq:.4f} at k={config.depth} "
                f"(ML error lower bound {est.error_bound:.4f})"
            )
    return rows, summary


def _run_coupling_model(config: ExperimentConfig) -> tuple[list[ResultRow], list[str]]:
    rows: list[ResultRow] = []
    summary: list[str] = []
    for delta in config.deltas():
        bound = coupling_mod.coupling_tv_bound(float(delta), config.depth, config.trials, config.seed)
        for k in bound.levels:
            rows.append(
                ResultRow(
                    "grid-and",
                    float(delta),
                    int(k),
                    int(k) + 1,
                    "coalesce_prob",
                    float(bound.bound[k]),
                    float(bound.ci_low[k]),
                    float(bound.ci_high[k]),
                    config.seed,
                    config.trials,
                )
            )
        frac = float(bound.bound[-1])
        summary.append(
            f"delta={float(delta):g}: P(T > {config.depth}) = {frac:.4f} over {config.trials} coupled runs"
        )
    return rows, summary


def _run_percolation(config: ExperimentConfig) -> tuple[list[ResultRow], list[str]]:
    rows: list[ResultRow] = []
    summary: list[str] = []
    for p in config.deltas():
        est = coupling_mod.estimate_alpha(float(p), config.depth, config.trials, config.seed)
        rows.append(
            _wilson_row("percolation", p, config.depth, config.depth + 1, "bound_value", est.surviving, config.trials, config.seed)
        )
        if est.surviving:
            summary.append(
                f"p={float(p):g}: survival {est.surviving / config.trials:.3f}, alpha estimate {est.alpha:.4f} "
                f"(+/- {est.std:.4f} across {est.surviving} surviving runs)"
            )
        else:
            summary.append(f"p={float(p):g}: no run survived to depth {config.depth}")
    return rows, summary


def _run_bounds(config: ExperimentConfig) -> tuple[list[ResultRow], list[str]]:
    schedule = LayerSchedule.parse(config.schedule)
    rows: list[ResultRow] = []
    summary = [
        f"bounds: d={config.d}, delta_es={bounds_mod.delta_es(config.d):.5f}, "
        f"bond_bound={bounds_mod.bond_bound(config.d):.5f}"
    ]
    for delta in config.deltas():
        for k in range(config.depth + 1):
            val = bounds_mod.evans_schulman(schedule.size(k), float(delta), config.d, k)
            rows.append(_exact_row("bounds", delta, k, schedule.size(k), "bound_value", val, config.seed))
        if config.depth >= 2:
            thr = bounds_mod.slow_growth_threshold(config.depth, config.d, float(delta))
            summary.append(f"slow-growth threshold at k={config.depth}: {thr:.4f} (L_k={schedule.size(config.depth)})")
    return rows, summary


_DRIVERS = {
    "random-dag-maj3": _run_dag_model,
    "random-dag-andor2": _run_dag_model,
    "grid-and": _run_grid_model,
    "grid-or": _run_grid_model,
    "grid-xor": _run_grid_model,
    "grid-nand": _run_grid_model,
    "grid-and-couple": _run_coupling_model,
    "percolation": _run_percolation,
    "bounds": _run_bounds,
}

MODELS = tuple(_DRIVERS)

# Models that only run Monte Carlo, so they need at least one trial.
_MC_MODELS = ("grid-and-couple", "percolation")


def run(config: ExperimentConfig) -> tuple[list[ResultRow], str]:
    """Execute a config, write CSV if requested, return rows and summary."""
    config.validate()
    rows, summary_lines = _DRIVERS[config.model](config)
    if config.out:
        with open(config.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(rows_to_csv(rows))
        summary_lines.append(f"wrote {len(rows)} rows to {config.out}")
    return rows, "\n".join(summary_lines)


# ---------------------------------------------------------------------------
# Threshold bisection


def threshold_bisect(
    model: str,
    schedule: LayerSchedule,
    depth: int,
    tol: float = 2e-3,
    cutoff: float = 0.01,
    delta_lo: float = 0.05,
    delta_hi: float = 0.45,
    budget: int = DEFAULT_BUDGET,
) -> tuple[float, float]:
    """Bisect delta on the criterion "final-level exact TV < cutoff".

    The exact chain's deep-level TV is (weakly) decreasing in delta, so
    the criterion is monotone and bisection brackets the crossing.  For
    the andor2 model the TV is read at the last even level.  Returns
    (lo, hi) with criterion False at lo and True at hi; if the criterion
    holds nowhere the bracket collapses to the upper end, and if it holds
    everywhere to the lower end.  The loop also stops once lo and hi are
    adjacent floats, so a tol below the float spacing still terminates.
    """

    def criterion(delta: float) -> bool:
        chain = sigma_mod.exact_chain(model, delta, schedule, depth, budget)
        dist = chain[-1]
        if model == sigma_mod.MODEL_ANDOR2 and dist.level % 2 == 1:
            dist = chain[-2]
        return sigma_mod.tv(dist) < cutoff

    if criterion(delta_lo):
        return (delta_lo, delta_lo)
    if not criterion(delta_hi):
        return (delta_hi, delta_hi)
    lo, hi = delta_lo, delta_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if criterion(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


# ---------------------------------------------------------------------------
# Command-line interface


# Flags several subcommands share; each subcommand takes only those it reads.
_SHARED_FLAGS = {
    "--seed": {"type": int, "help": "master seed (default: the config file's, else NBL_SEED, else 0)"},
    "--out": {"help": "CSV output path"},
    "--budget": {"type": int, "help": f"max layer size for exact kernels (default {DEFAULT_BUDGET})"},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dagbroadcast", description="Noisy broadcast on DAGs and grids: exact analysis and Monte Carlo.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, description: str, *shared: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=description)
        for flag in shared:
            p.add_argument(flag, **_SHARED_FLAGS[flag])
        return p

    p = add("fixed-points", "closed-form fixed points of the g-curve")
    p.add_argument("--model", choices=["maj3", "andor2"], required=True)
    p.add_argument("--delta", type=float, required=True)

    p = add("exact-chain", "exact conditional chain for one delta", "--seed", "--out", "--budget")
    p.add_argument("--model", choices=["maj3", "andor2"], required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--schedule", default="const:64")
    p.add_argument("--depth", type=int, default=50)

    p = add("mc-chain", "exact chain plus the coupled Monte Carlo bound P(T > k)", "--seed", "--out", "--budget")
    p.add_argument("--model", choices=["maj3", "andor2"], required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--schedule", default="const:64")
    p.add_argument("--depth", type=int, default=30)
    p.add_argument("--trials", type=int, default=1000)

    p = add("grid-exact", "exact 2D grid DP for a gate", "--seed", "--out")
    p.add_argument("--gate", choices=sorted(GRID_GATES), required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--depth", type=int, default=10)
    p.add_argument("--trials", type=int, default=0, help="also run the MC cross-check with this many trials")

    p = add("grid-and-couple", "coupled AND-grid coalescence bound", "--seed", "--out")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--depth", type=int, default=200)
    p.add_argument("--trials", type=int, default=1000)

    p = add("grid-xor", "XOR-grid parity-check certificates and erasure MC", "--seed")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--export-h", default="", help="write the parity-check matrix to this path")

    p = add("percolation", "oriented bond percolation diagnostics", "--seed", "--out")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--depth", type=int, default=300)
    p.add_argument("--trials", type=int, default=500)

    p = add("bounds", "closed-form impossibility bounds", "--seed", "--out")
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--depth", type=int, default=20)
    p.add_argument("--schedule", default="const:16")

    p = add("sweep", "run a config file (flags override fields)", "--seed", "--out", "--budget")
    p.add_argument("--config", default="")
    p.add_argument("--model", choices=MODELS)
    p.add_argument("--delta-start", type=float)
    p.add_argument("--delta-stop", type=float)
    p.add_argument("--delta-count", type=int)
    p.add_argument("--depth", type=int)
    p.add_argument("--schedule")
    p.add_argument("--trials", type=int)

    p = add("bisect", "bisect the reconstruction threshold", "--budget")
    p.add_argument("--model", choices=["maj3", "andor2"], required=True)
    p.add_argument("--schedule", default="const:128")
    p.add_argument("--depth", type=int, default=150)
    p.add_argument("--tol", type=float, default=2e-3)
    p.add_argument("--cutoff", type=float, default=0.01)
    p.add_argument("--delta-lo", type=float, default=0.05)
    p.add_argument("--delta-hi", type=float, default=0.45)

    return parser


def _env_seed() -> int:
    text = os.environ.get("NBL_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"field seed: NBL_SEED={text!r} is not an integer") from None


# Fields a row subcommand's flags set directly; argparse names each flag's
# value after its field.
_FLAG_FIELDS = ("delta_start", "delta_stop", "delta_count", "depth", "schedule", "trials", "seed", "out", "budget", "d")


def _config_of(args: argparse.Namespace) -> ExperimentConfig:
    """The one config a row subcommand runs: flag > config file > NBL_SEED > default."""
    if args.command == "sweep":
        values = _fields_of_text(_read_text(args.config)) if args.config else {}
        if args.model is not None:
            values["model"] = args.model
    else:
        if args.command in ("exact-chain", "mc-chain"):
            model = f"random-dag-{args.model}"
        elif args.command == "grid-exact":
            model = f"grid-{args.gate}"
        else:
            model = args.command
        flag = "p" if model == "percolation" else "delta"
        delta = getattr(args, flag)
        _require_delta(delta, flag, model)
        if args.command == "mc-chain":
            _require(args.trials >= 1, "trials", "must be >= 1")
        values = {"model": model, "delta_start": delta, "delta_stop": delta}
    for name in _FLAG_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            values[name] = value
    if "seed" not in values:
        values["seed"] = _env_seed()
    return ExperimentConfig(**values)


def _cmd_rows(args) -> int:
    _, summary = run(_config_of(args))
    print(summary)
    return 0


def _cmd_fixed_points(args) -> int:
    _require_delta(args.delta, "delta")
    report = sigma_mod.fixed_points(args.model, args.delta)
    print(f"model={report.model} delta={report.delta:g} lipschitz={report.lipschitz:.6f}")
    for pt in report.points:
        kind = "stable" if pt.stable else "unstable"
        print(f"  fixed point {pt.value:.10f} ({kind})")
    return 0


def _cmd_grid_xor(args) -> int:
    _require(args.k >= 1, "k", "must be >= 1")
    _require_delta(args.delta, "delta")
    h, idx = xorcode_mod.build_Hk(args.k)
    lucas = [xorcode_mod.binom_parity(args.k, j) for j in range(args.k + 1)]
    col_ok = all(h.get(j, 0) == lucas[j] for j in range(args.k + 1))
    print(f"H_{args.k}: {h.nrows} rows x {h.ncols} cols; root column matches Lucas parities: {col_ok}")
    if args.k >= 2 and args.k & (args.k - 1) == 0:
        print(f"weight-3 certificate annihilated: {xorcode_mod.check_omega(args.k)}")
    if args.trials > 0:
        seed = _env_seed() if args.seed is None else args.seed
        est = xorcode_mod.erasure_mc_error_bound(args.k, args.delta, args.trials, seed)
        print(
            f"erasure failure frequency {est.failure_freq:.4f} "
            f"(ML error lower bound {est.error_bound:.4f}, CI [{est.ci_low:.4f}, {est.ci_high:.4f}])"
        )
    if args.export_h:
        with open(args.export_h, "w", encoding="utf-8", newline="") as fh:
            fh.write(xorcode_mod.export_parity_check(h))
        print(f"wrote parity-check matrix to {args.export_h}")
    return 0


def _cmd_bisect(args) -> int:
    schedule = _parse_schedule(args.schedule)
    _require(args.depth >= 1, "depth", "must be >= 1")
    _require_delta(args.delta_lo, "delta_lo")
    _require_delta(args.delta_hi, "delta_hi")
    lo, hi = threshold_bisect(
        args.model,
        schedule,
        args.depth,
        tol=args.tol,
        cutoff=args.cutoff,
        delta_lo=args.delta_lo,
        delta_hi=args.delta_hi,
        budget=DEFAULT_BUDGET if args.budget is None else args.budget,
    )
    print(f"bracket: [{lo:.6f}, {hi:.6f}] (width {hi - lo:.2g})")
    return 0


_COMMANDS = {
    "fixed-points": _cmd_fixed_points,
    "exact-chain": _cmd_rows,
    "mc-chain": _cmd_rows,
    "grid-exact": _cmd_rows,
    "grid-and-couple": _cmd_rows,
    "grid-xor": _cmd_grid_xor,
    "percolation": _cmd_rows,
    "bounds": _cmd_rows,
    "sweep": _cmd_rows,
    "bisect": _cmd_bisect,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
