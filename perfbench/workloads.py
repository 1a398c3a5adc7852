"""The benchmark's three workloads: inputs from a seed, one pass, output checks.

Each workload is a closed loop: one caller in one process issues the next
library call when the previous one returns.  A pass is a fixed list of
calls.  The seed picks inputs, never sizes, so every seed does the same
work.  The library only ever sees the generated inputs.

* ``chain_exact``: the paper's exact-threshold questions.  A ``linear``
  maj3 sweep (one kernel build per level) and a ``const`` andor2 bisection
  (one kernel reused for every level).  The seed picks the two sweep
  deltas and the bisection cutoff from fixed lattices whose exact results
  are stored in ``reference.json``.  The bisection model stays andor2:
  maj3 builds fewer kernels per chain, so picking the model by seed would
  change the work.
* ``monte_carlo``: reconstruction-witness and coupling/percolation
  diagnostics.  The seed goes to the library's ``seed`` arguments.  RNG
  draws in large batches dominate.
* ``grid_gf2``: the paper's grid questions.  The dense grid DP for AND and
  XOR, the Monte Carlo cross-check of the AND DP, the weight-3
  certificates and the GF(2) erasure bound.  The seed goes to the
  library's ``seed`` arguments.

Monte Carlo outputs are checked only with properties that hold for every
valid random stream, so a change that declares a new stream still passes.

Importing this module imports ``dagbroadcast`` from ``src/`` of the
checkout it sits in, and refuses a copy from anywhere else.
"""

from __future__ import annotations

import csv
import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import dagbroadcast  # noqa: E402
from dagbroadcast import cli, coupling, grid, model, sigma, xorcode  # noqa: E402

if not Path(dagbroadcast.__file__).resolve().is_relative_to(SRC.resolve()):
    raise ImportError(f"dagbroadcast was imported from {dagbroadcast.__file__}, not from {SRC}")

OUT_DIR = HERE / "out"
REFERENCE_FILE = HERE / "reference.json"

EXACT_TOL = 1e-9

# chain_exact: sizes, and the lattices the seed picks from.
CHAIN_MODEL = "random-dag-maj3"
CHAIN_DEPTH = 400
# the lattice brackets the maj3 threshold 1/6, where the paper's question
# lies; far smaller deltas drive more kernel entries toward underflow and
# cost up to 15 % more per chain, which would make the seed change the time
CHAIN_DELTAS = (0.1, 0.12, 0.14, 0.15, 0.16, 0.17, 0.18, 0.2, 0.22)
BISECT_MODEL = "andor2"
BISECT_SCHEDULE = "const:512"
BISECT_DEPTH = 200
BISECT_CUTOFFS = (0.005, 0.01, 0.02, 0.05)

# monte_carlo
MC_DELTA = 0.1
MC_DAG_SCHEDULE = "log:10"
MC_DAG_DEPTH = 60
MC_QUENCHED_TRIALS = 3000
MC_COUPLED_SCHEDULE = "const:256"
MC_COUPLED_DEPTH = 60
MC_COUPLED_TRIALS = 1000
# at delta 0.01 about 30 % of the coupled runs are still unresolved at level
# 100 (at 0.05 all coalesce by level 60-130), so the coalescence loop never
# stops early and the draw count does not depend on the seed
COUPLING_DELTA = 0.01
COUPLING_DEPTH = 100
COUPLING_TRIALS = 300
ALPHA_P = 0.7
ALPHA_DEPTH = 300
ALPHA_TRIALS = 250

# grid_gf2
GRID_DELTA = 0.05
GRID_DP_DEPTH = 12
GRID_MC_DEPTH = 10
GRID_MC_TRIALS = 20000
OMEGA_KS = (16, 32, 64)
ERASURE_RUNS = ((12, 400), (32, 400), (64, 50))  # (k, trials)
GENIE_K = 12


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable[[int, bool], dict]
    run: Callable[[dict], dict]
    check: Callable[[dict, dict, dict], list[tuple[str, bool]]]


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= EXACT_TOL


# ---------------------------------------------------------------------------
# chain_exact


def chain_inputs(seed: int, tiny: bool = False) -> dict:
    pick = random.Random(seed)
    deltas = sorted(pick.sample(CHAIN_DELTAS, 2))
    cutoff = pick.choice(BISECT_CUTOFFS)
    OUT_DIR.mkdir(exist_ok=True)
    return {
        "deltas": deltas,
        "cutoff": cutoff,
        "depth": 4 if tiny else CHAIN_DEPTH,
        "bisect_schedule": "const:8" if tiny else BISECT_SCHEDULE,
        "bisect_depth": 4 if tiny else BISECT_DEPTH,
        "csv": str(OUT_DIR / f"chain_exact-{seed}.csv"),
    }


def chain_run(inputs: dict) -> dict:
    lo, hi = inputs["deltas"]
    config = cli.ExperimentConfig(
        model=CHAIN_MODEL,
        delta_start=lo,
        delta_stop=hi,
        delta_count=2,
        depth=inputs["depth"],
        schedule="linear",
        out=inputs["csv"],
    )
    rows, _ = cli.run(config)
    bracket = cli.threshold_bisect(
        BISECT_MODEL,
        model.LayerSchedule.parse(inputs["bisect_schedule"]),
        inputs["bisect_depth"],
        cutoff=inputs["cutoff"],
    )
    return {"rows": rows, "bracket": bracket}


def _csv_reads_back(path: str, rows: list) -> bool:
    with open(path, encoding="utf-8", newline="") as fh:
        read = list(csv.reader(fh))
    if read[0] != cli.CSV_HEADER or len(read) != len(rows) + 1:
        return False
    ordered = sorted(rows, key=lambda r: (r.model, r.delta, r.k, r.metric))
    for rec, row in zip(read[1:], ordered):
        parsed = (rec[0], float(rec[1]), int(rec[2]), int(rec[3]), rec[4],
                  float(rec[5]), float(rec[6]), float(rec[7]), int(rec[8]), int(rec[9]))
        expect = (row.model, row.delta, row.k, row.L_k, row.metric,
                  row.value, row.ci_low, row.ci_high, row.seed, row.trials)
        if parsed != expect:
            return False
    return True


def chain_check(inputs: dict, out: dict, reference: dict) -> list[tuple[str, bool]]:
    ref = reference["chain_exact"]
    same_sizes = (
        ref["depth"] == inputs["depth"]
        and ref["bisect_schedule"] == inputs["bisect_schedule"]
        and ref["bisect_depth"] == inputs["bisect_depth"]
    )
    results = [("reference sizes match the workload", same_sizes)]
    values = {(r.delta, r.k, r.metric): r.value for r in out["rows"]}
    for delta in inputs["deltas"]:
        final = ref["final"][repr(delta)]
        for metric, key in (("tv_exact", "tv"), ("ml_error", "ml_error"), ("mi_bits", "mi_bits")):
            got = values.get((delta, inputs["depth"], metric), math.nan)
            results.append((f"{metric} at delta={delta} matches reference", _close(got, final[key])))
        levels = range(1, inputs["depth"] + 1)
        identity = all(
            abs(values[(delta, k, "ml_error")] - 0.5 * (1.0 - values[(delta, k, "tv_exact")])) <= 1e-15
            for k in levels
        )
        results.append((f"ml_error == (1 - tv)/2 at every level, delta={delta}", identity))
    results.append(("CSV reads back to the returned rows", _csv_reads_back(inputs["csv"], out["rows"])))
    expect = tuple(ref["brackets"][repr(inputs["cutoff"])])
    results.append((f"bisect bracket at cutoff={inputs['cutoff']} matches reference", tuple(out["bracket"]) == expect))
    return results


def chain_reference() -> dict:
    """Exact values of every lattice point, from the library's exact paths."""
    final = {}
    for delta in CHAIN_DELTAS:
        dist = sigma.exact_chain("maj3", delta, model.LayerSchedule.linear(), CHAIN_DEPTH)[-1]
        final[repr(delta)] = {
            "tv": sigma.tv(dist),
            "ml_error": sigma.ml_error(dist),
            "mi_bits": sigma.mutual_information(dist),
        }
    brackets = {
        repr(c): list(
            cli.threshold_bisect(
                BISECT_MODEL, model.LayerSchedule.parse(BISECT_SCHEDULE), BISECT_DEPTH, cutoff=c
            )
        )
        for c in BISECT_CUTOFFS
    }
    return {
        "depth": CHAIN_DEPTH,
        "bisect_schedule": BISECT_SCHEDULE,
        "bisect_depth": BISECT_DEPTH,
        "final": final,
        "brackets": brackets,
    }


# ---------------------------------------------------------------------------
# monte_carlo


def mc_inputs(seed: int, tiny: bool = False) -> dict:
    scale = 0.01 if tiny else 1.0
    return {
        "seed": seed,
        "dag_depth": 4 if tiny else MC_DAG_DEPTH,
        "quenched_trials": max(1, int(MC_QUENCHED_TRIALS * scale)),
        "coupled_depth": 4 if tiny else MC_COUPLED_DEPTH,
        "coupled_trials": max(2, int(MC_COUPLED_TRIALS * scale)),
        "coupling_depth": 4 if tiny else COUPLING_DEPTH,
        "coupling_trials": max(1, int(COUPLING_TRIALS * scale)),
        "alpha_depth": 4 if tiny else ALPHA_DEPTH,
        "alpha_trials": max(2, int(ALPHA_TRIALS * scale)),
    }


def mc_run(inputs: dict) -> dict:
    seed = inputs["seed"]
    dag = model.sample_random_dag(seed, 3, model.LayerSchedule.parse(MC_DAG_SCHEDULE), inputs["dag_depth"])
    quenched = sigma.quenched_error_estimate(
        dag, model.MAJ3, MC_DELTA, sigma.majority_rule, inputs["quenched_trials"], seed
    )
    coupled = sigma.coupled_mc(
        "maj3",
        MC_DELTA,
        model.LayerSchedule.parse(MC_COUPLED_SCHEDULE),
        inputs["coupled_depth"],
        inputs["coupled_trials"],
        seed,
    )
    bound = coupling.coupling_tv_bound(COUPLING_DELTA, inputs["coupling_depth"], inputs["coupling_trials"], seed)
    alpha = coupling.estimate_alpha(ALPHA_P, inputs["alpha_depth"], inputs["alpha_trials"], seed)
    return {"quenched": quenched, "coupled": coupled, "bound": bound, "alpha": alpha}


def mc_check(inputs: dict, out: dict, reference: dict) -> list[tuple[str, bool]]:
    q, c, b, a = out["quenched"], out["coupled"], out["bound"], out["alpha"]
    steps = b.bound[1:] - b.bound[:-1]
    return [
        ("quenched estimate lies in its Wilson interval", q.ci_low <= q.p_err <= q.ci_high),
        ("quenched estimate used every trial", q.trials == inputs["quenched_trials"]),
        ("coupled_mc monotone_fraction == 1", c.monotone_fraction == 1.0),
        ("coupled_mc min_gap >= 0", c.min_gap >= 0.0),
        ("coupling TV bound is non-increasing", bool((steps <= 0.0).all())),
        ("coupling TV bound lies in [0, 1]", bool(((b.bound >= 0.0) & (b.bound <= 1.0)).all())),
        ("surviving percolation runs <= trials", 0 <= a.surviving <= a.trials),
        # the least-squares slope averages width increments, each at most 1
        ("edge speed alpha <= 1", a.surviving == 0 or a.alpha <= 1.0),
    ]


# ---------------------------------------------------------------------------
# grid_gf2


def grid_inputs(seed: int, tiny: bool = False) -> dict:
    return {
        "seed": seed,
        "dp_depth": 2 if tiny else GRID_DP_DEPTH,
        "mc_depth": 2 if tiny else GRID_MC_DEPTH,
        "mc_trials": 20 if tiny else GRID_MC_TRIALS,
        "omega_ks": (4,) if tiny else OMEGA_KS,
        "erasure_runs": ((2, 2),) if tiny else ERASURE_RUNS,
    }


def grid_run(inputs: dict) -> dict:
    seed = inputs["seed"]
    depth = inputs["dp_depth"]
    and_dp = grid.grid_exact_distribution(model.AND2, model.IDENTITY, GRID_DELTA, depth)
    xor_dp = grid.grid_exact_distribution(model.XOR2, model.IDENTITY, GRID_DELTA, depth)
    mc = grid.grid_mc_tv_estimate(
        model.AND2, model.IDENTITY, GRID_DELTA, inputs["mc_depth"], inputs["mc_trials"], seed
    )
    omega = {k: xorcode.check_omega(k) for k in inputs["omega_ks"]}
    k_top = inputs["omega_ks"][-1]
    h_top, _ = xorcode.build_Hk(k_top)
    erasure = {
        k: xorcode.erasure_mc_error_bound(k, GRID_DELTA, trials, seed) for k, trials in inputs["erasure_runs"]
    }
    return {"and_dp": and_dp, "xor_dp": xor_dp, "mc": mc, "omega": omega, "h_top": (k_top, h_top), "erasure": erasure}


def _normalised(dists: list) -> bool:
    return all(
        abs(v.sum() - 1.0) <= EXACT_TOL and v.min() >= 0.0 for d in dists for v in (d.plus, d.minus)
    )


def grid_check(inputs: dict, out: dict, reference: dict) -> list[tuple[str, bool]]:
    and_dp, xor_dp = out["and_dp"], out["xor_dp"]
    results = [
        ("AND grid DP distributions are normalised", _normalised(and_dp)),
        ("XOR grid DP distributions are normalised", _normalised(xor_dp)),
        (
            "grid MC TV within 3*dev of the exact DP at every level",
            all(abs(est.tv - and_dp[est.level].tv()) <= 3.0 * est.dev for est in out["mc"]),
        ),
    ]
    for k, ok in out["omega"].items():
        results.append((f"weight-3 certificate annihilated at k={k}", ok))
    k_top, h = out["h_top"]
    lucas = all((h.rows[j] & 1) == math.comb(k_top, j) % 2 for j in range(k_top + 1))
    results.append((f"H_{k_top} root column equals the Lucas parities", lucas))
    for k, est in out["erasure"].items():
        ordered = 0.0 <= est.ci_low <= est.error_bound <= est.ci_high <= 0.5
        results.append((f"erasure bound at k={k} lies in its interval within [0, 1/2]", ordered))
    genie = out["erasure"].get(GENIE_K)
    if genie is not None:
        exact = xor_dp[GENIE_K].ml_error()
        results.append((f"erasure ci_low <= exact XOR-grid ML error at level {GENIE_K}", genie.ci_low <= exact))
    return results


WORKLOADS = {
    "chain_exact": Workload(chain_inputs, chain_run, chain_check),
    "monte_carlo": Workload(mc_inputs, mc_run, mc_check),
    "grid_gf2": Workload(grid_inputs, grid_run, grid_check),
}
