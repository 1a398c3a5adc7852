"""End-to-end acceptance suite.

Each test prints a single "ACCEPTANCE n: PASS/FAIL" line (past pytest's
capture) and then asserts, so the full verdict list survives in the run
log regardless of which criteria hold.
"""

import math

import numpy as np
import pytest

from dagbroadcast.model import AND2, IDENTITY, MAJ3, OR2, XOR2, LayerSchedule, sample_random_dag
from dagbroadcast.grid import grid_exact_distribution, grid_mc_tv_estimate
from dagbroadcast.coupling import coupling_tv_bound
from dagbroadcast.bounds import delta_es, evans_schulman
from dagbroadcast.sigma import (
    DELTA_ANDOR,
    DELTA_MAJ,
    coupled_mc,
    exact_chain,
    fixed_points,
    lipschitz,
    majority_rule,
    mutual_information,
    quenched_error_estimate,
    tv,
)
from dagbroadcast.xorcode import binom_parity, build_Hk, check_omega, erasure_mc_error_bound
from dagbroadcast.cli import threshold_bisect
from oracles import coding_problem_ml_error, inference_problem_ml_error, random_block_instance


def _report(capsys, n: int, ok: bool, detail: str = "") -> None:
    with capsys.disabled():
        suffix = f" ({detail})" if detail else ""
        print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}{suffix}")


def test_criterion_1_majority_threshold(capsys):
    sched = LayerSchedule.constant(128)
    lo, hi = threshold_bisect("maj3", sched, 150, tol=2e-3, cutoff=0.01)
    ok = hi - lo <= 2e-3 + 1e-12 and lo <= DELTA_MAJ <= hi
    _report(capsys, 1, ok, f"bracket [{lo:.6f}, {hi:.6f}], target {DELTA_MAJ:.6f}")
    assert ok


def test_criterion_2_andor_threshold(capsys):
    sched = LayerSchedule.constant(128)
    lo, hi = threshold_bisect("andor2", sched, 150, tol=2e-3, cutoff=0.01)
    ok = hi - lo <= 2e-3 + 1e-12 and lo <= DELTA_ANDOR <= hi
    _report(capsys, 2, ok, f"bracket [{lo:.6f}, {hi:.6f}], target {DELTA_ANDOR:.6f}")
    assert ok


def test_criterion_3_fixed_point_residuals(capsys):
    # fixed_points() itself enforces |g(v) - v| < 1e-12 and a root of
    # g(x) - x within 1e-10, raising on any violation
    regimes = [
        ("maj3", np.linspace(0.002, DELTA_MAJ - 0.002, 100)),
        ("maj3", np.linspace(DELTA_MAJ + 0.002, 0.498, 100)),
        ("andor2", np.linspace(0.002, DELTA_ANDOR - 0.002, 100)),
        ("andor2", np.linspace(DELTA_ANDOR + 0.002, 0.498, 100)),
    ]
    ok = True
    detail = ""
    try:
        for model, deltas in regimes:
            for d in deltas:
                fixed_points(model, float(d))
    except ArithmeticError as exc:
        ok = False
        detail = str(exc)
    _report(capsys, 3, ok, detail or "400 deltas validated")
    assert ok


def test_criterion_4_contraction_bounds(capsys):
    ok = True
    for delta in (0.20, 0.25, 0.30):
        L = 32
        chain = exact_chain("maj3", delta, LayerSchedule.constant(L), 60)
        c = 1.5 * (1 - 2 * delta)
        for dist in chain[1:]:
            if tv(dist) > L * c**dist.level + 1e-12:
                ok = False
    for delta in (0.15, 0.25):
        L = 64
        chain = exact_chain("andor2", delta, LayerSchedule.constant(L), 60)
        factor = lipschitz("andor2", delta) + 2.0 / L
        for dist in chain[2::2]:
            half = dist.level // 2
            if tv(dist) > L * factor**half + 1e-12:
                ok = False
    _report(capsys, 4, ok)
    assert ok


def test_criterion_5_information_contraction(capsys):
    # published values are truncated to five decimal places
    ok = math.floor(delta_es(3) * 1e5) == 21132 and math.floor(delta_es(2) * 1e5) == 14644
    for model, d in (("maj3", 3), ("andor2", 2)):
        for delta in np.linspace(0.05, 0.45, 9):
            chain = exact_chain(model, float(delta), LayerSchedule.constant(16), 20)
            for dist in chain[1:]:
                bound = evans_schulman(dist.L, float(delta), d, dist.level)
                if mutual_information(dist) > bound + 1e-12:
                    ok = False
    _report(capsys, 5, ok)
    assert ok


def test_criterion_6_coupling_monotonicity(capsys):
    stats = coupled_mc("maj3", 0.25, LayerSchedule.constant(16), 30, 100_000, seed=60)
    ok = stats.monotone_fraction == 1.0 and stats.min_gap >= 0.0
    for i, k in enumerate(stats.levels):
        if stats.mean_gap[i] > 0.75 ** int(k) + 3 * stats.sem_gap[i]:
            ok = False
    _report(capsys, 6, ok, f"monotone fraction {stats.monotone_fraction:.6f}")
    assert ok


def test_criterion_7_and_grid_coalescence(capsys):
    ok = True
    details = []
    for delta in (0.05, 0.15, 0.30, 0.45):
        bound = coupling_tv_bound(delta, 500, 1000, seed=70)
        coalesced = 1.0 - bound.bound[-1]
        details.append(f"delta={delta:g}: {coalesced:.3f} coalesced")
        if coalesced < 0.95:
            ok = False
        if not all(b <= a + 1e-12 for a, b in zip(bound.bound, bound.bound[1:])):
            ok = False
        exact = grid_exact_distribution(AND2, IDENTITY, delta, 10)
        for k in range(11):
            # Wilson upper band as the sampling allowance: the plain 3*SE
            # collapses to zero once every run has coalesced
            if exact[k].tv() > bound.ci_high[k] + 1e-12:
                ok = False
    _report(capsys, 7, ok, "; ".join(details))
    assert ok


def test_criterion_8_xor_grid_certificates(capsys):
    ok = all(check_omega(k) for k in (2, 4, 8, 16, 32))
    h64, _ = build_Hk(64)
    if any(h64.get(j, 0) != binom_parity(64, j) for j in range(65)):
        ok = False
    est = erasure_mc_error_bound(8, 0.25, 2000, seed=80)
    target = (2 * 0.25) ** 2
    se = math.sqrt(target * (1 - target) / 2000)
    if est.failure_freq < target - 3 * se:
        ok = False
    dists = grid_exact_distribution(XOR2, IDENTITY, 0.2, 10)
    tvs = [dists[k].tv() for k in range(2, 11)]
    if not all(b < a for a, b in zip(tvs, tvs[1:])):
        ok = False
    _report(capsys, 8, ok, f"erasure failure freq {est.failure_freq:.4f} vs {target:g}")
    assert ok


def test_criterion_9_slow_growth_impossibility(capsys):
    chain = exact_chain("maj3", 0.3, LayerSchedule.constant(1), 200)
    final = tv(chain[200])
    ok = final < 1e-6
    _report(capsys, 9, ok, f"TV at k=200 is {final:.3g}")
    assert ok


def test_criterion_10_reconstruction_witness(capsys):
    dag = sample_random_dag(10, 3, LayerSchedule.logarithmic(10), 60)
    est = quenched_error_estimate(dag, MAJ3, 0.05, majority_rule, 10_000, seed=100)
    width = est.ci_high - est.ci_low
    ok = est.p_err <= 0.45 and width < 0.02
    _report(capsys, 10, ok, f"error {est.p_err:.4f}, CI width {width:.4f}")
    assert ok


def test_criterion_11_oracle_agreement(capsys):
    ok = True
    for f1 in (AND2, OR2, XOR2):
        for delta in (0.1, 0.25):
            exact = grid_exact_distribution(f1, IDENTITY, delta, 8)
            for est in grid_mc_tv_estimate(f1, IDENTITY, delta, 8, 20_000, seed=110):
                if abs(est.tv - exact[est.level].tv()) > 3 * est.dev + 1e-9:
                    ok = False
    rng = np.random.default_rng(111)
    for _ in range(20):
        b1, b2_rows, n1 = random_block_instance(rng, max_cols=10)
        delta = float(rng.uniform(0.05, 0.45))
        a = coding_problem_ml_error(b1, b2_rows, n1, delta)
        b = inference_problem_ml_error(b1, b2_rows, n1, delta)
        if abs(a - b) > 1e-12:
            ok = False
    _report(capsys, 11, ok)
    assert ok
