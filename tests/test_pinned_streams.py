"""Monte Carlo outputs pinned exactly, so any change to a random stream fails loudly.

Each value was computed before the RNG was evaluated in blocks and is a
pure function of (config, seed).  A deliberate change to a stream must
update these values and say so in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from dagbroadcast import coupling, model, sigma, xorcode
from dagbroadcast import grid


def _sha(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def test_quenched_error_count():
    dag = model.sample_random_dag(3, 3, model.LayerSchedule.parse("log:10"), 30)
    est = sigma.quenched_error_estimate(dag, model.MAJ3, 0.12, sigma.majority_rule, 400, 5)
    assert (round(est.p_err * est.trials), est.trials) == (31, 400)


def test_coupled_mc():
    stats = sigma.coupled_mc("maj3", 0.12, model.LayerSchedule.parse("const:8"), 12, 200, 9)
    assert stats.prob_unequal.tolist() == [
        1.0, 1.0, 1.0, 1.0, 0.99, 0.985, 0.97, 0.96, 0.935, 0.89, 0.885, 0.855,
    ]
    assert stats.mean_gap.tolist() == [
        0.926875, 0.884375, 0.860625, 0.815625, 0.7775, 0.75,
        0.703125, 0.685, 0.675625, 0.650625, 0.625625, 0.58625,
    ]


def test_coupled_grid_runs():
    times, counts = coupling.coupled_grid_runs(0.05, 30, 40, 4)
    assert times.tolist() == [
        16, 12, 11, 10, 20, 17, 18, 16, -1, 26, 6, 30, 21, 26, 29, 30, 8, 11, 26, 18,
        22, 20, 12, 12, 18, 13, 22, 27, -1, 3, 7, 6, 12, 7, 16, 10, 30, 17, 10, 27,
    ]
    assert counts.dtype == np.int32 and counts.shape == (40, 31)
    assert _sha(counts) == "75389534064e777b7ff4d2cc541edd61ce2469f57142a11aa71d233e6275e0ef"


def test_estimate_alpha():
    est = coupling.estimate_alpha(0.65, 60, 100, 6)
    assert (est.alpha, est.surviving) == (0.12816129032258064, 50)


def test_erasure_failure_frequency():
    assert xorcode.erasure_mc_error_bound(12, 0.1, 200, 8).failure_freq == 0.865


GRID_MC = {
    "AND2": (
        [0.832, 0.77, 0.688, 0.59, 0.518, 0.448],
        [0.04610543965280808, 0.08444188207137415, 0.123216478268354,
         0.1607731628202587, 0.1918601097646893, 0.221898222326405],
    ),
    "XOR2": (
        [0.832, 0.646, 0.586, 0.45, 0.422, 0.432],
        [0.04610543965280808, 0.09565356893163186, 0.1545287265399318,
         0.23444197413280798, 0.336042801872598, 0.4692565273715026],
    ),
    "NAND2": (
        [0.832, 0.77, 0.56, 0.462, 0.416, 0.406],
        [0.04610543965280808, 0.08444188207137415, 0.13621081238256358,
         0.20562583574350748, 0.27271963143638733, 0.3889644483760881],
    ),
}


@pytest.mark.parametrize("gate", sorted(GRID_MC))
def test_grid_mc_tv_estimate(gate):
    est = grid.grid_mc_tv_estimate(getattr(model, gate), model.IDENTITY, 0.1, 6, 500, 3)
    tv, dev = GRID_MC[gate]
    assert [e.level for e in est] == [1, 2, 3, 4, 5, 6]
    assert [e.tv for e in est] == tv
    assert [e.dev for e in est] == dev


@pytest.mark.parametrize(
    "k, delta, trials, failures",
    [
        (32, 0.05, 300, 273),  # 528 edges a trial: the patterns span several blocks of the stream
        (64, 0.02, 40, 34),
        (1, 0.2, 50, 4),
    ],
)
def test_erasure_failures_at_seed_7(k, delta, trials, failures):
    est = xorcode.erasure_mc_error_bound(k, delta, trials, 7)
    assert (round(est.failure_freq * trials), est.trials) == (failures, trials)
