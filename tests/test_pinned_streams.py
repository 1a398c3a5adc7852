"""Monte Carlo outputs pinned exactly, so any change to a random stream fails loudly.

Each value is a pure function of (config, seed).  A deliberate change to
a stream must update these values and say so in CHANGES.md.  The draw
counts pin each sampler's stream layout: one uniform per node, or per
grid edge, that the result can read.
"""

import hashlib

import numpy as np
import pytest

from dagbroadcast import coupling, model, sigma, xorcode
from dagbroadcast import grid
from dagbroadcast.rng import uniforms as rng_uniforms


def _sha(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def test_quenched_error_count():
    dag = model.sample_random_dag(3, 3, model.LayerSchedule.parse("log:10"), 30)
    est = sigma.quenched_error_estimate(dag, model.MAJ3, 0.12, sigma.majority_rule, 400, 5)
    assert (round(est.p_err * est.trials), est.trials) == (40, 400)


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
        -1, 27, 12, -1, 27, 3, 1, 28, 2, 9, 7, 18, 11, 13, -1, 13, 24, 9, 16, 29,
        18, 8, 20, 5, 13, 14, 27, -1, 21, 9, 14, 13, -1, -1, 9, 7, 16, 22, 14, 24,
    ]
    assert counts.dtype == np.int32 and counts.shape == (40, 31)
    assert _sha(counts) == "0a8fe8f6061169dfd7423cf7e1e0869f216e9f4e538900f20486da430eec19c0"


def test_estimate_alpha():
    est = coupling.estimate_alpha(0.65, 60, 100, 6)
    assert (est.alpha, est.surviving) == (0.102102534562212, 56)


def test_erasure_failure_frequency():
    assert xorcode.erasure_mc_error_bound(12, 0.1, 200, 8).failure_freq == 0.865


GRID_MC = {
    "AND2": (
        [0.828, 0.764, 0.692, 0.622, 0.542, 0.464],
        [0.04610635285972026, 0.08479524750168238, 0.1183695250854365,
         0.15734722911778587, 0.1896739262481221, 0.22543196871399707],
    ),
    "XOR2": (
        [0.828, 0.654, 0.566, 0.466, 0.406, 0.394],
        [0.04610635285972026, 0.0957176969050188, 0.15435089606491836,
         0.2328739392958295, 0.337005805603672, 0.47278880900713494],
    ),
    "NAND2": (
        [0.828, 0.764, 0.592, 0.52, 0.426, 0.418],
        [0.04610635285972026, 0.08479524750168238, 0.13865766647564637,
         0.2052955198147413, 0.27518253216476185, 0.3853904175900145],
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


def _count_draws(monkeypatch, module) -> list[int]:
    """Sizes of the draws ``module`` makes through ``uniforms`` from here on."""
    sizes: list[int] = []

    def counted(*args, **kwargs):
        out = rng_uniforms(*args, **kwargs)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(module, "uniforms", counted)
    return sizes


def test_propagate_many_draws_one_per_node(monkeypatch):
    dag = model.sample_random_dag(2, 3, model.LayerSchedule.parse("log:4"), 9)
    sizes = _count_draws(monkeypatch, model)
    model.propagate_many(dag, model.MAJ3, 0.1, np.arange(70) % 2, 5)
    assert sizes == [70 * n for n in dag.layer_sizes[1:]]


def test_coupled_grid_draws_one_per_live_node(monkeypatch):
    times, _ = coupling.coupled_grid_runs(0.05, 25, 60, 3)
    assert 0 < (times >= 0).sum() < 60  # some runs stop being stepped, some never do
    sizes = _count_draws(monkeypatch, coupling)
    coupling.coupled_grid_runs(0.05, 25, 60, 3)
    live = [int(((times < 0) | (times >= k)).sum()) for k in range(1, 26)]
    assert sizes == [n * (k + 1) for k, n in enumerate(live, start=1)]


def test_grid_mc_draws_two_flips_per_edge(monkeypatch):
    sizes = _count_draws(monkeypatch, grid)
    grid.grid_mc_tv_estimate(model.AND2, model.IDENTITY, 0.1, 7, 300, 2)
    assert sum(sizes) == 2 * 300 * sum(2 * k for k in range(1, 8))
