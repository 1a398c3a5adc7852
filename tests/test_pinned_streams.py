"""Monte Carlo outputs pinned exactly, so any change to a random stream fails loudly.

Each value is a pure function of (config, seed).  A deliberate change to
a stream must update these values and say so in CHANGES.md.  The draw
counts pin each sampler's stream layout: one draw per node, or per grid
edge, that the result can read.
"""

import hashlib

import numpy as np
import pytest

from dagbroadcast import coupling, model, sigma, xorcode
from dagbroadcast import grid
from dagbroadcast.rng import uniforms as rng_uniforms
from oracles import coupled_grid_runs_dense


def _sha(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def test_quenched_error_count():
    dag = model.sample_random_dag(3, 3, model.LayerSchedule.parse("log:10"), 30)
    est = sigma.quenched_error_estimate(dag, model.MAJ3, 0.12, sigma.majority_rule, 400, 5)
    assert (round(est.p_err * est.trials), est.trials) == (28, 400)


def test_coupled_mc():
    stats = sigma.coupled_mc("maj3", 0.12, model.LayerSchedule.parse("const:8"), 12, 200, 9)
    assert stats.prob_unequal.tolist() == [
        1.0, 1.0, 1.0, 1.0, 1.0, 0.99, 0.98, 0.965, 0.94, 0.935, 0.91, 0.88,
    ]
    assert stats.mean_gap.tolist() == [
        0.9025, 0.851875, 0.82, 0.79625, 0.775625, 0.738125,
        0.7125, 0.69375, 0.665, 0.62625, 0.61625, 0.59375,
    ]


# coupled_mc at the benchmark's size (a level of 1000 x 256 draws spans two
# blocks of the Bernoulli loop) and on log:10, where L_k % 4 != 0 at most
# levels, so rows start at every lane offset: sha256 of each per-level array
# and of the final fractions, with min_gap and monotone_fraction exactly
COUPLED_MC_AT_SIZE = {
    "const:256": (
        {
            "final_plus": "93b96f90468a3b43e1f03fccee25dc793c728407645562ba2e365cafc122f2b7",
            "final_minus": "ad1643bf64b8c356f6b2ecc8ee6312693bcce1d690ffda5d9942a74b55e83567",
            "prob_unequal": "41e09ab16161976ef905e3c39d7c6542759631afa4fff8d624fa0f56be7cf958",
            "mean_gap": "00abb40a29a9c3d6c0f99556f1dea11eaa45de8dbb907db021068dc5ab6488e8",
            "sem_gap": "9ddbb4f66861cbba18820f564814b983b553cfe8375013cd2808ccc62b36600e",
        },
        0.73828125,
    ),
    "log:10": (
        {
            "final_plus": "d935cacedc5951ff19dddc51b7ea5e5ec1df2920bb5ecc9303e139898a26b257",
            "final_minus": "4dc767c9dc96817cde80056c17ca77cd6354ffff9d0a49d1c673baf1ad25ce62",
            "prob_unequal": "ece34f6b06aca94151351e42db8385e5864314b80f84b18783180e3f81f640ce",
            "mean_gap": "4516c00ebab2cc236f904ce216c3d0cde3a95a802a5e4e6e8908796b19a66652",
            "sem_gap": "9f1a66a2aaabfbf684b9d917ed79d145b7d1a5ec19a27d1b7d470d93b800cf9b",
        },
        0.0,
    ),
}


@pytest.mark.parametrize("schedule", sorted(COUPLED_MC_AT_SIZE))
def test_coupled_mc_at_size(schedule):
    stats = sigma.coupled_mc("maj3", 0.1, model.LayerSchedule.parse(schedule), 60, 1000, 11)
    digests, min_gap = COUPLED_MC_AT_SIZE[schedule]
    assert {name: _sha(getattr(stats, name)) for name in digests} == digests
    assert (stats.min_gap, stats.monotone_fraction) == (min_gap, 1.0)


def test_propagate_many_at_size():
    # 3000 trials on log:10 to depth 60: each level is one block of the
    # Bernoulli loop, and most rows start inside a word
    roots = (np.arange(3000) % 2).astype(np.uint8)
    dag = model.sample_random_dag(12, 3, model.LayerSchedule.parse("log:10"), 60)
    final = model.propagate_many(dag, model.MAJ3, 0.1, roots, 13)
    assert final.dtype == np.uint8 and final.shape == (3000, dag.layer_sizes[-1])
    assert _sha(final) == "0dd1d21a5c1484695e3b0feada2af0f7f3acd6f7a2d644473531ce9d08ef3df0"
    # a gate function on a d = 2 DAG: AND at odd levels, OR at even ones
    dag = model.sample_random_dag(12, 2, model.LayerSchedule.parse("log:10"), 60)
    final = model.propagate_many(dag, lambda k: model.AND2 if k % 2 else model.OR2, 0.05, roots, 14)
    assert final.shape == (3000, 42)
    assert _sha(final) == "6a5f9a8a2e6d3e82009c1e19da74b17750c87583d5a935cd4f71ac6d594aa0c3"


def test_coupled_grid_runs():
    times = coupling.coupled_grid_runs(0.05, 30, 40, 4)
    assert times.tolist() == [
        4, 16, 11, 7, 9, 13, 17, 13, -1, 16, 7, 17, 6, 8, 18, -1, 13, -1, 3, 11,
        8, 10, 23, -1, 19, -1, 19, 15, 21, 12, 20, 14, -1, 17, 2, 10, -1, 6, 18, 2,
    ]
    # the per-level 1u counts come from the dense oracle, which draws the same stream
    dense_times, counts = coupled_grid_runs_dense(0.05, 30, 40, 4)
    np.testing.assert_array_equal(dense_times, times)
    assert counts.dtype == np.int32 and counts.shape == (40, 31)
    assert _sha(counts) == "83548a527fed4854d38972fb9afa8fc97d5947c39ffb9fb674f611f773da820a"


def test_estimate_alpha():
    est = coupling.estimate_alpha(0.65, 60, 100, 6)
    assert (est.alpha, est.surviving) == (0.13280645161290322, 50)


def test_erasure_failure_frequency():
    assert xorcode.erasure_mc_error_bound(12, 0.1, 200, 8).failure_freq == 0.88


GRID_MC = {
    "AND2": (
        [0.85, 0.806, 0.704, 0.61, 0.494, 0.43],
        [0.04293818105387501, 0.08024836937378772, 0.12138561904905423,
         0.1604866185526305, 0.19265681843045512, 0.21406897055045376],
    ),
    "XOR2": (
        [0.85, 0.686, 0.586, 0.472, 0.422, 0.406],
        [0.04293818105387501, 0.09134016980202173, 0.15139225645284776,
         0.23139647907137822, 0.33541890014296616, 0.4689284154828933],
    ),
    "NAND2": (
        [0.85, 0.806, 0.618, 0.538, 0.444, 0.404],
        [0.04293818105387501, 0.08024836937378772, 0.13420943386521894,
         0.20219343632628575, 0.27312270033184827, 0.3850726210881929],
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
        (32, 0.05, 300, 278),  # 528 edges a trial: a batch spans several blocks of the stream
        (64, 0.02, 40, 37),
        (1, 0.2, 50, 9),
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
    times = coupling.coupled_grid_runs(0.05, 25, 60, 3)
    assert 0 < (times >= 0).sum() < 60  # some runs stop being stepped, some never do
    sizes = _count_draws(monkeypatch, coupling)
    coupling.coupled_grid_runs(0.05, 25, 60, 3)
    live = [int(((times < 0) | (times >= k)).sum()) for k in range(1, 26)]
    assert sizes == [n * (k + 1) for k, n in enumerate(live, start=1)]


def test_grid_mc_draws_two_flips_per_edge(monkeypatch):
    sizes = _count_draws(monkeypatch, grid)
    grid.grid_mc_tv_estimate(model.AND2, model.IDENTITY, 0.1, 7, 300, 2)
    assert sum(sizes) == 2 * 300 * sum(2 * k for k in range(1, 8))
