"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_bench.py

Each full-size pass takes a few seconds; the whole file takes about half
a minute on two cores.
"""

import copy
import json
import sys

import pytest

import tracing
import workloads

# work counts the seed must not change, since it never changes the sizes;
# erasure column reads and CSV bytes legitimately depend on the inputs
SEED_FREE_COUNTS = (
    "rng.calls",
    "rng.draws",
    "model.node_evals",
    "sigma.kernel_build.calls",
    "sigma.kernel_build.entries",
    "sigma.levels",
    "sigma.kernel_apply.bytes",
    "grid.exact_dp.states",
    "xorcode.ml_fails.calls",
    "cli.csv.rows",
    "cli.bisect.evals",
)


def _library_namespace() -> dict:
    """Every attribute of every loaded library module, and BitMatrix's."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == tracing.PACKAGE or name.startswith(tracing.PACKAGE + "."):
            for attr, value in vars(module).items():
                found[(name, attr)] = value
    for attr, value in vars(workloads.xorcode.BitMatrix).items():
        found[("BitMatrix", attr)] = value
    return found


def _traced_pass(name: str, seed: int) -> tuple[dict, dict]:
    workload = workloads.WORKLOADS[name]
    inputs = workload.make_inputs(seed, False)
    tracer = tracing.Tracer()
    with tracer.installed():
        workload.run(inputs)
    return inputs, tracing.layer_metrics(*tracer.take())


@pytest.fixture(scope="module")
def traced():
    """Traced full passes, each run once and shared by the tests that read it."""
    cache: dict = {}

    def get(name: str, seed: int, repeat: int = 0) -> tuple[dict, dict]:
        key = (name, seed, repeat)
        if key not in cache:
            cache[key] = _traced_pass(name, seed)
        return cache[key]

    return get


def test_wrappers_restore_every_attribute():
    before = _library_namespace()
    tracer = tracing.Tracer()
    with tracer.installed():
        during = _library_namespace()
        # consumers that imported by name see the wrapper too
        assert workloads.model.uniforms is not before[("dagbroadcast.model", "uniforms")]
        assert workloads.xorcode.uniforms is not before[("dagbroadcast.xorcode", "uniforms")]
        assert workloads.cli.run is not before[("dagbroadcast.cli", "run")]
    changed = {key for key in before if during[key] is not before[key]}
    assert len(changed) >= len(tracing.TARGETS) + 1
    after = _library_namespace()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_wrappers_restored_after_an_error():
    before = _library_namespace()
    with pytest.raises(ValueError):
        with tracing.Tracer().installed():
            workloads.sigma.exact_chain("maj3", 0.1, workloads.model.LayerSchedule.linear(), 0)
    after = _library_namespace()
    assert all(after[key] is before[key] for key in before)


def test_perturbed_reference_raises_fail_frac():
    workload = workloads.WORKLOADS["chain_exact"]
    inputs = workload.make_inputs(1, False)
    out = workload.run(inputs)
    reference = workloads.load_reference()
    assert all(ok for _, ok in workload.check(inputs, out, reference))

    low = repr(inputs["deltas"][0])
    bad_value = copy.deepcopy(reference)
    bad_value["chain_exact"]["final"][low]["tv"] += 1e-6
    bad_bracket = copy.deepcopy(reference)
    bad_bracket["chain_exact"]["brackets"][repr(inputs["cutoff"])][0] += 1e-12
    for bad in (bad_value, bad_bracket):
        failed = [name for name, ok in workload.check(inputs, out, bad) if not ok]
        assert len(failed) == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_for_one_seed(traced, name):
    _, first = traced(name, 1)
    _, second = traced(name, 1, repeat=1)
    assert {k: first[k] for k in tracing.COUNTS} == {k: second[k] for k in tracing.COUNTS}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_inputs_not_work(traced, name):
    inputs_a, first = traced(name, 1)
    inputs_b, second = traced(name, 2)
    assert {k: v for k, v in inputs_a.items() if k != "csv"} != {k: v for k, v in inputs_b.items() if k != "csv"}
    assert {k: first[k] for k in SEED_FREE_COUNTS} == {k: second[k] for k in SEED_FREE_COUNTS}


def test_layers_a_workload_bypasses_read_zero(traced):
    _, chain = traced("chain_exact", 1)
    _, mc = traced("monte_carlo", 1)
    _, grid = traced("grid_gf2", 1)
    assert chain["rng.draws"] == 0 and chain["sigma.kernel_build.entries"] > 0
    assert mc["sigma.kernel_build.entries"] == 0 and mc["rng.draws"] > 0
    assert grid["sigma.levels"] == 0 and grid["grid.exact_dp.states"] > 0 and grid["xorcode.column.calls"] > 0


def test_self_time_subtracts_child_spans():
    spans = [
        tracing.Span("cli.run", 0.0, 10.0, -1),
        tracing.Span("sigma.exact_chain", 1.0, 7.0, 0, {"levels": 3, "apply_bytes": 48}),
        tracing.Span("sigma.binomial_pmf_table", 2.0, 4.0, 1, {"entries": 5}),
        tracing.Span("sigma.tv", 8.0, 9.0, 0),
    ]
    metrics = tracing.layer_metrics(spans, 0)
    assert metrics["cli.run.self_s"] == pytest.approx(3.0)
    assert metrics["sigma.exact_chain.self_s"] == pytest.approx(4.0)
    assert metrics["sigma.kernel_build.busy_s"] == pytest.approx(2.0)
    assert metrics["sigma.kernel_cache.hit_ratio"] == pytest.approx(1.0 - 1 / 3)


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed == {**tracing.UNITS, "trace.overhead_ratio": "ratio"}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
