"""Tests of the benchmark's own helpers (run with ``python -m pytest perfbench``)."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from benchlib import expected, grid, metrics, serve, simulate, stats  # noqa: E402
from benchlib.tracing import Tracer  # noqa: E402


class FakeClock:
    def __init__(self, *times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


# -- percentiles with sample counts ----------------------------------------
def test_percentile_interpolates_like_numpy_linear():
    values = list(range(1, 11))
    assert stats.percentile(values, 50) == 5.5
    assert stats.percentile(values, 90) == pytest.approx(9.1)
    assert stats.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_beyond_counts_samples_above_the_percentile():
    values = list(range(1, 101))
    assert stats.beyond(values, 90) == 10
    assert stats.beyond(values, 50) == 50


def test_summarize_withholds_a_tail_with_fewer_than_ten_samples_beyond():
    small = stats.summarize([float(v) for v in range(50)])
    assert small["n"] == 50 and small["p50"] == 24.5 and small["p90"] is None
    large = stats.summarize([float(v) for v in range(100)])
    assert large["n"] == 100 and large["p90"] == pytest.approx(89.1)


# -- self time ---------------------------------------------------------------
def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] > child [1, 9] > grandchild [2, 4]; sibling [9.5, 9.75]
    tracer = Tracer(clock=FakeClock(0.0, 1.0, 2.0, 4.0, 9.0, 9.5, 9.75, 10.0))
    outer = tracer.begin("outer")
    child = tracer.begin("child")
    grandchild = tracer.begin("grandchild")
    tracer.end(grandchild)
    tracer.end(child)
    sibling = tracer.begin("sibling")
    tracer.end(sibling)
    tracer.end(outer)
    assert tracer.seconds("outer") == 10.0
    assert tracer.self_seconds("outer") == 10.0 - 8.0 - 0.25
    assert tracer.self_seconds("child") == 8.0 - 2.0
    assert tracer.self_seconds("grandchild") == 2.0


def test_wrap_counts_items_and_closes_spans_on_error():
    tracer = Tracer()
    wrapped = tracer.wrap(lambda group: [x * 2 for x in group], "walk", items=len)
    assert wrapped([1, 2, 3]) == [2, 4, 6]

    def boom(_group):
        raise KeyError("x")

    failing = tracer.wrap(boom, "walk", items=len)
    with pytest.raises(KeyError):
        failing([1])
    assert tracer.calls["walk"] == 2
    assert tracer.counters["walk.items"] == 4
    assert tracer._stack() == []


def test_merge_sums_spans_and_keeps_maximum_counters():
    parent, child = Tracer(), Tracer()
    parent.counters["walk.max_group"] = 12
    child.counters["walk.max_group"] = 8
    child.counters["store.hits"] = 3
    with child.span("store.get"):
        pass
    parent.merge(json.loads(json.dumps(child.snapshot())))
    assert parent.counters["walk.max_group"] == 12
    assert parent.counters["store.hits"] == 3
    assert parent.calls["store.get"] == 1


# -- seed to inputs ------------------------------------------------------------
def test_serve_lanes_partition_the_pool_deterministically():
    lanes = [serve.lane_pool(7, lane) for lane in range(serve.LANES)]
    assert lanes == [serve.lane_pool(7, lane) for lane in range(serve.LANES)]
    assert sorted(lanes[0] + lanes[1]) == list(range(serve.POOL_SIZE))
    assert serve.lane_pool(8, 0) != lanes[0]
    draws = [serve.lane_rng(7, 0).random() for _ in range(2)]
    assert draws[0] == draws[1]


def test_grid_seed_only_orders_the_benchmarks():
    orders = {tuple(grid.benchmark_order(seed)) for seed in range(20)}
    assert len(orders) > 1
    assert {tuple(sorted(order)) for order in orders} == {tuple(sorted(grid.benchmarks()))}
    assert grid.benchmark_order(5) == grid.benchmark_order(5)
    assert "--seed" not in grid.grid_args(5, "store")


def test_every_seed_maps_to_recorded_inputs():
    want = expected.load()
    assert isinstance(want["grid"], str)
    assert len(want["serve"]["pool"]) == serve.POOL_SIZE
    assert set(want["simulate"]) == {
        simulate.run_key(config, kind)
        for config in simulate.CONFIGS for kind in simulate.ENGINES}


def test_simulate_run_order_is_a_seeded_permutation():
    order = simulate.run_order(3, 0)
    assert order == simulate.run_order(3, 0)
    assert sorted(order) == sorted(
        (c, kind) for c in range(len(simulate.CONFIGS)) for kind in simulate.ENGINES)
    assert order != simulate.run_order(4, 0)


# -- output checks -------------------------------------------------------------
def test_perturbed_simulation_result_is_caught():
    config = simulate.CONFIGS[1]
    trace = simulate.get_trace(config)
    result = simulate.make_engine(trace, config, "periodic").run()
    want = expected.load()["simulate"][simulate.run_key(config, "periodic")]
    assert simulate.output_matches(result, want)
    result.instances.end_cycle[5] += 1.0
    assert not simulate.output_matches(result, want)
    result.instances.end_cycle[5] -= 1.0
    result.total_cycles += 1.0
    assert not simulate.output_matches(result, want)


def test_perturbed_or_uncached_job_is_caught():
    want = "ab" * 32
    reply = {"cached": 2, "total": 2}
    assert serve.job_ok(reply, {"status": "done", "digest": want}, want, cold=False)
    assert not serve.job_ok(reply, {"status": "done", "digest": "cd" * 32}, want, cold=True)
    assert not serve.job_ok(reply, {"status": "failed", "digest": want}, want, cold=True)
    assert not serve.job_ok({"cached": 1, "total": 2},
                            {"status": "done", "digest": want}, want, cold=False)


# -- BENCHMARK.json -------------------------------------------------------------
def test_benchmark_json_mirrors_the_metric_tables():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == metrics.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["simulate", "grid", "serve"]


def test_result_line_requires_every_end_to_end_metric():
    values = {name: 1.0 for name, *_ in metrics.END_TO_END}
    line = metrics.result_line(True, 3, 0, values, traced=False)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {name for name, *_ in metrics.END_TO_END}
    del values["setup_s"]
    with pytest.raises(KeyError):
        metrics.result_line(True, 3, 0, values, traced=False)
    traced = metrics.result_line(True, 3, 0, {}, traced=True)
    assert len(traced["metrics"]) == len(metrics.PER_LAYER)
