"""Equivalence and plan-cache tests for the grouped/vectorised detailed path.

With more than one worker the engine defers commuting detailed instances
and executes them through the scalar grouped executor or the vectorised walk
kernel, chosen adaptively at run time; a one-worker run never defers.  All
of it is an implementation detail: results, cache/interconnect/DRAM
statistics and the final tag-store contents must be bit-identical to the
per-record ``DetailedCoreModel`` oracle.  These tests pin that equivalence
across every registered workload, both Table II architectures and all three
simulation policies, plus the noise-model, shared-writer and one-worker
special paths.

The plan-cache tests cover the static-precomputation memoisation: one
:class:`~repro.arch.batch.ExecutionPlan` per (trace columns, model
geometry), shared across thread counts, controllers and the vector engine,
and the runtime's static instance lists memoised alongside it.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.arch.config import high_performance_config, low_power_config
from repro.core.config import lazy_config, periodic_config
from repro.core.controller import TaskPointController
from repro.runtime.runtime import RuntimeSystem
from repro.sim.engine import SimulationEngine
from repro.trace.generator import TraceBuilder
from repro.trace.records import MemoryEvent
from repro.workloads.registry import get_workload, list_workloads

SCALE = 0.01
SEED = 2
THREADS = 8

_ARCHITECTURES = {
    "highperf": high_performance_config,
    "lowpower": low_power_config,
}


def _controller(mode: str):
    if mode == "detailed":
        return None
    if mode == "periodic":
        return TaskPointController(config=periodic_config())
    return TaskPointController(config=lazy_config())


def _fingerprint(result) -> str:
    blob = ",".join(
        f"{i.instance_id}:{i.worker_id}:{i.mode.value}:{i.start_cycle.hex()}"
        f":{i.end_cycle.hex()}:{i.ipc.hex()}:{int(i.is_warmup)}"
        for i in result.instances
    )
    return (
        f"{result.total_cycles.hex()}|{result.num_instances}|"
        f"{result.cost.detailed_instances}|{result.cost.burst_instances}|"
        f"{result.cost.detailed_instructions}|"
        f"{result.cost.detailed_memory_events}|"
        + hashlib.sha256(blob.encode()).hexdigest()
    )


def _memory_stats(engine) -> tuple:
    """Cache/interconnect/DRAM statistics of an engine, as comparable data."""
    memory = engine.memory_system
    caches = []
    for core_id in range(engine.num_threads):
        view = memory.hierarchy(core_id)
        for cache in view.private_caches:
            stats = cache.stats
            caches.append((core_id, stats.hits, stats.misses, stats.evictions,
                           stats.writebacks, stats.invalidations))
    for cache in memory.hierarchy(0).shared_caches:
        stats = cache.stats
        caches.append(("shared", stats.hits, stats.misses, stats.evictions,
                       stats.writebacks, stats.invalidations))
    ic = memory.interconnect.stats
    dram = memory.dram.stats
    return (tuple(caches), ic.transfers, ic.total_latency.hex(),
            dram.requests, dram.total_latency.hex())


def _tag_stores(engine) -> tuple:
    """Final tag-store contents (LRU order, dirty bits, owners) per cache."""
    memory = engine.memory_system
    stores = []
    for core_id in range(engine.num_threads):
        view = memory.hierarchy(core_id)
        for level, cache in enumerate(view.caches):
            if level >= len(view.private_caches) and core_id > 0:
                continue  # shared levels once
            for set_index in sorted(cache._sets):
                lines = cache._sets[set_index]
                if not lines:
                    continue
                stores.append((
                    core_id, level, set_index,
                    tuple((tag, line.dirty, line.owner)
                          for tag, line in lines.items()),
                ))
    return tuple(stores)


def _run(trace, arch_name: str, mode: str, noise_model=None,
         threads: int = THREADS, **flags):
    engine = SimulationEngine(
        trace,
        _ARCHITECTURES[arch_name](),
        num_threads=threads,
        controller=_controller(mode),
        noise_model=noise_model,
        **flags,
    )
    result = engine.run()
    if engine.vector is not None:
        # Materialise any remaining plane-resident rows into the dict
        # working copies (the lazy export) so the oracle comparison covers
        # the final cache contents too.
        engine.vector.flush_state()
    return engine, result


def _assert_equivalent(trace, arch_name: str, mode: str, noise_model=None,
                       threads: int = THREADS):
    grouped, grouped_result = _run(trace, arch_name, mode, noise_model,
                                   threads=threads)
    oracle, oracle_result = _run(
        trace, arch_name, mode, noise_model, threads=threads,
        use_batched=False
    )
    assert _fingerprint(grouped_result) == _fingerprint(oracle_result)
    assert _memory_stats(grouped) == _memory_stats(oracle)
    assert _tag_stores(grouped) == _tag_stores(oracle)


# ---------------------------------------------------------------------------
# Full-registry equivalence: every workload x architecture, detailed mode.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("arch_name", sorted(_ARCHITECTURES))
@pytest.mark.parametrize("workload", list_workloads())
def test_vector_path_matches_oracle_all_workloads(workload, arch_name):
    trace = get_workload(workload).generate(scale=SCALE, seed=SEED)
    _assert_equivalent(trace, arch_name, "detailed")


# ---------------------------------------------------------------------------
# Sampling policies on a structurally diverse subset.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["periodic", "lazy"])
@pytest.mark.parametrize(
    "workload", ["cholesky", "blackscholes", "histogram", "3d-stencil"]
)
def test_vector_path_matches_oracle_sampled(workload, mode):
    trace = get_workload(workload).generate(scale=SCALE, seed=SEED)
    _assert_equivalent(trace, "highperf", mode)


# ---------------------------------------------------------------------------
# Special paths: noise model, shared-data writers, one worker.
# ---------------------------------------------------------------------------
def _noise(instance):
    return 1.0 + (instance.instance_id % 5) * 0.07


def test_vector_path_matches_oracle_with_noise():
    trace = get_workload("cholesky").generate(scale=SCALE, seed=SEED)
    _assert_equivalent(trace, "highperf", "detailed", noise_model=_noise)


def test_shared_writer_workload_matches_oracle():
    # histogram writes shared bins: its writer records are non-commuting and
    # exercise the flush + fallback/execute_writer path.
    trace = get_workload("histogram").generate(scale=0.02, seed=SEED)
    for arch_name in ("highperf", "lowpower"):
        _assert_equivalent(trace, arch_name, "detailed")
    assert bool(trace.columns.event_shared.any()), (
        "histogram no longer touches shared data; pick another workload "
        "for the shared-writer equivalence test"
    )


# ---------------------------------------------------------------------------
# Eviction-storm synthetic workload: set-conflict-heavy access pattern.
# ---------------------------------------------------------------------------
#: Line-number stride that collides in every cache level of both Table II
#: architectures: a common multiple of every ``num_sets`` (64/4096/16384
#: private-to-shared on high-performance, 256/1024 on low-power), so all
#: strided lines land in the same set index at every level.
_STORM_STRIDE_LINES = 16384
_STORM_LINE_BYTES = 64


def _eviction_storm_trace(num_instances: int = 96, seed: int = 3):
    """Synthetic trace whose accesses hammer a handful of cache sets.

    Every event's line number is ``set + tag * _STORM_STRIDE_LINES`` with
    only four distinct set values and more distinct tags per set than any
    level's associativity (L3 is 20-way), so both architectures evict and
    write back on nearly every access — the worst case for the eviction
    path of the scalar walks and for the kernel's LRU-victim selection.
    Independent instances keep dispatch groups wide; every sixteenth
    instance writes shared data, exercising the coherence replay and the
    non-commuting writer dispatch as well.
    """
    builder = TraceBuilder(name="eviction-storm", seed=seed)
    for i in range(num_instances):
        target_set = i % 4
        shared_writer = i % 16 == 5
        events = []
        for k in range(24):
            tag = 1 + (i * 7 + k * 5) % 96
            address = (
                target_set + tag * _STORM_STRIDE_LINES
            ) * _STORM_LINE_BYTES
            if shared_writer and k % 6 == 0:
                events.append(
                    MemoryEvent(address, is_write=True, weight=2, shared=True)
                )
            else:
                events.append(
                    MemoryEvent(address, is_write=(k % 3 == 0), weight=2)
                )
        builder.add_task("storm", instructions=4000, memory_events=events)
    return builder.build()


@pytest.mark.parametrize("mode", ["detailed", "periodic", "lazy"])
@pytest.mark.parametrize("arch_name", sorted(_ARCHITECTURES))
@pytest.mark.parametrize("threads", [8, 32, 64])
def test_eviction_storm_matches_oracle(threads, arch_name, mode):
    trace = _eviction_storm_trace()
    _assert_equivalent(trace, arch_name, mode, threads=threads)


def test_eviction_storm_actually_storms():
    # The synthetic pattern only earns its keep if it keeps evicting: every
    # cache level must see at least as many evictions as capacity of the
    # four hammered sets allows.
    trace = _eviction_storm_trace()
    engine, _ = _run(trace, "highperf", "detailed", threads=8)
    memory = engine.memory_system
    for cache in memory.hierarchy(0).private_caches + memory.shared_caches:
        assert cache.stats.evictions > 100, (
            f"{cache.name} saw only {cache.stats.evictions} evictions; the "
            "storm trace no longer conflicts in this geometry"
        )


def test_single_thread_matches_oracle():
    # One worker never defers: every detailed instance runs at once through
    # the batched executor, the loop's immediate (never-deferring) path.
    trace = get_workload("cholesky").generate(scale=SCALE, seed=SEED)
    _assert_equivalent(trace, "highperf", "detailed", threads=1)
    _assert_equivalent(trace, "highperf", "detailed", noise_model=_noise,
                       threads=1)


def test_single_thread_never_groups():
    trace = get_workload("cholesky").generate(scale=SCALE, seed=SEED)
    engine, result = _run(trace, "highperf", "detailed", threads=1)
    stats = engine.vector_stats
    assert engine.vector is None
    assert stats["scalar_instances"] == result.cost.detailed_instances
    assert stats["vector_instances"] == 0
    assert stats["groups"] == 0


def test_vector_stats_cover_all_detailed_instances():
    trace = get_workload("cholesky").generate(scale=SCALE, seed=SEED)
    engine, result = _run(trace, "highperf", "detailed")
    stats = engine.vector_stats
    assert stats["vector_instances"] + stats["scalar_instances"] == len(trace)
    assert stats["groups"] >= 1
    assert 1 <= stats["max_group"] <= THREADS


# ---------------------------------------------------------------------------
# Plan-cache memoisation (static precomputation shared across engines).
# ---------------------------------------------------------------------------
def test_plan_cached_across_thread_counts_and_controllers():
    trace = get_workload("cholesky").generate(scale=SCALE, seed=SEED)
    arch = high_performance_config()
    first = SimulationEngine(trace, arch, num_threads=4)
    second = SimulationEngine(trace, arch, num_threads=16)
    sampled = SimulationEngine(
        trace, arch, num_threads=4,
        controller=TaskPointController(config=lazy_config()),
    )
    assert second.batched.plan is first.batched.plan
    assert sampled.batched.plan is first.batched.plan


def test_plan_cache_misses_on_geometry_change():
    trace = get_workload("cholesky").generate(scale=SCALE, seed=SEED)
    hp = SimulationEngine(trace, high_performance_config(), num_threads=4)
    lp = SimulationEngine(trace, low_power_config(), num_threads=4)
    assert hp.batched.plan is not lp.batched.plan
    # Both live side by side in the same per-columns cache.
    plans = [value for key, value in trace.columns.plan_cache.items()
             if isinstance(key, tuple) and key and key[0] == "batched-executor"]
    assert any(plan is hp.batched.plan for plan in plans)
    assert any(plan is lp.batched.plan for plan in plans)


def test_vector_engine_shares_batched_plan():
    trace = get_workload("cholesky").generate(scale=SCALE, seed=SEED)
    engine = SimulationEngine(trace, high_performance_config(),
                              num_threads=THREADS)
    assert engine.vector is not None
    assert engine.vector.plan is engine.batched.plan
    # The vector kernel gathers from the same geometry arrays the plan holds;
    # no per-engine copies.
    assert engine.vector.plan.level_set is engine.batched.plan.level_set


def test_runtime_static_lists_memoised_on_columns():
    trace = get_workload("cholesky").generate(scale=SCALE, seed=SEED)
    trace.columns.plan_cache.pop("runtime-lists", None)
    first = RuntimeSystem(trace)
    assert "runtime-lists" in trace.columns.plan_cache
    cached = trace.columns.plan_cache["runtime-lists"]
    second = RuntimeSystem(trace)
    assert trace.columns.plan_cache["runtime-lists"] is cached
    assert [i.instructions for i in first.tracker.instances] == [
        i.instructions for i in second.tracker.instances
    ]
