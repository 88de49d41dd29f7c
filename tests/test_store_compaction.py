"""Property-based and concurrency tests for serving-grade store compaction.

The `ResultStore` became an LRU under ``max_bytes`` for the simulation
service; these tests pin the safety properties that turn a cache eviction
policy into something a daemon can sit on top of:

* random put/get/pin/unpin/compact interleavings (hypothesis) keep the
  byte budget — after a compaction either the store fits the budget or
  everything left is pinned — and never lose a pinned entry or a failure
  marker,
* `put_if_absent` racing a concurrent compaction thread never produces a
  torn entry: every key is either a complete valid entry or absent,
* LRU recency is real — a `get` refreshes an entry so compaction evicts
  the cold one,
* an explicit ``compact(max_bytes=0)`` drops every result entry but keeps
  the failure markers,
* `MemoryResultStore` honours ``max_entries`` with the same pin rules.
"""

import json
import tempfile
import threading
import time
from pathlib import Path

import pytest

from repro.core.config import lazy_config
from repro.exp import (
    ExperimentFailure,
    ExperimentResult,
    ExperimentSpec,
    MemoryResultStore,
    ResultStore,
)
from repro.exp.store import _normalised_payload

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is an optional test dep
    HAVE_HYPOTHESIS = False


def spec_for(seed):
    return ExperimentSpec(
        benchmark="swaptions", num_threads=2, scale=0.004,
        trace_seed=seed, config=lazy_config(),
    )


def result_for(seed):
    return ExperimentResult(
        benchmark="swaptions", architecture="default", num_threads=2,
        total_cycles=1000.0 + seed, num_instances=seed,
    )


SPECS = [spec_for(seed) for seed in range(6)]
RESULTS = [result_for(seed) for seed in range(6)]
ENTRY_SIZE = len(_normalised_payload(SPECS[0], RESULTS[0]))


def entry_paths(store):
    return sorted(store._entry_files())


def check_no_torn_entries(store):
    """Every entry file on disk parses as a complete normalised payload."""
    for path in entry_paths(store):
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert set(payload) == {"spec", "result"}


# ======================================================================
# Property: random interleavings respect the budget and lose nothing
# ======================================================================
@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestCompactionProperties:
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["put", "get", "pin", "unpin", "compact"]),
                st.integers(min_value=0, max_value=5),
            ),
            max_size=40,
        ),
        budget_entries=st.integers(min_value=1, max_value=4),
    )
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_interleavings_keep_budget_pins_and_markers(
        self, ops, budget_entries
    ):
        budget = budget_entries * (ENTRY_SIZE + 32)
        with tempfile.TemporaryDirectory() as tmp:
            store = ResultStore(tmp, max_bytes=budget)
            # A failure marker written up front must survive every op.
            failed = spec_for(999)
            store.record_failure(
                failed,
                ExperimentFailure.from_exception(
                    failed.content_key(), RuntimeError("boom")
                ),
            )
            present = set()
            for op, index in ops:
                spec, result = SPECS[index], RESULTS[index]
                key = spec.content_key()
                if op == "put":
                    store.put(spec, result)
                    present.add(key)
                elif op == "get":
                    got = store.get(spec)
                    if got is not None:
                        assert got.total_cycles == result.total_cycles
                elif op == "pin":
                    store.pin(key)
                elif op == "unpin":
                    store.unpin(key)
                elif op == "compact":
                    store.compact()
                    unpinned = [
                        path for path in entry_paths(store)
                        if path.name[: -len(".json")] not in store._pins
                    ]
                    if unpinned:
                        # Fits the budget, or only pinned entries overflow it.
                        assert (
                            store.total_bytes() <= budget
                            or not unpinned
                        )
                # Invariants that hold after *every* operation:
                check_no_torn_entries(store)
                assert store.get_failure(failed) is not None
                for pinned_key in store.pinned_keys() & present:
                    if store._key_path(pinned_key).is_file():
                        continue
                    # A pinned entry may only be missing if it was evicted
                    # while unpinned earlier; compaction itself never
                    # removes a currently-pinned file, which is what the
                    # eviction counter lets us cross-check:
                    assert store.evictions > 0
            stats = store.stats()
            assert stats["evictions"] == store.evictions
            assert stats["max_bytes"] == budget

    @given(seeds=st.lists(st.integers(0, 5), min_size=1, max_size=12))
    @settings(max_examples=30, deadline=None)
    def test_pinned_entries_survive_zero_budget(self, seeds):
        with tempfile.TemporaryDirectory() as tmp:
            store = ResultStore(tmp)
            pinned_spec = SPECS[seeds[0]]
            for seed in seeds:
                store.put(SPECS[seed], RESULTS[seed])
            store.pin(pinned_spec.content_key())
            store.compact(max_bytes=0)
            # Everything unpinned is gone, the pinned entry is untouched.
            assert store.get(pinned_spec) is not None
            remaining = {
                path.name[: -len(".json")] for path in entry_paths(store)
            }
            assert remaining == {pinned_spec.content_key()}


# ======================================================================
# put_if_absent racing a compactor
# ======================================================================
class TestCompactionRaces:
    def test_put_if_absent_survives_concurrent_compaction(self, tmp_path):
        store = ResultStore(tmp_path)
        stop = threading.Event()
        errors = []

        def compactor():
            try:
                while not stop.is_set():
                    store.compact(max_bytes=0)
            except BaseException as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        thread = threading.Thread(target=compactor)
        thread.start()
        try:
            for round_index in range(20):
                for seed in range(6):
                    spec = spec_for(1000 + seed)
                    written = store.put_if_absent(spec, result_for(seed))
                    assert isinstance(written, bool)
                    got = store.get(spec)
                    # The compactor may have already evicted it, but a
                    # served result is always complete and correct.
                    if got is not None:
                        assert got.total_cycles == result_for(seed).total_cycles
        finally:
            stop.set()
            thread.join(timeout=30)
        assert not errors
        check_no_torn_entries(store)
        assert not list(tmp_path.rglob(".tmp-*"))

        # With the compactor gone the store serves everything again.
        for seed in range(6):
            spec = spec_for(1000 + seed)
            store.put_if_absent(spec, result_for(seed))
            assert store.get(spec) is not None


# ======================================================================
# LRU recency and auto-compaction
# ======================================================================
class TestLRUBehaviour:
    def test_get_refresh_protects_warm_entry(self, tmp_path):
        import os

        # Budget fits both entries, so the puts do not auto-compact yet.
        store = ResultStore(tmp_path, max_bytes=2 * (ENTRY_SIZE + 32))
        warm, cold = SPECS[0], SPECS[1]
        store.put(warm, RESULTS[0])
        store.put(cold, RESULTS[1])
        # Backdate both, then touch only the warm one via get().
        past = time.time() - 3600
        for spec in (warm, cold):
            os.utime(store._key_path(spec.content_key()), (past, past))
        assert store.get(warm) is not None  # refreshes mtime under budget
        store.compact(max_bytes=ENTRY_SIZE + 32)
        assert store.get(warm) is not None
        assert store.get(cold) is None
        assert store.evictions == 1

    def test_puts_trigger_auto_compaction(self, tmp_path):
        budget = 2 * (ENTRY_SIZE + 32)
        store = ResultStore(tmp_path, max_bytes=budget)
        for seed in range(6):
            store.put(SPECS[seed], RESULTS[seed])
        assert store.compactions >= 1
        assert store.evictions >= 1
        assert store.total_bytes() <= budget

    def test_failure_markers_outside_budget(self, tmp_path):
        store = ResultStore(tmp_path, max_bytes=1)
        spec = SPECS[0]
        store.record_failure(
            spec, ExperimentFailure.from_exception(spec.content_key(), RuntimeError("x"))
        )
        store.put(SPECS[1], RESULTS[1])
        store.compact()
        # Result entries fell to the budget; the diagnostic is untouchable.
        assert store.get_failure(spec) is not None
        assert store.total_bytes() == 0


# ======================================================================
# Layouts
# ======================================================================
class TestLayouts:
    def test_object_layout_compaction_and_failures(self, tmp_path):
        # An explicit zero budget compacts every result entry away and
        # leaves the failure marker in place.
        store = ResultStore(tmp_path)
        spec = SPECS[3]
        store.record_failure(
            spec, ExperimentFailure.from_exception(spec.content_key(), RuntimeError("x"))
        )
        store.put(SPECS[4], RESULTS[4])
        store.compact(max_bytes=0)
        assert len(store) == 0  # budget 0: the put was compacted away
        assert store.get_failure(spec) is not None


# ======================================================================
# MemoryResultStore LRU
# ======================================================================
class TestMemoryStoreLRU:
    def test_lru_eviction_with_get_refresh(self):
        store = MemoryResultStore(max_entries=2)
        store.put(SPECS[0], RESULTS[0])
        store.put(SPECS[1], RESULTS[1])
        assert store.get(SPECS[0]) is not None  # refresh: 0 is now newest
        store.put(SPECS[2], RESULTS[2])  # evicts 1, the least recent
        assert store.get(SPECS[1]) is None
        assert store.get(SPECS[0]) is not None
        assert store.get(SPECS[2]) is not None
        assert store.evictions == 1
        assert len(store) == 2

    def test_pinned_entries_never_evicted(self):
        store = MemoryResultStore(max_entries=2)
        store.put(SPECS[0], RESULTS[0])
        store.pin(SPECS[0].content_key())
        store.put(SPECS[1], RESULTS[1])
        store.put(SPECS[2], RESULTS[2])
        # Overflow evicts the oldest *unpinned* entry: 1, never pinned 0.
        assert store.get(SPECS[0]) is not None
        assert store.get(SPECS[1]) is None
        assert store.get(SPECS[2]) is not None
        store.unpin(SPECS[0].content_key())
        store.put(SPECS[3], RESULTS[3])
        assert store.get(SPECS[0]) is None  # unpinned: evictable again

    def test_stats_counters(self):
        store = MemoryResultStore()
        store.get(SPECS[0])
        store.put(SPECS[0], RESULTS[0])
        store.get(SPECS[0])
        stats = store.stats()
        assert stats["layout"] == "memory"
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["entries"] == 1
        assert stats["max_entries"] is None
