"""Tests for the columnar trace backbone and the batched simulation path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.config import high_performance_config, low_power_config
from repro.sim.engine import SimulationEngine
from repro.sim.modes import SimulationMode
from repro.sim.results import InstanceResult, InstanceTable
from repro.trace.columns import ColumnBuilder, TaskTypeTable, TraceColumns
from repro.trace.generator import TraceBuilder
from repro.trace.io import load_trace, save_trace
from repro.trace.records import MemoryEvent, make_record
from repro.trace.trace import ApplicationTrace, TraceValidationError
from repro.workloads.registry import get_workload, list_workloads


def _sample_records():
    events = [
        MemoryEvent(address=64 * i, is_write=(i % 3 == 0), weight=1 + i % 4,
                    shared=(i % 5 == 0))
        for i in range(10)
    ]
    return [
        make_record(0, "alpha", 1000, memory_events=events[:4], blocks_hint=2),
        make_record(1, "beta", 777, memory_events=events[4:], blocks_hint=3,
                    depends_on=(0,)),
        make_record(2, "alpha", 31, memory_events=None, depends_on=(0, 1)),
        make_record(3, "gamma", 0, memory_events=events[:1], depends_on=(2,)),
    ]


def _one_event_columns(address=64, weight=1):
    """Two instances of one block each; only the second has a memory event."""
    return TraceColumns(
        types=TaskTypeTable(["t"]),
        task_type_id=[0, 0],
        instructions=[10, 10],
        creation_order=[0, 1],
        dep_offsets=[0, 0, 0],
        dep_targets=[],
        block_offsets=[0, 1, 2],
        block_instructions=[10, 10],
        event_offsets=[0, 0, 1],
        event_address=[address],
        event_is_write=[False],
        event_weight=[weight],
        event_shared=[False],
    )


class TestColumnRecordRoundTrip:
    def test_records_to_columns_and_back(self):
        records = _sample_records()
        columns = TraceColumns.from_records(records)
        assert columns.num_records == len(records)
        assert columns.to_records() == records
        for index, record in enumerate(records):
            assert columns.record(index) == record

    def test_per_record_aggregates_match_views(self):
        records = _sample_records()
        columns = TraceColumns.from_records(records)
        accesses = columns.memory_accesses_per_record()
        events = columns.detail_events_per_record()
        for index, record in enumerate(records):
            assert int(accesses[index]) == record.memory_accesses
            assert int(events[index]) == record.detail_events

    def test_type_table_interning_order(self):
        columns = TraceColumns.from_records(_sample_records())
        assert columns.types.names == ("alpha", "beta", "gamma")
        assert columns.types.intern("beta") == 1
        table = TaskTypeTable(["x", "y"])
        assert table.intern("x") == 0 and len(table) == 2

    def test_dependents_csr_matches_forward_map(self):
        trace = ApplicationTrace(name="t", records=_sample_records())
        forward = trace.dependents()
        assert forward == {0: [1, 2], 1: [2], 2: [3], 3: []}

    def test_validation_rejects_forward_dependency(self):
        builder = ColumnBuilder()
        builder.add_task("t", 10)
        builder.add_prepared("t", 10, blocks=[(10, [])], depends_on=(5,))
        with pytest.raises(TraceValidationError):
            ApplicationTrace(name="bad", columns=builder.build())

    def test_validation_rejects_block_sum_mismatch(self):
        builder = ColumnBuilder()
        builder.add_prepared("t", 10, blocks=[(4, []), (5, [])])
        with pytest.raises(TraceValidationError):
            ApplicationTrace(name="bad", columns=builder.build())

    def test_validation_rejects_negative_instructions(self):
        builder = ColumnBuilder()
        builder.add_task("t", 10)
        builder.add_prepared("t", -5, blocks=[(-5, [])])
        with pytest.raises(TraceValidationError, match="instance 1"):
            ApplicationTrace(name="bad", columns=builder.build())

    def test_validation_rejects_negative_block_instructions(self):
        builder = ColumnBuilder()
        builder.add_task("t", 10)
        builder.add_prepared("t", 10, blocks=[(-5, []), (15, [])])
        with pytest.raises(TraceValidationError, match="instance 1"):
            ApplicationTrace(name="bad", columns=builder.build())

    def test_validation_rejects_negative_event_address(self):
        with pytest.raises(TraceValidationError, match="instance 1"):
            ApplicationTrace(name="bad", columns=_one_event_columns(address=-64))

    def test_validation_rejects_event_weight_below_one(self):
        with pytest.raises(TraceValidationError, match="instance 1"):
            ApplicationTrace(name="bad", columns=_one_event_columns(weight=0))

    def test_validated_flag_skips_revalidation(self):
        builder = ColumnBuilder()
        builder.add_prepared("t", 10, blocks=[(10, [])], depends_on=(3,))
        # validated=True must not raise despite the broken dependency ...
        trace = ApplicationTrace(name="trusted", columns=builder.build(), validated=True)
        # ... while an explicit validate() still detects it.
        with pytest.raises(TraceValidationError):
            trace.validate()


class TestTraceIO:
    def test_json_and_npz_round_trip(self, tmp_path):
        trace = ApplicationTrace(
            name="roundtrip", records=_sample_records(), metadata={"k": 1}
        )
        json_path = save_trace(trace, tmp_path / "t.json")
        gz_path = save_trace(trace, tmp_path / "t.json.gz")
        npz_path = save_trace(trace, tmp_path / "t.npz")
        for path in (json_path, gz_path, npz_path):
            loaded = load_trace(path)
            assert loaded.name == trace.name
            assert loaded.metadata == trace.metadata
            assert loaded.columns == trace.columns
            assert loaded.records == trace.records

    def test_npz_is_columnar_not_pickled(self, tmp_path):
        trace = get_workload("swaptions").generate(scale=0.004, seed=3)
        path = save_trace(trace, tmp_path / "t.npz")
        with np.load(path, allow_pickle=False) as archive:
            assert "event_address" in archive
        assert load_trace(path).columns == trace.columns

    def test_load_rejects_reordered_records(self, tmp_path):
        import gzip
        import json as json_module

        trace = ApplicationTrace(name="t", records=_sample_records())
        path = save_trace(trace, tmp_path / "t.json")
        payload = json_module.loads(path.read_text())
        payload["records"][0], payload["records"][1] = (
            payload["records"][1],
            payload["records"][0],
        )
        path.write_text(json_module.dumps(payload))
        with pytest.raises(TraceValidationError):
            load_trace(path)

    def test_load_rejects_corrupt_dependency(self, tmp_path):
        import json as json_module

        trace = ApplicationTrace(name="t", records=_sample_records())
        path = save_trace(trace, tmp_path / "t.json")
        payload = json_module.loads(path.read_text())
        payload["records"][0]["depends_on"] = [3]  # forward edge -> cycle risk
        path.write_text(json_module.dumps(payload))
        with pytest.raises(TraceValidationError):
            load_trace(path)

    def test_npz_rejects_corrupt_columns(self, tmp_path):
        trace = ApplicationTrace(name="t", records=_sample_records())
        path = save_trace(trace, tmp_path / "t.npz")
        with np.load(path, allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in archive.files}
        for key, bad in (
            ("task_type_id", np.array([0, -1, 2, 99], dtype=np.int32)),
            ("event_offsets", arrays["event_offsets"][:-1]),
            ("event_weight", np.zeros_like(arrays["event_weight"])),
        ):
            corrupt = dict(arrays)
            corrupt[key] = bad
            np.savez(path, **corrupt)
            with pytest.raises(TraceValidationError):
                load_trace(path)

    def test_npz_write_leaves_no_scratch_file(self, tmp_path):
        trace = ApplicationTrace(name="t", records=_sample_records())
        save_trace(trace, tmp_path / "t.npz")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.npz"]

    def test_npz_rejects_unknown_version(self, tmp_path):
        trace = ApplicationTrace(name="v", records=_sample_records())
        path = save_trace(trace, tmp_path / "t.npz")
        import json as json_module

        with np.load(path, allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in archive.files}
        header = json_module.loads(bytes(arrays["header"]).decode())
        header["format_version"] = 99
        arrays["header"] = np.frombuffer(
            json_module.dumps(header).encode(), dtype=np.uint8
        )
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="format version"):
            load_trace(path)


class TestBuilderEquivalence:
    @pytest.mark.parametrize("name", list_workloads())
    def test_column_builder_matches_record_append(self, name):
        """Column-built traces are indistinguishable from record-built ones."""
        trace = get_workload(name).generate(scale=0.004, seed=7)
        records = trace.records
        rebuilt = ApplicationTrace(
            name=trace.name, records=records, metadata=dict(trace.metadata)
        )
        assert rebuilt.columns == trace.columns
        assert rebuilt.statistics() == trace.statistics()

    def test_add_task_matches_make_record_splitting(self):
        events = [MemoryEvent(address=64 * i, weight=1 + i % 3) for i in range(7)]
        builder = TraceBuilder(name="split", seed=0)
        builder.add_task("t", 1001, memory_events=events, blocks=3)
        built = builder.build()[0]
        reference = make_record(
            0, "t", 1001, memory_events=events, blocks_hint=3
        )
        assert built == reference

    def test_trace_statistics_cached_object(self):
        trace = get_workload("swaptions").generate(scale=0.004, seed=1)
        assert trace.statistics() is trace.statistics()
        trace.invalidate_caches()
        assert trace.statistics() == trace.statistics()


class TestBatchedEngineEquivalence:
    @pytest.mark.parametrize("arch_factory", [high_performance_config, low_power_config])
    @pytest.mark.parametrize("scheduler", ["fifo", "locality"])
    def test_batched_matches_per_record_path(self, arch_factory, scheduler):
        from repro.runtime.scheduler import make_scheduler

        trace = get_workload("cholesky").generate(scale=0.008, seed=2)
        outcomes = []
        for use_batched in (False, True):
            engine = SimulationEngine(
                trace,
                arch_factory(),
                num_threads=4,
                scheduler=make_scheduler(scheduler),
                use_batched=use_batched,
            )
            result = engine.run()
            snapshot = engine.memory_system.cache_snapshot()
            rows = [
                (i.instance_id, i.worker_id, i.mode, i.start_cycle, i.end_cycle, i.ipc)
                for i in result.instances
            ]
            outcomes.append((result.total_cycles, rows, snapshot))
        assert outcomes[0][0] == outcomes[1][0]
        assert outcomes[0][1] == outcomes[1][1]
        assert outcomes[0][2] == outcomes[1][2]

    def test_batched_matches_per_record_with_noise(self):
        from repro.analysis.native import NativeExecutionModel

        trace = get_workload("swaptions").generate(scale=0.004, seed=5)
        totals = []
        for use_batched in (False, True):
            engine = SimulationEngine(
                trace,
                high_performance_config(),
                num_threads=2,
                noise_model=NativeExecutionModel(seed=11),
                use_batched=use_batched,
            )
            totals.append(engine.run().total_cycles)
        assert totals[0] == totals[1]


class TestInstanceTable:
    def _table(self):
        table = InstanceTable()
        table.append(0, "a", 1, True, 100, 0.0, 50.0, 2.0, True)
        table.append(1, "b", 0, False, 60, 10.0, 40.0, 2.0, False)
        table.append(2, "a", 1, True, 80, 50.0, 90.0, 2.0, False)
        return table

    def test_sequence_protocol_and_views(self):
        table = self._table()
        assert len(table) == 3
        assert isinstance(table[0], InstanceResult)
        assert table[0] is table[0]  # views are cached
        assert table[-1].instance_id == 2
        assert [i.instance_id for i in table] == [0, 1, 2]
        assert [i.instance_id for i in table[1:]] == [1, 2]
        assert table[1].mode is SimulationMode.BURST
        assert table[0].cycles == 50.0
        with pytest.raises(IndexError):
            table[3]

    def test_engine_returns_instance_table(self):
        trace = get_workload("swaptions").generate(scale=0.004, seed=1)
        result = SimulationEngine(
            trace, high_performance_config(), num_threads=2
        ).run()
        assert isinstance(result.instances, InstanceTable)
        assert result.num_instances == len(trace)
        assert result.total_instructions == sum(
            record.instructions for record in trace.records
        )
        grouped = result.ipc_by_type(detailed_only=True)
        for task_type, values in grouped.items():
            assert all(v > 0 for v in values)
            assert len(values) <= len(result.instances_of(task_type))


class TestLazyTaskInstance:
    def test_record_materialised_on_demand(self):
        from repro.runtime.dependencies import DependencyTracker

        trace = get_workload("swaptions").generate(scale=0.004, seed=1)
        tracker = DependencyTracker(trace)
        instance = tracker.instance(0)
        assert instance._record is None
        assert instance.instructions == trace.columns.instructions[0]
        record = instance.record
        assert record == trace[0]
        assert instance._record is record  # cached

    def test_record_constructor_still_works(self):
        from repro.runtime.task import TaskInstance, TaskType

        record = make_record(0, "t", 10)
        instance = TaskInstance(record=record, task_type=TaskType("t", 0))
        assert instance.record is record
        assert instance.instance_id == 0
        with pytest.raises(ValueError):
            TaskInstance()
