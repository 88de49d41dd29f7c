"""Tests for the 19 benchmark workload generators (Table I)."""

import hashlib

import pytest

from repro.trace.records import MemoryEvent
from repro.trace.trace import ApplicationTrace
from repro.workloads.base import Workload
from repro.workloads.registry import (
    APPLICATION_NAMES,
    KERNEL_NAMES,
    PARSEC_NAMES,
    SENSITIVITY_SUBSET,
    all_workloads,
    get_workload,
    list_workloads,
)

#: Paper Table I values: benchmark -> (task types, task instances).
TABLE1 = {
    "2d-convolution": (1, 16384),
    "3d-stencil": (1, 16370),
    "atomic-monte-carlo-dynamics": (1, 16384),
    "dense-matrix-multiplication": (1, 17576),
    "histogram": (1, 16384),
    "n-body": (2, 25000),
    "reduction": (2, 16384),
    "sparse-matrix-vector-multiplication": (1, 1024),
    "vector-operation": (1, 16400),
    "checkSparseLU": (11, 22058),
    "cholesky": (4, 19600),
    "kmeans": (6, 16337),
    "knn": (2, 18400),
    "blackscholes": (2, 24500),
    "bodytrack": (7, 21439),
    "canneal": (1, 16384),
    "dedup": (4, 15738),
    "freqmine": (7, 1932),
    "swaptions": (1, 16384),
}


class TestRegistry:
    def test_all_19_benchmarks_registered(self):
        names = list_workloads()
        assert len(names) == 19
        assert set(names) == set(TABLE1)

    def test_category_lists(self):
        assert len(KERNEL_NAMES) == 9
        assert len(APPLICATION_NAMES) == 4
        assert len(PARSEC_NAMES) == 6
        assert set(KERNEL_NAMES + APPLICATION_NAMES + PARSEC_NAMES) == set(TABLE1)

    def test_list_by_category(self):
        assert list_workloads("kernel") == KERNEL_NAMES
        assert list_workloads("parsec") == PARSEC_NAMES
        with pytest.raises(ValueError):
            list_workloads("unknown-category")

    def test_get_unknown_workload(self):
        with pytest.raises(KeyError):
            get_workload("not-a-benchmark")

    def test_sensitivity_subset_is_subset(self):
        assert set(SENSITIVITY_SUBSET) <= set(TABLE1)
        assert len(SENSITIVITY_SUBSET) == 5

    def test_all_workloads_instantiates(self):
        workloads = all_workloads()
        assert len(workloads) == 19
        assert all(isinstance(workload, Workload) for workload in workloads)


class TestPaperProperties:
    @pytest.mark.parametrize("name", sorted(TABLE1))
    def test_info_matches_table1(self, name):
        info = get_workload(name).info()
        types, instances = TABLE1[name]
        assert info.paper_task_types == types
        assert info.paper_task_instances == instances
        assert info.category in {"kernel", "application", "parsec"}
        assert info.properties

    @pytest.mark.parametrize("name", sorted(TABLE1))
    def test_generated_trace_structure(self, name):
        workload = get_workload(name)
        trace = workload.generate(scale=0.01, seed=2)
        assert isinstance(trace, ApplicationTrace)
        trace.validate()
        stats = trace.statistics()
        # The generated number of task types matches Table I exactly.
        assert stats.num_task_types == TABLE1[name][0]
        assert stats.num_task_instances >= workload.min_instances
        assert stats.total_instructions > 0
        assert stats.total_memory_accesses > 0
        assert trace.metadata["scale"] == 0.01

    @pytest.mark.parametrize("name", sorted(TABLE1))
    def test_scale_controls_instance_count(self, name):
        workload = get_workload(name)
        small = workload.instances_for_scale(0.02)
        large = workload.instances_for_scale(0.2)
        assert large >= small
        assert workload.instances_for_scale(1.0) == pytest.approx(
            workload.paper_task_instances, rel=0.01, abs=2
        )

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            get_workload("cholesky").generate(scale=0.0)


class TestBehaviouralCharacteristics:
    def test_freqmine_dominant_type_is_heavy_tailed(self):
        trace = get_workload("freqmine").generate(scale=0.3, seed=1)
        stats = trace.statistics()
        dominant = stats.dominant_task_type
        assert dominant == "mine_conditional_tree"
        assert stats.instruction_share(dominant) > 0.8
        sizes = [r.instructions for r in trace.instances_of(dominant)]
        assert max(sizes) / min(sizes) > 50  # control-flow divergence

    def test_dedup_dominated_by_compression(self):
        trace = get_workload("dedup").generate(scale=0.05, seed=1)
        stats = trace.statistics()
        assert stats.dominant_task_type == "compress_chunk"
        assert stats.instruction_share("compress_chunk") > 0.8
        sizes = [r.instructions for r in trace.instances_of("compress_chunk")]
        assert max(sizes) / min(sizes) > 3  # input dependence

    def test_reduction_parallelism_decreases(self):
        trace = get_workload("reduction").generate(scale=0.01, seed=1)
        # A reduction tree has a logarithmic critical path, much longer than
        # an embarrassingly parallel kernel but far shorter than a chain.
        assert 3 < trace.critical_path_length() < len(trace) / 2

    def test_cholesky_has_wavefront_dependencies(self):
        trace = get_workload("cholesky").generate(scale=0.01, seed=1)
        assert trace.critical_path_length() > 5
        assert any(record.depends_on for record in trace)

    def test_embarrassingly_parallel_kernels_have_no_dependencies(self):
        for name in ("2d-convolution", "atomic-monte-carlo-dynamics", "canneal",
                     "swaptions"):
            trace = get_workload(name).generate(scale=0.005, seed=1)
            assert trace.critical_path_length() == 1, name

    def test_dedup_pipeline_dependencies(self):
        trace = get_workload("dedup").generate(scale=0.02, seed=1)
        # Pipeline: every compress depends on a hash, every write on a compress.
        by_id = {record.instance_id: record for record in trace}
        for record in trace:
            if record.task_type == "compress_chunk":
                assert any(
                    by_id[dep].task_type == "hash_chunk" for dep in record.depends_on
                )
            if record.task_type == "write_output":
                assert any(
                    by_id[dep].task_type == "compress_chunk" for dep in record.depends_on
                )

    def test_histogram_writes_shared_bins(self):
        trace = get_workload("histogram").generate(scale=0.005, seed=1)
        shared_writes = sum(
            1 for record in trace for event in record.memory_events
            if event.shared and event.is_write
        )
        assert shared_writes > 0

    def test_spmv_load_imbalance(self):
        trace = get_workload("sparse-matrix-vector-multiplication").generate(
            scale=1.0, seed=1
        )
        sizes = [record.instructions for record in trace]
        assert max(sizes) / min(sizes) > 2


#: SHA-256 over every workload's trace at scales/seeds (0.05, 1) and
#: (0.02, 7): the repr of the task-type names, then the bytes of the twelve
#: columns in ``TraceColumns.__eq__`` order.  Any change to generation that
#: alters a single event, block or dependency changes it.
TRACE_DIGEST = "11d4de086532037a0a6079f6436767ddbb6ea152934ea0d9cb695f82a97b43c6"
COLUMN_FIELDS = (
    "task_type_id",
    "instructions",
    "creation_order",
    "dep_offsets",
    "dep_targets",
    "block_offsets",
    "block_instructions",
    "event_offsets",
    "event_address",
    "event_is_write",
    "event_weight",
    "event_shared",
)


class TestColumnarEmission:
    def test_all_workload_traces_match_the_pinned_digest(self):
        digest = hashlib.sha256()
        for name in list_workloads():
            for scale, seed in ((0.05, 1), (0.02, 7)):
                columns = get_workload(name).generate(scale=scale, seed=seed).columns
                digest.update(repr(columns.types.names).encode("utf-8"))
                for field in COLUMN_FIELDS:
                    digest.update(getattr(columns, field).tobytes())
        assert digest.hexdigest() == TRACE_DIGEST

    def test_generation_constructs_no_memory_event(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("MemoryEvent constructed during generation")

        monkeypatch.setattr(MemoryEvent, "__init__", refuse)
        for name in list_workloads():
            trace = get_workload(name).generate(scale=0.02, seed=1)
            assert len(trace) > 0
