"""Application traces for trace-driven simulation.

The TaskSim simulator used by the TaskPoint paper is trace driven: a native
execution of an OmpSs program is instrumented once, and the resulting trace
(task instances, their dynamic instruction counts and their memory behaviour)
is replayed by the simulator.  This package provides the equivalent trace
substrate for the reproduction:

* :class:`~repro.trace.records.MemoryEvent`, :class:`~repro.trace.records.ExecutionBlock`
  and :class:`~repro.trace.records.TaskTraceRecord` describe the dynamic
  behaviour of a single task instance,
* :class:`~repro.trace.trace.ApplicationTrace` bundles all task instances of a
  program together with the inter-task dependency graph,
* :class:`~repro.trace.generator.TraceBuilder` and the address-pattern helpers
  in :mod:`repro.trace.patterns` are used by the synthetic workloads in
  :mod:`repro.workloads` to build traces; the helpers return columnar event
  runs (:class:`~repro.trace.records.EventRun`), not per-event objects,
* :mod:`repro.trace.io` serialises traces to and from JSON files.
"""

from repro.trace.records import EventRun, ExecutionBlock, MemoryEvent, TaskTraceRecord
from repro.trace.columns import ColumnBuilder, TaskTypeTable, TraceColumns
from repro.trace.trace import ApplicationTrace, TraceStatistics
from repro.trace.generator import TraceBuilder
from repro.trace.patterns import (
    AddressSpace,
    random_accesses,
    reuse_accesses,
    strided_accesses,
)
from repro.trace.io import load_trace, save_trace

__all__ = [
    "MemoryEvent",
    "EventRun",
    "ExecutionBlock",
    "TaskTraceRecord",
    "ColumnBuilder",
    "TaskTypeTable",
    "TraceColumns",
    "ApplicationTrace",
    "TraceStatistics",
    "TraceBuilder",
    "AddressSpace",
    "strided_accesses",
    "random_accesses",
    "reuse_accesses",
    "load_trace",
    "save_trace",
]
