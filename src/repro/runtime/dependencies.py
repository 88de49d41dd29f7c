"""Dependency tracking for dynamically created task instances.

OmpSs programs annotate tasks with ``in``/``out``/``inout`` data clauses; the
runtime derives inter-task dependencies from them.  In this reproduction the
workload generators already encode the resulting dependency edges in the
trace, so the tracker's job is the runtime-side bookkeeping: counting
unsatisfied dependencies per instance, releasing dependents on completion and
exposing the ready set.

The tracker is built directly from the trace's dependency CSR arrays — no
record views are materialised and the forward (dependent) edges are derived
with one vectorised pass instead of per-record set insertions.

The :class:`TaskGraphBuilder` additionally offers the data-clause style API
(``submit(task, inputs=..., outputs=...)``) used by the examples, computing
dependency edges the same way a data-flow runtime would (last-writer for
reads, writers serialised after readers).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Hashable, Iterable, List, Sequence, Set

from repro.runtime.task import TaskInstance, TaskState, TaskType
from repro.trace.trace import ApplicationTrace


class DependencyTracker:
    """Tracks dependency state for the task instances of one application."""

    def __init__(self, trace: ApplicationTrace) -> None:
        self.trace = trace
        columns = trace.columns
        self._types: Dict[str, TaskType] = {
            name: TaskType(name=name, type_id=type_id)
            for type_id, name in enumerate(columns.types.names)
        }
        types_by_id = [self._types[name] for name in columns.types.names]

        # The per-record list views and the forward CSR are static
        # properties of the trace; memoise them on the columns (alongside
        # the execution plans) so re-simulating the same trace — the hot
        # pattern in sweeps and benchmarks — skips the array conversions.
        cached = columns.plan_cache.get("runtime-lists")
        if cached is None:
            offsets, targets = columns.dependents_csr()
            cached = (
                columns.dependency_counts().tolist(),
                columns.instructions.tolist(),
                columns.task_type_id.tolist(),
                offsets.tolist(),
                targets.tolist(),
            )
            columns.plan_cache["runtime-lists"] = cached
        (
            dependency_counts,
            instruction_counts,
            type_ids,
            dependent_offsets,
            dependent_targets,
        ) = cached
        self.instances: List[TaskInstance] = [
            TaskInstance(
                task_type=types_by_id[type_ids[index]],
                remaining_dependencies=dependency_counts[index],
                trace=trace,
                instance_id=index,
                instructions=instruction_counts[index],
            )
            for index in range(columns.num_records)
        ]
        # Forward edges: dependents of instance i, ascending.  The CSR lists
        # are the tracker's only forward-edge state (see :meth:`dependents_of`).
        self._dependent_offsets = dependent_offsets
        self._dependent_targets = dependent_targets
        self._completed = 0

    # ------------------------------------------------------------------
    @property
    def task_types(self) -> List[TaskType]:
        """All task types, in order of first appearance."""
        return list(self._types.values())

    @property
    def num_instances(self) -> int:
        """Total number of task instances."""
        return len(self.instances)

    @property
    def num_completed(self) -> int:
        """Number of completed instances."""
        return self._completed

    def all_completed(self) -> bool:
        """``True`` when every instance has completed."""
        return self._completed == len(self.instances)

    def instance(self, instance_id: int) -> TaskInstance:
        """Return the instance with the given id."""
        return self.instances[instance_id]

    def dependents_of(self, instance_id: int) -> List[int]:
        """Ids of the instances that depend on ``instance_id``, ascending."""
        start = self._dependent_offsets[instance_id]
        stop = self._dependent_offsets[instance_id + 1]
        return self._dependent_targets[start:stop]

    # ------------------------------------------------------------------
    def initially_ready(self) -> List[TaskInstance]:
        """Return (and mark) all instances with no dependencies as ready."""
        ready = []
        for instance in self.instances:
            if instance.state is TaskState.CREATED and instance.remaining_dependencies == 0:
                instance.mark_ready()
                ready.append(instance)
        return ready

    def complete(self, instance_id: int) -> List[TaskInstance]:
        """Record completion of ``instance_id`` and return newly ready instances.

        The caller (the simulator) is responsible for having already called
        :meth:`TaskInstance.mark_completed` on the instance.
        """
        instance = self.instances[instance_id]
        if instance.state is not TaskState.COMPLETED:
            raise ValueError(
                f"instance {instance_id} must be completed before notifying the tracker"
            )
        self._completed += 1
        released: List[TaskInstance] = []
        instances = self.instances
        start = self._dependent_offsets[instance_id]
        stop = self._dependent_offsets[instance_id + 1]
        for position in range(start, stop):
            dependent = instances[self._dependent_targets[position]]
            dependent.remaining_dependencies -= 1
            if dependent.remaining_dependencies < 0:
                raise RuntimeError(
                    f"dependency counter of instance {dependent.instance_id} became negative"
                )
            if dependent.remaining_dependencies == 0 and dependent.state is TaskState.CREATED:
                dependent.mark_ready()
                released.append(dependent)
        return released


class TaskGraphBuilder:
    """Derives dependency edges from data clauses, OmpSs style.

    The builder keeps, per datum, the id of the last task that wrote it and
    the ids of the tasks that read it since: a new reader depends on the last
    writer (read-after-write), and a new writer depends on the last writer and
    all readers since (write-after-write, write-after-read).
    """

    def __init__(self) -> None:
        self._last_writer: Dict[Hashable, int] = {}
        self._readers_since_write: Dict[Hashable, Set[int]] = defaultdict(set)
        self.edges: Dict[int, Set[int]] = defaultdict(set)

    def submit(
        self,
        task_id: int,
        inputs: Iterable[Hashable] = (),
        outputs: Iterable[Hashable] = (),
        inouts: Iterable[Hashable] = (),
    ) -> List[int]:
        """Register a task and return the ids of the tasks it depends on."""
        inputs = list(inputs)
        outputs = list(outputs)
        inouts = list(inouts)
        dependencies: Set[int] = set()
        for datum in list(inputs) + list(inouts):
            writer = self._last_writer.get(datum)
            if writer is not None and writer != task_id:
                dependencies.add(writer)
        for datum in list(outputs) + list(inouts):
            writer = self._last_writer.get(datum)
            if writer is not None and writer != task_id:
                dependencies.add(writer)
            for reader in self._readers_since_write[datum]:
                if reader != task_id:
                    dependencies.add(reader)
        for datum in inputs:
            self._readers_since_write[datum].add(task_id)
        for datum in list(outputs) + list(inouts):
            self._last_writer[datum] = task_id
            self._readers_since_write[datum] = set()
        for datum in inouts:
            self._readers_since_write[datum].add(task_id)
        self.edges[task_id] = dependencies
        return sorted(dependencies)

    def dependencies_of(self, task_id: int) -> List[int]:
        """Return the recorded dependencies of ``task_id``."""
        return sorted(self.edges.get(task_id, set()))
