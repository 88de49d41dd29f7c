"""Incremental construction of application traces.

Workload generators describe their task graph instance by instance; the
:class:`TraceBuilder` takes care of instance numbering, block splitting and
dependency bookkeeping and finally produces a validated
:class:`~repro.trace.trace.ApplicationTrace`.

The builder emits directly into a
:class:`~repro.trace.columns.ColumnBuilder`: workload generators pass the
columnar event runs (:class:`~repro.trace.records.EventRun`) of the pattern
helpers, which are split into blocks and appended column by column, so no
``TaskTraceRecord`` or ``MemoryEvent`` object is allocated during
generation.  Record views are materialised from the columns only when
record-oriented code asks for them.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Sequence, Union

from repro.trace.columns import ColumnBuilder
from repro.trace.patterns import AddressSpaceAllocator
from repro.trace.records import EventRun, MemoryEvent, TaskTraceRecord
from repro.trace.trace import ApplicationTrace


class TraceBuilder:
    """Builds an :class:`ApplicationTrace` one task instance at a time.

    The builder also owns an :class:`AddressSpaceAllocator` and a seeded
    :class:`random.Random` so workload generators have a single source of
    determinism: two builders created with the same name and seed produce
    byte-identical traces.
    """

    def __init__(self, name: str, seed: int = 0) -> None:
        self.name = name
        self.seed = seed
        self.rng = random.Random(seed)
        self.allocator = AddressSpaceAllocator()
        self._columns = ColumnBuilder()
        self._metadata: Dict[str, object] = {"seed": seed}

    # ------------------------------------------------------------------
    @property
    def next_instance_id(self) -> int:
        """Identifier the next :meth:`add_task` call will receive."""
        return self._columns.num_records

    @property
    def num_instances(self) -> int:
        """Number of task instances added so far."""
        return self._columns.num_records

    def last_instance_id(self) -> Optional[int]:
        """Return the id of the most recently added instance, if any."""
        if self._columns.num_records == 0:
            return None
        return self._columns.num_records - 1

    def set_metadata(self, key: str, value: object) -> None:
        """Attach generator metadata (problem size, scale, ...) to the trace."""
        self._metadata[key] = value

    # ------------------------------------------------------------------
    def add_task(
        self,
        task_type: str,
        instructions: int,
        memory_events: Union[EventRun, Sequence[MemoryEvent], None] = None,
        depends_on: Sequence[int] = (),
        blocks: int = 4,
    ) -> int:
        """Add one task instance and return its instance id.

        Parameters mirror :func:`repro.trace.records.make_record` (events are
        split round-robin over ``blocks`` execution blocks; a
        :class:`~repro.trace.records.MemoryEvent` sequence is accepted and
        converted to a run); dependencies must refer to instances already
        added to this builder.
        """
        instance_id = self.next_instance_id
        for dependency in depends_on:
            if dependency < 0 or dependency >= instance_id:
                raise ValueError(
                    f"dependency {dependency} does not refer to an earlier instance"
                )
        return self._columns.add_task(
            task_type=task_type,
            instructions=instructions,
            memory_events=memory_events,
            depends_on=depends_on,
            blocks_hint=blocks,
        )

    def add_record(self, record: TaskTraceRecord) -> int:
        """Add a pre-built record, renumbering it to the next instance id."""
        return self._columns.add_prepared(
            task_type=record.task_type,
            instructions=record.instructions,
            blocks=[
                (block.instructions, block.memory_events) for block in record.blocks
            ],
            depends_on=record.depends_on,
        )

    def build(self) -> ApplicationTrace:
        """Finalise and validate the trace."""
        return ApplicationTrace(
            name=self.name,
            columns=self._columns.build(),
            metadata=dict(self._metadata),
        )
