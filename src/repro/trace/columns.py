"""Columnar storage of application traces (the trace backbone).

An application trace of *n* task instances with *B* execution blocks and *E*
memory events is stored as a small set of NumPy arrays instead of a list of
``TaskTraceRecord`` dataclasses:

* **record columns** (length ``n``): ``task_type_id``, ``instructions`` and
  ``creation_order``, with task-type names interned in a
  :class:`TaskTypeTable` (first-appearance order, matching the semantics of
  ``ApplicationTrace.task_types``),
* **dependency CSR** (``dep_offsets``/``dep_targets``): the flattened
  ``depends_on`` edges, indexable per record without per-record tuples,
* **block CSR** (``block_offsets``/``block_instructions``): the execution
  blocks of every record, and
* **event CSR** (``event_offsets`` plus ``event_address``,
  ``event_is_write``, ``event_weight``, ``event_shared``): the weighted
  memory events of every block.

The columns are the source of truth carried by
:class:`~repro.trace.trace.ApplicationTrace`; ``TaskTraceRecord`` views are
materialised lazily for compatibility with record-oriented code and
serialisation.  Everything downstream that is performance critical — the
batched detailed-cost evaluation in :mod:`repro.arch.batch`, dependency
tracking, trace statistics, validation — operates directly on the arrays.

Columns are built by one emitter, :class:`ColumnBuilder`, which appends
whole :class:`~repro.trace.records.EventRun` columns per block with list
``extend``s: workload generators hand it the runs the pattern helpers
return, so no record or per-event object is allocated during generation.
Hand-built :class:`~repro.trace.records.MemoryEvent` sequences and record
lists (:meth:`TraceColumns.from_records`: compatibility, JSON
deserialisation) go through the same builder after one conversion,
:func:`~repro.trace.records.as_event_run`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.trace.records import (
    EventRun,
    ExecutionBlock,
    MemoryEvent,
    TaskTraceRecord,
    as_event_run,
    split_instructions,
)


class TaskTypeTable:
    """Interned task-type names, id-assigned in first-appearance order."""

    def __init__(self, names: Iterable[str] = ()) -> None:
        self._names: List[str] = []
        self._ids: Dict[str, int] = {}
        for name in names:
            self.intern(name)

    def intern(self, name: str) -> int:
        """Return the id of ``name``, assigning the next id if unseen."""
        type_id = self._ids.get(name)
        if type_id is None:
            type_id = len(self._names)
            self._ids[name] = type_id
            self._names.append(name)
        return type_id

    def name(self, type_id: int) -> str:
        """Return the name of ``type_id``."""
        return self._names[type_id]

    @property
    def names(self) -> Tuple[str, ...]:
        """All interned names, in id (= first appearance) order."""
        return tuple(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaskTypeTable):
            return NotImplemented
        return self._names == other._names

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TaskTypeTable({self._names!r})"


def _as_array(values: Sequence, dtype) -> np.ndarray:
    array = np.asarray(values, dtype=dtype)
    if array.ndim != 1:
        array = array.reshape(-1)
    return array


class TraceColumns:
    """Columnar form of one application trace (see module docstring).

    All offset arrays are int64 and have one more entry than the axis they
    index (CSR convention): record ``i`` owns blocks
    ``block_offsets[i]:block_offsets[i+1]``, and block ``b`` owns events
    ``event_offsets[b]:event_offsets[b+1]``.
    """

    __slots__ = (
        "types",
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
        "_record_event_offsets",
        "plan_cache",
    )

    def __init__(
        self,
        types: TaskTypeTable,
        task_type_id: Sequence[int],
        instructions: Sequence[int],
        creation_order: Sequence[int],
        dep_offsets: Sequence[int],
        dep_targets: Sequence[int],
        block_offsets: Sequence[int],
        block_instructions: Sequence[int],
        event_offsets: Sequence[int],
        event_address: Sequence[int],
        event_is_write: Sequence[bool],
        event_weight: Sequence[int],
        event_shared: Sequence[bool],
    ) -> None:
        self.types = types
        self.task_type_id = _as_array(task_type_id, np.int32)
        self.instructions = _as_array(instructions, np.int64)
        self.creation_order = _as_array(creation_order, np.int64)
        self.dep_offsets = _as_array(dep_offsets, np.int64)
        self.dep_targets = _as_array(dep_targets, np.int64)
        self.block_offsets = _as_array(block_offsets, np.int64)
        self.block_instructions = _as_array(block_instructions, np.int64)
        self.event_offsets = _as_array(event_offsets, np.int64)
        self.event_address = _as_array(event_address, np.int64)
        self.event_is_write = _as_array(event_is_write, np.bool_)
        self.event_weight = _as_array(event_weight, np.int64)
        self.event_shared = _as_array(event_shared, np.bool_)
        self._record_event_offsets: Optional[np.ndarray] = None
        # Derived-data memo used by consumers (e.g. the batched executor
        # caches its static execution plan here, keyed by model geometry, so
        # repeated simulations of one trace skip the precomputation).
        self.plan_cache: Dict[tuple, object] = {}

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def num_records(self) -> int:
        """Number of task instances."""
        return int(self.task_type_id.shape[0])

    @property
    def num_blocks(self) -> int:
        """Total number of execution blocks across all records."""
        return int(self.block_instructions.shape[0])

    @property
    def num_events(self) -> int:
        """Total number of (weighted) memory events across all records."""
        return int(self.event_address.shape[0])

    def __len__(self) -> int:
        return self.num_records

    @property
    def record_event_offsets(self) -> np.ndarray:
        """Event CSR collapsed to record granularity (length ``n + 1``)."""
        if self._record_event_offsets is None:
            self._record_event_offsets = self.event_offsets[self.block_offsets]
        return self._record_event_offsets

    # ------------------------------------------------------------------
    # Per-record aggregates (vectorised)
    # ------------------------------------------------------------------
    def memory_accesses_per_record(self) -> np.ndarray:
        """Total real accesses (sum of event weights) per record."""
        cumulative = np.concatenate(
            ([0], np.cumsum(self.event_weight, dtype=np.int64))
        )
        offsets = self.record_event_offsets
        return cumulative[offsets[1:]] - cumulative[offsets[:-1]]

    def detail_events_per_record(self) -> np.ndarray:
        """Number of individually resolved memory events per record."""
        offsets = self.record_event_offsets
        return offsets[1:] - offsets[:-1]

    def dependency_counts(self) -> np.ndarray:
        """Number of dependencies per record."""
        return self.dep_offsets[1:] - self.dep_offsets[:-1]

    #: Column order of :meth:`instance_signatures`.
    SIGNATURE_FIELDS = (
        "instructions",     # dynamic instruction count
        "blocks",           # execution-block count (block geometry)
        "detail_events",    # individually resolved memory events
        "memory_accesses",  # weighted (real) memory accesses
        "fan_in",           # dependency fan-in: how many records this one feeds
        "fan_out",          # dependency fan-out: how many records feed this one
    )

    def instance_signatures(self) -> np.ndarray:
        """Cheap per-instance signatures for stratified sampling (phase 1).

        Returns an ``(n, len(SIGNATURE_FIELDS))`` float64 matrix computed
        entirely from the columnar arrays — per-instance op counts, block
        geometry and dependency fan-in/out — with **no** detailed simulation.
        The matrix is memoised in :attr:`plan_cache` (it is read once per
        stratification, but the same warmed trace serves many specs).
        """
        cached = self.plan_cache.get(("instance_signatures",))
        if cached is not None:
            return cached
        fan_in = np.bincount(
            self.dep_targets, minlength=self.num_records
        ).astype(np.int64)[: self.num_records]
        signatures = np.column_stack(
            [
                self.instructions.astype(np.float64),
                (self.block_offsets[1:] - self.block_offsets[:-1]).astype(np.float64),
                self.detail_events_per_record().astype(np.float64),
                self.memory_accesses_per_record().astype(np.float64),
                fan_in.astype(np.float64),
                self.dependency_counts().astype(np.float64),
            ]
        )
        self.plan_cache[("instance_signatures",)] = signatures
        return signatures

    def dependents_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Forward dependency edges as (offsets, targets) CSR arrays.

        ``targets[offsets[i]:offsets[i+1]]`` are the ids of the records that
        depend on record ``i``, in ascending id order.
        """
        n = self.num_records
        counts = np.bincount(self.dep_targets, minlength=n).astype(np.int64)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        # Dependent ids sorted per dependency: a stable sort of dep_targets
        # keeps the (already ascending) dependent order within each group.
        source = np.repeat(
            np.arange(n, dtype=np.int64), self.dependency_counts()
        )
        order = np.argsort(self.dep_targets, kind="stable")
        return offsets, source[order]

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def check_consistency(self) -> None:
        """Validate the integrity of the arrays themselves (untrusted input).

        :meth:`validate` checks the *semantic* invariants of a well-formed
        column bundle; this method checks that the bundle is well-formed in
        the first place — offset arrays of the right length, monotone and
        spanning their body arrays, parallel event arrays of equal length
        and type ids inside the interned table.  Deserialisation of columnar
        files calls it before :meth:`validate` so a corrupt file raises
        :class:`~repro.trace.trace.TraceValidationError` instead of loading
        as a silently different trace.
        """
        from repro.trace.trace import TraceValidationError

        def fail(message: str) -> None:
            raise TraceValidationError(f"inconsistent trace columns: {message}")

        n = self.num_records
        for name in ("instructions", "creation_order"):
            if getattr(self, name).shape[0] != n:
                fail(f"{name} has {getattr(self, name).shape[0]} entries, expected {n}")
        for name, offsets, body, axis in (
            ("dep_offsets", self.dep_offsets, self.dep_targets.shape[0], n),
            ("block_offsets", self.block_offsets, self.num_blocks, n),
            ("event_offsets", self.event_offsets, self.num_events, self.num_blocks),
        ):
            if offsets.shape[0] != axis + 1:
                fail(f"{name} has {offsets.shape[0]} entries, expected {axis + 1}")
            if offsets[0] != 0 or offsets[-1] != body:
                fail(f"{name} does not span [0, {body}]")
            if offsets.size > 1 and bool(np.any(np.diff(offsets) < 0)):
                fail(f"{name} is not monotone")
        num_events = self.num_events
        for name in ("event_is_write", "event_weight", "event_shared"):
            if getattr(self, name).shape[0] != num_events:
                fail(f"{name} has {getattr(self, name).shape[0]} entries,"
                     f" expected {num_events}")
        if n and (
            int(self.task_type_id.min()) < 0
            or int(self.task_type_id.max()) >= len(self.types)
        ):
            fail("task_type_id outside the interned type table")

    def validate(self) -> None:
        """Check structural invariants, vectorised over the columns.

        Raises :class:`~repro.trace.trace.TraceValidationError` (imported
        lazily to avoid a module cycle), naming the offending instance, when
        a dependency does not point to an earlier instance, when the block
        instruction counts do not sum to the instance's, or when a value
        violates the range a record view enforces: a negative instruction
        count (instance or block), a negative event address or an event
        weight below 1.  Instance-id density is guaranteed by construction:
        a record's id *is* its position in the columns.
        """
        from repro.trace.trace import TraceValidationError

        # Value ranges, per CSR body: the owner of the first offending entry
        # is the last record whose offset is at or before it.
        for bad, offsets, what in (
            (self.instructions < 0, np.arange(self.num_records + 1),
             "negative instruction count"),
            (self.block_instructions < 0, self.block_offsets,
             "negative block instruction count"),
            (self.event_address < 0, self.record_event_offsets,
             "negative event address"),
            (self.event_weight < 1, self.record_event_offsets,
             "event weight below 1"),
        ):
            if bad.any():
                first = int(np.argmax(bad))
                owner = int(np.searchsorted(offsets, first, side="right")) - 1
                raise TraceValidationError(f"instance {owner}: {what}")
        if self.dep_targets.size:
            owner = np.repeat(
                np.arange(self.num_records, dtype=np.int64),
                self.dependency_counts(),
            )
            bad = (self.dep_targets < 0) | (self.dep_targets >= owner)
            if bad.any():
                index = int(np.argmax(bad))
                raise TraceValidationError(
                    f"instance {int(owner[index])} depends on"
                    f" {int(self.dep_targets[index])}, which is not an earlier"
                    " instance"
                )
        cumulative = np.concatenate(
            ([0], np.cumsum(self.block_instructions, dtype=np.int64))
        )
        block_sums = cumulative[self.block_offsets[1:]] - cumulative[self.block_offsets[:-1]]
        empty = self.block_offsets[:-1] == self.block_offsets[1:]
        mismatch = (block_sums != self.instructions) & ~empty
        if mismatch.any():
            index = int(np.argmax(mismatch))
            raise TraceValidationError(
                f"instance {index}: sum of block instructions"
                f" ({int(block_sums[index])}) does not match instance"
                f" instruction count ({int(self.instructions[index])})"
            )

    # ------------------------------------------------------------------
    # Record views
    # ------------------------------------------------------------------
    def record(self, index: int) -> TaskTraceRecord:
        """Materialise the :class:`TaskTraceRecord` view of record ``index``."""
        if index < 0:
            index += self.num_records
        if not 0 <= index < self.num_records:
            raise IndexError(f"record index {index} out of range")
        blocks: List[ExecutionBlock] = []
        for block in range(int(self.block_offsets[index]), int(self.block_offsets[index + 1])):
            start, stop = int(self.event_offsets[block]), int(self.event_offsets[block + 1])
            events = tuple(
                MemoryEvent(
                    address=int(self.event_address[position]),
                    is_write=bool(self.event_is_write[position]),
                    weight=int(self.event_weight[position]),
                    shared=bool(self.event_shared[position]),
                )
                for position in range(start, stop)
            )
            blocks.append(
                ExecutionBlock(
                    instructions=int(self.block_instructions[block]),
                    memory_events=events,
                )
            )
        return TaskTraceRecord(
            instance_id=index,
            task_type=self.types.name(int(self.task_type_id[index])),
            instructions=int(self.instructions[index]),
            blocks=blocks,
            depends_on=tuple(
                int(dep)
                for dep in self.dep_targets[
                    int(self.dep_offsets[index]) : int(self.dep_offsets[index + 1])
                ]
            ),
            creation_order=int(self.creation_order[index]),
        )

    def to_records(self) -> List[TaskTraceRecord]:
        """Materialise every record view (bulk path, Python ints throughout)."""
        type_names = self.types.names
        type_ids = self.task_type_id.tolist()
        instructions = self.instructions.tolist()
        creation = self.creation_order.tolist()
        dep_offsets = self.dep_offsets.tolist()
        dep_targets = self.dep_targets.tolist()
        block_offsets = self.block_offsets.tolist()
        block_instr = self.block_instructions.tolist()
        event_offsets = self.event_offsets.tolist()
        address = self.event_address.tolist()
        is_write = self.event_is_write.tolist()
        weight = self.event_weight.tolist()
        shared = self.event_shared.tolist()
        records: List[TaskTraceRecord] = []
        for index in range(self.num_records):
            blocks: List[ExecutionBlock] = []
            for block in range(block_offsets[index], block_offsets[index + 1]):
                events = tuple(
                    MemoryEvent(
                        address=address[position],
                        is_write=is_write[position],
                        weight=weight[position],
                        shared=shared[position],
                    )
                    for position in range(event_offsets[block], event_offsets[block + 1])
                )
                blocks.append(
                    ExecutionBlock(
                        instructions=block_instr[block], memory_events=events
                    )
                )
            records.append(
                TaskTraceRecord(
                    instance_id=index,
                    task_type=type_names[type_ids[index]],
                    instructions=instructions[index],
                    blocks=blocks,
                    depends_on=tuple(
                        dep_targets[dep_offsets[index] : dep_offsets[index + 1]]
                    ),
                    creation_order=creation[index],
                )
            )
        return records

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_records(cls, records: Sequence[TaskTraceRecord]) -> "TraceColumns":
        """Build columns from an existing record list (compatibility path)."""
        builder = ColumnBuilder()
        for record in records:
            builder.add_prepared(
                task_type=record.task_type,
                instructions=record.instructions,
                blocks=[
                    (block.instructions, block.memory_events)
                    for block in record.blocks
                ],
                depends_on=record.depends_on,
                creation_order=record.creation_order,
            )
        return builder.build()

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceColumns):
            return NotImplemented
        return self.types == other.types and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in (
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
        )


class ColumnBuilder:
    """Accumulates trace columns one task instance at a time.

    This is the emission target of the workload generators: each block's
    event run is appended to plain Python lists with one ``extend`` per
    column, and :meth:`build` converts them to NumPy arrays once.  Block
    splitting follows the exact semantics of
    :func:`repro.trace.records.make_record` so column-built and record-built
    traces are indistinguishable.
    """

    def __init__(self) -> None:
        self.types = TaskTypeTable()
        self._task_type_id: List[int] = []
        self._instructions: List[int] = []
        self._creation_order: List[int] = []
        self._dep_offsets: List[int] = [0]
        self._dep_targets: List[int] = []
        self._block_offsets: List[int] = [0]
        self._block_instructions: List[int] = []
        self._event_offsets: List[int] = [0]
        self._event_address: List[int] = []
        self._event_is_write: List[bool] = []
        self._event_weight: List[int] = []
        self._event_shared: List[bool] = []

    # ------------------------------------------------------------------
    @property
    def num_records(self) -> int:
        """Number of task instances added so far."""
        return len(self._task_type_id)

    def add_task(
        self,
        task_type: str,
        instructions: int,
        memory_events: Union[EventRun, Sequence[MemoryEvent], None] = None,
        depends_on: Sequence[int] = (),
        blocks_hint: int = 1,
        creation_order: Optional[int] = None,
    ) -> int:
        """Append one instance, splitting events into blocks like ``make_record``."""
        if instructions < 0:
            raise ValueError("instructions must be non-negative")
        run = as_event_run(memory_events)
        counts = split_instructions(instructions, len(run), blocks_hint)
        instance_id = self._start_record(task_type, instructions, depends_on, creation_order)
        self._append_blocks(counts, run)
        self._block_offsets.append(len(self._block_instructions))
        return instance_id

    def add_prepared(
        self,
        task_type: str,
        instructions: int,
        blocks: Sequence[Tuple[int, Union[EventRun, Sequence[MemoryEvent]]]],
        depends_on: Sequence[int] = (),
        creation_order: Optional[int] = None,
    ) -> int:
        """Append one instance with an explicit block structure.

        Value ranges are not checked here: :meth:`TraceColumns.validate`
        checks them on the finished columns.
        """
        instance_id = self._start_record(task_type, instructions, depends_on, creation_order)
        for block_instructions, events in blocks:
            self._append_blocks([block_instructions], as_event_run(events))
        self._block_offsets.append(len(self._block_instructions))
        return instance_id

    def _start_record(
        self,
        task_type: str,
        instructions: int,
        depends_on: Sequence[int],
        creation_order: Optional[int],
    ) -> int:
        instance_id = len(self._task_type_id)
        self._task_type_id.append(self.types.intern(task_type))
        self._instructions.append(instructions)
        self._creation_order.append(
            creation_order if creation_order is not None else instance_id
        )
        self._dep_targets.extend(map(int, depends_on))
        self._dep_offsets.append(len(self._dep_targets))
        return instance_id

    def _append_blocks(self, counts: Sequence[int], run: EventRun) -> None:
        """Append one block per entry of ``counts``, dealing ``run`` round-robin."""
        stride = len(counts)
        for index, count in enumerate(counts):
            self._block_instructions.append(count)
            self._event_address.extend(run.address[index::stride])
            self._event_is_write.extend(run.is_write[index::stride])
            self._event_weight.extend(run.weight[index::stride])
            self._event_shared.extend(run.shared[index::stride])
            self._event_offsets.append(len(self._event_address))

    def build(self) -> TraceColumns:
        """Freeze the accumulated lists into :class:`TraceColumns`."""
        return TraceColumns(
            types=self.types,
            task_type_id=self._task_type_id,
            instructions=self._instructions,
            creation_order=self._creation_order,
            dep_offsets=self._dep_offsets,
            dep_targets=self._dep_targets,
            block_offsets=self._block_offsets,
            block_instructions=self._block_instructions,
            event_offsets=self._event_offsets,
            event_address=self._event_address,
            event_is_write=self._event_is_write,
            event_weight=self._event_weight,
            event_shared=self._event_shared,
        )
