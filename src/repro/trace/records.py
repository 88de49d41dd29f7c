"""Trace records describing the dynamic behaviour of task instances.

A task instance is the unit of work scheduled by the runtime system and the
sampling unit used by TaskPoint.  The trace of an instance summarises what the
instance does when executed:

* how many dynamic instructions it retires,
* which memory locations it touches (as a bounded list of *weighted* memory
  events, each standing in for ``weight`` real accesses with the same locality
  behaviour), and
* how those accesses are interleaved with computation (execution blocks).

Keeping the memory behaviour as a bounded list of weighted events is what
makes full detailed simulation of tens of thousands of task instances
tractable in pure Python while preserving the properties TaskPoint's
evaluation depends on: per-instance IPC that reacts to cache state, shared
resource contention and input-dependent working sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple, Union


@dataclass(frozen=True)
class MemoryEvent:
    """A single weighted memory access of a task instance.

    Parameters
    ----------
    address:
        Byte address of the access.  Addresses are virtual and global to the
        application, so two task instances touching the same address share
        data (and cache lines).
    is_write:
        ``True`` for a store, ``False`` for a load.
    weight:
        Number of real accesses this event stands in for.  The detailed model
        resolves the event through the cache hierarchy once and charges its
        latency ``weight`` times with a diminishing-overlap factor.
    shared:
        Whether the address belongs to data shared between task instances
        (and therefore subject to invalidation by writers on other cores).
    """

    address: int
    is_write: bool = False
    weight: int = 1
    shared: bool = False

    def __post_init__(self) -> None:
        if self.address < 0:
            raise ValueError(f"address must be non-negative, got {self.address}")
        if self.weight < 1:
            raise ValueError(f"weight must be >= 1, got {self.weight}")


class EventRun:
    """A run of weighted memory events, stored as four parallel lists.

    This is the form in which workload generators emit memory behaviour:
    event ``i`` is ``(address[i], is_write[i], weight[i], shared[i])``, with
    the meaning of the :class:`MemoryEvent` fields, but no per-event object
    is allocated.  Runs are appended to the trace columns with list
    ``extend``s (:class:`~repro.trace.columns.ColumnBuilder`).  The value
    invariants a :class:`MemoryEvent` enforces on construction (non-negative
    address, weight at least 1) are checked on the finished columns by
    :meth:`~repro.trace.columns.TraceColumns.validate`.
    """

    __slots__ = ("address", "is_write", "weight", "shared")

    def __init__(
        self,
        address: Optional[List[int]] = None,
        is_write: Optional[List[bool]] = None,
        weight: Optional[List[int]] = None,
        shared: Optional[List[bool]] = None,
    ) -> None:
        self.address = address if address is not None else []
        self.is_write = is_write if is_write is not None else []
        self.weight = weight if weight is not None else []
        self.shared = shared if shared is not None else []

    def events(self) -> Tuple[MemoryEvent, ...]:
        """Materialise the run as :class:`MemoryEvent` objects (record views)."""
        return tuple(
            MemoryEvent(address=address, is_write=is_write, weight=weight, shared=shared)
            for address, is_write, weight, shared in zip(
                self.address, self.is_write, self.weight, self.shared
            )
        )

    def extend(self, other: "EventRun") -> None:
        """Append the events of ``other`` to this run."""
        self.address.extend(other.address)
        self.is_write.extend(other.is_write)
        self.weight.extend(other.weight)
        self.shared.extend(other.shared)

    def __len__(self) -> int:
        return len(self.address)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventRun):
            return NotImplemented
        return (
            self.address == other.address
            and self.is_write == other.is_write
            and self.weight == other.weight
            and self.shared == other.shared
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventRun({len(self)} events)"


def as_event_run(events: Union[EventRun, Sequence[MemoryEvent], None]) -> EventRun:
    """Return ``events`` as an :class:`EventRun`.

    The one place where hand-built :class:`MemoryEvent` sequences (examples,
    tests, record-built traces) enter the columnar emission path.
    """
    if isinstance(events, EventRun):
        return events
    events = list(events or ())
    return EventRun(
        [event.address for event in events],
        [event.is_write for event in events],
        [event.weight for event in events],
        [event.shared for event in events],
    )


@dataclass(frozen=True)
class ExecutionBlock:
    """A region of a task instance: compute instructions plus memory events.

    The detailed core model charges ``instructions`` dispatch cycles through
    the ROB-occupancy model and resolves the block's memory events through the
    cache hierarchy.  Blocks model the interleaving of computation and memory
    traffic within one task instance; they are the granularity at which
    memory-level parallelism is modelled.
    """

    instructions: int
    memory_events: Tuple[MemoryEvent, ...] = ()

    def __post_init__(self) -> None:
        if self.instructions < 0:
            raise ValueError(
                f"instructions must be non-negative, got {self.instructions}"
            )
        if not isinstance(self.memory_events, tuple):
            object.__setattr__(self, "memory_events", tuple(self.memory_events))

    @property
    def memory_accesses(self) -> int:
        """Total number of real memory accesses represented by this block."""
        return sum(event.weight for event in self.memory_events)


@dataclass
class TaskTraceRecord:
    """Dynamic trace of one task instance.

    Attributes
    ----------
    instance_id:
        Unique, dense identifier of the task instance within its application
        trace.  Instance ids follow task creation order.
    task_type:
        Name of the task type (all instances created from the same task
        declaration share a type).
    instructions:
        Total dynamic instruction count of the instance.  This is the value
        TaskPoint's fast-forward mechanism multiplies by ``1 / IPC_T``.
    blocks:
        Execution blocks; their instruction counts sum to ``instructions``.
    depends_on:
        Instance ids this instance depends on (it only becomes ready once all
        of them completed).  Derived from the data dependencies declared by
        the task-based program.
    creation_order:
        Position in program order in which the runtime created the instance.
        The dynamic scheduler is free to execute ready instances in any order.
    """

    instance_id: int
    task_type: str
    instructions: int
    blocks: List[ExecutionBlock] = field(default_factory=list)
    depends_on: Tuple[int, ...] = ()
    creation_order: int = 0

    def __post_init__(self) -> None:
        if self.instance_id < 0:
            raise ValueError("instance_id must be non-negative")
        if self.instructions < 0:
            raise ValueError("instructions must be non-negative")
        if not isinstance(self.depends_on, tuple):
            self.depends_on = tuple(self.depends_on)
        if self.blocks:
            block_total = sum(block.instructions for block in self.blocks)
            if block_total != self.instructions:
                raise ValueError(
                    "sum of block instructions"
                    f" ({block_total}) does not match instance instruction count"
                    f" ({self.instructions})"
                )

    @property
    def memory_events(self) -> Iterator[MemoryEvent]:
        """Iterate over all memory events of the instance in program order."""
        for block in self.blocks:
            for event in block.memory_events:
                yield event

    @property
    def memory_accesses(self) -> int:
        """Total number of real memory accesses of the instance."""
        return sum(block.memory_accesses for block in self.blocks)

    @property
    def detail_events(self) -> int:
        """Number of memory events the detailed model resolves individually."""
        return sum(len(block.memory_events) for block in self.blocks)

    def working_set(self) -> int:
        """Approximate working-set size in bytes (distinct cache lines x 64)."""
        lines = {event.address // 64 for block in self.blocks for event in block.memory_events}
        return len(lines) * 64


def split_instructions(instructions: int, num_events: int, blocks_hint: int) -> List[int]:
    """Per-block instruction counts of an instance split into execution blocks.

    The instance gets ``blocks_hint`` blocks (fewer when it has fewer
    events, at least one); the instruction count is split evenly with the
    remainder charged to the last block, and the events are dealt
    round-robin, so block ``i`` of ``k`` owns ``events[i::k]``.  This is the
    single definition of the split used by both :func:`make_record` and the
    columnar :meth:`~repro.trace.columns.ColumnBuilder.add_task`, keeping
    record-built and column-built traces bit-identical.
    """
    if blocks_hint < 1:
        raise ValueError("blocks_hint must be >= 1")
    blocks = max(1, min(blocks_hint, num_events))
    per_block = instructions // blocks
    return [per_block] * (blocks - 1) + [instructions - per_block * (blocks - 1)]


def make_record(
    instance_id: int,
    task_type: str,
    instructions: int,
    memory_events: Union[EventRun, Sequence[MemoryEvent], None] = None,
    depends_on: Sequence[int] = (),
    blocks_hint: int = 1,
    creation_order: Optional[int] = None,
) -> TaskTraceRecord:
    """Convenience constructor splitting a flat event run into blocks.

    The events are distributed round-robin over ``blocks_hint`` execution
    blocks and the instruction count is split evenly (see
    :func:`split_instructions`), which is sufficient for workload generators
    that do not care about intra-task phase behaviour.
    """
    events = as_event_run(memory_events).events()
    counts = split_instructions(instructions, len(events), blocks_hint)
    blocks = [
        ExecutionBlock(instructions=count, memory_events=events[index :: len(counts)])
        for index, count in enumerate(counts)
    ]
    return TaskTraceRecord(
        instance_id=instance_id,
        task_type=task_type,
        instructions=instructions,
        blocks=blocks,
        depends_on=tuple(depends_on),
        creation_order=creation_order if creation_order is not None else instance_id,
    )
