"""Task types and task instances.

Terminology follows the paper: every execution of a task declaration creates
a *task instance*; all instances created from the same declaration share a
*task type*.  The number of task types is small (1-11 for the evaluated
benchmarks) while the number of instances is in the thousands.

Instances created by the runtime from a columnar trace are lightweight: they
carry only the scalar state the scheduler and the mode controller need
(instance id, instruction count, task type, lifecycle state); the full
:class:`~repro.trace.records.TaskTraceRecord` view is materialised from the
trace columns on first access to :attr:`TaskInstance.record`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from repro.trace.records import TaskTraceRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.trace.trace import ApplicationTrace


class TaskState(enum.Enum):
    """Lifecycle of a task instance inside the runtime."""

    CREATED = "created"        # dependencies not yet satisfied
    READY = "ready"            # all dependencies satisfied, waiting for a thread
    RUNNING = "running"        # assigned to a worker thread
    COMPLETED = "completed"    # finished execution


@dataclass(frozen=True)
class TaskType:
    """A task declaration in the (synthetic) program source."""

    name: str
    type_id: int

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


class TaskInstance:
    """A single dynamically created task instance.

    The instance adds the runtime-side state to its trace record: dependency
    counters, the worker it ran on and its measured timing once completed.
    Construct it either from a materialised ``record`` (compatibility path,
    used by tests) or from ``(trace, instance_id)``, in which case the record
    view is materialised lazily from the trace columns.
    """

    __slots__ = (
        "task_type",
        "state",
        "remaining_dependencies",
        "worker_id",
        "start_cycle",
        "end_cycle",
        "_record",
        "_trace",
        "_instance_id",
        "_instructions",
    )

    def __init__(
        self,
        record: Optional[TaskTraceRecord] = None,
        task_type: Optional[TaskType] = None,
        state: TaskState = TaskState.CREATED,
        remaining_dependencies: int = 0,
        worker_id: Optional[int] = None,
        start_cycle: Optional[float] = None,
        end_cycle: Optional[float] = None,
        *,
        trace: Optional["ApplicationTrace"] = None,
        instance_id: Optional[int] = None,
        instructions: Optional[int] = None,
    ) -> None:
        if record is None and (trace is None or instance_id is None):
            raise ValueError("pass either a record or (trace, instance_id)")
        self._record = record
        self._trace = trace
        self._instance_id = (
            record.instance_id if record is not None else int(instance_id)  # type: ignore[arg-type]
        )
        if instructions is not None:
            self._instructions = instructions
        elif record is not None:
            self._instructions = record.instructions
        else:
            self._instructions = int(trace.columns.instructions[instance_id])  # type: ignore[union-attr]
        self.task_type = task_type
        self.state = state
        self.remaining_dependencies = remaining_dependencies
        self.worker_id = worker_id
        self.start_cycle = start_cycle
        self.end_cycle = end_cycle

    # ------------------------------------------------------------------
    @property
    def record(self) -> TaskTraceRecord:
        """Trace record of the instance (materialised lazily from columns).

        Goes through the trace so an already-materialised record list is
        reused instead of rebuilding the view from the columns.
        """
        if self._record is None:
            self._record = self._trace[self._instance_id]  # type: ignore[index]
        return self._record

    @property
    def instance_id(self) -> int:
        """Identifier of the instance (same as its trace record's id)."""
        return self._instance_id

    @property
    def instructions(self) -> int:
        """Dynamic instruction count of the instance."""
        return self._instructions

    @property
    def cycles(self) -> Optional[float]:
        """Execution time in cycles, or ``None`` if not completed."""
        if self.start_cycle is None or self.end_cycle is None:
            return None
        return self.end_cycle - self.start_cycle

    @property
    def ipc(self) -> Optional[float]:
        """Measured IPC of the instance, or ``None`` if not completed."""
        cycles = self.cycles
        if cycles is None or cycles <= 0:
            return None
        return self._instructions / cycles

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = self.task_type.name if self.task_type is not None else "?"
        return (
            f"TaskInstance(id={self._instance_id}, type={name},"
            f" state={self.state.value})"
        )

    def mark_ready(self) -> None:
        """Transition CREATED -> READY (all dependencies satisfied)."""
        if self.state is not TaskState.CREATED:
            raise ValueError(f"cannot mark {self.state} instance ready")
        if self.remaining_dependencies != 0:
            raise ValueError("instance still has unsatisfied dependencies")
        self.state = TaskState.READY

    def mark_running(self, worker_id: int, start_cycle: float) -> None:
        """Transition READY -> RUNNING on ``worker_id`` at ``start_cycle``."""
        if self.state is not TaskState.READY:
            raise ValueError(f"cannot start {self.state} instance")
        self.state = TaskState.RUNNING
        self.worker_id = worker_id
        self.start_cycle = start_cycle

    def mark_completed(self, end_cycle: float) -> None:
        """Transition RUNNING -> COMPLETED at ``end_cycle``."""
        if self.state is not TaskState.RUNNING:
            raise ValueError(f"cannot complete {self.state} instance")
        if self.start_cycle is not None and end_cycle < self.start_cycle:
            raise ValueError("end cycle precedes start cycle")
        self.state = TaskState.COMPLETED
        self.end_cycle = end_cycle
