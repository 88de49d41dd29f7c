"""TaskPoint model parameters.

The paper's sensitivity analysis (Section V-A, Figure 6) determines the
default values used for the evaluation: a warm-up interval of W = 2 task
instances per thread, a sample-history size of H = 4 and a sampling period of
P = 250 for periodic sampling (P = ∞, i.e. ``None`` here, selects lazy
sampling).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional


def validate_trigger_fields(config) -> None:
    """Check the warm-up and thread-change trigger fields of a sampling config.

    Every sampling engine's config (TaskPoint, stratified, fidelity) carries
    ``warmup_instances``, ``resample_warmup_instances``,
    ``resample_on_thread_change``, ``thread_change_tolerance`` and
    ``thread_change_persistence`` with identical semantics; they are consumed
    by :class:`repro.core.controller.SamplingController`.
    """
    if config.warmup_instances < 0:
        raise ValueError("warmup_instances must be non-negative")
    if config.resample_warmup_instances < 0:
        raise ValueError("resample_warmup_instances must be non-negative")
    if config.thread_change_tolerance < 0:
        raise ValueError("thread_change_tolerance must be non-negative")
    if config.thread_change_persistence < 1:
        raise ValueError("thread_change_persistence must be >= 1")


@dataclass(frozen=True)
class TaskPointConfig:
    """Configuration of the TaskPoint sampling methodology.

    Attributes
    ----------
    warmup_instances:
        W — number of task instances each thread simulates in detail at
        simulation start purely to warm micro-architectural state.
    history_size:
        H — capacity of the per-task-type FIFO histories (both the history of
        valid samples and the history of all samples).
    sampling_period:
        P — number of task instances a thread may fast-forward before the
        periodic sampling policy triggers resampling.  ``None`` means an
        infinite period, i.e. lazy sampling.
    rare_type_cutoff:
        Number of consecutive task instances every thread must simulate
        without encountering an instance of a not-yet-fully-sampled (rare)
        task type before sampling is cut off (paper uses 5).
    resample_warmup_instances:
        Number of detailed instances each thread simulates to re-warm state
        before resampling measurements begin (paper uses 1).
    resample_on_new_task_type:
        Trigger resampling when fast-forward encounters a task type whose
        histories are both empty (Figure 4b).
    resample_on_thread_change:
        Trigger resampling when the number of threads participating in task
        execution changes relative to when the current samples were taken
        (Figure 4a).
    thread_change_tolerance:
        Relative change in the number of active threads required to trigger
        the thread-change resample (0.5 means the active-thread count must
        grow or shrink by at least 50%).  Small transient fluctuations at
        task boundaries are thereby ignored.
    thread_change_persistence:
        Number of consecutive fast-forward decisions that must observe the
        changed thread count before resampling is triggered.  This filters
        out the momentary dips in available parallelism that occur at task
        dependency boundaries without affecting genuine phase changes.
    """

    warmup_instances: int = 2
    history_size: int = 4
    sampling_period: Optional[int] = 250
    rare_type_cutoff: int = 5
    resample_warmup_instances: int = 1
    resample_on_new_task_type: bool = True
    resample_on_thread_change: bool = True
    thread_change_tolerance: float = 0.5
    thread_change_persistence: int = 5

    def __post_init__(self) -> None:
        if self.history_size < 1:
            raise ValueError("history_size must be >= 1")
        if self.sampling_period is not None and self.sampling_period < 1:
            raise ValueError("sampling_period must be >= 1 or None for lazy sampling")
        if self.rare_type_cutoff < 1:
            raise ValueError("rare_type_cutoff must be >= 1")
        validate_trigger_fields(self)

    # ------------------------------------------------------------------
    @property
    def is_lazy(self) -> bool:
        """``True`` when the sampling period is infinite (lazy sampling)."""
        return self.sampling_period is None

    def with_period(self, sampling_period: Optional[int]) -> "TaskPointConfig":
        """Return a copy with a different sampling period."""
        return replace(self, sampling_period=sampling_period)

    def with_warmup(self, warmup_instances: int) -> "TaskPointConfig":
        """Return a copy with a different warm-up interval."""
        return replace(self, warmup_instances=warmup_instances)

    def with_history(self, history_size: int) -> "TaskPointConfig":
        """Return a copy with a different history size."""
        return replace(self, history_size=history_size)


def periodic_config(
    sampling_period: int = 250,
    warmup_instances: int = 2,
    history_size: int = 4,
) -> TaskPointConfig:
    """The paper's periodic-sampling configuration (W=2, H=4, P=250)."""
    return TaskPointConfig(
        warmup_instances=warmup_instances,
        history_size=history_size,
        sampling_period=sampling_period,
    )


def lazy_config(warmup_instances: int = 2, history_size: int = 4) -> TaskPointConfig:
    """The paper's lazy-sampling configuration (W=2, H=4, P=∞)."""
    return TaskPointConfig(
        warmup_instances=warmup_instances,
        history_size=history_size,
        sampling_period=None,
    )
