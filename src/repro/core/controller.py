"""The TaskPoint controller: sampling mechanism driving the simulator modes.

The controller implements the :class:`repro.sim.modes.ModeController`
interface and realises the sampling mechanism of paper §III-B:

1. **Warm-up** — at simulation start each thread simulates
   ``warmup_instances`` (W) task instances in detail; their IPCs are added
   only to the history of *all* samples.
2. **Sampling** — subsequent instances are simulated in detail as *valid
   samples* (added to both histories).  Sampling ends — and fast-forwarding
   begins — when either every observed task type's valid history is full, or
   every thread has simulated ``rare_type_cutoff`` instances in a row without
   encountering an instance of a not-yet-fully-sampled (rare) task type.
3. **Fast-forward** — instances are advanced in burst mode at the mean IPC of
   their type's valid history (falling back to the history of all samples for
   rare types).  Instances that started in detailed mode before the switch
   run to completion in detailed mode but are only added to the history of
   all samples.
4. **Resampling** — triggered by the sampling policy (periodic sampling after
   P fast-forwarded instances per thread; never for lazy sampling), by a
   change in the number of threads participating in execution, or by an
   instance whose task type has no samples at all.  Resampling discards the
   valid histories, re-warms each thread with one detailed instance and then
   samples again.

The per-worker warm-up accounting, the thread-count trigger and resample
recording are one mechanism shared by every sampling engine:
:class:`SamplingController` holds it, and :class:`TaskPointController`, the
stratified engine (:mod:`repro.core.stratified`) and the fidelity controller
(:mod:`repro.core.fidelity`) subclass it.
"""

from __future__ import annotations

import enum
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.config import TaskPointConfig
from repro.core.fastforward import FastForwardEstimator
from repro.core.history import HistoryTable
from repro.core.policies import SamplingPolicy, make_policy
from repro.runtime.task import TaskInstance
from repro.sim.modes import (
    DETAILED_DECISION,
    DETAILED_WARMUP_DECISION,
    CompletionInfo,
    ModeDecision,
    SimulationMode,
    burst_decision,
)


class SamplingPhase(enum.Enum):
    """Global phase of the sampling mechanism."""

    SAMPLING = "sampling"            # detailed simulation (warm-up or valid samples)
    FAST_FORWARD = "fast_forward"    # burst simulation at per-type IPC


class ResampleReason(enum.Enum):
    """Why a resampling interval was triggered."""

    PERIOD_ELAPSED = "period_elapsed"
    THREAD_COUNT_CHANGE = "thread_count_change"
    NEW_TASK_TYPE = "new_task_type"
    EMPTY_HISTORY = "empty_history"
    #: Per-type drift re-open of the fidelity controller: the type's
    #: prequential residual window shifted outside its error allowance.
    DRIFT = "drift"


#: IPC recorded for a detailed completion that measured no forward progress
#: (``ipc <= 0``, e.g. a zero-instruction task type).  Recording a floor
#: sample instead of dropping the completion keeps the type's history
#: non-empty — fast-forwarding a zero-instruction instance at this IPC
#: costs ``0 / ZERO_IPC_FLOOR = 0`` cycles, while dropping it made every
#: fast-forward attempt of the type fire an EMPTY_HISTORY resample
#: (degrading the whole run to detailed simulation).
ZERO_IPC_FLOOR = 1e-9


@dataclass
class TaskPointStatistics:
    """Counters describing what the sampling mechanism did during a run."""

    warmup_instances: int = 0
    valid_samples: int = 0
    invalid_samples: int = 0
    fast_forwarded: int = 0
    transitions_to_fast: int = 0
    resamples: int = 0
    resample_reasons: Counter = field(default_factory=Counter)
    fallback_estimates: int = 0

    @property
    def detailed_instances(self) -> int:
        """Total task instances simulated in detailed mode."""
        return self.warmup_instances + self.valid_samples + self.invalid_samples

    @property
    def total_instances(self) -> int:
        """Total task instances the controller made a decision for."""
        return self.detailed_instances + self.fast_forwarded

    @property
    def detailed_fraction(self) -> float:
        """Fraction of instances simulated in detail."""
        total = self.total_instances
        return self.detailed_instances / total if total else 0.0


def combine_confidence(
    total_cycles: float,
    errors: Iterable[Tuple[float, Optional[float]]],
    **counts: int,
) -> Optional[Dict[str, object]]:
    """95% CI of an estimated execution time, as a JSON-friendly dict.

    ``errors`` yields one ``(ff_cycles, scaled_error)`` pair per stratum or
    task type that fast-forwarded: its fast-forwarded cycles and their
    relative error at 95% confidence, or ``None`` when it has no error
    estimate of its own.  Those fall back to the widest scaled error seen
    (or 100% if none exists at all — conservative); all terms combine as
    independent errors.  ``counts`` are appended to the dict.  Returns
    ``None`` when nothing was fast-forwarded (the estimate is exact — a
    detailed run).
    """
    if total_cycles <= 0:
        return None
    contributions: List[float] = []
    pending = 0.0  # ff cycles without their own error estimate
    widest = 0.0
    for ff_cycles, scaled in errors:
        if scaled is None:
            pending += ff_cycles
            continue
        widest = max(widest, scaled)
        contributions.append(ff_cycles * scaled)
    if pending > 0:
        contributions.append(pending * (widest if widest > 0 else 1.0))
    if not contributions:
        return None
    # Plain floats throughout: the dict must survive json.dumps (store
    # records, worker frames) and NumPy scalars leak in via ff_cycles.
    half_width = float(math.sqrt(sum(value * value for value in contributions)))
    total_cycles = float(total_cycles)
    return {
        "level": 0.95,
        "half_width_cycles": half_width,
        "half_width_percent": 100.0 * half_width / total_cycles,
        "lower_cycles": total_cycles - half_width,
        "upper_cycles": total_cycles + half_width,
        **counts,
    }


class SamplingController:
    """Sampling mechanism shared by every engine (paper §III-B).

    Owns per-worker warm-up accounting, the Figure 4a thread-count trigger
    with tolerance and persistence, resample recording and the zero-IPC
    completion rule.  Subclasses implement the
    :class:`repro.sim.modes.ModeController` interface on top of it: each
    supplies its own ``choose_mode`` order, estimator and resample policy.

    ``config`` carries the trigger fields every sampling config shares
    (validated by :func:`repro.core.config.validate_trigger_fields`);
    ``stats`` is a :class:`TaskPointStatistics` (or subclass).
    """

    def __init__(self, config, stats: TaskPointStatistics) -> None:
        self.config = config
        self.stats = stats
        # Per-worker warm-up budget.  Tracked explicitly per worker rather
        # than via a defaultdict factory: a worker's *first* participation
        # always warms with the full W (``warmup_instances``), even when it
        # joins after a resample; only workers that already warmed re-warm
        # with the short ``resample_warmup_instances`` budget.
        self._warmup_remaining: Dict[int, int] = {}
        self._warmed_workers: Set[int] = set()
        # Number of threads participating in execution when the current
        # samples were taken; None while the thread-change trigger is
        # unarmed.
        self._sampled_thread_count: Optional[int] = None
        # Consecutive decisions that observed a thread count outside the
        # tolerance band (Figure 4a trigger with persistence).
        self._thread_change_streak: int = 0

    # ------------------------------------------------------------------
    # Warm-up accounting
    # ------------------------------------------------------------------
    def _remaining_warmup(self, worker_id: int) -> int:
        """This worker's current warm-up budget, lazily initialised.

        A worker absent from ``_warmup_remaining`` is starting (or
        re-starting after a resample cleared the table): its budget is the
        short resample warm-up if it has warmed before, the full initial W
        otherwise.
        """
        remaining = self._warmup_remaining.get(worker_id)
        if remaining is None:
            remaining = (
                self.config.resample_warmup_instances
                if worker_id in self._warmed_workers
                else self.config.warmup_instances
            )
            self._warmup_remaining[worker_id] = remaining
        return remaining

    def _complete_warmup(self, worker_id: int) -> None:
        """Count a completed warm-up instance against the worker's budget."""
        self.stats.warmup_instances += 1
        remaining = self._remaining_warmup(worker_id)
        if remaining > 0:
            self._warmup_remaining[worker_id] = remaining - 1

    def _detailed_decision(self, worker_id: int) -> ModeDecision:
        """A detailed decision, flagged as warm-up while budget remains."""
        if self._remaining_warmup(worker_id) > 0:
            return DETAILED_WARMUP_DECISION
        return DETAILED_DECISION

    @staticmethod
    def _measured_ipc(info: CompletionInfo) -> float:
        """IPC of a detailed completion, floored at :data:`ZERO_IPC_FLOOR`.

        The completion still runs the warm-up and sample bookkeeping.
        """
        return info.ipc if info.ipc > 0 else ZERO_IPC_FLOOR

    # ------------------------------------------------------------------
    # Thread-count trigger and resampling
    # ------------------------------------------------------------------
    def _arm_thread_trigger(self, active_workers: int) -> None:
        """Record the thread count the current samples are taken under."""
        self._sampled_thread_count = active_workers
        self._thread_change_streak = 0

    def _thread_count_changed(self, active_workers: int) -> bool:
        """Check the Figure 4a trigger with tolerance and persistence.

        A resample is only triggered once the active-thread count has stayed
        outside the tolerance band for ``thread_change_persistence``
        consecutive checks, so momentary dips at dependency boundaries do
        not discard otherwise valid samples.
        """
        if not self.config.resample_on_thread_change:
            return False
        if not self._sampled_thread_count:
            return False
        change = (
            abs(active_workers - self._sampled_thread_count)
            / self._sampled_thread_count
        )
        if change > self.config.thread_change_tolerance:
            self._thread_change_streak += 1
        else:
            self._thread_change_streak = 0
        return self._thread_change_streak >= self.config.thread_change_persistence

    def _record_resample(self, reason: ResampleReason) -> None:
        """Count a global resample and re-warm the workers.

        Already-warmed workers re-warm with the short resample budget; a
        worker first participating after this still gets the full initial W
        (see :meth:`_remaining_warmup`).
        """
        self.stats.resamples += 1
        self.stats.resample_reasons[reason] += 1
        self._thread_change_streak = 0
        self._warmup_remaining.clear()


class TaskPointController(SamplingController):
    """Drives a TaskSim-style simulator according to the TaskPoint methodology.

    Parameters
    ----------
    config:
        TaskPoint model parameters (W, H, P and the resampling triggers).
    policy:
        Sampling policy.  ``None`` derives the policy from
        ``config.sampling_period`` (periodic for an integer, lazy for
        ``None``).
    """

    def __init__(
        self,
        config: Optional[TaskPointConfig] = None,
        policy: Optional[SamplingPolicy] = None,
    ) -> None:
        config = config if config is not None else TaskPointConfig()
        super().__init__(config, TaskPointStatistics())
        self.policy = policy if policy is not None else make_policy(config.sampling_period)
        self.histories = HistoryTable(config.history_size)
        self.estimator = FastForwardEstimator(self.histories)

        self.phase = SamplingPhase.SAMPLING
        # Per-worker count of consecutive completed instances whose type was
        # already fully sampled (used for the rare-type sampling cut-off).
        self._since_rare: Dict[int, int] = defaultdict(int)
        # Per-worker count of instances fast-forwarded since the last
        # sampling interval (used by the periodic policy).
        self._fast_forwarded: Dict[int, int] = defaultdict(int)

    # ------------------------------------------------------------------
    # Phase transitions
    # ------------------------------------------------------------------
    def _sampling_complete(self) -> bool:
        """Evaluate the two sampling-termination conditions of the paper."""
        states = self.histories.states
        if not states:
            return False
        if self.histories.all_fully_sampled():
            return True
        # Cut-off: every worker that has completed work has gone
        # ``rare_type_cutoff`` instances without meeting a rare type, and at
        # least one type is usable for fast-forwarding.
        if not self._since_rare:
            return False
        any_usable = any(not state.all.is_empty for state in states)
        if not any_usable:
            return False
        return all(
            count >= self.config.rare_type_cutoff for count in self._since_rare.values()
        )

    def _enter_fast_forward(self, active_workers: int) -> None:
        self.phase = SamplingPhase.FAST_FORWARD
        self.stats.transitions_to_fast += 1
        # Re-armed on every entry to fast-forward; a resample leaves the
        # previous count in place (it is overwritten on the next entry).
        self._arm_thread_trigger(active_workers)
        self._fast_forwarded.clear()
        self.policy.reset()

    def _trigger_resample(self, reason: ResampleReason) -> None:
        """Discard valid samples and return to the sampling phase."""
        self.phase = SamplingPhase.SAMPLING
        self._record_resample(reason)
        self.histories.clear_valid()
        self._since_rare.clear()
        self._fast_forwarded.clear()

    # ------------------------------------------------------------------
    # ModeController interface
    # ------------------------------------------------------------------
    def choose_mode(
        self,
        instance: TaskInstance,
        worker_id: int,
        active_workers: int,
        current_cycle: float,
    ) -> ModeDecision:
        """Decide how the simulator should execute ``instance``."""
        task_type = instance.task_type.name
        first_encounter = not self.histories.known(task_type)
        state = self.histories.state(task_type)

        if self.phase is SamplingPhase.SAMPLING:
            if self._sampling_complete():
                self._enter_fast_forward(active_workers)
            else:
                return self._detailed_decision(worker_id)

        # Fast-forward phase: check the resampling triggers in the order the
        # paper discusses them (correctness triggers first, then the policy).
        if first_encounter and self.config.resample_on_new_task_type:
            self._trigger_resample(ResampleReason.NEW_TASK_TYPE)
            return self._detailed_decision(worker_id)
        if self._thread_count_changed(active_workers):
            self._trigger_resample(ResampleReason.THREAD_COUNT_CHANGE)
            return self._detailed_decision(worker_id)
        if self.policy.should_resample(self._fast_forwarded[worker_id]):
            self._trigger_resample(ResampleReason.PERIOD_ELAPSED)
            return self._detailed_decision(worker_id)

        estimate = self.estimator.estimate_type(task_type, instance.instructions)
        if estimate is None:
            # No sample of any kind for this type: impossible to fast-forward.
            self._trigger_resample(ResampleReason.EMPTY_HISTORY)
            return self._detailed_decision(worker_id)
        if estimate.used_fallback:
            self.stats.fallback_estimates += 1
        self._fast_forwarded[worker_id] += 1
        state.record_fast_forward()
        self.stats.fast_forwarded += 1
        return burst_decision(estimate.ipc)

    def notify_completion(self, info: CompletionInfo) -> None:
        """Record the measured IPC of a detailed instance in the histories."""
        if info.mode is not SimulationMode.DETAILED:
            return
        self._warmed_workers.add(info.worker_id)
        ipc = self._measured_ipc(info)
        state = self.histories.state(info.instance.task_type.name)
        if info.is_warmup:
            # Warm-up instances only feed the history of all samples.
            state.record_detailed(ipc, valid=False)
            self._complete_warmup(info.worker_id)
        elif self.phase is SamplingPhase.SAMPLING:
            state.record_detailed(ipc, valid=True)
            self.stats.valid_samples += 1
            dispersion = state.valid.coefficient_of_variation()
            if dispersion is not None:
                self.policy.observe_dispersion(dispersion)
        else:
            # The instance started in detail before the transition to fast
            # mode and finished afterwards: only the history of all samples.
            state.record_detailed(ipc, valid=False)
            self.stats.invalid_samples += 1

        # Rare-type cut-off bookkeeping: a completed detailed instance of a
        # not-yet-fully-sampled type resets the worker's streak.
        if state.is_rare:
            self._since_rare[info.worker_id] = 0
        else:
            self._since_rare[info.worker_id] += 1
