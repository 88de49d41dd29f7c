"""Discrete-event simulation engine.

The engine drives the co-simulation of the runtime system and the
architecture model: idle worker threads request ready task instances from the
runtime, the mode controller decides how each instance is simulated, and the
engine advances simulated time from task completion to task completion.

Mode switching happens only at task-instance boundaries, exactly as in the
paper: when the controller switches from sampling to fast-forward, instances
that already started in detailed mode run to completion in detailed mode
while newly dispatched instances start in burst mode, so short mixed phases
occur naturally.

One dispatch loop, :meth:`SimulationEngine.run`, serves every
configuration.  Dispatch is index based: detailed execution goes through the
:class:`~repro.arch.batch.BatchedCoreExecutor`, which resolves a task
instance by its record index on the columnar trace backbone, and results
accumulate into a columnar :class:`~repro.sim.results.InstanceTable`.  The
original per-record model (``use_batched=False``) is kept only as the test
oracle and the baseline of the hot-path microbenchmark; it runs through the
same loop and produces bit-identical results.

Deferred grouped dispatch
-------------------------
A dispatched instance's cycle count is only *consumed* when that instance
could be the next completion on the heap.  With more than one worker and the
batched executor, the loop therefore defers the detailed evaluation of
instances that commute with all other deferred instances (different cores,
no shared-data writes — see :mod:`repro.arch.vector`; same-set accesses at
shared levels are serialised in-kernel, so set aliasing does not break a
group): as long as an already-known completion provably precedes every
deferred instance's completion (its end time is bounded below by the
dispatch cycle plus the precomputed contention-free dispatch floor), the
engine keeps popping known completions and dispatching further work.  When
the bound no longer separates them, the whole deferred group is evaluated at
once — in dispatch order, so results and statistics are bit-identical to
immediate evaluation — and pushed onto the heap.  In steady state this
yields groups close to ``num_threads`` even though the simulated schedule
dispatches one instance per completion.  Every other detailed instance (a
shared-data writer, any instance of a one-worker run or of the per-record
oracle) is evaluated at once, after the pending group is drained; a loop
that never defers is the plain discrete-event loop.

Groups execute through one of two backends, chosen by a measured adaptive
policy in :meth:`SimulationEngine.run`: the scalar grouped executor (plain
:class:`~repro.arch.batch.BatchedCoreExecutor` calls) or the vectorised walk
kernel (:class:`~repro.arch.vector.VectorWalkEngine`).  The engine first
measures scalar per-event cost over a warm-up window, then — if the trace is
event-heavy enough for the kernel's fixed overhead to amortise — trials the
kernel over a few groups and keeps whichever backend is faster, deactivating
the kernel when the trial loses (rows the kernel touched stay plane-resident
in the shared tag stores and the scalar walk materialises them lazily, so
abandoning costs nothing beyond the trial itself).  Both backends are
bit-identical, so the choice affects wall time only; per-run coverage is
reported in :attr:`SimulationEngine.vector_stats`, along with a per-phase
wall-time breakdown when ``$REPRO_PROFILE`` is set.
"""

from __future__ import annotations

import heapq
import os
import time
from typing import Callable, Dict, List, Optional

from repro.arch.batch import BatchedCoreExecutor
from repro.arch.vector import VectorWalkEngine
from repro.arch.config import ArchitectureConfig
from repro.arch.core import DetailedCoreModel
from repro.arch.hierarchy import MemorySystem
from repro.arch.rob import RobModel
from repro.runtime.runtime import RuntimeSystem
from repro.runtime.scheduler import Scheduler
from repro.runtime.task import TaskInstance, TaskState
from repro.sim.cost import SimulationCost
from repro.sim.modes import (
    DETAILED_DECISION,
    AlwaysDetailedController,
    CompletionInfo,
    ModeController,
    SimulationMode,
)
from repro.sim.results import InstanceTable, SimulationResult
from repro.trace.trace import ApplicationTrace

#: Type of the optional per-instance noise callback: maps a task instance to a
#: multiplicative factor applied to its detailed-mode cycle count.
NoiseModel = Callable[[TaskInstance], float]


class DeadlockError(RuntimeError):
    """Raised when no task is ready, none is running, but work remains."""


#: Completion-queue entries are plain tuples
#: ``(end_cycle, sequence, worker_id, instance, decision, ipc)`` — ordered by
#: time then dispatch sequence; the unique sequence number guarantees the
#: comparison never reaches the non-orderable payload fields, and tuple
#: comparison stays in C.


class SimulationEngine:
    """Simulates one application trace on one machine configuration.

    Parameters
    ----------
    trace:
        Application trace to replay.
    architecture:
        Architecture configuration (see :mod:`repro.arch.config`).
    num_threads:
        Number of simulated worker threads (one per simulated core).
    scheduler:
        Dynamic task scheduler; defaults to the runtime's FIFO scheduler.
    controller:
        Mode controller; defaults to full detailed simulation.
    noise_model:
        Optional multiplicative noise applied to detailed-mode cycle counts
        (used by the native-execution substitute).  Every factor it returns
        must be positive; anything else raises :class:`ValueError` at
        dispatch.
    use_batched:
        Use the batched columnar executor for detailed mode (default).
        ``False`` selects the per-record ``DetailedCoreModel`` instead: the
        bit-identical test oracle and the hot-path microbenchmark baseline,
        never deferred or grouped.
    """

    def __init__(
        self,
        trace: ApplicationTrace,
        architecture: ArchitectureConfig,
        num_threads: int,
        scheduler: Optional[Scheduler] = None,
        controller: Optional[ModeController] = None,
        noise_model: Optional[NoiseModel] = None,
        use_batched: bool = True,
    ) -> None:
        if num_threads < 1:
            raise ValueError("num_threads must be >= 1")
        self.trace = trace
        self.architecture = architecture
        self.num_threads = num_threads
        self.runtime = RuntimeSystem(trace, scheduler)
        self.controller: ModeController = (
            controller if controller is not None else AlwaysDetailedController()
        )
        self.noise_model = noise_model
        self.memory_system = MemorySystem(architecture, num_threads)
        rob = RobModel(architecture.core, l1_latency=architecture.l1.latency_cycles)
        #: Per-record oracle cores, one per worker (``use_batched=False`` only).
        self.cores: Optional[List[DetailedCoreModel]] = (
            None
            if use_batched
            else [
                DetailedCoreModel(core_id, self.memory_system, rob)
                for core_id in range(num_threads)
            ]
        )
        # Per-phase wall-time breakdown (static precompute / scalar walk /
        # kernel / lazy export), recorded when ``$REPRO_PROFILE`` is set and
        # surfaced as ``vector_stats["phase_wall_s"]`` after a run.
        self._phase_wall: Optional[Dict[str, float]] = (
            {"static": 0.0, "scalar_walk": 0.0, "kernel": 0.0, "export": 0.0}
            if os.environ.get("REPRO_PROFILE")
            else None
        )
        static_start = time.perf_counter() if self._phase_wall is not None else 0.0
        self.batched: Optional[BatchedCoreExecutor] = (
            BatchedCoreExecutor(trace.columns, architecture, self.memory_system, rob)
            if use_batched
            else None
        )
        if self._phase_wall is not None:
            self._phase_wall["static"] = time.perf_counter() - static_start
            for store in self.memory_system.stores:
                store.profile = True
        # A single worker never accumulates a group, so it never defers.
        self.vector: Optional[VectorWalkEngine] = (
            VectorWalkEngine(self.batched)
            if self.batched is not None and num_threads > 1
            else None
        )
        #: Coverage counters of the detailed path (vector-walked vs
        #: scalar-executed detailed instances, group count and sizes).  Kept
        #: on the engine — never in :class:`SimulationResult` — so stored
        #: experiment payloads stay byte-identical across backends.
        self.vector_stats = {
            "vector_instances": 0,
            "scalar_instances": 0,
            "groups": 0,
            "max_group": 0,
        }
        self.cost = SimulationCost()
        self._sequence = 0

    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Simulate the complete application and return the result.

        Detailed instances that commute are deferred and evaluated in
        groups (vector kernel or scalar grouped executor) at the latest
        point the completion order still provably matches immediate
        evaluation; every other detailed instance is evaluated at once.
        Either way control flow, float operation order and heap semantics
        are those of a plain discrete-event loop.
        """
        current_cycle = 0.0
        # Min-heap of idle worker ids: dispatch always picks the lowest id
        # first.
        idle_workers: List[int] = list(range(self.num_threads))
        heapq.heapify(idle_workers)
        completions: List[tuple] = []
        running: set = set()
        results = InstanceTable()

        vector = self.vector
        batched = self.batched
        cores = self.cores
        noise_model = self.noise_model
        cycles_floor = batched.plan.cycles_floor_list if vector is not None else None
        detail_events = batched.detail_events if batched is not None else None
        stats = self.vector_stats
        controller = self.controller
        fast_detailed = type(controller) is AlwaysDetailedController

        # Hot-loop bindings.  The per-instance engine overhead is directly
        # visible in the hot-path benchmark, so method lookups are hoisted
        # and the checked READY->RUNNING->COMPLETED transitions are inlined
        # (the instances handed out by ``next_task`` are READY by
        # construction).
        runtime = self.runtime
        runtime_finished = runtime.finished
        next_task = runtime.next_task
        runtime_notify = runtime.notify_completion
        cost = self.cost
        charge_detailed = cost.charge_detailed
        charge_burst = cost.charge_burst
        results_append = results.append
        heappush = heapq.heappush
        heappop = heapq.heappop
        choose_mode = controller.choose_mode
        # ``None`` when the engine never defers (one worker, or the oracle).
        record_commutes = vector.record_commutes if vector is not None else None
        running_state = TaskState.RUNNING
        completed_state = TaskState.COMPLETED
        detailed_mode = SimulationMode.DETAILED
        sequence = self._sequence

        # Deferred entries: (dispatch_cycle, sequence, worker_id, instance,
        # decision, active_workers, noise, record_index), in dispatch order.
        deferred: List[tuple] = []
        deferred_bound = float("inf")
        deferred_events = 0

        # Adaptive backend choice: both flush paths are bit-identical, so
        # the pick is purely a throughput matter, and throughput depends on
        # how the trace's group width and event density interact with the
        # host — neither is knowable up front, but both are cheap to
        # *measure*.  Flushes start on the scalar grouped executor (timed).
        # Once groups look structurally wide and event-rich enough for the
        # kernel's per-group fixed cost to plausibly amortise, the kernel
        # runs a timed trial (its first two groups pay plane allocation
        # and the bulk of row adoption and are excluded); the faster
        # backend — by measured per-event wall time — is then committed
        # for the rest of the run, except that a trial measuring hopelessly
        # behind is abandoned after a couple of counted groups.  Abandoning
        # the kernel is nearly free: rows it touched stay plane-resident in
        # the level tag stores and the scalar walk materialises each one
        # lazily on first touch, so ``deactivate`` only drains the deferred
        # statistics.
        BACKEND_SCALAR_MEASURE = 0
        BACKEND_KERNEL_TRIAL = 1
        BACKEND_KERNEL = 2
        BACKEND_SCALAR = 3
        backend = BACKEND_SCALAR_MEASURE
        # Width precondition: groups must run near the worker count wide,
        # and wide in absolute terms — the kernel's fixed per-group cost
        # (argsort, masked gathers, statistics scatter) is about as large
        # as an entire 8-wide scalar group, so single-digit widths cannot
        # amortise it regardless of event density and are not worth the
        # trial groups.
        kernel_threshold = max(0.75 * self.num_threads, 12.0)
        # Structural precondition for trialling the kernel: enough events
        # per group that its fixed per-group cost is not hopeless.  With
        # the per-group export round trip gone a lost trial costs only the
        # trial groups themselves, so the floor sits well below the scalar
        # grouped executor's empirical break-even (~250 events/group) —
        # wide-group traces whose density straddles the boundary get to
        # measure instead of being pre-judged.
        kernel_event_threshold = 96.0
        #: Events each timed phase must cover before its mean is trusted.
        measure_min_events = 512
        trial_target_groups = 6
        # Kernel groups excluded from the trial's timing: the first pays
        # plane allocation, the second still adopts the bulk of the rows
        # the scalar measure phase populated — counting either biases the
        # trial against the kernel's steady state (measured: the second
        # group runs ~3x its steady cost, enough to flip a ~2x win into a
        # marginal loss).
        kernel_warmup_groups = 2
        # A trial that is hopeless after a couple of counted groups is
        # abandoned without waiting for the full target, so narrow-group
        # traces pay only a few slow kernel groups for a lost trial.
        trial_bailout_groups = 2
        trial_bailout_ratio = 2.0
        perf_counter = time.perf_counter
        phase_wall = self._phase_wall
        groups_seen = 0
        instances_seen = 0
        events_seen = 0
        scalar_time = 0.0
        scalar_timed_events = 0
        kernel_time = 0.0
        kernel_timed_events = 0
        kernel_trial_groups = 0
        kernel_warmup_remaining = kernel_warmup_groups

        def flush_deferred() -> None:
            nonlocal deferred_bound, deferred_events
            nonlocal backend, groups_seen, instances_seen, events_seen
            nonlocal scalar_time, scalar_timed_events
            nonlocal kernel_time, kernel_timed_events, kernel_trial_groups
            nonlocal kernel_warmup_remaining
            size = len(deferred)
            stats["groups"] += 1
            if size > stats["max_group"]:
                stats["max_group"] = size
            groups_seen += 1
            instances_seen += size
            events_seen += deferred_events
            group = [(e[7], e[2], e[5], e[6]) for e in deferred]
            if backend == BACKEND_KERNEL:
                if phase_wall is None:
                    outcomes = vector.execute_group(group)
                else:
                    start = perf_counter()
                    outcomes = vector.execute_group(group)
                    phase_wall["kernel"] += perf_counter() - start
                stats["vector_instances"] += size
            elif backend == BACKEND_SCALAR:
                if phase_wall is None:
                    outcomes = batched.execute_many(group)
                else:
                    start = perf_counter()
                    outcomes = batched.execute_many(group)
                    phase_wall["scalar_walk"] += perf_counter() - start
                stats["scalar_instances"] += size
            elif backend == BACKEND_SCALAR_MEASURE:
                start = perf_counter()
                outcomes = batched.execute_many(group)
                elapsed = perf_counter() - start
                scalar_time += elapsed
                if phase_wall is not None:
                    phase_wall["scalar_walk"] += elapsed
                scalar_timed_events += deferred_events
                stats["scalar_instances"] += size
                if (
                    groups_seen >= 8
                    and scalar_timed_events >= measure_min_events
                    and instances_seen >= kernel_threshold * groups_seen
                    and events_seen >= kernel_event_threshold * groups_seen
                ):
                    backend = BACKEND_KERNEL_TRIAL
            else:  # BACKEND_KERNEL_TRIAL
                start = perf_counter()
                outcomes = vector.execute_group(group)
                elapsed = perf_counter() - start
                if phase_wall is not None:
                    phase_wall["kernel"] += elapsed
                if kernel_warmup_remaining > 0:
                    # Warm-up groups (allocation + adoption) are excluded;
                    # the trial measures the kernel's steady state.
                    kernel_warmup_remaining -= 1
                else:
                    kernel_time += elapsed
                    kernel_timed_events += deferred_events
                    kernel_trial_groups += 1
                stats["vector_instances"] += size
                if (
                    kernel_trial_groups >= trial_bailout_groups
                    and kernel_timed_events > 0
                    and kernel_time * scalar_timed_events
                    > trial_bailout_ratio * scalar_time * kernel_timed_events
                ):
                    # Hopelessly behind: stop paying for slow kernel groups.
                    vector.deactivate()
                    backend = BACKEND_SCALAR
                elif (
                    kernel_trial_groups >= trial_target_groups
                    and kernel_timed_events >= measure_min_events
                ):
                    # Commit to the lower measured time per event.
                    if (
                        kernel_time * scalar_timed_events
                        <= scalar_time * kernel_timed_events
                    ):
                        backend = BACKEND_KERNEL
                    else:
                        vector.deactivate()
                        backend = BACKEND_SCALAR
            instructions_sum = 0
            for entry, (cycles, ipc) in zip(deferred, outcomes):
                cycle0, seq, worker, instance, decision, _a, _n, _i = entry
                instructions_sum += instance.instructions
                heappush(
                    completions,
                    (cycle0 + cycles, seq, worker, instance, decision, ipc),
                )
            # Batched cost charging: integer sums, so the aggregate update
            # leaves the cost counters exactly as per-instance charging
            # would (``deferred_events`` is the group's event total).
            cost.detailed_instructions += instructions_sum
            cost.detailed_instances += size
            cost.detailed_memory_events += deferred_events
            deferred.clear()
            deferred_bound = float("inf")
            deferred_events = 0

        while not runtime_finished():
            assignments: List[tuple] = []
            while idle_workers:
                worker_id = idle_workers[0]
                instance = next_task(worker_id)
                if instance is None:
                    break
                heappop(idle_workers)
                assignments.append((worker_id, instance))
            active_workers = len(running) + len(assignments)
            for worker_id, instance in assignments:
                decision = (
                    DETAILED_DECISION
                    if fast_detailed
                    else choose_mode(
                        instance, worker_id, active_workers, current_cycle
                    )
                )
                # READY -> RUNNING (inlined mark_running).
                instance.state = running_state
                instance.worker_id = worker_id
                instance.start_cycle = current_cycle
                sequence += 1
                if decision.mode is detailed_mode:
                    index = instance.instance_id
                    noise = None
                    if noise_model is not None:
                        noise = noise_model(instance)
                        if not noise > 0.0:
                            raise ValueError(
                                f"noise model returned factor {noise!r} for "
                                f"instance {index}; factors must be positive"
                            )
                    if record_commutes is not None and record_commutes(index):
                        deferred.append((current_cycle, sequence, worker_id, instance,
                                         decision, active_workers, noise, index))
                        deferred_events += detail_events(index)
                        bound = cycles_floor[index]
                        if noise is not None:
                            bound *= noise
                        bound += current_cycle
                        if bound < deferred_bound:
                            deferred_bound = bound
                        running.add(worker_id)
                        continue
                    # Evaluated at once (shared-data writer, one-worker run
                    # or oracle): order matters against everything — drain
                    # the group first.
                    if deferred:
                        flush_deferred()
                    if phase_wall is not None:
                        start = perf_counter()
                    if cores is not None:
                        execution = cores[worker_id].execute(
                            instance.record, active_cores=active_workers, noise=noise
                        )
                        cycles = execution.cycles
                        ipc = execution.ipc
                        memory_events = execution.memory_events
                        walk_phase = "scalar_walk"
                        stats["scalar_instances"] += 1
                    elif vector is not None and vector.kernel_active():
                        # Writer on the plane state: its own walk plus the
                        # coherence invalidations, no dict round trip.
                        cycles, ipc = vector.execute_writer(
                            index, worker_id, active_workers, noise
                        )
                        memory_events = detail_events(index)
                        walk_phase = "kernel"
                        stats["vector_instances"] += 1
                    else:
                        # Kernel absent, inactive (nothing commutes yet) or
                        # abandoned: scalar path — any plane-resident rows
                        # materialise lazily on touch.
                        cycles, ipc = batched.execute(
                            index, worker_id, active_cores=active_workers, noise=noise
                        )
                        memory_events = detail_events(index)
                        walk_phase = "scalar_walk"
                        stats["scalar_instances"] += 1
                    if phase_wall is not None:
                        phase_wall[walk_phase] += perf_counter() - start
                    charge_detailed(
                        instructions=instance.instructions,
                        memory_events=memory_events,
                    )
                else:
                    instructions = instance.instructions
                    cycles = max(1.0, instructions / decision.ipc)
                    ipc = instructions / cycles
                    charge_burst()
                heappush(
                    completions,
                    (current_cycle + cycles, sequence, worker_id, instance,
                     decision, ipc),
                )
                running.add(worker_id)

            # A known completion can be popped only while it strictly
            # precedes every deferred instance's completion (the bound is a
            # lower bound on deferred end times, so ``< bound`` suffices);
            # on ties or overshoot, flush — heap order then decides.
            if deferred and (
                not completions or completions[0][0] >= deferred_bound
            ):
                flush_deferred()
            if not completions:
                if runtime_finished():
                    break
                raise DeadlockError(
                    f"no runnable tasks but {self.runtime.num_instances - self.runtime.num_completed}"
                    " instances remain; the trace's dependency graph cannot progress"
                )

            current_cycle, _, worker_id, instance, decision, completion_ipc = (
                heappop(completions)
            )
            running.remove(worker_id)
            # RUNNING -> COMPLETED (inlined mark_completed).
            instance.state = completed_state
            instance.end_cycle = current_cycle
            start_cycle = instance.start_cycle
            if not fast_detailed:
                controller.notify_completion(
                    CompletionInfo(
                        instance,
                        decision.mode,
                        current_cycle - start_cycle,
                        completion_ipc,
                        decision.is_warmup,
                        start_cycle,
                        current_cycle,
                        worker_id,
                        len(running) + 1,
                    )
                )
            runtime_notify(instance, worker_id)
            heappush(idle_workers, worker_id)
            results_append(
                instance.instance_id,
                instance.task_type.name,
                worker_id,
                decision.mode is detailed_mode,
                instance.instructions,
                start_cycle,
                current_cycle,
                completion_ipc,
                decision.is_warmup,
            )

        self._sequence = sequence
        # Drain the kernel's deferred integer statistics into the cache
        # counters.  Tag-store contents stay plane-resident — nothing in
        # the production path reads the OrderedDicts after a run; callers
        # that do inspect them (the equivalence tests) call
        # ``flush_state()``, and any later scalar reader materialises rows
        # lazily.
        if vector is not None:
            vector.flush_statistics()
        if phase_wall is not None:
            phase_wall["export"] = sum(
                store.export_seconds for store in self.memory_system.stores
            )
            stats["phase_wall_s"] = dict(phase_wall)
        return SimulationResult(
            benchmark=self.trace.name,
            architecture=self.architecture.name,
            num_threads=self.num_threads,
            total_cycles=current_cycle,
            instances=results,
            cost=self.cost,
            metadata={"scheduler": type(self.runtime.scheduler).__name__},
        )
