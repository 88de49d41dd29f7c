"""Contract every sampling engine shares through ``SamplingController``.

TaskPoint (periodic and lazy), two-phase stratified sampling and the
fidelity controller each keep their own decision order (pinned by their own
test modules); these tests check the mechanism they have in common: per-worker
warm-up accounting, warm-up budgets across a resample, and that every
simulated instance is accounted for in the statistics.
"""

from dataclasses import replace

import pytest

from repro.core.api import make_controller
from repro.core.config import TaskPointConfig
from repro.core.controller import ResampleReason
from repro.core.fidelity import FidelityConfig
from repro.core.stratified import StratifiedConfig
from repro.runtime.task import TaskInstance, TaskType
from repro.sim.modes import CompletionInfo, SimulationMode
from repro.sim.simulator import TaskSimSimulator
from repro.trace.records import make_record
from repro.workloads.registry import get_workload

ENGINES = {
    "periodic": TaskPointConfig(),
    "lazy": TaskPointConfig(sampling_period=None),
    "stratified": StratifiedConfig(),
    "fidelity": FidelityConfig(),
}


@pytest.fixture(scope="module")
def small_trace():
    return get_workload("histogram").generate(scale=0.02, seed=1)


def instance_of(trace, instance_id):
    """The TaskInstance of record ``instance_id`` of ``trace``."""
    columns = trace.columns
    type_id = int(columns.task_type_id[instance_id])
    name = columns.types.names[type_id]
    record = make_record(instance_id, name, int(columns.instructions[instance_id]))
    return TaskInstance(record=record, task_type=TaskType(name=name, type_id=type_id))


def run_one(controller, trace, instance_id, worker_id=0, ipc=2.0):
    """Decide and complete one instance; return the decision."""
    instance = instance_of(trace, instance_id)
    decision = controller.choose_mode(
        instance, worker_id=worker_id, active_workers=1, current_cycle=0.0
    )
    detailed = decision.mode is SimulationMode.DETAILED
    cycles = 1000.0
    controller.notify_completion(
        CompletionInfo(
            instance=instance,
            mode=decision.mode,
            cycles=cycles,
            ipc=ipc if detailed else decision.ipc,
            is_warmup=decision.is_warmup,
            start_cycle=0.0,
            end_cycle=cycles,
            worker_id=worker_id,
            active_workers=1,
        )
    )
    return decision


def resample(controller):
    """Fire each engine's thread-count resample."""
    if hasattr(controller, "_resample_thread_change"):
        controller._resample_thread_change()
    else:
        controller._trigger_resample(ResampleReason.THREAD_COUNT_CHANGE)


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_zero_ipc_warmup_completion_ends_warmup(engine, small_trace):
    config = replace(ENGINES[engine], warmup_instances=1)
    controller = make_controller(small_trace, config)
    decisions = [run_one(controller, small_trace, i, ipc=0.0) for i in range(3)]
    assert [d.is_warmup for d in decisions] == [True, False, False]
    stats = controller.stats
    assert stats.warmup_instances == 1
    assert stats.valid_samples + stats.invalid_samples == 2
    assert stats.total_instances == 3
    assert not getattr(controller, "_decision_epoch", {})


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_late_joining_worker_warms_with_full_budget(engine, small_trace):
    config = replace(
        ENGINES[engine], warmup_instances=2, resample_warmup_instances=1
    )
    controller = make_controller(small_trace, config)
    for instance_id in range(4):
        run_one(controller, small_trace, instance_id, worker_id=0)
    resample(controller)
    assert controller.stats.resample_reasons[ResampleReason.THREAD_COUNT_CHANGE] == 1
    # The already-warmed worker re-warms with the short budget...
    rewarm = [run_one(controller, small_trace, i, worker_id=0) for i in (10, 11)]
    assert [d.is_warmup for d in rewarm] == [True, False]
    # ...while a worker first participating now warms with the full W.
    late = [run_one(controller, small_trace, i, worker_id=7) for i in (20, 21, 22)]
    assert [d.is_warmup for d in late] == [True, True, False]


@pytest.mark.parametrize(
    "workload", ["cholesky", "freqmine", "checkSparseLU", "histogram"]
)
@pytest.mark.parametrize("num_threads", [1, 4, 16])
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_every_instance_is_accounted(engine, num_threads, workload):
    trace = get_workload(workload).generate(scale=0.02, seed=1)
    controller = make_controller(trace, ENGINES[engine])
    result = TaskSimSimulator().run(
        trace, num_threads=num_threads, controller=controller
    )
    assert controller.stats.total_instances == result.num_instances
