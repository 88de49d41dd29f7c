"""Convenience API for running sampled simulations.

These helpers wire a sampling controller into the TaskSim-style simulator
and provide the comparison against full detailed simulation that the paper's
evaluation (and this repository's benchmark harness) is built on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.arch.config import ArchitectureConfig
from repro.core.config import TaskPointConfig
from repro.core.controller import (
    SamplingController,
    TaskPointController,
    TaskPointStatistics,
)
from repro.core.fidelity import FidelityConfig, FidelityController
from repro.core.policies import SamplingPolicy
from repro.core.stratified import StratifiedConfig, StratifiedController
from repro.sim.results import SimulationResult
from repro.sim.simulator import TaskSimSimulator
from repro.trace.trace import ApplicationTrace

#: A config of any of the sampling engines.
SamplingConfig = Union[TaskPointConfig, StratifiedConfig, FidelityConfig]


def make_controller(
    trace: ApplicationTrace,
    config: Optional[SamplingConfig] = None,
    policy: Optional[SamplingPolicy] = None,
) -> SamplingController:
    """The mode controller of the sampling engine that ``config`` selects.

    A :class:`StratifiedConfig` selects two-phase stratified sampling, a
    :class:`FidelityConfig` the error-budget fidelity controller, and a
    :class:`TaskPointConfig` (or ``None``, the paper's defaults) TaskPoint.
    ``policy`` overrides the TaskPoint sampling policy and is rejected for
    the other engines.
    """
    if isinstance(config, StratifiedConfig):
        engine = StratifiedController
    elif isinstance(config, FidelityConfig):
        engine = FidelityController
    else:
        return TaskPointController(config=config, policy=policy)
    if policy is not None:
        raise ValueError("a sampling policy applies to TaskPoint configs only")
    return engine(trace, config=config)


def sampled_simulation(
    trace: ApplicationTrace,
    num_threads: int = 8,
    architecture: Optional[ArchitectureConfig] = None,
    config: Optional[SamplingConfig] = None,
    policy: Optional[SamplingPolicy] = None,
    scheduler: str = "fifo",
    scheduler_seed: int = 0,
) -> SimulationResult:
    """Simulate ``trace`` with the sampling engine ``config`` selects.

    The run's sampling statistics (number of warm-up instances, valid
    samples, fast-forwarded instances, resamples, ...) are attached to the
    result's metadata under ``"taskpoint"``.  Engines that estimate their
    own error (stratified, fidelity) also attach the 95% confidence
    interval of the execution-time estimate under ``"confidence"`` (``None``
    when nothing was fast-forwarded, i.e. the estimate is exact).
    """
    controller = make_controller(trace, config, policy)
    simulator = TaskSimSimulator(
        architecture=architecture, scheduler=scheduler, scheduler_seed=scheduler_seed
    )
    result = simulator.run(trace, num_threads=num_threads, controller=controller)
    stats = controller.stats
    result.metadata["taskpoint"] = stats
    confidence = getattr(stats, "confidence_summary", None)
    if confidence is not None:
        result.metadata["confidence"] = confidence(result.total_cycles)
    return result


@dataclass(frozen=True)
class SampledVersusDetailed:
    """Outcome of comparing a sampled simulation with full detailed simulation."""

    benchmark: str
    architecture: str
    num_threads: int
    detailed: SimulationResult
    sampled: SimulationResult
    taskpoint_stats: TaskPointStatistics

    @property
    def error(self) -> float:
        """Absolute relative execution-time error (fraction)."""
        return self.sampled.error_versus(self.detailed)

    @property
    def error_percent(self) -> float:
        """Absolute relative execution-time error in percent."""
        return self.error * 100.0

    @property
    def speedup(self) -> float:
        """Deterministic (cost-model) simulation speedup."""
        return self.sampled.speedup_versus(self.detailed)

    @property
    def wall_speedup(self) -> Optional[float]:
        """Wall-clock simulation speedup, if both runs were timed."""
        return self.sampled.wall_speedup_versus(self.detailed)


def compare_with_detailed(
    trace: ApplicationTrace,
    num_threads: int = 8,
    architecture: Optional[ArchitectureConfig] = None,
    config: Optional[SamplingConfig] = None,
    policy: Optional[SamplingPolicy] = None,
    scheduler: str = "fifo",
    scheduler_seed: int = 0,
) -> SampledVersusDetailed:
    """Run full detailed and sampled simulations of ``trace``.

    This is the core experiment of the paper: the detailed run provides the
    reference execution time and the reference simulation cost; the sampled
    run provides the estimate whose error and speedup are reported.
    """
    simulator = TaskSimSimulator(
        architecture=architecture, scheduler=scheduler, scheduler_seed=scheduler_seed
    )
    detailed = simulator.run(trace, num_threads=num_threads, controller=None)
    controller = make_controller(trace, config, policy)
    sampled = simulator.run(trace, num_threads=num_threads, controller=controller)
    sampled.metadata["taskpoint"] = controller.stats
    return SampledVersusDetailed(
        benchmark=trace.name,
        architecture=simulator.architecture.name,
        num_threads=num_threads,
        detailed=detailed,
        sampled=sampled,
        taskpoint_stats=controller.stats,
    )
