"""TaskPoint: sampled simulation of task-based programs.

This package implements the paper's primary contribution.  TaskPoint treats
task instances as sampling units: a small number of instances of each task
type are simulated in detail (to warm the simulated micro-architecture and to
measure per-type IPC), and the remaining instances are *fast-forwarded* at
the average IPC recorded for their task type, scaled by each instance's
dynamic instruction count.

The implementation separates the **sampling mechanism** (histories, warm-up,
validity of samples, fast-forward IPC estimation, resampling triggers) from
the **sampling policy** (when to resample a simulation running in
fast-forward mode):

* :class:`~repro.core.config.TaskPointConfig` collects the model parameters
  W (warm-up), H (history size) and P (sampling period),
* :class:`~repro.core.history.SampleHistory` and
  :class:`~repro.core.history.TaskTypeState` hold the per-type IPC histories
  (valid samples and all samples),
* :class:`~repro.core.fastforward.FastForwardEstimator` predicts the cycles
  of a fast-forwarded instance (``C_i = I_i / IPC_T``),
* :mod:`~repro.core.policies` provides the periodic and lazy sampling
  policies of the paper plus an adaptive extension,
* :class:`~repro.core.controller.TaskPointController` plugs all of the above
  into the simulator's mode-controller interface, on top of
  :class:`~repro.core.controller.SamplingController` — the warm-up,
  thread-change and resample bookkeeping it shares with the stratified and
  fidelity engines.

:func:`~repro.core.api.make_controller` picks the engine from the config
type.  Typical use::

    from repro.core import StratifiedConfig, sampled_simulation
    result = sampled_simulation(trace, num_threads=64)
    result = sampled_simulation(trace, config=StratifiedConfig(budget=0.02))
"""

from repro.core.config import TaskPointConfig
from repro.core.history import SampleHistory, TaskTypeState
from repro.core.fastforward import FastForwardEstimate, FastForwardEstimator
from repro.core.policies import (
    AdaptiveSamplingPolicy,
    LazySamplingPolicy,
    PeriodicSamplingPolicy,
    SamplingPolicy,
    make_policy,
)
from repro.core.controller import (
    ResampleReason,
    SamplingController,
    SamplingPhase,
    TaskPointController,
    TaskPointStatistics,
)
from repro.core.fidelity import (
    FidelityConfig,
    FidelityController,
    FidelityStatistics,
)
from repro.core.stratified import (
    StratifiedConfig,
    StratifiedController,
    StratifiedStatistics,
)
from repro.core.api import compare_with_detailed, make_controller, sampled_simulation

__all__ = [
    "TaskPointConfig",
    "SampleHistory",
    "TaskTypeState",
    "FastForwardEstimate",
    "FastForwardEstimator",
    "SamplingPolicy",
    "PeriodicSamplingPolicy",
    "LazySamplingPolicy",
    "AdaptiveSamplingPolicy",
    "make_policy",
    "SamplingController",
    "TaskPointController",
    "TaskPointStatistics",
    "SamplingPhase",
    "ResampleReason",
    "StratifiedConfig",
    "StratifiedController",
    "StratifiedStatistics",
    "FidelityConfig",
    "FidelityController",
    "FidelityStatistics",
    "make_controller",
    "sampled_simulation",
    "compare_with_detailed",
]
