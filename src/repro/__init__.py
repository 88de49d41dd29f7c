"""Reproduction of *TaskPoint: Sampled Simulation of Task-Based Programs*.

The library is organised in layers, from the substrate upwards:

* :mod:`repro.trace` — application traces (task instances, instruction counts,
  memory behaviour) and trace I/O,
* :mod:`repro.workloads` — the 19 task-based benchmarks of the paper's
  Table I as synthetic trace generators,
* :mod:`repro.runtime` — the OmpSs-style dynamic task runtime (dependency
  tracking, ready queues, schedulers),
* :mod:`repro.arch` — architecture models (caches, ROB-occupancy core model,
  interconnect, DRAM) and the Table II configurations,
* :mod:`repro.sim` — the TaskSim-style trace-driven multi-core simulator with
  detailed and burst modes,
* :mod:`repro.core` — TaskPoint itself: sample histories, warm-up, sampling
  policies, accurate fast-forwarding and the sampling controller,
* :mod:`repro.exp` — the experiment orchestration layer: hashable
  experiment specs, the serial and async-worker (one host or many)
  execution backends and the persistent sharded result store every
  evaluation runs on,
* :mod:`repro.analysis` — IPC-variation analysis, accuracy/speedup metrics,
  parameter sweeps and the experiment drivers behind every figure and table.

Quick start::

    from repro import get_workload, sampled_simulation, compare_with_detailed

    trace = get_workload("cholesky").generate(scale=0.05, seed=1)
    comparison = compare_with_detailed(trace, num_threads=8)
    print(comparison.error_percent, comparison.speedup)
"""

from repro.arch.config import (
    ArchitectureConfig,
    high_performance_config,
    low_power_config,
)
from repro.core.api import compare_with_detailed, sampled_simulation
from repro.core.config import TaskPointConfig, lazy_config, periodic_config
from repro.core.controller import TaskPointController
from repro.exp import (
    AsyncWorkerBackend,
    ExperimentFailure,
    ExperimentResult,
    ExperimentSpec,
    ResultStore,
    SerialBackend,
    run_experiments,
)
from repro.sim.simulator import TaskSimSimulator, simulate
from repro.trace.trace import ApplicationTrace
from repro.workloads.registry import get_workload, list_workloads

__version__ = "1.0.0"

__all__ = [
    "ApplicationTrace",
    "ArchitectureConfig",
    "high_performance_config",
    "low_power_config",
    "TaskPointConfig",
    "periodic_config",
    "lazy_config",
    "TaskPointController",
    "ExperimentSpec",
    "ExperimentResult",
    "ExperimentFailure",
    "SerialBackend",
    "AsyncWorkerBackend",
    "ResultStore",
    "run_experiments",
    "TaskSimSimulator",
    "simulate",
    "sampled_simulation",
    "compare_with_detailed",
    "get_workload",
    "list_workloads",
    "__version__",
]
