"""Shared infrastructure for the per-figure benchmark harnesses.

Every figure/table of the paper's evaluation has one benchmark module in this
directory.  They all build on the helpers here:

* experiment parameters come from environment variables so the whole suite
  can be scaled up or down without editing code
  (``REPRO_BENCH_SCALE``, ``REPRO_BENCH_SEED``, ``REPRO_BENCH_THREADS_*``,
  ``REPRO_BENCH_JOBS``, ``REPRO_BENCH_BACKEND``, ``REPRO_BENCH_HOSTS``,
  ``REPRO_BENCH_BATCH``, ``REPRO_BENCH_CACHE_DIR``),
* every experiment goes through the :mod:`repro.exp` orchestrator via the
  session-scoped :class:`ExperimentHarness`: detailed baselines are
  deduplicated and shared between figures (Figure 7 and Figure 9 use the same
  baselines, for instance), ``REPRO_BENCH_JOBS=N`` runs each grid on N
  async worker processes, and ``REPRO_BENCH_CACHE_DIR`` makes results persistent
  across pytest sessions, and
* every harness writes its regenerated table to ``benchmarks/results/`` so
  the numbers quoted in EXPERIMENTS.md can be reproduced by re-running
  ``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.accuracy import AccuracyResult, evaluate_specs, grid_specs
from repro.arch.config import (
    ArchitectureConfig,
    high_performance_config,
    low_power_config,
)
from repro.core.config import TaskPointConfig
from repro.exp import (
    ExecutionBackend,
    ExperimentResult,
    ExperimentSpec,
    MemoryResultStore,
    ResultStore,
    get_trace,
    make_named_backend,
    run_experiments,
)
from repro.trace.trace import ApplicationTrace

#: Default workload scale for the benchmark harnesses (fraction of the
#: paper's task-instance counts).  Override with REPRO_BENCH_SCALE.
DEFAULT_SCALE = 0.08

RESULTS_DIR = Path(__file__).parent / "results"


def bench_scale() -> float:
    """Workload scale used by the harnesses."""
    return float(os.environ.get("REPRO_BENCH_SCALE", DEFAULT_SCALE))


def bench_seed() -> int:
    """Trace-generation seed used by the harnesses."""
    return int(os.environ.get("REPRO_BENCH_SEED", "1"))


def bench_jobs() -> int:
    """Worker processes per grid (1 = serial).  Override with REPRO_BENCH_JOBS."""
    return int(os.environ.get("REPRO_BENCH_JOBS", "1"))


def bench_backend_name() -> str:
    """Execution backend name (auto/serial/async).

    ``REPRO_BENCH_BACKEND=async`` runs every grid on the distributed
    asyncio-worker backend; the default ``auto`` picks it when
    ``REPRO_BENCH_JOBS`` > 1 or ``REPRO_BENCH_HOSTS`` is set and runs
    serially otherwise.
    """
    return os.environ.get("REPRO_BENCH_BACKEND", "auto")


def bench_hosts() -> Optional[str]:
    """Multi-host worker budgets (``REPRO_BENCH_HOSTS=host1:4,host2:8``).

    When set, the whole benchmark session runs through the multi-host
    transport (host names starting with ``local`` launch subprocess
    workers, anything else SSH); unset keeps single-host execution.
    """
    return os.environ.get("REPRO_BENCH_HOSTS") or None


def bench_batch() -> Optional[str]:
    """Specs per dispatch frame (``REPRO_BENCH_BATCH=N|adaptive[:N]``).

    Applies to the async backend (protocol-level ``run_batch`` dispatch);
    unset keeps one spec per dispatch.
    """
    return os.environ.get("REPRO_BENCH_BATCH") or None


def thread_counts(kind: str) -> List[int]:
    """Thread counts for ``kind`` in {"highperf", "lowpower", "sweep"}.

    Defaults follow the paper: 8-64 threads for the high-performance
    architecture, 1-8 for the low-power one, 32/64 for the sensitivity
    sweeps.  Override with REPRO_BENCH_THREADS_HIGHPERF etc. (comma lists).
    """
    defaults = {
        "highperf": "8,16,32,64",
        "lowpower": "1,2,4,8",
        "sweep": "32,64",
    }
    env_key = f"REPRO_BENCH_THREADS_{kind.upper()}"
    raw = os.environ.get(env_key, defaults[kind])
    return [int(part) for part in raw.split(",") if part]


def all_benchmark_names() -> List[str]:
    """Benchmarks included in the harnesses (all 19 unless overridden)."""
    raw = os.environ.get("REPRO_BENCH_WORKLOADS")
    if raw:
        return [part for part in raw.split(",") if part]
    from repro.workloads.registry import list_workloads

    return list_workloads()


def write_result(name: str, text: str) -> Path:
    """Write a regenerated table/figure to ``benchmarks/results/<name>.txt``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    return path


class ExperimentHarness:
    """Session-wide front-end to the experiment orchestrator.

    The harness owns one execution backend (serial, or async workers when
    ``REPRO_BENCH_JOBS`` > 1 or ``REPRO_BENCH_BACKEND=async``) and one
    result store shared by every
    figure of the session — an in-memory store by default, or the persistent on-disk
    store when ``REPRO_BENCH_CACHE_DIR`` is set.  All experiment execution
    goes through :func:`repro.exp.run_experiments`; the harness itself holds
    no caches and runs no loops.
    """

    def __init__(
        self,
        backend: Optional[ExecutionBackend] = None,
        store=None,
    ) -> None:
        if store is not None:
            self.store = store
        else:
            cache_dir = os.environ.get("REPRO_BENCH_CACHE_DIR")
            self.store = ResultStore(cache_dir) if cache_dir else MemoryResultStore()
        if backend is not None:
            self.backend = backend
        else:
            self.backend = make_named_backend(
                bench_backend_name(), workers=bench_jobs(), store=self.store,
                hosts=bench_hosts(), batch=bench_batch(),
            )

    # ------------------------------------------------------------------
    def spec(
        self,
        benchmark: str,
        architecture: Optional[ArchitectureConfig] = None,
        num_threads: int = 8,
        config: Optional[TaskPointConfig] = None,
    ) -> ExperimentSpec:
        """Spec for one experiment at the session's scale and seed."""
        return ExperimentSpec(
            benchmark=benchmark,
            num_threads=num_threads,
            scale=bench_scale(),
            trace_seed=bench_seed(),
            architecture=architecture,
            config=config,
        )

    def run(self, specs: Sequence[ExperimentSpec]) -> List[ExperimentResult]:
        """Run arbitrary specs through the session backend and store."""
        return run_experiments(specs, backend=self.backend, store=self.store)

    # ------------------------------------------------------------------
    def trace(self, benchmark: str) -> ApplicationTrace:
        """The session trace of ``benchmark`` (memoised per process)."""
        return get_trace(benchmark, bench_scale(), bench_seed())

    def detailed(
        self,
        benchmark: str,
        architecture: ArchitectureConfig,
        num_threads: int,
    ) -> ExperimentResult:
        """Detailed baseline result of one experiment point."""
        return self.run([self.spec(benchmark, architecture, num_threads)])[0]

    def accuracy_grid(
        self,
        benchmarks: Sequence[str],
        architecture: ArchitectureConfig,
        threads: Sequence[int],
        config: TaskPointConfig,
    ) -> List[AccuracyResult]:
        """Accuracy results for every (benchmark, thread-count) pair."""
        specs = grid_specs(
            benchmarks,
            threads,
            architecture=architecture,
            config=config,
            scale=bench_scale(),
            seed=bench_seed(),
        )
        return evaluate_specs(specs, backend=self.backend, store=self.store)


#: Architectures used throughout the harnesses.
HIGH_PERFORMANCE = high_performance_config()
LOW_POWER = low_power_config()
