"""Unified experiment orchestration.

Every evaluation in this repository — accuracy grids, parameter sweeps,
variation analyses, benchmark harnesses, the CLI — is a set of independent
experiments: simulate one workload on one architecture with one thread count
under one sampling configuration.  This package is the single substrate that
describes, schedules, executes and caches those experiments:

* :mod:`repro.exp.spec` — :class:`ExperimentSpec`, a frozen, hashable,
  JSON-serialisable experiment descriptor with a stable content key,
  :class:`ExperimentResult`, its serialisable outcome, and
  :class:`ExperimentFailure`, the serialisable record of a spec that raised,
* :mod:`repro.exp.backends` — :class:`SerialBackend`, the backend-by-name
  factory :func:`make_named_backend` and the :func:`run_experiments` driver
  with automatic baseline deduplication and per-spec failure isolation,
* :mod:`repro.exp.distributed` — :class:`AsyncWorkerBackend`, the parallel
  backend: an asyncio supervisor dispatching specs to ``repro.exp.worker``
  processes over a length-prefixed JSON frame protocol
  (:mod:`repro.exp.protocol`), with heartbeats, bounded retry/requeue on
  worker death, host-level quarantine of crash-looping machines, graceful
  cancellation and batched dispatch (``batch=``: several specs per
  ``run_batch`` frame, per-spec result acks, adaptive sizing via
  :class:`AdaptiveBatchSizer`),
* :mod:`repro.exp.hosts` — the one worker transport: a TCP listener
  (:class:`HostPool`) accepting connect-back workers launched as local
  subprocesses or via SSH, per-host worker budgets (:class:`HostSpec`) and
  zlib frame compression,
* :mod:`repro.exp.store` — the persistent on-disk :class:`ResultStore`
  (content-hash keyed, shard-per-key-prefix, advisory file locking for
  concurrent multi-process writers, size-bounded LRU compaction with
  pinning and hit/miss/eviction counters for the service daemon) and its
  in-memory sibling.

Typical use::

    from repro.exp import AsyncWorkerBackend, ExperimentSpec, ResultStore, run_experiments
    from repro.core.config import lazy_config

    specs = [
        ExperimentSpec("cholesky", num_threads=t, scale=0.05, config=lazy_config())
        for t in (8, 16, 32, 64)
    ]
    specs += [spec.baseline() for spec in specs]       # shared detailed runs
    results = run_experiments(
        specs,
        backend=AsyncWorkerBackend(num_workers=4),
        store=ResultStore("~/.cache/repro"),
    )
"""

from repro.exp.backends import (
    BACKEND_NAMES,
    ExecutionBackend,
    ExperimentExecutionError,
    SerialBackend,
    make_named_backend,
    run_experiments,
)
from repro.exp.distributed import (
    AdaptiveBatchSizer,
    AsyncWorkerBackend,
    parse_batch,
)
from repro.exp.hosts import HostPool, HostSpec, parse_hosts, parse_listen
from repro.exp.runner import get_trace, run_spec
from repro.exp.spec import ExperimentFailure, ExperimentResult, ExperimentSpec
from repro.exp.store import (
    CACHE_DIR_ENV,
    MemoryResultStore,
    ResultStore,
    default_store,
)

__all__ = [
    "ExperimentSpec",
    "ExperimentResult",
    "ExperimentFailure",
    "ExperimentExecutionError",
    "ExecutionBackend",
    "SerialBackend",
    "AsyncWorkerBackend",
    "AdaptiveBatchSizer",
    "parse_batch",
    "HostPool",
    "HostSpec",
    "parse_hosts",
    "parse_listen",
    "BACKEND_NAMES",
    "make_named_backend",
    "run_experiments",
    "run_spec",
    "get_trace",
    "ResultStore",
    "MemoryResultStore",
    "default_store",
    "CACHE_DIR_ENV",
]
