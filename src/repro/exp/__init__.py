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
  subprocesses over a length-prefixed JSON frame protocol
  (:mod:`repro.exp.protocol`), with heartbeats, bounded retry/requeue on
  worker death, graceful cancellation and batched dispatch (``batch=``:
  several specs per ``run_batch`` frame, per-spec result acks, adaptive
  sizing via :class:`AdaptiveBatchSizer`),
* :mod:`repro.exp.hosts` — :class:`MultiHostBackend`, the multi-host
  transport on top of it: a TCP listener (:class:`HostPool`) accepting
  connect-back workers launched locally or via SSH, per-host worker
  budgets, host-level quarantine of crash-looping machines and zlib frame
  compression for high-latency links,
* :mod:`repro.exp.store` — the persistent on-disk :class:`ResultStore`
  (content-hash keyed, shard-per-key-prefix, advisory file locking for
  concurrent multi-process writers; pluggable directory/object-store
  layouts, size-bounded LRU compaction with pinning and hit/miss/eviction
  counters for the service daemon) and its in-memory sibling.

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
from repro.exp.hosts import (
    HostPool,
    HostSpec,
    MultiHostBackend,
    parse_hosts,
    parse_listen,
)
from repro.exp.runner import get_trace, run_spec
from repro.exp.spec import ExperimentFailure, ExperimentResult, ExperimentSpec
from repro.exp.store import (
    CACHE_DIR_ENV,
    LAYOUT_NAMES,
    DirectoryLayout,
    MemoryResultStore,
    ObjectStoreLayout,
    ResultStore,
    default_store,
    make_layout,
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
    "MultiHostBackend",
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
    "DirectoryLayout",
    "ObjectStoreLayout",
    "LAYOUT_NAMES",
    "make_layout",
    "default_store",
    "CACHE_DIR_ENV",
]
