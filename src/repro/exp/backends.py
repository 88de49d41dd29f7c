"""Pluggable execution backends and the ``run_experiments`` driver.

A backend executes a list of *unique* :class:`ExperimentSpec` objects and
returns their results in the same order.  :func:`run_experiments` is the
entry point every consumer goes through: it deduplicates the submitted specs
by content key (so the detailed baselines a grid shares are simulated exactly
once no matter how many sampled experiments reference them), satisfies what
it can from an optional result store, dispatches only the misses to the
backend, persists the fresh results and returns them in submission order.

Failure isolation: a spec whose workload raises does not poison its batch.
Every backend runs the remaining specs to completion and reports the broken
one as an :class:`~repro.exp.spec.ExperimentFailure`; ``run_experiments``
records failures in the store (as ``<key>.error.json`` diagnostics) and then
either raises one aggregated :class:`ExperimentExecutionError` (default) or,
with ``on_error="record"``, returns ``None`` at the failed positions.

Two backends ship with the repository:

* :class:`SerialBackend` — in-process, one spec after another,
* :class:`~repro.exp.distributed.AsyncWorkerBackend` — the one parallel
  backend: an asyncio supervisor over connect-back worker processes on
  this machine or many, speaking the length-prefixed JSON protocol, with
  heartbeats, retry/requeue on worker death and graceful cancellation.

Both are result-identical: the same spec grid produces bit-identical
results (and byte-identical store entries) regardless of the backend, worker
count or completion order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, Sequence, Union

from repro.exp.runner import run_spec
from repro.exp.spec import ExperimentFailure, ExperimentResult, ExperimentSpec
from repro.exp.store import MemoryResultStore, ResultStore

Store = Union[ResultStore, MemoryResultStore]

#: What a backend produces per spec: a result, or a failure record.
Outcome = Union[ExperimentResult, ExperimentFailure]

#: Backend names accepted by :func:`make_named_backend` and the CLI.
BACKEND_NAMES = ("auto", "serial", "async")


class ExperimentExecutionError(RuntimeError):
    """One or more specs of a batch failed (after the rest completed)."""

    def __init__(self, failures: Sequence[ExperimentFailure]) -> None:
        self.failures = list(failures)
        lines = [failure.describe() for failure in self.failures[:5]]
        if len(self.failures) > 5:
            lines.append(f"... and {len(self.failures) - 5} more")
        super().__init__(
            f"{len(self.failures)} experiment(s) failed:\n  " + "\n  ".join(lines)
        )


def run_spec_outcome(spec: ExperimentSpec) -> Outcome:
    """Execute one spec, condensing any exception into a failure record."""
    try:
        return run_spec(spec)
    except Exception as error:
        return ExperimentFailure.from_exception(spec.content_key(), error)


def _raise_on_failure(outcomes: Sequence[Outcome]) -> List[ExperimentResult]:
    failures = [o for o in outcomes if isinstance(o, ExperimentFailure)]
    if failures:
        raise ExperimentExecutionError(failures)
    return list(outcomes)


class ExecutionBackend(Protocol):
    """Executes unique experiment specs; results in submission order."""

    def run(self, specs: Sequence[ExperimentSpec]) -> List[ExperimentResult]:
        """Execute ``specs`` and return one result per spec, in order."""
        ...


class SerialBackend:
    """Runs every experiment in the calling process, one after another."""

    def run_outcomes(self, specs: Sequence[ExperimentSpec]) -> List[Outcome]:
        """Per-spec outcomes; a raising spec does not stop the batch."""
        return [run_spec_outcome(spec) for spec in specs]

    def run(self, specs: Sequence[ExperimentSpec]) -> List[ExperimentResult]:
        return _raise_on_failure(self.run_outcomes(specs))


def make_named_backend(
    name: str,
    workers: Optional[int] = None,
    store: Optional[Store] = None,
    hosts: Optional[str] = None,
    listen: Optional[str] = None,
    connect_host: Optional[str] = None,
    batch: Union[None, int, str] = None,
) -> ExecutionBackend:
    """Backend selected by name: ``auto``, ``serial`` or ``async``.

    ``auto`` is ``async`` when ``hosts`` is given or ``workers`` > 1 and
    ``serial`` otherwise.  ``async`` builds an
    :class:`~repro.exp.distributed.AsyncWorkerBackend` over ``workers``
    local workers (default 2), or over the ``hosts`` budget string
    (``"host1:4,host2:8"``) when one is given.  ``listen`` (``"PORT"`` or
    ``"HOST:PORT"``) binds its connect-back listener and ``connect_host`` is
    the address workers dial back to; the serial backend starts no worker
    and rejects all three.  When ``store`` is an on-disk
    :class:`ResultStore` it is attached so completed experiments are
    streamed into it as they finish (and survive a cancelled run).

    ``batch`` (``N``, ``"adaptive"`` or ``"adaptive:N"``) bounds how many
    specs one dispatch carries: the ``run_batch`` frame size of ``async``
    (adaptive sizing grows it from 1 as specs prove cheap).  A serial
    backend executes in-process, where there is no round-trip to amortise,
    so the knob is accepted and ignored.
    """
    from repro.exp.distributed import parse_batch

    parse_batch(batch)  # validate for every name
    if name == "auto":
        many = hosts or (workers is not None and workers > 1)
        name = "async" if many else "serial"
    if name not in ("serial", "async"):
        raise ValueError(f"unknown backend {name!r} (choose from {BACKEND_NAMES})")
    if name == "serial":
        if hosts or listen or connect_host:
            # Silently dropping a host list would run in-process while the
            # caller (e.g. REPRO_BENCH_BACKEND=serial REPRO_BENCH_HOSTS=...)
            # believes the grid fanned out across machines.
            raise ValueError(
                "hosts/listen/connect_host need worker processes; "
                "the serial backend runs in-process"
            )
        return SerialBackend()  # in-process: no round-trip, batch is moot
    from repro.exp.distributed import AsyncWorkerBackend
    from repro.exp.hosts import parse_listen

    listen_host, listen_port = parse_listen(listen)
    # With hosts, their budgets replace the worker count; without, the
    # backend validates it (None means its default of 2).
    return AsyncWorkerBackend(
        num_workers=None if hosts else workers,
        hosts=hosts or None,
        listen_host=listen_host,
        listen_port=listen_port,
        connect_host=connect_host,
        batch=batch,
        store=store if isinstance(store, ResultStore) else None,
    )


def _backend_outcomes(
    backend: ExecutionBackend, specs: Sequence[ExperimentSpec]
) -> List[Outcome]:
    """Run ``specs``, preferring the failure-isolating ``run_outcomes`` hook."""
    run_outcomes = getattr(backend, "run_outcomes", None)
    if run_outcomes is not None:
        return run_outcomes(specs)
    return list(backend.run(specs))


def run_experiments(
    specs: Sequence[ExperimentSpec],
    backend: Optional[ExecutionBackend] = None,
    store: Optional[Store] = None,
    on_error: str = "raise",
) -> List[Optional[ExperimentResult]]:
    """Execute ``specs`` and return their results in submission order.

    Parameters
    ----------
    specs:
        Experiments to run.  Duplicates (by content key) are executed once
        and their shared result is returned at every submission position.
    backend:
        Execution backend; defaults to :class:`SerialBackend`.
    store:
        Optional result store consulted before execution and updated after;
        a warm store turns an unchanged grid into a pure cache hit.  Failed
        specs are recorded as ``<key>.error.json`` diagnostics (never served
        as cached results, so a re-run retries them).
    on_error:
        ``"raise"`` (default) raises one :class:`ExperimentExecutionError`
        aggregating every failure — after all other specs completed and were
        persisted.  ``"record"`` returns ``None`` at the failed positions
        instead.
    """
    if on_error not in ("raise", "record"):
        raise ValueError("on_error must be 'raise' or 'record'")
    backend = backend if backend is not None else SerialBackend()
    keys = [spec.content_key() for spec in specs]
    unique: Dict[str, ExperimentSpec] = {}
    for spec, key in zip(specs, keys):
        unique.setdefault(key, spec)

    results: Dict[str, Optional[ExperimentResult]] = {}
    missing: List[ExperimentSpec] = []
    for key, spec in unique.items():
        cached = store.get(spec) if store is not None else None
        if cached is not None:
            results[key] = cached
        else:
            missing.append(spec)

    failures: List[ExperimentFailure] = []
    if missing:
        outcomes = _backend_outcomes(backend, missing)
        # A backend with this store attached (e.g. a streaming
        # AsyncWorkerBackend) already persisted each outcome on completion;
        # put_if_absent then only pays a validation read instead of
        # re-serialising and rewriting every entry.
        streamed = getattr(backend, "store", None) is store and store is not None
        for spec, outcome in zip(missing, outcomes):
            key = spec.content_key()
            if isinstance(outcome, ExperimentFailure):
                failures.append(outcome)
                results[key] = None
                if store is not None and not streamed:
                    store.record_failure(spec, outcome)
            else:
                results[key] = outcome
                if store is not None:
                    if streamed:
                        store.put_if_absent(spec, outcome)
                    else:
                        store.put(spec, outcome)

    if failures and on_error == "raise":
        raise ExperimentExecutionError(failures)
    return [results[key] for key in keys]
