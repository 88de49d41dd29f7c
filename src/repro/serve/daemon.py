"""The persistent simulation service daemon.

:class:`SimulationService` owns a long-lived worker pool (an
:class:`~repro.exp.distributed.AsyncWorkerBackend` in service mode) and
accepts client connections over the protocol-v4 service frames of
:mod:`repro.exp.protocol` (``submit`` / ``status`` / ``watch`` / ``cancel``
/ ``stats``).  A *job* is a batch of :class:`~repro.exp.spec.ExperimentSpec`
submitted under a tenant id; its specs become units of the
:class:`~repro.serve.queue.FairShareQueue`, which the backend's unmodified
dispatch slots drain — batching, per-spec acks and death requeues all work
exactly as in one-shot runs.

Durability and exactly-once results
-----------------------------------
The daemon is a thin, crash-safe layer over the content-addressed
:class:`~repro.exp.store.ResultStore`:

* **Write-ahead results.**  ``finish`` persists each outcome to the store
  *before* any daemon bookkeeping.  A crash at any point therefore loses at
  most work, never results: everything acknowledged by a worker and
  persisted survives, and nothing is ever recorded as done without its
  store entry existing.
* **Job journal.**  Each submitted job is journalled (atomically) under
  ``<cache>/.serve/jobs/<job_id>.json`` and rewritten with its terminal
  state on completion.  On start the daemon re-submits every journalled
  *active* job: specs whose results are already in the store resolve as
  instant cache hits (zero executions — the per-spec acks made them
  durable), and only genuinely unfinished specs re-enter the queue.
* **Deduplication.**  Within a job, specs are deduplicated by content key;
  across jobs, a spec already queued or running is not enqueued again —
  late submitters just subscribe to the in-flight key.  Identical active
  (tenant, spec-set) submissions re-attach to the same job id.
* **Pinning.**  Keys of in-flight jobs are pinned in the store, so LRU
  compaction under a byte budget can never evict a result between its
  write and the moment its job's watcher reads it.

Cancellation cancels a job's *pending* units: queued units are removed
immediately, running units are detached (their result is still persisted —
the ack protocol means they were executing and will be a warm hit for any
future submission) and a cancelled unit requeued by a worker death is
dropped by the queue, never re-executed.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exp import protocol
from repro.exp.backends import Outcome
from repro.exp.spec import ExperimentFailure, ExperimentSpec
from repro.exp.store import ResultStore, _normalised_payload
from repro.serve.queue import FairShareQueue, ServiceJob

#: Unit states.  ``pending`` covers queued and running (the queue owns that
#: distinction); the rest are terminal.
PENDING = "pending"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"


def job_id_for(tenant: str, keys: Sequence[str]) -> str:
    """Deterministic job id of a (tenant, spec-set) submission.

    Sorted and deduplicated, so the same logical batch always maps to the
    same id — which is what makes re-submission attach instead of fork.
    """
    digest = hashlib.sha256()
    digest.update(tenant.encode("utf-8"))
    for key in sorted(set(keys)):
        digest.update(b"\0")
        digest.update(key.encode("utf-8"))
    return digest.hexdigest()[:16]


def results_digest(payload_by_key: Dict[str, bytes]) -> str:
    """SHA-256 over sorted normalised result payloads.

    The payloads are exactly the bytes the store persists, so this digest is
    byte-comparable with :func:`store_digest` computed over a serial run's
    cache directory.
    """
    digest = hashlib.sha256()
    for key in sorted(payload_by_key):
        digest.update(key.encode("utf-8"))
        digest.update(b"\0")
        digest.update(hashlib.sha256(payload_by_key[key]).digest())
        digest.update(b"\n")
    return digest.hexdigest()


def store_digest(directory, keys: Optional[Sequence[str]] = None) -> str:
    """Digest of an on-disk store's result entries (see :func:`results_digest`).

    With ``keys`` the digest covers only those content keys, so a service
    job's digest can be checked against a store that also holds other runs.
    """
    store = ResultStore(directory)
    wanted = set(keys) if keys is not None else None
    payloads: Dict[str, bytes] = {}
    for path in store._entry_files():
        key = path.name[: -len(".json")]
        if wanted is not None and key not in wanted:
            continue
        payloads[key] = path.read_bytes()
    return results_digest(payloads)


class JobRecord:
    """Daemon-side state of one submitted job."""

    def __init__(
        self,
        job_id: str,
        tenant: str,
        specs: List[ExperimentSpec],
        keys: List[str],
        priority: int,
        created: float,
    ) -> None:
        self.job_id = job_id
        self.tenant = tenant
        self.specs = specs
        self.keys = keys
        self.priority = priority
        self.created = created
        self.unit_state: List[str] = [PENDING] * len(specs)
        self.outcomes: List[Optional[Outcome]] = [None] * len(specs)
        self.cached: List[bool] = [False] * len(specs)
        self.subscribers: List["asyncio.Queue"] = []
        self.finished = False
        self.done_event = asyncio.Event()

    @property
    def status(self) -> str:
        if not self.finished:
            return "active"
        if any(state == CANCELLED for state in self.unit_state):
            return "cancelled"
        if any(state == FAILED for state in self.unit_state):
            return "failed"
        return "done"

    def counts(self) -> Dict[str, int]:
        counts = {PENDING: 0, DONE: 0, FAILED: 0, CANCELLED: 0}
        for state in self.unit_state:
            counts[state] += 1
        return counts

    def snapshot(self) -> Dict[str, object]:
        return {
            "type": "job_status",
            "job": self.job_id,
            "tenant": self.tenant,
            "priority": self.priority,
            "status": self.status,
            "total": len(self.specs),
            "counts": self.counts(),
            "cached": sum(self.cached),
            "finished": self.finished,
        }

    def push_update(self, update: Optional[Dict[str, object]]) -> None:
        for subscriber in self.subscribers:
            subscriber.put_nowait(update)

    def digest(self) -> str:
        payloads = {
            key: _normalised_payload(spec, outcome).encode("utf-8")
            for key, spec, state, outcome in zip(
                self.keys, self.specs, self.unit_state, self.outcomes
            )
            if state == DONE and outcome is not None
            and not isinstance(outcome, ExperimentFailure)
        }
        return results_digest(payloads)

    def done_frame(self) -> Dict[str, object]:
        results = []
        failures = []
        for pos, (key, state) in enumerate(zip(self.keys, self.unit_state)):
            outcome = self.outcomes[pos]
            entry: Dict[str, object] = {
                "unit": pos,
                "key": key,
                "state": state,
                "cached": self.cached[pos],
            }
            if state == FAILED and isinstance(outcome, ExperimentFailure):
                entry["error"] = outcome.to_dict()
                failures.append(entry)
            else:
                if state == DONE and outcome is not None:
                    entry["result"] = outcome.to_dict()
                results.append(entry)
        return {
            "type": "job_done",
            "job": self.job_id,
            "status": self.status,
            "digest": self.digest(),
            "results": results,
            "failures": failures,
        }


class SimulationService:
    """Persistent daemon serving simulation jobs over protocol-v4 frames.

    Parameters
    ----------
    backend:
        An :class:`AsyncWorkerBackend` constructed *without*
        a store — the daemon owns all store writes so the write-ahead
        ordering holds.
    store:
        Result store for write-ahead persistence, warm serving and restart
        recovery.  Without one the daemon still works but recovers nothing
        across restarts.
    default_cap / default_weight:
        Fair-share defaults for tenants not configured via
        :meth:`configure_tenant`.
    journal:
        Whether to journal jobs for restart recovery (needs a store).
    """

    def __init__(
        self,
        backend,
        *,
        store: Optional[ResultStore] = None,
        default_weight: float = 1.0,
        default_cap: Optional[int] = None,
        journal: bool = True,
    ) -> None:
        if getattr(backend, "store", None) is not None:
            raise ValueError(
                "service backend must not own a store; "
                "the daemon performs all store writes"
            )
        self.backend = backend
        self.store = store
        self.journal = journal and store is not None
        self.queue = FairShareQueue(
            default_weight=default_weight,
            default_cap=default_cap,
            on_drop=self._on_drop,
        )
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._server: Optional["asyncio.AbstractServer"] = None
        self._records: Dict[str, JobRecord] = {}
        #: key -> (record, unit position) subscriptions of in-flight keys.
        self._waiters: Dict[str, List[Tuple[JobRecord, int]]] = {}
        #: key -> the queue unit currently owned by the queue (or a worker).
        self._units: Dict[str, ServiceJob] = {}
        self._unit_counter = 0
        self._completions = 0
        self._recovered_jobs = 0
        self._started_at: Optional[float] = None
        self._closing: Optional[asyncio.Event] = None

    # ------------------------------------------------------------------
    def configure_tenant(self, name, *, weight=None, cap=None) -> None:
        """Set a tenant's fair-share weight and/or in-flight cap."""
        self.queue.configure_tenant(name, weight=weight, cap=cap)

    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Recover journalled jobs, start the pool and bind the listener."""
        loop = asyncio.get_running_loop()
        self._started_at = loop.time()
        self._closing = asyncio.Event()
        await self.backend.start_service(self.queue, self._finish)
        self._recover()
        self._server = await asyncio.start_server(self._handle_client, host, port)
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]

    async def serve_until_stopped(self) -> None:
        """Block until a ``stop`` frame (or :meth:`request_stop`), then stop."""
        assert self._closing is not None, "start() first"
        await self._closing.wait()
        await self.stop()

    def request_stop(self) -> None:
        """Ask :meth:`serve_until_stopped` to wind the daemon down."""
        if self._closing is not None:
            self._closing.set()

    async def stop(self) -> None:
        """Close the listener and stop the pool (journalled work persists)."""
        if self._server is not None:
            self._server.close()
            try:
                await self._server.wait_closed()
            except (RuntimeError, ConnectionError):  # pragma: no cover
                pass
            self._server = None
        await self.backend.stop_service()

    # ------------------------------------------------------------------
    # Journal
    # ------------------------------------------------------------------
    def _journal_dir(self) -> Optional[Path]:
        if not self.journal or self.store is None:
            return None
        return Path(self.store.directory) / ".serve" / "jobs"

    def _journal_write(self, record: JobRecord) -> None:
        directory = self._journal_dir()
        if directory is None:
            return
        directory.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(
            {
                "job": record.job_id,
                "tenant": record.tenant,
                "priority": record.priority,
                "state": record.status,
                "specs": [spec.to_dict() for spec in record.specs],
            },
            sort_keys=True,
        )
        path = directory / f"{record.job_id}.json"
        fd, tmp_name = tempfile.mkstemp(dir=directory, prefix=".tmp-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp_name)
            raise

    def _recover(self) -> None:
        """Re-submit every journalled active job (warm keys resolve instantly)."""
        directory = self._journal_dir()
        if directory is None or not directory.is_dir():
            return
        for path in sorted(directory.glob("*.json")):
            if path.name.startswith("."):
                continue
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
                if payload.get("state") != "active":
                    continue
                specs = [
                    ExperimentSpec.from_dict(entry)
                    for entry in payload["specs"]
                ]
                self.submit(
                    tenant=str(payload["tenant"]),
                    specs=specs,
                    priority=int(payload.get("priority", 0)),
                )
                self._recovered_jobs += 1
            except (ValueError, KeyError, TypeError) as exc:
                print(
                    f"repro.serve: unreadable journal entry {path.name}: {exc}",
                    file=sys.stderr,
                )

    # ------------------------------------------------------------------
    # Job lifecycle
    # ------------------------------------------------------------------
    def submit(
        self,
        tenant: str,
        specs: Sequence[ExperimentSpec],
        priority: int = 0,
    ) -> Tuple[JobRecord, bool]:
        """Register a job; returns ``(record, attached)``.

        ``attached`` is True when an identical (tenant, spec-set) job is
        already known — the caller re-attached instead of duplicating work.
        """
        if not specs:
            raise ValueError("a job needs at least one spec")
        unique_specs: List[ExperimentSpec] = []
        keys: List[str] = []
        seen = set()
        for spec in specs:
            key = spec.content_key()
            if key in seen:
                continue
            seen.add(key)
            unique_specs.append(spec)
            keys.append(key)
        job_id = job_id_for(tenant, keys)
        existing = self._records.get(job_id)
        if existing is not None:
            return existing, True
        loop = asyncio.get_running_loop()
        record = JobRecord(job_id, tenant, unique_specs, keys, priority, loop.time())
        self._records[job_id] = record
        self._journal_write(record)
        for pos, (spec, key) in enumerate(zip(unique_specs, keys)):
            cached = self.store.get(spec) if self.store is not None else None
            if cached is not None:
                self._finalize_unit(record, pos, DONE, cached, cached_hit=True)
                continue
            if self.store is not None:
                self.store.pin(key)
            self._waiters.setdefault(key, []).append((record, pos))
            if key not in self._units:
                unit = ServiceJob(
                    self._unit_counter, spec, key, tenant, priority
                )
                self._unit_counter += 1
                self._units[key] = unit
                self.queue.submit(unit)
        self._maybe_finalize_record(record)
        return record, False

    def cancel(self, job_id: str) -> Optional[int]:
        """Cancel a job's pending units; returns how many, ``None`` if unknown.

        Queued units leave the queue now; units being executed are detached
        (their results still land in the store as warm entries) and are
        dropped if a worker death tries to requeue them.  Units whose key
        another job also waits on keep running for that job.
        """
        record = self._records.get(job_id)
        if record is None:
            return None
        to_cancel = set()
        cancelled_units = 0
        for pos, state in enumerate(record.unit_state):
            if state != PENDING:
                continue
            key = record.keys[pos]
            waiters = [
                entry for entry in self._waiters.get(key, [])
                if entry[0] is not record
            ]
            if waiters:
                self._waiters[key] = waiters
            else:
                self._waiters.pop(key, None)
                unit = self._units.get(key)
                if unit is not None:
                    to_cancel.add(unit.index)
            if self.store is not None:
                self.store.unpin(key)
            self._finalize_unit(record, pos, CANCELLED, None)
            cancelled_units += 1
        for unit in self.queue.cancel(to_cancel):
            self._units.pop(unit.key, None)
        # In-flight cancelled units stay in self._units until their outcome
        # or their post-death drop arrives; both paths clean the entry up.
        return cancelled_units

    def _on_drop(self, job: ServiceJob) -> None:
        """A cancelled in-flight unit was requeued by a worker death."""
        self._units.pop(job.key, None)

    def _finish(self, job: ServiceJob, outcome: Outcome) -> None:
        """Backend completion callback: persist first, then bookkeep.

        The store write precedes every piece of daemon state — journal,
        record, queue accounting — so a crash between any two steps is
        recovered by the journal replaying the job against a store that
        already holds the result.
        """
        loop = asyncio.get_running_loop()
        if self.store is not None:
            write_started = loop.time()
            try:
                if isinstance(outcome, ExperimentFailure):
                    self.store.record_failure(job.spec, outcome)
                else:
                    self.store.put_if_absent(job.spec, outcome)
            except Exception as exc:
                print(f"repro.serve: store write failed: {exc}", file=sys.stderr)
            self.backend.absolve_stall(write_started, loop.time())
        self.queue.task_done(job)
        self._units.pop(job.key, None)
        state = FAILED if isinstance(outcome, ExperimentFailure) else DONE
        for record, pos in self._waiters.pop(job.key, []):
            if self.store is not None:
                self.store.unpin(job.key)
            self._finalize_unit(record, pos, state, outcome)

    def _finalize_unit(
        self,
        record: JobRecord,
        pos: int,
        state: str,
        outcome: Optional[Outcome],
        cached_hit: bool = False,
    ) -> None:
        if record.unit_state[pos] != PENDING:
            return  # exactly-once: late duplicates are ignored
        record.unit_state[pos] = state
        record.outcomes[pos] = outcome
        record.cached[pos] = cached_hit
        self._completions += 1
        record.push_update({
            "type": "job_update",
            "job": record.job_id,
            "seq": self._completions,
            "unit": pos,
            "key": record.keys[pos],
            "state": state,
            "cached": cached_hit,
        })
        self._maybe_finalize_record(record)

    def _maybe_finalize_record(self, record: JobRecord) -> None:
        if record.finished or any(s == PENDING for s in record.unit_state):
            return
        record.finished = True
        self._journal_write(record)
        record.push_update(None)  # done marker for watchers
        record.done_event.set()

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        loop = asyncio.get_running_loop()
        by_status: Dict[str, int] = {}
        for record in self._records.values():
            by_status[record.status] = by_status.get(record.status, 0) + 1
        report: Dict[str, object] = {
            "type": "stats_report",
            "protocol": protocol.PROTOCOL_VERSION,
            "uptime_seconds": (
                loop.time() - self._started_at if self._started_at else 0.0
            ),
            "jobs": {"total": len(self._records), **by_status},
            "recovered_jobs": self._recovered_jobs,
            "completions": self._completions,
            "queue": self.queue.stats(),
            "store": self.store.stats() if self.store is not None else None,
            "dispatch": self.backend.dispatch_snapshot(),
            "hosts": self.backend.host_snapshot(),
        }
        return report

    # ------------------------------------------------------------------
    # Client connections
    # ------------------------------------------------------------------
    async def _send(self, writer: "asyncio.StreamWriter", message) -> None:
        writer.write(protocol.encode_frame(message))
        await writer.drain()

    async def _handle_client(
        self,
        reader: "asyncio.StreamReader",
        writer: "asyncio.StreamWriter",
    ) -> None:
        try:
            while True:
                try:
                    message = await protocol.read_frame_async(reader)
                except (asyncio.IncompleteReadError, ConnectionResetError, OSError):
                    return
                except protocol.ProtocolError as exc:
                    with contextlib.suppress(Exception):
                        await self._send(
                            writer, {"type": "error_reply", "error": str(exc)}
                        )
                    return
                try:
                    await self._handle_frame(message, writer)
                except (ConnectionResetError, BrokenPipeError, OSError):
                    return  # client went away; the daemon and its jobs stay
        finally:
            with contextlib.suppress(Exception):
                writer.close()

    async def _handle_frame(self, message, writer) -> None:
        kind = message.get("type")
        if kind == "submit":
            await self._handle_submit(message, writer)
        elif kind == "status":
            job_id = message.get("job")
            if job_id is None:
                await self._send(writer, {
                    "type": "service_status",
                    "jobs": [
                        record.snapshot()
                        for record in self._records.values()
                    ],
                })
            else:
                record = self._records.get(job_id)
                if record is None:
                    await self._send(writer, {
                        "type": "error_reply",
                        "error": f"unknown job {job_id!r}",
                    })
                else:
                    await self._send(writer, record.snapshot())
        elif kind == "watch":
            await self._handle_watch(message, writer)
        elif kind == "cancel":
            job_id = message.get("job")
            cancelled = self.cancel(job_id) if job_id else None
            if cancelled is None:
                await self._send(writer, {
                    "type": "error_reply",
                    "error": f"unknown job {job_id!r}",
                })
            else:
                await self._send(writer, {
                    "type": "cancel_ack",
                    "job": job_id,
                    "cancelled": cancelled,
                })
        elif kind == "stats":
            await self._send(writer, self.stats())
        elif kind == "stop":
            await self._send(writer, {"type": "stopping"})
            self.request_stop()
        else:
            await self._send(writer, {
                "type": "error_reply",
                "error": f"unknown frame type {kind!r}",
            })

    async def _handle_submit(self, message, writer) -> None:
        try:
            tenant = str(message["tenant"])
            raw_specs = message["specs"]
            if not isinstance(raw_specs, list) or not raw_specs:
                raise ValueError("specs must be a non-empty list")
            specs = [ExperimentSpec.from_dict(entry) for entry in raw_specs]
            priority = int(message.get("priority", 0))
        except (KeyError, TypeError, ValueError) as exc:
            await self._send(writer, {
                "type": "error_reply",
                "error": f"bad submit frame: {exc}",
            })
            return
        record, attached = self.submit(tenant, specs, priority=priority)
        await self._send(writer, {
            "type": "submitted",
            "job": record.job_id,
            "total": len(record.specs),
            "cached": sum(record.cached),
            "attached": attached,
        })

    async def _handle_watch(self, message, writer) -> None:
        record = self._records.get(message.get("job"))
        if record is None:
            await self._send(writer, {
                "type": "error_reply",
                "error": f"unknown job {message.get('job')!r}",
            })
            return
        subscriber: "asyncio.Queue" = asyncio.Queue()
        record.subscribers.append(subscriber)
        try:
            await self._send(writer, record.snapshot())
            if record.finished:
                await self._send(writer, record.done_frame())
                return
            while True:
                update = await subscriber.get()
                if update is None:
                    await self._send(writer, record.done_frame())
                    return
                await self._send(writer, update)
        finally:
            # Client gone or job done: either way the job itself runs on,
            # and a later watch re-attaches via the record.
            if subscriber in record.subscribers:
                record.subscribers.remove(subscriber)
