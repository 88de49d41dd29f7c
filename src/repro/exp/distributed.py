"""Distributed async execution backend for the experiment orchestrator.

:class:`AsyncWorkerBackend` dispatches :class:`~repro.exp.spec.ExperimentSpec`
batches over an asyncio work queue to ``repro.exp.worker`` processes
speaking the length-prefixed JSON protocol of :mod:`repro.exp.protocol`.
Every worker is launched with ``--connect`` and dials back to the
supervisor's :class:`~repro.exp.hosts.HostPool` listener, as a local
subprocess or over SSH (:mod:`repro.exp.hosts`).  ``num_workers=N`` is one
local host of N workers; ``hosts="host1:4,host2:8"`` names the hosts and
their worker budgets explicitly.  Each worker is one :class:`_Worker`: a
pair of asyncio streams plus the launcher handle that kills and reaps it.

Fault model
-----------
* **Poison specs** — a spec that raises inside the worker comes back as an
  ``error`` frame; the worker stays alive, the failure is recorded as an
  :class:`~repro.exp.spec.ExperimentFailure` and the queue keeps draining.
  Deterministic failures are *not* retried.
* **Worker death** — a worker that exits or is killed mid-job has its job
  requeued (``max_retries`` times, then recorded as a failure) and the slot
  respawns a fresh worker.  A slot whose workers die repeatedly without ever
  completing a job gives up; when every slot has given up the remaining jobs
  are failed instead of waiting forever.  A second, host-level layer of
  this accounting quarantines a *host* whose workers crash-loop: its slots
  retire and leave their jobs to the healthy hosts.
* **Hung workers** — the supervisor pings every worker on a heartbeat
  interval; the worker's reader thread pongs even while a simulation is
  running, so a silence longer than ``heartbeat_timeout`` means the process
  is stopped or deadlocked (not merely busy) and it is killed, which routes
  into the worker-death path above.
* **Cancellation** — SIGINT (or cancelling the supervising task) shuts the
  pool down gracefully: workers are terminated and reaped, no orphan
  processes remain, and — with a streaming ``store`` attached — every
  experiment that finished before the interrupt is already persisted.

Batched dispatch
----------------
At cluster scale the sampled simulations themselves are cheap — TaskPoint's
whole premise — so the per-spec dispatch round-trip becomes the bottleneck.
``batch=`` bounds how many specs one dispatch frame may carry: a slot drains
up to that many jobs from the queue (never blocking to fill a batch) and
ships them in a single ``run_batch`` frame; the worker answers
each with its own ``result``/``error`` frame, in order, as it completes.
Those per-spec answers double as acknowledgements: when a worker dies
mid-batch, exactly the unacknowledged jobs are requeued and the acknowledged
ones keep their outcomes, so nothing runs twice and the result store stays
byte-identical to a serial run.  ``batch="adaptive"`` starts every batch at
one spec and grows toward a cap based on the observed per-spec wall-time
(:class:`AdaptiveBatchSizer`), so sub-second specs amortise round-trips
while long specs keep one-spec retry granularity.  Unbatched dispatch is a
one-job ``run_batch`` frame; there is no other job frame.

Determinism: results are collected by job index and returned in submission
order, and the workers funnel through the same
:func:`~repro.exp.runner.run_spec` as every other backend, so the output is
bit-identical to :class:`~repro.exp.backends.SerialBackend` regardless of
worker count, batch size, scheduling or retries (see
``tests/test_exp_distributed.py``, ``tests/test_exp_multihost.py`` and
``tests/test_exp_batching.py``).
"""

from __future__ import annotations

import asyncio
import secrets
import signal
import socket
import sys
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.exp import protocol
from repro.exp.backends import Outcome, Store, _raise_on_failure
from repro.exp.hosts import (
    DEFAULT_CONNECT_TIMEOUT,
    HostPool,
    HostSpec,
    HostState,
    LocalLauncher,
    SSHLauncher,
    kill_handle,
    parse_hosts,
)
from repro.exp.spec import ExperimentFailure, ExperimentResult, ExperimentSpec


#: Batch cap used when ``batch="adaptive"`` names no explicit cap.
DEFAULT_BATCH_CAP = 16

#: Adaptive sizing aims for batches of roughly this much work: sub-second
#: specs are packed until a batch is worth a couple of seconds (amortising
#: the dispatch round-trip), while specs at or above it stay unbatched so a
#: worker death never forfeits more than one spec's worth of progress.
ADAPTIVE_TARGET_SECONDS = 2.0


def parse_batch(raw: "Union[None, int, str]") -> "tuple[int, bool]":
    """Parse a batch knob into ``(cap, adaptive)``.

    Accepts ``None``/``1`` (no batching — one spec per dispatch frame, the
    historical behaviour), a positive integer (fixed batch size), or the
    strings ``"adaptive"`` / ``"adaptive:CAP"`` (grow from 1 toward the cap
    based on observed per-spec wall-time).
    """
    if raw is None:
        return 1, False
    if isinstance(raw, bool):  # bool is an int subclass; reject it explicitly
        raise ValueError(f"invalid batch size {raw!r}")
    if not isinstance(raw, int):
        text = str(raw).strip()
        if text.startswith("adaptive"):
            name, sep, cap_text = text.partition(":")
            try:
                if name != "adaptive":
                    raise ValueError(text)
                cap = int(cap_text) if sep else DEFAULT_BATCH_CAP
            except ValueError as exc:
                raise ValueError(
                    f"invalid batch spec {text!r} "
                    "(expected N, 'adaptive' or 'adaptive:N')"
                ) from exc
            if cap < 1:
                raise ValueError("adaptive batch cap must be >= 1")
            return cap, True
        try:
            raw = int(text)
        except ValueError as exc:
            raise ValueError(
                f"invalid batch spec {text!r} "
                "(expected N, 'adaptive' or 'adaptive:N')"
            ) from exc
    if raw < 1:
        raise ValueError("batch size must be >= 1")
    return raw, False


class AdaptiveBatchSizer:
    """Grows the dispatch batch size from 1 toward a cap as specs prove cheap.

    The sizer keeps an exponentially weighted mean of the observed per-spec
    wall-time and targets batches worth :data:`ADAPTIVE_TARGET_SECONDS` of
    work.  Growth is bounded to doubling per observation so a single
    misleading sample cannot jump straight to the cap, while shrinking (specs
    turned out slow) takes effect immediately — retry granularity is the
    side that must never lag behind reality.
    """

    def __init__(
        self,
        cap: int = DEFAULT_BATCH_CAP,
        target_seconds: float = ADAPTIVE_TARGET_SECONDS,
    ) -> None:
        if cap < 1:
            raise ValueError("cap must be >= 1")
        if target_seconds <= 0:
            raise ValueError("target_seconds must be positive")
        self.cap = cap
        self.target_seconds = target_seconds
        self._mean: Optional[float] = None
        self._size = 1

    @property
    def size(self) -> int:
        """Batch size the next dispatch should use."""
        return self._size

    def record(self, per_spec_seconds: float) -> None:
        """Feed one observed per-spec wall-time into the sizer."""
        per_spec_seconds = max(per_spec_seconds, 1e-6)
        if self._mean is None:
            self._mean = per_spec_seconds
        else:
            self._mean = 0.5 * self._mean + 0.5 * per_spec_seconds
        ideal = int(self.target_seconds / self._mean)
        self._size = max(1, min(self.cap, ideal, self._size * 2))


class WorkerDied(RuntimeError):
    """The worker process holding a job exited before answering it."""


class SpawnError(OSError):
    """A worker could not be brought up (spawn or connect-back failed)."""


class _Job:
    __slots__ = ("index", "spec", "key", "attempts")

    def __init__(self, index: int, spec: ExperimentSpec, key: str) -> None:
        self.index = index
        self.spec = spec
        self.key = key
        self.attempts = 0  # completed dispatch attempts that ended in death


class _Worker:
    """One live worker and its supervisor-side state.

    A worker is both ends of its accepted connect-back connection (frames
    in on ``reader``, out on ``writer``) plus the local ``handle`` of the
    process that launched it: the worker itself, or its ssh client.
    """

    def __init__(
        self,
        reader: "asyncio.StreamReader",
        writer: "asyncio.StreamWriter",
        handle: "asyncio.subprocess.Process",
        pid: int,
        host: str,
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.handle = handle
        self.pid = pid
        self.host = host
        self.alive = True
        self.last_seen = asyncio.get_running_loop().time()
        self.pending: Dict[int, "asyncio.Future[Outcome]"] = {}
        self.completed = 0
        self.reader_task: Optional["asyncio.Task"] = None
        self.monitor_task: Optional["asyncio.Task"] = None

    # ------------------------------------------------------------------
    async def send(self, message: Dict[str, object]) -> None:
        if not self.alive:
            raise WorkerDied(f"worker {self.pid} is gone")
        try:
            self.writer.write(protocol.encode_frame(message, compress=True))
            await self.writer.drain()
        except (OSError, ConnectionResetError, BrokenPipeError) as exc:
            raise WorkerDied(f"worker {self.pid} connection closed: {exc}") from exc

    def kill(self) -> None:
        """Forcefully terminate the worker process (best effort)."""
        # Close the connection first so the remote end sees EOF even when
        # only the local ssh client dies, then kill the local handle.
        try:
            self.writer.close()
        except (OSError, RuntimeError):
            pass
        kill_handle(self.handle)

    async def wait(self) -> None:
        """Reap the worker's launcher process."""
        await self.handle.wait()

    def close_gracefully(self) -> None:
        """Ask the worker to exit: shutdown frame, then close the connection."""
        try:
            self.writer.write(protocol.encode_frame({"type": "shutdown"}))
            self.writer.close()
        except (OSError, RuntimeError):
            pass


class AsyncWorkerBackend:
    """Asyncio supervisor sharding experiments over connect-back workers.

    Parameters
    ----------
    num_workers:
        Worker budget of one local host (default 2).  Mutually exclusive
        with ``hosts``.
    hosts:
        ``"host1:4,host2:8"``, or a sequence of such strings /
        :class:`~repro.exp.hosts.HostSpec` objects; the budgets sum to the
        number of concurrent workers.
    max_retries:
        How many times a job is requeued after the worker holding it died
        before it is recorded as a failure.  Failures *reported* by a live
        worker (the spec raised) are deterministic and never retried.
    heartbeat_interval / heartbeat_timeout:
        Ping cadence and the silence threshold after which a worker is
        declared hung and killed.  The timeout defaults to four intervals.
    spawn_retries:
        Consecutive worker deaths (without a completed job in between) a
        slot tolerates before giving up.
    host_quarantine_retries:
        Consecutive worker deaths (without a completed job in between) a
        *host* tolerates before it is quarantined; defaults to
        ``spawn_retries``.
    batch:
        Specs per dispatch frame: ``None``/``1`` (default, one spec at a
        time), a fixed size ``N``, or ``"adaptive"`` / ``"adaptive:N"``
        (grow from 1 toward the cap as observed per-spec wall-times prove
        cheap).  Batches are drained from the queue without blocking — a
        slot never waits for a batch to fill — and a worker death requeues
        only the batch's unacknowledged specs.
    store:
        Optional result store (on-disk or in-memory) that completed
        experiments are streamed into as they finish (via
        ``put_if_absent``, so concurrent supervisors sharing an on-disk
        store do not rewrite each other's entries).  A cancelled run then
        loses only the in-flight experiments.
    worker_env:
        Extra environment variables for the worker processes (tests use
        this for ``PYTHONHASHSEED`` and fault injection).
    python:
        Interpreter to launch local workers with; defaults to
        ``sys.executable``.
    listen_host / listen_port:
        Bind address of the connect-back listener.  Port ``0`` (default)
        picks an ephemeral port; cluster deployments bind a fixed
        ``0.0.0.0:PORT``.
    connect_host:
        Address workers dial back to.  Defaults to ``127.0.0.1`` for local
        hosts and this machine's hostname for SSH hosts.
    connect_timeout:
        Seconds a launched worker gets to connect back.
    ssh_command / remote_python:
        SSH client argv prefix and interpreter for SSH hosts.

    The backend is synchronous to its callers (it owns its event loop via
    ``asyncio.run``), so it drops into :func:`repro.exp.run_experiments`
    exactly like the serial backend.
    """

    def __init__(
        self,
        num_workers: Optional[int] = None,
        *,
        hosts: Union[None, str, Sequence[Union[str, HostSpec]]] = None,
        max_retries: int = 2,
        heartbeat_interval: float = 5.0,
        heartbeat_timeout: Optional[float] = None,
        spawn_retries: int = 2,
        host_quarantine_retries: Optional[int] = None,
        batch: Union[None, int, str] = None,
        store: Optional[Store] = None,
        worker_env: Optional[Dict[str, str]] = None,
        python: Optional[str] = None,
        listen_host: str = "127.0.0.1",
        listen_port: int = 0,
        connect_host: Optional[str] = None,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
        ssh_command: Sequence[str] = ("ssh", "-o", "BatchMode=yes"),
        remote_python: str = "python3",
    ) -> None:
        if hosts is None:
            workers = 2 if num_workers is None else num_workers
            if workers < 1:
                raise ValueError("num_workers must be >= 1")
            hosts = [HostSpec("local", workers=workers)]
        elif num_workers is not None:
            raise ValueError("pass num_workers or hosts, not both")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if heartbeat_timeout is not None and heartbeat_timeout <= heartbeat_interval:
            # The monitor wakes every interval and checks staleness before
            # pinging; a timeout at or below the interval would kill every
            # healthy worker on its first wakeup.
            raise ValueError("heartbeat_timeout must exceed heartbeat_interval")
        self.host_specs = parse_hosts(hosts)
        self.num_workers = sum(spec.workers for spec in self.host_specs)
        self.max_retries = max_retries
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = (
            heartbeat_timeout if heartbeat_timeout is not None
            else 4.0 * heartbeat_interval
        )
        self.spawn_retries = spawn_retries
        self.host_quarantine_retries = (
            host_quarantine_retries
            if host_quarantine_retries is not None
            else spawn_retries
        )
        self.batch_cap, self.batch_adaptive = parse_batch(batch)
        self.store = store
        self.worker_env = dict(worker_env) if worker_env else {}
        self.python = python
        self.listen_host = listen_host
        self.listen_port = listen_port
        self.connect_host = connect_host
        self.connect_timeout = connect_timeout
        self.ssh_command = tuple(ssh_command)
        self.remote_python = remote_python
        self.stats: Dict[str, int] = {}
        self._pids: set = set()
        self._workers: List[_Worker] = []
        self._hosts: List[HostState] = []
        self._pool: Optional[HostPool] = None
        self._handles: List["asyncio.subprocess.Process"] = []
        self._token_counter = 0
        self._sizer: Optional[AdaptiveBatchSizer] = None
        self._live_slots = 0
        #: Service mode (the persistent daemon): slots never give up — a
        #: crash-looping slot backs off and retries instead of retiring,
        #: because an idle service must recover when the machine heals.
        self._service_mode = False
        self._service_tasks: List["asyncio.Task"] = []

    # ------------------------------------------------------------------
    def active_pids(self) -> List[int]:
        """PIDs of the currently live worker processes (for tests/monitoring)."""
        return sorted(self._pids)

    def run_outcomes(self, specs: Sequence[ExperimentSpec]) -> List[Outcome]:
        """Per-spec outcomes; worker deaths and raising specs do not stall."""
        if self._service_mode:
            raise RuntimeError(
                "backend is running as a persistent service; "
                "submit jobs through its queue instead of run_outcomes()"
            )
        # run_experiments already submits unique specs, but a directly
        # driven backend must still simulate shared baselines once.
        unique: Dict[str, ExperimentSpec] = {}
        for spec in specs:
            unique.setdefault(spec.content_key(), spec)
        if not unique:
            return []
        try:
            outcomes = asyncio.run(self._supervise(list(unique.values())))
        finally:
            self._kill_leftovers()
        by_key = dict(zip(unique, outcomes))
        return [by_key[spec.content_key()] for spec in specs]

    def run(self, specs: Sequence[ExperimentSpec]) -> List[ExperimentResult]:
        """Execute ``specs``; raises if any spec ultimately failed."""
        return _raise_on_failure(self.run_outcomes(specs))

    def host_snapshot(self) -> Dict[str, Dict[str, object]]:
        """Per-host health accounting of the running (or the last) run.

        The service reports it in its ``stats`` frame.
        """
        return {
            host.name: {
                "budget": host.budget,
                "spawns": host.spawns,
                "completed": host.completed,
                "consecutive_deaths": host.consecutive_deaths,
                "quarantined": host.quarantined,
            }
            for host in self._hosts
        }

    # ------------------------------------------------------------------
    def _kill_leftovers(self) -> None:
        """Last-resort synchronous cleanup once the event loop is gone.

        Launcher handles are killed by local pid; the pids of SSH workers
        belong to other machines and are not ours to signal.
        """
        for handle in self._handles:
            kill_handle(handle)
        self._handles = []
        self._pids.clear()
        self._workers.clear()

    def _launcher_for(self, spec: HostSpec):
        if spec.is_local:
            return LocalLauncher(python=spec.python or self.python)
        return SSHLauncher(
            spec.name,
            python=spec.python or self.remote_python,
            ssh_command=self.ssh_command,
        )

    def _connect_host_for(self, host: HostState) -> str:
        if self.connect_host:
            return self.connect_host
        if host.spec.is_local:
            return "127.0.0.1"
        return socket.gethostname()

    async def _spawn_host_worker(self, host: HostState) -> _Worker:
        """Launch one worker on ``host`` and wait for its connect-back."""
        # The random suffix makes the token unguessable: on a listener bound
        # beyond loopback, a peer must not be able to claim a worker slot
        # (and feed forged results into the store) by predicting tokens.
        # The host#counter prefix is for humans reading logs.
        token = f"{host.name}#{self._token_counter}#{secrets.token_hex(16)}"
        self._token_counter += 1
        future = self._pool.expect(token)
        extra_env = dict(self.worker_env)
        if host.spec.env:
            extra_env.update(host.spec.env)
        try:
            handle = await host.launcher.launch(
                connect_host=self._connect_host_for(host),
                port=self._pool.port,
                token=token,
                env=extra_env,
            )
        except (OSError, ValueError) as exc:
            self._pool.forget(token)
            raise SpawnError(
                f"cannot launch a worker on host {host.name!r}: {exc}"
            ) from exc
        self._handles.append(handle)
        try:
            reader, writer, hello = await asyncio.wait_for(
                future, self.connect_timeout
            )
            protocol.check_hello(hello)
        except BaseException as exc:
            self._pool.forget(token)
            try:
                handle.kill()
            except (OSError, ProcessLookupError):
                pass
            if isinstance(exc, asyncio.TimeoutError):
                raise SpawnError(
                    f"worker launched on host {host.name!r} never connected back"
                ) from exc
            if isinstance(exc, protocol.ProtocolError):
                writer.close()
                raise SpawnError(f"worker on host {host.name!r}: {exc}") from exc
            raise  # cancellation during shutdown must propagate

        worker = _Worker(
            reader, writer, handle, pid=int(hello.get("pid") or 0), host=host.name
        )
        self._count("spawns")
        self._pids.add(worker.pid)
        self._workers.append(worker)
        worker.reader_task = asyncio.ensure_future(self._read_worker(worker))
        worker.monitor_task = asyncio.ensure_future(self._monitor_worker(worker))
        host.spawns += 1
        return worker

    def _release_worker(self, worker: _Worker) -> None:
        worker.alive = False
        self._pids.discard(worker.pid)
        if worker in self._workers:
            self._workers.remove(worker)

    async def _read_worker(self, worker: _Worker) -> None:
        """Parse frames from one worker until its stream closes."""
        loop = asyncio.get_running_loop()
        try:
            while True:
                message = await protocol.read_frame_async(worker.reader)
                worker.last_seen = loop.time()
                kind = message.get("type")
                if kind in ("result", "error"):
                    future = worker.pending.get(message.get("job"))
                    if future is not None and not future.done():
                        if kind == "result":
                            future.set_result(
                                ExperimentResult.from_dict(message["result"])
                            )
                        else:
                            future.set_result(
                                ExperimentFailure.from_dict(message["error"])
                            )
                # pong only refreshes last_seen, handled above
        except asyncio.CancelledError:
            pass  # supervisor-initiated shutdown; it owns process cleanup
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
            OSError,
            protocol.ProtocolError,
            KeyError,
            TypeError,
            ValueError,
        ):
            # Torn or malformed stream.  The process may well still be alive
            # (a desynchronised frame stream); kill it so a requeued job is
            # not silently duplicated by an orphan twin.
            worker.kill()
        finally:
            self._release_worker(worker)
            for future in list(worker.pending.values()):
                if not future.done():
                    future.set_exception(
                        WorkerDied(f"worker {worker.pid} died mid-job")
                    )

    async def _monitor_worker(self, worker: _Worker) -> None:
        """Heartbeat one worker; kill it when it goes silent."""
        loop = asyncio.get_running_loop()
        sequence = 0
        while worker.alive:
            await asyncio.sleep(self.heartbeat_interval)
            if not worker.alive:
                return
            if loop.time() - worker.last_seen > self.heartbeat_timeout:
                self._count("heartbeat_kills")
                worker.kill()
                return  # the reader's EOF turns this into the death path
            sequence += 1
            try:
                await worker.send({"type": "ping", "seq": sequence})
            except WorkerDied:
                return

    def _batch_limit(self, available: int) -> int:
        """How many of the ``available`` jobs the next dispatch may carry.

        The configured batch size (or the adaptive sizer's current one) is
        additionally capped at this slot's fair share of the remaining
        work: amortisation must not cost parallelism, and without the cap a
        fixed ``--batch 16`` on a 20-spec grid would let the first slot
        swallow 16 specs while its siblings idle.
        """
        limit = self._sizer.size if self._sizer is not None else self.batch_cap
        if limit <= 1:
            return 1
        # Divide among the slots still running, not the configured total:
        # retired slots (quarantined hosts, crash-looped spawns) must not
        # shrink the survivors' batches for the rest of the run.
        slots = self._live_slots or self.num_workers
        share = -(-available // max(1, slots))  # ceil division
        return max(1, min(limit, share))

    def _count(self, key: str, value: int = 1) -> None:
        self.stats[key] = self.stats.get(key, 0) + value

    async def _execute_batch(
        self,
        worker: _Worker,
        jobs: List[_Job],
        finish: Callable[[_Job, Outcome], None],
        host: HostState,
    ) -> "Tuple[List[_Job], bool]":
        """Dispatch ``jobs`` to one live worker; ``(died_jobs, any_completed)``.

        The jobs go out as one ``run_batch`` frame, and the worker's per-spec
        ``result``/``error`` frames are the acknowledgements: each job is
        ``finish``\\ ed — persisted, when a streaming store is attached —
        *the moment its answer arrives*, not when the batch completes.  A
        cancellation (SIGINT) mid-batch therefore keeps every acknowledged
        result, exactly as unbatched dispatch would.  Jobs whose answer
        never arrives before the worker dies are returned for the caller to
        requeue, in dispatch order (the first was the one executing).
        """
        loop = asyncio.get_running_loop()
        futures: "List[asyncio.Future[Outcome]]" = []
        for job in jobs:
            future: "asyncio.Future[Outcome]" = loop.create_future()
            worker.pending[job.index] = future
            futures.append(future)
        died: List[_Job] = []
        completed = 0
        started = loop.time()
        try:
            try:
                await worker.send({
                    "type": "run_batch",
                    "jobs": [
                        {"job": job.index, "spec": job.spec.to_dict()}
                        for job in jobs
                    ],
                })
                self._count("dispatch_frames")
                if len(jobs) > 1:
                    self._count("batch_frames")
                self.stats["max_batch"] = max(
                    self.stats.get("max_batch", 0), len(jobs)
                )
            except WorkerDied as lost:
                # The connection broke mid-send.  The worker may have answered
                # earlier jobs of this dispatch before dying, and those
                # result frames can still sit unparsed in the reader's
                # buffer — let the reader drain to EOF first (its exit
                # handler fails whatever stays pending), so acknowledged
                # specs keep their outcomes instead of being re-executed.
                worker.kill()
                if worker.reader_task is not None:
                    try:
                        await asyncio.wait_for(
                            asyncio.shield(worker.reader_task), timeout=5.0
                        )
                    except asyncio.TimeoutError:
                        pass
                # Backstop for futures the reader no longer covers (its
                # cleanup may have run before they were registered).
                for future in futures:
                    if not future.done():
                        future.set_exception(
                            WorkerDied(f"worker {worker.pid} died: {lost}")
                        )
            for job, future in zip(jobs, futures):
                try:
                    outcome = await future
                except WorkerDied:
                    died.append(job)
                    continue
                completed += 1
                worker.completed += 1
                host.record_success()
                if isinstance(outcome, ExperimentFailure):
                    outcome.attempts = job.attempts + 1
                finish(job, outcome)
        finally:
            for job in jobs:
                worker.pending.pop(job.index, None)
            if self._sizer is not None and completed:
                self._sizer.record((loop.time() - started) / completed)
        return died, completed > 0

    async def _worker_slot(
        self,
        queue: "asyncio.Queue[_Job]",
        finish: Callable[[_Job, Outcome], None],
        host: HostState,
    ) -> None:
        """One dispatch loop: owns (at most) one live worker on ``host``.

        The host's ``record_death``/``record_success`` aggregate failures
        across every slot of one machine, and outside service mode a
        quarantined host retires its slots (requeueing any job in hand) so
        the remaining hosts drain the queue.
        """
        try:
            await self._dispatch_loop(queue, finish, host)
        finally:
            # However this slot ends (retirement, give-up, cancellation),
            # the fair-share denominator follows the surviving slots.
            self._live_slots = max(0, self._live_slots - 1)

    async def _dispatch_loop(
        self,
        queue: "asyncio.Queue[_Job]",
        finish: Callable[[_Job, Outcome], None],
        host: HostState,
    ) -> None:
        """The body of one slot: spawn, dispatch batches, handle deaths."""
        worker: Optional[_Worker] = None
        consecutive_deaths = 0
        while True:
            job = await queue.get()
            jobs = [job]
            # Opportunistic batching: drain whatever is already waiting, up
            # to the batch limit, without ever blocking to fill a batch — an
            # emptying queue degrades gracefully to one-spec dispatches.
            limit = self._batch_limit(queue.qsize() + 1)
            while len(jobs) < limit:
                try:
                    jobs.append(queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            if self._retired(host):
                for requeued in jobs:
                    queue.put_nowait(requeued)
                # A sibling slot's deaths quarantined the host while this
                # slot's worker was healthy and idle: ask it to exit now
                # rather than hold a process (or SSH channel) until the end
                # of the batch.  Its reader's EOF does the bookkeeping.
                if worker is not None and worker.alive:
                    worker.close_gracefully()
                return
            if worker is None or not worker.alive:
                try:
                    worker = await self._spawn_host_worker(host)
                except (OSError, ValueError) as exc:
                    consecutive_deaths += 1
                    for requeued in jobs:  # spawn failure is not the jobs' fault
                        queue.put_nowait(requeued)
                    if self._record_host_death(host):
                        return
                    if consecutive_deaths > self.spawn_retries:
                        if not self._service_mode:
                            return
                        # A service slot never retires on spawn failures: it
                        # backs off (bounded) and keeps trying, so the pool
                        # heals itself when the machine does.
                        self._count("slot_backoffs")
                        await asyncio.sleep(self._backoff_delay(consecutive_deaths))
                        continue
                    await asyncio.sleep(0.05 * consecutive_deaths)
                    continue
            try:
                died, completed_any = await self._execute_batch(
                    worker, jobs, finish, host
                )
            except Exception as exc:  # supervisor bug: fail the jobs, stay live
                # Jobs already finished before the exception are protected
                # by finish()'s exactly-once guard.  Unserialisable specs
                # cannot land here (content_key() JSON-dumped every spec
                # before it became a job), so this is a genuine-bug backstop
                # where failing the batch beats requeueing it forever.
                for failed in jobs:
                    finish(failed, ExperimentFailure.from_exception(failed.key, exc))
                continue
            if completed_any:
                consecutive_deaths = 0
            if not died:
                continue
            # One worker death, however many unacknowledged jobs it held:
            # host/slot health accounting counts processes, not specs.
            self._count("worker_deaths")
            consecutive_deaths += 1
            worker = None
            # Jobs execute and are acknowledged in dispatch order, so only
            # the *first* unacknowledged job can have been executing when
            # the worker died — it alone consumes retry budget.  The rest
            # of the tail was merely co-batched (possibly never even sent)
            # and requeues with its budget intact, so a poisonous spec
            # cannot burn its batch-mates' max_retries from the head of
            # the queue.
            for position, lost in enumerate(died):
                if position == 0:
                    lost.attempts += 1
                if lost.attempts > self.max_retries:
                    finish(lost, ExperimentFailure(
                        spec_key=lost.key,
                        error_type="WorkerDied",
                        message=(
                            f"worker died {lost.attempts} time(s) while running "
                            f"{lost.spec.label()}"
                        ),
                        attempts=lost.attempts,
                    ))
                else:
                    self._count("requeues")
                    queue.put_nowait(lost)
            if self._record_host_death(host):
                return
            if consecutive_deaths > self.spawn_retries:
                if not self._service_mode:
                    return  # crash-looping; let the remaining slots (if any) work
                # Service mode: back off instead of retiring — queued work
                # must eventually run once workers stop dying, and retry
                # budgets above already bound how often one spec recycles.
                self._count("slot_backoffs")
                await asyncio.sleep(self._backoff_delay(consecutive_deaths))

    def _record_host_death(self, host: HostState) -> bool:
        """Feed one worker death into ``host``; True when the slot must retire."""
        if host.record_death():
            self._count("hosts_quarantined")
        return self._retired(host)

    def _retired(self, host: HostState) -> bool:
        """Whether ``host``'s slots stop: it is quarantined, outside service mode.

        A service never retires a host's slots (they back off instead), so
        a daemon whose only host crash-loops still heals.
        """
        return host.quarantined and not self._service_mode

    def _backoff_delay(self, consecutive_deaths: int) -> float:
        """Service-mode retry delay once a slot exceeds its spawn budget.

        Doubles from 0.5 s and saturates at 30 s: fast enough that a healed
        machine resumes promptly, slow enough that a broken interpreter does
        not fork-bomb the host while the daemon idles.
        """
        over = max(0, consecutive_deaths - self.spawn_retries - 1)
        return min(30.0, 0.5 * (2 ** min(over, 6)))

    def absolve_stall(self, started: float, ended: float) -> None:
        """Forgive a supervisor-side event-loop stall of ``ended - started``.

        A synchronous call on the event loop (a shard-locked store write on
        a slow filesystem, say) freezes frame reading: no pongs arrive while
        it runs.  When the stall exceeded half a heartbeat interval, restart
        every worker's staleness clock so healthy workers are not killed for
        the supervisor's own pause.  Used by the streaming ``finish`` here
        and by the service daemon's.
        """
        if ended - started > self.heartbeat_interval / 2:
            for other in self._workers:
                other.last_seen = max(other.last_seen, ended)

    # ------------------------------------------------------------------
    # Service mode: a persistent daemon (repro.serve) runs the pool against
    # an external queue forever instead of supervising one finite spec list.
    # ------------------------------------------------------------------
    async def start_service(
        self,
        queue,
        finish: Callable[[_Job, Outcome], None],
    ) -> None:
        """Start the worker slots against an external (long-lived) queue.

        ``queue`` must offer the ``asyncio.Queue`` surface the dispatch
        loops consume (``get``/``get_nowait``/``put_nowait``/``qsize``) —
        the service's fair-share queue does.  ``finish(job, outcome)`` is
        called exactly once per completed job, on the event loop.  Slots
        run until :meth:`stop_service`; in service mode they back off on
        crash-loops instead of giving up, and ``run_outcomes`` is refused
        while the service owns the pool.
        """
        if self._service_tasks:
            raise RuntimeError("service already started")
        self._service_mode = True
        self._service_tasks = await self._start_slots(queue, finish)

    async def stop_service(self) -> None:
        """Stop the slots, reap every worker and release the transport."""
        tasks, self._service_tasks = self._service_tasks, []
        try:
            await self._stop_slots(tasks)
        finally:
            self._service_mode = False

    def dispatch_snapshot(self) -> Dict[str, object]:
        """Live dispatch counters for the service's ``stats`` frame."""
        return {
            "live_workers": len(self._workers),
            "live_slots": self._live_slots,
            "counters": dict(self.stats),
        }

    # ------------------------------------------------------------------
    async def _start_slots(
        self,
        queue: "asyncio.Queue[_Job]",
        finish: Callable[[_Job, Outcome], None],
    ) -> List["asyncio.Task"]:
        """Reset the run state, open the listener and start every slot.

        One slot per unit of host budget.  A slot spawns its worker only
        once it holds a job, so slots beyond the number of jobs cost no
        process.
        """
        self.stats = {}
        self._workers = []
        self._pids = set()
        self._handles = []
        self._token_counter = 0
        self._sizer = (
            AdaptiveBatchSizer(self.batch_cap) if self.batch_adaptive else None
        )
        self._hosts = [
            HostState(spec, self._launcher_for(spec), self.host_quarantine_retries)
            for spec in self.host_specs
        ]
        self._pool = HostPool(self.listen_host, self.listen_port)
        await self._pool.start()
        slots = [
            asyncio.ensure_future(self._worker_slot(queue, finish, host))
            for host in self._hosts
            for _ in range(host.budget)
        ]
        self._live_slots = len(slots)
        return slots

    async def _stop_slots(self, slots: List["asyncio.Task"]) -> None:
        """Cancel ``slots``, reap every worker and launcher, close the listener."""
        for slot in slots:
            slot.cancel()
        for slot in slots:
            try:
                await slot
            except BaseException:
                pass
        await self._shutdown_workers()
        if self._pool is not None:
            await self._pool.close()
            self._pool = None
        for handle in self._handles:
            kill_handle(handle)
            try:
                await asyncio.wait_for(handle.wait(), timeout=5.0)
            except BaseException:  # pragma: no cover - unreapable child
                pass
        self._handles = []

    async def _shutdown_workers(self) -> None:
        """Terminate and reap every live worker; tolerate cancellation.

        The reader tasks are deliberately left running until each worker is
        reaped: a worker holding a deep batch may have many unread result
        frames in flight, and with nobody consuming them the stream's flow
        control stops reading the connection — the worker then blocks on a
        full socket and its process's ``wait()`` can never resolve.  The
        readers drain those frames (harmlessly: the futures are already
        settled) and see the EOF of the worker's exit.
        """
        workers = list(self._workers)
        for worker in workers:
            worker.alive = False
            if worker.monitor_task is not None:
                worker.monitor_task.cancel()
            worker.close_gracefully()
        for worker in workers:
            try:
                await asyncio.wait_for(worker.wait(), timeout=2.0)
            except BaseException:
                worker.kill()
                try:
                    # Bounded: a SIGKILLed worker's EOF arrives promptly,
                    # but an unreachable transport must not wedge shutdown.
                    await asyncio.wait_for(worker.wait(), timeout=5.0)
                except BaseException:
                    pass
            self._pids.discard(worker.pid)
            if worker.reader_task is not None:
                worker.reader_task.cancel()  # EOF normally ended it already
        self._workers = [w for w in self._workers if w not in workers]

    async def _supervise(self, specs: Sequence[ExperimentSpec]) -> List[Outcome]:
        """Run unique ``specs`` to completion; one outcome per spec, in order."""
        loop = asyncio.get_running_loop()
        queue: "asyncio.Queue[_Job]" = asyncio.Queue()
        jobs = [
            _Job(index, spec, spec.content_key())
            for index, spec in enumerate(specs)
        ]
        for job in jobs:
            queue.put_nowait(job)
        outcomes: List[Optional[Outcome]] = [None] * len(jobs)
        remaining = len(jobs)
        done = asyncio.Event()
        if not jobs:
            done.set()

        def finish(job: _Job, outcome: Outcome) -> None:
            nonlocal remaining
            if outcomes[job.index] is not None:
                return  # defensive: a job finishes exactly once
            outcomes[job.index] = outcome
            remaining -= 1
            self._count("finished_jobs")
            # Streaming is best-effort durability: no store problem may wedge
            # the supervisor (done must always be reachable), and the caller
            # still holds every outcome in memory either way.
            if self.store is not None:
                write_started = loop.time()
                try:
                    if isinstance(outcome, ExperimentFailure):
                        self.store.record_failure(job.spec, outcome)
                    else:
                        self.store.put_if_absent(job.spec, outcome)
                except Exception as exc:
                    print(
                        f"repro.exp.distributed: store write failed: {exc}",
                        file=sys.stderr,
                    )
                # The synchronous write (shard flock on a contended or slow
                # filesystem) freezes the event loop; forgive the stall so
                # healthy workers are not heartbeat-killed for it.
                self.absolve_stall(write_started, loop.time())
            if remaining == 0:
                done.set()

        interrupted = False
        shutting_down = False
        supervise_task = asyncio.current_task()

        def on_sigint() -> None:
            nonlocal interrupted
            interrupted = True
            if supervise_task is not None:
                supervise_task.cancel()

        sigint_installed = False
        try:
            loop.add_signal_handler(signal.SIGINT, on_sigint)
            sigint_installed = True
        except (ValueError, NotImplementedError, RuntimeError):
            pass  # non-main thread or platform without signal support

        slots: List["asyncio.Task"] = []

        def on_slot_done(_task: "asyncio.Task") -> None:
            if shutting_down or done.is_set():
                return  # cancellation, not exhaustion: leave jobs unwritten
            if not all(task.done() for task in slots):
                return
            # Every slot gave up (crash-looping workers): fail what is left.
            while not queue.empty():
                job = queue.get_nowait()
                if outcomes[job.index] is None:
                    finish(job, ExperimentFailure(
                        spec_key=job.key,
                        error_type="WorkerPoolExhausted",
                        message="every worker slot gave up before this spec ran",
                        attempts=job.attempts,
                    ))
            done.set()

        try:
            slots.extend(await self._start_slots(queue, finish))
            for slot in slots:
                slot.add_done_callback(on_slot_done)
            await done.wait()
        except asyncio.CancelledError:
            if not interrupted:
                raise
        finally:
            shutting_down = True
            if sigint_installed:
                loop.remove_signal_handler(signal.SIGINT)
            await self._stop_slots(slots)

        if interrupted:
            raise KeyboardInterrupt
        return [
            outcome if outcome is not None else ExperimentFailure(
                spec_key=job.key,
                error_type="Unexecuted",
                message="supervisor exited before this spec ran",
                attempts=job.attempts,
            )
            for job, outcome in zip(jobs, outcomes)
        ]
