"""Multi-host dispatch transport for the experiment orchestrator.

This module turns :class:`~repro.exp.distributed.AsyncWorkerBackend` into a
cluster supervisor.  The moving parts:

* :class:`HostPool` — a supervisor-side TCP listener.  Workers are launched
  with ``--connect HOST PORT --token TOKEN`` and *connect back*; the pool
  matches each inbound connection to the launch that created it by the
  token echoed in the worker's ``hello`` frame.  Connections that send no
  (or a malformed, truncated or oversized) hello, or an unknown token, are
  dropped — a rogue peer cannot occupy a worker slot.  A matched worker whose
  hello announces another protocol version fails its launch at once
  (:class:`~repro.exp.distributed.SpawnError` naming both versions).
* **Launchers** — :class:`LocalLauncher` starts connect-back workers as
  local subprocesses (so the whole transport is testable without SSH);
  :class:`SSHLauncher` starts them as ``ssh host python -m
  repro.exp.worker --connect ...``.  Both return a local process handle the
  supervisor can kill and reap.
* :class:`HostSpec` / :func:`parse_hosts` — per-host worker budgets, parsed
  from the CLI syntax ``host1:4,host2:8``.  Host names beginning with
  ``local`` (``local``, ``localhost``, ``local0`` ...) launch via
  subprocess; anything else launches via SSH.
* :class:`HostState` — host-level health accounting shared by every slot of
  one machine: worker deaths count against the *host* as well as the slot,
  and a host whose workers crash-loop (``host_quarantine_retries``
  consecutive deaths with no completed job in between) is **quarantined** —
  its slots retire, requeueing any spec in hand, and the healthy hosts
  drain the queue.
* **Compression** — connect-back links may be slow networks, so spec and
  result frames in both directions are zlib-compressed when that pays;
  pings stay raw.  Nothing is negotiated: the transport decides.

Results are byte-identical to a serial run at the :class:`ResultStore`
level: workers funnel through the same :func:`repro.exp.runner.run_spec`,
payloads are normalised before persistence, and ``put_if_absent`` makes
concurrent writers converge (``tests/test_exp_multihost.py`` asserts all of
this under network-fault injection).
"""

from __future__ import annotations

import asyncio
import os
import secrets
import shlex
import signal
import socket
import sys
from dataclasses import dataclass, field
from functools import partial
from typing import (
    Callable,
    Coroutine,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.exp import protocol
from repro.exp.backends import Outcome
from repro.exp.distributed import (
    AsyncWorkerBackend,
    SpawnError,
    _Job,
    _Worker,
    worker_environment,
)

#: Seconds a launched worker gets to connect back before the launch is
#: declared failed (interpreter + import startup on a loaded host, plus the
#: worker's own connect retries).
DEFAULT_CONNECT_TIMEOUT = 60.0

#: Seconds a new inbound connection gets to produce its ``hello`` frame.
HELLO_TIMEOUT = 10.0


def _is_local_name(name: str) -> bool:
    return name == "127.0.0.1" or name.startswith("local")


@dataclass(frozen=True)
class HostSpec:
    """Static description of one execution host.

    Parameters
    ----------
    name:
        Host name.  Names starting with ``local`` (or ``127.0.0.1``) run
        workers as local subprocesses; anything else is an SSH destination
        (``user@host`` works).  Distinct local names (``local0``,
        ``local1``) simulate distinct hosts for tests and demos.
    workers:
        Worker budget: how many concurrent workers this host runs.
    via:
        Transport override: ``"auto"`` (from the name), ``"local"`` or
        ``"ssh"``.
    python:
        Interpreter to start workers with on this host (default: the
        backend's ``python`` locally, ``python3`` over SSH).
    env:
        Extra environment variables for this host's workers (fault
        injection in tests, per-host tuning in deployments).
    """

    name: str
    workers: int = 1
    via: str = "auto"
    python: Optional[str] = None
    env: Optional[Dict[str, str]] = field(default=None)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("host name must be non-empty")
        if self.workers < 1:
            raise ValueError(f"host {self.name!r} needs a worker budget >= 1")
        if self.via not in ("auto", "local", "ssh"):
            raise ValueError(f"unknown transport {self.via!r}")

    @property
    def is_local(self) -> bool:
        """Whether workers launch as local subprocesses (no SSH)."""
        if self.via == "auto":
            return _is_local_name(self.name)
        return self.via == "local"


def parse_hosts(raw: Union[str, Sequence[Union[str, HostSpec]]]) -> List[HostSpec]:
    """Parse the CLI host syntax ``host1:4,host2:8`` into :class:`HostSpec`\\ s.

    Accepts a comma-separated string, a sequence of ``name[:workers]``
    strings, or ready-made :class:`HostSpec` objects (passed through).  A
    bare name gets a budget of one worker.
    """
    parts: List[Union[str, HostSpec]]
    if isinstance(raw, str):
        parts = [part.strip() for part in raw.split(",")]
    else:
        parts = list(raw)
    specs: List[HostSpec] = []
    for part in parts:
        if isinstance(part, HostSpec):
            specs.append(part)
            continue
        if not part:
            continue
        name, sep, count = part.rpartition(":")
        if not sep:
            name, count = part, "1"
        try:
            workers = int(count)
        except ValueError as exc:
            raise ValueError(
                f"malformed host entry {part!r} (expected NAME[:WORKERS])"
            ) from exc
        specs.append(HostSpec(name=name, workers=workers))
    if not specs:
        raise ValueError(f"no hosts in {raw!r}")
    return specs


def parse_listen(raw: Union[None, int, str]) -> Tuple[str, int]:
    """Parse ``--listen`` (``PORT`` or ``HOST:PORT``) into a bind address.

    ``None`` means an ephemeral port on the loopback interface — the right
    default when every host is local.  Cluster deployments pass
    ``0.0.0.0:PORT`` (and a reachable ``connect_host``) so remote workers
    can dial in.
    """
    if raw is None:
        return ("127.0.0.1", 0)
    text = str(raw)
    if ":" in text:
        host, _, port = text.rpartition(":")
        return (host or "0.0.0.0", int(port))
    return ("127.0.0.1", int(text))


class LocalLauncher:
    """Starts connect-back workers as subprocesses of the supervisor."""

    def __init__(self, python: Optional[str] = None) -> None:
        self.python = python

    async def launch(
        self,
        *,
        connect_host: str,
        port: int,
        token: str,
        env: Optional[Dict[str, str]] = None,
    ) -> "asyncio.subprocess.Process":
        return await asyncio.create_subprocess_exec(
            self.python or sys.executable,
            "-m", "repro.exp.worker",
            "--connect", connect_host, str(port),
            "--token", token,
            stdin=asyncio.subprocess.DEVNULL,
            env=worker_environment(env),
        )


class SSHLauncher:
    """Starts connect-back workers over SSH.

    The returned handle is the local ``ssh`` client process: killing it
    tears down the channel (the remote worker sees its socket close and
    exits after the current job).  Extra environment variables travel as an
    ``env KEY=VALUE ...`` prefix on the remote command line, since SSH does
    not forward arbitrary client environment.
    """

    def __init__(
        self,
        host: str,
        python: str = "python3",
        ssh_command: Sequence[str] = ("ssh", "-o", "BatchMode=yes"),
    ) -> None:
        self.host = host
        self.python = python
        self.ssh_command = tuple(ssh_command)

    async def launch(
        self,
        *,
        connect_host: str,
        port: int,
        token: str,
        env: Optional[Dict[str, str]] = None,
    ) -> "asyncio.subprocess.Process":
        remote: List[str] = []
        if env:
            remote.append("env")
            remote.extend(
                f"{key}={shlex.quote(value)}" for key, value in sorted(env.items())
            )
        remote += [
            self.python, "-m", "repro.exp.worker",
            "--connect", connect_host, str(port),
            "--token", token,
        ]
        return await asyncio.create_subprocess_exec(
            *self.ssh_command, self.host, " ".join(remote),
            stdin=asyncio.subprocess.DEVNULL,
        )


class HostState:
    """Runtime health accounting of one host, shared by all its slots."""

    def __init__(self, spec: HostSpec, launcher, quarantine_after: int) -> None:
        self.spec = spec
        self.launcher = launcher
        self.quarantine_after = quarantine_after
        self.consecutive_deaths = 0
        self.completed = 0
        self.spawns = 0
        self.quarantined = False

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def budget(self) -> int:
        return self.spec.workers

    def record_death(self) -> bool:
        """Count one worker death; ``True`` when this newly quarantines."""
        self.consecutive_deaths += 1
        if not self.quarantined and self.consecutive_deaths > self.quarantine_after:
            self.quarantined = True
            return True
        return False

    def record_success(self) -> None:
        self.consecutive_deaths = 0
        self.completed += 1


class HostPool:
    """TCP listener matching connect-back workers to pending launches."""

    def __init__(self, listen_host: str = "127.0.0.1", listen_port: int = 0) -> None:
        self.listen_host = listen_host
        self.listen_port = listen_port
        self.port: Optional[int] = None
        self.rejected = 0
        self._server: Optional["asyncio.AbstractServer"] = None
        self._pending: Dict[str, "asyncio.Future"] = {}

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._accept, self.listen_host, self.listen_port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def expect(self, token: str) -> "asyncio.Future":
        """Future resolving to ``(reader, writer, hello)`` for ``token``."""
        future = asyncio.get_running_loop().create_future()
        self._pending[token] = future
        return future

    def forget(self, token: str) -> None:
        self._pending.pop(token, None)

    async def _accept(
        self, reader: "asyncio.StreamReader", writer: "asyncio.StreamWriter"
    ) -> None:
        """Validate one inbound connection's hello; reject everything else."""
        try:
            hello = await asyncio.wait_for(
                protocol.read_frame_async(reader), HELLO_TIMEOUT
            )
        except (
            asyncio.TimeoutError,
            asyncio.IncompleteReadError,
            protocol.ProtocolError,
            ConnectionResetError,
            OSError,
        ):
            hello = None
        # Validate *before* consuming the pending future: a malformed frame
        # carrying a real token must not eat the launch's future (the real
        # worker would then be rejected and the slot stall out the full
        # connect timeout).
        valid = isinstance(hello, dict) and hello.get("type") == "hello"
        token = hello.get("token") if valid else None
        future = self._pending.pop(token, None) if isinstance(token, str) else None
        if not valid or future is None or future.done():
            self.rejected += 1
            try:
                writer.close()
            except OSError:  # pragma: no cover - already torn down
                pass
            return
        future.set_result((reader, writer, hello))

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            try:
                await self._server.wait_closed()
            except (OSError, RuntimeError):  # pragma: no cover
                pass
            self._server = None
        for future in self._pending.values():
            if not future.done():
                future.cancel()
        self._pending.clear()


class MultiHostBackend(AsyncWorkerBackend):
    """Cluster supervisor dispatching experiments to connect-back workers.

    The dispatch loop, heartbeats, retry/requeue, streaming store and
    determinism guarantees are inherited from
    :class:`~repro.exp.distributed.AsyncWorkerBackend`; this subclass only
    changes *where workers come from*: each of the ``sum(budgets)`` slots is
    bound to a host, acquires workers by launching them there
    (:class:`LocalLauncher` / :class:`SSHLauncher`) and waits for the
    connect-back on the :class:`HostPool` listener.

    Parameters (beyond the base class)
    ----------------------------------
    hosts:
        ``"host1:4,host2:8"``, or a sequence of such strings /
        :class:`HostSpec` objects.  Budgets replace ``num_workers``.
    listen_host / listen_port:
        Bind address of the connect-back listener.  Port ``0`` (default)
        picks an ephemeral port; cluster deployments bind a fixed
        ``0.0.0.0:PORT``.
    connect_host:
        Address workers dial back to.  Defaults to ``127.0.0.1`` for local
        hosts and this machine's hostname for SSH hosts.
    host_quarantine_retries:
        Consecutive worker deaths (without a completed job in between) a
        *host* tolerates before it is quarantined; defaults to
        ``spawn_retries``.
    connect_timeout:
        Seconds a launched worker gets to connect back.
    ssh_command:
        SSH client argv prefix for SSH hosts.
    """

    def __init__(
        self,
        hosts: Union[str, Sequence[Union[str, HostSpec]]],
        *,
        listen_host: str = "127.0.0.1",
        listen_port: int = 0,
        connect_host: Optional[str] = None,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
        host_quarantine_retries: Optional[int] = None,
        ssh_command: Sequence[str] = ("ssh", "-o", "BatchMode=yes"),
        remote_python: str = "python3",
        **kwargs,
    ) -> None:
        self.host_specs = parse_hosts(hosts)
        super().__init__(
            num_workers=sum(spec.workers for spec in self.host_specs), **kwargs
        )
        self.listen_host = listen_host
        self.listen_port = listen_port
        self.connect_host = connect_host
        self.connect_timeout = connect_timeout
        self.host_quarantine_retries = (
            host_quarantine_retries
            if host_quarantine_retries is not None
            else self.spawn_retries
        )
        self.ssh_command = tuple(ssh_command)
        self.remote_python = remote_python
        self.host_stats: Dict[str, Dict[str, object]] = {}
        self._hosts: List[HostState] = []
        self._pool: Optional[HostPool] = None
        self._handles: List["asyncio.subprocess.Process"] = []
        self._token_counter = 0

    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    async def _startup(self) -> None:
        self._pool = HostPool(self.listen_host, self.listen_port)
        await self._pool.start()
        self._hosts = [
            HostState(spec, self._launcher_for(spec), self.host_quarantine_retries)
            for spec in self.host_specs
        ]
        self._handles = []
        self._token_counter = 0
        self.host_stats = {}

    async def _teardown(self) -> None:
        if self._pool is not None:
            await self._pool.close()
            self._pool = None
        for handle in self._handles:
            if handle.returncode is None:
                try:
                    handle.kill()
                except (OSError, ProcessLookupError):
                    pass
            try:
                await asyncio.wait_for(handle.wait(), timeout=5.0)
            except BaseException:  # pragma: no cover - unreapable child
                pass
        self._handles = []
        self.host_stats = {
            host.name: {
                "spawns": host.spawns,
                "completed": host.completed,
                "quarantined": host.quarantined,
            }
            for host in self._hosts
        }

    def host_snapshot(self) -> Dict[str, Dict[str, object]]:
        """Live per-host health accounting (the service's ``stats`` frame).

        ``host_stats`` is only written at :meth:`_teardown`, which a
        persistent service never reaches while serving; this reads the same
        numbers from the live :class:`HostState` objects instead.
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

    def _slot_coroutines(
        self,
        queue: "asyncio.Queue[_Job]",
        finish: Callable[[_Job, Outcome], None],
        num_jobs: int,
    ) -> List[Coroutine]:
        coroutines: List[Coroutine] = []
        for host in self._hosts:
            for _ in range(host.budget):
                coroutines.append(
                    self._worker_slot(
                        queue,
                        finish,
                        spawn=partial(self._spawn_host_worker, host),
                        host=host,
                    )
                )
        return coroutines

    async def _spawn_host_worker(self, host: HostState) -> _Worker:
        """Launch one worker on ``host`` and wait for its connect-back."""
        # The random suffix makes the token unguessable: on a listener bound
        # beyond loopback, a peer must not be able to claim a worker slot
        # (and feed forged results into the store) by predicting tokens.
        # The host#counter prefix is for humans reading logs.
        token = (
            f"{host.name}#{self._token_counter}#{secrets.token_hex(16)}"
        )
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

        def kill_process(handle=handle, writer=writer):
            # Close the channel first so the remote end sees EOF even when
            # only the local ssh client dies, then kill the local handle.
            try:
                writer.close()
            except (OSError, RuntimeError):
                pass
            handle.kill()

        worker = _Worker.from_connection(
            reader,
            writer,
            pid=int(hello.get("pid") or 0),
            kill_process=kill_process,
            wait_process=handle.wait,
            host=host.name,
        )
        self._register_worker(worker)
        host.spawns += 1
        return worker

    def _kill_leftovers(self) -> None:
        """Kill launcher handles by local pid; remote pids are not ours."""
        for handle in self._handles:
            if handle.returncode is None:
                try:
                    os.kill(handle.pid, getattr(signal, "SIGKILL", signal.SIGTERM))
                except (OSError, ProcessLookupError):
                    pass
        self._handles = []
        self._pids.clear()
        self._workers.clear()
