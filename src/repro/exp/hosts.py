"""Worker transport of the experiment orchestrator: hosts, launchers, listener.

:class:`~repro.exp.distributed.AsyncWorkerBackend` acquires every worker
through the pieces here, whether it runs on this machine or another one:

* :class:`HostPool` — a supervisor-side TCP listener.  Workers are launched
  with ``--connect HOST PORT --token TOKEN`` and *connect back*; the pool
  matches each inbound connection to the launch that created it by the
  token echoed in the worker's ``hello`` frame.  Connections that send no
  (or a malformed, truncated or oversized) hello, or an unknown token, are
  dropped — a rogue peer cannot occupy a worker slot.
* **Launchers** — :class:`LocalLauncher` starts connect-back workers as
  local subprocesses; :class:`SSHLauncher` starts them as ``ssh host python
  -m repro.exp.worker --connect ...``.  Both return a local process handle
  the supervisor can kill (:func:`kill_handle`) and reap.
* :class:`HostSpec` / :func:`parse_hosts` — per-host worker budgets, parsed
  from the CLI syntax ``host1:4,host2:8``.  Host names beginning with
  ``local`` (``local``, ``localhost``, ``local0`` ...) launch via
  subprocess; anything else launches via SSH.  ``num_workers=N`` is one
  ``local`` host with a budget of N.
* :class:`HostState` — host-level health accounting shared by every slot of
  one machine: worker deaths count against the *host* as well as the slot,
  and a host whose workers crash-loop (``host_quarantine_retries``
  consecutive deaths with no completed job in between) is **quarantined**.
* **Compression** — spec and result frames in both directions are
  zlib-compressed when that pays (links may be slow networks); pings stay
  raw.  Nothing is negotiated.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import shlex
import signal
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.exp import protocol

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


def worker_environment(extra: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """Environment for a local worker process that can import this package.

    Workers must import the same ``repro`` as the supervisor even when it
    only lives on the supervisor's ``sys.path`` (src checkouts), so the
    package root is prepended to ``PYTHONPATH``.
    """
    env = dict(os.environ)
    import repro

    package_root = str(Path(repro.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH")
    if package_root not in (existing or "").split(os.pathsep):
        env["PYTHONPATH"] = (
            package_root + (os.pathsep + existing if existing else "")
        )
    if extra:
        env.update(extra)
    return env


def kill_handle(handle: "asyncio.subprocess.Process") -> None:
    """SIGKILL a launcher handle by pid and leave the reaping to asyncio.

    ``Process.kill()`` polls the child first, and that ``waitpid`` reaps a
    worker that has just exited behind asyncio's child watcher, which then
    logs "Unknown child process pid ..." and reports returncode 255.  A
    signal to an exited but unreaped child is harmless.
    """
    if handle.returncode is None:
        with contextlib.suppress(OSError):
            os.kill(handle.pid, getattr(signal, "SIGKILL", signal.SIGTERM))


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
