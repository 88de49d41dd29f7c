"""Experiment worker process (``python -m repro.exp.worker``).

A worker connects back to its supervisor's listener (``--connect HOST
PORT``, required) and speaks the length-prefixed JSON protocol of
:mod:`repro.exp.protocol` over that TCP socket, so the same entrypoint runs
as a local subprocess or on a remote host behind ``ssh host python -m
repro.exp.worker``.  The initial TCP connect is retried with exponential
backoff (``--connect-retries`` / ``--connect-backoff``), so workers launched
before the supervisor's listener is up still join instead of dying on the
first refused connection; ``--token`` is echoed in the ``hello`` frame so
the supervisor can match the inbound connection to the launch that created
it.  The large frames a worker sends are compressed when that pays.

Two threads cooperate:

* the **reader thread** parses incoming frames: ``ping`` is answered with
  ``pong`` immediately — even while a simulation is running, so supervisor
  heartbeats measure process liveness rather than job length; each pong
  carries the worker's trace-memo counters as a ``memo`` field — the jobs
  of a ``run_batch`` frame are unpacked in order and handed to the main
  thread, and ``shutdown``/EOF ends the process;
* the **main thread** executes jobs one at a time through
  :func:`repro.exp.runner.run_spec` (sharing its per-process trace memo, so a
  worker that receives many specs of one benchmark generates the trace once)
  and answers each with exactly one ``result`` or ``error`` frame.  A spec
  that raises produces an ``error`` frame and the worker stays alive.

Stray ``print`` calls anywhere in the simulation stack cannot corrupt the
frame stream: frames travel over the socket, never stdout, and all frame
writes go through one lock-guarded writer.

Fault injection (tests only): the ``REPRO_EXP_WORKER_FAULT`` environment
variable, formatted ``<key-prefix>:<flag-file>[:<mode>]``, makes the worker
SIGKILL itself when it receives a spec whose content key starts with the
prefix.  In the default (die-once) mode the flag file is created first with
``O_EXCL``, so exactly one worker dies once per flag file — the supervisor's
requeue path.  With mode ``always`` every worker holding a matching spec
dies every time (the flag file is still touched, without exclusivity) — the
crash-looping-host path that exercises quarantine.

Two more test/benchmark-only hooks share that spirit:

* ``REPRO_EXP_WORKER_EXECLOG=<path>`` appends one ``<content-key>`` line to
  the file whenever a spec *starts executing* (``O_APPEND``, so concurrent
  workers interleave whole lines).  The batching suite counts these lines to
  prove that acknowledged specs are never executed twice.
* ``REPRO_EXP_WORKER_DELAY=<seconds>`` sleeps before every frame write and
  after every frame read — a simulated per-frame link latency, which is what
  makes round-trip amortisation measurable on a loopback connection.
"""

from __future__ import annotations

import argparse
import os
import queue
import signal
import socket
import sys
import threading
import time
from typing import BinaryIO, Dict, Optional, Sequence

from repro.exp import protocol
from repro.exp.runner import run_spec, trace_memo_stats
from repro.exp.spec import ExperimentFailure, ExperimentSpec

#: Test-only fault hook; see the module docstring.
FAULT_ENV = "REPRO_EXP_WORKER_FAULT"

#: Test-only execution-count probe; see the module docstring.
EXEC_LOG_ENV = "REPRO_EXP_WORKER_EXECLOG"

#: Test/benchmark-only simulated per-frame link latency (seconds).
DELAY_ENV = "REPRO_EXP_WORKER_DELAY"

#: Default bounded-retry budget for ``--connect`` (first attempt excluded).
DEFAULT_CONNECT_RETRIES = 12

#: Initial backoff between connect attempts; doubles per attempt, capped.
DEFAULT_CONNECT_BACKOFF = 0.2

_CONNECT_BACKOFF_CAP = 2.0


class _FrameWriter:
    """Serialises frame writes from the main and reader threads."""

    def __init__(self, stream: BinaryIO, delay: float) -> None:
        self._stream = stream
        self._lock = threading.Lock()
        self._delay = delay

    def send(self, message: Dict[str, object]) -> None:
        with self._lock:
            if self._delay:
                time.sleep(self._delay)
            protocol.write_frame(self._stream, message, compress=True)


def _frame_delay() -> float:
    """Simulated per-frame link latency (0 outside tests/benchmarks)."""
    try:
        return max(0.0, float(os.environ.get(DELAY_ENV, "") or 0.0))
    except ValueError:
        return 0.0


def _log_execution(spec_key: str) -> None:
    """Append one started-execution line to the probe file, if configured."""
    path = os.environ.get(EXEC_LOG_ENV)
    if not path:
        return
    fd = os.open(path, os.O_CREAT | os.O_APPEND | os.O_WRONLY, 0o644)
    try:
        os.write(fd, (spec_key + "\n").encode("utf-8"))
    finally:
        os.close(fd)


def _maybe_inject_fault(spec_key: str) -> None:
    raw = os.environ.get(FAULT_ENV)
    if not raw:
        return
    prefix, _, rest = raw.partition(":")
    flag_file, _, mode = rest.partition(":")
    if not flag_file or not spec_key.startswith(prefix):
        return
    if mode == "always":
        with open(flag_file, "a", encoding="utf-8"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    try:
        fd = os.open(flag_file, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return  # some worker already died on this spec; run it normally
    os.close(fd)
    os.kill(os.getpid(), signal.SIGKILL)


def serve(
    reader_stream: BinaryIO,
    writer_stream: BinaryIO,
    token: Optional[str] = None,
) -> None:
    """Serve the worker protocol until ``shutdown`` or EOF."""
    delay = _frame_delay()
    out = _FrameWriter(writer_stream, delay)
    hello: Dict[str, object] = {
        "type": "hello",
        "pid": os.getpid(),
        "protocol": protocol.PROTOCOL_VERSION,
    }
    if token is not None:
        hello["token"] = token
    out.send(hello)
    jobs: "queue.Queue[Optional[Dict[str, object]]]" = queue.Queue()
    # Set on shutdown/EOF: the main thread stops *before* the next job, so
    # a worker holding a deep run_batch queue exits after the job in hand
    # instead of grinding through work whose answers nobody wants anymore.
    closing = threading.Event()

    def read_loop() -> None:
        while True:
            try:
                message = protocol.read_frame(reader_stream)
            except (protocol.ProtocolError, OSError):
                message = None
            if message is None:  # EOF or torn stream: drain and exit
                closing.set()
                jobs.put(None)
                return
            if delay:
                time.sleep(delay)
            kind = message.get("type")
            if kind == "ping":
                try:
                    # Heartbeat answers double as a status channel: the
                    # worker's trace-memo counters ride along, so a
                    # supervisor can observe cache behaviour (hit rate,
                    # evictions) without a dedicated stats frame.
                    out.send({
                        "type": "pong",
                        "seq": message.get("seq"),
                        "memo": trace_memo_stats(),
                    })
                except OSError:
                    jobs.put(None)
                    return
            elif kind == "run_batch":
                # One queue entry per job, in batch order; the main thread
                # answers each with its own result/error frame, which is
                # what lets the supervisor requeue only unacknowledged
                # specs when this process dies mid-batch.
                for entry in message.get("jobs") or []:
                    if isinstance(entry, dict):
                        jobs.put(entry)
            elif kind == "shutdown":
                closing.set()
                jobs.put(None)
                return
            # unknown frame types are ignored

    threading.Thread(target=read_loop, daemon=True).start()
    while True:
        job = jobs.get()
        if job is None or closing.is_set():
            return
        job_id = job.get("job")
        spec_key = ""
        try:
            spec = ExperimentSpec.from_dict(job["spec"])
            spec_key = spec.content_key()
            _log_execution(spec_key)
            _maybe_inject_fault(spec_key)
            result = run_spec(spec)
            out.send({"type": "result", "job": job_id, "result": result.to_dict()})
        except Exception as error:
            failure = ExperimentFailure.from_exception(spec_key, error)
            out.send({"type": "error", "job": job_id, "error": failure.to_dict()})


def connect_with_retry(
    host: str,
    port: int,
    retries: int = DEFAULT_CONNECT_RETRIES,
    backoff: float = DEFAULT_CONNECT_BACKOFF,
) -> socket.socket:
    """Connect to the supervisor, retrying refused/unreachable attempts.

    A connect-back worker routinely races its supervisor's listener (the
    launcher fires before ``asyncio.start_server`` finished binding, or an
    SSH session comes up faster than the supervisor), so a failed TCP
    connect is retried ``retries`` times with exponential backoff
    (``backoff``, ``2*backoff``, ... capped at 2 s) before giving up.
    """
    attempt = 0
    while True:
        try:
            connection = socket.create_connection((host, port), timeout=10.0)
            # The 10s deadline is for the *connect* only.  It must not leak
            # into the connection's lifetime: reads block between frames for
            # arbitrarily long (pings only arrive every heartbeat interval,
            # and a supervisor stalled on a slow store write sends nothing),
            # and a socket.timeout is an OSError the reader would mistake
            # for EOF, silently killing every idle worker.
            connection.settimeout(None)
            return connection
        except OSError:
            if attempt >= retries:
                raise
            time.sleep(min(backoff * (2.0 ** attempt), _CONNECT_BACKOFF_CAP))
            attempt += 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Worker entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro.exp.worker",
        description="experiment worker speaking the repro.exp frame protocol",
    )
    parser.add_argument(
        "--connect", nargs=2, metavar=("HOST", "PORT"), required=True,
        help="supervisor listener to connect back to",
    )
    parser.add_argument(
        "--connect-retries", type=int, default=DEFAULT_CONNECT_RETRIES,
        help="failed TCP connects tolerated before giving up "
             f"(default {DEFAULT_CONNECT_RETRIES})",
    )
    parser.add_argument(
        "--connect-backoff", type=float, default=DEFAULT_CONNECT_BACKOFF,
        help="initial sleep between connect attempts, doubled per attempt "
             f"(default {DEFAULT_CONNECT_BACKOFF}s, capped at "
             f"{_CONNECT_BACKOFF_CAP}s)",
    )
    parser.add_argument(
        "--token", default=None,
        help="opaque launch token echoed in the hello frame (the "
             "supervisor uses it to match connections to launches)",
    )
    args = parser.parse_args(argv)

    host, port = args.connect
    try:
        connection = connect_with_retry(
            host, int(port),
            retries=max(0, args.connect_retries),
            backoff=max(0.0, args.connect_backoff),
        )
    except OSError as exc:
        print(f"repro.exp.worker: cannot reach supervisor "
              f"{host}:{port}: {exc}", file=sys.stderr)
        return 1
    with connection:
        with connection.makefile("rb") as reader_stream, \
                connection.makefile("wb") as writer_stream:
            serve(reader_stream, writer_stream, token=args.token)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised in subprocesses
    sys.exit(main())
