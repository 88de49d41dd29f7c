"""Length-prefixed JSON framing shared by the async supervisor and workers.

The distributed backend (:mod:`repro.exp.distributed`), its worker
transport (:mod:`repro.exp.hosts`) and the worker entrypoint
(:mod:`repro.exp.worker`) exchange *frames*: a 4-byte big-endian header
followed by a UTF-8 JSON object.  Workers connect back to the supervisor
(``--connect HOST PORT``) and the frames flow over that TCP socket, whether
the worker is a local subprocess or runs on another host.

Compression
-----------
The header's most-significant bit marks a zlib-compressed payload; the
remaining 31 bits are the on-wire payload length (well above
:data:`MAX_FRAME_BYTES`, so the bit is free).  Decoders always understand
both forms.  Encoders only compress when asked to (``compress=True``) *and*
the payload is large enough to plausibly win
(:data:`COMPRESS_MIN_BYTES`) *and* compression actually shrinks it —
heartbeat pings therefore always travel uncompressed.  The supervisor and
its workers ask on every frame they exchange; the service's client frames
never ask.  Nothing is negotiated.

Batching
--------
A ``run_batch`` frame carries N jobs, and the worker answers each job with
its own ``result`` or ``error`` frame, in batch order, as it completes.
Those per-job answers double as **acknowledgements** — a supervisor whose
worker dies mid-batch requeues exactly the jobs whose answer never arrived,
so an acknowledged spec is never executed twice.  Unbatched dispatch is
simply a one-job ``run_batch``.

Versioning
----------
Workers and supervisors ship from one source tree, so there is no
capability negotiation: :func:`check_hello` rejects a worker whose ``hello``
announces any other :data:`PROTOCOL_VERSION` when it connects back.

Frame types
-----------
Supervisor to worker:

* ``{"type": "run_batch", "jobs": [{"job": <int>, "spec": <...>}, ...]}`` —
  execute N >= 1 experiments (``spec`` is ``ExperimentSpec.to_dict()``) in
  order; each is answered by its own ``result``/``error`` frame.
* ``{"type": "ping", "seq": <int>}`` — heartbeat probe; answered immediately
  by the worker's reader thread even while a simulation is running.
* ``{"type": "shutdown"}`` — finish the current job (if any) and exit.

Worker to supervisor:

* ``{"type": "hello", "pid": <int>, "protocol": <int>[, "token": <str>]}`` —
  sent once on startup.  The ``token`` echoes ``--token`` and lets the
  supervisor match the inbound TCP connection to the launch that created
  it.
* ``{"type": "result", "job": <int>, "result": <ExperimentResult.to_dict()>}``
* ``{"type": "error", "job": <int>, "error": <ExperimentFailure.to_dict()>}``
  — the spec raised; the worker stays alive and takes the next job.
* ``{"type": "pong", "seq": <int>, "memo": {...}}`` — ``memo`` carries the
  worker's trace-memo counters.

Service frames
--------------
The same framing carries the client API of the persistent simulation
service (:mod:`repro.serve`).  These frames flow between a *client* (the
``repro submit``/``status``/``watch``/``cancel`` subcommands, or
:class:`repro.serve.ServiceClient`) and the *daemon* (``repro serve``) —
never to workers.

Client to daemon:

* ``{"type": "submit", "tenant": <str>, "specs": [<ExperimentSpec.to_dict()>,
  ...][, "priority": <int>]}`` — enqueue a job (a batch of specs) under a
  tenant's fair-share queue; answered by one ``submitted`` frame.
  Submitting a spec set whose job id is already active re-attaches to the
  running job instead of duplicating it.
* ``{"type": "status"[, "job": <str>]}`` — answered by ``job_status`` (or
  ``error_reply`` for an unknown id); without ``job``, by ``service_status``
  listing all known jobs.
* ``{"type": "watch", "job": <str>}`` — subscribe to a job's progress; the
  daemon streams ``job_update`` frames and finishes with ``job_done``.
* ``{"type": "cancel", "job": <str>}`` — cancel a job's queued specs
  (running specs finish and their results are kept); answered by
  ``cancel_ack``.
* ``{"type": "stats"}`` — answered by ``stats_report``.
* ``{"type": "stop"}`` — gracefully shut the daemon down (drains nothing:
  queued work stays journalled for the next start); answered by
  ``stopping``.

Daemon to client:

* ``{"type": "submitted", "job": <str>, "total": <int>, "cached": <int>,
  "attached": <bool>}`` — job accepted; ``cached`` specs were served from
  the store without executing, ``attached`` marks a re-attach to an
  already-active identical job.
* ``{"type": "job_status", ...}`` — one job's snapshot: per-state unit
  counts, terminal flag and overall status.
* ``{"type": "service_status", "jobs": [...]}`` — snapshots of all jobs.
* ``{"type": "job_update", "job": <str>, "seq": <int>, "key": <str>,
  "state": <str>, "cached": <bool>, ...}`` — one spec of a watched job
  reached a terminal state; ``seq`` is the daemon-wide completion sequence
  number (it totally orders completions across tenants).
* ``{"type": "job_done", "job": <str>, "status": <str>, "digest": <str>,
  "results": [...], "failures": [...]}`` — final watch frame; ``digest`` is
  the SHA-256 over the sorted normalised result payloads, byte-comparable
  with a serial run's store.
* ``{"type": "cancel_ack", "job": <str>, "cancelled": <int>}``
* ``{"type": "stats_report", "queue": {...}, "store": {...}, ...}`` —
  fair-share queue depths per tenant, store hit/miss/eviction counters,
  worker/host dispatch stats and daemon uptime.
* ``{"type": "error_reply", "error": <str>}`` — the request was malformed
  or referenced an unknown job; the connection stays usable.
* ``{"type": "stopping"}``
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import BinaryIO, Dict, Optional

#: Protocol version announced in the ``hello`` frame.  Bump on any
#: incompatible change to the frame vocabulary above.  Version 2 added the
#: compressed-frame header bit, version 3 the ``run_batch`` frame and
#: version 4 the client/daemon service vocabulary.  Version 5 dropped the
#: single-spec ``run`` frame and all capability negotiation: a peer of any
#: other version is rejected (:func:`check_hello`).
PROTOCOL_VERSION = 5

#: Upper bound on a single frame payload (compressed or decompressed); a
#: frame header exceeding it means the stream is desynchronised (or hostile)
#: and the connection is torn down.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Payloads below this size are never compressed: the zlib header plus the
#: CPU time would cost more than the handful of bytes saved.
COMPRESS_MIN_BYTES = 512

#: Header bit marking a zlib-compressed payload.
_COMPRESSED_BIT = 0x80000000

_HEADER = struct.Struct(">I")


class ProtocolError(RuntimeError):
    """The byte stream does not contain a well-formed frame."""


def check_hello(hello: Dict[str, object]) -> None:
    """Raise :class:`ProtocolError` unless ``hello`` speaks this version."""
    version = hello.get("protocol")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"worker speaks protocol {version}, "
            f"supervisor speaks {PROTOCOL_VERSION}"
        )


def encode_frame(message: Dict[str, object], *, compress: bool = False) -> bytes:
    """Serialise ``message`` to one length-prefixed frame.

    With ``compress=True`` the payload is zlib-compressed when it is at
    least :data:`COMPRESS_MIN_BYTES` long and compression actually shrinks
    it; the header's top bit records which form was sent, so decoders need
    no out-of-band signal.
    """
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(payload)} bytes exceeds the maximum")
    if compress and len(payload) >= COMPRESS_MIN_BYTES:
        squeezed = zlib.compress(payload, 6)
        if len(squeezed) < len(payload):
            return _HEADER.pack(len(squeezed) | _COMPRESSED_BIT) + squeezed
    return _HEADER.pack(len(payload)) + payload


def _unpack_header(header: bytes) -> "tuple[int, bool]":
    (word,) = _HEADER.unpack(header)
    compressed = bool(word & _COMPRESSED_BIT)
    length = word & ~_COMPRESSED_BIT
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame header announces {length} bytes")
    return length, compressed


def _decompress_payload(payload: bytes) -> bytes:
    """Inflate a compressed payload, capped at :data:`MAX_FRAME_BYTES`."""
    inflater = zlib.decompressobj()
    try:
        data = inflater.decompress(payload, MAX_FRAME_BYTES + 1)
    except zlib.error as exc:
        raise ProtocolError(f"undecompressable frame payload: {exc}") from exc
    if len(data) > MAX_FRAME_BYTES or not inflater.eof:
        raise ProtocolError("compressed frame inflates past the maximum")
    return data


def decode_payload(payload: bytes, *, compressed: bool = False) -> Dict[str, object]:
    """Parse a frame payload back into a message dictionary."""
    if compressed:
        payload = _decompress_payload(payload)
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame payload: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("frame payload is not a JSON object")
    return message


def _read_exactly(stream: BinaryIO, count: int) -> Optional[bytes]:
    """Read ``count`` bytes; ``None`` on clean EOF, error on a torn frame."""
    chunks = []
    missing = count
    while missing:
        chunk = stream.read(missing)
        if not chunk:
            if missing == count and not chunks:
                return None
            raise ProtocolError("stream closed mid-frame")
        chunks.append(chunk)
        missing -= len(chunk)
    return b"".join(chunks)


def read_frame(stream: BinaryIO) -> Optional[Dict[str, object]]:
    """Read one frame from a blocking binary stream; ``None`` at EOF."""
    header = _read_exactly(stream, _HEADER.size)
    if header is None:
        return None
    length, compressed = _unpack_header(header)
    payload = _read_exactly(stream, length)
    if payload is None:
        raise ProtocolError("stream closed between header and payload")
    return decode_payload(payload, compressed=compressed)


def write_frame(
    stream: BinaryIO, message: Dict[str, object], *, compress: bool = False
) -> None:
    """Write one frame to a blocking binary stream and flush it."""
    stream.write(encode_frame(message, compress=compress))
    stream.flush()


async def read_frame_async(stream) -> Dict[str, object]:
    """Read one frame from an ``asyncio.StreamReader``.

    Raises ``asyncio.IncompleteReadError`` at EOF and :class:`ProtocolError`
    on a desynchronised stream, so the supervisor and the blocking
    :func:`read_frame` share one definition of the wire format.
    """
    header = await stream.readexactly(_HEADER.size)
    length, compressed = _unpack_header(header)
    return decode_payload(await stream.readexactly(length), compressed=compressed)
