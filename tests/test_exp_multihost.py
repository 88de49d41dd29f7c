"""Network-fault injection and equivalence tests for the multi-host transport.

Covers :mod:`repro.exp.hosts` (the :class:`HostPool` listener and launchers)
driven by :class:`AsyncWorkerBackend` with explicit ``hosts=``, the
compressed frame protocol and the worker's connect-back path: byte-exact
store equivalence with the serial backend, a worker's TCP connection severed
mid-spec with requeue convergence, truncated and oversized frame handling,
compressed worker frames, quarantine of a crash-looping host, connect retry
with backoff, and a randomized-kill soak (``-m soak``, excluded from
tier-1).
"""

import asyncio
import io
import os
import pathlib
import random
import signal
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import time
import zlib

import pytest

from repro.core.config import lazy_config, periodic_config
from repro.exp import (
    AsyncWorkerBackend,
    ExperimentSpec,
    HostSpec,
    ResultStore,
    SerialBackend,
    make_named_backend,
    parse_hosts,
    parse_listen,
    run_experiments,
    run_spec,
)
from repro.exp import protocol
from repro.exp.hosts import HostPool
from repro.exp.worker import FAULT_ENV

from exp_helpers import deterministic_fields, store_result_bytes

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is an optional test dep
    HAVE_HYPOTHESIS = False

SCALE = 0.004


def small_spec(benchmark="swaptions", threads=2, config=lazy_config(), **kwargs):
    return ExperimentSpec(
        benchmark=benchmark, num_threads=threads, scale=SCALE, trace_seed=1,
        config=config, **kwargs,
    )


def small_grid():
    specs = []
    for benchmark in ("swaptions", "vector-operation"):
        for threads in (1, 2):
            spec = small_spec(benchmark=benchmark, threads=threads)
            specs.extend([spec, spec.baseline()])
    return specs


def local_backend(hosts="local0:1,local1:1", **kwargs):
    kwargs.setdefault("heartbeat_interval", 0.5)
    return AsyncWorkerBackend(hosts=hosts, **kwargs)


def subprocess_env(**overrides):
    """Environment for worker subprocesses that can import repro."""
    from repro.exp.hosts import worker_environment

    return worker_environment(overrides)


def read_raw_frame(stream):
    """(compressed_bit, message) of one frame, bypassing transparent decode."""
    header = stream.read(4)
    assert len(header) == 4
    (word,) = struct.unpack(">I", header)
    compressed = bool(word & 0x80000000)
    length = word & 0x7FFFFFFF
    payload = b""
    while len(payload) < length:
        chunk = stream.read(length - len(payload))
        assert chunk, "stream closed mid-frame"
        payload += chunk
    return compressed, protocol.decode_payload(payload, compressed=compressed)


class TestProtocolCompression:
    def test_large_frame_round_trips_compressed(self):
        message = {"type": "run_batch", "blob": "taskpoint " * 400}
        frame = protocol.encode_frame(message, compress=True)
        raw = protocol.encode_frame(message)
        assert len(frame) < len(raw)
        (word,) = struct.unpack(">I", frame[:4])
        assert word & 0x80000000
        assert protocol.read_frame(io.BytesIO(frame)) == message

    def test_small_frames_stay_raw(self):
        message = {"type": "ping", "seq": 7}
        assert protocol.encode_frame(message, compress=True) == \
            protocol.encode_frame(message)

    def test_unprofitable_compression_stays_raw(self, monkeypatch):
        # When zlib cannot shrink the payload the encoder must fall back to
        # the raw form rather than ship an inflated frame.
        monkeypatch.setattr(
            protocol.zlib, "compress", lambda data, level=6: data + b"\0" * 16
        )
        message = {"b": "taskpoint " * 200}
        frame = protocol.encode_frame(message, compress=True)
        (word,) = struct.unpack(">I", frame[:4])
        assert not word & 0x80000000
        assert protocol.read_frame(io.BytesIO(frame)) == message

    def test_truncated_frame_raises(self):
        frame = protocol.encode_frame({"type": "hello"})
        with pytest.raises(protocol.ProtocolError):
            protocol.read_frame(io.BytesIO(frame[:-3]))
        with pytest.raises(protocol.ProtocolError):
            protocol.read_frame(io.BytesIO(frame[:2]))

    def test_oversized_header_raises(self):
        header = struct.pack(">I", protocol.MAX_FRAME_BYTES + 1)
        with pytest.raises(protocol.ProtocolError):
            protocol.read_frame(io.BytesIO(header))
        # The compressed bit does not smuggle an oversized length through.
        header = struct.pack(
            ">I", (protocol.MAX_FRAME_BYTES + 1) | 0x80000000
        )
        with pytest.raises(protocol.ProtocolError):
            protocol.read_frame(io.BytesIO(header))

    def test_corrupt_compressed_payload_raises(self):
        payload = b"this is not zlib data"
        frame = struct.pack(">I", len(payload) | 0x80000000) + payload
        with pytest.raises(protocol.ProtocolError):
            protocol.read_frame(io.BytesIO(frame))

    def test_decompression_bomb_rejected(self):
        # A tiny compressed payload announcing itself honestly but inflating
        # past MAX_FRAME_BYTES must be refused, not materialised.
        bomb = zlib.compress(b"x" * (protocol.MAX_FRAME_BYTES + 1), 9)
        assert len(bomb) < protocol.MAX_FRAME_BYTES
        frame = struct.pack(">I", len(bomb) | 0x80000000) + bomb
        with pytest.raises(protocol.ProtocolError):
            protocol.read_frame(io.BytesIO(frame))


class TestHostParsing:
    def test_parse_hosts(self):
        specs = parse_hosts("alpha:4, beta:8,local0")
        assert [(s.name, s.workers) for s in specs] == [
            ("alpha", 4), ("beta", 8), ("local0", 1)
        ]
        assert not specs[0].is_local and specs[2].is_local

    def test_parse_hosts_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_hosts("")
        with pytest.raises(ValueError):
            parse_hosts("host:zero")
        with pytest.raises(ValueError):
            parse_hosts("host:0")
        with pytest.raises(ValueError):
            parse_hosts(":4")

    def test_parse_listen(self):
        assert parse_listen(None) == ("127.0.0.1", 0)
        assert parse_listen("9000") == ("127.0.0.1", 9000)
        assert parse_listen("0.0.0.0:9000") == ("0.0.0.0", 9000)

    def test_make_named_backend_multihost(self):
        backend = make_named_backend("async", hosts="local0:1,local1:2")
        assert isinstance(backend, AsyncWorkerBackend)
        assert backend.num_workers == 3
        # --hosts implies the async backend under the default backend name.
        assert isinstance(
            make_named_backend("auto", hosts="local0:1"), AsyncWorkerBackend
        )
        with pytest.raises(ValueError):
            make_named_backend("multihost")  # not a backend name
        # A host list with the in-process backend is a conflict, not
        # something to ignore silently (REPRO_BENCH_BACKEND=serial +
        # REPRO_BENCH_HOSTS=... must not quietly run in-process).
        with pytest.raises(ValueError):
            make_named_backend("serial", hosts="local0:1")
        with pytest.raises(ValueError):
            make_named_backend("serial", listen="9000")


class TestHostPool:
    """The listener only hands out connections with a valid hello + token."""

    def run_pool(self, exercise):
        async def main():
            pool = HostPool("127.0.0.1", 0)
            await pool.start()
            try:
                return await exercise(pool)
            finally:
                await pool.close()

        return asyncio.run(main())

    def test_valid_token_is_matched(self):
        async def exercise(pool):
            future = pool.expect("tok-1")
            reader, writer = await asyncio.open_connection("127.0.0.1", pool.port)
            writer.write(protocol.encode_frame(
                {"type": "hello", "pid": 4242, "token": "tok-1",
                 "protocol": protocol.PROTOCOL_VERSION}
            ))
            await writer.drain()
            _, server_writer, hello = await asyncio.wait_for(future, 10.0)
            assert hello["pid"] == 4242
            server_writer.close()
            writer.close()
            return pool.rejected

        assert self.run_pool(exercise) == 0

    def test_unknown_token_is_dropped(self):
        async def exercise(pool):
            reader, writer = await asyncio.open_connection("127.0.0.1", pool.port)
            writer.write(protocol.encode_frame(
                {"type": "hello", "pid": 1, "token": "nobody-expects-me"}
            ))
            await writer.drain()
            assert await asyncio.wait_for(reader.read(), 10.0) == b""  # closed
            writer.close()
            return pool.rejected

        assert self.run_pool(exercise) == 1

    def test_oversized_frame_header_is_dropped(self):
        async def exercise(pool):
            future = pool.expect("tok-1")
            reader, writer = await asyncio.open_connection("127.0.0.1", pool.port)
            writer.write(struct.pack(">I", protocol.MAX_FRAME_BYTES + 1))
            writer.write(b"garbage")
            await writer.drain()
            assert await asyncio.wait_for(reader.read(), 10.0) == b""  # closed
            writer.close()
            assert not future.done()
            return pool.rejected

        assert self.run_pool(exercise) == 1

    def test_wrong_frame_type_does_not_consume_the_future(self):
        # A malformed frame carrying a real token must not eat the launch's
        # future: the genuine worker connecting later still claims it.
        async def exercise(pool):
            future = pool.expect("tok-1")
            reader, writer = await asyncio.open_connection("127.0.0.1", pool.port)
            writer.write(protocol.encode_frame({"type": "ping", "token": "tok-1"}))
            await writer.drain()
            assert await asyncio.wait_for(reader.read(), 10.0) == b""  # closed
            writer.close()
            assert not future.done()
            reader2, writer2 = await asyncio.open_connection(
                "127.0.0.1", pool.port
            )
            writer2.write(protocol.encode_frame(
                {"type": "hello", "pid": 7, "token": "tok-1"}
            ))
            await writer2.drain()
            _, server_writer, hello = await asyncio.wait_for(future, 10.0)
            assert hello["pid"] == 7
            server_writer.close()
            writer2.close()
            return pool.rejected

        assert self.run_pool(exercise) == 1

    def test_truncated_hello_is_dropped(self):
        async def exercise(pool):
            future = pool.expect("tok-1")
            reader, writer = await asyncio.open_connection("127.0.0.1", pool.port)
            frame = protocol.encode_frame({"type": "hello", "token": "tok-1"})
            writer.write(frame[:-4])  # header promises more than is sent
            await writer.drain()
            writer.close()  # sever mid-frame
            deadline = asyncio.get_running_loop().time() + 10.0
            while pool.rejected == 0:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.01)
            assert not future.done()
            return pool.rejected

        assert self.run_pool(exercise) == 1


class TestWorkerNegotiation:
    """Worker frames are compressed when that pays; nothing is negotiated.

    There is no hello_ack any more: a worker compresses large results unasked.
    """

    @staticmethod
    def exchange(reader, writer, spec):
        """Hello, one-job run_batch, result; the result's compressed bit."""
        compressed, hello = read_raw_frame(reader)
        assert not compressed  # the hello is below the size floor
        assert hello["type"] == "hello"
        assert hello["protocol"] == protocol.PROTOCOL_VERSION
        protocol.write_frame(writer, {
            "type": "run_batch",
            "jobs": [{"job": 3, "spec": spec.to_dict()}],
        })
        compressed, message = read_raw_frame(reader)
        assert message["type"] == "result"
        assert message["job"] == 3
        remote = dict(message["result"])
        remote.pop("wall_seconds")
        assert remote == deterministic_fields(run_spec(spec))
        protocol.write_frame(writer, {"type": "shutdown"})
        return compressed

    @staticmethod
    def large_spec():
        spec = small_spec()
        assert len(protocol.encode_frame(
            {"type": "result", "job": 3, "result": run_spec(spec).to_dict()}
        )) > protocol.COMPRESS_MIN_BYTES  # large enough to compress
        return spec

    def test_ack_enables_compressed_results(self):
        # Over TCP (`--connect`) large results are compressed without an ack.
        spec = self.large_spec()
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as server:
            server.bind(("127.0.0.1", 0))
            server.listen(1)
            port = server.getsockname()[1]
            worker = subprocess.Popen(
                [sys.executable, "-m", "repro.exp.worker",
                 "--connect", "127.0.0.1", str(port)],
                env=subprocess_env(),
            )
            try:
                server.settimeout(30.0)
                connection, _ = server.accept()
                with connection, \
                        connection.makefile("rb") as reader, \
                        connection.makefile("wb") as writer:
                    assert self.exchange(reader, writer, spec) is True
                assert worker.wait(timeout=30) == 0
            finally:
                if worker.poll() is None:
                    worker.kill()
                    worker.wait()


class TestConnectRetry:
    """`--connect` survives a supervisor whose listener is not up yet."""

    def test_worker_retries_until_listener_appears(self):
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        # The port is now free (and refused): start the worker first.
        worker = subprocess.Popen(
            [sys.executable, "-m", "repro.exp.worker",
             "--connect", "127.0.0.1", str(port),
             "--connect-backoff", "0.1"],
            env=subprocess_env(),
        )
        try:
            time.sleep(1.0)  # several connect attempts fail meanwhile
            assert worker.poll() is None, "worker gave up while retrying"
            with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as server:
                server.bind(("127.0.0.1", port))
                server.listen(1)
                server.settimeout(30.0)
                connection, _ = server.accept()
                with connection, \
                        connection.makefile("rb") as reader, \
                        connection.makefile("wb") as writer:
                    hello = protocol.read_frame(reader)
                    assert hello["type"] == "hello"
                    protocol.write_frame(writer, {"type": "shutdown"})
            assert worker.wait(timeout=30) == 0
        finally:
            if worker.poll() is None:
                worker.kill()
                worker.wait()

    def test_zero_retries_fails_fast(self):
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        worker = subprocess.run(
            [sys.executable, "-m", "repro.exp.worker",
             "--connect", "127.0.0.1", str(port),
             "--connect-retries", "0"],
            env=subprocess_env(), capture_output=True, text=True, timeout=60,
        )
        assert worker.returncode == 1
        assert "cannot reach supervisor" in worker.stderr


class TestMultiHostEquivalence:
    def test_matches_serial_results(self):
        specs = small_grid()
        serial = run_experiments(specs, backend=SerialBackend())
        multihost = run_experiments(specs, backend=local_backend())
        assert len(serial) == len(multihost) == len(specs)
        for left, right in zip(serial, multihost):
            assert deterministic_fields(left) == deterministic_fields(right)

    def test_store_byte_identical_to_serial(self, tmp_path):
        # Acceptance criterion: the multi-host path writes the same bytes.
        specs = small_grid()
        run_experiments(specs, backend=SerialBackend(),
                        store=ResultStore(tmp_path / "serial"))
        run_experiments(specs, backend=local_backend(),
                        store=ResultStore(tmp_path / "multihost"))
        serial_bytes = store_result_bytes(tmp_path / "serial")
        multihost_bytes = store_result_bytes(tmp_path / "multihost")
        assert serial_bytes  # the comparison is not vacuous
        assert serial_bytes == multihost_bytes

    def test_work_is_spread_across_hosts(self):
        backend = local_backend("local0:1,local1:1")
        backend.run(small_grid())
        completed = {name: stats["completed"]
                     for name, stats in backend.host_snapshot().items()}
        assert sum(completed.values()) == len({
            spec.content_key() for spec in small_grid()
        })
        assert all(stats["spawns"] >= 1
                   for stats in backend.host_snapshot().values())

    def test_no_workers_or_handles_outlive_the_run(self):
        backend = local_backend()
        backend.run([small_spec()])
        assert backend.active_pids() == []
        assert all(handle.returncode is not None for handle in backend._handles) \
            or backend._handles == []


class TestCliMultiHost:
    # Lives here (not tests/test_cli.py) so the subprocess-spawning CLI path
    # runs inside CI's hard-timeout multi-host step, not the tier-1 step.
    def test_compare_with_hosts_flag(self, capsys):
        from repro.cli import main

        code = main([
            "compare", "swaptions", "--scale", "0.004", "--threads", "2",
            "--policy", "lazy", "--hosts", "local0:1,local1:1",
        ])
        assert code == 0
        assert "execution-time error" in capsys.readouterr().out

    def test_hosts_flag_conflicts_with_other_backends(self, capsys):
        from repro.cli import main

        code = main([
            "compare", "swaptions", "--scale", "0.004", "--threads", "2",
            "--backend", "serial", "--hosts", "local0:1",
        ])
        assert code == 2
        assert "--hosts requires" in capsys.readouterr().err

    def test_listen_without_hosts_is_rejected(self, capsys):
        from repro.cli import main

        code = main([
            "compare", "swaptions", "--scale", "0.004", "--threads", "2",
            "--listen", "9000",
        ])
        assert code == 2
        assert "--listen" in capsys.readouterr().err


class TestNetworkFaults:
    def test_severed_connection_mid_spec_requeues_and_converges(self, tmp_path):
        # The fault hook SIGKILLs exactly one worker upon receiving the
        # target spec: its TCP connection to the supervisor is severed with
        # the spec in flight.  The supervisor must requeue the spec onto a
        # fresh worker and still produce a store byte-identical to serial.
        specs = small_grid()
        target_key = specs[0].content_key()
        flag = tmp_path / "died-once"
        backend = local_backend(
            worker_env={FAULT_ENV: f"{target_key[:16]}:{flag}"},
        )
        run_experiments(specs, backend=backend,
                        store=ResultStore(tmp_path / "multihost"))
        assert flag.exists(), "the fault hook never fired"
        assert backend.stats.get("worker_deaths", 0) >= 1
        assert backend.stats.get("requeues", 0) >= 1
        run_experiments(specs, backend=SerialBackend(),
                        store=ResultStore(tmp_path / "serial"))
        assert (store_result_bytes(tmp_path / "multihost")
                == store_result_bytes(tmp_path / "serial"))

    def test_quarantined_host_does_not_stall_the_batch(self, tmp_path):
        # Every worker of the bad host dies on every spec (the die-always
        # fault hook): the host crash-loops, is quarantined, and the healthy
        # host drains the whole queue with results identical to serial.
        flag = tmp_path / "crash-loop"
        bad = HostSpec("local-bad", workers=1,
                       env={FAULT_ENV: f":{flag}:always"})
        good = HostSpec("local-good", workers=1)
        specs = small_grid()
        backend = AsyncWorkerBackend(
            hosts=[bad, good],
            heartbeat_interval=0.5,
            max_retries=100,
            host_quarantine_retries=1,
            spawn_retries=100,
        )
        results = backend.run(specs)
        assert flag.exists(), "the crash-loop hook never fired"
        reference = SerialBackend().run(specs)
        for left, right in zip(reference, results):
            assert deterministic_fields(left) == deterministic_fields(right)
        assert backend.stats.get("hosts_quarantined", 0) == 1
        assert backend.host_snapshot()["local-bad"]["quarantined"] is True
        assert backend.host_snapshot()["local-bad"]["completed"] == 0
        assert backend.host_snapshot()["local-good"]["quarantined"] is False
        assert backend.host_snapshot()["local-good"]["completed"] == len({
            spec.content_key() for spec in specs
        })

    def test_all_hosts_quarantined_fails_remaining_specs(self, tmp_path):
        flag_a = tmp_path / "crash-a"
        flag_b = tmp_path / "crash-b"
        hosts = [
            HostSpec("local-a", workers=1,
                     env={FAULT_ENV: f":{flag_a}:always"}),
            HostSpec("local-b", workers=1,
                     env={FAULT_ENV: f":{flag_b}:always"}),
        ]
        backend = AsyncWorkerBackend(
            hosts=hosts,
            heartbeat_interval=0.5,
            max_retries=1000,
            host_quarantine_retries=0,
            spawn_retries=1000,
        )
        outcomes = backend.run_outcomes([small_spec(), small_spec().baseline()])
        assert backend.stats.get("hosts_quarantined", 0) == 2
        from repro.exp import ExperimentFailure

        assert all(isinstance(outcome, ExperimentFailure)
                   for outcome in outcomes)


if HAVE_HYPOTHESIS:

    GRID_POINTS = st.tuples(
        st.sampled_from(("swaptions", "vector-operation", "histogram")),
        st.integers(min_value=1, max_value=2),
        st.sampled_from((0, 1, 2)),  # index into CONFIG_CHOICES
    )
    CONFIG_CHOICES = (None, lazy_config(), periodic_config())

    class TestPropertyEquivalence:
        @settings(
            max_examples=3, deadline=None, derandomize=True,
            suppress_health_check=[HealthCheck.too_slow],
        )
        @given(grid=st.lists(GRID_POINTS, min_size=1, max_size=2, unique=True))
        def test_random_grids_equivalent_across_all_four_backends(self, grid):
            specs = []
            for benchmark, threads, config_index in grid:
                spec = ExperimentSpec(
                    benchmark, num_threads=threads, scale=SCALE,
                    config=CONFIG_CHOICES[config_index],
                )
                specs.append(spec)
                specs.append(spec.baseline())
            backends = (
                SerialBackend(),
                make_named_backend("auto", workers=2),
                AsyncWorkerBackend(num_workers=2, heartbeat_interval=0.5),
                local_backend(),
            )
            snapshots = []
            for backend in backends:
                with tempfile.TemporaryDirectory() as directory:
                    run_experiments(specs, backend=backend,
                                    store=ResultStore(directory))
                    snapshots.append(store_result_bytes(directory))
            assert snapshots[0]  # non-vacuous
            assert all(snapshot == snapshots[0] for snapshot in snapshots[1:])


@pytest.mark.soak
class TestSoak:
    """200-spec grid under randomized worker kills (run with ``-m soak``)."""

    @staticmethod
    def _soak_specs():
        benchmarks = ("swaptions", "vector-operation", "histogram",
                      "blackscholes", "reduction")
        specs = []
        for benchmark in benchmarks:
            for threads in (1, 2):
                for seed in range(1, 11):
                    spec = ExperimentSpec(
                        benchmark, num_threads=threads, scale=0.002,
                        trace_seed=seed, config=lazy_config(),
                    )
                    specs.extend([spec, spec.baseline()])
        assert len({spec.content_key() for spec in specs}) == 200
        return specs

    def _run_soak(self, tmp_path, **backend_kwargs):
        rng = random.Random(1234)
        specs = self._soak_specs()
        store_dir = tmp_path / "multihost"
        backend = AsyncWorkerBackend(
            hosts="local0:2,local1:2",
            heartbeat_interval=0.5,
            max_retries=10_000,
            spawn_retries=10_000,
            host_quarantine_retries=10_000,
            store=ResultStore(store_dir),
            **backend_kwargs,
        )
        stop = threading.Event()
        kills = []

        def killer():
            while not stop.is_set():
                pids = backend.active_pids()
                if pids:
                    pid = rng.choice(pids)
                    try:
                        os.kill(pid, signal.SIGKILL)
                        kills.append(pid)
                    except (OSError, ProcessLookupError):
                        pass
                stop.wait(rng.uniform(0.2, 0.5))

        thread = threading.Thread(target=killer, daemon=True)
        thread.start()
        try:
            results = run_experiments(specs, backend=backend,
                                      store=ResultStore(store_dir))
        finally:
            stop.set()
            thread.join(timeout=10.0)
        assert all(result is not None for result in results)
        assert kills, "the killer thread never fired"
        assert backend.stats.get("worker_deaths", 0) >= 1

        # Zero torn entries: no temp files, every entry parses, and the
        # store is byte-identical to a serial run (*.error.json excluded
        # from byte comparison, per store convention).
        assert list(pathlib.Path(store_dir).rglob(".tmp-*")) == []
        run_experiments(specs, backend=SerialBackend(),
                        store=ResultStore(tmp_path / "serial"))
        multihost_bytes = store_result_bytes(store_dir)
        assert len(multihost_bytes) == 200
        assert multihost_bytes == store_result_bytes(tmp_path / "serial")
        return specs, backend

    def test_randomized_kills_converge_with_clean_store(self, tmp_path):
        self._run_soak(tmp_path)

    def test_randomized_kills_batched_no_duplicate_executions(self, tmp_path):
        # Same soak in batched mode, plus the per-spec execution-count
        # probe: with batches in flight, an acknowledged spec must never be
        # executed again.  Re-executions are legitimate only for specs that
        # were in a dead worker's hands — each of those is a recorded
        # requeue — so any execution beyond unique+requeues is a duplicate.
        from repro.exp.worker import EXEC_LOG_ENV

        log = tmp_path / "execlog"
        specs, backend = self._run_soak(
            tmp_path, batch=8, worker_env={EXEC_LOG_ENV: str(log)},
        )
        assert backend.stats.get("batch_frames", 0) >= 1
        counts = {}
        for line in log.read_text(encoding="utf-8").splitlines():
            if line:
                counts[line] = counts.get(line, 0) + 1
        unique_keys = {spec.content_key() for spec in specs}
        assert set(counts) == unique_keys  # every spec ran at least once
        extra = sum(count - 1 for count in counts.values())
        assert extra <= backend.stats.get("requeues", 0), (
            f"{extra} re-executions exceed the "
            f"{backend.stats.get('requeues', 0)} recorded requeues: "
            "an acknowledged spec was executed twice"
        )
