"""Workload ``serve``: served jobs through ``repro serve`` and ``ServiceClient``.

A ``repro serve --workers 2`` daemon with a fresh ``--cache-dir`` is
driven closed-loop by this process over two lanes, one thread each.  A
lane holds at most one connection at a time and sends its next job only
when the previous one is done, so two connections at most.  Each lane
draws a seeded mix of two kinds of job:

* cold — a spec plus its detailed baseline at a trace seed nothing has
  stored yet, submitted under the lane's tenant (``lane0``/``lane1``);
* warm — the specs of one of the lane's earlier cold jobs, resubmitted
  under a tenant name never used before.  Under the same tenant the daemon
  would re-attach to the finished job record (the job id is a hash of
  tenant and specs) and never read the store.

This is the only workload that exercises the protocol, the fair-share
queue, async dispatch and the store's write-ahead path.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from benchlib import calibrate, expected, procs, stats
from benchlib.layers import layer_values
from benchlib.tracing import Tracer

BENCHMARK = "cholesky"
THREADS = 8
SCALE = 0.05
#: Cold jobs use pool trace seeds ``POOL_BASE + i``; digests are recorded.
POOL_SIZE = 512
POOL_BASE = 1000
SETUP_TRACE_SEED = 999
LANES = 2
COLD_SHARE = 0.5
#: Jobs of each kind a measured run needs, so ten or more lie beyond p90.
MIN_JOBS = 100
SETUP_SAMPLES = 3
#: Seconds between two calibrations of the host speed.
SEGMENT_S = 2.0
TIMEOUT_S = 60.0


def job_specs(trace_seed: int) -> list:
    from repro.core.config import TaskPointConfig
    from repro.exp import ExperimentSpec

    spec = ExperimentSpec(benchmark=BENCHMARK, num_threads=THREADS, scale=SCALE,
                          trace_seed=trace_seed, config=TaskPointConfig())
    return [spec, spec.baseline()]


def lane_pool(seed: int, lane: int) -> List[int]:
    """The pool indices lane ``lane`` submits as cold jobs, in order."""
    order = random.Random(f"serve-{seed}").sample(range(POOL_SIZE), POOL_SIZE)
    return order[lane::LANES]


def lane_rng(seed: int, lane: int) -> random.Random:
    return random.Random(f"serve-{seed}-lane{lane}")


def job_ok(reply: dict, done: dict, want: str, cold: bool) -> bool:
    """A job is correct when its digest equals the serial results; a warm
    job must also have been answered entirely from the store."""
    ok = done["status"] == "done" and done["digest"] == want
    return ok if cold else ok and reply["cached"] == reply["total"]


def record_expected(work) -> Dict[str, object]:
    """Digests of a serial ``run_experiments`` over every pool job."""
    from repro.exp import ResultStore, run_experiments
    from repro.serve.daemon import store_digest

    seeds = [SETUP_TRACE_SEED] + [POOL_BASE + i for i in range(POOL_SIZE)]
    jobs = {seed: job_specs(seed) for seed in seeds}
    store_dir = work / "serve-record"
    run_experiments([s for specs in jobs.values() for s in specs],
                    store=ResultStore(store_dir))

    def digest(seed):
        return store_digest(store_dir, [s.content_key() for s in jobs[seed]])

    return {"setup": digest(SETUP_TRACE_SEED),
            "pool": [digest(POOL_BASE + i) for i in range(POOL_SIZE)]}


class Daemon:
    """One ``repro serve`` process tree."""

    def __init__(self, cache_dir, trace_out=None) -> None:
        serve_args = ["serve", "--workers", "2", "--cache-dir", str(cache_dir)]
        if trace_out is None:
            argv = [sys.executable, "-m", "repro", *serve_args]
        else:
            argv = procs.python_child("trace", str(trace_out), *serve_args)
        self.trace_out = trace_out
        self.started = time.perf_counter()
        self.proc = procs.spawn(argv, stdout=subprocess.PIPE, text=True)
        watchdog = threading.Timer(TIMEOUT_S, procs.kill_tree, args=(self.proc,))
        watchdog.start()
        try:
            banner = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        if "listening on " not in banner:
            self.close()
            raise RuntimeError(f"daemon did not start: {banner!r}")
        address = banner.split("listening on ", 1)[1].split()[0]
        host, port = address.rsplit(":", 1)
        from repro.serve import ServiceClient

        self.host, self.port = host, int(port)
        self.client = ServiceClient(self.host, self.port, timeout=TIMEOUT_S)

    def close(self) -> Optional[dict]:
        """Stop the daemon, reap its tree; returns the traced snapshot if any."""
        try:
            if self.proc.poll() is None:
                self.client.stop()
                self.proc.wait(timeout=TIMEOUT_S)
        except Exception as exc:  # noqa: BLE001 - teardown must reap regardless
            print(f"serve: stopping daemon: {exc}", file=sys.stderr)
        finally:
            procs.kill_tree(self.proc)
            if self.proc.stdout is not None:
                self.proc.stdout.close()
        if self.trace_out is not None and self.trace_out.exists():
            with open(self.trace_out, encoding="utf-8") as handle:
                return json.load(handle)
        return None


class Phase:
    """Closed-loop traffic against one daemon, in calibrated segments.

    Every :data:`SEGMENT_S` seconds the lanes finish their current job and
    wait while this thread times the calibration kernel on an idle daemon;
    each job's latency is then scaled by the mean of the calibrations that
    open and close its segment (see :mod:`benchlib.calibrate`).
    """

    def __init__(self, daemon: Daemon, seed: int, seconds: float, min_jobs: int,
                 want: List[str]) -> None:
        self.daemon = daemon
        self.seed = seed
        self.seconds = seconds
        self.min_jobs = min_jobs
        self.want = want
        self.cond = threading.Condition()
        self.paused = False
        self.in_flight = 0
        self.segment = 0
        self.kernel_s: List[float] = []
        #: (kind, latency, segment) of every job.
        self.jobs_done: List[Tuple[str, float, int]] = []
        self.submit_rtt: List[float] = []
        self.wait_s: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.stop = threading.Event()
        self.start = 0.0
        self.busy = 0.0

    def _done_enough(self) -> bool:
        counts = {"cold": 0, "warm": 0}
        for kind, _latency, _segment in self.jobs_done:
            counts[kind] += 1
        return (time.perf_counter() - self.start >= self.seconds
                and min(counts.values()) >= self.min_jobs)

    def _lane(self, lane: int) -> None:
        from repro.serve import ServiceClient

        client = ServiceClient(self.daemon.host, self.daemon.port, timeout=TIMEOUT_S)
        pool = lane_pool(self.seed, lane)
        rng = lane_rng(self.seed, lane)
        stored: List[int] = []
        next_cold = 0
        warm_tenants = 0
        while True:
            if not stored and next_cold >= len(pool):
                raise RuntimeError("no cold job of this lane succeeded")
            cold = not stored or (next_cold < len(pool) and rng.random() < COLD_SHARE)
            if cold:
                index = pool[next_cold]
                next_cold += 1
                tenant = f"lane{lane}"
            else:
                index = rng.choice(stored)
                tenant = f"lane{lane}-warm{warm_tenants}"
                warm_tenants += 1
            specs = job_specs(POOL_BASE + index)
            with self.cond:
                while self.paused and not self.stop.is_set():
                    self.cond.wait()
                if self.stop.is_set():
                    return
                self.in_flight += 1
                segment = self.segment
            try:
                t0 = time.perf_counter()
                reply = client.submit(specs, tenant=tenant)
                t1 = time.perf_counter()
                done = client.wait(reply["job"])
                t2 = time.perf_counter()
            finally:
                with self.cond:
                    self.in_flight -= 1
                    self.cond.notify_all()
            ok = job_ok(reply, done, self.want[index], cold)
            kind = "cold" if cold else "warm"
            with self.cond:
                self.attempted += 1
                if not ok:
                    self.failed += 1
                    self.errors.append(f"{kind} job trace seed {POOL_BASE + index}")
                self.jobs_done.append((kind, t2 - t0, segment))
                self.submit_rtt.append(t1 - t0)
                self.wait_s.append(t2 - t1)
                if self._done_enough():
                    self.stop.set()
                    self.cond.notify_all()
            if cold and ok:
                stored.append(index)

    def _calibrate(self) -> None:
        """Drain the lanes, time the kernel, open the next segment."""
        with self.cond:
            self.paused = True
            while self.in_flight:
                self.cond.wait()
        self.kernel_s.append(calibrate.now_all_cpus())
        with self.cond:
            self.segment += 1
            self.paused = False
            self.cond.notify_all()

    def run(self) -> None:
        errors: List[BaseException] = []

        def guarded(lane: int) -> None:
            try:
                self._lane(lane)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
                self.stop.set()
                with self.cond:
                    self.cond.notify_all()

        self._calibrate()
        self.start = time.perf_counter()
        threads = [threading.Thread(target=guarded, args=(lane,)) for lane in range(LANES)]
        for thread in threads:
            thread.start()
        paused_s = 0.0
        while not self.stop.wait(SEGMENT_S):
            pause = time.perf_counter()
            self._calibrate()
            paused_s += time.perf_counter() - pause
        for thread in threads:
            thread.join()
        self._calibrate()
        self.busy = time.perf_counter() - self.start - paused_s
        if errors:
            raise errors[0]

    def latencies(self, kind: str, scaled: bool = False) -> List[float]:
        """Latencies of ``kind`` jobs; scaled to the nominal host speed if asked."""
        out = []
        for job_kind, latency, segment in self.jobs_done:
            if job_kind != kind:
                continue
            if scaled:
                kernel_s = (self.kernel_s[segment - 1] + self.kernel_s[segment]) / 2
                latency = calibrate.scaled(latency, kernel_s)
            out.append(latency)
        return out

    def jobs(self) -> int:
        return len(self.jobs_done)


def _setup_sample(work, index: int, want: str) -> Tuple[Daemon, float, bool]:
    """Start a daemon and serve one cold job; returns the live daemon and
    the scaled seconds from start to the served job."""
    before = calibrate.now_all_cpus()
    daemon = Daemon(work / f"setup-{index}")
    try:
        reply = daemon.client.submit(job_specs(SETUP_TRACE_SEED), tenant="setup")
        done = daemon.client.wait(reply["job"])
    except BaseException:
        daemon.close()
        raise
    elapsed = time.perf_counter() - daemon.started
    elapsed = calibrate.scaled(elapsed, (before + calibrate.now_all_cpus()) / 2)
    return daemon, elapsed, done["status"] == "done" and done["digest"] == want


def run(seed: int, seconds: float, traced: bool, report) -> Tuple[int, int, dict]:
    want = expected.load()["serve"]
    import_samples = procs.probe("import-cli", 3)[0] if traced else []
    work = procs.make_workdir()
    attempted = failed = 0
    setup_samples: List[float] = []
    daemon: Optional[Daemon] = None
    tracer = Tracer()
    stats_frame: Dict[str, object] = {}
    try:
        for index in range(SETUP_SAMPLES):
            if daemon is not None:
                daemon.close()
            daemon, elapsed, ok = _setup_sample(work, index, want["setup"])
            setup_samples.append(elapsed)
            attempted += 1
            failed += 0 if ok else 1
        # Trace mode: an untraced half and a traced half with their own daemons.
        phase_seconds = seconds / 2 if traced else seconds
        min_jobs = MIN_JOBS // 4 if traced else MIN_JOBS
        phase = Phase(daemon, seed, phase_seconds, min_jobs, want["pool"])
        phase.run()
        daemon.close()
        daemon = None
        phases = [phase]
        if traced:
            trace_out = work / "daemon-trace.json"
            daemon = Daemon(work / "traced", trace_out)
            traced_phase = Phase(daemon, seed, phase_seconds, min_jobs, want["pool"])
            traced_phase.run()
            stats_frame = daemon.client.stats()
            snapshot = daemon.close()
            daemon = None
            if snapshot is not None:
                tracer.merge(snapshot)
            phases.append(traced_phase)
        for p in phases:
            attempted += p.attempted
            failed += p.failed
            for line in p.errors[:10]:
                report(f"  WRONG OUTPUT: {line}")
    finally:
        if daemon is not None:
            daemon.close()
        procs.remove_workdir(work)

    cold = stats.summarize(phase.latencies("cold"))
    warm = stats.summarize(phase.latencies("warm"))
    values: Dict[str, float] = {
        "setup_s": stats.median(setup_samples),
        "peak_rss_mb": procs.children_peak_rss_mb(),
        "full_s": stats.typical(phase.latencies("cold", scaled=True)),
        "fast_s": stats.typical(phase.latencies("warm", scaled=True)),
    }
    jobs_per_s = phase.jobs() / phase.busy
    report(f"serve: {LANES} closed-loop lanes, cold jobs {BENCHMARK} x{THREADS} "
           f"scale {SCALE} (spec + baseline), cold share {COLD_SHARE}")
    for name, summary in (("cold_job", cold), ("warm_job", warm)):
        for p in ("p50", "p90"):
            report(f"  {name}_{p}_s {stats.fmt(summary[p]):>10s} s (n={summary['n']})")
    report(f"  jobs_per_s {jobs_per_s:11.4f} 1/s "
           f"({phase.jobs()} jobs in {phase.busy:.2f} s, calibration pauses excluded)")
    report(f"  cold/warm lower-quartile latency {stats.typical(phase.latencies('cold')):.4f} / "
           f"{stats.typical(phase.latencies('warm')):.4f} s unscaled, "
           f"{values['full_s']:.4f} / {values['fast_s']:.4f} s scaled")
    report(f"  setup_s {values['setup_s']:14.4f} s scaled (median, n={len(setup_samples)})")
    if traced:
        tp = phases[1]
        jobs = tp.jobs()
        values.update(layer_values(tracer, jobs))
        values["import.cli_s"] = stats.median(import_samples)
        values["serve.submit_rtt_s"] = stats.median(tp.submit_rtt)
        values["serve.wait_s"] = stats.median(tp.wait_s)
        queue = stats_frame.get("queue", {})
        counters = stats_frame.get("dispatch", {}).get("counters", {})
        store = stats_frame.get("store") or {}
        values["queue.pops"] = queue.get("pops", 0) / jobs
        values["queue.dropped_cancelled"] = queue.get("dropped_cancelled", 0) / jobs
        values["dispatch.spawns"] = counters.get("spawns", 0)
        values["dispatch.dispatch_frames"] = counters.get("dispatch_frames", 0) / jobs
        values["dispatch.max_batch"] = counters.get("max_batch", 0)
        values["store.hits"] = store.get("hits", 0) / jobs
        values["store.misses"] = store.get("misses", 0) / jobs
        values["store.hit_ratio"] = stats.ratio(
            store.get("hits", 0), store.get("hits", 0) + store.get("misses", 0))
        traced_s = (stats.typical(tp.latencies("cold", scaled=True))
                    + stats.typical(tp.latencies("warm", scaled=True)))
        values["tracing.overhead_pct"] = 100.0 * (
            traced_s / (values["full_s"] + values["fast_s"]) - 1.0)
    return attempted, failed, values
