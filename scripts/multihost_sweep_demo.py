#!/usr/bin/env python
"""Cluster-scale sweep demo for the multi-host dispatch transport.

Runs the full paper grid — all 19 benchmarks of Table I x both Table II
architectures, sampled + detailed baseline — twice: once on the in-process
``SerialBackend`` and once through
:class:`repro.exp.distributed.AsyncWorkerBackend` over ``--hosts`` (by
default two simulated hosts of two workers each), every worker a
connect-back TCP subprocess speaking the zlib-compressed frame protocol.
Both runs persist into on-disk :class:`ResultStore` caches, and the demo asserts
the stores are **byte-identical** (failure diagnostics excluded, per the
store convention) — the multi-host transport's headline guarantee.

Usage::

    PYTHONPATH=src python scripts/multihost_sweep_demo.py
    PYTHONPATH=src python scripts/multihost_sweep_demo.py \\
        --hosts local0:4,local1:4 --scale 0.05       # bigger grid
    PYTHONPATH=src python scripts/multihost_sweep_demo.py \\
        --hosts big0:16,big1:16 --listen 0.0.0.0:9000  # real SSH hosts

Paper scale is ``--scale 1.0``; the default (0.01) keeps the demo in the
minutes range on a laptop while still covering every benchmark and both
architectures.  Exit code 0 means the sweep completed and the stores
matched.
"""

from __future__ import annotations

import argparse
import hashlib
import pathlib
import sys
import tempfile
import time

from repro.arch.config import high_performance_config, low_power_config
from repro.core.config import lazy_config
from repro.exp import (
    AsyncWorkerBackend,
    ExperimentSpec,
    ResultStore,
    SerialBackend,
    run_experiments,
)
from repro.workloads.registry import list_workloads


def build_grid(scale: float, seed: int, highperf_threads: int, lowpower_threads: int,
               benchmarks=None):
    """Sampled + baseline specs for the benchmarks x both architectures.

    ``benchmarks`` defaults to all 19 of Table I; the smoke tests pass a
    subset to keep the double (serial + multi-host) sweep fast.
    """
    architectures = (
        (high_performance_config(), highperf_threads),
        (low_power_config(), lowpower_threads),
    )
    specs = []
    for benchmark in benchmarks if benchmarks is not None else list_workloads():
        for architecture, threads in architectures:
            spec = ExperimentSpec(
                benchmark=benchmark,
                num_threads=threads,
                scale=scale,
                trace_seed=seed,
                architecture=architecture,
                config=lazy_config(),
            )
            specs.extend([spec, spec.baseline()])
    return specs


def store_fingerprint(directory: pathlib.Path):
    """(entry count, sha256 over sorted result entries); errors excluded."""
    accumulator = hashlib.sha256()
    count = 0
    for path in sorted(directory.rglob("*.json")):
        if path.name.startswith(".") or path.name.endswith(".error.json"):
            continue
        accumulator.update(path.relative_to(directory).as_posix().encode())
        accumulator.update(path.read_bytes())
        count += 1
    return count, accumulator.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--hosts", default="local0:2,local1:2",
                        help="host budgets (default two simulated local "
                             "hosts, two workers each)")
    parser.add_argument("--listen", default=None,
                        help="listener bind address: PORT or HOST:PORT "
                             "(default: ephemeral loopback)")
    parser.add_argument("--scale", type=float, default=0.01,
                        help="workload scale; 1.0 is paper scale "
                             "(default 0.01)")
    parser.add_argument("--benchmarks", default=None,
                        help="comma-separated benchmark subset "
                             "(default: all 19 of Table I)")
    parser.add_argument("--batch", default=None,
                        help="specs per dispatch frame for the multi-host "
                             "run: N, 'adaptive' or 'adaptive:N' "
                             "(default: one spec at a time)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--threads-highperf", type=int, default=8)
    parser.add_argument("--threads-lowpower", type=int, default=4)
    parser.add_argument("--keep", metavar="DIR", default=None,
                        help="keep the two stores under DIR instead of a "
                             "temporary directory")
    args = parser.parse_args(argv)

    from repro.exp import parse_batch

    try:
        parse_batch(args.batch)  # fail now, not after the serial reference run
    except ValueError as exc:
        parser.error(str(exc))
    if args.benchmarks:
        benchmarks = [part.strip() for part in args.benchmarks.split(",")
                      if part.strip()]
        unknown = sorted(set(benchmarks) - set(list_workloads()))
        if unknown:
            parser.error(f"unknown benchmark(s): {', '.join(unknown)} "
                         "(see 'repro list')")
    else:
        benchmarks = list_workloads()
    specs = build_grid(args.scale, args.seed,
                       args.threads_highperf, args.threads_lowpower,
                       benchmarks=benchmarks)
    unique = len({spec.content_key() for spec in specs})
    print(f"grid: {len(benchmarks)} benchmarks x 2 architectures "
          f"-> {unique} unique experiments at scale {args.scale}")

    from repro.exp.hosts import parse_listen

    listen_host, listen_port = parse_listen(args.listen)

    with tempfile.TemporaryDirectory() as scratch:
        root = pathlib.Path(args.keep) if args.keep else pathlib.Path(scratch)
        serial_dir, multi_dir = root / "serial", root / "multihost"

        started = time.monotonic()
        run_experiments(specs, backend=SerialBackend(),
                        store=ResultStore(serial_dir))
        serial_seconds = time.monotonic() - started
        print(f"serial reference: {serial_seconds:.1f}s")

        multi_store = ResultStore(multi_dir)
        backend = AsyncWorkerBackend(
            hosts=args.hosts,
            listen_host=listen_host,
            listen_port=listen_port,
            batch=args.batch,
            store=multi_store,
        )
        started = time.monotonic()
        # The same store object is attached to the backend (streaming) and
        # passed to the driver, so the identity check skips re-persisting.
        run_experiments(specs, backend=backend, store=multi_store)
        multi_seconds = time.monotonic() - started
        print(f"multi-host ({args.hosts}): {multi_seconds:.1f}s  "
              f"stats={backend.stats}")
        for host, stats in sorted(backend.host_snapshot().items()):
            print(f"  {host}: {stats}")

        serial_count, serial_digest = store_fingerprint(serial_dir)
        multi_count, multi_digest = store_fingerprint(multi_dir)
        print(f"serial store   : {serial_count} entries, sha256 {serial_digest}")
        print(f"multihost store: {multi_count} entries, sha256 {multi_digest}")
        if serial_count != unique or (serial_count, serial_digest) != (
            multi_count, multi_digest
        ):
            print("FAIL: stores differ")
            return 1
        print("PASS: multi-host store is byte-identical to the serial run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
