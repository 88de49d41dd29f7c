"""Workload ``grid``: the user's default command, cold and then warm.

Each cycle runs ``python -m repro grid`` (serial default backend, periodic
policy, default threads and scale) into a fresh ``--cache-dir``, then
reruns it warm in fresh processes.  The cold run is the only place where
trace generation, plan build and the trace memo sit on the blocking path;
the warm rerun is nearly all import plus store reads.  The benchmark list
is one benchmark per category from the repository's ``SENSITIVITY_SUBSET``
rather than all 19 workloads, so that several cold grids fit in one run;
each cold grid is followed by several warm reruns.  The trace seed is the
CLI default: with three benchmarks, the cold grid's cost moves by 20% from
one trace seed to the next, which would swamp what the benchmark measures.
``--seed`` orders the ``--benchmarks`` list instead.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
import time
from typing import Dict, List, Tuple

from benchlib import calibrate, expected, procs, stats
from benchlib.layers import layer_values
from benchlib.tracing import Tracer

TIMEOUT_S = 150.0
#: Warm reruns after each cold grid: warm runs are short, so more samples.
WARM_RERUNS = 2


def benchmarks() -> List[str]:
    """One benchmark per category (kernel, application, PARSEC), each the
    first of its category in the repository's ``SENSITIVITY_SUBSET``."""
    from repro.workloads.registry import SENSITIVITY_SUBSET, get_workload

    chosen = {}
    for name in SENSITIVITY_SUBSET:
        chosen.setdefault(get_workload(name).info().category, name)
    return [chosen[category] for category in ("kernel", "application", "parsec")]


def benchmark_order(seed: int) -> List[str]:
    """The seeded order of ``--benchmarks``; the store's contents do not
    depend on it, the printed table's row order does."""
    order = benchmarks()
    random.Random(f"grid-{seed}").shuffle(order)
    return order


def grid_args(seed: int, cache_dir) -> List[str]:
    return ["grid", "--benchmarks", ",".join(benchmark_order(seed)),
            "--cache-dir", str(cache_dir)]


def store_digest(cache_dir) -> str:
    from repro.serve.daemon import store_digest as digest

    return digest(cache_dir)


def record_expected(work) -> str:
    cache_dir = work / "grid-record"
    code, _out, _wall = procs.run_child(
        [sys.executable, "-m", "repro", *grid_args(0, cache_dir)], TIMEOUT_S)
    if code != 0:
        raise RuntimeError("grid failed while recording")
    return store_digest(cache_dir)


def _grid(seed: int, cache_dir, trace_out=None) -> Tuple[int, str, float, float]:
    """Run one grid; returns (exit code, stdout, wall seconds, scaled seconds).

    The grid is scaled by the mean of calibrations taken just before and
    just after it, on the CPU the workload is pinned to."""
    if trace_out is None:
        argv = [sys.executable, "-m", "repro", *grid_args(seed, cache_dir)]
    else:
        argv = procs.python_child("trace", str(trace_out), *grid_args(seed, cache_dir))
    before = calibrate.now()
    code, out, wall = procs.run_child(argv, TIMEOUT_S)
    kernel_s = (before + calibrate.now()) / 2
    return code, out, wall, calibrate.scaled(wall, kernel_s)


def run(seed: int, seconds: float, traced: bool, report) -> Tuple[int, int, dict]:
    procs.pin_to_one_cpu()
    import_samples, setup_scaled = procs.probe("import-cli", 5)
    want = expected.load()["grid"]
    work = procs.make_workdir()
    walls: Dict[Tuple[str, bool], List[float]] = {
        (kind, tr): [] for kind in ("cold", "warm") for tr in (False, True)}
    scaled: Dict[str, List[float]] = {"cold": [], "warm": []}
    tracer = Tracer()
    attempted = failed = 0
    cycle = 0
    start = time.perf_counter()
    try:
        while True:
            traced_cycle = traced and cycle % 2 == 1
            cache_dir = work / f"store-{cycle}"
            outputs = {}
            for step, kind in enumerate(("cold",) + ("warm",) * WARM_RERUNS):
                trace_out = work / f"trace-{cycle}-{step}.json" if traced_cycle else None
                code, out, wall, scaled_wall = _grid(seed, cache_dir, trace_out)
                attempted += 1
                ok = code == 0 and bool(out) and store_digest(cache_dir) == want
                if kind == "warm":
                    ok = ok and out == outputs["cold"]
                if not ok:
                    failed += 1
                    report(f"  WRONG OUTPUT: {kind} grid (exit {code})")
                outputs[kind] = out
                walls[(kind, traced_cycle)].append(wall)
                if not traced_cycle:
                    scaled[kind].append(scaled_wall)
                if trace_out is not None:
                    with open(trace_out, encoding="utf-8") as handle:
                        tracer.merge(json.load(handle))
            shutil.rmtree(cache_dir)
            cycle += 1
            if time.perf_counter() - start >= seconds and (
                    not traced or walls[("cold", True)]):
                break
    finally:
        procs.remove_workdir(work)

    cold = walls[("cold", False)]
    warm = walls[("warm", False)]
    specs = 2 * len(benchmarks()) * 4  # sampled + baseline per (benchmark, threads)
    values: Dict[str, float] = {
        "setup_s": stats.median(setup_scaled),
        "peak_rss_mb": procs.children_peak_rss_mb(),
        "full_s": stats.typical(scaled["cold"]),
        "fast_s": stats.typical(scaled["warm"]),
    }
    report(f"grid: --benchmarks {','.join(benchmark_order(seed))}, CLI defaults otherwise, "
           f"{specs} specs per grid")
    for name, kind, samples in (("grid_cold_s", "cold", cold), ("grid_warm_s", "warm", warm)):
        report(f"  {name} {stats.median(samples):10.4f} s median, "
               f"{stats.typical(samples):.4f} s lower quartile unscaled, "
               f"{stats.typical(scaled[kind]):.4f} s scaled (n={len(samples)})")
    report(f"  cold grid throughput {specs / stats.median(cold):.4f} specs/s")
    report(f"  import_cli_s {stats.median(import_samples):9.4f} s (median, n={len(import_samples)}, "
           "unscaled)")
    if traced:
        cycles = len(walls[("cold", True)])
        values.update(layer_values(tracer, cycles))
        untraced = stats.median(cold) + stats.median(warm)
        traced_s = stats.median(walls[("cold", True)]) + stats.median(walls[("warm", True)])
        values["tracing.overhead_pct"] = 100.0 * (traced_s / untraced - 1.0)
    return attempted, failed, values
