"""Workload ``simulate``: in-process detailed versus sampled simulation.

For each config, a detailed run and the four sampling engines (periodic,
lazy, stratified at a 2% detail budget, fidelity at a 2% error budget) run
through :class:`~repro.sim.engine.SimulationEngine`.  Traces are generated
once in set-up; each timed run gets a freshly constructed engine (an
engine runs once), and only ``engine.run()`` is timed.  Trace content is
fixed (scale 0.05, trace seed 1, as in the ROADMAP's measurements), so the accuracy figures stay comparable with the
recorded digests; ``--seed`` shuffles the order of the 25 runs within each
round.
"""

from __future__ import annotations

import gc
import hashlib
import random
import time
from collections import defaultdict
from typing import Dict, List, Tuple

from benchlib import calibrate, expected, stats
from benchlib.layers import layer_values
from benchlib.metrics import SAMPLED_ENGINES
from benchlib.tracing import (
    Tracer, instrument_engine, record_engine_run, traced_plan_builder)

#: (benchmark, architecture, threads) — why each is here:
CONFIGS: List[Tuple[str, str, int]] = [
    ("blackscholes", "high-performance", 64),  # vector walk kernel engaged
    ("cholesky", "high-performance", 8),       # dependency-rich wavefront
    ("canneal", "low-power", 8),                # scalar walk, random accesses
    ("freqmine", "high-performance", 8),       # sampled run is controller-bound
    ("checkSparseLU", "high-performance", 16),  # the accuracy outlier
]
ENGINES = ("detailed",) + SAMPLED_ENGINES
SCALE = 0.05
TRACE_SEED = 1
BUDGET = 0.02
#: |traced - untraced| kernel coverage above which a traced run is flagged.
COVERAGE_TOLERANCE = 0.05


def config_name(config: Tuple[str, str, int]) -> str:
    benchmark, architecture, threads = config
    return f"{benchmark}@{architecture}x{threads}"


def run_key(config, kind: str) -> str:
    return f"{config_name(config)}:{kind}"


def run_order(seed: int, round_index: int) -> List[Tuple[int, str]]:
    """The seeded order of the (config, engine) runs of one round."""
    order = [(c, kind) for c in range(len(CONFIGS)) for kind in ENGINES]
    random.Random(f"simulate-{seed}-{round_index}").shuffle(order)
    return order


def architecture(name: str):
    from repro.arch.config import high_performance_config, low_power_config

    return high_performance_config() if name == "high-performance" else low_power_config()


def get_trace(config):
    from repro.workloads.registry import get_workload

    return get_workload(config[0]).generate(scale=SCALE, seed=TRACE_SEED)


def generate_traces() -> list:
    return [get_trace(config) for config in CONFIGS]


def make_engine(trace, config, kind: str):
    from repro.core.config import TaskPointConfig
    from repro.core.controller import TaskPointController
    from repro.core.fidelity import FidelityConfig, FidelityController
    from repro.core.stratified import StratifiedConfig, StratifiedController
    from repro.runtime.scheduler import make_scheduler
    from repro.sim.engine import SimulationEngine

    if kind == "detailed":
        controller = None
    elif kind == "periodic":
        controller = TaskPointController(config=TaskPointConfig())
    elif kind == "lazy":
        controller = TaskPointController(config=TaskPointConfig(sampling_period=None))
    elif kind == "stratified":
        controller = StratifiedController(trace, config=StratifiedConfig(budget=BUDGET))
    elif kind == "fidelity":
        controller = FidelityController(trace, config=FidelityConfig(error_budget=BUDGET))
    else:
        raise ValueError(kind)
    _benchmark, arch, threads = config
    return SimulationEngine(trace, architecture(arch), threads,
                            scheduler=make_scheduler("fifo", seed=0),
                            controller=controller)


def setup() -> Tuple[list, list]:
    """Import, generate every trace and construct one engine per run."""
    traces = generate_traces()
    engines = [make_engine(trace, config, kind)
               for trace, config in zip(traces, CONFIGS) for kind in ENGINES]
    return traces, engines


def result_digest(result) -> Dict[str, object]:
    """Total cycles plus a hash of every instance's cycles and placement."""
    import numpy as np

    table = result.instances
    digest = hashlib.sha256()
    digest.update(np.asarray(table.instance_id, dtype=np.int64).tobytes())
    digest.update(np.asarray(table.start_cycle, dtype=np.float64).tobytes())
    digest.update(np.asarray(table.end_cycle, dtype=np.float64).tobytes())
    return {"total_cycles": result.total_cycles, "instances_sha256": digest.hexdigest()}


def output_matches(result, want: Dict[str, object]) -> bool:
    return result_digest(result) == want


def record_expected() -> Dict[str, Dict[str, object]]:
    traces = generate_traces()
    return {
        run_key(config, kind): result_digest(make_engine(trace, config, kind).run())
        for trace, config in zip(traces, CONFIGS) for kind in ENGINES
    }


def _coverage(vector: float, scalar: float) -> float:
    return stats.ratio(vector, vector + scalar)


def run(seed: int, seconds: float, traced: bool, report) -> Tuple[int, int, dict]:
    from benchlib import procs

    procs.pin_to_one_cpu()
    setup_raw, setup_samples = procs.probe("setup-simulate", 5)
    import_samples = procs.probe("import-cli", 3)[0] if traced else []
    traces = generate_traces()
    want = expected.load()["simulate"]

    walls: Dict[Tuple[int, str, bool], List[float]] = defaultdict(list)
    #: Calibration-kernel seconds measured right before each untraced run.
    kernels: Dict[Tuple[int, str], List[float]] = defaultdict(list)
    results: Dict[Tuple[int, str], object] = {}
    untraced_coverage: Dict[Tuple[int, str], List[float]] = defaultdict(list)
    mismatches: List[str] = []
    tracer = Tracer()
    attempted = failed = 0
    rounds = {False: 0, True: 0}
    start = time.perf_counter()
    round_index = 0
    while True:
        # Trace mode alternates untraced and traced rounds, so both see the
        # same machine state and their difference is the tracing overhead.
        traced_round = traced and round_index % 2 == 1
        for c, kind in run_order(seed, round_index):
            config = CONFIGS[c]
            engine = make_engine(traces[c], config, kind)
            if traced_round:
                instrument_engine(tracer, engine)
                before = (tracer.counters["walk.kernel.items"],
                          tracer.counters["walk.scalar.items"])
            gc.collect()
            kernel_s = calibrate.measure()
            if traced_round:
                frame = tracer.begin("engine.run")
                result = engine.run()
                wall = tracer.end(frame)
            else:
                t0 = time.perf_counter()
                result = engine.run()
                wall = time.perf_counter() - t0
                kernels[(c, kind)].append(kernel_s)
            attempted += 1
            if not output_matches(result, want[run_key(config, kind)]):
                failed += 1
                report(f"  WRONG OUTPUT: {run_key(config, kind)}")
            walls[(c, kind, traced_round)].append(wall)
            results[(c, kind)] = result
            vstats = engine.vector_stats
            if traced_round:
                record_engine_run(tracer, engine, kind, result, wall)
                kernel = tracer.counters["walk.kernel.items"] - before[0]
                scalar = tracer.counters["walk.scalar.items"] - before[1]
                reference = untraced_coverage.get((c, kind))
                if reference:
                    traced_cov = _coverage(kernel, scalar)
                    if abs(traced_cov - stats.median(reference)) > COVERAGE_TOLERANCE:
                        mismatches.append(
                            f"{run_key(config, kind)} traced {traced_cov:.2f} "
                            f"vs untraced {stats.median(reference):.2f}")
            else:
                untraced_coverage[(c, kind)].append(
                    _coverage(vstats["vector_instances"], vstats["scalar_instances"]))
        rounds[traced_round] += 1
        round_index += 1
        if time.perf_counter() - start >= seconds and (not traced or rounds[True]):
            break

    values: Dict[str, float] = {
        "setup_s": stats.median(setup_samples),
        "peak_rss_mb": procs.self_peak_rss_mb(),
    }

    def med(c, kind, tr=False):
        """Lower-quartile wall time of one (config, engine) run."""
        return stats.typical(walls[(c, kind, tr)])

    n_instances = [results[(c, "detailed")].num_instances for c in range(len(CONFIGS))]

    def passes(kind, table):
        return [sum(table[(c, kind)][r] for c in range(len(CONFIGS)))
                for r in range(rounds[False])]

    raw = {key[:2]: value for key, value in walls.items() if not key[2]}

    def scaled_passes(kind):
        # One pass is scaled by the mean of its five runs' calibrations.
        n = len(CONFIGS)
        return [calibrate.scaled(wall, kernel / n)
                for wall, kernel in zip(passes(kind, raw), passes(kind, kernels))]

    values["full_s"] = stats.typical(scaled_passes("detailed"))
    values["fast_s"] = stats.typical(scaled_passes("periodic"))
    wall_speedup = stats.geomean(
        med(c, "detailed") / med(c, "periodic") for c in range(len(CONFIGS)))
    all_walls = sum(med(c, kind) for c in range(len(CONFIGS)) for kind in ENGINES)

    # -- the issue's named figures, for the report --------------------------
    detailed_s = sum(med(c, "detailed") for c in range(len(CONFIGS)))
    sampled_s = sum(med(c, k) for c in range(len(CONFIGS)) for k in SAMPLED_ENGINES)
    errors, cost_ratios = [], []
    report(f"simulate: scale {SCALE}, trace seed {TRACE_SEED}, "
           f"{rounds[False]} untraced rounds; times are lower quartiles over rounds")
    report(f"  {'config':34s} {'engine':10s} {'wall_s':>8s} {'wall_x':>7s} "
           f"{'cost_x':>7s} {'error_%':>8s}")
    for c, config in enumerate(CONFIGS):
        detailed = results[(c, "detailed")]
        report(f"  {config_name(config):34s} {'detailed':10s} {med(c, 'detailed'):8.4f}")
        for kind in SAMPLED_ENGINES:
            sampled = results[(c, kind)]
            error = 100.0 * sampled.error_versus(detailed)
            cost_x = sampled.speedup_versus(detailed)
            errors.append(error)
            if kind == "periodic":
                cost_ratios.append(cost_x)
            report(f"  {'':34s} {kind:10s} {med(c, kind):8.4f} "
                   f"{med(c, 'detailed') / med(c, kind):7.2f} {cost_x:7.2f} {error:8.2f}")
    named = [
        ("detailed_inst_per_s", sum(n_instances) / detailed_s, "1/s"),
        ("sampled_inst_per_s", sum(n_instances) * len(SAMPLED_ENGINES) / sampled_s, "1/s"),
        ("wall_speedup", wall_speedup, "x"),
        ("cost_speedup", stats.geomean(cost_ratios), "x"),
        ("sampled_error_pct", stats.mean(errors), "%"),
    ]
    for name, value, unit in named:
        report(f"  {name:22s} {value:12.4f} {unit:4s} (n={rounds[False]} rounds)")
    report(f"  detailed pass {stats.typical(passes('detailed', raw)):.4f} s, "
           f"periodic pass {stats.typical(passes('periodic', raw)):.4f} s "
           "(lower quartiles, unscaled)")
    report(f"  setup {stats.median(setup_raw):.4f} s unscaled, {values['setup_s']:.4f} s "
           f"scaled (median, n={len(setup_raw)})")
    report(f"  simulated_inst_per_s {sum(n_instances) * len(ENGINES) / all_walls:14.4f} 1/s "
           "(all five engines)")

    if traced:
        values.update(layer_values(tracer, rounds[True]))
        values.update(_setup_layers())
        values["import.cli_s"] = stats.median(import_samples)
        traced_s = sum(med(c, k, True) for c in range(len(CONFIGS)) for k in ENGINES)
        values["tracing.overhead_pct"] = 100.0 * (traced_s / all_walls - 1.0)
        values["walk.coverage_mismatches"] = len(mismatches)
        for line in mismatches:
            report(f"  COVERAGE FLAG: {line}")
    return attempted, failed, values


def _setup_layers() -> Dict[str, float]:
    """Trace generation and plan build, traced over one fresh set-up."""
    from repro.arch import batch

    tracer = Tracer()
    original = batch.build_execution_plan
    batch.build_execution_plan = traced_plan_builder(tracer, original)
    try:
        for config in CONFIGS:
            with tracer.span("trace.generate"):
                trace = get_trace(config)
            tracer.count("trace.tasks", len(trace))
            for kind in ENGINES:
                make_engine(trace, config, kind)
    finally:
        batch.build_execution_plan = original
    generate_s = tracer.seconds("trace.generate")
    tasks = tracer.counters["trace.tasks"]
    return {
        "trace.generate_s": generate_s,
        "trace.tasks": tasks,
        "trace.generate_us_per_task": 1e6 * stats.ratio(generate_s, tasks),
        "plan.build_s": tracer.seconds("plan.build"),
        "plan.builds": tracer.counters["plan.builds"],
        "plan.cache_hits": tracer.counters["plan.cache_hits"],
    }
