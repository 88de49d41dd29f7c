"""Command-line interface for the TaskPoint reproduction.

The CLI exposes the most common workflows without writing any Python:

* ``python -m repro list`` — list the 19 benchmarks of Table I,
* ``python -m repro simulate <benchmark>`` — run a full detailed or
  TaskPoint-sampled simulation of one benchmark,
* ``python -m repro compare <benchmark>`` — run both and report the
  execution-time error and the simulation speedup,
* ``python -m repro grid`` — a whole accuracy grid (benchmarks × thread
  counts) through the experiment orchestrator,
* ``python -m repro sweep {W,H,P}`` — a Figure 6 parameter sensitivity sweep,
* ``python -m repro variation <benchmark>`` — per-task-type IPC variation
  (the Figure 1 / Figure 5 analysis) of one benchmark,
* ``python -m repro serve --listen HOST:PORT`` — the persistent simulation
  service daemon (:mod:`repro.serve`): a long-lived worker pool behind a
  submit/poll/watch API with multi-tenant fair-share queues, a journalled
  restart-recovery path and a serving-grade result store,
* ``python -m repro submit/status/watch/cancel --connect HOST:PORT`` — the
  matching client commands (``submit`` builds the same spec grids as
  ``repro grid``, so a served run's store stays byte-identical to a serial
  one).

The experiment-driven commands (``compare``, ``grid``, ``sweep``) accept
``--jobs N`` to shard their experiments over N worker processes,
``--backend {auto,serial,async}`` to pick the execution backend explicitly
(``auto`` is serial for ``--jobs 1`` without ``--hosts`` and ``async``
otherwise; ``async`` is the asyncio supervisor over ``--jobs`` connect-back
``repro.exp.worker`` processes, with heartbeats and retry on worker death),
``--hosts host1:4,host2:8 [--listen PORT]`` to shard a grid over a cluster
of connect-back workers (local subprocesses or SSH) instead,
``--batch {N,adaptive[:N]}`` to pack several specs into one dispatch frame
(amortising per-spec round-trips for sub-second experiments), and
``--cache-dir DIR`` to persist every result on disk, keyed by experiment
content hash — re-running an unchanged grid is then a pure cache hit.
``$REPRO_CACHE_DIR`` provides a default cache directory.

``compare``, ``grid`` and ``sweep`` also accept ``--profile FILE`` (or the
``$REPRO_PROFILE`` environment variable) to run the simulation phase under
:mod:`cProfile` and dump the binary stats to ``FILE`` for inspection with
``python -m pstats FILE`` — table rendering and argument parsing stay
outside the profile, so the dump shows where simulation time actually goes.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import cProfile
import json
import os
import signal
import sys
from typing import List, Optional, Sequence

from repro.analysis.accuracy import evaluate_grid, grid_specs
from repro.analysis.reporting import format_table, render_accuracy_table
from repro.analysis.sweep import history_sweep, period_sweep, warmup_sweep
from repro.analysis.variation import ipc_variation
from repro.arch.config import high_performance_config, low_power_config
from repro.core.api import sampled_simulation
from repro.core.config import TaskPointConfig
from repro.core.fidelity import FidelityConfig
from repro.core.stratified import StratifiedConfig
from repro.exp import (
    BACKEND_NAMES,
    CACHE_DIR_ENV,
    ExperimentExecutionError,
    ExperimentSpec,
    ResultStore,
    default_store,
    make_named_backend,
    run_experiments,
)
from repro.exp.hosts import parse_listen
from repro.serve import ServiceClient, ServiceError, SimulationService
from repro.sim.simulator import simulate
from repro.workloads.registry import SENSITIVITY_SUBSET, get_workload, list_workloads


def _architecture(name: str):
    if name == "high-performance":
        return high_performance_config()
    if name == "low-power":
        return low_power_config()
    raise ValueError(f"unknown architecture {name!r}")


def _taskpoint_config(args: argparse.Namespace) -> TaskPointConfig:
    period = None if args.policy == "lazy" else args.period
    return TaskPointConfig(
        warmup_instances=args.warmup,
        history_size=args.history,
        sampling_period=period,
    )


def _sampling_config(args: argparse.Namespace):
    """Sampling config selected by ``--policy``/``--mode``."""
    policy = getattr(args, "policy", None)
    if policy == "stratified":
        return StratifiedConfig(budget=args.budget)
    if policy == "fidelity":
        return FidelityConfig(
            error_budget=args.error_budget, warmup_instances=args.warmup
        )
    return _taskpoint_config(args)


def _fraction(flag: str, *, max_inclusive: bool):
    """An argparse ``type=`` callable enforcing a fraction range.

    ``max_inclusive=True`` accepts ``0 < value <= 1`` (detail budgets — 1
    means "simulate everything in detail"); ``max_inclusive=False`` accepts
    ``0 < value < 1`` (error budgets — a 100% error budget is meaningless).
    """

    def parse(raw: str) -> float:
        try:
            value = float(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{flag} must be a number, got {raw!r}")
        in_range = 0 < value <= 1 if max_inclusive else 0 < value < 1
        if not in_range:
            bound = "(0, 1]" if max_inclusive else "(0, 1)"
            raise argparse.ArgumentTypeError(
                f"{flag} must be a fraction in {bound}, got {raw}"
            )
        return value

    return parse


def _bounded_int(flag: str, minimum: int):
    """An argparse ``type=`` callable enforcing an integer lower bound."""

    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{flag} must be an integer, got {raw!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"{flag} must be >= {minimum}, got {value}"
            )
        return value

    return parse


#: Defaults of the sampling flags, applied only after the applicability
#: check below — the parser-level defaults are ``None`` so "user passed the
#: flag" is distinguishable from "flag left at its default".
_SAMPLING_DEFAULTS = {
    "policy": "periodic",
    "period": 250,
    "warmup": 2,
    "history": 4,
    "budget": 0.02,
    "error_budget": 0.02,
}

#: Which sampling flags each engine actually consumes.  Passing any other
#: sampling flag is an error (satellite: flags were previously ignored
#: silently, e.g. ``--budget`` under a periodic policy).
_FLAG_APPLICABILITY = {
    "periodic": {"period", "warmup", "history"},
    "lazy": {"warmup", "history"},
    "stratified": {"budget"},
    "fidelity": {"error_budget", "warmup"},
}

_FLAG_SPELLING = {
    "period": "--period",
    "warmup": "--warmup",
    "history": "--history",
    "budget": "--budget",
    "error_budget": "--error-budget",
}


def _resolve_sampling_args(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    """Validate sampling-flag applicability and fill in defaults.

    Resolves the effective sampling engine from ``--mode``/``--policy``,
    rejects (via ``parser.error``, exit code 2) any sampling flag the
    selected engine does not consume, then replaces the ``None`` sentinels
    with the real defaults so the command implementations never see a
    partially-populated namespace.
    """
    mode = getattr(args, "mode", None)
    if mode == "detailed":
        engine = None
        if args.policy is not None:
            parser.error("--policy does not apply to --mode detailed")
    elif mode in (None, "sampled"):
        engine = args.policy if args.policy is not None else "periodic"
    else:  # an explicit engine mode: stratified / fidelity
        engine = mode
        if args.policy is not None and args.policy != engine:
            parser.error(
                f"--policy {args.policy} conflicts with --mode {engine}"
            )
    allowed = _FLAG_APPLICABILITY.get(engine, set())
    for flag in ("period", "warmup", "history", "budget", "error_budget"):
        if getattr(args, flag, None) is not None and flag not in allowed:
            target = f"--mode {mode}" if engine is None else f"the {engine} engine"
            parser.error(
                f"{_FLAG_SPELLING[flag]} does not apply to {target}"
            )
    args.policy = engine
    for flag, default in _SAMPLING_DEFAULTS.items():
        if flag != "policy" and getattr(args, flag, None) is None:
            setattr(args, flag, default)


def _int_list(raw: str) -> List[int]:
    return [int(part) for part in raw.split(",") if part]


def _benchmark_list(raw: str) -> List[str]:
    if raw == "all":
        return list_workloads()
    return [part for part in raw.split(",") if part]


def _backend_and_store(args: argparse.Namespace):
    store = ResultStore(args.cache_dir) if args.cache_dir else default_store()
    serial = args.backend == "serial" or (
        args.backend == "auto" and not args.hosts and args.jobs <= 1
    )
    if serial and args.hosts:
        raise ValueError("--hosts requires --backend async (or auto)")
    if serial and (args.listen or args.connect_host):
        raise ValueError(
            "--listen and --connect-host need worker processes "
            "(pass --hosts or --jobs N)"
        )
    backend = make_named_backend(
        args.backend, workers=args.jobs, store=store,
        hosts=args.hosts, listen=args.listen, connect_host=args.connect_host,
        batch=args.batch,
    )
    return backend, store


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("benchmark", help="benchmark name (see 'repro list')")
    parser.add_argument("--threads", type=int, default=8, help="simulated threads")
    parser.add_argument("--scale", type=float, default=0.05,
                        help="workload scale relative to Table I (default 0.05)")
    parser.add_argument("--seed", type=int, default=1, help="trace-generation seed")
    parser.add_argument("--architecture", choices=["high-performance", "low-power"],
                        default="high-performance")


_POLICY_CHOICES = ["periodic", "lazy", "stratified", "fidelity"]


def _add_taskpoint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--policy", choices=_POLICY_CHOICES,
                        default=None,
                        help="sampling engine: TaskPoint periodic/lazy, "
                             "two-phase stratified sampling with confidence "
                             "intervals, or the online error-budget fidelity "
                             "controller (default: periodic)")
    parser.add_argument("--period", type=_bounded_int("--period", 1),
                        default=None,
                        help="periodic policy only: sampling period P "
                             "(default 250)")
    parser.add_argument("--warmup", type=_bounded_int("--warmup", 0),
                        default=None,
                        help="periodic/lazy/fidelity: warm-up instances W "
                             "(default 2)")
    parser.add_argument("--history", type=_bounded_int("--history", 1),
                        default=None,
                        help="periodic/lazy: history size H (default 4)")
    parser.add_argument("--budget", type=_fraction("--budget", max_inclusive=True),
                        default=None,
                        help="stratified mode only: target fraction of task "
                             "instances simulated in detail, in (0, 1] "
                             "(default 0.02)")
    parser.add_argument("--error-budget", dest="error_budget",
                        type=_fraction("--error-budget", max_inclusive=False),
                        default=None,
                        help="fidelity mode only: relative execution-time "
                             "error budget, in (0, 1) (default 0.02)")


def _add_mode_alias(parser: argparse.ArgumentParser) -> None:
    """Add ``--mode`` as an alias of ``--policy`` (for compare/grid).

    ``simulate`` has its own ``--mode`` (which also offers ``detailed``);
    the experiment commands take the engine name through either spelling —
    the acceptance workflows use ``--mode fidelity``.
    """
    parser.add_argument("--mode", dest="policy", choices=_POLICY_CHOICES,
                        default=None, help="alias for --policy")


def _add_orchestrator_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=_bounded_int("--jobs", 1), default=1,
                        help="parallel worker processes (default 1 = serial)")
    parser.add_argument("--backend", choices=list(BACKEND_NAMES), default="auto",
                        help="execution backend (default: auto — async "
                             "workers when --jobs > 1 or --hosts is given, "
                             "serial otherwise; 'async' runs --jobs local "
                             "workers, or the budgets in --hosts)")
    parser.add_argument("--cache-dir", default=None,
                        help="persistent experiment result store "
                             "(default: $REPRO_CACHE_DIR if set)")
    parser.add_argument("--hosts", default=None,
                        help="multi-host worker budgets, e.g. "
                             "'host1:4,host2:8' (names starting with "
                             "'local' run subprocesses, others SSH; "
                             "replaces --jobs)")
    parser.add_argument("--listen", default=None,
                        help="bind address of the workers' connect-back "
                             "listener: PORT or HOST:PORT (default: an "
                             "ephemeral loopback port)")
    parser.add_argument("--connect-host", default=None,
                        help="address remote workers dial back to (default: "
                             "127.0.0.1 for local hosts, this machine's "
                             "hostname for SSH hosts)")
    parser.add_argument("--batch", default=None,
                        help="specs per dispatch: N, 'adaptive' or "
                             "'adaptive:N' (async workers pack them into "
                             "one run_batch frame, amortising per-spec "
                             "round-trips; serial ignores it; default: one "
                             "spec at a time)")
    parser.add_argument("--profile", default=None, metavar="FILE",
                        help="run the simulation phase under cProfile and "
                             "dump binary stats to FILE (default: "
                             "$REPRO_PROFILE if set; inspect with "
                             "'python -m pstats FILE')")


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TaskPoint: sampled simulation of task-based programs (reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the available benchmarks")

    sim = subparsers.add_parser("simulate", help="simulate one benchmark")
    _add_common_arguments(sim)
    sim.add_argument("--mode",
                     choices=["detailed", "sampled", "stratified", "fidelity"],
                     default="sampled",
                     help="detailed baseline, TaskPoint sampling, two-phase "
                          "stratified sampling, or the online error-budget "
                          "fidelity controller (stratified/fidelity are "
                          "equivalent to --mode sampled --policy <engine>)")
    _add_taskpoint_arguments(sim)

    cmp = subparsers.add_parser("compare", help="sampled versus detailed simulation")
    _add_common_arguments(cmp)
    _add_taskpoint_arguments(cmp)
    _add_mode_alias(cmp)
    _add_orchestrator_arguments(cmp)

    grid = subparsers.add_parser(
        "grid", help="accuracy grid (benchmarks x thread counts) via the orchestrator"
    )
    grid.add_argument("--benchmarks", default="all",
                      help="comma-separated benchmark names, or 'all' (default)")
    grid.add_argument("--threads", default="8,16,32,64",
                      help="comma-separated simulated thread counts")
    grid.add_argument("--scale", type=float, default=0.05,
                      help="workload scale relative to Table I (default 0.05)")
    grid.add_argument("--seed", type=int, default=1, help="trace-generation seed")
    grid.add_argument("--architecture", choices=["high-performance", "low-power"],
                      default="high-performance")
    _add_taskpoint_arguments(grid)
    _add_mode_alias(grid)
    _add_orchestrator_arguments(grid)

    sweep = subparsers.add_parser(
        "sweep", help="parameter sensitivity sweep (Figure 6) via the orchestrator"
    )
    sweep.add_argument("parameter", choices=["W", "H", "P"],
                       help="swept parameter: warm-up, history size or period")
    sweep.add_argument("--values", default=None,
                       help="comma-separated parameter values (paper defaults if omitted)")
    sweep.add_argument("--benchmarks", default=",".join(SENSITIVITY_SUBSET),
                       help="comma-separated benchmark names, or 'all'")
    sweep.add_argument("--threads", default="32,64",
                       help="comma-separated simulated thread counts")
    sweep.add_argument("--scale", type=float, default=0.05,
                       help="workload scale relative to Table I (default 0.05)")
    sweep.add_argument("--seed", type=int, default=1, help="trace-generation seed")
    sweep.add_argument("--architecture", choices=["high-performance", "low-power"],
                       default="high-performance")
    _add_orchestrator_arguments(sweep)

    var = subparsers.add_parser("variation", help="per-task-type IPC variation")
    _add_common_arguments(var)

    serve = subparsers.add_parser(
        "serve", help="persistent simulation service daemon (submit/poll/watch API)"
    )
    serve.add_argument("--listen", default="127.0.0.1:0",
                       help="client API bind address, PORT or HOST:PORT "
                            "(default: an ephemeral loopback port, printed "
                            "on startup)")
    serve.add_argument("--workers", type=_bounded_int("--workers", 1), default=2,
                       help="local worker subprocesses (ignored with --hosts; "
                            "default 2)")
    serve.add_argument("--hosts", default=None,
                       help="multi-host worker budgets, e.g. "
                            "'host1:4,host2:8' (replaces --workers)")
    serve.add_argument("--worker-listen", default=None,
                       help="bind address of the workers' connect-back "
                            "listener, PORT or HOST:PORT (distinct from "
                            "--listen, which serves clients)")
    serve.add_argument("--connect-host", default=None,
                       help="address remote workers dial back to")
    serve.add_argument("--batch", default=None,
                       help="specs per dispatch frame: N, 'adaptive' or "
                            "'adaptive:N'")
    serve.add_argument("--cache-dir", default=None,
                       help="result store directory — enables warm serving, "
                            "write-ahead durability and restart recovery "
                            "(default: $REPRO_CACHE_DIR if set)")
    serve.add_argument("--store-max-bytes",
                       type=_bounded_int("--store-max-bytes", 1), default=None,
                       help="LRU byte budget of the store; compaction evicts "
                            "cold entries past it (in-flight and failure "
                            "entries are never evicted)")
    serve.add_argument("--fair-cap", type=_bounded_int("--fair-cap", 1),
                       default=None,
                       help="default per-tenant in-flight cap (default: "
                            "uncapped)")
    serve.add_argument("--tenant", action="append", default=None,
                       metavar="NAME:WEIGHT[:CAP]",
                       help="configure one tenant's fair-share weight and "
                            "optional in-flight cap (repeatable)")
    serve.add_argument("--no-journal", action="store_true",
                       help="disable the job journal (no restart recovery)")

    submit = subparsers.add_parser(
        "submit", help="submit a spec grid to a running 'repro serve' daemon"
    )
    submit.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="daemon address (the --listen of 'repro serve')")
    submit.add_argument("--benchmarks", default="all",
                        help="comma-separated benchmark names, or 'all' (default)")
    submit.add_argument("--threads", default="8,16,32,64",
                        help="comma-separated simulated thread counts")
    submit.add_argument("--scale", type=float, default=0.05,
                        help="workload scale relative to Table I (default 0.05)")
    submit.add_argument("--seed", type=int, default=1, help="trace-generation seed")
    submit.add_argument("--architecture",
                        choices=["high-performance", "low-power"],
                        default="high-performance")
    _add_taskpoint_arguments(submit)
    _add_mode_alias(submit)
    submit.add_argument("--tenant", default="default",
                        help="tenant id for fair-share scheduling "
                             "(default: 'default')")
    submit.add_argument("--priority", type=int, default=0,
                        help="within-tenant priority (higher runs sooner, "
                             "aged so lower priorities are never starved)")
    submit.add_argument("--no-baselines", action="store_true",
                        help="submit only the sampled specs, without their "
                             "detailed baselines (the default matches "
                             "'repro grid', which runs both)")
    submit.add_argument("--watch", action="store_true",
                        help="stay attached and stream progress until the "
                             "job finishes")
    submit.add_argument("--timeout", type=float, default=600.0,
                        help="socket timeout per connection/frame in seconds")

    status = subparsers.add_parser(
        "status", help="query a job (or the whole daemon) by id"
    )
    status.add_argument("job", nargs="?", default=None,
                        help="job id (omit to list every job)")
    status.add_argument("--connect", required=True, metavar="HOST:PORT")
    status.add_argument("--stats", action="store_true",
                        help="print the daemon's stats_report (queue depths, "
                             "store hit/miss/eviction counters, dispatch "
                             "stats) as JSON")
    status.add_argument("--timeout", type=float, default=60.0,
                        help="socket timeout in seconds")

    watch = subparsers.add_parser(
        "watch", help="stream a job's progress until it finishes"
    )
    watch.add_argument("job", help="job id (from 'repro submit')")
    watch.add_argument("--connect", required=True, metavar="HOST:PORT")
    watch.add_argument("--timeout", type=float, default=600.0,
                       help="socket timeout per frame in seconds")

    cancel = subparsers.add_parser(
        "cancel", help="cancel a job's pending specs (running specs finish)"
    )
    cancel.add_argument("job", help="job id")
    cancel.add_argument("--connect", required=True, metavar="HOST:PORT")
    cancel.add_argument("--timeout", type=float, default=60.0,
                        help="socket timeout in seconds")
    return parser


def _command_list() -> int:
    rows = []
    for name in list_workloads():
        info = get_workload(name).info()
        rows.append([name, info.category, info.paper_task_types,
                     info.paper_task_instances, info.properties])
    print(format_table(
        ["benchmark", "category", "task types", "task instances", "properties"], rows
    ))
    return 0


def _command_simulate(args: argparse.Namespace) -> int:
    trace = get_workload(args.benchmark).generate(scale=args.scale, seed=args.seed)
    architecture = _architecture(args.architecture)
    if args.policy is None:  # --mode detailed
        result = simulate(trace, num_threads=args.threads, architecture=architecture)
    else:
        result = sampled_simulation(
            trace, num_threads=args.threads, architecture=architecture,
            config=_sampling_config(args),
        )
    summary = result.summary()
    for key, value in summary.items():
        print(f"{key:20s}: {value}")
    confidence = result.metadata.get("confidence")
    if confidence:
        print(f"{'ci95 halfwidth':20s}: {confidence['half_width_percent']:.2f} %")
        print(f"{'ci95 cycles':20s}: [{confidence['lower_cycles']:,.0f}, "
              f"{confidence['upper_cycles']:,.0f}]")
    stats = result.metadata.get("taskpoint")
    fidelity = getattr(stats, "fidelity_summary", None)
    if callable(fidelity):
        info = fidelity()
        print(f"{'error budget':20s}: {info['error_budget'] * 100:.1f} %")
        print(f"{'committed types':20s}: {info['committed_types']}/{info['num_types']}"
              f" (commits {info['commits']}, reopens {info['reopens']},"
              f" probes {info['probes']})")
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    spec = ExperimentSpec(
        benchmark=args.benchmark,
        num_threads=args.threads,
        scale=args.scale,
        trace_seed=args.seed,
        architecture=_architecture(args.architecture),
        config=_sampling_config(args),
    )
    backend, store = _backend_and_store(args)
    with _maybe_profile(args):
        sampled, detailed = run_experiments(
            [spec, spec.baseline()], backend=backend, store=store
        )
    print(f"benchmark            : {sampled.benchmark}")
    print(f"architecture         : {sampled.architecture}")
    print(f"threads              : {sampled.num_threads}")
    print(f"detailed cycles      : {detailed.total_cycles:,.0f}")
    print(f"sampled cycles       : {sampled.total_cycles:,.0f}")
    print(f"execution-time error : {sampled.error_versus(detailed) * 100.0:.2f} %")
    print(f"simulation speedup   : {sampled.speedup_versus(detailed):.1f}x")
    stats = sampled.taskpoint or {}
    print(f"warm-up / valid / fast-forwarded: "
          f"{stats.get('warmup_instances', 0)} / {stats.get('valid_samples', 0)}"
          f" / {stats.get('fast_forwarded', 0)}")
    print(f"resamples            : {stats.get('resamples', 0)}")
    confidence = stats.get("confidence")
    if confidence:
        covered = (confidence["lower_cycles"] <= detailed.total_cycles
                   <= confidence["upper_cycles"])
        print(f"ci95                 : +/-{confidence['half_width_percent']:.2f} %"
              f" [{confidence['lower_cycles']:,.0f}, "
              f"{confidence['upper_cycles']:,.0f}]"
              f" ({'covers' if covered else 'misses'} detailed)")
    return 0


@contextlib.contextmanager
def _maybe_profile(args: argparse.Namespace):
    """Profile the wrapped simulation phase when requested.

    ``--profile FILE`` wins over ``$REPRO_PROFILE``; with neither set this
    is a no-op.  The binary :mod:`cProfile` stats land in ``FILE`` on exit
    (including on error), ready for ``python -m pstats FILE`` or any
    pstats-compatible viewer.
    """
    path = getattr(args, "profile", None) or os.environ.get("REPRO_PROFILE")
    if not path:
        yield
        return
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        profiler.dump_stats(path)
        print(f"profile: simulation-phase cProfile stats written to {path}",
              file=sys.stderr)


def _command_grid(args: argparse.Namespace) -> int:
    backend, store = _backend_and_store(args)
    with _maybe_profile(args):
        results = evaluate_grid(
            _benchmark_list(args.benchmarks),
            _int_list(args.threads),
            architecture=_architecture(args.architecture),
            config=_sampling_config(args),
            scale=args.scale,
            seed=args.seed,
            backend=backend,
            store=store,
        )
    if args.policy == "lazy":
        policy = "lazy"
    elif args.policy == "stratified":
        policy = f"stratified budget={args.budget}"
    elif args.policy == "fidelity":
        policy = f"fidelity error-budget={args.error_budget}"
    else:
        policy = f"periodic P={args.period}"
    print(render_accuracy_table(
        results,
        title=(f"Accuracy grid: {policy}, W={args.warmup}, H={args.history}, "
               f"{args.architecture} architecture, scale={args.scale}"),
    ))
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    backend, store = _backend_and_store(args)
    kwargs = dict(
        benchmarks=_benchmark_list(args.benchmarks),
        thread_counts=_int_list(args.threads),
        architecture=_architecture(args.architecture),
        scale=args.scale,
        seed=args.seed,
        backend=backend,
        store=store,
    )
    if args.parameter == "W":
        sweep, values_key = warmup_sweep, "warmup_values"
    elif args.parameter == "H":
        sweep, values_key = history_sweep, "history_values"
    else:
        sweep, values_key = period_sweep, "period_values"
    if args.values:
        kwargs[values_key] = tuple(_int_list(args.values))
    with _maybe_profile(args):
        points = sweep(**kwargs)
    rows = [
        [point.value, point.average_error_percent, point.average_speedup,
         point.experiments]
        for point in points
    ]
    print(f"sensitivity sweep over {args.parameter} "
          f"({args.architecture} architecture, scale={args.scale})")
    print(format_table([args.parameter, "avg error [%]", "avg speedup", "experiments"],
                       rows))
    return 0


def _command_variation(args: argparse.Namespace) -> int:
    trace = get_workload(args.benchmark).generate(scale=args.scale, seed=args.seed)
    result = simulate(trace, num_threads=args.threads,
                      architecture=_architecture(args.architecture))
    report = ipc_variation(result)
    box = report.box
    print(f"benchmark     : {report.benchmark} ({args.threads} threads)")
    print(f"instances     : {box.count}")
    print(f"p5 / q1 / median / q3 / p95 [%]: "
          f"{box.percentile_5:.2f} / {box.quartile_1:.2f} / {box.median:.2f} / "
          f"{box.quartile_3:.2f} / {box.percentile_95:.2f}")
    print(f"within +/-5%  : {'yes' if report.within_5_percent else 'no'}")
    rows = [[tv.task_type, tv.count, f"{tv.mean_ipc:.3f}",
             f"{tv.coefficient_of_variation * 100:.2f}"] for tv in report.per_type]
    print(format_table(["task type", "instances", "mean IPC", "CV [%]"], rows))
    return 0


def _parse_connect(raw: str) -> "tuple[str, int]":
    host, sep, port = raw.rpartition(":")
    if not sep or not host:
        raise ValueError(f"--connect expects HOST:PORT, got {raw!r}")
    return host, int(port)


def _parse_tenant_configs(raw_list: Optional[List[str]]):
    tenants = {}
    for raw in raw_list or []:
        parts = raw.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(
                f"invalid --tenant {raw!r} (expected NAME:WEIGHT[:CAP])"
            )
        weight = float(parts[1])
        cap = int(parts[2]) if len(parts) == 3 else None
        tenants[parts[0]] = (weight, cap)
    return tenants


async def _serve_async(args: argparse.Namespace) -> int:
    host, port = parse_listen(args.listen)
    tenants = _parse_tenant_configs(args.tenant)
    cache_dir = args.cache_dir or os.environ.get(CACHE_DIR_ENV)
    store = (
        ResultStore(cache_dir, max_bytes=args.store_max_bytes)
        if cache_dir
        else None
    )
    backend = make_named_backend(
        "async",
        workers=args.workers, store=None,
        hosts=args.hosts, listen=args.worker_listen,
        connect_host=args.connect_host, batch=args.batch,
    )
    service = SimulationService(
        backend,
        store=store,
        default_cap=args.fair_cap,
        journal=not args.no_journal,
    )
    for name, (weight, cap) in tenants.items():
        service.configure_tenant(name, weight=weight, cap=cap)
    # Handlers go in before the "listening" banner: anyone who has seen the
    # banner may signal us, and the default SIGTERM action would skip the
    # graceful (journal-preserving) shutdown path.
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(ValueError, NotImplementedError, RuntimeError):
            loop.add_signal_handler(signum, service.request_stop)
    await service.start(host, port)
    pool = args.hosts if args.hosts else f"{args.workers} local workers"
    print(
        f"repro serve: listening on {service.host}:{service.port} "
        f"({pool}, store={cache_dir or 'none'})",
        flush=True,
    )
    await service.serve_until_stopped()
    print("repro serve: stopped", flush=True)
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    return asyncio.run(_serve_async(args))


def _submit_specs(args: argparse.Namespace) -> List[ExperimentSpec]:
    """The same specs a ``repro grid`` with these flags would execute."""
    specs = grid_specs(
        _benchmark_list(args.benchmarks),
        _int_list(args.threads),
        architecture=_architecture(args.architecture),
        config=_sampling_config(args),
        scale=args.scale,
        seed=args.seed,
    )
    if not args.no_baselines:
        specs = [s for spec in specs for s in (spec, spec.baseline())]
    return specs


def _watch_to_completion(client: ServiceClient, job_id: str) -> int:
    def on_update(frame) -> None:
        if frame.get("type") == "job_update":
            cached = " (cached)" if frame.get("cached") else ""
            print(
                f"  [{frame['seq']}] unit {frame['unit']} "
                f"{frame['state']}{cached}",
                flush=True,
            )

    done = client.watch(job_id, on_update=on_update)
    print(f"status : {done['status']}")
    print(f"digest : {done['digest']}")
    for failure in done.get("failures", []):
        error = failure.get("error") or {}
        print(
            f"failed : {failure['key']} "
            f"{error.get('error_type')}: {error.get('message')}",
            file=sys.stderr,
        )
    return 0 if done["status"] == "done" else 2


def _command_submit(args: argparse.Namespace) -> int:
    host, port = _parse_connect(args.connect)
    client = ServiceClient(host, port, timeout=args.timeout)
    reply = client.submit(
        _submit_specs(args), tenant=args.tenant, priority=args.priority
    )
    print(f"job    : {reply['job']}")
    print(f"specs  : {reply['total']} ({reply['cached']} cached)")
    if reply.get("attached"):
        print("attached to an already-submitted identical job")
    if args.watch:
        return _watch_to_completion(client, reply["job"])
    return 0


def _command_status(args: argparse.Namespace) -> int:
    host, port = _parse_connect(args.connect)
    client = ServiceClient(host, port, timeout=args.timeout)
    if args.stats:
        print(json.dumps(client.stats(), indent=2, sort_keys=True))
        return 0
    if args.job is None:
        reply = client.status()
        rows = [
            [job["job"], job["tenant"], job["status"],
             f"{job['counts']['done']}/{job['total']}", job["cached"]]
            for job in reply["jobs"]
        ]
        print(format_table(["job", "tenant", "status", "done", "cached"], rows))
        return 0
    job = client.status(args.job)
    for key in ("job", "tenant", "priority", "status", "total", "cached"):
        print(f"{key:8s}: {job[key]}")
    counts = job["counts"]
    print(f"{'units':8s}: " + ", ".join(
        f"{state}={counts[state]}" for state in sorted(counts)
    ))
    return 0


def _command_watch(args: argparse.Namespace) -> int:
    host, port = _parse_connect(args.connect)
    client = ServiceClient(host, port, timeout=args.timeout)
    return _watch_to_completion(client, args.job)


def _command_cancel(args: argparse.Namespace) -> int:
    host, port = _parse_connect(args.connect)
    client = ServiceClient(host, port, timeout=args.timeout)
    reply = client.cancel(args.job)
    print(f"cancelled {reply['cancelled']} pending spec(s) of job {args.job}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("simulate", "compare", "grid", "submit"):
        _resolve_sampling_args(parser, args)
    try:
        if args.command == "list":
            return _command_list()
        if args.command == "simulate":
            return _command_simulate(args)
        if args.command == "compare":
            return _command_compare(args)
        if args.command == "grid":
            return _command_grid(args)
        if args.command == "sweep":
            return _command_sweep(args)
        if args.command == "variation":
            return _command_variation(args)
        if args.command == "serve":
            return _command_serve(args)
        if args.command == "submit":
            return _command_submit(args)
        if args.command == "status":
            return _command_status(args)
        if args.command == "watch":
            return _command_watch(args)
        if args.command == "cancel":
            return _command_cancel(args)
    except (KeyError, ValueError, ExperimentExecutionError, ServiceError,
            ConnectionError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # The async backend shuts its workers down gracefully on ^C, and a
        # cache-dir store already holds every completed experiment.
        print("interrupted", file=sys.stderr)
        return 130
    return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
