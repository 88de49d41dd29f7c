"""Span tracing from outside the program.

Nothing under ``src/`` knows it is being traced: every span is recorded by
a wrapper this module puts around a public call into a layer.  Wrappers
go on the *instances* an engine run uses (``engine.runtime``,
``engine.controller``, ``engine.batched``, ``engine.vector``) and are
installed before ``run()``: the engine picks fast paths on
``type(controller)`` and hoists bound methods such as
``controller.choose_mode`` once per run, so a proxy type or a wrapper
installed mid-run would change what is measured.

Spans nest per thread.  A span's *self* time is its duration minus the
time its direct child spans cover; children of one span never overlap
because a thread runs one call at a time.  Only aggregates are kept —
calls, total and self time per span name, plus plain counters — because
a traced run makes hundreds of thousands of per-instance calls.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Optional


#: Counters that merge by maximum rather than by sum.
MAX_COUNTERS = frozenset({"walk.max_group"})


class Tracer:
    """Aggregating span recorder."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.calls: Counter = Counter()
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counters: Counter = Counter()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        frame = [name, self.clock(), 0.0]
        self._stack().append(frame)
        return frame

    def end(self, frame: list) -> float:
        now = self.clock()
        stack = self._stack()
        popped = stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        name, start, child = frame
        duration = now - start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += duration
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - child
        return duration

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def wrap(self, fn: Callable, name: str,
             items: Optional[Callable[..., int]] = None) -> Callable:
        """``fn`` wrapped in a span; ``items(*args)`` adds to ``<name>.items``."""
        begin, end, counters = self.begin, self.end, self.counters
        items_key = f"{name}.items"

        def wrapper(*args, **kwargs):
            frame = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(frame)
                if items is not None:
                    counters[items_key] += items(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """JSON-friendly aggregates (what a traced child process ships home)."""
        return {
            "spans": {
                name: {"calls": self.calls[name], "total_s": self.total[name],
                       "self_s": self.self_time[name]}
                for name in sorted(self.calls)
            },
            "counters": dict(self.counters),
        }

    def merge(self, snapshot: Dict[str, object]) -> None:
        """Add a child process's :meth:`snapshot` into this tracer."""
        for name, agg in snapshot.get("spans", {}).items():
            self.calls[name] += agg["calls"]
            self.total[name] += agg["total_s"]
            self.self_time[name] += agg["self_s"]
        for name, value in snapshot.get("counters", {}).items():
            if name in MAX_COUNTERS:
                self.counters[name] = max(self.counters.get(name, 0), value)
            else:
                self.counters[name] += value

    def seconds(self, name: str) -> float:
        return self.total.get(name, 0.0)

    def self_seconds(self, name: str) -> float:
        return self.self_time.get(name, 0.0)


class _Span:
    __slots__ = ("tracer", "name", "frame")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        self.frame = self.tracer.begin(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.end(self.frame)


# ----------------------------------------------------------------------
# Engine instrumentation (shared by the in-process workload and the
# traced child processes).
# ----------------------------------------------------------------------
def engine_kind(controller) -> str:
    """``detailed``/``periodic``/``lazy``/``stratified``/``fidelity``."""
    name = type(controller).__name__
    if name == "AlwaysDetailedController":
        return "detailed"
    if name == "StratifiedController":
        return "stratified"
    if name == "FidelityController":
        return "fidelity"
    if name == "TaskPointController":
        return "lazy" if controller.config.sampling_period is None else "periodic"
    return name


def _one(*_args) -> int:
    return 1


def instrument_engine(tracer: Tracer, engine) -> str:
    """Wrap the layer entry points one engine run calls; returns its kind.

    Must run after construction and before ``engine.run()``.
    """
    kind = engine_kind(engine.controller)
    runtime = engine.runtime
    runtime.next_task = tracer.wrap(runtime.next_task, "runtime.next_task")
    runtime.notify_completion = tracer.wrap(
        runtime.notify_completion, "runtime.notify_completion")
    if kind != "detailed":
        controller = engine.controller
        controller.choose_mode = tracer.wrap(
            controller.choose_mode, f"controller.{kind}.choose_mode")
        controller.notify_completion = tracer.wrap(
            controller.notify_completion, f"controller.{kind}.notify_completion")
    batched = engine.batched
    if batched is not None:
        batched.execute_many = tracer.wrap(batched.execute_many, "walk.scalar",
                                           items=len)
        batched.execute = tracer.wrap(batched.execute, "walk.scalar", items=_one)
    vector = engine.vector
    if vector is not None:
        vector.execute_group = tracer.wrap(vector.execute_group, "walk.kernel",
                                           items=len)
        vector.execute_writer = tracer.wrap(vector.execute_writer, "walk.kernel",
                                            items=_one)
    return kind


def record_engine_run(tracer: Tracer, engine, kind: str, result, seconds: float) -> None:
    """Counters of one finished engine run (read from the engine, not timed)."""
    tracer.count(f"engine.instances.{kind}", result.num_instances)
    tracer.count(f"engine.seconds.{kind}", seconds)
    stats = engine.vector_stats
    tracer.count("walk.groups", stats["groups"])
    tracer.counters["walk.max_group"] = max(
        tracer.counters.get("walk.max_group", 0), stats["max_group"])
    controller_stats = getattr(engine.controller, "stats", None)
    if kind != "detailed" and controller_stats is not None:
        tracer.count(f"controller.{kind}.detailed", controller_stats.detailed_instances)
        tracer.count(f"controller.{kind}.instances", controller_stats.total_instances)
        tracer.count(f"controller.{kind}.resamples", controller_stats.resamples)


def traced_plan_builder(tracer: Tracer, build_plan: Callable) -> Callable:
    """``build_execution_plan`` counting real builds apart from cache hits."""

    def traced_build_plan(columns, *args, **kwargs):
        before = len(columns.plan_cache)
        with tracer.span("plan.build"):
            plan = build_plan(columns, *args, **kwargs)
        tracer.count("plan.builds" if len(columns.plan_cache) > before
                     else "plan.cache_hits")
        return plan

    return traced_build_plan


def install_child_hooks(tracer: Tracer) -> None:
    """Class-level hooks for a traced child process (``repro grid``/``serve``).

    Public layer entry points are wrapped where their callers look them
    up; the engine itself is instrumented per instance, from a wrapper
    around ``SimulationEngine.run`` that runs before the original method.
    """
    import repro.arch.batch as batch
    import repro.exp.backends as backends
    import repro.exp.runner as runner
    from repro.exp.store import ResultStore
    from repro.sim.engine import SimulationEngine
    from repro.workloads.base import Workload

    generate = Workload.generate

    def traced_generate(self, *args, **kwargs):
        with tracer.span("trace.generate"):
            trace = generate(self, *args, **kwargs)
        tracer.count("trace.tasks", len(trace))
        return trace

    Workload.generate = traced_generate

    batch.build_execution_plan = traced_plan_builder(tracer, batch.build_execution_plan)

    traced_run_spec = tracer.wrap(runner.run_spec, "runner.run_spec")
    runner.run_spec = traced_run_spec
    backends.run_spec = traced_run_spec

    get = ResultStore.get

    def traced_get(self, spec):
        with tracer.span("store.get"):
            result = get(self, spec)
        tracer.count("store.hits" if result is not None else "store.misses")
        return result

    ResultStore.get = traced_get
    ResultStore.put = tracer.wrap(ResultStore.put, "store.put")
    ResultStore.put_if_absent = tracer.wrap(ResultStore.put_if_absent, "store.put")

    run = SimulationEngine.run

    def traced_run(self):
        kind = instrument_engine(tracer, self)
        frame = tracer.begin("engine.run")
        try:
            result = run(self)
        finally:
            seconds = tracer.end(frame)
        record_engine_run(tracer, self, kind, result, seconds)
        return result

    SimulationEngine.run = traced_run
