"""Metric names, units and directions (mirrored by ``BENCHMARK.json``).

Every workload reports every metric.  End-to-end metrics share one
meaning across workloads: each workload has a *full-cost* path and a
*fast* path that the program exists to provide, and the metrics time
both and their ratio:

=========  ===================  ===================
workload   full path            fast path
=========  ===================  ===================
simulate   detailed simulation  periodic sampling
grid       cold ``repro grid``  warm ``repro grid``
serve      cold served job      warm served job
=========  ===================  ===================

``full_s`` and ``fast_s`` are the lower quartile of the run's samples of
one operation on each path (see :func:`benchlib.stats.typical`).

Per-layer metrics come from a separate traced run.  Layers a workload does
not run report 0 (for example ``store.*`` on ``simulate``).
"""

from __future__ import annotations

from typing import List, Tuple

#: (name, unit, better, bound) — bound is the tolerated relative regression.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("full_s", "s", "lower", 0.25),
    ("fast_s", "s", "lower", 0.25),
]

SAMPLED_ENGINES = ("periodic", "lazy", "stratified", "fidelity")


def _per_layer() -> List[Tuple[str, str, str]]:
    rows = [
        ("import.cli_s", "s", "lower"),
        ("trace.generate_s", "s", "lower"),
        ("trace.tasks", "count", "higher"),
        ("trace.generate_us_per_task", "us", "lower"),
        ("plan.build_s", "s", "lower"),
        ("plan.builds", "count", "lower"),
        ("plan.cache_hits", "count", "higher"),
        ("runtime.next_task_s", "s", "lower"),
        ("runtime.notify_completion_s", "s", "lower"),
        ("runtime.calls", "count", "lower"),
    ]
    for kind in SAMPLED_ENGINES:
        rows += [
            (f"controller.{kind}.choose_mode_s", "s", "lower"),
            (f"controller.{kind}.notify_completion_s", "s", "lower"),
            (f"controller.{kind}.decisions", "count", "lower"),
            (f"controller.{kind}.us_per_decision", "us", "lower"),
            (f"controller.{kind}.detailed_frac", "frac", "lower"),
            (f"controller.{kind}.resamples", "count", "lower"),
        ]
    rows += [
        ("engine.run_s", "s", "lower"),
        ("engine.self_s", "s", "lower"),
        ("engine.us_per_instance.detailed", "us", "lower"),
        ("engine.us_per_instance.sampled", "us", "lower"),
        ("walk.scalar_s", "s", "lower"),
        ("walk.kernel_s", "s", "lower"),
        ("walk.vector_coverage", "frac", "higher"),
        ("walk.groups", "count", "lower"),
        ("walk.max_group", "count", "higher"),
        ("walk.coverage_mismatches", "count", "lower"),
        ("memo.hits", "count", "higher"),
        ("memo.misses", "count", "lower"),
        ("runner.run_spec_s", "s", "lower"),
        ("store.get_s", "s", "lower"),
        ("store.put_s", "s", "lower"),
        ("store.hits", "count", "higher"),
        ("store.misses", "count", "lower"),
        ("store.hit_ratio", "frac", "higher"),
        ("serve.submit_rtt_s", "s", "lower"),
        ("serve.wait_s", "s", "lower"),
        ("queue.pops", "count", "lower"),
        ("queue.dropped_cancelled", "count", "lower"),
        ("dispatch.spawns", "count", "lower"),
        ("dispatch.dispatch_frames", "count", "lower"),
        ("dispatch.max_batch", "count", "higher"),
        ("tracing.overhead_pct", "%", "lower"),
    ]
    return rows


PER_LAYER: List[Tuple[str, str, str]] = _per_layer()


def result_line(correct: bool, attempted: int, failed: int, values: dict,
                traced: bool) -> dict:
    """The final JSON object; ``values`` must hold every metric of the mode."""
    rows = PER_LAYER if traced else [row[:3] for row in END_TO_END]
    metrics = {}
    for name, unit, _better in rows:
        # A layer the workload does not run reports 0; an end-to-end
        # metric must always have been measured.
        value = values.get(name, 0.0) if traced else values[name]
        metrics[name] = {"value": float(value), "unit": unit}
    return {"correct": bool(correct), "attempted": int(attempted),
            "failed": int(failed), "metrics": metrics}
