"""Per-layer metrics derived from a :class:`~benchlib.tracing.Tracer`.

Times and counts are divided by ``per``, the workload's unit of work (a
pass over every run for ``simulate``, a cold grid and its warm reruns for
``grid``, a job for ``serve``), so traced runs of different length compare.  Ratios and
per-call figures are not divided.
"""

from __future__ import annotations

from typing import Dict

from benchlib import stats
from benchlib.metrics import SAMPLED_ENGINES
from benchlib.tracing import Tracer


def layer_values(tracer: Tracer, per: float) -> Dict[str, float]:
    p = per if per else 1.0
    c = tracer.counters
    secs = tracer.seconds
    out: Dict[str, float] = {}
    out["import.cli_s"] = stats.ratio(secs("import.cli"), tracer.calls["import.cli"])
    out["trace.generate_s"] = secs("trace.generate") / p
    out["trace.tasks"] = c["trace.tasks"] / p
    out["trace.generate_us_per_task"] = 1e6 * stats.ratio(
        secs("trace.generate"), c["trace.tasks"])
    out["plan.build_s"] = secs("plan.build") / p
    out["plan.builds"] = c["plan.builds"] / p
    out["plan.cache_hits"] = c["plan.cache_hits"] / p
    out["runtime.next_task_s"] = secs("runtime.next_task") / p
    out["runtime.notify_completion_s"] = secs("runtime.notify_completion") / p
    out["runtime.calls"] = (tracer.calls["runtime.next_task"]
                            + tracer.calls["runtime.notify_completion"]) / p
    for kind in SAMPLED_ENGINES:
        choose = f"controller.{kind}.choose_mode"
        decisions = tracer.calls[choose]
        out[f"{choose}_s"] = secs(choose) / p
        out[f"controller.{kind}.notify_completion_s"] = (
            secs(f"controller.{kind}.notify_completion") / p)
        out[f"controller.{kind}.decisions"] = decisions / p
        out[f"controller.{kind}.us_per_decision"] = 1e6 * stats.ratio(secs(choose), decisions)
        out[f"controller.{kind}.detailed_frac"] = stats.ratio(
            c[f"controller.{kind}.detailed"], c[f"controller.{kind}.instances"])
        out[f"controller.{kind}.resamples"] = c[f"controller.{kind}.resamples"] / p
    out["engine.run_s"] = secs("engine.run") / p
    out["engine.self_s"] = tracer.self_seconds("engine.run") / p
    out["engine.us_per_instance.detailed"] = 1e6 * stats.ratio(
        c["engine.seconds.detailed"], c["engine.instances.detailed"])
    sampled_s = sum(c[f"engine.seconds.{k}"] for k in SAMPLED_ENGINES)
    sampled_n = sum(c[f"engine.instances.{k}"] for k in SAMPLED_ENGINES)
    out["engine.us_per_instance.sampled"] = 1e6 * stats.ratio(sampled_s, sampled_n)
    out["walk.scalar_s"] = secs("walk.scalar") / p
    out["walk.kernel_s"] = secs("walk.kernel") / p
    out["walk.vector_coverage"] = stats.ratio(
        c["walk.kernel.items"], c["walk.kernel.items"] + c["walk.scalar.items"])
    out["walk.groups"] = c["walk.groups"] / p
    out["walk.max_group"] = c.get("walk.max_group", 0)
    out["memo.hits"] = c["memo.hits"] / p
    out["memo.misses"] = c["memo.misses"] / p
    out["runner.run_spec_s"] = secs("runner.run_spec") / p
    out["store.get_s"] = secs("store.get") / p
    out["store.put_s"] = secs("store.put") / p
    out["store.hits"] = c["store.hits"] / p
    out["store.misses"] = c["store.misses"] / p
    out["store.hit_ratio"] = stats.ratio(c["store.hits"], c["store.hits"] + c["store.misses"])
    return out
