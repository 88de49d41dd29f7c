"""Summary statistics the benchmark reports.

Every timing is reported as a median plus, where enough samples exist, the
highest percentile that still has at least ten samples beyond it; the
sample count always travels with the value so a reader can judge it.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence

#: A percentile is only reported when at least this many samples lie above it.
MIN_TAIL = 10


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0-100) with linear interpolation.

    Matches NumPy's default ("linear") method: rank ``p/100 * (n-1)``
    interpolated between its two neighbouring order statistics.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile {p} outside [0, 100]")
    ordered = sorted(values)
    rank = p / 100.0 * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def typical(values: Sequence[float]) -> float:
    """The lower quartile: the statistic behind ``full_s`` and ``fast_s``.

    Other tenants of a shared host slow everything down in bursts of
    seconds (measured on a 2-vCPU VM: +60-90% for 2-6 s at a time, covering
    up to half of a run).  A median shifts with the share of a run that
    such bursts cover; the lower quartile stays with the undisturbed
    samples as long as bursts cover less than three quarters of the run.
    """
    return percentile(values, 25.0)


def beyond(values: Sequence[float], p: float) -> int:
    """How many samples lie strictly above the ``p``-th percentile."""
    cut = percentile(values, p)
    return sum(1 for value in values if value > cut)


def summarize(values: Sequence[float], percentiles: Iterable[float] = (50.0, 90.0)) -> Dict:
    """``{"n": count, "p50": ..., "p90": ...}``; a tail percentile with
    fewer than :data:`MIN_TAIL` samples beyond it is reported as ``None``."""
    out: Dict[str, Optional[float]] = {"n": len(values)}
    for p in percentiles:
        key = f"p{p:g}"
        if not values:
            out[key] = None
        elif p > 50.0 and beyond(values, p) < MIN_TAIL:
            out[key] = None
        else:
            out[key] = percentile(values, p)
    return out


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    if not values or any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def fmt(value: Optional[float], digits: int = 4) -> str:
    return "n/a" if value is None else f"{value:.{digits}g}"


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0
