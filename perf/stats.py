"""Small statistics helpers shared by the harness, the tracer and compare.py."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it (choosing-metrics guide, section 1).
MIN_SAMPLES_BEYOND = 10


def percentile(
    sorted_values: Sequence[float],
    q: float,
    population: int = 0,
    missing: float = math.inf,
) -> float:
    """Nearest-rank percentile ``q`` (0 < q < 100) of an ascending sample.

    ``population`` is the number of operations attempted; the
    ``population - len(sorted_values)`` that never completed rank after
    every completed one and read as ``missing`` (a failed operation
    misses any latency limit).

    Raises:
        ValueError: when fewer than ``MIN_SAMPLES_BEYOND`` samples lie
            beyond the requested rank -- the tail is not resolved.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be in (0, 100): {q!r}")
    total = max(population, len(sorted_values))
    rank = max(1, math.ceil(q / 100.0 * total))
    beyond = total - rank
    if beyond < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{q:g} of {total} samples has only {beyond} beyond it "
            f"(need {MIN_SAMPLES_BEYOND})"
        )
    if rank > len(sorted_values):
        return missing
    return sorted_values[rank - 1]


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's
    steadiness measure); 0.0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / abs(middle) if middle else math.inf


def better_quartile(values: Sequence[float], better: str) -> float:
    """The quartile of ``values`` on the better side (first for
    ``"lower"``, third for ``"higher"``, interpolated).

    How a run condenses its episodes: on a shared host interference only
    ever makes an episode worse and comes and goes within seconds, so the
    better episodes repeat far more closely than the median does; taking
    the quartile rather than the single best keeps one lucky episode from
    setting the number.
    """
    if len(values) == 1:
        return values[0]
    first, _, third = statistics.quantiles(values, n=4, method="inclusive")
    return first if better == "lower" else third


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, min and max of a run set (what every table prints)."""
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
    }


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> List[float]:
    """Self time of every span: its duration minus the part of that
    interval its child spans cover.

    Children may nest, abut or overlap one another (concurrent children
    of one parent); overlap is counted once, and a child is clipped to
    its parent's interval.  ``parents[i]`` is the index of span ``i``'s
    parent, or -1 for a root.
    """
    count = len(starts)
    order = sorted(range(count), key=starts.__getitem__)
    covered = [0.0] * count
    covered_until = list(starts)
    for index in order:
        parent = parents[index]
        if parent < 0:
            continue
        low = max(starts[index], covered_until[parent])
        high = min(ends[index], ends[parent])
        if high > low:
            covered[parent] += high - low
            covered_until[parent] = high
    return [ends[i] - starts[i] - covered[i] for i in range(count)]
