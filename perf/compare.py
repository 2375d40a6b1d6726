#!/usr/bin/env python3
"""Compare two result files of perf/run.py: ``compare.py A.json B.json``.

One row per (end-to-end metric, workload): both medians with their
min/max, the change of B against A (A is the base), the metric's bound,
and a verdict:

* ``regressed``  -- B's median is worse than A's by more than the bound;
* ``improved``   -- B's median is better by more than the bound, and the
  difference is resolved;
* ``unresolved`` -- the run-to-run range of either set is wider than the
  bound and not every run of B beats every run of A;
* ``unchanged``  -- otherwise.

Exit status is non-zero when any row is ``regressed``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Sequence, Tuple

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perf.spec import load_spec  # noqa: E402

#: ``failed_fraction`` is 0 on a healthy run, so its bound is absolute.
FAILED_FRACTION_BOUND = 0.002


def verdict(
    a: Sequence[float], b: Sequence[float], better: str, bound: float,
    absolute: bool = False,
) -> Tuple[str, float]:
    """The verdict for one row and B's change against A (relative to A's
    median unless ``absolute``; positive = the value went up)."""
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(a)
    scale = 1.0 if absolute else abs(base)
    if scale == 0.0:
        raise ValueError("a relative bound needs a non-zero base")
    change = (statistics.median(b) - base) / scale
    worse = sign * change
    wide = max(max(a) - min(a), max(b) - min(b)) / scale > bound
    all_better = all(sign * y < sign * x for x in a for y in b)
    if worse > bound:
        return "regressed", change
    if wide and not all_better:
        return "unresolved", change
    if worse < -bound:
        return "improved", change
    return "unchanged", change


def rows(first: Dict, second: Dict) -> List[Tuple]:
    spec = load_spec()
    metrics = [(m["name"], m["unit"], m["better"], m["bound"], False) for m in spec["end_to_end"]]
    metrics.append(("failed_fraction", "ratio", "lower", FAILED_FRACTION_BOUND, True))
    table = []
    for workload in first["workloads"]:
        if workload not in second["workloads"]:
            continue
        runs_a = first["workloads"][workload]["runs"]
        runs_b = second["workloads"][workload]["runs"]
        if not runs_a or not runs_b:
            continue
        for name, unit, better, bound, absolute in metrics:
            pick = (lambda run: run[name]) if absolute else (lambda run: run["metrics"][name])
            a, b = [pick(run) for run in runs_a], [pick(run) for run in runs_b]
            outcome, change = verdict(a, b, better, bound, absolute)
            table.append((workload, name, unit, a, b, change, bound, absolute, outcome))
    return table


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        first = json.load(handle)
    with open(argv[1]) as handle:
        second = json.load(handle)
    print(f"A: {argv[0]}  sha {first['host']['git_sha'][:12]}  seed {first['seed']}")
    print(f"B: {argv[1]}  sha {second['host']['git_sha'][:12]}  seed {second['seed']}")
    print(f"{'workload':<12} {'metric':<20} {'A median [min, max]':>34} "
          f"{'B median [min, max]':>34} {'change (base A)':>16} {'bound':>7}  verdict")
    regressed = False
    for workload, name, unit, a, b, change, bound, absolute, outcome in rows(first, second):
        def cell(values):
            return (f"{statistics.median(values):.5g} "
                    f"[{min(values):.5g}, {max(values):.5g}]")
        shown = f"{change:+.4f} abs" if absolute else f"{change:+.1%} of {statistics.median(a):.4g}"
        limit = f"{bound:g}" if absolute else f"{bound:.0%}"
        print(f"{workload:<12} {name:<20} {cell(a):>34} {cell(b):>34} {shown:>16} "
              f"{limit:>7}  {outcome}  ({unit})")
        regressed |= outcome == "regressed"
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
