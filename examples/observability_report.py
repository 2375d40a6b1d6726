"""The observability layer end to end: hub, tracer, report, exports.

One seeded dissemination is measured three ways from the same
:class:`~repro.obs.hub.MetricsHub`:

1. the operator report ``repro obs report`` prints (per-node delivery,
   rounds-to-99%, wire/batch counter groups),
2. causal span queries -- the infection curve and rounds percentiles the
   experiments derive from publish/forward/deliver hops, and
3. machine-readable exports (JSONL records, Prometheus text format).

Run:  python examples/observability_report.py
"""

import io
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.obs.export import dump_jsonl, load_jsonl, prometheus_text
from repro.obs.report import run_seeded_report


def main() -> None:
    group, text = run_seeded_report(
        nodes=40, consumers=0, seed=21, style="push", fanout=4, rounds=7
    )
    print(text)

    # The same hub, queried directly: every published rumor has a causal
    # span keyed by its wire MessageId.
    [span] = group.hub.tracer.spans()
    print(f"infection curve ({len(span.infection_curve())} steps):")
    for time, infected in span.infection_curve()[:: max(1, len(span.infection_curve()) // 6)]:
        print(f"  t={time:6.3f}s  {infected:3d}/{group.population} infected")
    print(f"median rounds to delivery: {group.hub.tracer.rounds_percentile(50):.1f}")
    print(f"p99 rounds to delivery:    {group.hub.tracer.rounds_percentile(99):.1f}")

    # Structured exports round-trip.
    stream = io.StringIO()
    records = dump_jsonl(group.hub, stream)
    parsed = load_jsonl(io.StringIO(stream.getvalue()))
    assert len(parsed) == records
    print(f"\nJSONL export: {records} metric records (round-tripped)")

    prom = prometheus_text(group.hub)
    wire_lines = [line for line in prom.splitlines() if line.startswith("repro_wire")]
    print("Prometheus text format (wire family):")
    for line in wire_lines:
        print(f"  {line}")

    # Pure push has no repair traffic, so a straggler or two is normal.
    assert span.delivered_count >= 0.9 * (group.population - 1), "low coverage"


if __name__ == "__main__":
    main()
