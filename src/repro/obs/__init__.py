"""Unified observability for the WS-Gossip reproduction.

One :class:`MetricsHub` per simulation scopes counters, gauges,
histograms, time series, the six counter groups (``hub.wire`` and its
siblings) and the causal rumor tracer; hub counters chain to the
process-wide default hub's, so aggregate reads keep working.  Exporters render a hub as JSONL or
Prometheus text; the :class:`Profiler` times benchmark phases.

See ``docs/OBSERVABILITY.md`` for the full tour.
"""

from repro.obs.export import (
    dump_jsonl,
    hub_snapshot,
    load_jsonl,
    prometheus_text,
    read_jsonl,
    write_jsonl,
)
from repro.obs.hub import (
    COUNTER_GROUPS,
    CounterGroup,
    LabeledCounter,
    LabeledGauge,
    MetricsHub,
    NodeScope,
    current_hub,
    default_hub,
    hub_of,
    use_hub,
)
from repro.obs.profiler import Profiler
from repro.obs.tracing import RumorSpan, RumorTracer

__all__ = [
    "COUNTER_GROUPS",
    "CounterGroup",
    "LabeledCounter",
    "LabeledGauge",
    "MetricsHub",
    "NodeScope",
    "Profiler",
    "RumorSpan",
    "RumorTracer",
    "current_hub",
    "default_hub",
    "dump_jsonl",
    "hub_of",
    "hub_snapshot",
    "load_jsonl",
    "prometheus_text",
    "read_jsonl",
    "use_hub",
    "write_jsonl",
]
