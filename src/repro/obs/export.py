"""Structured exporters for a :class:`~repro.obs.hub.MetricsHub`.

Two formats, both dependency-free:

* JSON lines, one record per metric, following the :mod:`repro.simnet.traceio`
  conventions (plain stdlib JSON, ``sort_keys``, a ``ValueError`` naming the
  offending line on load).
* The Prometheus text exposition format (version 0.0.4) -- what
  :class:`~repro.transport.aio.AsyncHttpNode` serves at ``/v1/metrics`` --
  with proper metric
  name sanitisation, label value escaping, and ``# HELP`` / ``# TYPE``
  family headers.
"""

from __future__ import annotations

import json
import re
from typing import Dict, IO, List, Optional

from repro.obs.hub import COUNTER_GROUPS, MetricsHub


def hub_snapshot(hub: MetricsHub) -> Dict:
    """Every metric in ``hub`` as one plain dict (JSON-serialisable)."""
    snapshot: Dict = {
        "name": hub.name,
        "counters": hub.counters(),
        "gauges": hub.gauges(),
        "labeled_counters": [
            {"name": name, "labels": dict(labels), "value": value}
            for (name, labels), value in hub.labeled_counters().items()
        ],
        "labeled_gauges": [
            {"name": name, "labels": dict(labels), "value": value}
            for (name, labels), value in hub.labeled_gauges().items()
        ],
        "histograms": {
            name: _histogram_summary(histogram)
            for name, histogram in hub._histograms.items()
        },
        "series": {
            name: series.samples() for name, series in hub._series.items()
        },
        "decisions": [decision.to_value() for decision in hub.decisions],
        "windows": {
            name: {"rate": window.rate(), "total": window.total(),
                   "count": window.count(), "span": window.span}
            for name, window in hub.windows().items()
        },
        "alerts": [alert.to_value() for alert in hub.alerts],
    }
    for group in COUNTER_GROUPS:
        snapshot[group] = getattr(hub, group).snapshot()
    return snapshot


def _histogram_summary(histogram) -> Dict:
    if histogram.count == 0:
        return {"count": 0}
    return {
        "count": histogram.count,
        "sum": histogram.total,
        "mean": histogram.mean(),
        "p50": histogram.percentile(50),
        "p95": histogram.percentile(95),
        "p99": histogram.percentile(99),
        "max": histogram.max(),
    }


# -- JSON lines ---------------------------------------------------------------


def dump_jsonl(hub: MetricsHub, stream: IO[str]) -> int:
    """Write one JSON object per metric; returns the number written.

    Record kinds: ``counter`` / ``gauge`` (optionally labelled; the
    counter groups' fields are counters named ``<group>.<field>``),
    ``histogram`` (summary statistics), ``series`` (raw samples),
    ``decision`` (one per
    adaptive-controller epoch, in time order), ``window`` (one per rolling
    window: rate/total over its span) and ``alert`` (one per SLO alert
    edge, in time order).
    """
    count = 0

    def emit(record: Dict) -> None:
        nonlocal count
        stream.write(json.dumps(record, sort_keys=True) + "\n")
        count += 1

    for name, value in sorted(hub.counters().items()):
        emit({"kind": "counter", "name": name, "value": value})
    for (name, labels), value in sorted(hub.labeled_counters().items()):
        emit(
            {
                "kind": "counter",
                "name": name,
                "labels": dict(labels),
                "value": value,
            }
        )
    for name, value in sorted(hub.gauges().items()):
        emit({"kind": "gauge", "name": name, "value": value})
    for (name, labels), value in sorted(hub.labeled_gauges().items()):
        emit(
            {"kind": "gauge", "name": name, "labels": dict(labels), "value": value}
        )
    for name, histogram in sorted(hub._histograms.items()):
        record = {"kind": "histogram", "name": name}
        record.update(_histogram_summary(histogram))
        emit(record)
    for name, series in sorted(hub._series.items()):
        emit({"kind": "series", "name": name, "samples": series.samples()})
    for decision in hub.decisions:
        record = {"kind": "decision"}
        record.update(decision.to_value())
        emit(record)
    for name, window in sorted(hub.windows().items()):
        emit(
            {
                "kind": "window",
                "name": name,
                "rate": window.rate(),
                "total": window.total(),
                "count": window.count(),
                "span": window.span,
            }
        )
    for alert in hub.alerts:
        record = {"kind": "alert"}
        record.update(alert.to_value())
        emit(record)
    return count


def load_jsonl(stream: IO[str]) -> List[Dict]:
    """Parse :func:`dump_jsonl` output back into a list of records.

    Raises:
        ValueError: on lines that are not valid metric records.
    """
    records: List[Dict] = []
    for line_number, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict) or "kind" not in record:
                raise ValueError("not a metric record")
        except (json.JSONDecodeError, ValueError) as exc:
            raise ValueError(f"bad metric record on line {line_number}") from exc
        records.append(record)
    return records


# -- Prometheus text format ---------------------------------------------------

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_OK = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(name: str, prefix: str = "repro_") -> str:
    sanitized = _NAME_OK.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return prefix + sanitized


def _label_name(name: str) -> str:
    sanitized = _LABEL_OK.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(labels) -> str:
    if not labels:
        return ""
    rendered = ",".join(
        f'{_label_name(key)}="{_escape_label_value(value)}"'
        for key, value in labels
    )
    return "{" + rendered + "}"


def _format_value(value: float) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


#: Curated ``# HELP`` texts for the well-known metric names; anything else
#: gets a generic line derived from its source name.
_HELP_TEXTS = {
    "gossip.publish": "Rumors published by this hub's nodes.",
    "gossip.fresh": "First-time rumor deliveries.",
    "gossip.duplicate": "Duplicate rumor arrivals consumed by dedup.",
    "gossip.forward": "Fresh rumors forwarded, once per rumor whatever the fanout.",
    "gossip.hops-exhausted": "Rumors dropped with no forwarding budget left.",
    "net.sent": "Messages handed to the network fabric.",
    "net.delivered": "Messages delivered by the network fabric.",
    "net.dropped": "Messages lost by the network fabric.",
    "soap.sent": "SOAP envelopes sent by runtimes.",
    "soap.delivered": "SOAP envelopes dispatched to services.",
    "telemetry.samples": "Sampled trace-context deliveries accounted.",
    "telemetry.skew_guarded": "Trace samples discarded by the clock-skew guard.",
    "telemetry.path_clamped": "Trace samples discarded for exceeding max path length.",
    "telemetry.hop_latency_ms": "Per-hop dissemination latency from sampled wire trace context (ms).",
    "telemetry.e2e_latency_ms": "Publish-to-delivery latency from sampled wire trace context (ms).",
}


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _family_header(
    lines: List[str], family: str, kind: str, source_name: str
) -> None:
    """Append the ``# HELP`` / ``# TYPE`` header pair for one family."""
    help_text = _HELP_TEXTS.get(source_name, f"Value of {source_name}.")
    lines.append(f"# HELP {family} {_escape_help(help_text)}")
    lines.append(f"# TYPE {family} {kind}")


def prometheus_text(hub: MetricsHub, prefix: str = "repro_") -> str:
    """Render every metric in the Prometheus text exposition format.

    Counters export as ``counter`` families (node labelled series ride
    under the same family as the unlabelled aggregate), every declared
    counter-group field included, at 0 when never counted; gauges as ``gauge``; histograms as ``summary`` families
    with ``quantile`` series plus ``_sum``/``_count``.  Every family is
    introduced by its ``# HELP`` and ``# TYPE`` header pair.
    """
    lines: List[str] = []

    # counter families: unlabelled aggregate + labelled series.
    counters = hub.counters()
    for group, fields in COUNTER_GROUPS.items():
        for field in fields:
            counters.setdefault(f"{group}.{field}", 0)
    labeled_by_name: Dict[str, List] = {}
    for (name, labels), value in hub.labeled_counters().items():
        labeled_by_name.setdefault(name, []).append((labels, value))
    counter_names = sorted(set(counters) | set(labeled_by_name))
    for name in counter_names:
        family = _metric_name(name, prefix)
        _family_header(lines, family, "counter", name)
        if name in counters:
            lines.append(f"{family} {_format_value(counters[name])}")
        for labels, value in sorted(labeled_by_name.get(name, [])):
            lines.append(f"{family}{_render_labels(labels)} {_format_value(value)}")

    gauge_labeled: Dict[str, List] = {}
    for (name, labels), value in hub.labeled_gauges().items():
        gauge_labeled.setdefault(name, []).append((labels, value))
    gauge_names = sorted(set(hub.gauges()) | set(gauge_labeled))
    for name in gauge_names:
        family = _metric_name(name, prefix)
        _family_header(lines, family, "gauge", name)
        if name in hub.gauges():
            lines.append(f"{family} {_format_value(hub.gauges()[name])}")
        for labels, value in sorted(gauge_labeled.get(name, [])):
            lines.append(f"{family}{_render_labels(labels)} {_format_value(value)}")

    for name, histogram in sorted(hub._histograms.items()):
        family = _metric_name(name, prefix)
        _family_header(lines, family, "summary", name)
        if histogram.count:
            for quantile in (0.5, 0.95, 0.99):
                value = histogram.percentile(quantile * 100.0)
                lines.append(
                    f'{family}{{quantile="{quantile}"}} {_format_value(value)}'
                )
        lines.append(f"{family}_sum {_format_value(histogram.total)}")
        lines.append(f"{family}_count {histogram.count}")

    return "\n".join(lines) + "\n"


def write_jsonl(hub: MetricsHub, path: str) -> int:
    """Convenience wrapper: :func:`dump_jsonl` to a file path."""
    with open(path, "w", encoding="utf-8") as stream:
        return dump_jsonl(hub, stream)


def read_jsonl(path: str) -> List[Dict]:
    """Convenience wrapper: :func:`load_jsonl` from a file path."""
    with open(path, "r", encoding="utf-8") as stream:
        return load_jsonl(stream)
