"""Human-readable observability reports (``repro obs report``).

Renders one :class:`~repro.obs.hub.MetricsHub` -- counters, the counter
groups, the rumor tracer's causal spans, rolling-window rates, the SLO
alert timeline, telemetry latency histograms, and the adaptive
controller's decision timeline -- as the operator-facing text the CLI
prints.  The numbers answer the paper's questions directly:
who got the rumor, in how many rounds, at what wire cost.

:func:`report_model` is the machine-readable twin (``repro obs report
--json``): the same facts as one JSON-serialisable dict with stable key
order, for scripts and dashboards.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.obs.hub import MetricsHub
from repro.obs.tracing import RumorSpan

#: Stat-group fields worth a line in the operator report (the full set
#: is in the JSONL/Prometheus exports; the report curates).
_GROUP_HIGHLIGHTS = {
    "wire": (
        "serialize_count",
        "serialize_reused",
        "parse_count",
        "parse_reused",
        "dedup_preparse_hits",
    ),
    "batch": (
        "batches_built",
        "batches_sent",
        "rumors_batched",
        "batches_received",
        "rumors_unpacked",
        "batches_skipped_preparse",
    ),
    "health": (
        "send_failures",
        "retries",
        "peers_suspected",
        "peers_restored",
        "breaker_opened",
        "fanout_boosts",
    ),
    "recovery": (
        "restarts",
        "replayed_messages",
        "catch_up_rounds",
        "catch_ups_completed",
    ),
    "control": (
        "epochs",
        "boosts",
        "shrinks",
        "escalations",
        "deescalations",
        "slo_breaches",
        "cooldown_holds",
        "ceiling_clamps",
        "pressure_reliefs",
    ),
    "overload": (
        "admitted",
        "shed_digests",
        "shed_feedback",
        "shed_pull",
        "shed_payloads",
        "publish_rejected",
        "edge_rejected",
        "retry_after_honored",
        "throttled",
        "pressure_highs",
    ),
}


def _decision_timeline(hub: MetricsHub, limit: int = 40) -> List[str]:
    """The adaptive controller's decisions, one line per epoch.

    Holds are compressed into ``... N holds ...`` runs so a long calm
    stretch does not drown the boosts/shrinks an operator diagnoses from.
    """
    decisions = hub.decisions
    if not decisions:
        return []
    lines = ["controller decisions"]
    rows: List[Tuple[str, str]] = []
    held = 0

    def flush_holds() -> None:
        nonlocal held
        if held:
            rows.append(("", f"... {held} hold epoch(s) ..."))
            held = 0

    interesting = [d for d in decisions if d.action != "hold"]
    budget = max(0, limit - len(interesting))
    for decision in decisions:
        if decision.action == "hold" and budget <= 0:
            held += 1
            continue
        if decision.action == "hold":
            budget -= 1
        flush_holds()
        signals = decision.signals
        delivery = (
            f"{signals.delivery:.3f}" if signals.delivery is not None else "-"
        )
        rows.append(
            (
                f"t={decision.time:.1f}s",
                f"{decision.action:<6} f={decision.fanout} r={decision.rounds} "
                f"{decision.style} batch={decision.max_batch_rumors} "
                f"delivery={delivery} ({'; '.join(decision.reasons)})",
            )
        )
    flush_holds()
    lines.extend(_format_rows(rows))
    return lines


def _format_rows(rows: List[Tuple[str, str]], indent: str = "  ") -> List[str]:
    if not rows:
        return []
    width = max(len(label) for label, _ in rows)
    return [f"{indent}{label:<{width}}  {value}" for label, value in rows]


def _span_section(span: RumorSpan, population: Optional[int]) -> List[str]:
    lines = [f"rumor {span.message_id} (origin {span.origin})"]
    rows: List[Tuple[str, str]] = []
    delivered = span.delivered_count
    if population is not None and population > 1:
        others = population - 1
        rows.append(
            ("delivered", f"{delivered}/{others} ({delivered / others:.1%})")
        )
    else:
        rows.append(("delivered", str(delivered)))
    rounds = span.rounds_of_deliveries()
    if rounds:
        rows.append(("rounds (max)", str(max(rounds))))
        if population is not None:
            r99 = span.rounds_to_fraction(0.99, population)
            rows.append(
                ("rounds to 99%", str(r99) if r99 is not None else "not reached")
            )
        curve = span.infection_curve()
        if curve:
            rows.append(
                ("infected over time",
                 " ".join(f"{count}@{time:.2f}s" for time, count in curve[-5:]))
            )
    lines.extend(_format_rows(rows))
    return lines


def per_node_deliveries(hub: MetricsHub) -> Dict[str, int]:
    """Delivery counts per node, from the tracer's spans."""
    return hub.tracer.deliveries_per_node()


def _window_section(hub: MetricsHub) -> List[str]:
    windows = hub.windows()
    if not windows:
        return []
    lines = ["rolling windows"]
    rows = [
        (
            name,
            f"{window.rate():.2f}/s "
            f"(total {window.total():g} over {window.span:g}s)",
        )
        for name, window in sorted(windows.items())
    ]
    lines.extend(_format_rows(rows))
    return lines


def _alert_section(hub: MetricsHub) -> List[str]:
    if not hub.alerts:
        return []
    lines = ["slo alerts"]
    rows = [
        (
            f"t={alert.time:.1f}s",
            f"{alert.name} {alert.state} burn={alert.burn:.2f} "
            f"(slo {alert.slo:g}, window {alert.window:g}s)",
        )
        for alert in hub.alerts
    ]
    lines.extend(_format_rows(rows))
    return lines


def _histogram_section(hub: MetricsHub) -> List[str]:
    histograms = {
        name: histogram
        for name, histogram in sorted(hub._histograms.items())
        if histogram.count
    }
    if not histograms:
        return []
    lines = ["latency histograms"]
    rows = [
        (
            name,
            f"p50={histogram.percentile(50):.2f} "
            f"p95={histogram.percentile(95):.2f} "
            f"p99={histogram.percentile(99):.2f} "
            f"max={histogram.max():.2f} (n={histogram.count})",
        )
        for name, histogram in histograms.items()
    ]
    lines.extend(_format_rows(rows))
    return lines


def _profiler_section(profile: Dict[str, Dict[str, float]]) -> List[str]:
    if not profile:
        return []
    lines = ["profiler phases"]
    rows = [
        (
            name,
            f"wall={timing.get('wall_s', 0.0):.3f}s "
            f"cpu={timing.get('cpu_s', 0.0):.3f}s "
            f"sim={timing.get('sim_s', 0.0):.3f}s "
            f"(x{int(timing.get('count', 0))})",
        )
        for name, timing in sorted(profile.items())
    ]
    lines.extend(_format_rows(rows))
    return lines


def render_report(
    hub: MetricsHub,
    population: Optional[int] = None,
    title: str = "observability report",
    profile: Optional[Dict[str, Dict[str, float]]] = None,
) -> str:
    """Render ``hub`` as the operator-facing text report.

    Sections: per-rumor causal spans (delivery fraction, rounds-to-99%,
    infection curve tail), per-node delivery counts, the highlighted
    wire / batch / health / recovery / control counter-group fields,
    rolling-window rates and the SLO alert timeline (when telemetry
    ran), latency histograms, the adaptive controller's decision
    timeline, and -- when a :class:`~repro.obs.profiler.Profiler` report
    is passed via ``profile`` -- per-phase wall/CPU/sim timings.
    """
    lines = [title, "=" * len(title)]

    spans = hub.tracer.spans()
    if spans:
        lines.append("")
        for span in spans:
            lines.extend(_span_section(span, population))
        per_node = per_node_deliveries(hub)
        if per_node:
            lines.append("")
            lines.append("deliveries per node")
            lines.extend(
                _format_rows(
                    [(node, str(count)) for node, count in sorted(per_node.items())]
                )
            )
    else:
        lines.append("")
        lines.append("no rumors traced (nothing published)")

    counters = hub.counters()
    wire_rows = [
        (name, str(counters[name]))
        for name in ("net.sent", "net.bytes", "net.delivered", "net.dropped")
        if name in counters
    ]
    if wire_rows:
        lines.append("")
        lines.append("network")
        lines.extend(_format_rows(wire_rows))

    for group_name, fields in _GROUP_HIGHLIGHTS.items():
        values = getattr(hub, group_name).snapshot()
        rows = [(field, str(values[field])) for field in fields]
        if any(value != "0" for _, value in rows):
            lines.append("")
            lines.append(group_name)
            lines.extend(_format_rows(rows))

    for section in (
        _window_section(hub),
        _alert_section(hub),
        _histogram_section(hub),
    ):
        if section:
            lines.append("")
            lines.extend(section)

    timeline = _decision_timeline(hub)
    if timeline:
        lines.append("")
        lines.extend(timeline)

    profiler_lines = _profiler_section(profile or {})
    if profiler_lines:
        lines.append("")
        lines.extend(profiler_lines)

    lines.append("")
    return "\n".join(lines)


def _span_model(span: RumorSpan, population: Optional[int]) -> Dict[str, Any]:
    rounds = span.rounds_of_deliveries()
    model: Dict[str, Any] = {
        "message_id": span.message_id,
        "origin": span.origin,
        "published_at": span.publish_time,
        "delivered": span.delivered_count,
        "rounds_max": max(rounds) if rounds else 0,
        "infection_curve": [
            [time, count] for time, count in span.infection_curve()
        ],
    }
    if population is not None and population > 1:
        model["delivered_fraction"] = min(
            1.0, span.delivered_count / (population - 1)
        )
        model["rounds_to_99"] = span.rounds_to_fraction(0.99, population)
    return model


def report_model(
    hub: MetricsHub,
    population: Optional[int] = None,
    profile: Optional[Dict[str, Dict[str, float]]] = None,
) -> Dict[str, Any]:
    """The report as one JSON-serialisable dict (``repro obs report --json``).

    Same facts as :func:`render_report`, uncurated: every counter and
    counter-group field, per-rumor span analysis, rolling-window rates, the
    SLO alert timeline, histogram summaries, controller decisions, and
    the optional profiler phases.  Serialise with ``sort_keys=True`` for
    stable output.
    """
    from repro.obs.export import _histogram_summary

    model: Dict[str, Any] = {
        "population": population,
        "rumors": [
            _span_model(span, population) for span in hub.tracer.spans()
        ],
        "deliveries_per_node": per_node_deliveries(hub),
        "counters": hub.counters(),
        "gauges": hub.gauges(),
        "groups": {
            group: getattr(hub, group).snapshot()
            for group in _GROUP_HIGHLIGHTS
        },
        "histograms": {
            name: _histogram_summary(histogram)
            for name, histogram in hub._histograms.items()
        },
        "windows": {
            name: {
                "rate": window.rate(),
                "total": window.total(),
                "count": window.count(),
                "span": window.span,
            }
            for name, window in hub.windows().items()
        },
        "alerts": [alert.to_value() for alert in hub.alerts],
        "decisions": [decision.to_value() for decision in hub.decisions],
        "profile": profile or {},
    }
    return model


def run_seeded_report(
    nodes: int = 50,
    consumers: int = 10,
    seed: int = 7,
    style: str = "push",
    fanout: int = 4,
    rounds: int = 7,
    duration: float = 10.0,
    value: Any = None,
    shards: int = 1,
    telemetry: Any = None,
) -> Tuple[Any, str]:
    """One seeded dissemination plus its rendered report.

    Shared by ``repro obs report`` and ``examples/observability_report.py``:
    builds a :class:`~repro.core.api.GossipGroup` (or, with ``shards > 1``,
    a :class:`~repro.core.shard.ShardedGossipGroup` whose K worker hubs are
    merged for the report -- see
    :meth:`~repro.obs.hub.MetricsHub.merge_snapshot`), publishes one rumor,
    runs ``duration`` simulated seconds, and returns ``(group, text)``.
    Sharded groups should be ``close()``d by the caller.
    """
    from repro.core.api import GossipConfig

    config = GossipConfig(
        n_disseminators=nodes - consumers - 1,
        n_consumers=consumers,
        seed=seed,
        params={"style": style, "fanout": fanout, "rounds": rounds},
        auto_tune=False,
        shards=shards,
        telemetry=telemetry,
    )
    group = config.build()
    group.setup()
    group.publish(value if value is not None else {"report": True})
    group.run_for(duration)
    shard_note = f", {shards} shards merged" if shards > 1 else ""
    text = render_report(
        group.hub,
        population=group.population,
        title=(
            f"observability report (n={group.population}, seed={seed}, "
            f"{style}{shard_note})"
        ),
    )
    return group, text
