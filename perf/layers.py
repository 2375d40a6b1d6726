"""The layer boundaries the traced pass wraps, and the per-layer metrics.

Layers are this repository's modules.  Every name here is a public
callable of the program; one that no longer exists is reported (its
layer's span-derived metrics read as missing) instead of failing the run.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from perf.stats import percentile
from perf.tracing import LAYERS, Tracer, calls_of, layer_totals

#: (layer, module, class, method) -- subclass overrides are wrapped too.
METHODS = (
    ("simnet", "repro.simnet.events", "Simulator", "run_until"),
    ("simnet", "repro.simnet.network", "Network", "send"),
    ("transport", "repro.transport.base", "ResilientTransport", "send"),
    ("soap", "repro.soap.envelope", "Envelope", "from_bytes"),
    ("soap", "repro.soap.envelope", "Envelope", "to_bytes"),
    ("soap", "repro.soap.runtime", "SoapRuntime", "receive"),
    ("soap", "repro.soap.runtime", "SoapRuntime", "send"),
    ("soap", "repro.soap.runtime", "SoapRuntime", "send_bytes"),
    ("soap", "repro.soap.runtime", "SoapRuntime", "forward_envelope"),
    ("handler", "repro.core.handler", "GossipLayer", "preparse_gate"),
    ("handler", "repro.core.handler", "GossipLayer", "on_inbound"),
    ("engine", "repro.core.engine", "GossipEngine", "publish"),
    ("engine", "repro.core.engine", "GossipEngine", "on_gossip"),
    ("engine", "repro.core.engine", "GossipEngine", "on_duplicate_preparse"),
    ("engine", "repro.core.engine", "GossipEngine", "on_batch_control"),
    ("engine", "repro.core.engine", "GossipEngine", "serve_pull"),
    ("engine", "repro.core.engine", "GossipEngine", "serve_fetch"),
    ("store", "repro.core.buffer", "MessageStore", "add"),
    ("store", "repro.core.buffer", "MessageStore", "is_new"),
    ("store", "repro.core.buffer", "MessageStore", "get"),
    ("store", "repro.core.buffer", "MessageStore", "digest"),
    ("store", "repro.core.buffer", "MessageStore", "missing_from"),
    ("store", "repro.core.store", "GossipLog", "append"),
    ("store", "repro.core.store", "GossipLog", "write_snapshot"),
    ("store", "repro.core.store", "GossipLog", "replay"),
    ("obs", "repro.obs.tracing", "RumorTracer", "on_publish"),
    ("obs", "repro.obs.tracing", "RumorTracer", "on_forward"),
    ("obs", "repro.obs.tracing", "RumorTracer", "on_deliver"),
    ("obs", "repro.simnet.metrics", "MetricsRegistry", "counter"),
    ("obs", "repro.simnet.metrics", "MetricsRegistry", "histogram"),
    ("obs", "repro.obs.hub", "NodeScope", "counter"),
    ("obs", "repro.obs.hub", "NodeScope", "histogram"),
)

#: (layer, module, function) -- the byte codec.
FUNCTIONS = (
    ("codec", "repro.core.message", "scan_gossip_message_id"),
    ("codec", "repro.core.message", "scan_gossip_message_ids"),
    ("codec", "repro.core.message", "splice_hops"),
    ("codec", "repro.core.message", "splice_forward"),
    ("codec", "repro.core.batch", "build_batch"),
    ("codec", "repro.core.batch", "split_batch"),
    ("codec", "repro.core.batch", "scan_batch_control"),
)

#: Where the program hands a callback to a timer: (module, class, method).
SCHEDULERS = (
    ("repro.simnet.events", "Simulator", "call_at"),
    ("repro.simnet.events", "Simulator", "call_after"),
    ("repro.simnet.process", "Process", "set_timer"),
    ("repro.transport.aio", "AioScheduler", "call_after"),
)


def _second_argument(args: tuple) -> Optional[str]:
    return args[1] if len(args) > 1 and isinstance(args[1], str) else None


#: Boundaries whose arguments name the rumor, or that count something.
OPTIONS = {
    "GossipEngine.on_gossip": {"rumor": lambda args: args[2].message_id},
    "GossipEngine.on_duplicate_preparse": {"rumor": _second_argument},
    "MessageStore.add": {"rumor": _second_argument},
    "MessageStore.is_new": {"rumor": _second_argument},
    "MessageStore.get": {"rumor": _second_argument},
    "RumorTracer.on_publish": {"rumor": _second_argument},
    "RumorTracer.on_forward": {"rumor": _second_argument},
    "RumorTracer.on_deliver": {"rumor": _second_argument},
    # Bytes handed to the wire; the same boundary on both planes.
    "ResilientTransport.send": {"tally": lambda args, result: len(args[2])},
    # The gate returns False for a frame it consumed before any parse.
    "GossipLayer.preparse_gate": {"tally": lambda args, result: 0 if result else 1},
}


def install(tracer: Tracer) -> None:
    """Rebind every boundary to the tracer (``tracer.restore()`` undoes it)."""
    for layer, module, owner, name in METHODS:
        tracer.patch_method(
            layer, module, owner, name, **OPTIONS.get(f"{owner}.{name}", {})
        )
    for layer, module, name in FUNCTIONS:
        tracer.patch_function(layer, module, name)
    for module, owner, name in SCHEDULERS:
        tracer.patch_scheduler(module, owner, name)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _p(values: List[float], q: float) -> float:
    """A loop-probe percentile in ms; 0 when the tail is not resolved."""
    try:
        return percentile(sorted(values), q) * 1000.0
    except ValueError:
        return 0.0


def per_layer_metrics(
    tracer: Tracer,
    counters: Dict[str, float],
    deliveries: int,
    expected: int,
    traced_cpu_s: float,
    traced_wall_s: float,
    plain_cpu_s: float,
    plain_deliveries: int,
    publish_late_s: List[float],
    t100_s: float,
) -> Dict[str, Optional[float]]:
    """Every ``per_layer`` metric of BENCHMARK.json for one traced pass.

    ``counters`` are the program's own public counters over the traced
    windows; ``plain_*`` describe the untraced twin episodes (same
    seeds) the overhead and coverage ratios are taken against.  A metric
    that needs spans of a vanished boundary is ``None``.
    """
    # Same inputs traced and untraced, so the CPU difference is the tracer's.
    report = tracer.report(
        overhead_s=traced_cpu_s - plain_cpu_s * _ratio(deliveries, plain_deliveries)
    )
    layer_self = layer_totals(report)
    broken = {layer for layer, _ in tracer.missing}
    if None in broken:
        broken.update(LAYERS)

    def self_us(layer: str, per: float) -> Optional[float]:
        if layer in broken:
            return None
        return _ratio(layer_self[layer] * 1e6, per)

    def spans(names, field: str = "calls", layer: Optional[str] = None) -> Optional[float]:
        if layer in broken:
            return None
        return calls_of(report, names, field, layer)

    c = counters.get
    sends = spans([".send"], layer="transport")
    gate_calls = spans(["GossipLayer.preparse_gate"], layer="handler")
    fresh, duplicate = c("gossip.fresh", 0), c("gossip.duplicate", 0)
    serialize_all = c("wire.serialize_count", 0) + c("wire.serialize_reused", 0)
    codec_names = [name for _, _, name in FUNCTIONS]
    registry = [".counter", ".histogram"]
    tracer_hooks = ["RumorTracer.on_publish", "RumorTracer.on_forward", "RumorTracer.on_deliver"]
    soap_runtime = ["SoapRuntime.receive", "SoapRuntime.send", "SoapRuntime.send_bytes",
                    "SoapRuntime.forward_envelope"]

    def per_delivery(value: Optional[float]) -> Optional[float]:
        return None if value is None else _ratio(value, deliveries)

    def self_of(names, layer: str) -> Optional[float]:
        value = spans(names, "self_s", layer)
        return None if value is None else _ratio(value * 1e6, deliveries)

    appends = spans([".append"], layer="store")
    replays = spans([".replay"], layer="store")
    plain_us = _ratio(plain_cpu_s * 1e6, plain_deliveries)
    metrics: Dict[str, Optional[float]] = {
        "delivery.failed_fraction": 1.0 - _ratio(deliveries, expected),
        "simnet.events": c("sim.events", 0),
        "simnet.events_per_delivery": _ratio(c("sim.events", 0), deliveries),
        "simnet.net_sends": c("net.sent", 0),
        "simnet.net_dropped": c("net.dropped", 0),
        "simnet.self_us_per_delivery": self_us("simnet", deliveries),
        "transport.sends": sends,
        "transport.sends_per_delivery": per_delivery(sends),
        "transport.bytes_per_delivery": per_delivery(spans([".send"], "tally", "transport")),
        "transport.retries": c("health.retries", 0),
        "transport.failures": c("health.send_failures", 0),
        "transport.self_us_per_send": None if sends is None else self_us("transport", sends),
        "loop.tasks_per_delivery": _ratio(tracer.tasks, deliveries),
        "loop.lag_p50_ms": _p(tracer.loop_lags, 50),
        "loop.lag_p90_ms": _p(tracer.loop_lags, 90),
        "loop.busy_fraction": _ratio(traced_cpu_s, traced_wall_s) if tracer.loop_lags else 0.0,
        "loop.publish_late_max_ms": max(publish_late_s, default=0.0) * 1000.0,
        "loop.t100_s": t100_s,
        "soap.receives": spans(["SoapRuntime.receive"], layer="soap"),
        "soap.parses": c("wire.parse_count", 0),
        "soap.parses_per_delivery": _ratio(c("wire.parse_count", 0), deliveries),
        "soap.parse_self_us_per_delivery": self_of(["Envelope.from_bytes"], "soap"),
        "soap.serializes": c("wire.serialize_count", 0),
        "soap.serialize_reuse_ratio": _ratio(c("wire.serialize_reused", 0), serialize_all),
        "soap.serialize_self_us_per_delivery": self_of(["Envelope.to_bytes"], "soap"),
        "soap.runtime_self_us_per_delivery": self_of(soap_runtime, "soap"),
        "soap.malformed": c("soap.malformed", 0),
        "handler.gate_calls": gate_calls,
        "handler.gate_drop_ratio": None if gate_calls is None else _ratio(
            calls_of(report, ["GossipLayer.preparse_gate"], "tally"), gate_calls
        ),
        "handler.self_us_per_arrival": None if gate_calls is None else self_us("handler", gate_calls),
        "codec.calls_per_delivery": per_delivery(spans(codec_names, layer="codec")),
        "codec.batches_built": c("batch.batches_built", 0),
        "codec.rumors_per_batch": _ratio(c("batch.rumors_batched", 0), c("batch.batches_sent", 0)),
        "codec.batches_skipped_preparse": c("batch.batches_skipped_preparse", 0),
        "codec.self_us_per_delivery": self_us("codec", deliveries),
        "engine.publishes": c("gossip.publish", 0),
        "engine.first_arrivals": fresh,
        "engine.duplicates": duplicate,
        "engine.duplicate_ratio": _ratio(duplicate, duplicate + fresh),
        "engine.envelopes_per_delivery": _ratio(c("soap.sent", 0), deliveries),
        "engine.self_us_per_delivery": self_us("engine", deliveries),
        "store.adds": spans(["MessageStore.add"], layer="store"),
        "store.lookups": spans(["MessageStore.is_new", "MessageStore.get"], layer="store"),
        "store.digest_calls": spans(["MessageStore.digest"], layer="store"),
        "store.missing_from_calls": spans(["MessageStore.missing_from"], layer="store"),
        "store.self_us_per_delivery": self_us("store", deliveries),
        "wal.appends": c("recovery.log_appends", 0),
        "wal.append_self_us": None if appends is None else _ratio(
            calls_of(report, [".append"], "self_s", "store") * 1e6, appends
        ),
        "wal.snapshots": c("recovery.snapshots", 0),
        "wal.replays": replays,
        "wal.replay_ms_per_restart": None if replays is None else _ratio(
            calls_of(report, [".replay"], "total_s", "store") * 1e3, c("recovery.restarts", 0)
        ),
        "wal.replayed_messages": c("recovery.replayed_messages", 0),
        "wal.corrupt_records": c("recovery.corrupt_records", 0),
        "obs.tracer_calls_per_delivery": per_delivery(spans(tracer_hooks, layer="obs")),
        "obs.registry_lookups_per_delivery": per_delivery(spans(registry, layer="obs")),
        "obs.self_us_per_delivery": self_us("obs", deliveries),
        "other.self_us_per_delivery": self_us("other", deliveries),
        "trace.overhead_ratio": _ratio(_ratio(traced_cpu_s * 1e6, deliveries), plain_us),
        "trace.coverage": _ratio(
            sum(layer_self.values()) / max(deliveries, 1) * 1e6, plain_us
        ),
    }
    return metrics
