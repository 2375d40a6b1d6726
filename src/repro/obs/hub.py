"""The metrics hub: per-simulation, label-aware metric scoping.

A :class:`MetricsHub` is a :class:`~repro.simnet.metrics.MetricsRegistry`
that additionally owns the wire/batch/health/recovery/control stat groups, a
:class:`~repro.obs.tracing.RumorTracer`, labelled per-node counter views
(:class:`NodeScope`), and gauges.  Every :class:`~repro.simnet.network.Network`
(and therefore every :class:`~repro.core.api.GossipGroup` /
:class:`~repro.core.decentralized.DecentralizedGroup`) gets its own hub, so
two simulations in one process never share metric state.

Hubs chain to the process-wide **default hub**: a child hub's stat-group
writes propagate their deltas upward (see
:class:`~repro.simnet.metrics.StatGroup`), so ``default_hub().wire`` and
its siblings report process-wide aggregates.

Call sites that have no handle on a hub (the :mod:`repro.soap.envelope`
codec, deep inside ``to_bytes``/``from_bytes``) use :func:`current_hub`,
a thread-local stack pushed by :func:`use_hub`;
:meth:`~repro.core.api.GossipGroup.run_for` wraps the simulation in it so
wire-path costs land on the group's hub.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple

from repro.simnet.metrics import (
    BatchStats,
    ControlStats,
    Counter,
    Gauge,
    HealthStats,
    MetricsRegistry,
    OverloadStats,
    RecoveryStats,
    WireStats,
)
from repro.obs.tracing import RumorTracer
from repro.obs.windows import Alert, RollingWindow

#: A label set in canonical form: sorted ``(key, value)`` pairs.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class LabeledCounter(Counter):
    """A counter carrying a label set, aggregating into its unlabelled twin.

    Incrementing a labelled counter also bumps the hub's plain counter of
    the same name, so existing group-level reads
    (``hub.counter("soap.sent").value``) keep seeing the whole-simulation
    total while per-node values stay attributable.
    """

    __slots__ = ("labels", "_aggregate")

    def __init__(self, name: str, labels: LabelKey, aggregate: Counter) -> None:
        super().__init__(name)
        self.labels = labels
        self._aggregate = aggregate

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter increments must be non-negative: {amount!r}")
        self.value += amount
        self._aggregate.value += amount

    def __repr__(self) -> str:
        rendered = ",".join(f"{k}={v}" for k, v in self.labels)
        return f"LabeledCounter({self.name!r}, {{{rendered}}}, value={self.value})"


class LabeledGauge(Gauge):
    """A gauge carrying a label set (no aggregation -- sums of gauges lie)."""

    __slots__ = ("labels",)

    def __init__(self, name: str, labels: LabelKey) -> None:
        super().__init__(name)
        self.labels = labels

    def __repr__(self) -> str:
        rendered = ",".join(f"{k}={v}" for k, v in self.labels)
        return f"LabeledGauge({self.name!r}, {{{rendered}}}, value={self.value})"


class MetricsHub(MetricsRegistry):
    """A registry plus stat groups, labels, node scopes and a rumor tracer.

    Args:
        parent: hub to chain stat-group deltas into (normally the default
            hub); ``None`` for a detached root hub.
        name: optional human label used by exporters.
    """

    def __init__(self, parent: Optional["MetricsHub"] = None, name: str = "") -> None:
        super().__init__()
        self.parent = parent
        self.name = name
        self.wire = WireStats(parent=parent.wire if parent else None)
        self.batch = BatchStats(parent=parent.batch if parent else None)
        self.health = HealthStats(parent=parent.health if parent else None)
        self.recovery = RecoveryStats(parent=parent.recovery if parent else None)
        self.control = ControlStats(parent=parent.control if parent else None)
        self.overload = OverloadStats(parent=parent.overload if parent else None)
        self.tracer = RumorTracer()
        #: Adaptive-controller decision timeline: ControlDecision records
        #: appended by :class:`repro.core.control.AdaptiveController`.
        self.decisions = []
        #: SLO alert timeline: :class:`repro.obs.windows.Alert` edges
        #: appended by :class:`repro.obs.windows.SloBurnMonitor`.
        self.alerts = []
        #: Rolling time windows by name (see :meth:`window`).
        self._windows: Dict[str, "RollingWindow"] = {}
        self._labeled_counters: Dict[Tuple[str, LabelKey], LabeledCounter] = {}
        self._labeled_gauges: Dict[Tuple[str, LabelKey], LabeledGauge] = {}
        self._nodes: Dict[str, "NodeScope"] = {}

    # -- labelled metrics ---------------------------------------------------

    def labeled_counter(self, name: str, labels: Dict[str, str]) -> LabeledCounter:
        """The counter ``name{labels}`` (created on first use).

        Its increments also feed the unlabelled :meth:`counter` of the
        same name.
        """
        key = (name, _label_key(labels))
        existing = self._labeled_counters.get(key)
        if existing is None:
            existing = LabeledCounter(name, key[1], self.counter(name))
            self._labeled_counters[key] = existing
        return existing

    def labeled_gauge(self, name: str, labels: Dict[str, str]) -> LabeledGauge:
        """The gauge ``name{labels}`` (created on first use)."""
        key = (name, _label_key(labels))
        existing = self._labeled_gauges.get(key)
        if existing is None:
            existing = LabeledGauge(name, key[1])
            self._labeled_gauges[key] = existing
        return existing

    def labeled_counters(self) -> Dict[Tuple[str, LabelKey], int]:
        """Snapshot of every labelled counter value."""
        return {key: c.value for key, c in self._labeled_counters.items()}

    def labeled_gauges(self) -> Dict[Tuple[str, LabelKey], float]:
        """Snapshot of every labelled gauge value."""
        return {key: g.value for key, g in self._labeled_gauges.items()}

    # -- rolling windows ----------------------------------------------------

    def window(
        self, name: str, width: float = 1.0, buckets: int = 60
    ) -> RollingWindow:
        """The rolling window ``name`` (created on first use).

        ``width``/``buckets`` only shape a window at creation; later calls
        return the existing window unchanged, mirroring how counters bind.
        """
        existing = self._windows.get(name)
        if existing is None:
            existing = RollingWindow(width=width, buckets=buckets)
            self._windows[name] = existing
        return existing

    def windows(self) -> Dict[str, RollingWindow]:
        """Every rolling window registered so far, by name."""
        return dict(self._windows)

    # -- node scoping -------------------------------------------------------

    def node(self, node_name: str) -> "NodeScope":
        """A per-node view of this hub (cached per name).

        Counters created through the scope carry a ``node`` label and
        aggregate into the hub's unlabelled counters.
        """
        scope = self._nodes.get(node_name)
        if scope is None:
            scope = NodeScope(self, node_name)
            self._nodes[node_name] = scope
        return scope

    def node_names(self) -> Tuple[str, ...]:
        """Names of every node scope handed out so far."""
        return tuple(self._nodes)

    # -- snapshot / merge (sharded simulation) -------------------------------

    def snapshot_state(self) -> Dict:
        """This hub's metric state as one plain, picklable dict.

        The inverse is :meth:`merge_snapshot`; together they let a sharded
        run ship each worker's hub over a pipe and aggregate K of them in
        the parent (``repro obs report --shards``).
        """
        return {
            "name": self.name,
            "counters": {n: c.value for n, c in self._counters.items()},
            "gauges": {n: g.value for n, g in self._gauges.items()},
            "histograms": {n: h.values() for n, h in self._histograms.items()},
            "series": {n: s.samples() for n, s in self._series.items()},
            "groups": {
                group: getattr(self, group).snapshot()
                for group in ("wire", "batch", "health", "recovery", "control", "overload")
            },
            "labeled_counters": [
                (name, labels, counter.value)
                for (name, labels), counter in self._labeled_counters.items()
            ],
            "labeled_gauges": [
                (name, labels, gauge.value)
                for (name, labels), gauge in self._labeled_gauges.items()
            ],
            "spans": [
                {
                    "message_id": span.message_id,
                    "origin": span.origin,
                    "publish_time": span.publish_time,
                    "budget": span.budget,
                    "deliveries": list(span.deliveries),
                    "forwards": list(span.forwards),
                }
                for span in self.tracer.spans()
            ],
            "windows": {
                name: window.snapshot_state()
                for name, window in self._windows.items()
            },
            "alerts": [alert.to_value() for alert in self.alerts],
        }

    def merge_snapshot(self, state: Dict) -> None:
        """Fold one :meth:`snapshot_state` into this hub.

        Merge rules (asserted by ``tests/obs/test_merge.py``):

        * **counters** (plain and labelled) sum -- merging K shard hubs
          yields the totals a single-hub run of the same traffic would
          have counted.  Labelled counters are merged by direct value
          add, *not* ``inc()``, which would double-count through the
          unlabelled aggregate (itself merged as a plain counter).
        * **gauges** (plain and labelled) take the max: gauges are
          point-in-time levels, sums of them lie, and max is
          merge-order independent.
        * **histograms** keep raw samples, so the merge concatenates
          them -- the exact-percentile analogue of bucket-wise addition.
        * **time series** are merge-sorted by timestamp.
        * **stat groups** add field-wise (they are all monotone counters);
          deltas propagate up the parent chain as normal writes do.
        * **tracer spans** are replayed hop-by-hop: publish hops claim the
          origin, deliveries keep first-arrival-per-node semantics.
        * **rolling windows** merge bucket-wise (slot sums add), so a
          merged window reads like one window that saw all the traffic.
        * **alerts** are merge-sorted by edge time.
        """
        for name, value in state["counters"].items():
            self.counter(name).value += value
        for name, value in state["gauges"].items():
            gauge = self.gauge(name)
            gauge.value = max(gauge.value, value)
        for name, values in state["histograms"].items():
            histogram = self.histogram(name)
            for value in values:
                histogram.observe(value)
        for name, samples in state["series"].items():
            series = self.series(name)
            merged = sorted(series.samples() + [tuple(s) for s in samples])
            series.clear()
            for time, value in merged:
                series.record(time, value)
        for group_name, snapshot in state["groups"].items():
            group = getattr(self, group_name)
            for field, value in snapshot.items():
                setattr(group, field, getattr(group, field) + value)
        for name, labels, value in state["labeled_counters"]:
            key = (name, tuple(tuple(pair) for pair in labels))
            existing = self._labeled_counters.get(key)
            if existing is None:
                existing = LabeledCounter(name, key[1], self.counter(name))
                self._labeled_counters[key] = existing
            existing.value += value
        for name, labels, value in state["labeled_gauges"]:
            key = (name, tuple(tuple(pair) for pair in labels))
            existing = self._labeled_gauges.get(key)
            if existing is None:
                existing = LabeledGauge(name, key[1])
                self._labeled_gauges[key] = existing
            existing.value = max(existing.value, value)
        for span_state in state.get("spans", ()):
            message_id = span_state["message_id"]
            if span_state["origin"] is not None:
                self.tracer.on_publish(
                    message_id,
                    span_state["origin"],
                    span_state["publish_time"] or 0.0,
                    span_state["budget"] or 0,
                )
            for time, node, hops_left in sorted(span_state["deliveries"]):
                self.tracer.on_deliver(message_id, node, time, hops_left)
            for time, node, targets in span_state["forwards"]:
                self.tracer.on_forward(message_id, node, time, targets)
        for name, window_state in state.get("windows", {}).items():
            window = self.window(
                name,
                width=window_state.get("width", 1.0),
                buckets=window_state.get("buckets", 60),
            )
            window.merge_state(window_state)
        if state.get("alerts"):
            merged_alerts = sorted(
                self.alerts + [Alert.from_value(a) for a in state["alerts"]],
                key=lambda alert: (alert.time, alert.name, alert.state),
            )
            self.alerts[:] = merged_alerts

    @classmethod
    def merged(
        cls, states, parent: Optional["MetricsHub"] = None, name: str = "merged"
    ) -> "MetricsHub":
        """A fresh hub with every snapshot in ``states`` folded in."""
        hub = cls(parent=parent, name=name)
        for state in states:
            hub.merge_snapshot(state)
        return hub

    # -- lifecycle ----------------------------------------------------------

    def reset(self) -> None:
        """Zero every metric *in place* (bound metric objects stay valid).

        Stat-group resets do not propagate deltas to the parent chain; a
        child hub resetting must not erase upstream history.
        """
        self.wire.reset()
        self.batch.reset()
        self.health.reset()
        self.recovery.reset()
        self.control.reset()
        self.overload.reset()
        self.tracer.reset()
        self.decisions.clear()
        self.alerts.clear()
        for window in self._windows.values():
            window.reset()
        for counter in self._counters.values():
            counter.value = 0
        for gauge in self._gauges.values():
            gauge.value = 0.0
        for histogram in self._histograms.values():
            histogram.clear()
        for series in self._series.values():
            series.clear()
        for labeled in self._labeled_counters.values():
            labeled.value = 0
        for labeled in self._labeled_gauges.values():
            labeled.value = 0.0

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"MetricsHub({label and label.strip()} counters={len(self._counters)}, "
            f"labeled={len(self._labeled_counters)}, nodes={len(self._nodes)})"
        )


class NodeScope:
    """A node's view of a hub: the registry protocol with a ``node`` label.

    Quacks like :class:`~repro.simnet.metrics.MetricsRegistry` for the
    operations production code uses (``counter``/``gauge``/``histogram``/
    ``series``/``counters``), so a :class:`~repro.soap.runtime.SoapRuntime`
    can take one as its ``metrics`` sink unchanged.
    """

    __slots__ = ("hub", "node_name", "_counters", "_gauges")

    def __init__(self, hub: MetricsHub, node_name: str) -> None:
        self.hub = hub
        self.node_name = node_name
        # Handles resolved once per name: the label key is built and the
        # hub consulted on first use only.  They are the very objects the
        # hub stores, so its in-place reset and merge keep them current.
        self._counters: Dict[str, LabeledCounter] = {}
        self._gauges: Dict[str, LabeledGauge] = {}

    def counter(self, name: str) -> LabeledCounter:
        handle = self._counters.get(name)
        if handle is None:
            handle = self.hub.labeled_counter(name, {"node": self.node_name})
            self._counters[name] = handle
        return handle

    def gauge(self, name: str) -> LabeledGauge:
        handle = self._gauges.get(name)
        if handle is None:
            handle = self.hub.labeled_gauge(name, {"node": self.node_name})
            self._gauges[name] = handle
        return handle

    def histogram(self, name: str):
        # Histograms stay hub-wide: per-node latency populations are too
        # small to be worth the memory, and nothing reads them per node.
        return self.hub.histogram(name)

    def series(self, name: str):
        return self.hub.series(name)

    def counters(self) -> Dict[str, int]:
        """Snapshot of this node's labelled counter values.

        Reads the hub's table, not the scope's handles: a merged snapshot
        creates labelled counters that never passed through a scope.
        """
        key = (("node", self.node_name),)
        return {
            name: counter.value
            for (name, labels), counter in self.hub._labeled_counters.items()
            if labels == key
        }

    def __repr__(self) -> str:
        return f"NodeScope({self.node_name!r} -> {self.hub!r})"


# -- the default hub and the thread-local current hub -------------------------

_DEFAULT_HUB: Optional[MetricsHub] = None
_DEFAULT_LOCK = threading.Lock()


def default_hub() -> MetricsHub:
    """The process-wide root hub (created on first use).

    Per-simulation hubs chain to it, so its stat groups hold process-wide
    aggregates.
    """
    global _DEFAULT_HUB
    if _DEFAULT_HUB is None:
        with _DEFAULT_LOCK:
            if _DEFAULT_HUB is None:
                _DEFAULT_HUB = MetricsHub(parent=None, name="default")
    return _DEFAULT_HUB


class _HubStack(threading.local):
    def __init__(self) -> None:
        self.stack = []


_CURRENT = _HubStack()


def current_hub() -> MetricsHub:
    """The innermost hub pushed by :func:`use_hub`, else the default hub."""
    stack = _CURRENT.stack
    return stack[-1] if stack else default_hub()


@contextmanager
def use_hub(hub: MetricsHub) -> Iterator[MetricsHub]:
    """Make ``hub`` the :func:`current_hub` for the dynamic extent.

    The envelope codec has no argument path to a hub, so simulation entry
    points (``GossipGroup.run_for``/``publish``) wrap themselves in this.
    """
    _CURRENT.stack.append(hub)
    try:
        yield hub
    finally:
        _CURRENT.stack.pop()


def hub_of(metrics) -> MetricsHub:
    """Resolve the hub behind any metrics sink a component was handed.

    A :class:`MetricsHub` is itself; a :class:`NodeScope` unwraps to its
    hub; anything else (a plain registry, ``None``) falls back to the
    default hub -- the pre-hub behaviour.
    """
    if isinstance(metrics, MetricsHub):
        return metrics
    if isinstance(metrics, NodeScope):
        return metrics.hub
    return default_hub()
