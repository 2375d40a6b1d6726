"""High-level facade: build and drive a complete WS-Gossip deployment.

:class:`GossipConfig` is the one immutable description of a deployment;
:class:`GossipGroup` takes a config and wires up the Figure-1 topology at
any scale -- one coordinator, one initiator, N disseminators, M consumers
-- orchestrates activation / subscription / registration, and exposes the
measurements the experiments need (delivery fraction, latency, message
counts).

Example:
    >>> group = GossipGroup(config=GossipConfig(n_disseminators=16, seed=42))
    >>> group.setup()
    >>> message_id = group.publish({"symbol": "QIM", "price": 13.37})
    >>> group.run_for(5.0)
    >>> group.delivered_fraction(message_id)  # doctest: +SKIP
    1.0

The pre-config keyword soup (``GossipGroup(n_disseminators=16, seed=42)``)
is gone since 7.0.0: ``GossipGroup`` takes ``config=`` only, and any other
keyword is a :class:`TypeError`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Mapping, Optional

from repro.core.control import EPOCH, SLO_DELIVERY, AdaptiveController
from repro.core.engine import PROTOCOL_DISSEMINATOR
from repro.core.health import HealthPolicy, install_health
from repro.core.message import GossipStyle
from repro.core.overload import OverloadPolicy
from repro.core.params import GossipParams, ParamError, reject_unknown_keys
from repro.core.roles import (
    AppNode,
    ConsumerNode,
    CoordinatorNode,
    DisseminatorNode,
    InitiatorNode,
)
from repro.core.store import DurabilityPolicy
from repro.core.telemetry import TelemetryPolicy
from repro.obs.hub import MetricsHub, default_hub, use_hub
from repro.obs.windows import SloBurnMonitor, WindowRollup, recent_delivery_fraction
from repro.simnet.events import Simulator
from repro.simnet.latency import LatencyModel
from repro.simnet.network import Network
from repro.simnet.trace import TraceLog
from repro.wscoord.context import CoordinationContext

DEFAULT_ACTION = "urn:ws-gossip:example/Event"
#: Seconds of history the telemetry SLO burn-rate window spans.
SLO_WINDOW = 30.0


@dataclass(frozen=True)
class GossipConfig:
    """Immutable description of one simulated WS-Gossip deployment.

    Attributes:
        n_disseminators: gossip-capable nodes besides the initiator.
        n_consumers: completely unchanged nodes (push styles only -- pull
            styles spread between gossip-capable nodes).
        seed: master seed; every run with the same seed is identical.
        latency: network latency model (default 1 ms fixed).
        loss_rate: uniform message-loss probability.
        params: activation parameters handed to the coordinator, e.g.
            ``{"style": "push", "fanout": 4, "rounds": 6}``.
        auto_tune: let the coordinator grow fanout/rounds with population.
        target_reliability: auto-tune goal for atomic delivery.
        action: the application action disseminated invocations use.
        trace: record a full event trace (memory-heavy at large N).
        health: enable the peer-health layer on every gossip-capable
            node -- retrying transports with per-destination circuit
            breakers, failure suspicion, and degraded-mode peer
            selection (see :mod:`repro.core.health`).  Takes a
            :class:`~repro.core.health.HealthPolicy`.
        durability: enable the crash-recovery subsystem on every
            gossip-capable node -- each engine keeps a
            :class:`~repro.core.store.GossipLog` (WAL + snapshots) and
            restarted nodes rejoin via the bounded catch-up protocol.
            Takes a :class:`~repro.core.store.DurabilityPolicy`.
        shards: run the simulation across this many worker processes
            (conservative-PDES sharding, see docs/ARCHITECTURE.md,
            "Parallel simulation").  ``1`` (the default) is the plain
            single-process simulator, byte-for-byte unchanged; ``K > 1``
            makes :meth:`build` return a
            :class:`~repro.core.shard.ShardedGossipGroup` (nodes are
            partitioned by a stable hash of their names).
        adaptive: ``True`` attaches an
            :class:`~repro.core.control.AdaptiveController` that re-tunes
            fanout/rounds/mode/batching from observed delivery every
            epoch (see docs/RESILIENCE.md, "Adaptive control"); its
            thresholds are constants of :mod:`repro.core.control`.  The
            delivery signal comes from the causal rumor spans every group
            records on its hub (docs/OBSERVABILITY.md).
        overload: enable overload protection on every gossip-capable
            node -- bounded outboxes and ingest queues with priority
            load shedding, publish backpressure at the hard limit, and
            a pressure signal the adaptive controller reads (see
            docs/RESILIENCE.md, "Overload and backpressure").  Takes an
            :class:`~repro.core.overload.OverloadPolicy`.
        telemetry: enable the live telemetry plane -- wire-level trace
            context on gossip frames (per-hop latency from sampled
            publications), rolling-window counter rates, and the SLO
            burn-rate alert timeline (see docs/OBSERVABILITY.md, "Live
            telemetry").  Takes a
            :class:`~repro.core.telemetry.TelemetryPolicy`.

    The four policy fields (``health``, ``durability``, ``overload``,
    ``telemetry``) each accept ``None`` or ``False`` (off, the default),
    ``True`` (the policy's defaults), a plain dict of the policy's fields
    (parsed by its ``from_value``), or a policy instance; anything else
    raises :class:`~repro.core.params.ParamError` naming the field.
    ``adaptive`` is a bool (``None`` reads as ``False``).  An unknown
    keyword -- including a setting removed in 4.0.0 -- raises
    :class:`~repro.core.params.ParamError` naming it.  ``overload`` and
    ``telemetry`` off keep the wire trace byte-for-byte identical to the
    behaviour before they existed.
    """

    n_disseminators: int = 8
    n_consumers: int = 0
    seed: int = 0
    shards: int = 1
    latency: Optional[LatencyModel] = None
    loss_rate: float = 0.0
    params: Mapping[str, Any] = field(default_factory=dict)
    auto_tune: bool = True
    target_reliability: float = 0.99
    action: str = DEFAULT_ACTION
    trace: bool = False
    health: Optional[HealthPolicy] = None
    durability: Optional[DurabilityPolicy] = None
    adaptive: bool = False
    overload: Optional[OverloadPolicy] = None
    telemetry: Optional[TelemetryPolicy] = None

    def __new__(cls, *args: Any, **kwargs: Any) -> "GossipConfig":
        reject_unknown_keys(cls, cls.field_names(), kwargs)
        return super().__new__(cls)

    def __post_init__(self) -> None:
        if self.n_disseminators < 0:
            raise ParamError(
                "n_disseminators",
                f"n_disseminators must be non-negative: {self.n_disseminators!r}",
            )
        if self.n_consumers < 0:
            raise ParamError(
                "n_consumers",
                f"n_consumers must be non-negative: {self.n_consumers!r}",
            )
        if (
            not isinstance(self.shards, int)
            or isinstance(self.shards, bool)
            or self.shards < 1
        ):
            raise ParamError(
                "shards", f"shards must be an integer >= 1: {self.shards!r}"
            )
        if not 0.0 <= self.loss_rate < 1.0:
            raise ParamError(
                "loss_rate", f"loss_rate must be in [0, 1): {self.loss_rate!r}"
            )
        if not 0.0 < self.target_reliability < 1.0:
            raise ParamError(
                "target_reliability",
                f"target_reliability must be in (0, 1): {self.target_reliability!r}",
            )
        # Freeze the activation parameters into a private copy so a caller
        # mutating the dict they passed cannot alter this config.
        object.__setattr__(self, "params", dict(self.params))
        for name, policy in (
            ("health", HealthPolicy),
            ("durability", DurabilityPolicy),
            ("overload", OverloadPolicy),
            ("telemetry", TelemetryPolicy),
        ):
            object.__setattr__(self, name, policy.coerce(name, getattr(self, name)))
        if self.adaptive is None:
            object.__setattr__(self, "adaptive", False)
        if not isinstance(self.adaptive, bool):
            key = "adaptive"
            if isinstance(self.adaptive, Mapping) and self.adaptive:
                key = sorted(self.adaptive)[0]
            raise ParamError(
                key,
                "adaptive is a bool since 4.0.0 (the controller's knobs are "
                "constants of repro.core.control): pass adaptive=True, not "
                f"{self.adaptive!r}",
            )

    @classmethod
    def field_names(cls) -> List[str]:
        """The configurable field names, declaration order."""
        return [f.name for f in fields(cls)]

    @classmethod
    def from_dict(cls, value: Mapping[str, Any]) -> "GossipConfig":
        """Build a config from a plain mapping (e.g. parsed JSON/TOML).

        Raises:
            ParamError: naming any unknown key.
        """
        return cls(**dict(value))

    def with_overrides(self, **overrides: Any) -> "GossipConfig":
        """A copy with the given fields replaced.

        Raises:
            ParamError: naming any unknown key.
        """
        return dataclasses.replace(self, **overrides)

    def to_dict(self) -> Dict[str, Any]:
        """The config as a plain dict (``params`` copied)."""
        result = {name: getattr(self, name) for name in self.field_names()}
        result["params"] = dict(self.params)
        return result

    def gossip_params(self, base: Optional[GossipParams] = None) -> GossipParams:
        """The validated :class:`GossipParams` the activation will produce
        (useful for inspecting a config before running it)."""
        return GossipParams.from_activation(self.params, base=base)

    def build(self) -> Any:
        """Construct the deployment this config describes.

        ``shards == 1`` builds the plain in-process :class:`GossipGroup`
        (wire behaviour untouched); ``shards > 1`` builds a
        :class:`~repro.core.shard.ShardedGossipGroup` running the same
        topology across worker processes.
        """
        if self.shards > 1:
            from repro.core.shard import ShardedGossipGroup

            return ShardedGossipGroup(config=self)
        return GossipGroup(config=self)


def topology_names(n_disseminators: int, n_consumers: int) -> List[str]:
    """Every node name in the Figure-1 topology, declaration order.

    A sharded run derives its :class:`~repro.simnet.shard.ShardPlan` from
    this one list in the parent and in every worker, so they always agree
    on ownership without exchanging it.
    """
    return (
        ["coordinator", "initiator"]
        + [f"d{i}" for i in range(n_disseminators)]
        + [f"c{i}" for i in range(n_consumers)]
    )


class GroupScript:
    """The Figure-1 orchestration and the delivery measurements, written once.

    Everything here is expressed through ``run_for`` and two primitives a
    subclass supplies: ``_on(node, step, **args)`` runs one setup step
    where the named node lives, and ``_each(step, **args)`` runs it
    everywhere, returning one reply per place.  :class:`GossipGroup`
    runs a step as a direct call on itself;
    :class:`~repro.core.shard.ShardedGossipGroup` sends it as a command
    to the worker process holding that node's slice, which is a
    ``GossipGroup`` too.  The steps are ``GossipGroup``'s ``_step_*``
    methods.
    """

    config: GossipConfig
    activity_id: Optional[str] = None
    _setup_done = False

    @property
    def population(self) -> int:
        """Number of application endpoints (initiator + d* + c*)."""
        return 1 + self.config.n_disseminators + self.config.n_consumers

    def setup(self, settle: float = 2.0, eager_join: Optional[bool] = None) -> str:
        """Activate the gossip interaction and subscribe every node.

        Mirrors Figure 1: the initiator activates at the coordinator, every
        app endpoint subscribes, and the initiator refreshes its peer view
        once the subscriber list is populated.  ``eager_join`` makes the
        disseminators register immediately rather than on first message --
        required by the pull-family styles (defaults to exactly that).

        Returns the activity id.
        """
        if self._setup_done:
            if self.activity_id is None:
                raise RuntimeError("previous setup did not complete")
            return self.activity_id
        self._setup_done = True

        addresses = self._on("coordinator", "addresses")
        for _ in range(5):  # activation is control traffic: retry on loss
            self._on("initiator", "activate", address=addresses["activation"])
            self.run_for(settle)
            state = self._on("initiator", "state")
            if state["activity_id"] is not None:
                break
        if state["activity_id"] is None:
            raise RuntimeError("activation did not complete; is the coordinator up?")
        self.activity_id = state["activity_id"]

        for _ in range(5):  # subscriptions retried until acknowledged
            self._each(
                "subscribe",
                address=addresses["subscription"],
                activity_id=self.activity_id,
            )
            self.run_for(settle)
            if not any(reply["subscribe_pending"] for reply in self._each("state")):
                break

        style = self.config.params.get("style")
        if eager_join is None:
            eager_join = bool(style) and GossipStyle(style) is not GossipStyle.PUSH
        if eager_join:
            # The context crosses as its canonical XML, as on the wire.
            self._each("join", context=self._on("initiator", "state")["context"])
            self.run_for(settle)

        # The initiator registered before anyone subscribed; refresh so its
        # first fanout has real targets.  Retried: the refresh reply rides
        # the same lossy fabric.
        for _ in range(5):
            self._on("initiator", "refresh_view")
            self.run_for(settle)
            if self._on("initiator", "state")["view_ready"]:
                break
        return self.activity_id

    def publish(self, value: Any) -> str:
        """Disseminate one data item from the initiator."""
        if self.activity_id is None:
            raise RuntimeError("call setup() before publish()")
        return self._on("initiator", "publish", value=value)["message_id"]

    # -- measurements ---------------------------------------------------------

    def _measure(self, gossip_id: str) -> Dict[str, List[Any]]:
        """Receiver names and first-delivery times, over every place."""
        receivers: List[str] = []
        times: List[float] = []
        for reply in self._each("measure", gossip_id=gossip_id):
            receivers.extend(reply["receivers"])
            times.extend(reply["times"])
        return {"receivers": receivers, "times": times}

    def delivered_fraction(self, gossip_id: str) -> float:
        """Fraction of non-initiator app endpoints that received the item."""
        others = self.population - 1
        if others <= 0:
            return 1.0
        return len(self._measure(gossip_id)["receivers"]) / others

    def is_atomic(self, gossip_id: str) -> bool:
        """True when every app endpoint received the item."""
        return self.delivered_fraction(gossip_id) >= 1.0

    def delivery_times(self, gossip_id: str) -> List[float]:
        """First-delivery times across receiving nodes."""
        return self._measure(gossip_id)["times"]

    def trace_digests(self) -> List[Dict[str, Any]]:
        """One run digest per place (determinism checks; needs ``trace=True``)."""
        return [
            {key: reply[key] for key in ("digest", "trace_events", "events_executed")}
            for reply in self._each("trace_digest")
        ]


class GossipGroup(GroupScript):
    """One complete, simulated WS-Gossip deployment.

    Args:
        config: the deployment description (see :class:`GossipConfig`).
        shard: build only the nodes the config's shard plan gives this
            shard, on the per-shard fabric stream, with a
            :class:`~repro.simnet.shard.ShardEgress` for the rest.  Only
            the shard worker (:mod:`repro.core.shardworker`) sets it;
            ``None`` is the whole deployment in this process.
    """

    def __init__(
        self, *, config: Optional[GossipConfig] = None, shard: Optional[int] = None
    ) -> None:
        self.config = config if config is not None else GossipConfig()
        names = topology_names(self.config.n_disseminators, self.config.n_consumers)

        self.sim = Simulator(seed=self.config.seed)
        self.trace = TraceLog(enabled=self.config.trace)
        # One observability hub per group: chained to the default hub so
        # process-wide aggregates still see this simulation, but never
        # shared with another group.
        self.metrics = MetricsHub(
            parent=default_hub(),
            name="gossip-group" if shard is None else f"gossip-shard-{shard}",
        )
        self.hub = self.metrics
        if shard is None:
            local, rng = set(names), None
        else:
            from repro.simnet.shard import ShardEgress, ShardPlan
            # The fabric stream is per-shard; every per-node stream is
            # derived from the node's name and stays shard-count independent.
            plan = ShardPlan(names, self.config.shards)
            local = set(plan.members(shard))
            rng = self.sim.rng.for_shard(shard).get("network")
        self.network = Network(
            self.sim,
            latency=self.config.latency,
            loss_rate=self.config.loss_rate,
            trace=self.trace,
            metrics=self.metrics,
            rng=rng,
        )
        if shard is not None:
            self.egress = ShardEgress(plan, shard)
            self.network.set_egress(self.egress)
        self.action = self.config.action
        self.activation_parameters = dict(self.config.params)

        # A shard's slice may lack either; the setup script only ever runs
        # a step on the slice that holds the node it acts on.
        self.coordinator: Optional[CoordinatorNode] = None
        self.initiator: Optional[InitiatorNode] = None
        if "coordinator" in local:
            self.coordinator = CoordinatorNode(
                "coordinator",
                self.network,
                auto_tune=self.config.auto_tune,
                target_reliability=self.config.target_reliability,
            )
        if "initiator" in local:
            self.initiator = InitiatorNode(
                "initiator",
                self.network,
                durability=self.config.durability,
                overload=self.config.overload,
                telemetry=self.config.telemetry,
            )
        self.disseminators: List[DisseminatorNode] = [
            DisseminatorNode(
                name,
                self.network,
                durability=self.config.durability,
                overload=self.config.overload,
                telemetry=self.config.telemetry,
            )
            for name in names[2 : 2 + self.config.n_disseminators]
            if name in local
        ]
        self.consumers: List[ConsumerNode] = [
            ConsumerNode(name, self.network)
            for name in names[2 + self.config.n_disseminators :]
            if name in local
        ]
        gossip_nodes = [
            node for node in (self.initiator, *self.disseminators) if node is not None
        ]
        if self.config.health is not None:
            install_health(
                gossip_nodes,
                self.config.health,
                clock=lambda: self.sim.now,
                hub=self.hub,
            )

        self.controller: Optional[AdaptiveController] = None
        if self.config.adaptive:
            self.controller = AdaptiveController(
                self.hub,
                population=lambda: self.population,
                engines=lambda: [
                    engine
                    for node in gossip_nodes
                    for engine in node.gossip_layer.engines()
                ],
            )
            # Tick on the simulator itself, not a node's scheduler: the
            # control plane models an external operator and must survive
            # node crashes.
            self.controller.start(self.sim)

        # Live telemetry rollups: a periodic tick on the simulator (same
        # crash-survival rationale as the controller) that bins counter
        # deltas into rolling windows and feeds the SLO burn-rate monitor
        # from recently-published rumor spans.
        self.burn_monitor: Optional[SloBurnMonitor] = None
        self._window_rollup: Optional[WindowRollup] = None
        if self.config.telemetry is not None:
            self._start_telemetry()

        for node in self.app_nodes():
            node.bind(self.action)
        for node in self.all_nodes():
            node.start()

        self._acked: set = set()

    def _start_telemetry(self) -> None:
        """Begin the telemetry rollup ticks (windowed rates + SLO burn)."""
        self._window_rollup = WindowRollup(
            self.hub, width=EPOCH, buckets=max(2, int(60.0 / EPOCH))
        )
        self.burn_monitor = SloBurnMonitor(
            self.hub, slo=SLO_DELIVERY, window=SLO_WINDOW
        )
        # Delivery is judged over rumors old enough to have finished their
        # rounds: the epoch, grace and lookback mirror the
        # AdaptiveController's observation window so both planes read the
        # same signal.
        gossip_params = GossipParams.from_activation(self.activation_parameters)
        grace = 0.5 * EPOCH + gossip_params.rounds * gossip_params.period
        lookback = 2.5 * EPOCH

        def tick() -> None:
            now = self.sim.now
            self._window_rollup.tick(now)
            delivery = recent_delivery_fraction(
                self.hub, now, self.population, lookback=lookback, grace=grace
            )
            if delivery is not None:
                self.burn_monitor.record(now, delivery)
            self.sim.call_after(EPOCH, tick)

        self.sim.call_after(EPOCH, tick)

    # -- topology ------------------------------------------------------------

    def app_nodes(self) -> List[AppNode]:
        """Every node with an application endpoint (initiator included)."""
        nodes: List[AppNode] = [*self.disseminators, *self.consumers]
        return nodes if self.initiator is None else [self.initiator, *nodes]

    def all_nodes(self) -> List:
        """Every node including the coordinator."""
        nodes = self.app_nodes()
        return nodes if self.coordinator is None else [self.coordinator, *nodes]

    def run_for(self, duration: float) -> None:
        """Advance simulated time by ``duration`` seconds.

        Runs under :func:`~repro.obs.hub.use_hub` so hub-less call sites
        (the envelope codec) attribute wire costs to this group's hub.
        """
        with use_hub(self.hub):
            self.sim.run_until(self.sim.now + duration)

    # -- setup steps ----------------------------------------------------------
    #
    # Each step acts on the nodes this group holds.  In one process
    # ``_on``/``_each`` call them directly; a shard worker serves them as
    # commands through ``handle``/``activate`` (the
    # :func:`~repro.simnet.shard.shard_worker_loop` contract).

    def _on(self, node: str, step: str, **args: Any) -> Dict[str, Any]:
        return self.handle({"op": step, **args})

    def _each(self, step: str, **args: Any) -> List[Dict[str, Any]]:
        return [self.handle({"op": step, **args})]

    def activate(self):
        """Make this group's hub current (wraps every worker command)."""
        return use_hub(self.hub)

    def handle(self, msg: Mapping[str, Any]) -> Dict[str, Any]:
        """Run the setup step ``msg["op"]`` with the rest of ``msg``."""
        args = dict(msg)
        op = args.pop("op")
        step = getattr(self, f"_step_{op}", None)
        if step is None:
            raise ValueError(f"unknown setup step: {op!r}")
        return step(**args)

    def _step_addresses(self) -> Dict[str, Any]:
        """The coordinator's well-known endpoints."""
        return {
            "activation": self.coordinator.activation_address,
            "subscription": self.coordinator.subscription_address,
        }

    def _step_activate(self, address: str) -> Dict[str, Any]:
        self.initiator.activate(
            address,
            parameters=self.activation_parameters,
            on_ready=self._on_activated,
        )
        return {}

    def _on_activated(self, engine: Any) -> None:
        if self.activity_id is None:
            self.activity_id = engine.activity_id

    def _subscribers(self) -> List[AppNode]:
        """The app nodes here other than the initiator."""
        return [*self.disseminators, *self.consumers]

    def _step_state(self) -> Dict[str, Any]:
        """What is ready here and which subscriptions are still pending."""
        context, view_ready = None, False
        if self.activity_id is not None and self.initiator is not None:
            engine = self.initiator.activities[self.activity_id]
            context = ET.tostring(engine.context.to_element(), encoding="unicode")
            view_ready = bool(engine.view)
        pending = [
            node.name for node in self._subscribers() if node.name not in self._acked
        ]
        return {
            "activity_id": self.activity_id,
            "context": context,
            "view_ready": view_ready,
            "subscribe_pending": pending,
        }

    def _step_subscribe(self, address: str, activity_id: str) -> Dict[str, Any]:
        """(Re-)subscribe every app node here not yet acknowledged."""
        for node in self._subscribers():
            if node.name not in self._acked:
                node.subscribe(
                    address,
                    activity_id,
                    on_reply=lambda _ctx, _value, name=node.name: self._acked.add(name),
                )
        return {}

    def _step_join(self, context: str) -> Dict[str, Any]:
        """Eager-join every disseminator here (pull-family styles)."""
        parsed = CoordinationContext.from_element(ET.fromstring(context))
        for node in self.disseminators:
            node.gossip_layer.join(parsed, PROTOCOL_DISSEMINATOR)
        return {}

    def _step_refresh_view(self) -> Dict[str, Any]:
        self.initiator.activities[self.activity_id].refresh_view()
        return {}

    def _step_publish(self, value: Any) -> Dict[str, Any]:
        with use_hub(self.hub):
            message_id = self.initiator.publish(self.activity_id, self.action, value)
        return {"message_id": message_id}

    def _step_measure(self, gossip_id: str) -> Dict[str, Any]:
        """Receivers and first-delivery times among the app nodes here."""
        got = [node for node in self._subscribers() if node.has_delivered(gossip_id)]
        times = [node.delivery_time(gossip_id) for node in got]
        return {
            "receivers": [node.name for node in got],
            "times": [when for when in times if when is not None],
        }

    def _step_hub(self) -> Dict[str, Any]:
        return {"state": self.hub.snapshot_state()}

    def _step_trace_digest(self) -> Dict[str, Any]:
        """A stable digest of this group's run, for determinism checks.

        Hashes the trace events (uuid-free) plus the executed-event count;
        two runs with the same seed and shard count agree on it.
        """
        digest = hashlib.sha256()
        for event in self.trace.events():
            digest.update(
                f"{event.time:.9f}|{event.kind}|{event.node}|"
                f"{sorted(event.detail.items())!r}\n".encode("utf-8")
            )
        return {
            "digest": digest.hexdigest(),
            "trace_events": len(self.trace),
            "events_executed": self.sim.events_executed,
        }

    # -- measurements -----------------------------------------------------------------

    def receivers(self, gossip_id: str) -> List[AppNode]:
        """Nodes (other than the initiator) whose app saw the item."""
        return [node for node in self._subscribers() if node.has_delivered(gossip_id)]

    def message_counts(self) -> Dict[str, int]:
        """Network-level counters (sent / delivered / dropped...)."""
        return self.metrics.counters()

    def duplicate_deliveries(self, gossip_id: str) -> int:
        """App-level duplicate receipts of one item (consumers have no
        dedup layer, so this measures the duplication cost of gossip)."""
        duplicates = 0
        for node in self.app_nodes():
            count = sum(
                1 for delivery in node.deliveries if delivery.gossip_id == gossip_id
            )
            if count > 1:
                duplicates += count - 1
        return duplicates

    def __repr__(self) -> str:
        return (
            f"GossipGroup(n={self.population}, activity={self.activity_id!r}, "
            f"now={self.sim.now:.3f})"
        )
