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
was removed after a deprecation cycle: passing deployment settings as
keyword arguments now raises :class:`~repro.core.params.ParamError`
pointing at the ``GossipConfig`` replacement.
"""

from __future__ import annotations

import dataclasses
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


# Sentinel distinguishing "kwarg not passed" from an explicit None/False.
_UNSET: Any = object()


class GossipGroup:
    """One complete, simulated WS-Gossip deployment.

    Args:
        config: the deployment description (see :class:`GossipConfig`).
        **legacy: the pre-config keyword soup (``n_disseminators=...`` and
            friends) is gone: after a deprecation cycle it now raises
            :class:`~repro.core.params.ParamError` naming the offending
            keywords.  Build a :class:`GossipConfig` and pass ``config=``
            (or call ``GossipConfig(...).build()``).
    """

    def __init__(
        self,
        n_disseminators: int = _UNSET,
        n_consumers: int = _UNSET,
        seed: int = _UNSET,
        latency: Optional[LatencyModel] = _UNSET,
        loss_rate: float = _UNSET,
        params: Optional[Dict[str, Any]] = _UNSET,
        auto_tune: bool = _UNSET,
        target_reliability: float = _UNSET,
        action: str = _UNSET,
        trace: bool = _UNSET,
        config: Optional[GossipConfig] = None,
    ) -> None:
        legacy = {
            name: value
            for name, value in {
                "n_disseminators": n_disseminators,
                "n_consumers": n_consumers,
                "seed": seed,
                "latency": latency,
                "loss_rate": loss_rate,
                "params": params if params is not _UNSET and params is not None else _UNSET,
                "auto_tune": auto_tune,
                "target_reliability": target_reliability,
                "action": action,
                "trace": trace,
            }.items()
            if value is not _UNSET
        }
        if legacy:
            raise ParamError(
                sorted(legacy)[0],
                "passing GossipGroup settings as keyword arguments was "
                "removed; build a GossipConfig and pass config=... or call "
                "GossipConfig(...).build() "
                f"(got: {', '.join(sorted(legacy))})",
            )
        self.config = config if config is not None else GossipConfig()

        self.sim = Simulator(seed=self.config.seed)
        self.trace = TraceLog(enabled=self.config.trace)
        # One observability hub per group: chained to the default hub so
        # process-wide aggregates still see this simulation, but never
        # shared with another group.
        self.metrics = MetricsHub(parent=default_hub(), name="gossip-group")
        self.hub = self.metrics
        self.network = Network(
            self.sim,
            latency=self.config.latency,
            loss_rate=self.config.loss_rate,
            trace=self.trace,
            metrics=self.metrics,
        )
        self.action = self.config.action
        self.activation_parameters = dict(self.config.params)

        self.coordinator = CoordinatorNode(
            "coordinator",
            self.network,
            auto_tune=self.config.auto_tune,
            target_reliability=self.config.target_reliability,
        )
        self.initiator = InitiatorNode(
            "initiator",
            self.network,
            durability=self.config.durability,
            overload=self.config.overload,
            telemetry=self.config.telemetry,
        )
        self.disseminators: List[DisseminatorNode] = [
            DisseminatorNode(
                f"d{index}",
                self.network,
                durability=self.config.durability,
                overload=self.config.overload,
                telemetry=self.config.telemetry,
            )
            for index in range(self.config.n_disseminators)
        ]
        self.consumers: List[ConsumerNode] = [
            ConsumerNode(f"c{index}", self.network)
            for index in range(self.config.n_consumers)
        ]
        if self.config.health is not None:
            install_health(
                [self.initiator, *self.disseminators],
                self.config.health,
                clock=lambda: self.sim.now,
                hub=self.hub,
            )

        self.controller: Optional[AdaptiveController] = None
        if self.config.adaptive:
            gossip_nodes = [self.initiator, *self.disseminators]
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

        self.activity_id: Optional[str] = None
        self._setup_done = False

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
        return [self.initiator, *self.disseminators, *self.consumers]

    def all_nodes(self) -> List:
        """Every node including the coordinator."""
        return [self.coordinator, *self.app_nodes()]

    @property
    def population(self) -> int:
        """Number of application endpoints in the group."""
        return len(self.app_nodes())

    # -- orchestration ------------------------------------------------------------

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

        ready: List[str] = []
        for _ in range(5):  # activation is control traffic: retry on loss
            self.initiator.activate(
                self.coordinator.activation_address,
                parameters=self.activation_parameters,
                on_ready=lambda engine: ready.append(engine.activity_id),
            )
            self.run_for(settle)
            if ready:
                break
        if not ready:
            raise RuntimeError("activation did not complete; is the coordinator up?")
        self.activity_id = ready[0]

        acked: set = set()
        pending = [*self.disseminators, *self.consumers]
        for _ in range(5):  # subscriptions retried until acknowledged
            for node in pending:
                node.subscribe(
                    self.coordinator.subscription_address,
                    self.activity_id,
                    on_reply=lambda _context, _value, name=node.name: acked.add(name),
                )
            self.run_for(settle)
            pending = [node for node in pending if node.name not in acked]
            if not pending:
                break

        style = self._style()
        if eager_join is None:
            eager_join = style is not GossipStyle.PUSH
        if eager_join:
            engine = self.initiator.activities[self.activity_id]
            for node in self.disseminators:
                node.gossip_layer.join(engine.context, PROTOCOL_DISSEMINATOR)
            self.run_for(settle)

        # The initiator registered before anyone subscribed; refresh so its
        # first fanout has real targets.  Retried: the refresh reply rides
        # the same lossy fabric.
        engine = self.initiator.activities[self.activity_id]
        for _ in range(5):
            engine.refresh_view()
            self.run_for(settle)
            if engine.view:
                break
        return self.activity_id

    def _style(self) -> GossipStyle:
        style = self.activation_parameters.get("style")
        return GossipStyle(style) if style else GossipStyle.PUSH

    def publish(self, value: Any) -> str:
        """Disseminate one data item from the initiator."""
        if self.activity_id is None:
            raise RuntimeError("call setup() before publish()")
        with use_hub(self.hub):
            return self.initiator.publish(self.activity_id, self.action, value)

    def run_for(self, duration: float) -> None:
        """Advance simulated time by ``duration`` seconds.

        Runs under :func:`~repro.obs.hub.use_hub` so hub-less call sites
        (the envelope codec) attribute wire costs to this group's hub.
        """
        with use_hub(self.hub):
            self.sim.run_until(self.sim.now + duration)

    # -- measurements -----------------------------------------------------------------

    def receivers(self, gossip_id: str) -> List[AppNode]:
        """Nodes (other than the initiator) whose app saw the item."""
        return [
            node
            for node in self.app_nodes()
            if node is not self.initiator and node.has_delivered(gossip_id)
        ]

    def delivered_fraction(self, gossip_id: str) -> float:
        """Fraction of non-initiator app endpoints that received the item."""
        others = self.population - 1
        if others <= 0:
            return 1.0
        return len(self.receivers(gossip_id)) / others

    def is_atomic(self, gossip_id: str) -> bool:
        """True when every app endpoint received the item."""
        return self.delivered_fraction(gossip_id) >= 1.0

    def delivery_times(self, gossip_id: str) -> List[float]:
        """First-delivery times across receiving nodes."""
        times = []
        for node in self.app_nodes():
            if node is self.initiator:
                continue
            when = node.delivery_time(gossip_id)
            if when is not None:
                times.append(when)
        return times

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
