"""The worker-process side of a sharded gossip deployment.

:func:`gossip_shard_worker` is the module-level entry point
:class:`~repro.simnet.shard.ShardCluster` spawns (module-level so it is
picklable under every multiprocessing start method).  Each worker builds
the *local slice* of the Figure-1 topology -- only the nodes its
:class:`~repro.simnet.shard.ShardPlan` assigns to it -- on a private
single-process :class:`~repro.simnet.events.Simulator`, then serves the
parent's barrier windows and orchestration commands via
:func:`~repro.simnet.shard.shard_worker_loop`.

Determinism notes:

* Per-node RNG streams are derived from the master seed and the node
  name alone (``sim.rng.fork(name)`` inside the node stack), so a node
  makes the *same* protocol-level draws regardless of which shard it
  lands on or how many shards exist.
* The network's loss/latency stream is per-shard
  (``RngStreams.for_shard``): with K shards there are K independent
  fabric streams where a single-process run has one, which is why
  individual latency samples differ across shard counts while protocol
  behaviour does not.
* The coordination context crosses shard boundaries as its canonical
  XML (:meth:`~repro.wscoord.context.CoordinationContext.to_element`),
  the same encoding it has on the wire.
"""

from __future__ import annotations

import hashlib
import xml.etree.ElementTree as ET
from typing import Any, Dict, List, Mapping, Optional

from repro.core.engine import PROTOCOL_DISSEMINATOR
from repro.core.health import install_health
from repro.core.roles import (
    ConsumerNode,
    CoordinatorNode,
    DisseminatorNode,
    InitiatorNode,
)
from repro.wscoord.context import CoordinationContext
from repro.obs.hub import MetricsHub, default_hub, use_hub
from repro.simnet.events import Simulator
from repro.simnet.network import Network
from repro.simnet.shard import ShardEgress, ShardPlan, shard_worker_loop
from repro.simnet.trace import TraceLog


def topology_names(n_disseminators: int, n_consumers: int) -> List[str]:
    """Every node name in the Figure-1 topology, declaration order.

    The parent and all workers derive the shard plan from this one list,
    so they always agree on ownership without exchanging it.
    """
    return (
        ["coordinator", "initiator"]
        + [f"d{i}" for i in range(n_disseminators)]
        + [f"c{i}" for i in range(n_consumers)]
    )


class GossipShardRuntime:
    """One shard's slice of a gossip deployment plus its command handlers."""

    def __init__(self, shard_index: int, config: Any) -> None:
        self.shard_index = shard_index
        self.config = config
        self.plan = ShardPlan(
            topology_names(config.n_disseminators, config.n_consumers),
            config.shards,
        )
        local = set(self.plan.members(shard_index))

        self.sim = Simulator(seed=config.seed)
        self.trace = TraceLog(enabled=config.trace)
        self.hub = MetricsHub(
            parent=default_hub(), name=f"gossip-shard-{shard_index}"
        )
        # The fabric stream is per-shard; every per-node stream is derived
        # from the node's name and stays shard-count independent.
        self.network = Network(
            self.sim,
            latency=config.latency,
            loss_rate=config.loss_rate,
            trace=self.trace,
            metrics=self.hub,
            rng=self.sim.rng.for_shard(shard_index).get("network"),
        )
        self.egress = ShardEgress(self.plan, shard_index)
        self.network.set_egress(self.egress)
        self.action = config.action

        self.coordinator: Optional[CoordinatorNode] = (
            CoordinatorNode(
                "coordinator",
                self.network,
                auto_tune=config.auto_tune,
                target_reliability=config.target_reliability,
            )
            if "coordinator" in local
            else None
        )
        self.initiator: Optional[InitiatorNode] = (
            InitiatorNode(
                "initiator",
                self.network,
                durability=config.durability,
                overload=config.overload,
            )
            if "initiator" in local
            else None
        )
        self.disseminators = [
            DisseminatorNode(
                f"d{index}",
                self.network,
                durability=config.durability,
                overload=config.overload,
            )
            for index in range(config.n_disseminators)
            if f"d{index}" in local
        ]
        self.consumers = [
            ConsumerNode(f"c{index}", self.network)
            for index in range(config.n_consumers)
            if f"c{index}" in local
        ]

        if config.health is not None:
            install_health(
                self._gossip_nodes(),
                config.health,
                clock=lambda: self.sim.now,
                stats=self.hub.health,
            )

        for node in self._app_nodes():
            node.bind(self.action)
        for node in self._all_nodes():
            node.start()

        self.activity_id: Optional[str] = None
        self._acked: set = set()

    # -- topology ------------------------------------------------------------

    def _app_nodes(self) -> List[Any]:
        nodes: List[Any] = []
        if self.initiator is not None:
            nodes.append(self.initiator)
        nodes.extend(self.disseminators)
        nodes.extend(self.consumers)
        return nodes

    def _all_nodes(self) -> List[Any]:
        nodes: List[Any] = []
        if self.coordinator is not None:
            nodes.append(self.coordinator)
        nodes.extend(self._app_nodes())
        return nodes

    def _gossip_nodes(self) -> List[Any]:
        nodes: List[Any] = []
        if self.initiator is not None:
            nodes.append(self.initiator)
        nodes.extend(self.disseminators)
        return nodes

    def _engine(self) -> Any:
        if self.initiator is None or self.activity_id is None:
            raise RuntimeError("no activated initiator on this shard")
        return self.initiator.activities[self.activity_id]

    # -- the shard_worker_loop contract --------------------------------------

    def activate(self):
        return use_hub(self.hub)

    def handle(self, msg: Mapping[str, Any]) -> Dict[str, Any]:
        op = msg["op"]
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            raise ValueError(f"unknown shard command: {op!r}")
        return handler(msg)

    # -- orchestration commands ----------------------------------------------

    def _op_addresses(self, msg: Mapping[str, Any]) -> Dict[str, Any]:
        """The coordinator's well-known endpoints (coordinator shard only)."""
        if self.coordinator is None:
            return {"activation": None, "subscription": None}
        return {
            "activation": self.coordinator.activation_address,
            "subscription": self.coordinator.subscription_address,
        }

    def _op_activate(self, msg: Mapping[str, Any]) -> Dict[str, Any]:
        if self.initiator is None:
            return {}
        self.initiator.activate(
            msg["activation_address"],
            parameters=dict(self.config.params),
            on_ready=self._on_activated,
        )
        return {}

    def _on_activated(self, engine: Any) -> None:
        self.activity_id = engine.activity_id

    def _op_state(self, msg: Mapping[str, Any]) -> Dict[str, Any]:
        """Cheap orchestration state: what is ready, what is pending."""
        context_xml = None
        view_ready = False
        if self.initiator is not None and self.activity_id is not None:
            engine = self._engine()
            context_xml = ET.tostring(
                engine.context.to_element(), encoding="unicode"
            )
            view_ready = bool(engine.view)
        pending = [
            node.name
            for node in self._app_nodes()
            if node is not self.initiator and node.name not in self._acked
        ]
        return {
            "activity_id": self.activity_id,
            "context": context_xml,
            "view_ready": view_ready,
            "subscribe_pending": pending,
        }

    def _op_subscribe(self, msg: Mapping[str, Any]) -> Dict[str, Any]:
        """(Re-)subscribe every local app node not yet acknowledged."""
        for node in self._app_nodes():
            if node is self.initiator or node.name in self._acked:
                continue
            node.subscribe(
                msg["subscription_address"],
                msg["activity_id"],
                on_reply=lambda _ctx, _val, name=node.name: self._acked.add(name),
            )
        return {}

    def _op_join(self, msg: Mapping[str, Any]) -> Dict[str, Any]:
        """Eager-join every local disseminator (pull-family styles)."""
        context = CoordinationContext.from_element(
            ET.fromstring(msg["context"])
        )
        for node in self.disseminators:
            node.gossip_layer.join(context, PROTOCOL_DISSEMINATOR)
        return {}

    def _op_refresh_view(self, msg: Mapping[str, Any]) -> Dict[str, Any]:
        self._engine().refresh_view()
        return {}

    def _op_publish(self, msg: Mapping[str, Any]) -> Dict[str, Any]:
        return {
            "message_id": self.initiator.publish(
                self.activity_id, self.action, msg["value"]
            )
        }

    # -- measurement commands -------------------------------------------------

    def _op_measure(self, msg: Mapping[str, Any]) -> Dict[str, Any]:
        """Receivers and first-delivery times among local app nodes."""
        receivers: Dict[str, List[str]] = {}
        times: Dict[str, List[float]] = {}
        for gossip_id in msg["message_ids"]:
            got: List[str] = []
            whens: List[float] = []
            for node in self._app_nodes():
                if node is self.initiator:
                    continue
                if node.has_delivered(gossip_id):
                    got.append(node.name)
                    when = node.delivery_time(gossip_id)
                    if when is not None:
                        whens.append(when)
            receivers[gossip_id] = got
            times[gossip_id] = whens
        return {"receivers": receivers, "times": times}

    def _op_hub(self, msg: Mapping[str, Any]) -> Dict[str, Any]:
        return {"state": self.hub.snapshot_state()}

    def _op_trace_digest(self, msg: Mapping[str, Any]) -> Dict[str, Any]:
        """A stable digest of this shard's run, for determinism checks.

        Hashes the local trace events (uuid-free) plus the executed-event
        count; two runs with the same seed and shard count must agree on
        every shard's digest.
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


def gossip_shard_worker(
    conn: Any, shard_index: int, config_dict: Dict[str, Any]
) -> None:
    """Process entry point: build the shard, report ready, serve commands."""
    try:
        from repro.core.api import GossipConfig

        runtime = GossipShardRuntime(
            shard_index, GossipConfig.from_dict(config_dict)
        )
    except Exception as exc:
        try:
            conn.send({"ok": False, "error": f"{type(exc).__name__}: {exc}"})
        finally:
            return
    conn.send(
        {
            "ok": True,
            "egress": runtime.egress.drain(),
            "next": runtime.sim._queue.peek_time(),
        }
    )
    shard_worker_loop(conn, runtime)
