"""The live deploy layer: WS-Gossip over the asyncio transports.

The simulator answers "does the protocol work at N=5000"; this module
answers "does the *stack* work over real sockets" -- the deployment half
the paper claims (WS nodes coordinating over an actual network).  Every
gossip node here is a full middleware stack -- a
:class:`~repro.soap.runtime.SoapRuntime`, a
:class:`~repro.core.handler.GossipLayer` with its engines, a per-node
:class:`~repro.obs.hub.MetricsHub` -- bound to its own UDP or keep-alive
HTTP socket, all sharing one event loop.  It comes in two shapes:

* :class:`AsyncGossipMesh` -- N nodes with static membership: the mesh
  samples each node's peer view once at build time (the coordinator-less
  ``register=False`` join from the decentralized mode), so a soak run
  measures the transport and engine hot paths, not view convergence.
  ``benchmarks/bench_soak.py`` drives it with the stock workload;
  ``repro soak`` is the CLI front end.
* The paper's Figure-1 roles over HTTP: :class:`AsyncCoordinatorNode`
  (Activation, Registration, Subscription); :class:`AsyncGossipNode`
  without a static view as Initiator (:meth:`~AsyncGossipNode.activate`)
  and Disseminator -- it registers with the coordinator and auto-joins
  on its first gossip message, exactly like the simulator's
  :class:`~repro.core.roles.DisseminatorNode`; and
  :class:`AsyncConsumerNode`, the unchanged node with no gossip layer.

All engine state lives on the loop thread: lifecycle, publish, activate,
subscribe and view refresh calls from foreign threads hop onto the loop
first (:func:`~repro.transport.aio.run_on_loop`), so the single-threaded
engine invariants hold exactly as they do under the simulator.
"""

from __future__ import annotations

import asyncio
import random
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.coordination import GossipCoordinationProtocol
from repro.core.decentralized import DEFAULT_ACTION, make_static_context
from repro.core.engine import PROTOCOL_INITIATOR, GossipEngine
from repro.core.handler import GossipLayer
from repro.core.message import GossipHeader
from repro.core.params import GossipParams
from repro.core.roles import ACTIVATION_PATH, REGISTRATION_PATH, SUBSCRIPTION_PATH
from repro.core.service import GossipService
from repro.core.subscription import SUBSCRIBE_ACTION, SubscriptionService
from repro.soap import namespaces as ns
from repro.soap.runtime import SoapRuntime
from repro.soap.service import Service
from repro.transport.aio import (
    MAX_DATAGRAM_BYTES,
    AioScheduler,
    AsyncHttpNode,
    AsyncUdpNode,
    _on_loop,
    resolve_loop,
    run_on_loop,
)
from repro.wscoord.activation import CREATE_ACTION, ActivationService
from repro.wscoord.context import CoordinationContext
from repro.wscoord.coordinator import Coordinator
from repro.wscoord.registration import RegistrationService

APP_PATH = "/app"

#: Envelope + batch-frame overhead headroom under the IPv4 datagram cap.
UDP_SAFE_BATCH_BYTES = 49152

#: The single-core capacity rule from docs/DEPLOY.md ("Capacity on one
#: core"): application deliveries per second one event loop sustains on a
#: *steady trickle* of single publishes, each costing ~N deliveries plus
#: gossip redundancy.  It is the benchmark's ``live_steady`` workload
#: read the other way round (~500 us of CPU per delivery at 100 UDP
#: nodes); a saturating burst, where batching engages, runs ~4x higher
#: (``live_burst``) and is not what a soak offers.
SOAK_DELIVERY_BUDGET = 2000.0


def derive_soak_rate(n_nodes: int, ceiling: float = 10.0) -> float:
    """The default soak publish rate (ticks/s) for an ``n_nodes`` mesh.

    Scales ``--rate`` inversely with ``--nodes`` per the capacity rule:
    ``SOAK_DELIVERY_BUDGET / N`` publishes per second, capped at
    ``ceiling`` so tiny meshes are not flooded pointlessly.
    """
    if n_nodes < 2:
        raise ValueError(f"need at least two nodes: {n_nodes!r}")
    return min(ceiling, SOAK_DELIVERY_BUDGET / n_nodes)


def soak_params(transport: str = "udp", period: float = 0.5) -> GossipParams:
    """Default parameters for a live soak mesh.

    Push-pull gossip (eager push for speed, periodic pull digests to
    repair the gaps push redundancy misses) with multi-rumor batching;
    over UDP the batch byte cap stays under the datagram ceiling so every
    frame rides verbatim.
    """
    from repro.core.message import GossipStyle

    max_batch_bytes = UDP_SAFE_BATCH_BYTES if transport == "udp" else 262144
    return GossipParams(
        fanout=4,
        rounds=6,
        style=GossipStyle.PUSH_PULL,
        period=period,
        jitter=0.3,
        max_batch_rumors=8,
        max_batch_bytes=max_batch_bytes,
    )


def _call_on_loop(loop: asyncio.AbstractEventLoop, function: Callable, *args, **kwargs):
    """``function(*args, **kwargs)`` on ``loop``'s thread; returns its result.

    A role call made from any other thread hops onto the loop and waits;
    one made on the loop runs directly.
    """
    if _on_loop(loop):
        return function(*args, **kwargs)

    async def call():
        return function(*args, **kwargs)

    return run_on_loop(loop, call(), timeout=30.0)


def _subscribe(
    runtime: SoapRuntime, participant: str, address: str, activity_id: str
) -> None:
    """Subscribe ``participant`` to an activity (Figure 1's ``subscribe``)."""
    value = {"activity": activity_id, "participant": participant}
    _call_on_loop(
        runtime.transport.loop, runtime.send, address, SUBSCRIBE_ACTION, value=value
    )


class AsyncGossipNode:
    """One live node: socket edge + gossip layer + app endpoint.

    With a static peer view (:meth:`set_view`, what the mesh installs) the
    node gossips coordinator-less.  Without one it is the paper's
    Disseminator -- and, through :meth:`activate`, its Initiator: engines
    register with the coordinator and take their view from it.

    The app endpoint records first-delivery wall-clock times per gossip
    id (the loop's monotonic clock), which is what the soak harness turns
    into end-to-end latency percentiles.
    """

    def __init__(
        self,
        name: str,
        action: str = DEFAULT_ACTION,
        transport: str = "udp",
        loop: Optional[asyncio.AbstractEventLoop] = None,
        params: Optional[GossipParams] = None,
        rng: Optional[random.Random] = None,
        overload=None,
        telemetry=None,
    ) -> None:
        if transport == "udp":
            self.edge = AsyncUdpNode(loop=loop)
        elif transport == "http":
            # With overload protection on, the HTTP edge also gates
            # ingest: over-rate POSTs answer 429 + Retry-After, which
            # the resilient sender honors as breaker-independent backoff.
            from repro.transport.edge import EdgeAdmission

            admission = (
                EdgeAdmission.from_policy(overload)
                if overload is not None else None
            )
            self.edge = AsyncHttpNode(loop=loop, admission=admission)
        else:
            raise ValueError(f"unknown transport (udp|http): {transport!r}")
        self.name = name
        self.action = action
        self.loop = self.edge.loop
        self.runtime = self.edge.runtime
        self.scheduler = AioScheduler(self.loop)
        self.app_service = Service()
        self.app_service.add_operation(action, self._on_delivery)
        self.runtime.add_service(APP_PATH, self.app_service)
        self.gossip_layer = GossipLayer(
            runtime=self.runtime,
            scheduler=self.scheduler,
            app_address=self.app_address,
            rng=rng if rng is not None else random.Random(),
            default_params=params,
            overload=overload,
            telemetry=telemetry,
        )
        self.runtime.chain.add_first(self.gossip_layer)
        self.runtime.add_service("/gossip", GossipService(self.gossip_layer))
        self._peers: List[str] = []
        #: gossip id -> first-delivery time on the loop clock.
        self.delivered: Dict[str, float] = {}
        self.delivery_count = 0

    @property
    def app_address(self) -> str:
        return self.runtime.address_of(APP_PATH)

    def set_view(self, peers: Sequence[str]) -> None:
        """Install the node's static peer view (app addresses).

        From then on the node's engines draw peers from it and never
        register with a coordinator.
        """
        self._peers = [peer for peer in peers if peer != self.app_address]
        self.gossip_layer.view_provider = self._view

    def _view(self) -> List[str]:
        return self._peers

    def _on_delivery(self, context, value) -> None:
        header = GossipHeader.from_envelope(context.envelope)
        self.delivery_count += 1
        if header is not None and header.message_id not in self.delivered:
            self.delivered[header.message_id] = self.loop.time()

    def has_delivered(self, gossip_id: str) -> bool:
        """True when this node's app saw the data item at least once."""
        return gossip_id in self.delivered

    def join(self, context: CoordinationContext):
        """Join coordinator-less; periodic rounds start immediately."""
        return self.gossip_layer.join(context, register=False)

    # -- the Figure-1 role calls (safe from any thread) -------------------------

    def activate(
        self,
        activation_address: str,
        parameters: Optional[Dict[str, Any]] = None,
        on_ready: Optional[Callable[[GossipEngine], None]] = None,
    ) -> None:
        """Initiator: create a gossip activity at the coordinator.

        When the coordination context arrives this node joins as the
        activity's initiator and ``on_ready(engine)`` runs on the loop.
        """

        def handle_context(reply_context, value) -> None:
            context = CoordinationContext.from_element(reply_context.envelope.body)
            engine = self.gossip_layer.join(context, protocol=PROTOCOL_INITIATOR)
            if on_ready is not None:
                on_ready(engine)

        _call_on_loop(
            self.loop,
            self.runtime.send,
            activation_address,
            CREATE_ACTION,
            value={
                "coordination_type": ns.WSGOSSIP_COORD,
                "parameters": parameters or {},
            },
            on_reply=handle_context,
        )

    def subscribe(self, subscription_address: str, activity_id: str) -> None:
        """Subscribe this node's app endpoint to an activity."""
        _subscribe(self.runtime, self.app_address, subscription_address, activity_id)

    def publish(self, activity_id: str, value: Any) -> str:
        """Disseminate one invocation of this node's action; returns its
        gossip id."""
        return _call_on_loop(
            self.loop, self._joined(activity_id).publish, self.action, value
        )

    def refresh_view(self, activity_id: str) -> None:
        """Ask the coordinator for a fresh peer view of an activity."""
        _call_on_loop(self.loop, self._joined(activity_id).refresh_view)

    def _joined(self, activity_id: str) -> GossipEngine:
        engine = self.gossip_layer.engine_for(activity_id)
        if engine is None:
            raise KeyError(f"{self.name} has not joined activity {activity_id!r}")
        return engine

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> None:
        """Start serving, from outside the loop (see :meth:`astart`)."""
        run_on_loop(self.loop, self.astart())

    def stop(self) -> None:
        """Stop serving, from outside the loop (see :meth:`astop`)."""
        run_on_loop(self.loop, self.astop())

    async def astart(self) -> None:
        await self.edge.astart()

    async def astop(self) -> None:
        """Silence the engines' timers; close the socket and the transport."""
        self.scheduler.close()
        await self.edge.astop()


class AsyncConsumerNode(AsyncHttpNode):
    """The Consumer role: a completely unchanged node over HTTP.

    A plain SOAP stack -- no gossip layer anywhere in its chain -- whose
    app service receives a gossiped invocation like any other and records
    it.
    """

    def __init__(
        self,
        action: str = DEFAULT_ACTION,
        loop: Optional[asyncio.AbstractEventLoop] = None,
    ) -> None:
        super().__init__(loop=loop)
        self.app_service = Service()
        self.app_service.add_operation(action, self._on_delivery)
        self.runtime.add_service(APP_PATH, self.app_service)
        #: ``(gossip id or None, value)`` per delivered invocation.
        self.deliveries: List[Tuple[Optional[str], Any]] = []

    @property
    def app_address(self) -> str:
        return self.runtime.address_of(APP_PATH)

    def _on_delivery(self, context, value) -> None:
        header = GossipHeader.from_envelope(context.envelope)
        self.deliveries.append((header.message_id if header else None, value))

    def has_delivered(self, gossip_id: str) -> bool:
        """True when this node's app saw the data item at least once."""
        return any(seen == gossip_id for seen, _ in self.deliveries)

    def subscribe(self, subscription_address: str, activity_id: str) -> None:
        """Subscribe this node's app endpoint to an activity."""
        _subscribe(self.runtime, self.app_address, subscription_address, activity_id)


class AsyncCoordinatorNode(AsyncHttpNode):
    """The Coordinator role over HTTP: WS-Coordination with the gossip
    protocol, serving Activation, Registration and Subscription."""

    def __init__(
        self, seed: int = 0, loop: Optional[asyncio.AbstractEventLoop] = None
    ) -> None:
        super().__init__(loop=loop)
        self.coordinator = Coordinator(
            lambda activity: self.runtime.epr(REGISTRATION_PATH, ActivityId=activity)
        )
        self.coordinator.add_protocol(
            GossipCoordinationProtocol(rng=random.Random(seed))
        )
        for path, service in (
            (ACTIVATION_PATH, ActivationService),
            (REGISTRATION_PATH, RegistrationService),
            (SUBSCRIPTION_PATH, SubscriptionService),
        ):
            self.runtime.add_service(path, service(self.coordinator))

    @property
    def activation_address(self) -> str:
        return self.runtime.address_of(ACTIVATION_PATH)

    @property
    def subscription_address(self) -> str:
        return self.runtime.address_of(SUBSCRIPTION_PATH)


class AsyncGossipMesh:
    """N live nodes with static random peer views on one event loop.

    Build it anywhere; run it either from async code (``await
    mesh.astart()`` ... ``await mesh.apublish(...)``) or synchronously
    (``mesh.start()`` / ``mesh.publish(...)``), in which case everything
    hops onto the background loop.
    """

    def __init__(
        self,
        n_nodes: int,
        transport: str = "udp",
        params: Optional[GossipParams] = None,
        view_size: int = 8,
        seed: int = 0,
        action: str = DEFAULT_ACTION,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        telemetry=None,
    ) -> None:
        if n_nodes < 2:
            raise ValueError(f"need at least two nodes: {n_nodes!r}")
        self.loop = resolve_loop(loop)
        self.transport = transport
        self.action = action
        self.params = params if params is not None else soak_params(transport)
        rng = random.Random(seed)
        self.nodes: List[AsyncGossipNode] = [
            AsyncGossipNode(
                f"n{index}",
                action=action,
                transport=transport,
                loop=self.loop,
                params=self.params,
                rng=random.Random(rng.random()),
                telemetry=telemetry,
            )
            for index in range(n_nodes)
        ]
        addresses = [node.app_address for node in self.nodes]
        view_size = min(view_size, n_nodes - 1)
        for index, node in enumerate(self.nodes):
            others = addresses[:index] + addresses[index + 1:]
            node.set_view(rng.sample(others, view_size))
        self.context = make_static_context()
        self.telemetry = telemetry
        self._started = False

    @property
    def population(self) -> int:
        return len(self.nodes)

    # -- lifecycle ------------------------------------------------------------

    async def astart(self) -> None:
        if self._started:
            return
        self._started = True
        await asyncio.gather(*(node.astart() for node in self.nodes))
        for node in self.nodes:
            node.join(self.context)

    async def astop(self) -> None:
        if not self._started:
            return
        self._started = False
        await asyncio.gather(*(node.astop() for node in self.nodes))

    def start(self) -> None:
        run_on_loop(self.loop, self.astart(), timeout=60.0)

    def stop(self) -> None:
        run_on_loop(self.loop, self.astop(), timeout=60.0)

    def __enter__(self) -> "AsyncGossipMesh":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- publishing -----------------------------------------------------------

    async def apublish(self, value: Any, publisher_index: int = 0) -> str:
        """Publish one item from a node (must run on the mesh's loop)."""
        node = self.nodes[publisher_index]
        engine = node.gossip_layer.engine_for(self.context.identifier)
        return engine.publish(self.action, value)

    def publish(self, value: Any, publisher_index: int = 0) -> str:
        """Publish from sync code: hops onto the loop and waits."""
        if _on_loop(self.loop):
            raise RuntimeError("use apublish() from the event loop")
        return run_on_loop(
            self.loop, self.apublish(value, publisher_index), timeout=30.0
        )

    # -- measurement ----------------------------------------------------------

    def delivered_fraction(self, gossip_id: str, publisher_index: int = 0) -> float:
        """Fraction of the *other* nodes that delivered the item."""
        others = [
            node for index, node in enumerate(self.nodes)
            if index != publisher_index
        ]
        hits = sum(1 for node in others if gossip_id in node.delivered)
        return hits / len(others)

    def delivery_latencies(self, published: Dict[str, float]) -> List[float]:
        """Per-(message, node) end-to-end latencies for published items.

        ``published`` maps gossip id -> publish time on the loop clock.
        """
        latencies: List[float] = []
        for node in self.nodes:
            for gossip_id, when in node.delivered.items():
                publish_time = published.get(gossip_id)
                if publish_time is not None:
                    latencies.append(when - publish_time)
        return latencies

    def total_deliveries(self) -> int:
        return sum(node.delivery_count for node in self.nodes)

    def merged_hub(self):
        """One hub with every node's metric state folded in.

        Each live node keeps its own :class:`~repro.obs.hub.MetricsHub`
        (tracer spans, telemetry histograms, counters); merging them is
        what reconstructs group-level infection curves and per-hop latency
        from a real-socket run, exactly like the sharded simulator's
        ``repro obs report --shards`` merge.
        """
        from repro.obs.hub import MetricsHub

        return MetricsHub.merged(
            (node.edge.hub.snapshot_state() for node in self.nodes),
            parent=None,
            name="mesh",
        )

    def telemetry_summary(self) -> Dict[str, Any]:
        """Reconstruct the soak's dissemination picture from trace context.

        Returns per-hop / end-to-end latency percentiles (from the sampled
        wire trace sections), the merged infection curve per rumor, and
        rounds-to-99% -- the live-network analogue of the simulator's
        ``repro obs report`` span section.
        """

        def percentiles(values: List[float]) -> Dict[str, float]:
            if not values:
                return {}
            ordered = sorted(values)
            rank = lambda q: ordered[min(len(ordered) - 1, int(q * len(ordered)))]
            return {
                "p50": rank(0.50),
                "p95": rank(0.95),
                "p99": rank(0.99),
                "max": ordered[-1],
                "count": len(ordered),
            }

        hub = self.merged_hub()
        population = self.population
        rumors = []
        for span in hub.tracer.spans():
            rumors.append(
                {
                    "message_id": span.message_id,
                    "origin": span.origin,
                    "delivered": span.delivered_count,
                    "rounds_max": max(span.rounds_of_deliveries(), default=0),
                    "rounds_to_99": span.rounds_to_fraction(0.99, population),
                    "infection_curve": span.infection_curve(),
                }
            )
        spans = hub.tracer.spans()
        delivered_fraction = (
            sum(
                min(1.0, span.delivered_count / max(1, population - 1))
                for span in spans
            )
            / len(spans)
            if spans
            else 0.0
        )
        return {
            "population": population,
            "rumors": rumors,
            "delivered_fraction": delivered_fraction,
            "hop_latency_ms": percentiles(
                hub.histogram("telemetry.hop_latency_ms").values()
            ),
            "e2e_latency_ms": percentiles(
                hub.histogram("telemetry.e2e_latency_ms").values()
            ),
            "samples": hub.counter("telemetry.samples").value,
            "skew_guarded": hub.counter("telemetry.skew_guarded").value,
        }
