"""The distributed-Coordinator mode.

    "Notice that a distributed Coordinator is supported by
    WS-Coordination and thus also by WS-Gossip, as the list of
    subscribers can be maintained in a distributed fashion as proposed by
    WS-Membership [10]."  (paper, Section 3)

This module wires that mode together: every node runs WS-Membership
heartbeats plus Cyclon peer sampling, and its gossip engines draw their
peer view from the *live local membership* instead of a coordinator's
RegisterResponse.  There is no central subscriber list, no Activation /
Registration round trip, and no single node whose loss stops new
participants from joining.

:class:`DecentralizedGossipNode` is the building block;
:class:`DecentralizedGroup` builds a whole simulated deployment with the
same measurement surface as :class:`repro.core.api.GossipGroup`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.core.engine import GossipEngine, gossip_address_of
from repro.core.handler import GossipLayer
from repro.core.health import HealthPolicy, install_health
from repro.core.message import GossipStyle
from repro.core.params import GossipParams
from repro.core.peersampling import (
    SAMPLING_SERVICE_PATH,
    PeerSamplingEngine,
    PeerSamplingService,
)
from repro.core.roles import APP_PATH, AppNode
from repro.core.scheduling import ProcessScheduler
from repro.core.service import GossipService
from repro.simnet.events import Simulator
from repro.simnet.latency import LatencyModel
from repro.obs.hub import MetricsHub, default_hub, use_hub
from repro.simnet.network import Network
from repro.simnet.trace import TraceLog
from repro.wsa.addressing import EndpointReference
from repro.wscoord.context import CoordinationContext, new_context_identifier
from repro.wsmembership.engine import MembershipEngine
from repro.wsmembership.service import MembershipService

DEFAULT_ACTION = "urn:ws-gossip:example/Event"


def make_static_context(activity_id: Optional[str] = None) -> CoordinationContext:
    """A coordination context for a coordinator-less activity.

    The registration EPR points nowhere meaningful ("urn:decentralized");
    nodes in this mode never register -- the context's only job is to
    identify the activity in message headers.
    """
    identifier = activity_id or new_context_identifier()
    return CoordinationContext(
        identifier=identifier,
        coordination_type="urn:ws-gossip:2008:coordination",
        registration_service=EndpointReference("urn:decentralized"),
    )


class DecentralizedGossipNode(AppNode):
    """A gossip node whose peer view is maintained by membership gossip.

    Components per node: app endpoint, gossip layer + service, Cyclon
    peer sampling, WS-Membership heartbeats.  The gossip view is the set
    of *alive* members intersected with nothing -- membership is the
    authority; sampling keeps it mixed.
    """

    def __init__(
        self,
        name: str,
        network: Network,
        params: Optional[GossipParams] = None,
        membership_period: float = 0.5,
        sampling_period: float = 0.5,
        t_fail: float = 4.0,
        view_capacity: int = 16,
        health_policy: Optional[HealthPolicy] = None,
        durability=None,
        overload=None,
    ) -> None:
        super().__init__(name, network, app_path=APP_PATH)
        scheduler = ProcessScheduler(self)
        self.membership = MembershipEngine(
            runtime=self.runtime,
            scheduler=scheduler,
            self_address=self.app_address,
            period=membership_period,
            t_fail=t_fail,
            rng=self.sim.rng.get(f"membership:{name}"),
            # The detector's verdicts feed the health stage too.
            on_failure=self._member_failed,
        )
        self.runtime.add_service("/membership", MembershipService(self.membership))
        self.sampling = PeerSamplingEngine(
            runtime=self.runtime,
            scheduler=scheduler,
            self_address=self.app_address,
            capacity=view_capacity,
            shuffle_length=min(6, view_capacity),
            period=sampling_period,
            rng=self.sim.rng.get(f"sampling:{name}"),
        )
        self.runtime.add_service(
            SAMPLING_SERVICE_PATH, PeerSamplingService(self.sampling)
        )
        self.gossip_layer = GossipLayer(
            runtime=self.runtime,
            scheduler=scheduler,
            app_address=self.app_address,
            rng=self.sim.rng.get(f"gossip:{name}"),
            default_params=params,
            view_provider=self._gossip_view,
            durability=durability,
            overload=overload,
        )
        if health_policy is not None:
            # Retrying/breaker-guarded transport plus degraded-mode
            # gossip, fed by send outcomes and the membership detector.
            install_health(
                [self], health_policy, clock=lambda: self.sim.now, hub=network.hub
            )
        self.runtime.chain.add_first(self.gossip_layer)
        self.runtime.add_service("/gossip", GossipService(self.gossip_layer))
        self._seeds: List[str] = []
        #: Messages restored from the WAL by the most recent durable restart.
        self.replayed_messages = 0

    def _member_failed(self, address: str) -> None:
        self.gossip_layer.health.mark_failed(address)

    def _gossip_view(self) -> List[str]:
        """Alive members first; fall back to the sampling view while the
        membership table is still warming up."""
        alive = self.membership.alive_members()
        if alive:
            return alive
        return self.sampling.view_addresses()

    def bootstrap(self, seeds: Sequence[str]) -> None:
        """Introduce a few known peers (both protocols share the seeds)."""
        self._seeds = [seed for seed in seeds if seed]
        self.membership.bootstrap(seeds)
        self.sampling.bootstrap(seeds)

    def on_start(self) -> None:
        self.membership.start()
        self.sampling.start()

    def reset_state(self, amnesia: bool) -> None:
        """Crash-faithful restart: wipe (or replay) the gossip engines and
        drop in-memory health scores.  Membership/sampling views are
        rebuilt from the original seed list in :meth:`on_restart` -- the
        seeds model the node's static introducer configuration, the one
        thing that survives any restart."""
        super().reset_state(amnesia)
        self.replayed_messages = self.gossip_layer.prepare_restart(
            amnesia=amnesia, on_replayed=self._delivered_ids.add
        )

    def on_restart(self, amnesia: bool) -> None:
        """Rejoin: restart membership and sampling from the seed list,
        then run the gossip catch-up protocol."""
        self.membership.rejoin(self._seeds)
        self.sampling.rejoin(self._seeds)
        self.gossip_layer.rejoin()

    def join(self, context: CoordinationContext) -> GossipEngine:
        """Join an activity without any coordinator round trip."""
        return self.gossip_layer.join(context)

    def publish(self, context: CoordinationContext, action: str, value: Any) -> str:
        """Join (if needed) and disseminate one invocation."""
        return self.join(context).publish(action, value)


class DecentralizedGroup:
    """A complete coordinator-less deployment (experiment facade).

    Mirrors :class:`repro.core.api.GossipGroup`'s measurement surface so
    the ablation bench can sweep both modes interchangeably.
    """

    def __init__(
        self,
        n_nodes: int = 16,
        seed: int = 0,
        latency: Optional[LatencyModel] = None,
        loss_rate: float = 0.0,
        params: Optional[GossipParams] = None,
        seeds_per_node: int = 2,
        action: str = DEFAULT_ACTION,
        trace: bool = False,
        health_policy: Optional[HealthPolicy] = None,
    ) -> None:
        if n_nodes < 2:
            raise ValueError(f"need at least two nodes: {n_nodes!r}")
        self.sim = Simulator(seed=seed)
        self.trace = TraceLog(enabled=trace)
        # One hub per decentralized group (chained to the default hub),
        # so concurrent simulations never share metric state.
        self.metrics = MetricsHub(parent=default_hub(), name="decentralized-group")
        self.hub = self.metrics
        self.network = Network(
            self.sim, latency=latency, loss_rate=loss_rate,
            trace=self.trace, metrics=self.metrics,
        )
        self.action = action
        self.params = params if params is not None else GossipParams(
            fanout=4, rounds=7, style=GossipStyle.PUSH_PULL, period=0.5,
        )
        self.nodes: List[DecentralizedGossipNode] = [
            DecentralizedGossipNode(
                f"n{index}", self.network, params=self.params,
                health_policy=health_policy,
            )
            for index in range(n_nodes)
        ]
        addresses = [node.app_address for node in self.nodes]
        for index, node in enumerate(self.nodes):
            node.bind(self.action)
            # Ring-ish sparse bootstrap: a couple of successors each.
            seeds = [
                addresses[(index + offset + 1) % n_nodes]
                for offset in range(seeds_per_node)
            ]
            node.bootstrap(seeds)
        for node in self.nodes:
            node.start()
        self.context = make_static_context()
        self._setup_done = False

    @property
    def population(self) -> int:
        return len(self.nodes)

    def setup(self, warmup: float = 8.0) -> str:
        """Let membership and sampling converge; join every node."""
        if not self._setup_done:
            self._setup_done = True
            self.run_for(warmup)
            for node in self.nodes:
                node.join(self.context)
        return self.context.identifier

    def publish(self, value: Any, publisher_index: int = 0) -> str:
        """Disseminate one item from the chosen node."""
        with use_hub(self.hub):
            return self.nodes[publisher_index].publish(
                self.context, self.action, value
            )

    def run_for(self, duration: float) -> None:
        """Advance simulated time by ``duration`` seconds (under this
        group's hub, so hub-less call sites attribute costs here)."""
        with use_hub(self.hub):
            self.sim.run_until(self.sim.now + duration)

    def delivered_fraction(self, gossip_id: str, publisher_index: int = 0) -> float:
        """Fraction of other nodes that received the item."""
        others = [
            node for index, node in enumerate(self.nodes)
            if index != publisher_index
        ]
        delivered = sum(1 for node in others if node.has_delivered(gossip_id))
        return delivered / len(others)

    def delivery_times(self, gossip_id: str) -> List[float]:
        """First-delivery times across nodes that received the item."""
        times = []
        for node in self.nodes:
            when = node.delivery_time(gossip_id)
            if when is not None:
                times.append(when)
        return times

    def message_counts(self) -> Dict[str, int]:
        """Network-level counters (sent / delivered / dropped...)."""
        return self.metrics.counters()
