"""The four WS-Gossip roles from the paper's Figure 1, as simulated nodes.

* :class:`CoordinatorNode` -- hosts Activation, Registration and
  Subscription; manages the subscriber list and gossip parameters.
* :class:`InitiatorNode` -- the one application whose code changes: it
  activates a gossip interaction and issues a single notification.
* :class:`DisseminatorNode` -- application unchanged, but the middleware
  stack gains the gossip layer; intercepts, registers, forwards.
* :class:`ConsumerNode` -- completely unchanged node: plain SOAP stack,
  receives the invocation like any other.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.core.coordination import GossipCoordinationProtocol
from repro.core.engine import PROTOCOL_INITIATOR, GossipEngine
from repro.core.handler import GossipLayer
from repro.core.message import GossipHeader
from repro.core.params import GossipParams
from repro.core.scheduling import ProcessScheduler
from repro.core.service import GossipService
from repro.core.subscription import SUBSCRIBE_ACTION, SubscriptionService
from repro.simnet.network import Network
from repro.soap import namespaces as ns
from repro.soap.handler import MessageContext
from repro.soap.service import Service
from repro.transport.inmem import WsProcess
from repro.wscoord.activation import CREATE_ACTION, ActivationService
from repro.wscoord.context import CoordinationContext
from repro.wscoord.coordinator import Coordinator
from repro.wscoord.registration import RegistrationService

ACTIVATION_PATH = "/activation"
REGISTRATION_PATH = "/registration"
SUBSCRIPTION_PATH = "/subscription"
APP_PATH = "/app"


class CoordinatorNode(WsProcess):
    """A WS-Coordination coordinator with the gossip protocol installed."""

    def __init__(
        self,
        name: str,
        network: Network,
        defaults: Optional[GossipParams] = None,
        auto_tune: bool = True,
        target_reliability: float = 0.99,
    ) -> None:
        super().__init__(name, network)
        self.coordinator = Coordinator(self._registration_epr)
        self.gossip_protocol = GossipCoordinationProtocol(
            rng=self.sim.rng.get(f"coordinator:{name}"),
            defaults=defaults,
            auto_tune=auto_tune,
            target_reliability=target_reliability,
        )
        self.coordinator.add_protocol(self.gossip_protocol)
        self.runtime.add_service(ACTIVATION_PATH, ActivationService(self.coordinator))
        self.runtime.add_service(
            REGISTRATION_PATH, RegistrationService(self.coordinator)
        )
        self.subscription_service = SubscriptionService(
            self.coordinator, clock=lambda: self.now
        )
        self.runtime.add_service(SUBSCRIPTION_PATH, self.subscription_service)
        from repro.core.topics import TOPIC_DIRECTORY_PATH, TopicDirectoryService

        self.topic_directory = TopicDirectoryService(self.coordinator)
        self.runtime.add_service(TOPIC_DIRECTORY_PATH, self.topic_directory)

    def on_start(self) -> None:
        # Periodically drop subscribers whose leases lapsed, so departed
        # consumers stop being handed out as gossip targets.
        self.set_periodic_timer(5.0, self.subscription_service.prune_all)

    def _registration_epr(self, activity_id: str):
        return self.runtime.epr(REGISTRATION_PATH, ActivityId=activity_id)

    @property
    def activation_address(self) -> str:
        return self.runtime.address_of(ACTIVATION_PATH)

    @property
    def subscription_address(self) -> str:
        return self.runtime.address_of(SUBSCRIPTION_PATH)

    @property
    def topic_directory_address(self) -> str:
        from repro.core.topics import TOPIC_DIRECTORY_PATH

        return self.runtime.address_of(TOPIC_DIRECTORY_PATH)


class Delivery:
    """One application-level delivery recorded by a node."""

    __slots__ = ("time", "action", "value", "gossip_id", "origin")

    def __init__(self, time, action, value, gossip_id, origin) -> None:
        self.time = time
        self.action = action
        self.value = value
        self.gossip_id = gossip_id
        self.origin = origin

    def __repr__(self) -> str:
        return f"Delivery(t={self.time:.4f}, action={self.action!r}, id={self.gossip_id!r})"


class AppNode(WsProcess):
    """Base for nodes hosting an application endpoint.

    The app service records every delivered invocation (for experiment
    accounting) and invokes any bound callback.
    """

    def __init__(self, name: str, network: Network, app_path: str = APP_PATH) -> None:
        super().__init__(name, network)
        self.app_path = app_path
        self.app_service = Service()
        self.runtime.add_service(app_path, self.app_service)
        self.deliveries: List[Delivery] = []
        self._delivered_ids: set = set()

    def reset_state(self, amnesia: bool) -> None:
        """Crash-faithful restart: the app's delivery record is process
        state and dies with the process.  A durable gossip layer (see
        :class:`DisseminatorNode`) repopulates the delivered-set from its
        WAL replay."""
        super().reset_state(amnesia)
        self.deliveries = []
        self._delivered_ids = set()

    @property
    def app_address(self) -> str:
        return self.runtime.address_of(self.app_path)

    def bind(
        self,
        action: str,
        callback: Optional[Callable[[MessageContext, Any], Any]] = None,
    ) -> None:
        """Accept invocations with ``action``, recording each delivery."""

        def handle(context: MessageContext, value: Any) -> Any:
            header = GossipHeader.from_envelope(context.envelope)
            gossip_id = header.message_id if header is not None else None
            origin = header.origin if header is not None else None
            delivery = Delivery(self.now, action, value, gossip_id, origin)
            self.deliveries.append(delivery)
            if gossip_id is not None:
                self._delivered_ids.add(gossip_id)
            if callback is not None:
                return callback(context, value)
            return None

        self.app_service.add_operation(action, handle)

    def has_delivered(self, gossip_id: str) -> bool:
        """True when this node's app saw the data item at least once."""
        return gossip_id in self._delivered_ids

    def delivery_time(self, gossip_id: str) -> Optional[float]:
        """First delivery time of a data item, or ``None``."""
        for delivery in self.deliveries:
            if delivery.gossip_id == gossip_id:
                return delivery.time
        return None

    def subscribe(
        self,
        subscription_address: str,
        activity_id: str,
        on_reply: Optional[Callable[[MessageContext, Any], None]] = None,
    ) -> None:
        """Subscribe this node's app endpoint to an activity (Figure 1's
        ``subscribe`` arrows).  Pass ``on_reply`` to observe the ack."""
        self.runtime.send(
            subscription_address,
            SUBSCRIBE_ACTION,
            value={"activity": activity_id, "participant": self.app_address},
            on_reply=on_reply,
        )


class ConsumerNode(AppNode):
    """Unchanged node: plain stack, no gossip layer at all."""


class DisseminatorNode(AppNode):
    """App unchanged; the middleware stack gains the gossip layer."""

    def __init__(
        self,
        name: str,
        network: Network,
        app_path: str = APP_PATH,
        params: Optional[GossipParams] = None,
        auto_join: bool = True,
        durability=None,
        overload=None,
        telemetry=None,
    ) -> None:
        super().__init__(name, network, app_path=app_path)
        self.gossip_layer = GossipLayer(
            runtime=self.runtime,
            scheduler=ProcessScheduler(self),
            app_address=self.app_address,
            rng=self.sim.rng.get(f"gossip:{name}"),
            auto_join=auto_join,
            default_params=params,
            durability=durability,
            overload=overload,
            telemetry=telemetry,
        )
        self.runtime.chain.add_first(self.gossip_layer)
        self.runtime.add_service("/gossip", GossipService(self.gossip_layer))
        #: Messages restored from the WAL by the most recent durable restart.
        self.replayed_messages = 0

    def reset_state(self, amnesia: bool) -> None:
        """Restart: wipe (or replay) the gossip layer's engines.

        Durable replay re-marks recovered identities as delivered so the
        experiment accounting matches what the pre-crash process had
        handed its application.
        """
        super().reset_state(amnesia)
        self.replayed_messages = self.gossip_layer.prepare_restart(
            amnesia=amnesia, on_replayed=self._delivered_ids.add
        )

    def on_restart(self, amnesia: bool) -> None:
        """Rejoin the gossip group: re-register, then catch up with
        healthy peers before forwarding eagerly again."""
        self.gossip_layer.rejoin()


class InitiatorNode(DisseminatorNode):
    """The one application that changes: delegates subscription management
    and issues a single notification after activating a gossip interaction.
    """

    def __init__(
        self,
        name: str,
        network: Network,
        app_path: str = APP_PATH,
        params: Optional[GossipParams] = None,
        durability=None,
        overload=None,
        telemetry=None,
    ) -> None:
        super().__init__(
            name,
            network,
            app_path=app_path,
            params=params,
            durability=durability,
            overload=overload,
            telemetry=telemetry,
        )
        self.activities: Dict[str, GossipEngine] = {}

    def activate(
        self,
        activation_address: str,
        parameters: Optional[Dict[str, Any]] = None,
        expires: Optional[float] = None,
        on_ready: Optional[Callable[[GossipEngine], None]] = None,
    ) -> None:
        """Create a gossip activity at the coordinator.

        ``on_ready`` fires once the context arrives and this node has begun
        registering as the activity's initiator.
        """

        def handle_context(reply_context: MessageContext, value: Any) -> None:
            body = reply_context.envelope.body
            if body is None:
                self.runtime.metrics.counter("gossip.activate-failed").inc()
                return
            context = CoordinationContext.from_element(body)
            engine = self.gossip_layer.join(context, protocol=PROTOCOL_INITIATOR)
            self.activities[context.identifier] = engine
            if on_ready is not None:
                on_ready(engine)

        self.runtime.send(
            activation_address,
            CREATE_ACTION,
            value={
                "coordination_type": ns.WSGOSSIP_COORD,
                "expires": expires,
                "parameters": parameters or {},
            },
            on_reply=handle_context,
        )

    def publish(self, activity_id: str, action: str, value: Any) -> str:
        """Disseminate one invocation; returns the gossip message id.

        Raises:
            KeyError: for activities this initiator never activated/joined.
        """
        engine = self.activities[activity_id]
        return engine.publish(action, value)

    def ensure_topic(
        self,
        directory_address: str,
        topic: str,
        parameters: Optional[Dict[str, Any]] = None,
        on_ready: Optional[Callable[[GossipEngine], None]] = None,
    ) -> None:
        """Resolve a named topic at the directory and join its activity.

        Once the directory answers, the engine appears in
        :attr:`activities` (keyed by activity id) and ``on_ready`` fires.
        """
        from repro.core.topics import ensure_topic

        def handle(context, response) -> None:
            engine = self.gossip_layer.join(context, protocol=PROTOCOL_INITIATOR)
            self.activities[context.identifier] = engine
            if on_ready is not None:
                on_ready(engine)

        ensure_topic(
            self.runtime,
            directory_address,
            topic,
            parameters=parameters,
            on_context=handle,
        )
