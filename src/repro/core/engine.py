"""The node-local gossip engine.

One :class:`GossipEngine` instance exists per (node, activity).  It owns
the activity's message store, peer view and parameters, and implements the
behaviour of every gossip style:

* **push**: a fresh message is immediately forwarded to ``fanout`` peers
  with a decremented round budget (infect-and-die rumor mongering).
* **pull**: no eager forwarding; every ``period`` the engine sends its
  store summary to ``fanout`` random peers; one whose store differs opens
  the digest exchange that returns the messages either side lacks.
* **push-pull**: eager push plus the periodic pull as a repair path.
* **anti-entropy**: every ``period`` the engine reconciles bidirectionally
  with one random peer (the same summary-first digest exchange).
* **lazy-push**: eager hops carry only message *identifiers* (ads);
  peers that lack the item Fetch it from the advertiser -- the
  Plumtree-style bandwidth optimization.
* **feedback**: re-forward each period while "hot"; duplicate feedback
  cools the rumor with probability ``stop_probability`` (Demers-style
  coin variant), bounded by the rounds cap.

The engine normally never *delivers* messages to the application itself:
delivery is the normal SOAP dispatch that continues after the gossip
handler lets a fresh message through -- which is how the paper keeps
Consumers unchanged.  The one exception is FIFO ordered mode
(``params.ordered``): the engine holds out-of-order arrivals back and
re-runs local dispatch when gaps close.
"""

from __future__ import annotations

import random
import sys
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.batch import BatchControl, build_batch
from repro.core.buffer import MessageStore
from repro.core.message import (
    GossipHeader,
    GossipStyle,
    TraceContext,
    new_gossip_message_id,
    splice_forward,
    splice_hops,
)
from repro.core.ordering import FifoBuffer
from repro.core.overload import OverloadError, OverloadPolicy, ShedLatch
from repro.core.params import GossipParams
from repro.core.peers import HealthAwareSelector, PeerSelector, UniformSelector
from repro.core.scheduling import Scheduler
from repro.core.store import CATCH_UP_PEERS, CATCH_UP_ROUNDS, DurabilityPolicy, GossipLog
from repro.core.telemetry import CLOCK_SKEW_GUARD, MAX_PATH_LENGTH, TelemetryPolicy
from repro.obs.hub import hub_of
from repro.soap import namespaces as ns
from repro.soap.envelope import Envelope
from repro.soap.handler import Direction, MessageContext
from repro.soap.runtime import SoapRuntime
from repro.transport.base import split_address
from repro.wsa.addressing import AddressingHeaders
from repro.wscoord.context import CoordinationContext

# The gossip port type.  An engine originates only ``Fetch``; it sends
# everything else as rumor frames and batch control sections through the
# outbox, and ``GossipService`` still serves the rest for peers that send
# them (docs/WIRE.md, "Control exchanges").
PULL_ACTION = f"{ns.WSGOSSIP}/Pull"
PULL_RESPONSE_ACTION = f"{ns.WSGOSSIP}/PullResponse"
DELIVER_ACTION = f"{ns.WSGOSSIP}/Deliver"
ADVERTISE_ACTION = f"{ns.WSGOSSIP}/Advertise"
FETCH_ACTION = f"{ns.WSGOSSIP}/Fetch"
FEEDBACK_ACTION = f"{ns.WSGOSSIP}/Feedback"

# Registration protocol identifiers (the "protocol" field of Register).
PROTOCOL_DISSEMINATOR = f"{ns.WSGOSSIP}/protocol/disseminator"
PROTOCOL_INITIATOR = f"{ns.WSGOSSIP}/protocol/initiator"
PROTOCOL_SUBSCRIBER = f"{ns.WSGOSSIP}/protocol/subscriber"

GOSSIP_SERVICE_PATH = "/gossip"


def gossip_address_of(app_address: str) -> str:
    """Derive a node's gossip port address from any of its app addresses.

    By framework convention every gossip-capable node mounts its gossip
    service at ``/gossip`` on the same base address.
    """
    scheme, authority, _ = split_address(app_address)
    return f"{scheme}://{authority}{GOSSIP_SERVICE_PATH}"


class GossipEngine:
    """Protocol state machine for one activity on one node.

    Args:
        runtime: the node's SOAP runtime.
        scheduler: timer/clock facade for the host (sim or threads).
        context: the activity's coordination context.
        app_address: the local application endpoint the activity targets
            (used for self-exclusion and as the registered participant).
        params: initial parameters; replaced by whatever the coordinator
            returns at registration.
        rng: the random stream for peer selection.
        selector: peer-selection strategy (uniform by default).
        on_params: optional hook invoked when the coordinator updates the
            parameters.
        view_provider: optional callable returning the current peer view;
            when set it replaces the coordinator-supplied ``view`` entirely
            -- this is the distributed-coordinator mode, fed by peer
            sampling or WS-Membership.
        health: optional :class:`~repro.core.health.PeerHealth`.  When
            set the engine gossips in degraded mode: target selection
            down-weights suspected peers, the effective fanout grows as
            the healthy pool shrinks, and inbound gossip counts as proof
            of life for its sender.
        log: optional :class:`~repro.core.store.GossipLog`.  When set the
            engine appends gossip-critical state changes to the WAL so a
            crashed node can be restarted without amnesia
            (docs/RESILIENCE.md, "Crash-recovery and rejoin").
        durability: the :class:`~repro.core.store.DurabilityPolicy`
            governing snapshot cadence and the rejoin catch-up bounds;
            defaults apply when a ``log`` is given without a policy.
    """

    # Dormant state and absent subsystems live on the class: an engine
    # sets them on itself only when they are given or change, so a plain
    # engine's instance dict stays under CPython's shared-key limit
    # (30 names) and costs ~0.3 KiB instead of ~1.6 KiB per node.
    health = None
    view_provider: Optional[Callable[[], Sequence[str]]] = None
    _on_params: Optional[Callable[[GossipParams], None]] = None
    _stopped = False
    _pending_limit = 128
    _publish_sequence = 0
    log: Optional[GossipLog] = None
    durability: Optional[DurabilityPolicy] = None
    # While ``_recovering`` the engine ingests and delivers but does not
    # eagerly forward -- it first catches up with healthy peers.
    _recovering = False
    _catch_up_rounds_left = 0
    telemetry: Optional[TelemetryPolicy] = None
    overload: Optional[OverloadPolicy] = None
    _pressure_provider: Optional[Callable[[], float]] = None
    _shed_latch: Optional[ShedLatch] = None
    # Adaptive control: a hard ceiling on the *effective* fanout after
    # the health layer's degraded-mode boost.  With ``None`` (the
    # default) ``health.BOOST_CAP`` alone bounds the boost; the
    # AdaptiveController sets it so its own boost and the health boost
    # can never compound past it.
    fanout_ceiling: Optional[int] = None

    def __init__(
        self,
        runtime: SoapRuntime,
        scheduler: Scheduler,
        context: CoordinationContext,
        app_address: str,
        params: Optional[GossipParams] = None,
        rng: Optional[random.Random] = None,
        selector: Optional[PeerSelector] = None,
        on_params: Optional[Callable[[GossipParams], None]] = None,
        view_provider: Optional[Callable[[], Sequence[str]]] = None,
        health=None,
        log: Optional[GossipLog] = None,
        durability: Optional[DurabilityPolicy] = None,
        overload: Optional[OverloadPolicy] = None,
        pressure_provider: Optional[Callable[[], float]] = None,
        telemetry: Optional[TelemetryPolicy] = None,
    ) -> None:
        self.runtime = runtime
        self.scheduler = scheduler
        self.context = context
        self.app_address = app_address
        self.params = params if params is not None else GossipParams()
        self.rng = rng if rng is not None else random.Random()
        if health is not None:
            self.health = health
        self.selector = selector if selector is not None else UniformSelector()
        if health is not None and not isinstance(self.selector, HealthAwareSelector):
            # Degraded-mode gossip: prefer unsuspected peers, whatever the
            # underlying strategy.
            self.selector = HealthAwareSelector(health, self.selector)
        self.store = MessageStore(self.params.buffer_capacity)
        self.view: List[str] = []
        if view_provider is not None:
            self.view_provider = view_provider
        self.registered = False
        self.register_pending = False
        if on_params is not None:
            self._on_params = on_params
        self._periodic_started = False
        # Messages that arrived before registration completed: the paper's
        # flow is register -> obtain targets -> forward, so fresh messages
        # wait here until the RegisterResponse delivers a peer view.
        self._pending_forwards: List[tuple] = []
        # Lazy push: remaining ad budget per advertised message id, plus
        # the ids we have already fetched but not yet received (avoids
        # duplicate fetches when several ads race ahead of the payload).
        self._ad_hops: Dict[str, int] = {}
        self._pending_fetch: set = set()
        # Feedback style: message id -> remaining hot rounds; a hot rumor
        # is re-forwarded every period until feedback cools it.
        self._hot: Dict[str, int] = {}
        # FIFO ordered mode: per-origin holdback and publication counter.
        self._fifo = FifoBuffer()
        # Crash recovery: optional WAL + policy (the rejoin state starts
        # from the class-level defaults above).
        if log is not None:
            self.log = log
            self.durability = (
                durability if durability is not None else DurabilityPolicy()
            )
        elif durability is not None:
            self.durability = durability
        self._last_protocol = PROTOCOL_DISSEMINATOR
        # The outbox: every gossip send is parked here and coalesced by a
        # zero-delay flush event, so everything a node emits within one
        # simulated instant -- eager payloads, advertisements, feedback,
        # pull summaries and digests -- shares one envelope per destination
        # (split at ``params.max_batch_rumors``; unbatched is a batch of
        # one).  Fan-out entries are grouped by their exclusion key and
        # resolve to concrete targets at flush time, so a whole burst
        # shares one peer selection.
        self._outbox_fanout: Dict[tuple, List[bytes]] = {}
        self._outbox_direct: Dict[str, List[bytes]] = {}
        self._outbox_control: Dict[str, BatchControl] = {}
        self._flush_scheduled = False
        # Observability: the hub behind this node's metrics sink provides
        # the counter groups and the causal rumor tracer.
        obs = hub_of(runtime.metrics)
        self._hub = obs
        self._batch = obs.batch
        self._recovery = obs.recovery
        self._tracer = obs.tracer
        # Live telemetry plane (docs/OBSERVABILITY.md, "Live telemetry").
        # ``None`` (the default) keeps every trace-context code path
        # dormant -- no Trace section is serialized and the wire bytes are
        # byte-for-byte what they were before this subsystem existed
        # (tests/integration/test_trace_identity).  The histograms are
        # bound eagerly so the receive path does a dict-free record.
        if telemetry is not None:
            self.telemetry = telemetry
            self._hop_latency = obs.histogram("telemetry.hop_latency_ms")
            self._e2e_latency = obs.histogram("telemetry.e2e_latency_ms")
            self._telemetry_samples = obs.counter("telemetry.samples")
            self._telemetry_skew = obs.counter("telemetry.skew_guarded")
            self._telemetry_clamped = obs.counter("telemetry.path_clamped")
        # Overload protection (docs/RESILIENCE.md, "Overload and
        # backpressure").  ``None`` (the default) keeps every overload
        # code path dormant -- the wire trace is guaranteed identical to
        # the pre-overload behaviour (tests/integration/test_trace_identity).
        # ``pressure_provider`` folds in external pressure (the layer's
        # bounded ingest queue) so one signal covers both directions.
        if overload is not None:
            self.overload = overload
            self._shed_latch = ShedLatch(obs.overload)
        if pressure_provider is not None:
            self._pressure_provider = pressure_provider

    @property
    def activity_id(self) -> str:
        return self.context.identifier

    @property
    def metrics(self):
        return self.runtime.metrics

    # -- registration -----------------------------------------------------------

    def register(
        self,
        protocol: str = PROTOCOL_DISSEMINATOR,
        max_attempts: int = 12,
        retry_timeout: float = 1.5,
    ) -> None:
        """Register with the activity's Registration service.

        The RegisterResponse delivers the coordinator-chosen parameters and
        a fresh peer sample ("adequate parameter configurations and peers
        for each gossip round", paper Section 3).  The exchange is retried
        up to ``max_attempts`` times: registration is control traffic that
        must survive the same lossy fabric the gossip rides on.
        """
        self.register_pending = True
        self._last_protocol = protocol
        attempt_state = {"sent": 0, "answered": False, "last_id": None}

        def on_reply(reply_context, value) -> None:
            attempt_state["answered"] = True
            self._on_register_reply(reply_context, value)

        def send_attempt() -> None:
            if attempt_state["answered"] or self._stopped:
                return
            # A retry supersedes the previous attempt: drop its callback so
            # abandoned attempts do not accumulate in the runtime.
            if attempt_state["last_id"] is not None:
                self.runtime.cancel_reply(attempt_state["last_id"])
            if attempt_state["sent"] >= max_attempts:
                self.register_pending = False
                self.metrics.counter("gossip.register.gave-up").inc()
                return
            attempt_state["sent"] += 1
            self.metrics.counter("gossip.register").inc()
            attempt_state["last_id"] = self.runtime.send(
                self.context.registration_service,
                f"{ns.WSCOORD}/Register",
                value={
                    "protocol": protocol,
                    "participant": self.app_address,
                    "metadata": {"gossip": gossip_address_of(self.app_address)},
                    "activity": self.activity_id,
                },
                on_reply=on_reply,
            )
            self.scheduler.call_after(retry_timeout, send_attempt)

        send_attempt()

    def _on_register_reply(self, reply_context, value) -> None:
        self.register_pending = False
        if not isinstance(value, dict):
            self.metrics.counter("gossip.register.failed").inc()
            return
        params_value = value.get("params")
        if isinstance(params_value, dict):
            try:
                self.params = GossipParams.from_value(params_value)
            except (KeyError, ValueError):
                self.metrics.counter("gossip.register.bad-params").inc()
        peers = value.get("peers")
        if isinstance(peers, list):
            # Interned: every view naming a peer shares one string.
            self.view = [sys.intern(peer) for peer in peers if isinstance(peer, str)]
        self.registered = True
        if self._on_params is not None:
            self._on_params(self.params)
        self._start_periodic_rounds()
        self._flush_pending_forwards()

    def _flush_pending_forwards(self) -> None:
        pending, self._pending_forwards = self._pending_forwards, []
        for data, header, source in pending:
            self._forward(Envelope.from_bytes(data), header, source)

    def refresh_view(self) -> None:
        """Re-register to obtain a fresh peer sample and parameters."""
        if not self._stopped:
            self.register()

    # -- publishing (Initiator role) ------------------------------------------------

    def publish(self, action: str, value, tag: Optional[str] = None) -> str:
        """Disseminate an application invocation; returns its gossip id.

        This is the Initiator's single notification: the engine builds the
        gossip headers and pushes to ``fanout`` peers; the epidemic does the
        rest.

        Raises:
            OverloadError: when an :class:`OverloadPolicy` is active and
                the node is at its hard limit -- backpressure on the
                publisher instead of unbounded queueing.
        """
        if self.overload is not None:
            pressure = self.overload_pressure
            if pressure >= 1.0:
                self._hub.overload.publish_rejected.inc()
                raise OverloadError(
                    "publish rejected: node overloaded", pressure=pressure
                )
        message_id = new_gossip_message_id()
        sequence = None
        if self.params.ordered:
            sequence = self._publish_sequence
            self._publish_sequence += 1
        trace = None
        if self.telemetry is not None:
            # Head sampling: the publish-time draw decides whether this
            # publication carries a trace section at all, so telemetry's
            # wire and parse cost scales with the sample rate instead of
            # taxing every frame.
            sample_rate = self.telemetry.sample_rate
            if sample_rate >= 1.0 or self.rng.random() < sample_rate:
                trace = TraceContext(
                    origin=self.app_address,
                    publish_ts=self.scheduler.now,
                    path=0,
                    sampled=True,
                )
        header = GossipHeader(
            activity=self.activity_id,
            message_id=message_id,
            origin=self.app_address,
            hops=self.params.rounds,
            style=self.params.style,
            sequence=sequence,
            trace=trace,
        )
        self.metrics.counter("gossip.publish").inc()
        self._tracer.on_publish(
            message_id, self.app_address, self.scheduler.now,
            budget=self.params.rounds,
        )
        # Encode the invocation once; every fanout target and the message
        # store share the same wire bytes (the zero-copy fast path).
        data = self._publication_envelope(action, value, tag, header).to_bytes()
        if self.params.style in (GossipStyle.PUSH, GossipStyle.PUSH_PULL):
            # Park the frame; a burst of publications flushes together,
            # batched per destination up to ``max_batch_rumors``.
            self._enqueue_fanout(data, self.app_address, None)
        # Pull-family and lazy styles: the payload waits at the origin;
        # peers pull digests or fetch advertised identifiers.
        # Remember our own message (so an echo is not treated as fresh) and
        # retain the wire bytes for pull serving.
        self.store.add(message_id, data, self.scheduler.now, self.app_address)
        self._log_message(message_id, data, self.app_address)
        if self.params.style is GossipStyle.LAZY_PUSH:
            self._advertise([message_id], self.params.rounds)
        elif self.params.style is GossipStyle.FEEDBACK:
            self._hot[message_id] = self.params.rounds
            self._forward_hot(message_id)
            self._log_append({"type": "hot", "id": message_id, "rounds": self.params.rounds})
        if self.params.ordered:
            # Our own publication counts toward the origin's sequence.
            self._fifo.offer(self.app_address, sequence, b"")
            self._log_append({"type": "pub_seq", "value": self._publish_sequence})
            self._log_fifo(self.app_address)
        return message_id

    def _publication_envelope(self, action, value, tag, header) -> Envelope:
        """Build the disseminated invocation envelope (encoded exactly once
        by the caller; the ``To`` names our own endpoint, and receivers
        dispatch by service path)."""
        import xml.etree.ElementTree as ET

        from repro.soap.serializer import to_element
        from repro.soap.runtime import _default_tag
        from repro.wsa.addressing import new_message_id

        if isinstance(value, ET.Element):
            body = value
        else:
            body = to_element(tag or _default_tag(action), value)
        envelope = Envelope(body=body)
        envelope.add_header(self.context.to_element())
        envelope.add_header(header.to_element())
        addressing = AddressingHeaders(
            to=self.app_address, action=action, message_id=new_message_id()
        )
        addressing.apply(envelope)
        return envelope

    # -- receiving -------------------------------------------------------------------

    def on_gossip(self, envelope: Envelope, header: GossipHeader, source: Optional[str]) -> bool:
        """Handle an incoming gossiped application message.

        Returns True when the message should be delivered locally now,
        False when it is consumed (duplicate, or held back for ordering --
        held messages are re-dispatched by the engine once in order).
        """
        if self.health is not None and source is not None:
            self.health.observe_alive(source)
        self._pending_fetch.discard(header.message_id)
        fresh = self.store.add(
            header.message_id,
            envelope.to_bytes(),
            self.scheduler.now,
            header.origin,
        )
        if not fresh:
            self.metrics.counter("gossip.duplicate").inc()
            if self._recovering:
                self._recovery.redelivered_suppressed.inc()
            if self.params.style is GossipStyle.FEEDBACK and source is not None:
                self._send_feedback(header.message_id, source)
            return False
        self.metrics.counter("gossip.fresh").inc()
        self._tracer.on_deliver(
            header.message_id, self.app_address, self.scheduler.now,
            hops_left=header.hops,
        )
        if self.telemetry is not None and header.trace is not None:
            self._record_trace_sample(header.trace)
        self._log_message(header.message_id, envelope.to_bytes(), header.origin)
        if self._recovering:
            self._recovery.fetched.inc()
        if header.origin == self.app_address and header.sequence is not None:
            # Our own pre-crash publication came back via catch-up: never
            # reuse a sequence number the group may already have delivered.
            self._publish_sequence = max(
                self._publish_sequence, header.sequence + 1
            )
        # (duplicates that never reach here are dropped pre-parse by
        # on_duplicate_preparse -- keep the two paths in sync)
        self._propagate(envelope, header, source)
        if header.sequence is not None:
            # Only an ordered publisher stamps a Sequence, so the header
            # says the activity is ordered even before the RegisterResponse
            # brings the params: a lazily joining node's first arrivals
            # must advance the FIFO watermark too, or every later rumor
            # from that origin is held back for good.
            return self._offer_ordered(envelope, header)
        return True

    def on_duplicate_preparse(self, message_id: str, source: Optional[str]) -> None:
        """Handle a duplicate identified by the pre-parse byte scan.

        Mirrors the duplicate branch of :meth:`on_gossip` exactly -- the
        message was consumed before any XML parse, but the observable
        protocol behaviour (duplicate accounting, feedback) is identical.
        """
        if self.health is not None and source is not None:
            self.health.observe_alive(source)
        self._pending_fetch.discard(message_id)
        self.metrics.counter("gossip.duplicate").inc()
        if self._recovering:
            self._recovery.redelivered_suppressed.inc()
        if self.params.style is GossipStyle.FEEDBACK and source is not None:
            self._send_feedback(message_id, source)

    def _propagate(self, envelope: Envelope, header: GossipHeader, source: Optional[str]) -> None:
        """Run the style's forwarding step for a fresh message."""
        if self._recovering:
            # A rejoining node first reconciles with healthy peers; eager
            # forwarding resumes once catch-up finishes (the catch-up
            # fetches would otherwise echo stale hops around the group).
            self.metrics.counter("gossip.forward-during-recovery-skipped").inc()
            return
        if self.params.style in (GossipStyle.PUSH, GossipStyle.PUSH_PULL):
            if self.has_view:
                self._forward(envelope, header, source)
            elif len(self._pending_forwards) < self._pending_limit:
                self.metrics.counter("gossip.forward-deferred").inc()
                self._pending_forwards.append(
                    (envelope.to_bytes(), header, source)
                )
        elif self.params.style is GossipStyle.LAZY_PUSH:
            budget = self._ad_hops.pop(header.message_id, header.hops)
            self._advertise([header.message_id], budget - 1)
        elif self.params.style is GossipStyle.FEEDBACK:
            # Become hot: forward now and keep re-forwarding each period
            # until feedback (or the rounds cap) cools the rumor.
            self._hot[header.message_id] = self.params.rounds
            self._log_append(
                {"type": "hot", "id": header.message_id, "rounds": self.params.rounds}
            )
            if self.has_view:
                self._forward_hot(header.message_id, source)

    def _offer_ordered(self, envelope: Envelope, header: GossipHeader) -> bool:
        """FIFO mode: hold back out-of-order arrivals; re-dispatch on gap
        close.  Always returns False -- the engine owns delivery here."""
        released = self._fifo.offer(
            header.origin, header.sequence, envelope.to_bytes()
        )
        if not released:
            if header.sequence < self._fifo.next_expected(header.origin):
                # Below the delivered watermark: a pre-crash delivery came
                # around again; swallowing it is the whole point of the
                # durable FIFO counters.
                self.metrics.counter("gossip.fifo-suppressed").inc()
                self._recovery.redelivered_suppressed.inc()
            else:
                self.metrics.counter("gossip.held-back").inc()
        for data in released:
            self.metrics.counter("gossip.released-in-order").inc()
            self._dispatch_stored(data)
        if released:
            self._log_fifo(header.origin)
        return False

    def _dispatch_stored(self, data: bytes) -> None:
        """Re-run local dispatch (past the handler chain) for stored wire
        bytes -- used when the holdback buffer releases a message."""
        replay = Envelope.from_bytes(data)
        context = MessageContext(
            replay,
            Direction.INBOUND,
            addressing=AddressingHeaders.extract(replay),
            runtime=self.runtime,
        )
        self.runtime.deliver_local(context)

    @property
    def has_view(self) -> bool:
        """True when the engine has any source of peers."""
        return self.view_provider is not None or self.registered

    def current_view(self) -> List[str]:
        """The peer view in force (provider-backed or coordinator-supplied)."""
        if self.view_provider is not None:
            return list(self.view_provider())
        return list(self.view)

    def _record_trace_sample(self, trace: TraceContext) -> None:
        """Account a first delivery against the frame's trace section.

        End-to-end latency is the gap between the origin's publish
        timestamp and our clock; the per-hop figure divides it over the
        hops actually taken (``path + 1``: a freshly published frame has
        path 0 and traveled one hop to reach us).  Only sampled frames are
        measured; the skew guard discards readings more negative than the
        policy tolerates and clamps the rest to zero.
        """
        if not trace.sampled:
            return
        hops_taken = trace.path + 1
        if hops_taken > MAX_PATH_LENGTH:
            self._telemetry_clamped.inc()
            return
        latency = self.scheduler.now - trace.publish_ts
        if latency < -CLOCK_SKEW_GUARD:
            self._telemetry_skew.inc()
            return
        latency_ms = max(0.0, latency) * 1000.0
        self._e2e_latency.observe(latency_ms)
        self._hop_latency.observe(latency_ms / hops_taken)
        self._telemetry_samples.inc()

    def _forward(self, envelope: Envelope, header: GossipHeader, source: Optional[str]) -> None:
        if header.hops <= 0:
            self.metrics.counter("gossip.hops-exhausted").inc()
            return
        if self._shed("payload"):
            # Eager rumor payloads are the last rung of the shed ladder:
            # this only fires at the hard limit (pressure 1.0).
            return
        # Hop decrement by byte splice -- no parse, no re-encode, header
        # order kept; the flush resolves targets and every one of them gets
        # the same bytes object.  A carried trace section gets its path
        # counter spliced in the same single pass.  The stale per-hop WS-A
        # headers are deliberately kept: receivers dispatch by service path
        # and dedup by the gossip MessageId.
        raw = envelope.to_bytes()
        if header.trace is not None:
            data = splice_forward(raw, header.hops - 1, header.trace.path + 1)
        else:
            data = splice_hops(raw, header.hops - 1)
        if data is None:
            # A frame the splicers do not vouch for (a foreign writer's
            # shape): swap in the decremented header and encode once.
            header.decremented().replace_in(envelope)
            data = envelope.to_bytes()
        self._enqueue_fanout(data, header.origin, source)
        self.metrics.counter("gossip.forward").inc()
        # Targets resolve at flush time; attribute the configured fanout
        # as the intended spread.
        self._tracer.on_forward(
            header.message_id, self.app_address, self.scheduler.now,
            targets=self.params.fanout,
        )

    def _select_targets(self, exclude: Sequence[str]) -> List[str]:
        view = self.current_view()
        fanout = self.params.fanout
        if self.health is not None:
            fanout = self.health.effective_fanout(fanout, view)
        ceiling = self.fanout_ceiling
        if ceiling is not None and fanout > ceiling:
            fanout = ceiling
            self._hub.control.ceiling_clamps.inc()
        return self.selector.select(view, fanout, self.rng, exclude=exclude)

    # -- overload protection (backpressure + the shed ladder) ---------------------

    @property
    def outbox_depth(self) -> int:
        """Frames (and pending control sections) parked in the outbox."""
        return (
            sum(len(frames) for frames in self._outbox_fanout.values())
            + sum(len(frames) for frames in self._outbox_direct.values())
            + len(self._outbox_control)
        )

    @property
    def overload_pressure(self) -> float:
        """This node's load pressure in ``[0, 1]``; always 0.0 without an
        :class:`~repro.core.overload.OverloadPolicy`.

        The max of outbox fill (send-side backpressure) and whatever the
        ``pressure_provider`` reports (the layer's bounded ingest queue),
        so the adaptive controller reads one number per engine.
        """
        policy = self.overload
        if policy is None:
            return 0.0
        pressure = min(1.0, self.outbox_depth / policy.outbox_bound)
        if self._pressure_provider is not None:
            pressure = max(pressure, self._pressure_provider())
        return pressure

    def _shed(self, shed_class: str) -> bool:
        """True when the shed ladder (:class:`~repro.core.overload.ShedLatch`)
        says to drop ``shed_class`` traffic at this node's pressure."""
        latch = self._shed_latch
        return latch is not None and latch.sheds(self.overload_pressure, shed_class)

    # -- the outbox (every gossip send goes through it) ---------------------------

    def _enqueue_fanout(
        self, data: bytes, origin: Optional[str], source: Optional[str]
    ) -> None:
        """Park a frame for fan-out; targets resolve at flush time, so one
        burst shares a single peer selection per exclusion key."""
        self._outbox_fanout.setdefault((origin, source), []).append(data)
        self._schedule_flush()

    def _enqueue_direct(self, gossip_address: str, data: bytes) -> None:
        """Park a frame addressed to one specific peer's gossip port."""
        self._outbox_direct.setdefault(gossip_address, []).append(data)
        self._schedule_flush()

    def _outbox_control_for(self, gossip_address: str) -> BatchControl:
        """The control sections accumulating for one destination."""
        control = self._outbox_control.get(gossip_address)
        if control is None:
            control = self._outbox_control[gossip_address] = BatchControl()
        self._schedule_flush()
        return control

    def _schedule_flush(self) -> None:
        # A zero-delay event runs after every same-instant delivery already
        # scheduled (FIFO tie-breaking), so the whole burst lands in the
        # outbox before it is coalesced.
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self.scheduler.call_after(0.0, self._flush_outbox)

    def _flush_outbox(self) -> None:
        """Coalesce everything parked this instant into one envelope per
        destination (splitting only at the batch caps)."""
        self._flush_scheduled = False
        fanout, self._outbox_fanout = self._outbox_fanout, {}
        direct, self._outbox_direct = self._outbox_direct, {}
        control, self._outbox_control = self._outbox_control, {}
        if self._stopped:
            return
        self._batch.flushes.inc()
        per_destination: Dict[str, List[bytes]] = {}
        for destination, frames in direct.items():
            per_destination.setdefault(destination, []).extend(frames)
        for (origin, source), frames in fanout.items():
            exclude = [self.app_address]
            if origin:
                exclude.append(origin)
            if source is not None:
                exclude.append(source)
            for target in self._select_targets(exclude=exclude):
                per_destination.setdefault(
                    gossip_address_of(target), []
                ).extend(frames)
        destinations = list(per_destination)
        for destination in control:
            if destination not in per_destination:
                destinations.append(destination)
        shared: Dict[tuple, bytes] = {}
        holder = gossip_address_of(self.app_address)
        for destination in destinations:
            self._send_batches(
                destination,
                per_destination.get(destination, ()),
                control.get(destination),
                holder,
                shared,
            )

    def _send_batches(
        self,
        destination: str,
        frames: Sequence[bytes],
        control: Optional[BatchControl],
        holder: str,
        shared: Dict[tuple, bytes],
    ) -> None:
        if control is not None and control.empty():
            control = None
        elif control is not None and control.digest is not None:
            control.summary = None  # the full list says everything it would
        chunks = self._chunk_frames(frames)
        if not chunks:
            if control is None:
                return
            chunks = [[]]
        for index, chunk in enumerate(chunks):
            chunk_control = control if index == len(chunks) - 1 else None
            if len(chunk) == 1 and chunk_control is None:
                # A lone rumor needs no carrier: ship the legacy frame, so
                # batching-unaware peers stay fully interoperable.
                self._batch.legacy_singletons.inc()
                self.runtime.send_bytes(destination, chunk[0])
                continue
            # Fan-out twins share one encode: an identical frame run
            # resolves to the same buffer (the zero-copy batch path), and so
            # does the summary-only frame a pull round sends every target.
            key: Optional[tuple] = None
            if chunk_control is None:
                key = tuple(map(id, chunk))
            else:
                if not chunk and chunk_control.summary_only():
                    key = ("summary",) + chunk_control.summary
                self._batch.control_piggybacked.inc(chunk_control.section_count())
            data = shared.get(key) if key is not None else None
            if data is None:
                data = build_batch(self.activity_id, holder, chunk, chunk_control)
                self._batch.batches_built.inc()
                if key is not None:
                    shared[key] = data
            self._batch.batches_sent.inc()
            self._batch.rumors_batched.inc(len(chunk))
            self.runtime.send_bytes(destination, data)

    def _chunk_frames(self, frames: Sequence[bytes]) -> List[List[bytes]]:
        """Split a frame run at the batch caps (count and bytes); an
        oversized single frame still ships, alone."""
        max_rumors = self.params.max_batch_rumors
        max_bytes = self.params.max_batch_bytes
        chunks: List[List[bytes]] = []
        current: List[bytes] = []
        size = 0
        for frame in frames:
            if current and (
                len(current) >= max_rumors or size + len(frame) > max_bytes
            ):
                chunks.append(current)
                current, size = [], 0
            current.append(frame)
            size += len(frame)
        if current:
            chunks.append(current)
        return chunks

    def on_batch_control(
        self, control: BatchControl, holder: str, source: Optional[str]
    ) -> None:
        """Apply the piggybacked control sections of a received batch."""
        for message_ids, hops in control.ads:
            self.on_advertise(message_ids, hops, holder)
        if control.feedback:
            self.on_feedback(control.feedback)
        if control.digest is not None:
            message_ids, kind = control.digest
            self._serve_batch_digest(message_ids, kind, holder)
        elif control.summary is not None:
            # Stage 1 of the batched pull: equal summaries end it here, a
            # mismatch opens the full-list exchange from this side.
            if control.summary == self.store.summary():
                self.metrics.counter("gossip.pull-in-sync").inc()
            elif not self._shed("digest"):
                self._outbox_control_for(holder).digest = (self.store.digest(), "req")

    def _serve_batch_digest(
        self, remote_digest: List[str], kind: str, holder: str
    ) -> None:
        """Answer a piggybacked pull digest: missing frames go back as
        batched rumors (no request/response correlation needed) and a
        ``req`` earns a counter-digest, so one exchange repairs both
        directions; the ``rsp`` digest terminates it."""
        if self._shed("pull"):
            return
        if self._enqueue_stored(holder, self.store.not_in(remote_digest)):
            self.metrics.counter("gossip.pull-served").inc()
        if kind == "req":
            self._outbox_control_for(holder).digest = (self.store.digest(), "rsp")

    # -- lazy push (Advertise / Fetch) ---------------------------------------------

    def _advertise(self, message_ids: List[str], hops: int) -> None:
        """Send identifier-only advertisements to ``fanout`` peers."""
        if hops <= 0 or not message_ids:
            self.metrics.counter("gossip.ad-exhausted").inc()
            return
        if self._shed("digest"):
            return
        for target in self._select_targets(exclude=[self.app_address]):
            self.metrics.counter("gossip.advertise").inc()
            self._outbox_control_for(gossip_address_of(target)).ads.append(
                (list(message_ids), hops)
            )

    def on_advertise(self, message_ids: List[str], hops: int, holder: str) -> None:
        """Passive side of lazy push: fetch whatever we have not seen."""
        wanted = [
            message_id
            for message_id in self.store.missing_from(message_ids)
            if message_id not in self._pending_fetch
        ]
        # Bound the ad-budget bookkeeping: entries for messages that never
        # arrive must not accumulate forever.
        if len(self._ad_hops) > 4 * self.params.buffer_capacity:
            self._ad_hops.clear()
        for message_id in wanted:
            budget = self._ad_hops.get(message_id, 0)
            self._ad_hops[message_id] = max(budget, hops)
            self._pending_fetch.add(message_id)
            # Fallback: if the fetch (or its response) is lost, let a later
            # advertisement re-trigger it.
            self.scheduler.call_after(
                2.0 * self.params.period,
                lambda message_id=message_id: self._pending_fetch.discard(
                    message_id
                ),
            )
        if wanted:
            self.metrics.counter("gossip.fetch").inc()
            self.runtime.send(
                holder,
                FETCH_ACTION,
                value={
                    "activity": self.activity_id,
                    "ids": wanted,
                    "requester": gossip_address_of(self.app_address),
                },
            )

    def serve_fetch(self, message_ids: List[str], requester: str) -> None:
        """Serve a Fetch: deliver the requested retained messages."""
        self.metrics.counter("gossip.fetch-served").inc()
        self.push_messages(requester, message_ids)

    # -- feedback ("coin") rumor mongering --------------------------------------

    def _forward_hot(self, message_id: str, source: Optional[str] = None) -> None:
        """Forward a hot rumor to ``fanout`` peers (feedback style)."""
        stored = self.store.get(message_id)
        if stored is None or not stored.data:
            self._hot.pop(message_id, None)
            return
        if self._shed("payload"):
            return
        # The store remembers the origin, so re-forwarding needs neither a
        # parse nor a re-encode: the retained wire bytes go out as-is.
        self._enqueue_fanout(stored.data, stored.origin, source)
        self.metrics.counter("gossip.feedback-forward").inc()

    def _feedback_round(self) -> None:
        """Re-forward every hot rumor; the rounds cap bounds lifetime."""
        for message_id in list(self._hot):
            self._forward_hot(message_id)
            remaining = self._hot.get(message_id, 0) - 1
            if remaining <= 0:
                self._hot.pop(message_id, None)
                self.metrics.counter("gossip.cooled.cap").inc()
                self._log_append({"type": "cooled", "id": message_id})
            else:
                self._hot[message_id] = remaining

    def _send_feedback(self, message_id: str, source: str) -> None:
        """Tell the sender we already had this rumor."""
        if self._shed("feedback"):
            return
        self.metrics.counter("gossip.feedback-sent").inc()
        self._outbox_control_for(gossip_address_of(source)).feedback.append(
            message_id
        )

    def on_feedback(self, message_ids: List[str]) -> None:
        """Cool each rumor with the configured stop probability."""
        for message_id in message_ids:
            if message_id in self._hot:
                if self.rng.random() < self.params.stop_probability:
                    self._hot.pop(message_id, None)
                    self.metrics.counter("gossip.cooled.feedback").inc()
                    self._log_append({"type": "cooled", "id": message_id})

    @property
    def hot_count(self) -> int:
        """Rumors this node is still actively spreading (feedback style)."""
        return len(self._hot)

    # -- periodic rounds (pull / push-pull / anti-entropy) ------------------------------

    def start_periodic_rounds(self) -> None:
        """Start the style's periodic activity.

        Called automatically on registration; decentralized deployments
        (no coordinator, ``view_provider`` set) call it directly.
        """
        self._start_periodic_rounds()

    def _start_periodic_rounds(self) -> None:
        if self._periodic_started or self._stopped:
            return
        if self.params.style in (
            GossipStyle.PULL,
            GossipStyle.PUSH_PULL,
            GossipStyle.ANTI_ENTROPY,
            # Lazy push pairs eager advertisements with a periodic pull
            # repair (Plumtree's recovery path) -- ads alone die out under
            # loss because only payload holders re-advertise.
            GossipStyle.LAZY_PUSH,
            # Feedback style re-forwards hot rumors every period.
            GossipStyle.FEEDBACK,
        ):
            # The flag is only raised for periodic styles, so an engine
            # whose params later escalate push -> push-pull (adaptive
            # control) can start the loop with a fresh call here.
            self._periodic_started = True
            self._schedule_next_round()

    def _schedule_next_round(self) -> None:
        delay = self.params.period + self.rng.uniform(0.0, self.params.jitter)
        self.scheduler.call_after(delay, self._periodic_round)

    def _periodic_round(self) -> None:
        if self._stopped:
            return
        if self.params.style is GossipStyle.PUSH:
            # The params de-escalated back to plain push while a periodic
            # loop was in flight (adaptive control): let the loop die out
            # so a later escalation can restart it cleanly.
            self._periodic_started = False
            return
        if self.params.style is GossipStyle.ANTI_ENTROPY:
            self._anti_entropy_round()
        elif self.params.style is GossipStyle.FEEDBACK:
            self._feedback_round()
        else:
            self._pull_round()
        self._schedule_next_round()

    def _pull_round(self) -> None:
        """Send ``store.summary()`` -- a count and a hash, not the list
        (docs/WIRE.md) -- to ``fanout`` peers.

        An in-sync peer stays silent, any other answers with its full
        ``req`` digest and the exchange runs from there; the answer arrives
        as rumor frames, not a correlated reply.  Stores that differ only by
        eviction skew never summarize equal, so they fall back to the full
        exchange every round.
        """
        if self._shed("digest"):
            return
        summary = self.store.summary()
        for target in self._select_targets(exclude=[self.app_address]):
            self.metrics.counter("gossip.pull-request").inc()
            self._outbox_control_for(gossip_address_of(target)).summary = summary

    def _anti_entropy_round(self) -> None:
        """Reconcile with one random peer, both directions."""
        if self._shed("digest"):
            return
        targets = self.selector.select(
            self.current_view(), 1, self.rng, exclude=[self.app_address]
        )
        if not targets:
            return
        self.metrics.counter("gossip.anti-entropy").inc()
        self._outbox_control_for(
            gossip_address_of(targets[0])
        ).summary = self.store.summary()

    def push_messages(self, gossip_address: str, message_ids: List[str]) -> None:
        """Send retained messages to a peer's gossip port.

        The frames ride the outbox instead of a base64 ``Deliver`` body: no
        re-wrapping, and they coalesce with anything else pending.
        """
        if self._shed("pull"):
            return
        if self._enqueue_stored(gossip_address, message_ids):
            self.metrics.counter("gossip.deliver-sent").inc()

    def _enqueue_stored(self, gossip_address: str, message_ids: List[str]) -> int:
        """Park the retained frames of ``message_ids`` for one peer; returns
        how many were found."""
        found = 0
        for message_id in message_ids:
            stored = self.store.get(message_id)
            if stored is not None and stored.data:
                self._enqueue_direct(gossip_address, stored.data)
                found += 1
        return found

    # -- pull serving (called by the gossip service) ------------------------------------

    def serve_pull(self, remote_digest: List[str], requester_gossip: Optional[str]) -> dict:
        """Build the PullResponse payload for a remote digest."""
        if self._shed("pull"):
            # Shed the expensive part (the payload frames); the requester
            # re-pulls next period.  The empty reply still flows so the
            # correlation machinery is not left dangling.
            return {
                "messages": [],
                "wants": [],
                "peer": gossip_address_of(self.app_address),
            }
        missing_at_requester = self.store.not_in(remote_digest)
        messages = []
        for message_id in missing_at_requester:
            stored = self.store.get(message_id)
            if stored is not None and stored.data:
                messages.append(stored.data)
        wants = self.store.missing_from(remote_digest)
        response = {
            "messages": messages,
            "wants": wants,
            "peer": gossip_address_of(self.app_address),
        }
        return response

    # -- durability (WAL + snapshot) ----------------------------------------------------

    def _log_append(self, record: dict) -> None:
        """Append one WAL record; snapshot-compact at the policy cadence."""
        if self.log is None:
            return
        self.log.append(record)
        snapshot_every = (
            self.durability.snapshot_every if self.durability is not None else 256
        )
        if self.log.appends_since_snapshot >= snapshot_every:
            self.log.write_snapshot(self.snapshot_state())

    def _log_message(self, message_id: str, data: bytes, origin: str) -> None:
        if self.log is None:
            return
        self._log_append(
            {
                "type": "msg",
                "id": message_id,
                "data": data,
                "at": self.scheduler.now,
                "origin": origin,
            }
        )

    def _log_fifo(self, origin: str) -> None:
        if self.log is None:
            return
        self._log_append(
            {
                "type": "fifo",
                "origin": origin,
                "next": self._fifo.next_expected(origin),
            }
        )

    def snapshot_state(self) -> dict:
        """The gossip-critical state a snapshot must capture: retained
        messages, dedup identities, FIFO watermarks, publication counter,
        and the feedback hot-rumor set."""
        return {
            "messages": [
                {
                    "id": stored.message_id,
                    "data": stored.data,
                    "at": stored.received_at,
                    "origin": stored.origin,
                }
                for stored in self.store.messages()
            ],
            "seen": self.store.seen_identities(),
            "pub_seq": self._publish_sequence,
            "fifo": self._fifo.counters(),
            "hot": dict(self._hot),
        }

    # -- crash recovery -----------------------------------------------------------------

    @property
    def recovering(self) -> bool:
        """True between a restart and the end of catch-up (eager
        forwarding is suppressed while this holds)."""
        return self._recovering

    def prepare_restart(
        self,
        amnesia: bool = True,
        on_replayed: Optional[Callable[[str], None]] = None,
    ) -> int:
        """Reset the engine to post-crash state, replaying the WAL unless
        ``amnesia``.

        Called by the host node while the process restarts (before
        :meth:`rejoin`).  With ``amnesia`` the durable log is discarded
        too -- the node truly forgets, modelling a lost disk.  Otherwise
        the snapshot and WAL rebuild the store, dedup identities, FIFO
        watermarks, publication counter and hot set; ``on_replayed`` is
        invoked with each recovered message identity so the host can
        restore its own delivered-set.

        Returns the number of messages restored into the store.
        """
        self.store = MessageStore(self.params.buffer_capacity)
        self.view = []
        self.registered = False
        self.register_pending = False
        self._periodic_started = False
        self._stopped = False
        self._recovering = False
        self._catch_up_rounds_left = 0
        self._pending_forwards = []
        self._ad_hops = {}
        self._pending_fetch = set()
        self._hot = {}
        self._fifo = FifoBuffer()
        self._publish_sequence = 0
        self._outbox_fanout = {}
        self._outbox_direct = {}
        self._outbox_control = {}
        self._flush_scheduled = False
        if self._shed_latch is not None:
            self._shed_latch.overloaded = False
        self._recovery.restarts.inc()
        if amnesia:
            self._recovery.amnesia_restarts.inc()
            if self.log is not None:
                self.log.clear()
            return 0
        if self.log is None:
            return 0
        return self._restore_from_log(on_replayed)

    def _restore_from_log(
        self, on_replayed: Optional[Callable[[str], None]]
    ) -> int:
        result = self.log.replay()
        replayed = 0
        snapshot = result.snapshot
        if isinstance(snapshot, dict):
            replayed += self._apply_replay_state(snapshot, on_replayed)
        for record in result.records:
            replayed += self._apply_replay_record(record, on_replayed)
        self._recovery.replayed_messages.inc(replayed)
        if self.params.ordered:
            self._reoffer_replayed()
        return replayed

    def _apply_replay_state(
        self, state: dict, on_replayed: Optional[Callable[[str], None]]
    ) -> int:
        replayed = 0
        messages = state.get("messages")
        if isinstance(messages, list):
            for entry in messages:
                if isinstance(entry, dict):
                    replayed += self._restore_message(entry, on_replayed)
        seen = state.get("seen")
        if isinstance(seen, list):
            for message_id in seen:
                if isinstance(message_id, str) and self.store.is_new(message_id):
                    # Payload evicted pre-crash; the identity alone keeps
                    # re-receipt from counting as fresh.
                    self.store.mark_seen(message_id)
                    if on_replayed is not None:
                        on_replayed(message_id)
        pub_seq = state.get("pub_seq")
        if isinstance(pub_seq, int):
            self._publish_sequence = max(self._publish_sequence, pub_seq)
        fifo = state.get("fifo")
        if isinstance(fifo, dict):
            for origin, next_expected in fifo.items():
                if isinstance(origin, str) and isinstance(next_expected, int):
                    self._fifo.restore_counter(origin, next_expected)
        hot = state.get("hot")
        if isinstance(hot, dict):
            for message_id, rounds in hot.items():
                if isinstance(message_id, str) and isinstance(rounds, int):
                    self._hot[message_id] = rounds
        return replayed

    def _apply_replay_record(
        self, record: dict, on_replayed: Optional[Callable[[str], None]]
    ) -> int:
        kind = record.get("type")
        if kind == "msg":
            return self._restore_message(record, on_replayed)
        if kind == "pub_seq" and isinstance(record.get("value"), int):
            self._publish_sequence = max(self._publish_sequence, record["value"])
        elif kind == "fifo":
            origin, next_expected = record.get("origin"), record.get("next")
            if isinstance(origin, str) and isinstance(next_expected, int):
                self._fifo.restore_counter(origin, next_expected)
        elif kind == "hot":
            message_id, rounds = record.get("id"), record.get("rounds")
            if isinstance(message_id, str) and isinstance(rounds, int):
                self._hot[message_id] = rounds
        elif kind == "cooled":
            self._hot.pop(record.get("id"), None)
        return 0

    def _restore_message(
        self, entry: dict, on_replayed: Optional[Callable[[str], None]]
    ) -> int:
        message_id = entry.get("id")
        data = entry.get("data")
        origin = entry.get("origin")
        if not isinstance(message_id, str) or not isinstance(data, (bytes, bytearray)):
            return 0
        received_at = entry.get("at")
        if not isinstance(received_at, (int, float)):
            received_at = self.scheduler.now
        fresh = self.store.add(
            message_id,
            bytes(data),
            float(received_at),
            origin if isinstance(origin, str) else "",
        )
        if fresh and on_replayed is not None:
            on_replayed(message_id)
        return int(fresh)

    def _reoffer_replayed(self) -> None:
        """FIFO mode: re-arm the holdback buffer with replayed messages.

        Messages at or past an origin's watermark were received but not
        yet delivered when the node crashed -- they go back into holdback
        (and anything now in order is dispatched).  Messages below the
        watermark were already delivered pre-crash and stay suppressed.
        """
        for stored in list(self.store.messages()):
            if not stored.data:
                continue
            try:
                envelope = Envelope.from_bytes(stored.data)
            except Exception:
                continue
            header = GossipHeader.from_envelope(envelope)
            if header is None or header.sequence is None:
                continue
            if header.sequence >= self._fifo.next_expected(header.origin):
                self._offer_ordered(envelope, header)

    def rejoin(self, protocol: Optional[str] = None) -> None:
        """Resume participation after a restart.

        The node re-registers (or restarts its periodic rounds in
        decentralized mode), marks *itself* suspect in its own health view
        (its pre-crash picture of the group is stale), and runs a bounded
        anti-entropy catch-up with :data:`~repro.core.store.CATCH_UP_PEERS`
        healthy peers per round before resuming eager forwarding.
        ``protocol`` defaults to whatever this engine registered as before
        the crash.
        """
        if self._stopped:
            return
        if protocol is None:
            protocol = self._last_protocol
        catch_up = self.durability is None or self.durability.catch_up
        if self.health is not None:
            # Conservative rejoin: our own liveness record is the stalest
            # thing in the room right after a crash.
            self.health.mark_failed(self.app_address)
        if catch_up:
            self._recovering = True
            self._catch_up_rounds_left = CATCH_UP_ROUNDS
            self._catch_up_wait_budget = 24
        if self.view_provider is not None:
            self._start_periodic_rounds()
        else:
            self.register(protocol)
        if catch_up:
            self.metrics.counter("gossip.rejoin").inc()
            self.scheduler.call_after(0.0, self._catch_up_round)

    def _catch_up_round(self) -> None:
        if self._stopped or not self._recovering:
            return
        view = self.current_view() if self.has_view else []
        if not view:
            # Registration has not answered yet; wait a period, bounded so
            # a dead coordinator cannot leave us muted forever.
            self._catch_up_wait_budget -= 1
            if self._catch_up_wait_budget <= 0:
                self._finish_catch_up()
                return
            self.scheduler.call_after(self.params.period, self._catch_up_round)
            return
        self._catch_up_rounds_left -= 1
        self._recovery.catch_up_rounds.inc()
        targets = self.selector.select(
            view, CATCH_UP_PEERS, self.rng, exclude=[self.app_address]
        )
        # A full ``req`` digest, not a summary: a restarted node knows its
        # store is stale, so stage 1 would only cost a round trip.
        digest = self.store.digest()
        for target in targets:
            self._outbox_control_for(gossip_address_of(target)).digest = (digest, "req")
        before = self.store.seen_count
        self.scheduler.call_after(
            self.params.period, lambda: self._catch_up_check(before)
        )

    def _catch_up_check(self, before: int) -> None:
        if self._stopped or not self._recovering:
            return
        if self._catch_up_rounds_left <= 0 or self.store.seen_count <= before:
            # Bounded: out of rounds, or a full round learned nothing new
            # (we have converged with the sampled peers).
            self._finish_catch_up()
        else:
            self._catch_up_round()

    def _finish_catch_up(self) -> None:
        if not self._recovering:
            return
        self._recovering = False
        self._recovery.catch_ups_completed.inc()

    # -- lifecycle ----------------------------------------------------------------------

    def stop(self) -> None:
        """Stop periodic activity (timers already dead on sim crash)."""
        self._stopped = True

    def __repr__(self) -> str:
        return (
            f"GossipEngine(activity={self.activity_id!r}, "
            f"style={self.params.style.value}, view={len(self.view)}, "
            f"seen={self.store.seen_count})"
        )
