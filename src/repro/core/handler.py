"""The gossip layer as a SOAP handler -- the paper's deployment story.

    "for a Disseminator it will require configuring an additional handler,
    the gossip layer, in the middleware stack, which intercepts the
    outgoing message and re-routes it to selected destinations. [...] Upon
    arrival, the message is again intercepted by the gossip layer in the
    middleware stack.  If this is an unknown gossip interaction, it
    registers itself with the Registration service, thus obtaining gossip
    targets to which it will forward the message."  (Section 3)

:class:`GossipLayer` implements exactly that: it watches inbound messages
for the ``Gossip`` header, auto-joins unknown activities via the
``CoordinationContext`` header, dedups, forwards, and lets fresh messages
continue up the stack so the application sees a plain invocation.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple, Union

from repro.core.batch import (
    BATCH_TAG,
    BatchError,
    batch_has_control,
    control_from_element,
    is_batch_frame,
    scan_batch_activity,
    scan_batch_control,
    scan_batch_holder,
    split_batch,
)
from repro.core.engine import (
    ADVERTISE_ACTION,
    FEEDBACK_ACTION,
    PROTOCOL_DISSEMINATOR,
    PULL_ACTION,
    PULL_RESPONSE_ACTION,
    GossipEngine,
)
from repro.core.message import (
    GossipHeader,
    scan_gossip_message_id,
    scan_gossip_message_ids,
)
from repro.core.overload import OverloadPolicy, ShedLatch, TokenBucket
from repro.core.params import GossipParams
from repro.core.peers import PeerSelector
from repro.core.scheduling import Scheduler
from repro.obs.hub import hub_of
from repro.soap.envelope import Envelope, EnvelopeError
from repro.soap.handler import Handler, MessageContext
from repro.soap.runtime import SoapRuntime
from repro.wscoord.context import CoordinationContext


class GossipLayer(Handler):
    """Per-node gossip middleware: engine registry plus the intercept hook.

    Args:
        runtime: the node's SOAP runtime (the layer should also be added to
            ``runtime.chain``; :func:`install_gossip_layer` does both).
        scheduler: timers/clock for the engines.
        app_address: the node's application endpoint address -- the
            participant identity used when auto-registering.
        rng: random stream for peer selection.
        auto_join: when True (Disseminator behaviour), unknown gossip
            interactions trigger registration; when False the node behaves
            like an unchanged Consumer that happens to have the layer
            installed (messages pass through with dedup only).
        default_params: parameters used before the coordinator responds.
        selector: peer-selection strategy shared by created engines.
    """

    # The bounded ingest queue is made on the first frame it holds (most
    # nodes are never throttled); until then an empty tuple stands in.
    _ingest_queue: Union[Deque[Tuple[bytes, Optional[str]]], Tuple[()]] = ()

    def __init__(
        self,
        runtime: SoapRuntime,
        scheduler: Scheduler,
        app_address: str,
        rng: Optional[random.Random] = None,
        auto_join: bool = True,
        default_params: Optional[GossipParams] = None,
        selector: Optional[PeerSelector] = None,
        view_provider=None,
        health=None,
        durability=None,
        overload: Optional[OverloadPolicy] = None,
        telemetry=None,
    ) -> None:
        self.runtime = runtime
        self.scheduler = scheduler
        self.app_address = app_address
        self.rng = rng if rng is not None else random.Random()
        self.auto_join = auto_join
        self.default_params = default_params
        self.selector = selector
        # Optional node-wide peer-health record; engines created by this
        # layer gossip in degraded mode when it is set.
        self.health = health
        # Optional decentralized mode: engines draw their peer view from
        # this callable (peer sampling / WS-Membership) instead of the
        # coordinator's RegisterResponse.
        self.view_provider = view_provider
        # Optional crash recovery: a DurabilityPolicy makes every engine
        # keep a GossipLog, and prepare_restart/rejoin drive the
        # crash-recovery protocol (docs/RESILIENCE.md).
        self.durability = durability
        # Optional live telemetry plane: engines created by this layer
        # stamp wire-level trace context on publications and account
        # sampled frames on delivery (docs/OBSERVABILITY.md).
        self.telemetry = telemetry
        self._engines: Dict[str, GossipEngine] = {}
        # Observability: the hub behind this node's metrics sink, and the
        # counter groups the receive path counts into.
        obs = hub_of(runtime.metrics)
        self._hub = obs
        self._wire = obs.wire
        self._batch = obs.batch
        # Overload protection: the bounded ingest queue + its shed ladder
        # (docs/RESILIENCE.md, "Overload and backpressure").  With
        # ``overload=None`` the queue machinery only engages when a
        # throttle (slow-consumer fault) is active -- and then the queue
        # is *unbounded*, which is exactly the collapse the shed-off
        # ablation in bench_overload demonstrates.
        self.overload = overload
        self._ingest_bucket: Optional[TokenBucket] = None
        self._ingest_latch = (
            ShedLatch(obs.overload) if overload is not None else None
        )
        self._draining = False
        self._drain_scheduled = False
        # Receive-side fast path: drop already-seen gossip messages with a
        # byte scan, before the runtime pays for the full XML parse.
        runtime.add_preparse_gate(self.preparse_gate)

    # -- engine registry ------------------------------------------------------

    def engine_for(self, activity_id: str) -> Optional[GossipEngine]:
        """The engine for an activity, or ``None`` when not joined."""
        return self._engines.get(activity_id)

    def engines(self) -> List[GossipEngine]:
        """Every engine this layer manages."""
        return list(self._engines.values())

    def create_engine(
        self,
        context: CoordinationContext,
        params: Optional[GossipParams] = None,
    ) -> GossipEngine:
        """Create (or return the existing) engine for an activity."""
        existing = self._engines.get(context.identifier)
        if existing is not None:
            return existing
        log = None
        if self.durability is not None:
            log = self.durability.make_log(
                f"{self.app_address}:{context.identifier}",
                hub=self._hub,
            )
        engine = GossipEngine(
            runtime=self.runtime,
            scheduler=self.scheduler,
            context=context,
            app_address=self.app_address,
            params=params if params is not None else self.default_params,
            rng=self.rng,
            selector=self.selector,
            view_provider=self.view_provider,
            health=self.health,
            log=log,
            durability=self.durability,
            overload=self.overload,
            pressure_provider=self.ingest_pressure if self.overload else None,
            telemetry=self.telemetry,
        )
        self._engines[context.identifier] = engine
        return engine

    def join(
        self,
        context: CoordinationContext,
        protocol: str = PROTOCOL_DISSEMINATOR,
        params: Optional[GossipParams] = None,
        register: bool = True,
    ) -> GossipEngine:
        """Explicitly join an activity (create engine + register).

        ``register=False`` is the decentralized mode: no coordinator
        round trip -- the engine relies on its ``view_provider`` and the
        periodic rounds start immediately.
        """
        engine = self.create_engine(context, params=params)
        if register:
            if not engine.registered and not engine.register_pending:
                engine.register(protocol)
        else:
            engine.start_periodic_rounds()
        return engine

    # -- crash recovery -------------------------------------------------------

    def prepare_restart(
        self,
        amnesia: bool = True,
        on_replayed: Optional[Callable[[str], None]] = None,
    ) -> int:
        """Reset every engine to post-crash state (see
        :meth:`GossipEngine.prepare_restart`); returns total messages
        replayed from durable logs."""
        # Whatever was queued for ingest died with the process.
        self._ingest_queue = ()
        if self._ingest_latch is not None:
            self._ingest_latch.overloaded = False
        self._drain_scheduled = False
        self._draining = False
        replayed = 0
        for engine in self._engines.values():
            replayed += engine.prepare_restart(
                amnesia=amnesia, on_replayed=on_replayed
            )
        return replayed

    def rejoin(self, protocol: Optional[str] = None) -> None:
        """Run the rejoin protocol on every engine after a restart.  Each
        engine re-registers as whatever it was before the crash unless
        ``protocol`` overrides that."""
        for engine in self._engines.values():
            engine.rejoin(protocol)

    # -- the bounded ingest queue (overload protection) -------------------------

    def throttle(self, rate: float) -> None:
        """Cap this node's inbound processing to ``rate`` frames/second.

        The slow-consumer model behind :meth:`FaultPlan.throttle_at
        <repro.simnet.faults.FaultPlan.throttle_at>`: arrivals past the
        rate are queued (bounded and shed-laddered with an
        :class:`~repro.core.overload.OverloadPolicy`; unbounded without
        one) and drained on a paced timer.  One token covers one wire
        frame -- a batch and a singleton cost the same slot.
        """
        self._ingest_bucket = TokenBucket(rate, 1.0)

    def unthrottle(self) -> None:
        """Remove the processing-rate cap and drain any backlog."""
        self._ingest_bucket = None
        self._schedule_drain()

    def ingest_pressure(self) -> float:
        """Ingest-queue fill fraction in ``[0, 1]``; 0.0 without a policy."""
        if self.overload is None:
            return 0.0
        return min(1.0, len(self._ingest_queue) / self.overload.ingest_capacity)

    def _ingest_class(self, data: bytes) -> str:
        """Classify a wire frame onto the shed ladder with byte scans only.

        Duplicate rumor payloads count as ``digest`` (re-advertisements of
        something we already have -- the cheapest rung, exactly what the
        ladder sheds first).
        """
        if is_batch_frame(data):
            # A control-only batch carries digests/ads/feedback; any
            # carried rumor makes the whole frame a payload.
            return "payload" if scan_gossip_message_ids(data) else "digest"
        if PULL_RESPONSE_ACTION.encode() in data:
            return "pull"
        if ADVERTISE_ACTION.encode() in data or (
            PULL_ACTION.encode() + b"<"
        ) in data:
            return "digest"
        if FEEDBACK_ACTION.encode() in data:
            return "feedback"
        message_id = scan_gossip_message_id(data)
        if message_id is not None and self._engine_knowing(message_id) is not None:
            return "digest"
        return "payload"

    def _ingest_gate(self, data: bytes, source: Optional[str]) -> bool:
        """Admit, queue, or shed one arriving frame (the gate is engaged
        only while a throttle is active or a backlog remains)."""
        now = self.scheduler.now
        if not self._ingest_queue and (
            self._ingest_bucket is None or self._ingest_bucket.admit(now)
        ):
            if self.overload is not None:
                self._hub.overload.admitted.inc()
            return self._preparse_classify(data, source)
        policy = self.overload
        if policy is not None:
            if self._ingest_latch.sheds(
                self.ingest_pressure(), self._ingest_class(data)
            ):
                return False
            if len(self._ingest_queue) >= policy.ingest_capacity:
                # The bound is absolute: whatever the class, nothing
                # queues past it (this is the memory guarantee).
                self._hub.overload.shed_payloads.inc()
                return False
        if not isinstance(self._ingest_queue, deque):
            self._ingest_queue = deque()
        self._ingest_queue.append((data, source))
        self._hub.overload.throttled.inc()
        depth = len(self._ingest_queue)
        peak = self._hub.gauge("overload.ingest-queue-peak")
        if depth > peak.value:
            peak.set(depth)
        self._schedule_drain()
        return False

    def _schedule_drain(self) -> None:
        if self._drain_scheduled or not self._ingest_queue:
            return
        self._drain_scheduled = True
        delay = 0.0
        if self._ingest_bucket is not None:
            delay = self._ingest_bucket.retry_after(self.scheduler.now)
        self.scheduler.call_after(delay, self._drain_ingest)

    def _drain_ingest(self) -> None:
        """Process queued frames as the pacing bucket allows."""
        self._drain_scheduled = False
        while self._ingest_queue:
            if self._ingest_bucket is not None and not self._ingest_bucket.admit(
                self.scheduler.now
            ):
                break
            data, source = self._ingest_queue.popleft()
            if self.overload is not None:
                self._hub.overload.admitted.inc()
            self._draining = True
            try:
                self.runtime.receive(data, source=source)
            finally:
                self._draining = False
        self._schedule_drain()

    # -- the pre-parse dedup gate ---------------------------------------------------

    def preparse_gate(self, data: bytes, source: Optional[str]) -> bool:
        """Drop wire bytes whose gossip message id we have already seen.

        A cheap byte scan extracts the ``Gossip`` header's ``MessageId``;
        if any engine's store knows the identity, the message is consumed
        here -- no XML parse, no handler chain -- with the same observable
        behaviour as the post-parse duplicate branch.  A failed scan (no
        gossip header, unusual id) always passes the message through.
        Batch frames are unpacked here too -- see :meth:`_ingest_batch`.
        When a throttle or backlog is in force, arrivals detour through
        the bounded ingest queue first (:meth:`_ingest_gate`).
        """
        if not self._draining and (
            self._ingest_bucket is not None or self._ingest_queue
        ):
            return self._ingest_gate(data, source)
        return self._preparse_classify(data, source)

    def _preparse_classify(self, data: bytes, source: Optional[str]) -> bool:
        """The original gate body: dedup scan + batch unpack."""
        if is_batch_frame(data):
            return self._ingest_batch(data, source)
        message_id = scan_gossip_message_id(data)
        if message_id is None:
            return True
        for engine in self._engines.values():
            if message_id in engine.store:
                self._wire.dedup_preparse_hits.inc()
                engine.on_duplicate_preparse(message_id, source)
                return False
        return True

    def _ingest_batch(self, data: bytes, source: Optional[str]) -> bool:
        """Unpack a batch frame at the byte level.

        Fast paths, in order: drop the *whole* batch when every carried
        rumor is already known (one scan, zero parses); otherwise slice it
        into legacy frames and feed each through the normal receive path,
        then apply any piggybacked control sections.  Returns False when
        consumed here; True falls through to the full XML parse and the
        gossip service's ``Batch`` operation (the robust fallback).
        """
        try:
            frames = split_batch(data)
        except BatchError:
            self.runtime.metrics.counter("gossip.batch-unsplittable").inc()
            return True
        self._batch.batches_received.inc()
        has_control = batch_has_control(data)
        if frames and not has_control:
            message_ids = scan_gossip_message_ids(data)
            if len(message_ids) == len(frames):
                owners = []
                for message_id in message_ids:
                    owner = self._engine_knowing(message_id)
                    if owner is None:
                        break
                    owners.append((message_id, owner))
                if len(owners) == len(message_ids):
                    self._batch.batches_skipped_preparse.inc()
                    self._wire.dedup_preparse_hits.inc(len(message_ids))
                    for message_id, owner in owners:
                        owner.on_duplicate_preparse(message_id, source)
                    return False
        for frame in frames:
            self._batch.rumors_unpacked.inc()
            self.runtime.receive(frame, source=source)
        if has_control:
            self._apply_batch_control(data, source)
        return False

    def _engine_knowing(self, message_id: str) -> Optional[GossipEngine]:
        for engine in self._engines.values():
            if message_id in engine.store:
                return engine
        return None

    def _apply_batch_control(self, data: bytes, source: Optional[str]) -> None:
        control = scan_batch_control(data)
        if control is not None:
            activity = scan_batch_activity(data)
            holder = scan_batch_holder(data)
        else:
            # The tail is not the shape our own writer emits (a section
            # this version does not know, a foreign serializer): parse the
            # frame once and apply the sections that are understood.
            metrics = self.runtime.metrics
            metrics.counter("gossip.batch-control-unscannable").inc()
            try:
                body = Envelope.from_bytes(data).body
            except EnvelopeError:
                metrics.counter("soap.malformed").inc()
                return
            if body is None or body.tag != BATCH_TAG:
                return
            control = control_from_element(body)
            activity = body.get("activity")
            holder = body.get("holder")
        if control.empty():
            return
        engine = self._engines.get(activity) if activity else None
        if engine is None or holder is None:
            # Control sections only matter between joined peers; a node
            # that has not joined yet auto-joins via the rumor frames.
            self.runtime.metrics.counter("gossip.batch-control-dropped").inc()
            return
        engine.on_batch_control(control, holder, source)

    # -- the intercept hook --------------------------------------------------------

    def on_inbound(self, context: MessageContext) -> bool:
        """The intercept hook: dedup, auto-join, forward, pass fresh through."""
        try:
            header = GossipHeader.from_envelope(context.envelope)
        except ValueError:
            self.runtime.metrics.counter("gossip.malformed-header").inc()
            return False
        if header is None:
            return True  # not a gossip message; pass through untouched

        engine = self._engines.get(header.activity)
        if engine is None:
            if not self.auto_join:
                # Consumer behaviour: deliver, never forward.
                self.runtime.metrics.counter("gossip.passthrough").inc()
                return True
            engine = self._auto_join(context)
            if engine is None:
                return True

        fresh = engine.on_gossip(context.envelope, header, source=context.source)
        return fresh

    def _auto_join(self, context: MessageContext) -> Optional[GossipEngine]:
        """Join an unknown gossip interaction from its context header."""
        try:
            coordination = CoordinationContext.from_envelope(context.envelope)
        except ValueError:
            coordination = None
        if coordination is None:
            self.runtime.metrics.counter("gossip.no-context").inc()
            return None
        self.runtime.metrics.counter("gossip.auto-join").inc()
        return self.join(coordination, register=self.view_provider is None)
