"""The gossip port type mounted at ``/gossip`` on every gossip-capable node.

Push gossip needs no service of its own (the handler intercepts plain
application messages), and an engine sends its pulls, advertisements,
feedback and served frames as batch control sections and rumor frames that
the gossip layer consumes before any parse.  This service answers what
arrives as SOAP operations instead -- from an interop stack, an older peer,
or a batch that defeated the byte-level split:

* ``Pull`` -- request/response digest reconciliation: the caller sends its
  digest, the service returns the retained messages the caller lacks plus
  the identities it wants back.
* ``Deliver`` -- one-way batch of wire messages, fed straight back through
  the stack so the gossip layer handles them like any arrival.
* ``Advertise`` / ``Fetch`` / ``Feedback`` -- lazy-push and feedback style
  control (an engine still originates ``Fetch``).
* ``Batch`` -- the parsed fallback for a ``GossipBatch`` frame.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.batch import (
    BATCH_ACTION,
    control_from_element,
    frames_from_element,
)
from repro.core.engine import (
    ADVERTISE_ACTION,
    DELIVER_ACTION,
    FEEDBACK_ACTION,
    FETCH_ACTION,
    PULL_ACTION,
    PULL_RESPONSE_ACTION,
)
from repro.core.handler import GossipLayer
from repro.soap.fault import sender_fault
from repro.soap.handler import MessageContext
from repro.soap.service import Reply, Service, operation


class GossipService(Service):
    """The ``/gossip`` endpoint mounted on gossip-capable nodes."""

    def __init__(self, layer: GossipLayer) -> None:
        super().__init__()
        self._layer = layer

    @operation(PULL_ACTION)
    def pull(self, context: MessageContext, value: Optional[Dict[str, Any]]) -> Reply:
        """SOAP operation: serve a digest reconciliation request."""
        if not isinstance(value, dict):
            raise sender_fault("Pull requires a map payload")
        activity = value.get("activity")
        digest = value.get("digest")
        if not isinstance(activity, str) or not isinstance(digest, list):
            raise sender_fault("Pull requires activity and digest")
        engine = self._layer.engine_for(activity)
        if engine is None:
            raise sender_fault(f"not participating in activity {activity!r}")
        requester = context.source
        response = engine.serve_pull(
            [item for item in digest if isinstance(item, str)], requester
        )
        engine.metrics.counter("gossip.pull-served").inc()
        return Reply(value=response, action=PULL_RESPONSE_ACTION)

    @operation(ADVERTISE_ACTION)
    def advertise(
        self, context: MessageContext, value: Optional[Dict[str, Any]]
    ) -> None:
        """SOAP operation: receive lazy-push advertisements."""
        engine, ids = self._engine_and_ids(value)
        hops = value.get("hops")
        holder = value.get("holder")
        if not isinstance(hops, int) or not isinstance(holder, str):
            raise sender_fault("Advertise requires hops and holder")
        engine.on_advertise(ids, hops, holder)
        return None

    @operation(FETCH_ACTION)
    def fetch(
        self, context: MessageContext, value: Optional[Dict[str, Any]]
    ) -> None:
        """SOAP operation: serve a lazy-push payload fetch."""
        engine, ids = self._engine_and_ids(value)
        requester = value.get("requester")
        if not isinstance(requester, str):
            raise sender_fault("Fetch requires a requester address")
        engine.serve_fetch(ids, requester)
        return None

    @operation(FEEDBACK_ACTION)
    def feedback(
        self, context: MessageContext, value: Optional[Dict[str, Any]]
    ) -> None:
        """SOAP operation: receive duplicate feedback (coin style)."""
        engine, ids = self._engine_and_ids(value)
        engine.on_feedback(ids)
        return None

    def _engine_and_ids(self, value: Optional[Dict[str, Any]]):
        if not isinstance(value, dict):
            raise sender_fault("payload must be a map")
        activity = value.get("activity")
        ids = value.get("ids")
        if not isinstance(activity, str) or not isinstance(ids, list):
            raise sender_fault("payload requires activity and ids")
        engine = self._layer.engine_for(activity)
        if engine is None:
            raise sender_fault(f"not participating in activity {activity!r}")
        return engine, [item for item in ids if isinstance(item, str)]

    @operation(BATCH_ACTION)
    def batch(self, context: MessageContext, value: Any) -> None:
        """SOAP operation: parsed-XML fallback for batched frames.

        Reached only when the byte-level split in the gossip layer's
        pre-parse gate failed (or the node has no layer gate at all): the
        embedded rumors are re-serialized from the parsed tree and fed
        through the normal receive path.
        """
        body = context.envelope.body
        if body is None:
            raise sender_fault("Batch requires a GossipBatch body")
        runtime = self._layer.runtime
        for data in frames_from_element(body):
            self._layer._batch.rumors_unpacked.inc()
            runtime.receive(data, source=context.source)
        control = control_from_element(body)
        if control.empty():
            return None
        activity = body.get("activity")
        holder = body.get("holder")
        engine = self._layer.engine_for(activity) if activity else None
        if engine is not None and holder:
            engine.on_batch_control(control, holder, context.source)
        return None

    @operation(DELIVER_ACTION)
    def deliver(
        self, context: MessageContext, value: Optional[Dict[str, Any]]
    ) -> None:
        """SOAP operation: ingest a batch of wire messages."""
        if not isinstance(value, dict):
            raise sender_fault("Deliver requires a map payload")
        messages = value.get("messages")
        if not isinstance(messages, list):
            raise sender_fault("Deliver requires a messages list")
        runtime = self._layer.runtime
        for data in messages:
            if isinstance(data, (bytes, bytearray)):
                runtime.metrics.counter("gossip.delivered-batch").inc()
                runtime.receive(bytes(data), source=context.source)
        return None
