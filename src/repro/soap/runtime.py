"""The per-node SOAP engine: send, receive, dispatch.

One :class:`SoapRuntime` runs on every node (simulated or real).  It is
transport-agnostic: anything with a ``send(address, data: bytes)`` method
works -- :class:`repro.transport.inmem.SimTransport` inside the simulator,
:class:`repro.transport.http.HttpTransport` for real deployments.

All messaging is one-way WS-Addressing style (see :mod:`repro.wsa`);
request/response is built from two one-way messages correlated by
``MessageID`` / ``RelatesTo``.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Any, Callable, Dict, Optional, Protocol, Tuple, Union

from repro.obs.hub import current_hub
from repro.simnet.metrics import MetricsRegistry
from repro.soap import namespaces as ns
from repro.soap.envelope import Envelope, EnvelopeError
from repro.soap.fault import FaultCode, SoapFault
from repro.soap.handler import Direction, HandlerChain, MessageContext
from repro.soap.serializer import SerializationError, from_element, to_element, to_xml
from repro.soap.service import Reply, Service
from repro.wsa.addressing import (
    AddressingHeaders,
    EndpointReference,
    new_message_id,
    reference_parameters_xml,
)
from repro.xmlutil import canonical_bytes, qname
from repro.xmlutil.text import PrefixMap, TreeOnly, encode_document

ReplyCallback = Callable[[MessageContext, Any], None]


class Transport(Protocol):
    """What the runtime needs from a transport binding."""

    def send(self, address: str, data: bytes) -> None:  # pragma: no cover
        """Deliver ``data`` to the node addressed by ``address``, best effort."""
        ...


def _default_tag(action: str) -> str:
    """Derive a body element tag from an action URI.

    ``urn:ws-gossip:2008:core/Gossip`` -> ``{urn:ws-gossip:2008:core}Gossip``.
    """
    base, sep, local = action.rpartition("/")
    if not sep or not local:
        return qname(ns.WSGOSSIP, action.rpartition(":")[2] or "Message")
    return qname(base, local)


def originated_bytes(
    addressing: AddressingHeaders,
    reference_parameters: Dict[str, str],
    body_tag: str,
    value: Any,
) -> Optional[bytes]:
    """Wire bytes of a message this node originates, written directly.

    Byte for byte what a SOAP 1.1 :class:`Envelope` with the destination's
    reference parameters and ``addressing`` as headers and
    ``to_element(body_tag, value)`` as body serializes to, without building
    the tree (docs/WIRE.md, "Serialization contract";
    tests/soap/test_wire_writer.py holds the two against each other).
    ``None`` when only ElementTree's serializer reproduces the document
    (see :class:`PrefixMap`).

    Raises:
        SerializationError: exactly when ``to_element`` does.
    """
    names = PrefixMap()
    try:
        soap = names.prefix(ns.SOAP11_ENV)
        headers = reference_parameters_xml(reference_parameters, names)
        headers += addressing.to_xml(names)
        payload = to_xml(body_tag, value, names)
    except TreeOnly:
        return None
    if headers:
        headers = f"<{soap}:Header>{headers}</{soap}:Header>"
    return encode_document(
        f"<{soap}:Envelope{names.declarations()}>{headers}"
        f"<{soap}:Body>{payload}</{soap}:Body></{soap}:Envelope>"
    )


class SoapRuntime:
    """Send/receive engine bound to one base address.

    Args:
        base_address: this node's address, e.g. ``sim://node-1`` or
            ``http://127.0.0.1:8001``.  Service paths are appended to it.
        transport: the wire binding.
        metrics: optional shared metrics registry.
    """

    def __init__(
        self,
        base_address: str,
        transport: Transport,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.base_address = base_address.rstrip("/")
        self.transport = transport
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.chain = HandlerChain()
        self._services: Dict[str, Service] = {}
        self._reply_callbacks: Dict[str, ReplyCallback] = {}
        self._preparse_gates: list = []

    def reset_volatile(self) -> None:
        """Drop in-flight conversational state (pending reply callbacks).

        Part of a crash-faithful process restart: the services, handler
        chain and preparse gates are configuration and survive, but a
        reply to a request sent before the crash must find no callback
        waiting -- the restarted process never sent it.
        """
        self._reply_callbacks.clear()

    # -- service hosting ------------------------------------------------------

    def add_service(self, path: str, service: Service) -> None:
        """Mount ``service`` at ``path`` (e.g. ``"/gossip"``).

        Raises:
            ValueError: if the path is taken or not absolute.
        """
        if not path.startswith("/"):
            raise ValueError(f"service path must start with '/': {path!r}")
        if path in self._services:
            raise ValueError(f"service path already mounted: {path!r}")
        self._services[path] = service

    def service_at(self, path: str) -> Optional[Service]:
        """The service mounted at ``path``, or ``None``."""
        return self._services.get(path)

    def service_paths(self) -> list:
        """Paths of every mounted service, sorted."""
        return sorted(self._services)

    def address_of(self, path: str) -> str:
        """Full address of a mounted path."""
        return self.base_address + path

    def epr(self, path: str, **reference_parameters: str) -> EndpointReference:
        """Endpoint reference for one of this node's services."""
        return EndpointReference(self.address_of(path), dict(reference_parameters))

    # -- sending ----------------------------------------------------------------

    def send(
        self,
        to: Union[str, EndpointReference],
        action: str,
        value: Any = None,
        tag: Optional[str] = None,
        reply_to_path: Optional[str] = None,
        relates_to: Optional[str] = None,
        extra_headers: Optional[list] = None,
        on_reply: Optional[ReplyCallback] = None,
    ) -> str:
        """Send a one-way message; returns its ``MessageID``.

        Args:
            to: destination address or EPR (EPR reference parameters are
                copied into headers, per WS-A).
            action: WS-A action URI; also names the body element by default.
            value: payload serialized via :mod:`repro.soap.serializer`
                (``None`` for an empty-bodied message).
            tag: override the body element tag.
            reply_to_path: local service path replies should go to; required
                when ``on_reply`` is given (defaults to ``"/replies"``).
            relates_to: correlate this message to a previous MessageID.
            extra_headers: additional header elements (e.g. gossip headers).
            on_reply: one-shot callback ``(context, value)`` invoked when a
                message relating to this one arrives; on a fault reply the
                value is the :class:`SoapFault`.
        """
        if isinstance(to, EndpointReference):
            destination, reference_parameters = to.address, to.reference_parameters
        else:
            destination, reference_parameters = to, {}
        message_id = new_message_id()
        addressing = AddressingHeaders(
            to=destination,
            action=action,
            message_id=message_id,
            relates_to=relates_to,
        )
        if on_reply is not None or reply_to_path is not None:
            addressing.reply_to = self.epr(reply_to_path or "/replies")

        # Serialize first, so a payload that cannot be leaves no callback
        # behind.  A message nobody needs as an object model is written
        # straight to bytes; the rest become an envelope for the chain.
        prebuilt = isinstance(value, ET.Element)  # e.g. a CoordinationContext
        body_tag = None if prebuilt else tag or _default_tag(action)
        data = envelope = None
        if not (prebuilt or extra_headers or self.chain.intercepts_outbound):
            data = originated_bytes(addressing, reference_parameters, body_tag, value)
        if data is None:
            envelope = Envelope(body=value if prebuilt else to_element(body_tag, value))
            for key, text in sorted(reference_parameters.items()):
                envelope.add_header(self._reference_parameter_header(key, text))
            for element in extra_headers or ():
                envelope.add_header(element)
        if on_reply is not None:
            self._reply_callbacks[message_id] = on_reply

        if envelope is not None:
            context = self._run_outbound(envelope, addressing, destination)
            if context is None:
                return message_id
            destination = context.destination
            data = canonical_bytes(context.envelope.to_element())
        # Both routes meet here, so each message counts once.
        current_hub().wire.serialize_count += 1
        self._transmit(destination, data)
        return message_id

    def cancel_reply(self, message_id: str) -> bool:
        """Drop a pending reply callback (e.g. when retrying a request
        under a fresh MessageID).  Returns True if one was registered."""
        return self._reply_callbacks.pop(message_id, None) is not None

    @property
    def pending_replies(self) -> int:
        """Number of reply callbacks still waiting."""
        return len(self._reply_callbacks)

    def forward_envelope(self, to: str, envelope: Envelope) -> str:
        """Forward an existing envelope to a new destination.

        Used by the gossip layer: the body and non-addressing headers are
        preserved (the application invocation travels untouched); the WS-A
        ``To`` and ``MessageID`` are rewritten for the new hop.  Returns the
        fresh ``MessageID``.
        """
        addressing = AddressingHeaders.extract(envelope)
        addressing.to = to
        addressing.message_id = new_message_id()
        addressing.reply_to = None
        self._dispatch_outbound(envelope, addressing, to)
        return addressing.message_id

    def send_bytes(self, destination: str, data: bytes) -> None:
        """Send pre-serialized envelope bytes -- the zero-copy fast path.

        Used by the gossip layer to fan one encoded payload out to many
        peers: the same ``bytes`` object goes to every target, so the XML
        encode is paid once per message instead of once per copy.  The
        outbound handler chain is bypassed (the bytes are already the final
        wire form); dispatch at the receiver relies on path-based routing,
        which :meth:`_path_of` supports for any ``To`` header.
        """
        self.metrics.counter("soap.sent").inc()
        self.metrics.counter("soap.sent-shared").inc()
        self.transport.send(destination, data)

    def send_fault(
        self,
        to: Union[str, EndpointReference],
        fault: SoapFault,
        relates_to: Optional[str] = None,
    ) -> str:
        """Send a fault message (used by the dispatcher; public for tests)."""
        destination = to.address if isinstance(to, EndpointReference) else to
        envelope = Envelope(body=fault.to_element("1.1"))
        message_id = new_message_id()
        addressing = AddressingHeaders(
            to=destination,
            action=f"{ns.WSA}/fault",
            message_id=message_id,
            relates_to=relates_to,
        )
        self._dispatch_outbound(envelope, addressing, destination)
        return message_id

    def _dispatch_outbound(
        self, envelope: Envelope, addressing: AddressingHeaders, destination: str
    ) -> None:
        context = self._run_outbound(envelope, addressing, destination)
        if context is not None:
            self._transmit(context.destination, context.envelope.to_bytes())

    def _run_outbound(
        self, envelope: Envelope, addressing: AddressingHeaders, destination: str
    ) -> Optional[MessageContext]:
        """Run the outbound chain; ``None`` when a handler consumed the message."""
        addressing.apply(envelope)
        context = MessageContext(
            envelope,
            Direction.OUTBOUND,
            addressing=addressing,
            destination=destination,
            runtime=self,
        )
        if not self.chain.run_outbound(context):
            self.metrics.counter("soap.outbound.consumed").inc()
            return None
        # Handlers may have edited addressing; re-apply before serializing.
        context.addressing.apply(context.envelope)
        return context

    def _transmit(self, destination: str, data: bytes) -> None:
        self.metrics.counter("soap.sent").inc()
        self.transport.send(destination, data)

    def _reference_parameter_header(self, key: str, text: str) -> ET.Element:
        element = ET.Element(qname(ns.WSGOSSIP, key))
        element.text = text
        return element

    # -- receiving ------------------------------------------------------------

    def add_preparse_gate(self, gate: Callable[[bytes, Optional[str]], bool]) -> None:
        """Install a pre-parse gate on the receive path.

        A gate sees the raw wire bytes before any XML parse and returns
        ``False`` to consume the message (no parse, no dispatch).  The
        gossip layer uses this to drop already-seen messages with a cheap
        byte scan -- the receive-side half of the zero-copy fast path.
        """
        self._preparse_gates.append(gate)

    def receive(self, data: bytes, source: Optional[str] = None) -> None:
        """Entry point for the transport: process one wire message.

        Malformed envelopes are counted and dropped (a real stack would
        return an HTTP-level error; there is no one to fault back to).
        """
        for gate in self._preparse_gates:
            if not gate(data, source):
                self.metrics.counter("soap.preparse-dropped").inc()
                return
        try:
            envelope = Envelope.from_bytes(data)
        except EnvelopeError:
            self.metrics.counter("soap.malformed").inc()
            return
        self.metrics.counter("soap.received").inc()

        addressing = AddressingHeaders.extract(envelope)
        context = MessageContext(
            envelope,
            Direction.INBOUND,
            addressing=addressing,
            source=source,
            destination=addressing.to,
            runtime=self,
        )
        if not self.chain.run_inbound(context):
            self.metrics.counter("soap.inbound.consumed").inc()
            return
        self.deliver_local(context)

    def deliver_local(self, context: MessageContext) -> None:
        """Dispatch a context past the handler chain: reply correlation
        first, then service operation dispatch.

        Public so the gossip handler can deliver a message locally while
        also re-routing copies to peers.
        """
        addressing = context.addressing
        if addressing.relates_to and self._handle_reply(context):
            return
        self._dispatch_to_service(context)

    def _handle_reply(self, context: MessageContext) -> bool:
        callback = self._reply_callbacks.pop(context.addressing.relates_to, None)
        if callback is None:
            return False
        envelope = context.envelope
        if envelope.is_fault:
            value: Any = SoapFault.from_element(envelope.body)
        else:
            try:
                value = self._body_value(envelope)
            except SerializationError:
                self.metrics.counter("soap.malformed-payload").inc()
                value = SoapFault(
                    FaultCode.SENDER, "reply payload failed to deserialize"
                )
        callback(context, value)
        return True

    def _dispatch_to_service(self, context: MessageContext) -> None:
        addressing = context.addressing
        path = self._path_of(addressing.to)
        service = self._services.get(path) if path is not None else None
        action = addressing.action

        if service is None or action is None:
            self.metrics.counter("soap.no-service").inc()
            self._maybe_fault(
                context,
                SoapFault(FaultCode.SENDER, f"no service at {addressing.to!r}"),
            )
            return
        op = service.lookup(action)
        if op is None:
            self.metrics.counter("soap.no-operation").inc()
            self._maybe_fault(
                context,
                SoapFault(FaultCode.SENDER, f"no operation for action {action!r}"),
            )
            return

        try:
            value = self._body_value(context.envelope)
        except SerializationError:
            self.metrics.counter("soap.malformed-payload").inc()
            self._maybe_fault(
                context,
                SoapFault(FaultCode.SENDER, "payload failed to deserialize"),
            )
            return
        try:
            result = op(context, value)
        except SoapFault as fault:
            self.metrics.counter("soap.faulted").inc()
            self._maybe_fault(context, fault)
            return
        if result is None:
            return
        self._send_reply(context, result)

    def _send_reply(self, context: MessageContext, result: Any) -> None:
        reply_to = context.addressing.reply_to
        if reply_to is None:
            self.metrics.counter("soap.reply-dropped").inc()
            return
        if isinstance(result, Reply):
            action = result.action or f"{context.addressing.action}Response"
            tag = result.tag
            value = result.value
        else:
            action = f"{context.addressing.action}Response"
            tag = None
            value = result
        self.send(
            reply_to,
            action,
            value=value,
            tag=tag,
            relates_to=context.addressing.message_id,
        )

    def _maybe_fault(self, context: MessageContext, fault: SoapFault) -> None:
        reply_to = context.addressing.reply_to
        if reply_to is not None:
            self.send_fault(reply_to, fault, relates_to=context.addressing.message_id)

    # -- small helpers -----------------------------------------------------------

    def _path_of(self, to: Optional[str]) -> Optional[str]:
        if to is None:
            return None
        if to.startswith(self.base_address):
            remainder = to[len(self.base_address):]
            if not remainder:
                return None
            if remainder.startswith("/"):
                return remainder
        # Addressed to someone else -- which includes an authority that
        # merely starts with ours (``sim://n10`` seen on ``sim://n1``).  In
        # a correct deployment the transport would not have delivered it
        # here.  Dispatch by path anyway (virtual hosting), matching
        # permissive 2008 stacks.
        return "/" + to.rstrip("/").rpartition("/")[2]

    @staticmethod
    def _body_value(envelope: Envelope) -> Any:
        body = envelope.body
        if body is None or body.get("t") is None:
            return None
        return from_element(body)

    def __repr__(self) -> str:
        return (
            f"SoapRuntime({self.base_address!r}, services={sorted(self._services)})"
        )
