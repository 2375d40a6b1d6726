"""WS-Addressing 1.0 (2005/08) endpoint references and headers.

All messaging in this stack is one-way with WS-A semantics, the natural fit
for gossip: a request carries ``MessageID``/``ReplyTo``/``Action``; a reply
is itself a one-way message whose ``RelatesTo`` points back.  This is also
how the HTTP binding works (202 Accepted + callback), so the simulated and
real transports share one model.
"""

from __future__ import annotations

import uuid
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple, Union

from repro.soap import namespaces as ns
from repro.soap.envelope import Envelope
from repro.xmlutil import qname
from repro.xmlutil.text import PrefixMap, text_element

_TO = qname(ns.WSA, "To")
_ACTION = qname(ns.WSA, "Action")
_MESSAGE_ID = qname(ns.WSA, "MessageID")
_RELATES_TO = qname(ns.WSA, "RelatesTo")
_REPLY_TO = qname(ns.WSA, "ReplyTo")
_FROM = qname(ns.WSA, "From")
_ADDRESS = qname(ns.WSA, "Address")
_REFERENCE_PARAMETERS = qname(ns.WSA, "ReferenceParameters")


def new_message_id() -> str:
    """A fresh ``urn:uuid:`` message identifier."""
    return f"urn:uuid:{uuid.uuid4()}"


def reference_parameters_xml(parameters: Dict[str, str], names: PrefixMap) -> str:
    """Reference parameters as serialized elements, sorted by key."""
    if not parameters:
        return ""
    gossip = names.prefix(ns.WSGOSSIP)
    return "".join(
        text_element(f"{gossip}:{key}", value)
        for key, value in sorted(parameters.items())
    )


@dataclass(frozen=True)
class EndpointReference:
    """A WS-A endpoint reference: an address URI plus reference parameters.

    Reference parameters are opaque string pairs echoed back as headers by
    whoever replies -- WS-Coordination uses them to carry context
    identifiers.
    """

    address: str
    reference_parameters: Dict[str, str] = field(default_factory=dict)

    def to_element(self, tag: str) -> ET.Element:
        """Serialize as an EPR element named ``tag``."""
        element = ET.Element(tag)
        address = ET.SubElement(element, _ADDRESS)
        address.text = self.address
        if self.reference_parameters:
            params = ET.SubElement(element, _REFERENCE_PARAMETERS)
            for key, value in sorted(self.reference_parameters.items()):
                child = ET.SubElement(params, qname(ns.WSGOSSIP, key))
                child.text = value
        return element

    def to_xml(self, name: str, names: PrefixMap) -> str:
        """The serialized form of :meth:`to_element`, for the direct writer;
        ``name`` is the element's resolved ``prefix:local`` name."""
        wsa = names.prefix(ns.WSA)
        xml = f"<{name}>" + text_element(f"{wsa}:Address", self.address)
        if self.reference_parameters:
            parameters = reference_parameters_xml(self.reference_parameters, names)
            xml += f"<{wsa}:ReferenceParameters>{parameters}</{wsa}:ReferenceParameters>"
        return f"{xml}</{name}>"

    @classmethod
    def from_element(cls, element: ET.Element) -> "EndpointReference":
        """Parse an EPR element.

        Raises:
            ValueError: when the mandatory ``Address`` child is missing.
        """
        address = element.findtext(_ADDRESS)
        if address is None:
            raise ValueError("EndpointReference missing wsa:Address")
        parameters: Dict[str, str] = {}
        params = element.find(_REFERENCE_PARAMETERS)
        if params is not None:
            for child in params:
                local = child.tag.rpartition("}")[2]
                parameters[local] = child.text or ""
        return cls(address=address, reference_parameters=parameters)

    def __hash__(self) -> int:
        return hash((self.address, tuple(sorted(self.reference_parameters.items()))))


@dataclass
class AddressingHeaders:
    """The message addressing properties (MAPs) of one message."""

    to: Optional[str] = None
    action: Optional[str] = None
    message_id: Optional[str] = None
    relates_to: Optional[str] = None
    reply_to: Optional[EndpointReference] = None
    from_: Optional[EndpointReference] = None

    def _blocks(self) -> Iterator[Tuple[str, Union[str, EndpointReference]]]:
        """The MAPs that are set, as ``(tag, value)`` in header order."""
        for tag, value in (
            (_TO, self.to),
            (_ACTION, self.action),
            (_MESSAGE_ID, self.message_id),
            (_RELATES_TO, self.relates_to),
            (_REPLY_TO, self.reply_to),
            (_FROM, self.from_),
        ):
            if value is not None:
                yield tag, value

    def apply(self, envelope: Envelope) -> None:
        """Write these MAPs into the envelope's headers (replacing any
        existing WS-A headers)."""
        for tag in (_TO, _ACTION, _MESSAGE_ID, _RELATES_TO, _REPLY_TO, _FROM):
            envelope.remove_header(tag)
        for tag, value in self._blocks():
            if isinstance(value, EndpointReference):
                element = value.to_element(tag)
            else:
                element = ET.Element(tag)
                element.text = value
            envelope.add_header(element)

    def to_xml(self, names: PrefixMap) -> str:
        """The header blocks :meth:`apply` adds, already serialized."""
        parts = []
        for tag, value in self._blocks():
            name = f"{names.prefix(ns.WSA)}:{tag.rpartition('}')[2]}"
            if isinstance(value, EndpointReference):
                parts.append(value.to_xml(name, names))
            else:
                parts.append(text_element(name, value))
        return "".join(parts)

    @classmethod
    def extract(cls, envelope: Envelope) -> "AddressingHeaders":
        """Read the MAPs present in an envelope (absent ones stay ``None``).

        Each call returns a new object the caller may mutate; an envelope
        parsed from a shared frame copies the frame's decode
        (:class:`~repro.soap.envelope.DecodedFrame`) instead of reading
        its header blocks again.
        """
        decoded = getattr(envelope, "decoded", None)
        if decoded is None:
            return cls._decode(envelope)
        shared = decoded.addressing
        if shared is None:
            shared = decoded.addressing = cls._decode(envelope)
        return cls(
            shared.to,
            shared.action,
            shared.message_id,
            shared.relates_to,
            shared.reply_to,
            shared.from_,
        )

    @classmethod
    def _decode(cls, envelope: Envelope) -> "AddressingHeaders":
        reply_to_element = envelope.header(_REPLY_TO)
        from_element = envelope.header(_FROM)
        return cls(
            to=envelope.header_text(_TO),
            action=envelope.header_text(_ACTION),
            message_id=envelope.header_text(_MESSAGE_ID),
            relates_to=envelope.header_text(_RELATES_TO),
            reply_to=(
                EndpointReference.from_element(reply_to_element)
                if reply_to_element is not None
                else None
            ),
            from_=(
                EndpointReference.from_element(from_element)
                if from_element is not None
                else None
            ),
        )
