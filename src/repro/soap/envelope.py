"""SOAP envelope construction and parsing.

Supports both SOAP 1.1 (the 2008-era default the paper's stack would have
used) and SOAP 1.2.  An :class:`Envelope` owns a list of header blocks and a
single body element; serialization produces real on-the-wire XML, and
parsing round-trips it.

Serialization is **memoized**: ``to_bytes()`` encodes once and returns the
cached wire bytes until the envelope is mutated through its own API
(``add_header`` / ``remove_header`` / assigning ``body``), and
``from_bytes()`` seeds the cache with the original wire bytes -- so a
message that is received, stored and forwarded unchanged never pays a
second XML encode.  Code that mutates a header *element* in place (rather
than replacing it) must call :meth:`Envelope.invalidate`; nothing in this
repository does (``tests/integration/test_parse_sharing.py`` holds every
shared tree to its bytes after seeded runs).

Not every message on the wire was an :class:`Envelope` at its sender: what
a node *originates* through ``SoapRuntime.send`` is written straight to
bytes (:func:`repro.soap.runtime.originated_bytes`) unless something needs
the object model -- a pre-built body element, extra header elements, an
outbound handler.  Published, forwarded and fault envelopes are built
here, and every *received* message is parsed into one.  The two writers
emit identical bytes (docs/WIRE.md, "Serialization contract").

Parsing and decoding are **shared per process**: equal wire bytes are
parsed and decoded once, into a :class:`DecodedFrame` the parse cache
keeps.  A cache hit shares the element tree, the *canonical* bytes object
(so a rumor that thousands of simulated nodes store is one buffer, not
one copy per store, and the receiver's own copy of the frame is garbage
as soon as it is parsed), the envelope split (version, header blocks,
body element), and -- decoded on first use -- the frame's WS-Addressing
headers and ``Gossip`` header.  What stays per arrival: the
:class:`Envelope` and its header list, the ``AddressingHeaders`` copy
:meth:`~repro.wsa.addressing.AddressingHeaders.extract` returns (handlers
mutate it), and the body value the application receives.  An envelope
mutated through its API drops its :class:`DecodedFrame`, so its headers
are decoded afresh.  Only frames that can recur are admitted: a frame
with a WS-Addressing ``RelatesTo`` or ``ReplyTo`` header is a request
that expects a reply, a reply, or a fault.  It carries a fresh
``MessageID`` and is addressed to one node, so it is parsed on every
receipt and its tree dies with its envelope.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.hub import current_hub
from repro.soap import namespaces as ns
from repro.xmlutil import canonical_bytes, local_name, parse_bytes, qname
from repro.xmlutil.text import XmlParseError

_ENVELOPE_NS = {"1.1": ns.SOAP11_ENV, "1.2": ns.SOAP12_ENV}
_NS_TO_VERSION = {uri: version for version, uri in _ENVELOPE_NS.items()}


class EnvelopeError(ValueError):
    """Raised when bytes are well-formed XML but not a SOAP envelope."""


#: :attr:`DecodedFrame.gossip` before the ``Gossip`` header is decoded
#: (``None`` there means the frame has none).
UNDECODED = object()


class DecodedFrame:
    """One frame's shared decode: what every receiver of equal bytes
    would otherwise rebuild from the same tree.

    ``addressing`` and ``gossip`` start undecoded and are filled by the
    first :meth:`~repro.wsa.addressing.AddressingHeaders.extract` /
    :meth:`~repro.core.message.GossipHeader.from_envelope` of an envelope
    built on this record.  Holds nothing per receiver.
    """

    __slots__ = ("data", "root", "version", "headers", "body", "addressing", "gossip")

    def __init__(
        self,
        data: bytes,
        root: ET.Element,
        version: str,
        headers: Tuple[ET.Element, ...],
        body: Optional[ET.Element],
    ) -> None:
        self.data = data
        self.root = root
        self.version = version
        self.headers = headers
        self.body = body
        self.addressing: Any = None
        self.gossip: Any = UNDECODED


# Cross-envelope parse sharing: a gossip fan-out hands the *same* wire
# bytes to several simulated receivers, and only the first one needs to
# pay the XML parse and the decode -- later receivers of equal bytes
# reuse the first receiver's record (the canonical bytes included).  Safe
# because nothing in this repository mutates a header/body *element* in
# place (see the module docstring); envelopes built from a shared record
# still get their own header lists.  Bounded by wholesale clearing: the
# cache is a throughput optimization, not a correctness feature.
_PARSE_CACHE: Dict[bytes, DecodedFrame] = {}
_PARSE_CACHE_LIMIT = 2048

# Header blocks that mark a point-to-point frame (see the module
# docstring): never admitted to the parse cache.
_UNSHARED_HEADERS = frozenset({qname(ns.WSA, "RelatesTo"), qname(ns.WSA, "ReplyTo")})


def clear_parse_cache() -> None:
    """Drop all shared parse-cache entries (tests/benchmarks call this)."""
    _PARSE_CACHE.clear()


class Envelope:
    """A SOAP envelope: header blocks plus one body element.

    Example:
        >>> body = ET.Element("{urn:example}ping")
        >>> env = Envelope(body=body)
        >>> round_tripped = Envelope.from_bytes(env.to_bytes())
        >>> round_tripped.body.tag
        '{urn:example}ping'
    """

    def __init__(
        self,
        body: Optional[ET.Element] = None,
        headers: Optional[List[ET.Element]] = None,
        version: str = "1.1",
    ) -> None:
        if version not in _ENVELOPE_NS:
            raise ValueError(f"unsupported SOAP version: {version!r}")
        self.version = version
        self._headers: List[ET.Element] = list(headers) if headers else []
        self._body = body
        self._wire: Optional[bytes] = None
        #: The shared decode of the frame this envelope was parsed from,
        #: while the envelope still equals it; ``None`` otherwise.
        self.decoded: Optional[DecodedFrame] = None

    @property
    def envelope_namespace(self) -> str:
        return _ENVELOPE_NS[self.version]

    # -- memoization ---------------------------------------------------------

    def invalidate(self) -> None:
        """Drop the cached wire bytes and the shared decode; the next
        ``to_bytes()`` re-encodes."""
        self._wire = None
        self.decoded = None

    @property
    def body(self) -> Optional[ET.Element]:
        return self._body

    @body.setter
    def body(self, element: Optional[ET.Element]) -> None:
        self._body = element
        self.invalidate()

    @property
    def headers(self) -> List[ET.Element]:
        """The header-block list.  Replace blocks via ``add_header`` /
        ``remove_header``; mutating the list (or a block) directly requires
        an explicit :meth:`invalidate`."""
        return self._headers

    @headers.setter
    def headers(self, elements: List[ET.Element]) -> None:
        self._headers = elements
        self.invalidate()

    # -- header access ------------------------------------------------------

    def add_header(self, element: ET.Element) -> None:
        """Append a header block."""
        self._headers.append(element)
        self.invalidate()

    def header(self, tag: str) -> Optional[ET.Element]:
        """First header block with the given ElementTree tag, or ``None``."""
        for element in self._headers:
            if element.tag == tag:
                return element
        return None

    def headers_named(self, tag: str) -> List[ET.Element]:
        """All header blocks with the given tag."""
        return [element for element in self._headers if element.tag == tag]

    def remove_header(self, tag: str) -> int:
        """Remove all header blocks with the given tag; returns how many."""
        before = len(self._headers)
        self._headers = [element for element in self._headers if element.tag != tag]
        removed = before - len(self._headers)
        if removed:
            self.invalidate()
        return removed

    def header_text(self, tag: str) -> Optional[str]:
        """Text content of the first matching header, or ``None``."""
        element = self.header(tag)
        return element.text if element is not None else None

    # -- body helpers --------------------------------------------------------

    @property
    def is_fault(self) -> bool:
        """True when the body is a SOAP Fault element."""
        return self._body is not None and local_name(self._body.tag) == "Fault"

    # -- serialization ---------------------------------------------------------

    def to_element(self) -> ET.Element:
        """Build the ``Envelope`` element tree."""
        env_ns = self.envelope_namespace
        root = ET.Element(qname(env_ns, "Envelope"))
        if self._headers:
            header = ET.SubElement(root, qname(env_ns, "Header"))
            header.extend(self._headers)
        body = ET.SubElement(root, qname(env_ns, "Body"))
        if self._body is not None:
            body.append(self._body)
        return root

    def to_bytes(self) -> bytes:
        """Serialize to UTF-8 XML bytes with declaration.

        Memoized: returns the same ``bytes`` object until the envelope is
        mutated, so fan-out sends and store retention share one buffer.
        """
        if self._wire is not None:
            current_hub().wire.serialize_reused.inc()
            return self._wire
        current_hub().wire.serialize_count.inc()
        self._wire = canonical_bytes(self.to_element())
        return self._wire

    @classmethod
    def from_element(cls, root: ET.Element) -> "Envelope":
        """Build an envelope from a parsed ``Envelope`` element.

        Raises:
            EnvelopeError: if the root is not a SOAP envelope or the body
                is missing.
        """
        version, headers, body = _split(root)
        return cls(body=body, headers=headers, version=version)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Envelope":
        """Parse wire bytes into an envelope.

        The original bytes seed the serialization cache, so an envelope
        that is parsed and re-sent unmodified is never re-encoded.  When
        equal bytes were parsed before, the envelope is built from the
        first parse's :class:`DecodedFrame`, and its ``to_bytes()`` is
        that parse's bytes object, not ``data``.

        Raises:
            EnvelopeError: malformed XML or not an envelope.
        """
        data = data if isinstance(data, bytes) else bytes(data)
        decoded = _PARSE_CACHE.get(data)
        if decoded is not None:
            current_hub().wire.parse_reused.inc()
            return cls._from_decoded(decoded)
        try:
            root = parse_bytes(data)
        except XmlParseError as exc:
            raise EnvelopeError(str(exc)) from exc
        current_hub().wire.parse_count.inc()
        version, headers, body = _split(root)
        if any(block.tag in _UNSHARED_HEADERS for block in headers):
            envelope = cls(body=body, headers=headers, version=version)
            envelope._wire = data
            return envelope
        decoded = DecodedFrame(data, root, version, headers, body)
        if len(_PARSE_CACHE) >= _PARSE_CACHE_LIMIT:
            _PARSE_CACHE.clear()
        _PARSE_CACHE[data] = decoded
        return cls._from_decoded(decoded)

    @classmethod
    def _from_decoded(cls, decoded: DecodedFrame) -> "Envelope":
        envelope = cls.__new__(cls)
        envelope.version = decoded.version
        envelope._headers = list(decoded.headers)
        envelope._body = decoded.body
        envelope._wire = decoded.data
        envelope.decoded = decoded
        return envelope

    def __repr__(self) -> str:
        body_tag = self._body.tag if self._body is not None else None
        return (
            f"Envelope(version={self.version!r}, headers={len(self._headers)}, "
            f"body={body_tag!r})"
        )


def _split(root: ET.Element) -> Tuple[str, Tuple[ET.Element, ...], Optional[ET.Element]]:
    """The version, header blocks and body element of a parsed envelope.

    Raises:
        EnvelopeError: if the root is not a SOAP envelope or the body is
            missing.
    """
    version = None
    if root.tag.startswith("{"):
        uri = root.tag[1:].partition("}")[0]
        version = _NS_TO_VERSION.get(uri)
    if version is None or local_name(root.tag) != "Envelope":
        raise EnvelopeError(f"not a SOAP envelope root: {root.tag!r}")
    env_ns = _ENVELOPE_NS[version]

    header_element = root.find(qname(env_ns, "Header"))
    headers = tuple(header_element) if header_element is not None else ()

    body_element = root.find(qname(env_ns, "Body"))
    if body_element is None:
        raise EnvelopeError("SOAP envelope has no Body")
    children = list(body_element)
    if len(children) > 1:
        raise EnvelopeError(f"SOAP Body has {len(children)} children; expected <= 1")
    return version, headers, children[0] if children else None
