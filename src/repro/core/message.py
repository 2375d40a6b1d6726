"""The ``Gossip`` SOAP header block and message identity.

A gossiped application message is an ordinary SOAP invocation carrying two
extra header blocks: the activity's ``CoordinationContext`` (from
WS-Coordination) and this ``Gossip`` block with the epidemic routing state
(message id, origin, remaining rounds, style).  Any node without a gossip
layer simply ignores both headers and processes the invocation -- that is
the paper's unchanged *Consumer*.
"""

from __future__ import annotations

import enum
import functools
import re
import uuid
import xml.etree.ElementTree as ET
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro.soap import namespaces as ns
from repro.soap.envelope import UNDECODED, Envelope
from repro.xmlutil import qname

GOSSIP_HEADER_TAG = qname(ns.WSGOSSIP, "Gossip")
_ACTIVITY = qname(ns.WSGOSSIP, "Activity")
_MESSAGE_ID = qname(ns.WSGOSSIP, "MessageId")
_ORIGIN = qname(ns.WSGOSSIP, "Origin")
_HOPS = qname(ns.WSGOSSIP, "Hops")
_STYLE = qname(ns.WSGOSSIP, "Style")
_SEQUENCE = qname(ns.WSGOSSIP, "Sequence")
_TRACE = qname(ns.WSGOSSIP, "Trace")


class GossipStyle(enum.Enum):
    """The gossip variants the framework implements (paper Section 4:
    "encompassing different gossip styles")."""

    PUSH = "push"
    PULL = "pull"
    PUSH_PULL = "push-pull"
    ANTI_ENTROPY = "anti-entropy"
    # Lazy push (Plumtree-style rumor mongering): eager hops carry only the
    # message *identifier*; peers fetch the payload if they lack it.  Saves
    # bandwidth on large payloads at one extra round trip for fresh items.
    LAZY_PUSH = "lazy-push"
    # Feedback ("coin") rumor mongering, Demers et al.: a node keeps
    # re-forwarding a rumor each period until duplicates' feedback makes it
    # lose interest (stop with probability p per feedback), bounded by the
    # rounds budget.  Self-tuning redundancy instead of a fixed hop count.
    FEEDBACK = "feedback"

    # The engine looks its style up in ``STYLE_TABLE`` at every arrival;
    # members are singletons compared by identity, so identity hashing is
    # consistent and keeps that lookup out of Python code.
    __hash__ = object.__hash__


def new_gossip_message_id() -> str:
    """Fresh identifier for a disseminated data item."""
    return f"urn:ws-gossip:msg:{uuid.uuid4()}"


# The wire form of the header's MessageId child is
# ``<prefix:MessageId>urn:ws-gossip:msg:...</prefix:MessageId>``: every id
# this package mints starts with the urn, and the byte scans below report
# only ids of that form.
_MID_URN_PREFIX = b"urn:ws-gossip:msg:"


def scan_gossip_message_id(data: bytes) -> Optional[str]:
    """Extract the gossip message id from wire bytes without parsing.

    A cheap byte scan for the ``Gossip`` header's ``MessageId`` child,
    used by the receive-side dedup gate to drop duplicates *before* the
    full XML parse.  The scan is anchored to the header block
    :func:`_gossip_block` vouches for, so an id-shaped ``MessageId``
    element anywhere else in the frame -- an application body, say --
    is never read as the frame's identity.  Returns ``None`` when the
    bytes carry no scannable gossip identity (the message then takes the
    normal parse path, so a miss is always safe).
    """
    return _message_id(_gossip_block(data))


def scan_gossip_message_ids(frames: Sequence[bytes]) -> List[Optional[str]]:
    """:func:`scan_gossip_message_id` of each frame (a batch's), in order.

    Frames one writer emits for one activity repeat every byte before the
    ``Gossip`` block, and everything :func:`_gossip_block` checks lies in
    those bytes; so once a frame's prefix is vouched for, a later frame
    that starts with the same prefix needs only the block match.  A frame
    that starts with the prefix but puts something else after it (more
    header blocks, whitespace) gets the full scan.  The last prefix
    vouched for carries over to the next batch, so a run of batches from
    one activity scans in full only when its prefix changes.
    """
    global _vouched
    ids: List[Optional[str]] = []
    prefix, pattern = _vouched
    for frame in frames:
        block = None
        if pattern is not None and frame.startswith(prefix):
            block = pattern.match(frame, len(prefix))
        if block is None:
            block = _gossip_block(frame)
            if block is not None:
                prefix, pattern = frame[: block.start()], block.re
        ids.append(_message_id(block))
    _vouched = prefix, pattern
    return ids


#: The frame prefix :func:`scan_gossip_message_ids` last vouched for, with
#: its ``Gossip`` block pattern (one tuple, so a reader never pairs a
#: prefix with another prefix's pattern).
_vouched: Tuple[bytes, Optional["re.Pattern[bytes]"]] = (b"", None)


def _message_id(block: Optional["re.Match[bytes]"]) -> Optional[str]:
    if block is None:
        return None
    message_id = block.group("mid")
    # An entity-escaped id would not equal the id a parser reads.
    if not message_id.startswith(_MID_URN_PREFIX) or b"&" in message_id:
        return None
    try:
        return message_id.decode("ascii")
    except UnicodeDecodeError:
        return None


# -- in-place splices of the Gossip header (the forward hot path) -------------
#
# A forward changes at most two digit runs of a frame: the ``Hops`` budget
# and, on a traced frame, the ``Trace`` path.  Splicing them into the wire
# bytes skips the parse -> mutate -> serialize round trip and keeps the
# header order, but it is only sound where the bytes say unambiguously which
# elements a parser reads as *the* header's Hops and Trace.
# ``_gossip_block`` vouches for the shape ElementTree-based writers (ours
# included) emit, and returns ``None`` for anything else -- the caller then
# re-encodes:
#
# * an optional XML declaration, then the root ``<E:Envelope ...>`` holding
#   every namespace declaration (double-quoted, no ``<>&`` in a value),
#   exactly one of them binding a prefix P to the gossip namespace, and no
#   ``xmlns`` from there to the end of the Gossip block -- no prefix is
#   rebound, no default namespace applies;
# * ``<E:Header>`` as the root's first child, and the first ``<P:Gossip``
#   of the document a direct child of it: in between, no comment, CDATA
#   section or processing instruction (so every ``<`` opens a tag), no
#   ``>`` outside a tag (so every ``/>`` ends an empty element), no
#   ``</E:Header``, and as many elements closed as opened;
# * the block itself in the writer's child order with leaf children only;
#   the Trace attributes may come in any order.
#
# The first two checks read only the bytes before the block, which every
# frame one writer emits for one activity repeats, so they are cached.

_ROOT = re.compile(
    rb'(?:<\?xml[^>]*\?>\s*)?<([A-Za-z_][\w.-]*):Envelope((?:\s+[\w.:-]+="[^"<>&]*")*)\s*>'
)
_GOSSIP_BINDING = re.compile(
    rb'\sxmlns(?::([\w.-]+))?="' + re.escape(ns.WSGOSSIP.encode("ascii")) + rb'"'
)


@functools.lru_cache(maxsize=256)
def _head_shape(head: bytes) -> Optional[Tuple[bytes, bytes, "re.Pattern[bytes]"]]:
    """For the declaration plus root start tag: the ``<E:Header>`` tag, the
    ``<P:Gossip`` marker and the block pattern, or ``None``."""
    root = _ROOT.fullmatch(head)
    if root is None:
        return None
    bindings = _GOSSIP_BINDING.findall(root.group(2))
    if len(bindings) != 1 or not bindings[0]:
        return None
    prefix = bindings[0]
    return b"<%s:Header>" % root.group(1), b"<%s:Gossip" % prefix, _block_pattern(prefix)


def _block_pattern(prefix: bytes) -> "re.Pattern[bytes]":
    """The Gossip block as our writer emits it, under prefix ``prefix``:
    group ``mid`` is the MessageId text, ``hops`` the Hops digits and
    ``path`` the Trace path digits."""
    p = re.escape(prefix.decode("ascii"))

    def leaf(name: str) -> str:
        return f"<{p}:{name}>[^<]*</{p}:{name}>"

    return re.compile(
        (
            f"<{p}:Gossip>{leaf('Activity')}"
            f"<{p}:MessageId>(?P<mid>[^<]*)</{p}:MessageId>{leaf('Origin')}"
            f"<{p}:Hops>(?P<hops>[0-9]+)</{p}:Hops>{leaf('Style')}(?:{leaf('Sequence')})?"
            f'(?:<{p}:Trace(?:\\s+(?!xmlns)[\\w.:-]+="[^"<>]*")*\\s*>(?P<path>[0-9]+)</{p}:Trace>)?'
            f"</{p}:Gossip>"
        ).encode("ascii")
    )


@functools.lru_cache(maxsize=256)
def _keeps_direct_child(preamble: bytes) -> bool:
    """Whether an element right after ``preamble`` (the header's start tag
    and the header blocks before the Gossip block) is a direct child of
    the header."""
    header_close = b"</" + preamble[1 : preamble.index(b">")]
    for marker in (b"<!", b"<?", b"xmlns", header_close):
        if preamble.find(marker, 1) != -1:
            return False
    tags = preamble.count(b"<") - 1
    if tags != preamble.count(b">") - 1:
        return False
    return tags == 2 * preamble.count(b"</") + preamble.count(b"/>")


def _gossip_block(data: bytes) -> Optional["re.Match[bytes]"]:
    """The match of the header's ``Gossip`` block (see above), or ``None``."""
    end = data.find(b">") + 1
    if data.startswith(b"<?"):
        end = data.find(b">", end) + 1
    if end == 0:
        return None
    shape = _head_shape(data[:end])
    if shape is None:
        return None
    header, marker, pattern = shape
    if not data.startswith(header, end):
        return None
    last = data.find(marker, end + len(header))
    if last == -1 or not _keeps_direct_child(data[end:last]):
        return None
    return pattern.match(data, last)


def splice_hops(data: bytes, hops: int) -> Optional[bytes]:
    """Rewrite the ``Gossip`` header's ``Hops`` value directly in wire bytes.

    The per-forward header update only changes the hop counter; splicing the
    digits in place avoids a full XML parse + re-serialize on the hottest
    path in the engine.  Returns ``None`` when the bytes do not have the
    shape the splice vouches for (caller falls back to the re-encode path).
    """
    block = _gossip_block(data)
    if block is None:
        return None
    start, end = block.span("hops")
    return b"%s%d%s" % (data[:start], hops, data[end:])


def splice_trace_path(data: bytes, path: int) -> Optional[bytes]:
    """Rewrite the ``Trace`` section's path counter directly in wire bytes.

    The trace element's only text is the hop-path counter, so the
    per-forward update is the same digit splice :func:`splice_hops` does
    for the rounds budget.  Returns ``None`` when there is no trace section
    or the bytes do not have the shape the splice vouches for.
    """
    block = _gossip_block(data)
    if block is None or block.start("path") == -1:
        return None
    start, end = block.span("path")
    return b"%s%d%s" % (data[:start], path, data[end:])


def splice_forward(data: bytes, hops: int, path: int) -> Optional[bytes]:
    """Rewrite hops budget *and* trace path in one pass over the wire bytes.

    The per-forward update of a traced frame touches two digit runs;
    splicing both into a single output buffer halves the copies
    :func:`splice_hops` + :func:`splice_trace_path` would make.  Returns
    ``None`` when there is no trace section or the bytes do not have the
    shape the splice vouches for (caller falls back to the re-encode path).
    """
    block = _gossip_block(data)
    if block is None or block.start("path") == -1:
        return None
    hops_start, hops_end = block.span("hops")
    path_start, path_end = block.span("path")
    return b"".join(
        (
            data[:hops_start],
            b"%d" % hops,
            data[hops_end:path_start],
            b"%d" % path,
            data[path_end:],
        )
    )


@dataclass(frozen=True)
class TraceContext:
    """Compact wire-level trace section carried inside the ``Gossip`` header.

    Serialized as ``<g:Trace o="origin" s="1" t="1723111042.183001">N</g:Trace>``
    where the text ``N`` is the hop-path counter (0 on the published frame,
    incremented per forward).  Receivers of a *sampled* frame derive
    end-to-end latency from ``t`` and per-hop latency by dividing over the
    hops taken (``path + 1``); unsampled frames carry provenance only.

    Attributes:
        origin: application endpoint that published the rumor.
        publish_ts: publication timestamp on the origin's clock (the node's
            scheduler clock: simulated time in the simulator, the event
            loop's monotonic clock on real transports).
        path: hops this frame's copy has traversed when it was sent.
        sampled: whether receivers should record latency for this frame.
    """

    origin: str
    publish_ts: float
    path: int = 0
    sampled: bool = True

    def to_element(self) -> ET.Element:
        element = ET.Element(_TRACE)
        element.set("o", self.origin)
        element.set("s", "1" if self.sampled else "0")
        element.set("t", "%.6f" % self.publish_ts)
        element.text = str(self.path)
        return element

    @classmethod
    def from_element(cls, element: ET.Element) -> Optional["TraceContext"]:
        """Parse a trace section; malformed sections yield ``None`` --
        telemetry is advisory and must never break delivery."""
        origin = element.get("o")
        ts_text = element.get("t")
        if origin is None or ts_text is None:
            return None
        try:
            publish_ts = float(ts_text)
            path = int(element.text) if element.text else 0
        except (TypeError, ValueError):
            return None
        if path < 0:
            return None
        return cls(
            origin=origin,
            publish_ts=publish_ts,
            path=path,
            sampled=element.get("s") == "1",
        )

    def advanced(self) -> "TraceContext":
        """A copy with one more traversed hop."""
        return replace(self, path=self.path + 1)


@dataclass(frozen=True)
class GossipHeader:
    """Parsed ``Gossip`` header block.

    Attributes:
        activity: the coordination activity this message belongs to.
        message_id: identity of the *data item* (stable across forwards,
            unlike the per-hop ``wsa:MessageID``).
        origin: address of the initiator's application endpoint.
        hops: remaining forwarding budget; decremented per forward.
        style: gossip style the activity runs.
        sequence: per-origin publication counter (``None`` for unordered
            activities; used by the FIFO ordered-delivery extension).
        trace: optional telemetry trace section (``None`` unless the
            publisher runs with ``GossipConfig(telemetry=...)``; absent
            traces leave the wire bytes untouched).
    """

    activity: str
    message_id: str
    origin: str
    hops: int
    style: GossipStyle = GossipStyle.PUSH
    sequence: Optional[int] = None
    trace: Optional[TraceContext] = None

    def to_element(self) -> ET.Element:
        """Serialize as the ``Gossip`` header block."""
        root = ET.Element(GOSSIP_HEADER_TAG)
        children = [
            (_ACTIVITY, self.activity),
            (_MESSAGE_ID, self.message_id),
            (_ORIGIN, self.origin),
            (_HOPS, str(self.hops)),
            (_STYLE, self.style.value),
        ]
        if self.sequence is not None:
            children.append((_SEQUENCE, str(self.sequence)))
        for tag, text in children:
            child = ET.SubElement(root, tag)
            child.text = text
        if self.trace is not None:
            root.append(self.trace.to_element())
        return root

    @classmethod
    def from_element(cls, element: ET.Element) -> "GossipHeader":
        """Parse the header block.

        Raises:
            ValueError: when mandatory children are missing or malformed.
        """
        activity = element.findtext(_ACTIVITY)
        message_id = element.findtext(_MESSAGE_ID)
        origin = element.findtext(_ORIGIN)
        hops_text = element.findtext(_HOPS)
        style_text = element.findtext(_STYLE)
        if activity is None or message_id is None or origin is None:
            raise ValueError("malformed Gossip header: missing children")
        try:
            hops = int(hops_text) if hops_text is not None else 0
        except ValueError:
            raise ValueError(f"malformed Gossip hops: {hops_text!r}") from None
        style = GossipStyle(style_text) if style_text else GossipStyle.PUSH
        sequence_text = element.findtext(_SEQUENCE)
        try:
            sequence = int(sequence_text) if sequence_text is not None else None
        except ValueError:
            raise ValueError(
                f"malformed Gossip sequence: {sequence_text!r}"
            ) from None
        trace_element = element.find(_TRACE)
        trace = (
            TraceContext.from_element(trace_element)
            if trace_element is not None
            else None
        )
        return cls(
            activity=activity,
            message_id=message_id,
            origin=origin,
            hops=hops,
            style=style,
            sequence=sequence,
            trace=trace,
        )

    @classmethod
    def from_envelope(cls, envelope: Envelope) -> Optional["GossipHeader"]:
        """Extract and parse the header from an envelope, if present.

        An envelope parsed from a shared frame returns the frame's decode
        (:class:`~repro.soap.envelope.DecodedFrame`): the header is frozen,
        so every receiver can hold the one object.  A malformed header
        raises on every call and is never stored.
        """
        decoded = getattr(envelope, "decoded", None)
        if decoded is not None and decoded.gossip is not UNDECODED:
            return decoded.gossip
        element = envelope.header(GOSSIP_HEADER_TAG)
        header = None if element is None else cls.from_element(element)
        if decoded is not None:
            decoded.gossip = header
        return header

    def decremented(self) -> "GossipHeader":
        """A copy with one less hop (floor at zero); a carried trace
        section advances its path counter in step."""
        trace = self.trace.advanced() if self.trace is not None else None
        return replace(self, hops=max(0, self.hops - 1), trace=trace)

    def replace_in(self, envelope: Envelope) -> None:
        """Swap this header into the envelope (removing any previous one)."""
        envelope.remove_header(GOSSIP_HEADER_TAG)
        envelope.add_header(self.to_element())
