"""The multi-rumor batched gossip frame (lpbcast-style piggybacking).

The paper's scalability story leans on epidemic exchanges that amortize
per-message cost; Eugster et al.'s lightweight probabilistic broadcast gets
there by piggybacking many rumor ids/payloads per gossip exchange.  This
module is the wire codec for that: one ``GossipBatch`` envelope carries

* a sequence of complete legacy single-rumor frames (their wire bytes
  embedded verbatim, XML declarations stripped), plus
* optional piggybacked *control* sections -- lazy-push advertisements,
  feedback ids, pull summaries and pull digests -- that would otherwise
  each cost their own envelope.

The frame is valid XML, but it is **assembled and split at the byte
level**: a ``Sizes`` element lists the byte length of every embedded rumor
frame, so a receiver slices the batch into the original single-rumor wire
bytes without parsing anything.  Each slice then rides the existing
receive path (pre-parse dedup gate, XML parse, gossip layer) unchanged --
which is also what makes old and new nodes interoperate: a batch is just
an alternative carrier for ordinary legacy frames.

Layout (see docs/WIRE.md, "Batched frames")::

    <?xml version='1.0' encoding='utf-8'?>
    <soap:Envelope ...>
      <soap:Header><wsa:To>sender-gossip-address</wsa:To>
                   <wsa:Action>urn:ws-gossip:2008:core/Batch</wsa:Action></soap:Header>
      <soap:Body>
        <g:GossipBatch activity="..." holder="sender-gossip-address" [ctl="1"]>
          <g:Sizes>len1 len2 ...</g:Sizes>
          <g:Rumors><!-- legacy frames, concatenated verbatim --></g:Rumors>
          [<g:Ads hops="H"><g:Id>...</g:Id>...</g:Ads>]
          [<g:Feedback><g:Id>...</g:Id>...</g:Feedback>]
          [<g:Summary n="COUNT" h="16 HEX DIGITS"/>]
          [<g:Digest kind="req|rsp"><g:Id>...</g:Id>...</g:Digest>]
        </g:GossipBatch>
      </soap:Body>
    </soap:Envelope>

The ``wsa:To`` is the *sender's* gossip address -- constant across a
fan-out, so every target shares one encoded buffer; receivers dispatch by
service path, exactly like forwarded legacy frames with their stale WS-A
headers.  It also routes the fallback: a batch that survives to a full XML
parse dispatches to the gossip service's ``Batch`` operation.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple
from xml.sax.saxutils import escape, unescape

from repro.soap import namespaces as ns
from repro.xmlutil import canonical_bytes, qname

BATCH_ACTION = f"{ns.WSGOSSIP}/Batch"

#: Cheap batch detection: hand-assembled frames always use this prefix
#: (ElementTree-serialized legacy frames use ``ns0:``-style prefixes, and
#: any occurrence inside payload *text* would be entity-escaped).
BATCH_MARKER = b"<g:GossipBatch"

BATCH_TAG = qname(ns.WSGOSSIP, "GossipBatch")
_SIZES_TAG = qname(ns.WSGOSSIP, "Sizes")
_RUMORS_TAG = qname(ns.WSGOSSIP, "Rumors")
_ADS_TAG = qname(ns.WSGOSSIP, "Ads")
_FEEDBACK_TAG = qname(ns.WSGOSSIP, "Feedback")
_DIGEST_TAG = qname(ns.WSGOSSIP, "Digest")
_SUMMARY_TAG = qname(ns.WSGOSSIP, "Summary")
_ID_TAG = qname(ns.WSGOSSIP, "Id")

_PREFIX = (
    b"<?xml version='1.0' encoding='utf-8'?>\n"
    b'<soap:Envelope xmlns:soap="' + ns.SOAP11_ENV.encode("ascii") + b'"'
    b' xmlns:wsa="' + ns.WSA.encode("ascii") + b'"'
    b' xmlns:g="' + ns.WSGOSSIP.encode("ascii") + b'">'
    b"<soap:Header>"
)
_ACTION_HEADER = (
    b"<wsa:Action>" + BATCH_ACTION.encode("ascii") + b"</wsa:Action>"
)
_SUFFIX = b"</g:GossipBatch></soap:Body></soap:Envelope>"

_XML_DECL = b"<?xml"

#: Attribute values are always double-quoted.  Besides ``&<>`` the writer
#: escapes ``"`` and the whitespace controls, which a parser would fold to
#: spaces if they went out literally; ``_attr_text`` undoes exactly this.
_ATTR_ESCAPES = {'"': "&quot;", "\t": "&#9;", "\n": "&#10;", "\r": "&#13;"}
_ATTR_UNESCAPES = {ref: char for char, ref in _ATTR_ESCAPES.items()}


class BatchError(ValueError):
    """Raised when bytes claiming to be a batch frame cannot be split."""


@dataclass
class BatchControl:
    """Piggybacked control traffic for one destination.

    Attributes:
        ads: lazy-push advertisements as ``(message_ids, hops)`` entries.
        feedback: message ids the sender reports as duplicates.
        digest: a pull digest as ``(message_ids, kind)``; ``kind`` is
            ``"req"`` (answer with missing frames *and* a counter-digest)
            or ``"rsp"`` (answer with missing frames only -- terminates
            the exchange).
        summary: stage 1 of the batched pull, ``MessageStore.summary()``
            of the sender as ``(count, hash)``: a receiver whose own
            summary is equal stays silent, any other answers with its
            full ``req`` digest.
    """

    ads: List[Tuple[List[str], int]] = field(default_factory=list)
    feedback: List[str] = field(default_factory=list)
    digest: Optional[Tuple[List[str], str]] = None
    summary: Optional[Tuple[int, int]] = None

    def empty(self) -> bool:
        return self.section_count() == 0

    def section_count(self) -> int:
        return (
            len(self.ads)
            + bool(self.feedback)
            + (self.digest is not None)
            + (self.summary is not None)
        )

    def summary_only(self) -> bool:
        """True when the summary is the one section present -- the frame a
        pull round sends to every target alike."""
        return self.summary is not None and self.section_count() == 1


def strip_declaration(frame: bytes) -> bytes:
    """Drop a leading XML declaration (plus trailing whitespace) so the
    frame can be embedded as element content."""
    if not frame.startswith(_XML_DECL):
        return frame
    end = frame.find(b"?>")
    if end == -1:
        return frame
    return frame[end + 2 :].lstrip()


def _attr(value: str) -> bytes:
    return b'"' + escape(value, _ATTR_ESCAPES).encode("utf-8") + b'"'


def _ids_xml(ids: Sequence[str]) -> str:
    if not ids:
        return ""
    joined = "".join(ids)
    if "&" in joined or "<" in joined or ">" in joined:
        return "".join(f"<g:Id>{escape(i)}</g:Id>" for i in ids)
    # Nothing to escape (the usual urn ids): one join writes the list.
    return "<g:Id>" + "</g:Id><g:Id>".join(ids) + "</g:Id>"


def build_batch(
    activity: str,
    holder: str,
    frames: Sequence[bytes],
    control: Optional[BatchControl] = None,
) -> bytes:
    """Assemble a batch frame from legacy single-rumor wire bytes.

    ``holder`` is the sender's gossip address (the batch's ``wsa:To`` and
    the address control responses go back to).  The declaration-stripped
    frames are embedded verbatim; no inner XML is parsed or re-encoded.
    """
    stripped = [strip_declaration(frame) for frame in frames]
    has_control = control is not None and not control.empty()
    parts = [
        _PREFIX,
        b"<wsa:To>" + escape(holder).encode("utf-8") + b"</wsa:To>",
        _ACTION_HEADER,
        b"</soap:Header><soap:Body>",
        b"<g:GossipBatch activity=%s holder=%s%s>"
        % (_attr(activity), _attr(holder), b' ctl="1"' if has_control else b""),
        b"<g:Sizes>" + " ".join(str(len(f)) for f in stripped).encode("ascii") + b"</g:Sizes>",
        b"<g:Rumors>",
    ]
    parts.extend(stripped)
    parts.append(b"</g:Rumors>")
    if has_control:
        for ids, hops in control.ads:
            parts.append(
                b'<g:Ads hops="%d">%s</g:Ads>' % (hops, _ids_xml(ids).encode("utf-8"))
            )
        if control.feedback:
            parts.append(
                b"<g:Feedback>%s</g:Feedback>" % _ids_xml(control.feedback).encode("utf-8")
            )
        if control.summary is not None:
            parts.append(b'<g:Summary n="%d" h="%016x"/>' % control.summary)
        if control.digest is not None:
            ids, kind = control.digest
            parts.append(
                b"<g:Digest kind=%s>%s</g:Digest>"
                % (_attr(kind), _ids_xml(ids).encode("utf-8"))
            )
    parts.append(_SUFFIX)
    return b"".join(parts)


def is_batch_frame(data: bytes) -> bool:
    """True when the wire bytes are a hand-assembled batch frame."""
    return data.find(BATCH_MARKER) != -1


# The byte scanners below read a batch only in exactly the layout
# build_batch writes; any other spelling (another serializer's prefixes,
# quotes, attribute order or whitespace, CDATA, character references, a
# header the writer never emits) raises BatchError, and the caller takes
# the full XML parse instead.  A scan never reads markup a parser would
# read differently, such as batch-like text quoted in a header or in an
# embedded frame.

_TO_OPEN = _PREFIX + b"<wsa:To>"
_TAG_OPEN = (
    b"</wsa:To>" + _ACTION_HEADER + b"</soap:Header><soap:Body>" + BATCH_MARKER
)
_TAG_TO_RUMORS = re.compile(
    rb' activity="([^"]*)" holder="([^"]*)"( ctl="1")?>'
    rb"<g:Sizes>([^<]*)</g:Sizes><g:Rumors>"
)
_RUMORS_CLOSE = b"</g:Rumors>"
_ATTR_REFS = ("&amp;", "&lt;", "&gt;", *_ATTR_UNESCAPES)


def _attr_text(raw: bytes) -> str:
    """An attribute value written by :func:`_attr`, unescaped."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise BatchError("undecodable batch attribute") from exc
    # A literal quote means the scan ran past the value; a parser folds
    # literal whitespace controls to spaces (the writer sends references).
    if '"' in text or "\t" in text or "\n" in text or "\r" in text:
        raise BatchError("batch attribute is not the writer's")
    if "&" in text:
        if text.count("&") != sum(text.count(ref) for ref in _ATTR_REFS):
            raise BatchError("batch attribute uses a foreign reference")
        text = unescape(text, _ATTR_UNESCAPES)
    return text


Layout = Tuple[str, str, bool, Tuple[int, ...], int]
#: The last frame :func:`_layout` read, and its layout: a receiver asks
#: for one batch's frames, ctl flag, control, activity and holder in
#: turn.  Holding the bytes keeps the identity test sound.
_LAST_LAYOUT: Tuple[bytes, Layout] = (b"", ("", "", False, (), 0))


def _layout(data: bytes) -> Layout:
    """``(activity, holder, has_control, sizes, offset of the first
    embedded frame)``."""
    global _LAST_LAYOUT
    last = _LAST_LAYOUT  # one read: another thread may rebind it
    if last[0] is data:
        return last[1]
    if not data.startswith(_TO_OPEN):
        raise BatchError("not a batch in the writer's layout")
    # wsa:To's text is escaped: its first "<" closes it.
    to_end = data.find(b"<", len(_TO_OPEN))
    match = _TAG_TO_RUMORS.match(data, to_end + len(_TAG_OPEN))
    if to_end == -1 or not data.startswith(_TAG_OPEN, to_end) or match is None:
        raise BatchError("batch head is not the writer's")
    try:
        sizes = tuple([int(token) for token in match[4].split()])
    except ValueError as exc:
        raise BatchError(f"malformed Sizes content: {exc}") from exc
    activity, holder = _attr_text(match[1]), _attr_text(match[2])
    layout = (activity, holder, match[3] is not None, sizes, match.end())
    _LAST_LAYOUT = (data, layout)
    return layout


def _layout_field(data: bytes, index: int, default: Any) -> Any:
    try:
        return _layout(data)[index]
    except BatchError:
        return default


def scan_batch_activity(data: bytes) -> Optional[str]:
    """The batch's activity id, by byte scan (no parse)."""
    return _layout_field(data, 0, None)


def scan_batch_holder(data: bytes) -> Optional[str]:
    """The sender's gossip address, by byte scan (no parse)."""
    return _layout_field(data, 1, None)


def batch_has_control(data: bytes) -> bool:
    """True when the batch carries piggybacked control sections."""
    return _layout_field(data, 2, False)


def split_batch(data: bytes) -> List[bytes]:
    """Slice a batch into its embedded legacy frames -- pure byte math.

    Raises:
        BatchError: when the frame is not in the writer's layout, or the
            ``Sizes`` bookkeeping and the ``Rumors`` content disagree (the
            caller falls back to a full XML parse).
    """
    _, _, has_control, sizes, position = _layout(data)
    slices: List[bytes] = []
    for size in sizes:
        if size < 0 or position + size > len(data):
            raise BatchError("Sizes overrun the Rumors content")
        slices.append(data[position : position + size])
        position += size
    if not data.startswith(_RUMORS_CLOSE, position):
        raise BatchError("Sizes do not cover the Rumors content exactly")
    # Sections the ctl flag does not announce would be skipped unread.
    if not has_control and len(data) - position != len(_RUMORS_CLOSE + _SUFFIX):
        raise BatchError("unannounced content after Rumors")
    return slices


def _scan_ids_region(region: bytes) -> List[str]:
    # Every entity reference starts with "&": without one, the text is as read.
    escaped = b"&" in region
    ids: List[str] = []
    position = 0
    while True:
        start = region.find(b"<g:Id>", position)
        if start == -1:
            return ids
        start += len(b"<g:Id>")
        end = region.find(b"</g:Id>", start)
        if end == -1:
            return ids
        text = region[start:end].decode("utf-8")
        ids.append(unescape(text) if escaped else text)
        position = end + len(b"</g:Id>")


#: ``n`` beyond this many digits is not a store size anyone retains.
_SUMMARY_MAX_COUNT_DIGITS = 18
_DECIMAL = frozenset("0123456789")
_HEX = frozenset("0123456789abcdefABCDEF")


def _parse_summary(
    count_text: Optional[str], hash_text: Optional[str]
) -> Optional[Tuple[int, int]]:
    """``(count, hash)`` from the ``n``/``h`` attribute texts, or ``None``
    unless ``n`` is a plain decimal and ``h`` is 1-16 hex digits."""
    if not count_text or len(count_text) > _SUMMARY_MAX_COUNT_DIGITS:
        return None
    if not hash_text or len(hash_text) > 16:
        return None
    # Character sets, not int(): that also takes signs, "_", "0x", spaces
    # and non-ASCII digits.
    if not _DECIMAL.issuperset(count_text) or not _HEX.issuperset(hash_text):
        return None
    return int(count_text), int(hash_text, 16)


def scan_batch_control(data: bytes) -> Optional[BatchControl]:
    """Recover the piggybacked control sections by byte scan (no parse).

    Returns ``None`` when the frame or its control region does not have
    the writer's exact shape (an unknown section, a malformed or repeated
    ``Summary``, undecodable bytes) -- the caller then falls back to a
    full XML parse (``GossipLayer._apply_batch_control``).
    """
    try:
        return _scan_control_tail(data)
    except (BatchError, UnicodeDecodeError):
        return None


def _ids(region: bytes) -> List[str]:
    """An id list exactly as :func:`_ids_xml` writes it."""
    if not region:
        return []
    if not (region.startswith(b"<g:Id>") and region.endswith(b"</g:Id>")):
        raise BatchError("not an id list")
    # Each separator holds two "<"; any other one is markup (CDATA, an
    # element, a comment).  "\r" is normalized by a parser.
    separators = region.count(b"</g:Id><g:Id>")
    if region.count(b"<") != 2 * separators + 2 or b"\r" in region:
        raise BatchError("id list holds markup")
    if b"&" in region and region.count(b"&") != (
        region.count(b"&amp;") + region.count(b"&lt;") + region.count(b"&gt;")
    ):
        raise BatchError("id list uses a foreign reference")
    return _scan_ids_region(region)


def _scan_control_tail(data: bytes) -> Optional[BatchControl]:
    _, _, _, sizes, position = _layout(data)
    position += sum(sizes)
    if not data.startswith(_RUMORS_CLOSE, position) or not data.endswith(_SUFFIX):
        return None
    tail = data[position + len(_RUMORS_CLOSE) : len(data) - len(_SUFFIX)]
    control = BatchControl()
    position = 0
    while position < len(tail):
        if tail.startswith(b'<g:Ads hops="', position):
            start = position + len(b'<g:Ads hops="')
            tag_end = tail.find(b'">', start)
            close = tail.find(b"</g:Ads>", start)
            if tag_end == -1 or close == -1 or not tail[start:tag_end].isdigit():
                return None
            hops = int(tail[start:tag_end])
            control.ads.append((_ids(tail[tag_end + 2 : close]), hops))
            position = close + len(b"</g:Ads>")
        elif tail.startswith(b"<g:Feedback>", position):
            close = tail.find(b"</g:Feedback>", position)
            if close == -1:
                return None
            control.feedback.extend(_ids(tail[position + len(b"<g:Feedback>") : close]))
            position = close + len(b"</g:Feedback>")
        elif tail.startswith(b'<g:Digest kind="', position):
            start = position + len(b'<g:Digest kind="')
            tag_end = tail.find(b'">', start)
            close = tail.find(b"</g:Digest>", start)
            if tag_end == -1 or close == -1:
                return None
            kind = _attr_text(tail[start:tag_end])
            control.digest = (_ids(tail[tag_end + 2 : close]), kind)
            position = close + len(b"</g:Digest>")
        elif tail.startswith(b'<g:Summary n="', position):
            start = position + len(b'<g:Summary n="')
            middle = tail.find(b'" h="', start)
            tag_end = tail.find(b'"/>', start)
            if middle == -1 or tag_end < middle or control.summary is not None:
                return None
            control.summary = _parse_summary(
                _attr_text(tail[start:middle]),
                _attr_text(tail[middle + len(b'" h="') : tag_end]),
            )
            if control.summary is None:
                return None
            position = tag_end + len(b'"/>')
        else:
            return None
    return control


# -- the parsed-XML fallback (malformed splits, foreign serializers) ----------


def _ids_from_element(element: ET.Element) -> List[str]:
    return [child.text or "" for child in element if child.tag == _ID_TAG]


def control_from_element(batch_element: ET.Element) -> BatchControl:
    """Recover the control sections from a parsed ``GossipBatch`` element.

    Unknown sections are skipped; a ``Summary`` counts only when it is the
    only one and well formed (otherwise the frame carries no summary).
    """
    control = BatchControl()
    summaries = []
    for child in batch_element:
        if child.tag == _ADS_TAG:
            try:
                hops = int(child.get("hops", "0"))
            except ValueError:
                hops = 0
            control.ads.append((_ids_from_element(child), hops))
        elif child.tag == _FEEDBACK_TAG:
            control.feedback.extend(_ids_from_element(child))
        elif child.tag == _DIGEST_TAG:
            kind = child.get("kind", "req")
            control.digest = (_ids_from_element(child), kind)
        elif child.tag == _SUMMARY_TAG:
            summaries.append(child)
    if len(summaries) == 1:
        control.summary = _parse_summary(summaries[0].get("n"), summaries[0].get("h"))
    return control


def frames_from_element(batch_element: ET.Element) -> List[bytes]:
    """Recover the embedded frames from a parsed ``GossipBatch`` element
    by re-serializing each child of ``Rumors`` (the slow, robust path)."""
    rumors = batch_element.find(_RUMORS_TAG)
    if rumors is None:
        return []
    return [canonical_bytes(child) for child in rumors]
