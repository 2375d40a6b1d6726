"""The shared decode of a cached frame (``DecodedFrame`` in soap/envelope.py).

Every receiver of equal wire bytes reads its WS-Addressing and ``Gossip``
headers from one decode the parse cache keeps.  These tests pin what that
sharing may not change: a mutated envelope reads its own headers, a
receiver's ``AddressingHeaders`` is its own to mutate, a malformed header
is never stored, and an object that only looks like an envelope decodes
as before.
"""

import xml.etree.ElementTree as ET

import pytest

from repro.core.message import GOSSIP_HEADER_TAG, GossipHeader, TraceContext
from repro.soap import namespaces as ns
from repro.soap.envelope import UNDECODED, Envelope, clear_parse_cache
from repro.wsa.addressing import AddressingHeaders, EndpointReference
from repro.xmlutil import qname

FROM = qname(ns.WSA, "From")
TO = qname(ns.WSA, "To")
HEADER = GossipHeader(
    activity="urn:act",
    message_id="urn:ws-gossip:msg:shared",
    origin="sim://origin/app",
    hops=5,
    trace=TraceContext(origin="sim://origin/app", publish_ts=1.5),
)


@pytest.fixture(autouse=True)
def _empty_parse_cache():
    clear_parse_cache()
    yield
    clear_parse_cache()


def frame(gossip=True, sender=True, message_id="urn:uuid:1"):
    """Wire bytes of a gossip-shaped envelope."""
    body = ET.Element("{urn:app}Event")
    body.text = "payload"
    envelope = Envelope(body=body)
    AddressingHeaders(
        to="sim://node/app",
        action="urn:app/Event",
        message_id=message_id,
        from_=EndpointReference("sim://origin/app") if sender else None,
    ).apply(envelope)
    if gossip:
        HEADER.replace_in(envelope)
    return envelope.to_bytes()


def test_a_first_receiver_keeps_the_decode_it_stores():
    first = Envelope.from_bytes(frame())
    assert first.decoded is not None
    header = GossipHeader.from_envelope(first)
    assert header == HEADER
    second = Envelope.from_bytes(frame())
    assert second.decoded is first.decoded
    assert GossipHeader.from_envelope(second) is header


def test_request_and_reply_frames_get_no_decode():
    envelope = Envelope(body=ET.Element("{urn:app}Op"))
    AddressingHeaders(
        to="sim://node/app", message_id="urn:uuid:2", relates_to="urn:uuid:1"
    ).apply(envelope)
    assert Envelope.from_bytes(envelope.to_bytes()).decoded is None


def _add(envelope):
    envelope.add_header(HEADER.to_element())
    envelope.add_header(EndpointReference("sim://added/app").to_element(FROM))


def _remove(envelope):
    envelope.remove_header(GOSSIP_HEADER_TAG)
    envelope.remove_header(FROM)


def _drop_in_place(envelope):
    for block in list(envelope.headers):
        if block.tag in (GOSSIP_HEADER_TAG, FROM):
            envelope.headers.remove(block)


def _set_body(envelope):
    _drop_in_place(envelope)
    envelope.body = ET.Element("{urn:app}Other")


def _set_headers(envelope):
    envelope.headers = [
        block for block in envelope.headers if block.tag not in (GOSSIP_HEADER_TAG, FROM)
    ]


def _invalidate(envelope):
    _drop_in_place(envelope)
    envelope.invalidate()


def _rewrite(envelope):
    HEADER.decremented().replace_in(envelope)
    addressing = AddressingHeaders.extract(envelope)
    addressing.to = "sim://elsewhere/app"
    addressing.apply(envelope)


# (mutation, whether the frame starts with the Gossip and From headers)
MUTATIONS = {
    "add_header": (_add, False),
    "remove_header": (_remove, True),
    "body setter": (_set_body, True),
    "headers setter": (_set_headers, True),
    "invalidate": (_invalidate, True),
    "replace_in and apply": (_rewrite, True),
}


def own_decode(envelope):
    """The headers as an envelope without a shared decode reads them."""
    copy = Envelope(body=envelope.body, headers=envelope.headers, version=envelope.version)
    assert copy.decoded is None
    return AddressingHeaders.extract(copy), GossipHeader.from_envelope(copy)


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_a_mutated_envelope_reads_its_own_headers(name):
    mutate, full = MUTATIONS[name]
    data = frame(gossip=full, sender=full)
    envelope = Envelope.from_bytes(data)
    shared = envelope.decoded
    before = (AddressingHeaders.extract(envelope), GossipHeader.from_envelope(envelope))
    mutate(envelope)
    assert envelope.decoded is None
    after = (AddressingHeaders.extract(envelope), GossipHeader.from_envelope(envelope))
    assert after == own_decode(envelope)
    assert after != before
    # The shared decode still describes the bytes, for the next receiver.
    assert (shared.addressing, shared.gossip) == before
    assert Envelope.from_bytes(data).decoded is shared


def test_each_arrival_gets_its_own_addressing_headers():
    data = frame()
    first = Envelope.from_bytes(data)
    second = Envelope.from_bytes(data)
    mine = AddressingHeaders.extract(first)
    theirs = AddressingHeaders.extract(second)
    assert mine == theirs
    assert mine is not theirs
    assert mine is not first.decoded.addressing
    mine.to = "sim://forwarded/app"
    mine.message_id = "urn:uuid:fresh"
    mine.reply_to = EndpointReference("sim://reply/app")
    assert theirs.to == "sim://node/app"
    assert first.decoded.addressing.to == "sim://node/app"
    assert first.decoded.addressing.reply_to is None
    assert AddressingHeaders.extract(first) == theirs


def test_a_malformed_gossip_header_raises_on_every_call():
    envelope = Envelope.from_bytes(frame(gossip=False))
    envelope.add_header(ET.Element(GOSSIP_HEADER_TAG))  # no children
    data = envelope.to_bytes()
    for _ in range(3):
        received = Envelope.from_bytes(data)
        assert received.decoded is not None
        with pytest.raises(ValueError):
            GossipHeader.from_envelope(received)
        assert received.decoded.gossip is UNDECODED


class LooksLikeAnEnvelope:
    """Answers header lookups the way :class:`Envelope` does, and has no
    shared decode."""

    def __init__(self, blocks):
        self.blocks = blocks

    def header(self, tag):
        return next((block for block in self.blocks if block.tag == tag), None)

    def header_text(self, tag):
        block = self.header(tag)
        return block.text if block is not None else None


def test_a_duck_typed_envelope_decodes_its_own_headers():
    parsed = Envelope.from_bytes(frame())
    duck = LooksLikeAnEnvelope(list(parsed.headers))
    addressing = AddressingHeaders.extract(duck)
    assert addressing == AddressingHeaders.extract(parsed)
    assert GossipHeader.from_envelope(duck) == HEADER
    duck.blocks = [block for block in duck.blocks if block.tag != TO]
    assert AddressingHeaders.extract(duck).to is None
