"""The zero-copy wire fast path: shared fan-out buffers and pre-parse dedup.

Covers the legs of the optimization:

* a publication / forward encodes exactly one payload and every target
  receives the *same* ``bytes`` object (byte identity, not just equality);
* ``scan_gossip_message_id`` extracts the gossip id from raw wire bytes
  without parsing, and never misfires on non-gossip traffic;
* the runtime's pre-parse gate consumes duplicates before the XML parse,
  with the same observable protocol behaviour as the post-parse branch;
* a forward's hop splice equals parse -> decrement -> serialize, or bails.
"""

import random
import re
import xml.etree.ElementTree as ET
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import GossipEngine
from repro.core.message import (
    GOSSIP_HEADER_TAG,
    GossipHeader,
    GossipStyle,
    TraceContext,
    new_gossip_message_id,
    scan_gossip_message_id,
    splice_forward,
    splice_hops,
)
from repro.core.params import GossipParams
from repro.obs.hub import default_hub
from repro.soap import namespaces as ns
from repro.soap.envelope import Envelope
from repro.soap.runtime import SoapRuntime
from repro.xmlutil import canonical_bytes
from repro.wsa.addressing import AddressingHeaders, EndpointReference
from repro.wscoord.context import CoordinationContext

# Reset around every test by the shared autouse fixture in conftest.py.
WIRE_STATS = default_hub().wire

from tests.core.test_engine import FakeScheduler, make_context, make_gossip_envelope


class RecordingTransport:
    """Captures the exact payload objects handed to the wire."""

    def __init__(self):
        self.sent = []

    def send(self, address, data):
        self.sent.append((address, data))


@pytest.fixture
def recording_engine():
    transport = RecordingTransport()
    runtime = SoapRuntime("test://node", transport)
    scheduler = FakeScheduler()
    engine = GossipEngine(
        runtime=runtime,
        scheduler=scheduler,
        context=make_context(),
        app_address="test://node/app",
        params=GossipParams(fanout=3, rounds=4),
        rng=random.Random(7),
    )
    engine.registered = True
    engine.view = [f"test://peer{index}/app" for index in range(8)]
    return transport, runtime, engine


# -- shared-buffer fan-out ----------------------------------------------------


def test_publish_fanout_shares_one_buffer(recording_engine):
    transport, runtime, engine = recording_engine
    default_hub().reset()
    engine.publish("urn:app/Event", {"price": 42})
    engine.scheduler.flush()
    payloads = [data for _address, data in transport.sent]
    assert len(payloads) == engine.params.fanout
    assert all(data is payloads[0] for data in payloads)
    # One encode serves the whole fan-out.
    assert WIRE_STATS.serialize_count.value == 1


def test_forward_fanout_shares_one_buffer(recording_engine):
    transport, runtime, engine = recording_engine
    envelope, header = make_gossip_envelope(hops=3)
    engine.on_gossip(envelope, header, source=None)
    engine.scheduler.flush()
    payloads = [data for _address, data in transport.sent]
    assert len(payloads) == engine.params.fanout
    assert all(data is payloads[0] for data in payloads)
    assert runtime.metrics.counter("soap.sent-shared").value == len(payloads)


def test_forwarded_buffer_carries_decremented_hops(recording_engine):
    transport, _runtime, engine = recording_engine
    envelope, header = make_gossip_envelope(hops=3)
    engine.on_gossip(envelope, header, source=None)
    engine.scheduler.flush()
    _, data = transport.sent[0]
    parsed = GossipHeader.from_envelope(Envelope.from_bytes(data))
    assert parsed.hops == 2


# -- the byte scan ------------------------------------------------------------


def test_scan_finds_gossip_message_id():
    envelope, header = make_gossip_envelope(message_id=new_gossip_message_id())
    assert scan_gossip_message_id(envelope.to_bytes()) == header.message_id


def test_scan_ignores_non_gossip_envelopes():
    envelope = Envelope()
    AddressingHeaders(
        to="test://node/app", action="urn:app/Event", message_id="urn:uuid:y"
    ).apply(envelope)
    assert scan_gossip_message_id(envelope.to_bytes()) is None
    assert scan_gossip_message_id(b"not xml at all") is None


def test_scan_ignores_gossip_ids_in_payload_text():
    # A gossip-id *mentioned* in application data must not trigger the
    # gate: the scan is anchored on the Gossip header's MessageId element.
    import xml.etree.ElementTree as ET

    body = ET.Element("{urn:test}op")
    body.text = "urn:ws-gossip:msg:someone-elses-id"
    envelope = Envelope(body=body)
    assert scan_gossip_message_id(envelope.to_bytes()) is None


# -- the pre-parse gate -------------------------------------------------------


def _install_layer(runtime, engine):
    from repro.core.handler import GossipLayer

    layer = GossipLayer(
        runtime,
        engine.scheduler,
        "test://node/app",
        rng=random.Random(3),
        default_params=engine.params,
    )
    layer._engines[engine.activity_id] = engine
    runtime.chain.add(layer)
    return layer


def test_preparse_gate_drops_known_duplicates(recording_engine):
    transport, runtime, engine = recording_engine
    _install_layer(runtime, engine)

    envelope, header = make_gossip_envelope(message_id=new_gossip_message_id())
    data = envelope.to_bytes()

    default_hub().reset()
    runtime.receive(data, source="test://peer0/app")  # fresh: full parse
    assert WIRE_STATS.parse_count.value >= 1
    duplicates_before = runtime.metrics.counter("gossip.duplicate").value

    parses_after_first = WIRE_STATS.parse_count.value
    runtime.receive(data, source="test://peer1/app")  # duplicate: gate drops
    assert WIRE_STATS.parse_count.value == parses_after_first  # no second parse
    assert WIRE_STATS.dedup_preparse_hits.value == 1
    assert runtime.metrics.counter("soap.preparse-dropped").value == 1
    # Same observable accounting as the post-parse duplicate branch.
    assert runtime.metrics.counter("gossip.duplicate").value == duplicates_before + 1


def test_preparse_gate_passes_unknown_messages(recording_engine):
    transport, runtime, engine = recording_engine
    _install_layer(runtime, engine)
    envelope, _header = make_gossip_envelope(message_id=new_gossip_message_id())
    default_hub().reset()
    runtime.receive(envelope.to_bytes(), source=None)
    assert WIRE_STATS.dedup_preparse_hits.value == 0
    assert WIRE_STATS.parse_count.value >= 1


def test_preparse_gate_ignores_gossip_ids_in_application_bodies(recording_engine):
    # A non-gossip envelope whose *body* holds an id-shaped MessageId
    # element naming a rumor the engine knows must still reach its service:
    # only the header's Gossip block gives a frame its gossip identity.
    from repro.soap.service import Service

    transport, runtime, engine = recording_engine
    _install_layer(runtime, engine)
    gossip, header = make_gossip_envelope(message_id=new_gossip_message_id())
    runtime.receive(gossip.to_bytes(), source=None)
    assert header.message_id in engine.store

    received = []
    service = Service()
    service.add_operation("urn:app/Order", lambda context, value: received.append(context))
    runtime.add_service("/app", service)
    body = ET.Element("{urn:example:app}Order")
    ET.SubElement(body, f"{{{ns.WSGOSSIP}}}MessageId").text = header.message_id
    envelope = Envelope(body=body)
    AddressingHeaders(
        to="test://node/app", action="urn:app/Order", message_id="urn:uuid:z"
    ).apply(envelope)
    data = envelope.to_bytes()
    assert b":MessageId>" + header.message_id.encode("ascii") in data

    dedup = default_hub().wire.dedup_preparse_hits
    before = dedup.value
    runtime.receive(data, source="test://peer0/app")
    assert dedup.value == before
    assert len(received) == 1
    assert scan_gossip_message_id(data) is None


# -- end-to-end ---------------------------------------------------------------


def test_simulated_run_exercises_fast_path():
    from repro import GossipConfig

    default_hub().reset()
    group = GossipConfig(
        n_disseminators=11,
        seed=3,
        params={"fanout": 3, "rounds": 5, "peer_sample_size": 8},
        auto_tune=False,
    ).build()
    group.setup(settle=1.0)
    message_id = group.publish({"tick": 1})
    group.run_for(5.0)

    assert group.delivered_fraction(message_id) == 1.0
    stats = WIRE_STATS.snapshot()
    counts = group.message_counts()
    # Every gossip copy rides the shared-buffer path, one single-rumor
    # frame per target copy (a push-only group never sends a batch) ...
    assert counts["soap.sent-shared"] == counts["batch.legacy_singletons"]
    assert counts.get("batch.batches_sent", 0) == 0
    # ... fanning each encode out to multiple targets (more copies sent
    # than gossip hops that could have encoded) ...
    assert counts["soap.sent-shared"] > counts["gossip.publish"] + counts["gossip.fresh"]
    assert stats["serialize_reused"] > 0
    # ... and duplicates die before the parser sees them.
    assert stats["dedup_preparse_hits"] > 0
    assert counts["soap.preparse-dropped"] == stats["dedup_preparse_hits"]
    assert counts["wire.dedup_preparse_hits"] == stats["dedup_preparse_hits"]


# -- the forward splices against parse -> decrement -> serialize ---------------
#
# A frame a foreign SOAP stack wrote (other prefixes, local namespace
# declarations, comments, CDATA, whitespace, a ``Hops`` element somewhere
# other than the Gossip header, attributes in another order) must splice
# to what the slow path yields, or not splice at all.

OTHER = "urn:example:other"
# No digits: the prefix renaming below rewrites ``ns<digits>`` runs.
TEXT = st.text(st.sampled_from("abcxyz -_.:/&<>\"'é\t"), min_size=1, max_size=10)
SLOT = "SLOT"


def header_block(kind):
    """A header block that is not the Gossip header but looks like one."""
    block = ET.Element(f"{{{OTHER}}}Info")
    if kind == "other-hops":
        ET.SubElement(block, f"{{{OTHER}}}Hops").text = "7"
    elif kind == "gossip-hops":
        ET.SubElement(block, f"{{{ns.WSGOSSIP}}}Hops").text = "7"
    elif kind == "nested-gossip":
        decoy = GossipHeader(activity="a", message_id="m", origin="o", hops=99)
        block.append(decoy.to_element())
    else:
        block.text = SLOT
    return block


@st.composite
def frames(draw):
    header = GossipHeader(
        activity=draw(TEXT),
        message_id="urn:ws-gossip:msg:" + draw(TEXT),
        origin=draw(TEXT),
        hops=draw(st.integers(1, 120)),
        style=draw(st.sampled_from(list(GossipStyle))),
        sequence=draw(st.none() | st.integers(0, 99)),
        trace=draw(
            st.none()
            | st.builds(
                TraceContext,
                origin=TEXT,
                publish_ts=st.floats(0, 1e6),
                path=st.integers(0, 60),
                sampled=st.booleans(),
            )
        ),
    )
    kinds = st.sampled_from(["other-hops", "gossip-hops", "nested-gossip", "plain"])
    body = ET.Element("{urn:app}Event")
    body.text = SLOT
    for tag_ns in draw(st.lists(st.sampled_from([OTHER, ns.WSGOSSIP]), max_size=2)):
        ET.SubElement(body, f"{{{tag_ns}}}Hops").text = "3"
    envelope = Envelope(body=body)
    for kind in draw(st.lists(kinds, max_size=2)):
        envelope.add_header(header_block(kind))
    envelope.add_header(header.to_element())
    for kind in draw(st.lists(kinds, max_size=2)):
        envelope.add_header(header_block(kind))
    return foreign(envelope.to_bytes(), draw)


def foreign(data, draw):
    """Rewrite our writer's bytes the ways another stack might write them."""
    if draw(st.booleans()):  # other prefixes, consistently renamed
        names = draw(
            st.permutations(["soap", "g", "wsa", "x", "a.b", "_q", "s-1", "n", "ns", "y"])
        )
        data = re.sub(
            rb"(?<![\w.-])ns(\d)(?=[:=])",
            lambda m: names[int(m.group(1))].encode(),
            data,
        )
    slot = draw(
        st.sampled_from(
            [
                SLOT,
                "<![CDATA[<g:Hops>1</g:Hops>]]>",
                "<!-- <g:Hops>1</g:Hops> -->" + SLOT,
                "<?pi <g:Hops>1</g:Hops>?>",
            ]
        )
    )
    data = data.replace(SLOT.encode(), slot.encode())
    if draw(st.booleans()):  # pretty-printed header
        data = re.sub(rb"(:Header>)(?=<)", rb"\1\n  ", data, count=1)
    if draw(st.booleans()):  # a namespace declared where it is used
        data = re.sub(
            rb"(<[\w.-]+:Info)(?=[ >])", rb'\1 xmlns:zz="urn:zz"', data, count=1
        )
    trace = re.search(rb"(<[\w.-]+:Trace) ([^>]*)>", data)
    if trace is not None:  # attributes in another order
        attributes = re.findall(rb'[\w.:-]+="[^"]*"', trace.group(2))
        order = draw(st.permutations(attributes))
        data = (
            data[: trace.start(2)] + b" ".join(order) + data[trace.end(2) :]
        )
    return data


def normalized(data):
    """The envelope as a receiver sees it, Gossip header position aside."""
    envelope = Envelope.from_bytes(data)
    return (
        GossipHeader.from_envelope(envelope),
        [canonical_bytes(h) for h in envelope.headers if h.tag != GOSSIP_HEADER_TAG],
        canonical_bytes(envelope.body),
    )


def slow_path(data, hops, path=None):
    envelope = Envelope.from_bytes(data)
    header = GossipHeader.from_envelope(envelope)
    trace = header.trace if path is None else replace(header.trace, path=path)
    replace(header, hops=hops, trace=trace).replace_in(envelope)
    return normalized(envelope.to_bytes())


@settings(max_examples=300, deadline=None)
@given(data=frames(), hops=st.integers(0, 500), path=st.integers(0, 500))
def test_splices_equal_the_slow_path_or_bail(data, hops, path):
    spliced = splice_hops(data, hops)
    assert spliced is None or normalized(spliced) == slow_path(data, hops)
    spliced = splice_forward(data, hops, path)
    if GossipHeader.from_envelope(Envelope.from_bytes(data)).trace is None:
        assert spliced is None
    else:
        assert spliced is None or normalized(spliced) == slow_path(data, hops, path)


def decoyed_frame(trace=None):
    """A ``Hops`` in a header block ahead of the Gossip header, one in the
    body, other prefixes and a pretty-printed header: all still ours to
    splice."""
    header = GossipHeader(
        activity="urn:act", message_id="urn:ws-gossip:msg:m1", origin="o",
        hops=5, trace=trace,
    )
    body = ET.Element("{urn:app}Event")
    ET.SubElement(body, f"{{{OTHER}}}Hops").text = "3"
    envelope = Envelope(body=body)
    envelope.add_header(header_block("other-hops"))
    envelope.add_header(header.to_element())
    data = envelope.to_bytes()
    for prefix, uri in re.findall(rb'xmlns:(ns\d)="([^"]*)"', data):
        name = {ns.SOAP11_ENV: b"s", ns.WSGOSSIP: b"g"}.get(uri.decode(), prefix + b"x")
        data = re.sub(rb"(?<![\w.-])%s(?=[:=])" % prefix, name, data)
    return data.replace(b"<s:Header><", b"<s:Header>\n  <", 1)


def test_misplaced_hops_is_not_the_one_spliced():
    data = decoyed_frame()
    spliced = splice_hops(data, 4)
    assert spliced is not None
    assert normalized(spliced) == slow_path(data, 4)
    assert GossipHeader.from_envelope(Envelope.from_bytes(spliced)).hops == 4
    assert spliced.count(b"Hops>7<") == 1  # the decoy is untouched


def test_traced_decoyed_frame_splices_both_counters():
    trace = TraceContext(origin="o", publish_ts=1.5, path=2)
    data = decoyed_frame(trace)
    spliced = splice_forward(data, 4, 3)
    assert spliced is not None
    assert normalized(spliced) == slow_path(data, 4, 3)


GOSSIP_BINDING = b'xmlns:g="urn:ws-gossip:2008:core"'


@pytest.mark.parametrize(
    "old, new",
    [
        (b"<g:Gossip>", b"<!-- x --><g:Gossip>"),
        (b"<g:Gossip>", b'<g:Gossip xmlns:g="urn:ws-gossip:2008:core">'),
        (b"<g:Hops>5", b"<g:Hops><![CDATA[5]]>"),
        (b"<g:Hops>5", b'<g:Hops a="1">5'),
        (GOSSIP_BINDING, GOSSIP_BINDING + b' xmlns:h="urn:ws-gossip:2008:core"'),
        (GOSSIP_BINDING, b'xmlns:g="urn:ws-gossip:2008&#58;core"'),
        (b"\n  <", b"<s:Header></s:Header><"),  # a Header nested in the header
    ],
)
def test_shapes_the_splice_cannot_vouch_for_bail(old, new):
    data = decoyed_frame()
    assert data.count(old) == 1
    mutated = data.replace(old, new)
    assert mutated != data
    Envelope.from_bytes(mutated)  # still a well-formed envelope
    assert splice_hops(mutated, 4) is None
