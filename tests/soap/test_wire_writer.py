"""The direct envelope writer behind ``SoapRuntime.send`` is held against
the tree path it replaces: same arguments, same bytes.

The oracle is ElementTree's own file writer (``ElementTree.write`` with
``encoding="utf-8", xml_declaration=True``) over ``to_element`` +
``Envelope`` + ``AddressingHeaders.apply`` -- what every originated
message was serialized with before the writer existed -- so
``canonical_bytes`` is itself under test here, not trusted.
"""

from __future__ import annotations

import io
import itertools
import re
import uuid
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import GossipConfig
from repro.obs.hub import default_hub
from repro.simnet.network import Network
from repro.soap import namespaces as ns
from repro.soap.envelope import Envelope
from repro.soap.handler import Handler
from repro.soap.runtime import SoapRuntime, originated_bytes
from repro.soap.serializer import SerializationError, from_element, to_element
from repro.wsa.addressing import AddressingHeaders, EndpointReference
from repro.xmlutil import canonical_bytes, qname
from repro.xmlutil.text import PrefixMap, TreeOnly

XSI = "http://www.w3.org/2001/XMLSchema-instance"
ILLEGAL = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]")


def et_write(root: ET.Element) -> bytes:
    buffer = io.BytesIO()
    ET.ElementTree(root).write(buffer, encoding="utf-8", xml_declaration=True)
    return buffer.getvalue()


def tree_bytes(addressing, reference_parameters, body, extra_headers=()) -> bytes:
    """The tree path: what ``send`` emitted before the direct writer."""
    envelope = Envelope(body=body)
    for key, text in sorted(reference_parameters.items()):
        element = ET.Element(qname(ns.WSGOSSIP, key))
        element.text = text
        envelope.add_header(element)
    for element in extra_headers:
        envelope.add_header(element)
    addressing.apply(envelope)
    return et_write(envelope.to_element())


# -- strategies -------------------------------------------------------------

# Characters that exercise every escape, next to arbitrary ones.
special = st.sampled_from(list("&<>\"'\r\n\t ;#]") + ["\U0001f600", "é"])
no_surrogates = st.characters(blacklist_categories=("Cs",))
#: Anything a str payload may hold (illegal-in-XML characters included).
any_text = st.text(st.one_of(no_surrogates, special), max_size=20)
#: What an XML parser accepts: map keys, addresses, actions.
legal_text = st.text(
    st.one_of(no_surrogates.filter(lambda c: not ILLEGAL.match(c)), special),
    max_size=20,
)

payloads = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | any_text
    | st.sampled_from(["", "\r", "a\x00b", "\x0b", "\ufffe", "\x1f\r\n"])
    | st.binary(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(legal_text, children, max_size=4),
    max_leaves=20,
)

xml_names = st.from_regex(r"[A-Za-z][A-Za-z0-9]{0,6}", fullmatch=True)
reference_parameters = st.dictionaries(xml_names, legal_text, max_size=3)
eprs = st.builds(EndpointReference, legal_text, reference_parameters)

addressings = st.builds(
    AddressingHeaders,
    to=st.none() | legal_text,
    action=st.none() | legal_text,
    message_id=st.none() | legal_text,
    relates_to=st.none() | legal_text,
    reply_to=st.none() | eprs,
    from_=st.none() | eprs,
)

DIRECT_TAGS = [
    "Payload",  # no namespace
    qname(ns.WSGOSSIP, "Pull"),
    qname("urn:example:foreign?a=1&b=\"2\"", "Op"),  # URI needing escapes
    qname(ns.WSA, "Echo"),  # shares the header's prefix
    qname(ns.PAYLOAD, "item"),  # shares the payload's prefix
]
TREE_ONLY_TAGS = [qname(XSI, "Thing"), qname("http://schemas.xmlsoap.org/wsdl/", "x")]


def normalized(value):
    """What a value reads back as: tuples are lists on the wire."""
    if isinstance(value, (list, tuple)):
        return [normalized(item) for item in value]
    if isinstance(value, dict):
        return {key: normalized(item) for key, item in value.items()}
    return value


# -- the writer against the tree path ---------------------------------------------


@settings(max_examples=300, deadline=None)
@given(addressings, reference_parameters, st.sampled_from(DIRECT_TAGS), payloads)
def test_direct_bytes_equal_tree_bytes(addressing, parameters, tag, value):
    data = originated_bytes(addressing, parameters, tag, value)
    assert data == tree_bytes(addressing, parameters, to_element(tag, value))
    # ... and they are a message: parse, then read the same value back.
    assert from_element(Envelope.from_bytes(data).body) == normalized(value)


@given(addressings, st.sampled_from(TREE_ONLY_TAGS), payloads)
def test_well_known_prefix_namespace_is_left_to_the_tree(addressing, tag, value):
    assert originated_bytes(addressing, {}, tag, value) is None


def test_registered_namespace_is_left_to_the_tree():
    uri = "urn:test:registered-by-test-wire-writer"
    tag = qname(uri, "Op")
    assert originated_bytes(AddressingHeaders(to="x"), {}, tag, 1) is not None
    ET.register_namespace("reg", uri)
    try:
        assert originated_bytes(AddressingHeaders(to="x"), {}, tag, 1) is None
        # Any namespace in play, not only the body's.
        ET.register_namespace("soapenv", ns.SOAP11_ENV)
        assert originated_bytes(AddressingHeaders(to="x"), {}, "Payload", 1) is None
    finally:
        del ET._namespace_map[uri]
        ET._namespace_map.pop(ns.SOAP11_ENV, None)


def test_eleventh_namespace_is_left_to_the_tree():
    # ElementTree sorts declarations by prefix string: ns10 before ns2.
    names = PrefixMap()
    assert [names.prefix(f"urn:{i}") for i in range(10)] == [f"ns{i}" for i in range(10)]
    assert names.prefix("urn:3") == "ns3"
    with pytest.raises(TreeOnly):
        names.prefix("urn:10")


@pytest.mark.parametrize(
    "value",
    [
        "lone \ud800 surrogate",
        ["nested", {"k": "\udfff"}],
        {"bad\x00key": 1},
        {"bad\ufffekey": 1},
        {"sur\ud800key": 1},
        {1: "non-str key"},
        object(),
        {"deep": [object()]},
    ],
)
def test_both_encoders_reject_the_same_values(value):
    with pytest.raises(SerializationError):
        to_element("Payload", value)
    with pytest.raises(SerializationError):
        originated_bytes(AddressingHeaders(to="x"), {}, "Payload", value)


# -- send(): both routes, same invariants -------------------------------------------


class RecordingTransport:
    def __init__(self):
        self.frames = []
        self.pending_at_send = []
        self.runtime = None

    def send(self, *args, **kwargs):
        assert not kwargs, "transport.send must be called positionally"
        destination, data = args
        self.pending_at_send.append(self.runtime.pending_replies)
        self.frames.append((destination, data))


class Stamp(Handler):
    """Overrides ``on_outbound``: the runtime must build an envelope for it."""

    def on_outbound(self, context):
        context.envelope.add_header(ET.Element("{urn:test}Stamp"))
        return True


def make_runtime(handler=None):
    transport = RecordingTransport()
    runtime = SoapRuntime("sim://n1", transport)
    transport.runtime = runtime
    if handler is not None:
        runtime.chain.add(handler)
    return runtime, transport


def reference_for(runtime, message_id, to, action, value=None, tag=None,
                  reply_to_path=None, relates_to=None, extra_headers=(),
                  on_reply=None, stamped=False):
    """Tree-path bytes for one ``send`` call that returned ``message_id``."""
    if isinstance(to, EndpointReference):
        destination, parameters = to.address, to.reference_parameters
    else:
        destination, parameters = to, {}
    addressing = AddressingHeaders(
        to=destination, action=action, message_id=message_id, relates_to=relates_to
    )
    if on_reply is not None or reply_to_path is not None:
        addressing.reply_to = runtime.epr(reply_to_path or "/replies")
    if isinstance(value, ET.Element):
        body = value
    else:
        # Without a tag the action names the body: ``ns/Local`` -> ``{ns}Local``.
        body = to_element(tag or qname(*action.rpartition("/")[::2]), value)
    headers = list(extra_headers or ())
    if stamped:
        headers.append(ET.Element("{urn:test}Stamp"))
    return destination, tree_bytes(addressing, parameters, body, headers)


ACTION = f"{ns.WSGOSSIP}/Pull"
ROUTES = {
    "direct": dict(value={"digest": ["a", "b"], "n": 1}),
    "direct-epr": dict(value=[1.5, None]),
    "prebuilt-body": dict(value=to_element("{urn:app}Ctx", {"k": "v"})),
    "extra-headers": dict(value="x", extra_headers=[ET.Element("{urn:app}H")]),
    "well-known-namespace": dict(value={"a": [1]}, tag=qname(XSI, "nil")),
    "outbound-handler": dict(value={"a": [1]}),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_send_invariants_hold_on_every_route(route, monkeypatch):
    kwargs = dict(ROUTES[route])
    stamped = route == "outbound-handler"
    runtime, transport = make_runtime(Stamp() if stamped else None)
    to = (
        EndpointReference("sim://n2/app", {"ctx": "c&1", "alpha": ""})
        if route == "direct-epr"
        else "sim://n2/gossip"
    )
    draws = itertools.count(1)
    drawn = []

    def counted_uuid4():
        drawn.append(next(draws))
        return uuid.UUID(int=drawn[-1])

    monkeypatch.setattr(uuid, "uuid4", counted_uuid4)
    wire = default_hub().wire
    before = (wire.serialize_count.value, runtime.metrics.counter("soap.sent").value)

    message_id = runtime.send(
        to, ACTION, relates_to="urn:uuid:earlier", on_reply=lambda c, v: None, **kwargs
    )

    assert drawn == [1] and message_id == f"urn:uuid:{uuid.UUID(int=1)}"
    assert transport.pending_at_send == [1], "callback registered before the transport ran"
    assert wire.serialize_count.value == before[0] + 1
    assert runtime.metrics.counter("soap.sent").value == before[1] + 1
    assert transport.frames == [
        reference_for(
            runtime, message_id, to, ACTION, relates_to="urn:uuid:earlier",
            on_reply=True, stamped=stamped, **kwargs
        )
    ]


def test_failed_serialization_sends_nothing_and_leaves_no_callback():
    runtime, transport = make_runtime()
    with pytest.raises(SerializationError):
        runtime.send("sim://n2/x", ACTION, value={"k": object()}, on_reply=lambda c, v: None)
    assert transport.frames == [] and runtime.pending_replies == 0


@settings(max_examples=150, deadline=None)
@given(
    to=legal_text | eprs,
    action=legal_text,
    value=payloads,
    tag=st.sampled_from(DIRECT_TAGS + TREE_ONLY_TAGS),
    relates_to=st.none() | legal_text,
    reply_to_path=st.none() | st.just("/inbox"),
)
def test_send_emits_tree_bytes_for_any_arguments(to, action, value, tag, relates_to, reply_to_path):
    runtime, transport = make_runtime()
    kwargs = dict(value=value, tag=tag, relates_to=relates_to, reply_to_path=reply_to_path)
    message_id = runtime.send(to, action, **kwargs)
    assert transport.frames == [reference_for(runtime, message_id, to, action, **kwargs)]


# -- one seeded whole-system run ----------------------------------------------------


def test_every_originated_frame_of_a_lossy_lazy_push_run_equals_tree_path(monkeypatch):
    # Lazy push still originates SOAP requests: every fetch is a Fetch.
    group = GossipConfig(
        n_disseminators=39,
        seed=17,
        loss_rate=0.1,
        params={"style": "lazy-push", "fanout": 3, "rounds": 4, "period": 0.5},
    ).build()
    sending = []  # stack of frame lists, one per send() in progress
    checked = []
    real_send, real_network_send = SoapRuntime.send, Network.send

    def checking_send(self, to, action, **kwargs):
        sending.append([])
        try:
            message_id = real_send(self, to, action, **kwargs)
        finally:
            frames = sending.pop()
        destination, expected = reference_for(self, message_id, to, action, **kwargs)
        assert frames == [expected], (action, kwargs)
        checked.append(action)
        return message_id

    def recording_network_send(self, source, destination, payload, size=0):
        if sending:
            sending[-1].append(bytes(payload))
        return real_network_send(self, source, destination, payload, size=size)

    monkeypatch.setattr(SoapRuntime, "send", checking_send)
    monkeypatch.setattr(Network, "send", recording_network_send)
    group.setup()
    for index in range(3):
        group.publish({"symbol": "QIM", "seq": index, "note": "a<b&c\r\n"})
        group.run_for(2.0)

    kinds = {action.rpartition("/")[2] for action in checked}
    assert {"Fetch", "Register", "RegisterResponse", "Subscribe"} <= kinds
    assert sum(action.endswith("/Fetch") for action in checked) > 100
    assert len(checked) > 250


# -- canonical_bytes against ElementTree's file writer ------------------------------

URIS = ["urn:a", "urn:b?x=1&y=\"2\"", ns.WSA, XSI, "http://www.w3.org/XML/1998/namespace"]
URIS += [f"urn:many:{i}" for i in range(12)]  # past ns9, where sorting bites
tags = st.builds(qname, st.none() | st.sampled_from(URIS), xml_names)
wild_text = st.none() | st.text(st.one_of(st.characters(), special), max_size=12)


@st.composite
def elements(draw, depth=0):
    element = ET.Element(draw(tags))
    for key, value in draw(st.dictionaries(tags, wild_text.filter(lambda t: t is not None), max_size=3)).items():
        element.set(key, value)
    element.text = draw(wild_text)
    if depth < 3:
        for child in draw(st.lists(elements(depth=depth + 1), max_size=3)):
            child.tail = draw(wild_text)
            element.append(child)
    return element


@settings(max_examples=300, deadline=None)
@given(elements())
def test_canonical_bytes_equals_elementtree_file_writer(root):
    assert canonical_bytes(root) == et_write(root)
