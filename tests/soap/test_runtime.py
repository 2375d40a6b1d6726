"""Tests for the SOAP runtime: dispatch, replies, faults, forwarding."""

import xml.etree.ElementTree as ET

import pytest

from repro.soap.envelope import Envelope
from repro.soap.fault import FaultCode, SoapFault, sender_fault
from repro.soap.handler import Handler
from repro.soap.runtime import SoapRuntime, _default_tag
from repro.soap.service import Reply, Service, operation
from repro.wsa.addressing import AddressingHeaders


class Echo(Service):
    @operation("urn:t/Echo")
    def echo(self, context, value):
        return {"echo": value}

    @operation("urn:t/OneWay")
    def one_way(self, context, value):
        self.last = value
        return None

    @operation("urn:t/Fail")
    def fail(self, context, value):
        raise sender_fault("you did a bad thing", detail="details")

    @operation("urn:t/Custom")
    def custom(self, context, value):
        return Reply(value={"ok": True}, action="urn:t/CustomDone")


@pytest.fixture
def pair(loopback):
    transport, make = loopback
    client = make("test://client")
    server = make("test://server")
    server.add_service("/svc", Echo())
    return transport, client, server


def test_default_tag_derivation():
    assert _default_tag("urn:x/Gossip") == "{urn:x}Gossip"
    assert _default_tag("urn:just-a-urn").endswith("just-a-urn")


def test_request_reply(pair):
    transport, client, server = pair
    out = []
    client.send(
        "test://server/svc", "urn:t/Echo", value="hi",
        on_reply=lambda context, value: out.append((context.addressing.action, value)),
    )
    assert out == [("urn:t/EchoResponse", {"echo": "hi"})]


def test_one_way_no_reply(pair):
    transport, client, server = pair
    client.send("test://server/svc", "urn:t/OneWay", value=123)
    assert server.service_at("/svc").last == 123
    assert client.metrics.counter("soap.received").value == 0


def test_reply_callback_is_one_shot(pair):
    transport, client, server = pair
    out = []
    message_id = client.send(
        "test://server/svc", "urn:t/Echo", value="x",
        on_reply=lambda context, value: out.append(value),
    )
    # Replay the reply manually: second time nothing fires.
    assert len(out) == 1
    envelope = Envelope()
    addressing = AddressingHeaders(
        to="test://client/replies", action="urn:t/EchoResponse",
        message_id="urn:uuid:replay", relates_to=message_id,
    )
    addressing.apply(envelope)
    client.receive(envelope.to_bytes())
    assert len(out) == 1


def test_fault_reply_surfaces_as_soapfault(pair):
    transport, client, server = pair
    out = []
    client.send(
        "test://server/svc", "urn:t/Fail", value=None,
        on_reply=lambda context, value: out.append(value),
    )
    assert len(out) == 1
    assert isinstance(out[0], SoapFault)
    assert out[0].code is FaultCode.SENDER
    assert out[0].detail == "details"


def test_custom_reply_action(pair):
    transport, client, server = pair
    out = []
    client.send(
        "test://server/svc", "urn:t/Custom", value=None,
        on_reply=lambda context, value: out.append(context.addressing.action),
    )
    assert out == ["urn:t/CustomDone"]


def test_no_service_faults_back(pair):
    transport, client, server = pair
    out = []
    client.send(
        "test://server/nowhere", "urn:t/Echo", value=None,
        on_reply=lambda context, value: out.append(value),
    )
    assert isinstance(out[0], SoapFault)
    assert server.metrics.counter("soap.no-service").value == 1


@pytest.mark.parametrize(
    "stale_to",
    ["test://server0/svc", "test://server:80010/svc", "test://elsewhere/svc"],
)
def test_address_sharing_our_prefix_is_someone_elses(pair, stale_to):
    # On ``test://server`` a To of ``test://server0/svc`` is not "our
    # address plus the remainder 0/svc": it names another authority, and
    # like any foreign To it is dispatched by path (virtual hosting).
    transport, client, server = pair
    envelope = Envelope()
    AddressingHeaders(
        to=stale_to, action="urn:t/OneWay", message_id="urn:uuid:stale"
    ).apply(envelope)
    server.receive(envelope.to_bytes())
    assert server.metrics.counter("soap.no-service").value == 0
    assert server.service_at("/svc").last is None


def test_bare_base_address_has_no_service(pair):
    transport, client, server = pair
    envelope = Envelope()
    AddressingHeaders(
        to="test://server", action="urn:t/OneWay", message_id="urn:uuid:bare"
    ).apply(envelope)
    server.receive(envelope.to_bytes())
    assert server.metrics.counter("soap.no-service").value == 1


def test_no_operation_faults_back(pair):
    transport, client, server = pair
    out = []
    client.send(
        "test://server/svc", "urn:t/Unknown", value=None,
        on_reply=lambda context, value: out.append(value),
    )
    assert isinstance(out[0], SoapFault)
    assert server.metrics.counter("soap.no-operation").value == 1


def test_one_way_errors_do_not_fault_back(pair):
    transport, client, server = pair
    client.send("test://server/svc", "urn:t/Unknown", value=None)
    # No reply_to: no fault message was emitted anywhere.
    assert client.metrics.counter("soap.received").value == 0


def test_malformed_bytes_counted(pair):
    transport, client, server = pair
    server.receive(b"this is not xml")
    assert server.metrics.counter("soap.malformed").value == 1


def test_epr_reference_parameters_become_headers(pair):
    transport, client, server = pair
    seen = {}

    class RefReader(Service):
        @operation("urn:t/Read")
        def read(self, context, value):
            seen["header"] = context.envelope.header_text(
                "{urn:ws-gossip:2008:core}Token"
            )
            return None

    server.add_service("/ref", RefReader())
    epr = server.epr("/ref", Token="secret-42")
    client.send(epr, "urn:t/Read")
    assert seen["header"] == "secret-42"


def test_element_value_used_as_body_directly(pair):
    transport, client, server = pair
    seen = {}

    class RawReader(Service):
        @operation("urn:t/Raw")
        def raw(self, context, value):
            seen["tag"] = context.envelope.body.tag
            seen["value"] = value
            return None

    server.add_service("/raw", RawReader())
    element = ET.Element("{urn:custom}Blob")
    client.send("test://server/raw", "urn:t/Raw", value=element)
    assert seen["tag"] == "{urn:custom}Blob"
    assert seen["value"] is None  # untyped body deserializes to None


def test_outbound_handler_can_consume(pair):
    transport, client, server = pair

    class Blocker(Handler):
        def on_outbound(self, context):
            return False

    client.chain.add(Blocker())
    client.send("test://server/svc", "urn:t/OneWay", value=1)
    assert client.metrics.counter("soap.outbound.consumed").value == 1
    assert transport.delivered == 0


def test_inbound_handler_can_consume(pair):
    transport, client, server = pair

    class Blocker(Handler):
        def on_inbound(self, context):
            return False

    server.chain.add(Blocker())
    client.send("test://server/svc", "urn:t/OneWay", value=1)
    assert server.metrics.counter("soap.inbound.consumed").value == 1
    assert not hasattr(server.service_at("/svc"), "last")


def test_forward_envelope_rewrites_addressing(pair):
    transport, client, server = pair
    envelope = Envelope()
    addressing = AddressingHeaders(
        to="test://old/destination", action="urn:t/OneWay",
        message_id="urn:uuid:original",
    )
    addressing.apply(envelope)
    body = ET.Element("{urn:t}OneWay")
    body.set("t", "int")
    body.text = "7"
    envelope.body = body

    new_id = client.forward_envelope("test://server/svc", envelope)
    assert new_id != "urn:uuid:original"
    assert server.service_at("/svc").last == 7


def test_add_service_validation(pair):
    transport, client, server = pair
    with pytest.raises(ValueError):
        server.add_service("no-slash", Echo())
    with pytest.raises(ValueError):
        server.add_service("/svc", Echo())


def test_address_of_and_epr(pair):
    transport, client, server = pair
    assert server.address_of("/svc") == "test://server/svc"
    epr = server.epr("/svc", A="1")
    assert epr.address == "test://server/svc"
    assert epr.reference_parameters == {"A": "1"}


def test_operation_exception_propagates(pair):
    transport, client, server = pair

    class Buggy(Service):
        @operation("urn:t/Bug")
        def bug(self, context, value):
            raise RuntimeError("a genuine bug")

    server.add_service("/bug", Buggy())
    with pytest.raises(RuntimeError):
        client.send("test://server/bug", "urn:t/Bug")


def test_malformed_typed_payload_faults_not_crashes(pair):
    """A wire message whose typed body fails deserialization must produce
    a Sender fault (or be dropped), never an uncaught exception."""
    transport, client, server = pair
    envelope = Envelope()
    body = ET.Element("{urn:t}OneWay")
    body.set("t", "int")
    body.text = "not-a-number"
    envelope.body = body
    addressing = AddressingHeaders(
        to="test://server/svc", action="urn:t/OneWay",
        message_id="urn:uuid:bad",
        reply_to=None,
    )
    addressing.apply(envelope)
    server.receive(envelope.to_bytes())  # must not raise
    assert server.metrics.counter("soap.malformed-payload").value == 1


def test_malformed_typed_reply_surfaces_as_fault(pair):
    transport, client, server = pair
    out = []
    message_id = client.send(
        "test://server/svc", "urn:t/Echo", value="x",
        on_reply=lambda context, value: out.append(value),
    )
    # Hand-craft a malformed reply to a fresh request.
    out2 = []
    message_id2 = client.send(
        "test://server/svc", "urn:t/OneWay", value=None,
        on_reply=lambda context, value: out2.append(value),
    )
    envelope = Envelope()
    body = ET.Element("{urn:t}Bad")
    body.set("t", "float")
    body.text = "NaN-ish-garbage"
    envelope.body = body
    addressing = AddressingHeaders(
        to="test://client/replies", action="urn:t/OneWayResponse",
        message_id="urn:uuid:x", relates_to=message_id2,
    )
    addressing.apply(envelope)
    client.receive(envelope.to_bytes())
    assert len(out2) == 1
    assert isinstance(out2[0], SoapFault)
