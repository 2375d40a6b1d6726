"""Tests for SOAP envelope construction and parsing."""

import xml.etree.ElementTree as ET

import pytest

from repro.soap import namespaces as ns
from repro.soap.envelope import Envelope, EnvelopeError


def make_body(tag="{urn:test}op", text="payload"):
    body = ET.Element(tag)
    body.text = text
    return body


def test_round_trip_soap11():
    envelope = Envelope(body=make_body())
    parsed = Envelope.from_bytes(envelope.to_bytes())
    assert parsed.version == "1.1"
    assert parsed.body.tag == "{urn:test}op"
    assert parsed.body.text == "payload"


def test_round_trip_soap12():
    envelope = Envelope(body=make_body(), version="1.2")
    parsed = Envelope.from_bytes(envelope.to_bytes())
    assert parsed.version == "1.2"
    assert parsed.envelope_namespace == ns.SOAP12_ENV


def test_unsupported_version_rejected():
    with pytest.raises(ValueError):
        Envelope(version="2.0")


def test_headers_round_trip_in_order():
    envelope = Envelope(body=make_body())
    for index in range(3):
        header = ET.Element(f"{{urn:h}}H{index}")
        header.text = str(index)
        envelope.add_header(header)
    parsed = Envelope.from_bytes(envelope.to_bytes())
    assert [h.tag for h in parsed.headers] == ["{urn:h}H0", "{urn:h}H1", "{urn:h}H2"]
    assert parsed.header("{urn:h}H1").text == "1"


def test_empty_body_allowed():
    envelope = Envelope()
    parsed = Envelope.from_bytes(envelope.to_bytes())
    assert parsed.body is None


def test_header_lookup_helpers():
    envelope = Envelope(body=make_body())
    one = ET.Element("{urn:h}Dup")
    one.text = "first"
    two = ET.Element("{urn:h}Dup")
    two.text = "second"
    envelope.add_header(one)
    envelope.add_header(two)
    assert envelope.header("{urn:h}Dup").text == "first"
    assert len(envelope.headers_named("{urn:h}Dup")) == 2
    assert envelope.header_text("{urn:h}Dup") == "first"
    assert envelope.header("{urn:h}Missing") is None
    assert envelope.header_text("{urn:h}Missing") is None


def test_remove_header():
    envelope = Envelope(body=make_body())
    envelope.add_header(ET.Element("{urn:h}A"))
    envelope.add_header(ET.Element("{urn:h}A"))
    envelope.add_header(ET.Element("{urn:h}B"))
    removed = envelope.remove_header("{urn:h}A")
    assert removed == 2
    assert len(envelope.headers) == 1


def test_malformed_xml_rejected():
    with pytest.raises(EnvelopeError):
        Envelope.from_bytes(b"<not-closed>")


def test_non_envelope_root_rejected():
    with pytest.raises(EnvelopeError):
        Envelope.from_bytes(b"<Foo/>")


def test_wrong_namespace_rejected():
    with pytest.raises(EnvelopeError):
        Envelope.from_bytes(b'<Envelope xmlns="urn:not-soap"><Body/></Envelope>')


def test_missing_body_rejected():
    data = (
        f'<Envelope xmlns="{ns.SOAP11_ENV}"><Header/></Envelope>'
    ).encode()
    with pytest.raises(EnvelopeError):
        Envelope.from_bytes(data)


def test_multiple_body_children_rejected():
    data = (
        f'<Envelope xmlns="{ns.SOAP11_ENV}"><Body><a/><b/></Body></Envelope>'
    ).encode()
    with pytest.raises(EnvelopeError):
        Envelope.from_bytes(data)


def test_is_fault_detection():
    from repro.soap.fault import FaultCode, SoapFault

    fault_envelope = Envelope(body=SoapFault(FaultCode.SENDER, "bad").to_element())
    assert fault_envelope.is_fault
    assert not Envelope(body=make_body()).is_fault
    assert not Envelope().is_fault


def test_wire_bytes_contain_declaration_and_namespaces():
    data = Envelope(body=make_body()).to_bytes()
    assert data.startswith(b"<?xml")
    assert ns.SOAP11_ENV.encode() in data


def test_unicode_payload_round_trip():
    body = make_body(text="café € 中文")
    parsed = Envelope.from_bytes(Envelope(body=body).to_bytes())
    assert parsed.body.text == "café € 中文"


# -- wire-bytes memoization ---------------------------------------------------


def test_to_bytes_memoized():
    envelope = Envelope(body=make_body())
    first = envelope.to_bytes()
    assert envelope.to_bytes() is first  # cached, not re-encoded


def test_from_bytes_seeds_cache_with_original_wire():
    from repro.soap.envelope import clear_parse_cache

    clear_parse_cache()  # an earlier test may have parsed equal bytes
    data = Envelope(body=make_body()).to_bytes()
    parsed = Envelope.from_bytes(data)
    # Receive -> store -> forward is zero-copy: the parsed envelope hands
    # back the exact bytes object it was parsed from.
    assert parsed.to_bytes() is data
    # ...and a later receipt of an equal copy hands back that same object
    # (the canonical copy), so stores share one buffer per frame.
    assert Envelope.from_bytes(bytes(bytearray(data))).to_bytes() is data


def test_add_header_invalidates_cache():
    envelope = Envelope(body=make_body())
    stale = envelope.to_bytes()
    envelope.add_header(ET.Element("{urn:h}Late"))
    fresh = envelope.to_bytes()
    assert fresh is not stale
    assert b"Late" in fresh
    assert b"Late" not in stale
    # And the re-encoded form is itself memoized again.
    assert envelope.to_bytes() is fresh


def test_body_assignment_invalidates_cache():
    envelope = Envelope(body=make_body(text="before"))
    stale = envelope.to_bytes()
    envelope.body = make_body(text="after")
    fresh = envelope.to_bytes()
    assert fresh is not stale
    assert b"after" in fresh and b"before" not in fresh


def test_remove_header_invalidates_only_on_removal():
    envelope = Envelope(body=make_body())
    envelope.add_header(ET.Element("{urn:h}A"))
    cached = envelope.to_bytes()
    envelope.remove_header("{urn:h}Missing")  # removed nothing
    assert envelope.to_bytes() is cached
    envelope.remove_header("{urn:h}A")
    assert envelope.to_bytes() is not cached


def test_invalidate_forces_re_encode():
    envelope = Envelope(body=make_body())
    cached = envelope.to_bytes()
    envelope.invalidate()
    again = envelope.to_bytes()
    assert again is not cached
    assert again == cached  # same content, fresh encode


def test_memoization_counters():
    from repro.obs.hub import default_hub
    from repro.soap.envelope import clear_parse_cache

    WIRE_STATS = default_hub().wire

    default_hub().reset()
    clear_parse_cache()
    envelope = Envelope(body=make_body())
    envelope.to_bytes()
    envelope.to_bytes()
    envelope.to_bytes()
    assert WIRE_STATS.serialize_count.value == 1
    assert WIRE_STATS.serialize_reused.value == 2
    Envelope.from_bytes(envelope.to_bytes())
    assert WIRE_STATS.parse_count.value == 1
