"""Tests for the payload serializer, including hypothesis round-trips."""

import math
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.soap.serializer import SerializationError, from_element, to_element
from repro.xmlutil import canonical_bytes, parse_bytes

TAG = "{urn:test}payload"

# Any string but lone surrogates is a payload value; strings XML 1.0
# cannot carry as text (CR, control characters, U+FFFE/U+FFFF) ride as
# ``str64``.
any_text = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=60)
# Map keys ride in an attribute, so they are limited to what XML can carry.
key_text = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs",), blacklist_characters="\ufffe\uffff"
    ).filter(lambda c: c >= " " or c in "\t\n\r"),
    max_size=60,
)

json_like = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**62), max_value=2**62)
    | st.floats(allow_nan=False, allow_infinity=False)
    | any_text
    | st.binary(max_size=60),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(key_text, children, max_size=5),
    max_leaves=25,
)


def round_trip(value):
    element = to_element(TAG, value)
    # Force a real wire trip: serialize the XML and parse it back.
    wire = canonical_bytes(element)
    return from_element(parse_bytes(wire))


@pytest.mark.parametrize(
    "value",
    [
        None,
        True,
        False,
        0,
        -17,
        2**60,
        3.14159,
        -0.0,
        1e-300,
        "",
        "hello",
        "white  space\n\tkept",
        b"",
        b"\x00\xff\x80raw",
        [],
        [1, "two", None, [3.0]],
        {},
        {"k": "v", "nested": {"a": [1, 2]}},
        {"mixed": [True, {"deep": b"bytes"}]},
    ],
)
def test_round_trip_examples(value):
    assert round_trip(value) == value


def test_bool_is_not_confused_with_int():
    assert round_trip(True) is True
    assert round_trip(1) == 1
    assert not isinstance(round_trip(1), bool)


def test_float_precision_exact():
    value = 0.1 + 0.2
    assert round_trip(value) == value


def test_tuple_serializes_as_list():
    assert round_trip((1, 2)) == [1, 2]


def test_unsupported_type_rejected():
    with pytest.raises(SerializationError):
        to_element(TAG, object())


def test_non_string_map_key_rejected():
    with pytest.raises(SerializationError):
        to_element(TAG, {1: "x"})


@pytest.mark.parametrize(
    "value",
    ["\x00", "a\x08b", "\x0b", "\x0c", "\x0e", "\x1f", "\ufffe", "\uffff", "cr\rlf"],
)
def test_strings_xml_cannot_carry_ride_base64(value):
    # Written raw, no parser accepts these: every receiver would count the
    # message as malformed and drop it.
    assert to_element(TAG, value).get("t") == "str64"
    assert round_trip(value) == value
    assert round_trip({"nested": [value]}) == {"nested": [value]}


def test_plain_strings_stay_plain():
    for value in ("", "tab\tnewline\n", "\x7f\x85\u2028", "\U0001f600"):
        assert to_element(TAG, value).get("t") == "str"
        assert round_trip(value) == value


@pytest.mark.parametrize("value", ["\ud800", "ok\udfffok", ["\ud800"], {"k": "\udc00"}])
def test_lone_surrogate_rejected_at_the_sender(value):
    with pytest.raises(SerializationError):
        to_element(TAG, value)


@pytest.mark.parametrize("key", ["\x00", "a\x0bb", "\ufffe", "\ud800"])
def test_map_key_xml_cannot_carry_rejected(key):
    # Keys ride in an attribute; there is no base64 detour for them.
    with pytest.raises(SerializationError):
        to_element(TAG, {key: 1})


def test_map_keys_with_line_breaks_round_trip():
    value = {"cr\r": 1, "lf\n": 2, "tab\t": 3, 'quote"<&>': 4}
    assert round_trip(value) == value


def test_unknown_type_tag_rejected():
    element = ET.Element(TAG)
    element.set("t", "complex")
    with pytest.raises(SerializationError):
        from_element(element)


def test_bad_int_text_rejected():
    element = ET.Element(TAG)
    element.set("t", "int")
    element.text = "not-a-number"
    with pytest.raises(SerializationError):
        from_element(element)


def test_bad_bool_text_rejected():
    element = ET.Element(TAG)
    element.set("t", "bool")
    element.text = "yes"
    with pytest.raises(SerializationError):
        from_element(element)


def test_bad_base64_rejected():
    element = ET.Element(TAG)
    element.set("t", "bytes")
    element.text = "!!!not-base64!!!"
    with pytest.raises(SerializationError):
        from_element(element)


def test_map_entry_without_key_rejected():
    element = ET.Element(TAG)
    element.set("t", "map")
    child = ET.SubElement(element, "{urn:ws-gossip:2008:payload}entry")
    child.set("t", "null")
    with pytest.raises(SerializationError):
        from_element(element)


@given(json_like)
def test_round_trip_property(value):
    assert round_trip(value) == value


@given(st.dictionaries(key_text, st.integers(), max_size=8))
def test_map_preserves_all_keys(value):
    assert round_trip(value) == value
