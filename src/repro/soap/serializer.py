"""Payload serialization: plain Python values <-> XML elements.

The WS-Gossip services exchange structured payloads (peer lists, parameter
maps, stock ticks).  This module maps a small, closed set of Python types
onto XML so every payload is real wire XML yet round-trips exactly:

``None`` | ``bool`` | ``int`` | ``float`` | ``str`` | ``bytes`` |
``list`` of values | ``dict`` with ``str`` keys.

The value type is recorded in a ``t`` attribute; lists nest ``item``
children and dicts nest ``entry`` children with a ``k`` key attribute.
A string XML 1.0 cannot carry as text (a carriage return, a control
character) rides base64-encoded as ``t="str64"``.

There are two encoders over one mapping (:func:`_classify`):
:func:`to_element` fills an element tree, :func:`to_xml` writes the same
XML as a string for the direct envelope writer behind ``SoapRuntime.send``.
"""

from __future__ import annotations

import base64
import re
import xml.etree.ElementTree as ET
from typing import Any, List, Optional, Tuple

from repro.soap import namespaces as ns
from repro.xmlutil import qname
from repro.xmlutil.text import PrefixMap, escape_attribute, escape_text


class SerializationError(ValueError):
    """Raised for unsupported types or malformed payload XML."""


_ITEM_TAG = qname(ns.PAYLOAD, "item")
_ENTRY_TAG = qname(ns.PAYLOAD, "entry")

# Characters no XML 1.0 parser accepts, raw or as a character reference.
_ILLEGAL = "\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff"
_ILLEGAL_IN_KEY = re.compile(f"[{_ILLEGAL}]")
# ... plus CR, which line-ending normalization turns into LF on parse:
# strings holding any of these ride base64-encoded as ``str64``.
_NOT_PLAIN_TEXT = re.compile(f"[{_ILLEGAL}\r]")


def _classify(value: Any) -> Tuple[str, Optional[str]]:
    """The ``t`` tag of ``value`` and, unless it is a container, its text.

    The one statement of the value -> XML mapping; :func:`to_element` and
    :func:`to_xml` only differ in what they write it into.
    """
    if value is None:
        return "null", None
    if isinstance(value, str):
        if _NOT_PLAIN_TEXT.search(value) is None:
            return "str", value
        try:
            return "str64", base64.b64encode(value.encode("utf-8")).decode("ascii")
        except UnicodeEncodeError as exc:
            raise SerializationError(f"lone surrogate in string: {value!r}") from exc
    if isinstance(value, bool):  # before int: bool is an int subclass
        return "bool", "true" if value else "false"
    if isinstance(value, int):
        return "int", str(value)
    if isinstance(value, float):
        return "float", repr(value)  # repr round-trips doubles exactly
    if isinstance(value, (bytes, bytearray)):
        return "bytes", base64.b64encode(bytes(value)).decode("ascii")
    if isinstance(value, (list, tuple)):
        return "list", None
    if isinstance(value, dict):
        return "map", None
    raise SerializationError(f"unsupported type: {type(value).__name__}")


def _checked_key(key: Any) -> str:
    """A map key, which rides in an attribute and so cannot be re-encoded."""
    if not isinstance(key, str):
        raise SerializationError(f"map keys must be str, got {type(key).__name__}")
    if _ILLEGAL_IN_KEY.search(key) is not None:
        raise SerializationError(f"map key holds a character XML cannot carry: {key!r}")
    return key


def to_element(tag: str, value: Any) -> ET.Element:
    """Serialize ``value`` into an element named ``tag``.

    Raises:
        SerializationError: for types outside the supported set, lone
            surrogates, and map keys XML cannot carry.
    """
    element = ET.Element(tag)
    _fill(element, value)
    return element


def _fill(element: ET.Element, value: Any) -> None:
    kind, text = _classify(value)
    element.set("t", kind)
    if kind == "list":
        for item in value:
            _fill(ET.SubElement(element, _ITEM_TAG), item)
    elif kind == "map":
        for key, item in value.items():
            child = ET.SubElement(element, _ENTRY_TAG)
            child.set("k", _checked_key(key))
            _fill(child, item)
    else:
        element.text = text


def to_xml(tag: str, value: Any, names: PrefixMap) -> str:
    """Serialize ``value`` as the XML text of an element named ``tag``.

    The string twin of :func:`to_element` for the direct envelope writer:
    the namespaces of ``tag`` and, when the first child is written, of the
    payload are drawn from ``names``, so the result is what ElementTree's
    serializer emits for the same tree at that point of a document.

    Raises:
        SerializationError: exactly when :func:`to_element` does.
    """
    name = names.name(tag)
    out: List[str] = []
    _write(out, f"<{name}", f"</{name}>", value, names)
    return "".join(out)


def _write(out: List[str], start: str, end: str, value: Any, names: PrefixMap) -> None:
    kind, text = _classify(value)
    if text:
        if kind == "str":
            text = escape_text(text)
        out.append(f'{start} t="{kind}">{text}{end}')
    elif text is None and value:  # a list or map with children
        out.append(f'{start} t="{kind}">')
        prefix = names.prefix(ns.PAYLOAD)
        if kind == "list":
            item_start, item_end = f"<{prefix}:item", f"</{prefix}:item>"
            for item in value:
                _write(out, item_start, item_end, item, names)
        else:
            entry_end = f"</{prefix}:entry>"
            for key, item in value.items():
                key = escape_attribute(_checked_key(key))
                _write(out, f'<{prefix}:entry k="{key}"', entry_end, item, names)
        out.append(end)
    else:  # null, or an empty string / bytes / list / map
        out.append(f'{start} t="{kind}" />')


def from_element(element: ET.Element) -> Any:
    """Deserialize an element produced by :func:`to_element`.

    Raises:
        SerializationError: on unknown ``t`` tags or malformed content.
    """
    kind = element.get("t")
    text = element.text or ""
    if kind == "null":
        return None
    if kind == "bool":
        if text == "true":
            return True
        if text == "false":
            return False
        raise SerializationError(f"bad bool text: {text!r}")
    if kind == "int":
        try:
            return int(text)
        except ValueError as exc:
            raise SerializationError(f"bad int text: {text!r}") from exc
    if kind == "float":
        try:
            return float(text)
        except ValueError as exc:
            raise SerializationError(f"bad float text: {text!r}") from exc
    if kind == "str":
        return text
    if kind == "str64":
        try:
            return base64.b64decode(text.encode("ascii"), validate=True).decode(
                "utf-8"
            )
        except Exception as exc:
            raise SerializationError(f"bad str64 payload: {text!r}") from exc
    if kind == "bytes":
        try:
            return base64.b64decode(text.encode("ascii"), validate=True)
        except Exception as exc:
            raise SerializationError(f"bad base64 payload: {text!r}") from exc
    if kind == "list":
        return [from_element(child) for child in element]
    if kind == "map":
        result = {}
        for child in element:
            key = child.get("k")
            if key is None:
                raise SerializationError("map entry missing key attribute")
            result[key] = from_element(child)
        return result
    raise SerializationError(f"unknown payload type tag: {kind!r}")
