"""Serialization helpers on top of :mod:`xml.etree.ElementTree`.

Two writers produce this stack's wire bytes and must agree byte for byte
(docs/WIRE.md, "Serialization contract"): :func:`canonical_bytes`, which
runs ElementTree's serializer over a tree, and the direct writer behind
``SoapRuntime.send``, which assembles the same document from strings with
:class:`PrefixMap`, :func:`escape_text`, :func:`escape_attribute` and
:func:`encode_document`.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Dict

#: The declaration ElementTree's file writer emits for ``encoding="utf-8"``.
XML_DECLARATION = "<?xml version='1.0' encoding='utf-8'?>\n"


class XmlParseError(ValueError):
    """Raised when bytes do not parse as well-formed XML."""


class TreeOnly(Exception):
    """A document only ElementTree's own serializer reproduces exactly."""


def parse_bytes(data: bytes) -> ET.Element:
    """Parse ``data`` into an element tree root.

    Raises:
        XmlParseError: on malformed input (wraps the ElementTree error so
        callers need not depend on its exception type).
    """
    try:
        return ET.fromstring(data)
    except ET.ParseError as exc:
        raise XmlParseError(f"malformed XML: {exc}") from exc


def canonical_bytes(element: ET.Element) -> bytes:
    """Serialize an element to UTF-8 bytes with an XML declaration.

    Not full C14N -- namespace prefixes are whatever ElementTree assigns --
    but stable for a given tree, which is all the stack needs.
    """
    return encode_document(ET.tostring(element, encoding="unicode"))


def encode_document(xml: str) -> bytes:
    """Wire bytes of a serialized root element: declaration, UTF-8, and a
    character reference for whatever UTF-8 cannot carry (lone surrogates)."""
    return (XML_DECLARATION + xml).encode("utf-8", "xmlcharrefreplace")


def escape_text(text: str) -> str:
    """Escape character data the way ElementTree's serializer does."""
    if "&" in text:
        text = text.replace("&", "&amp;")
    if "<" in text:
        text = text.replace("<", "&lt;")
    if ">" in text:
        text = text.replace(">", "&gt;")
    return text


def escape_attribute(text: str) -> str:
    """Escape an attribute value the way ElementTree's serializer does."""
    text = escape_text(text)
    if '"' in text:
        text = text.replace('"', "&quot;")
    if "\r" in text:
        text = text.replace("\r", "&#13;")
    if "\n" in text:
        text = text.replace("\n", "&#10;")
    if "\t" in text:
        text = text.replace("\t", "&#09;")
    return text


def text_element(name: str, text: str) -> str:
    """``<name>text</name>``, or ``<name />`` when the text is empty."""
    return f"<{name}>{escape_text(text)}</{name}>" if text else f"<{name} />"


class PrefixMap:
    """Namespace prefixes as ElementTree's serializer allocates them.

    ``ns0``, ``ns1``, ... in order of first use, so a writer that asks for
    names in document order (an element's tag before its attributes)
    declares what ElementTree would.  Raises :class:`TreeOnly` for what
    that scheme cannot reproduce: a namespace with a well-known
    ElementTree prefix (``wsdl``, ``xsi``, anything passed to
    ``ET.register_namespace``), or an eleventh namespace (ElementTree
    sorts declarations by prefix *string*, ``ns10`` before ``ns2``).
    """

    def __init__(self) -> None:
        self._prefixes: Dict[str, str] = {}

    def prefix(self, uri: str) -> str:
        """The prefix bound to ``uri``, allocated on first use."""
        prefix = self._prefixes.get(uri)
        if prefix is None:
            if uri in ET._namespace_map or len(self._prefixes) == 10:
                raise TreeOnly(uri)
            prefix = self._prefixes[uri] = f"ns{len(self._prefixes)}"
        return prefix

    def name(self, tag: str) -> str:
        """Serialized ``prefix:local`` form of an ElementTree tag."""
        if tag[:1] != "{":
            return tag
        uri, local = tag[1:].rsplit("}", 1)
        return f"{self.prefix(uri)}:{local}"

    def declarations(self) -> str:
        """The root element's ``xmlns:`` attributes, in prefix order."""
        return "".join(
            f' xmlns:{prefix}="{escape_attribute(uri)}"'
            for uri, prefix in self._prefixes.items()
        )


def indent(element: ET.Element, level: int = 0) -> ET.Element:
    """In-place pretty-print indentation (for logs and examples)."""
    pad = "\n" + "  " * level
    children = list(element)
    if children:
        if not element.text or not element.text.strip():
            element.text = pad + "  "
        for child in children:
            indent(child, level + 1)
            if not child.tail or not child.tail.strip():
                child.tail = pad + "  "
        if not children[-1].tail or not children[-1].tail.strip():
            children[-1].tail = pad
    return element
