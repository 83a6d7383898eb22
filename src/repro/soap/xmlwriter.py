"""A minimal XML document model and serializer."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.errors import SoapError

#: What XML 1.0 cannot carry, raw or as a character reference: C0 controls
#: other than TAB, LF and CR; surrogates; U+FFFE and U+FFFF.
_NOT_XML_CHAR = re.compile(
    "[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]"
)


def check_xml_chars(text: str, what: str) -> str:
    """``text``, or a :class:`SoapError` naming (as ``U+0008``, never raw)
    the first character in it that XML 1.0 cannot carry."""
    bad = _NOT_XML_CHAR.search(text)
    if bad is None:
        return text
    raise SoapError(f"{what} holds U+{ord(bad.group()):04X}, which XML cannot carry")


def escape_non_xml_chars(text: str) -> str:
    """``text`` with what XML 1.0 cannot carry written as Python escapes
    (``\\x08``, ``\\ud800``): for diagnostics, which may be lossy."""
    return _NOT_XML_CHAR.sub(lambda bad: ascii(bad.group())[1:-1], text)


def escape_text(text: str) -> str:
    """Escape character data (a CR as ``&#13;``, which parsers keep)."""
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace("\r", "&#13;"))


def escape_attr(text: str) -> str:
    """Escape an attribute value (double-quote delimited)."""
    return (
        escape_text(text)
        .replace('"', "&quot;")
        .replace("\n", "&#10;")
        .replace("\t", "&#9;")
    )


@dataclass
class Element:
    """An XML element: tag, attributes, text, children.

    Mixed content is not modeled (SOAP messages never need it): an element
    carries either ``text`` or ``children``.
    """

    tag: str
    attrib: Dict[str, str] = field(default_factory=dict)
    children: List["Element"] = field(default_factory=list)
    text: str = ""

    def child(self, tag: str, *, text: str = "", **attrib: str) -> "Element":
        """Append and return a new child element."""
        node = Element(tag, dict(attrib), [], text)
        self.children.append(node)
        return node

    def find(self, tag: str) -> Optional["Element"]:
        """First direct child with the given tag (namespace-prefix aware:
        matches either the exact tag or any ``prefix:tag``)."""
        for node in self.children:
            if node.tag == tag or node.tag.split(":", 1)[-1] == tag:
                return node
        return None

    def find_all(self, tag: str) -> List["Element"]:
        """All direct children matching the tag (prefix-insensitive)."""
        return [
            node
            for node in self.children
            if node.tag == tag or node.tag.split(":", 1)[-1] == tag
        ]

    def require(self, tag: str) -> "Element":
        """Like :meth:`find` but raises :class:`SoapError` when absent: a
        document missing a required element is malformed."""
        node = self.find(tag)
        if node is None:
            raise SoapError(f"element <{self.tag}> has no child <{tag}>")
        return node

    def get(self, attr: str, default: Optional[str] = None) -> Optional[str]:
        """Attribute lookup with default."""
        return self.attrib.get(attr, default)

    def local_name(self) -> str:
        """Tag without any namespace prefix."""
        return self.tag.split(":", 1)[-1]

    def iter(self) -> Iterator["Element"]:
        """Depth-first iteration over this element and all descendants."""
        yield self
        for node in self.children:
            yield from node.iter()


@dataclass
class Markup(Element):
    """An element whose content is XML rendered before, written verbatim:
    how a payload encoded once travels inside a freshly built envelope."""

    markup: str = ""


def render_content(node: Element) -> str:
    """``node``'s content (its children, or its escaped text) as XML."""
    if not node.children:
        return escape_text(node.text)
    parts: List[str] = []
    for kid in node.children:
        _render_node(kid, parts, None, 0)
    return "".join(parts)


def render(root: Element, *, declaration: bool = True, indent: Optional[str] = None) -> str:
    """Serialize an element tree to XML text."""
    parts: List[str] = []
    if declaration:
        parts.append('<?xml version="1.0" encoding="utf-8"?>')
        if indent is not None:
            parts.append("\n")
    _render_node(root, parts, indent, 0)
    return "".join(parts)


def _render_node(
    node: Element, parts: List[str], indent: Optional[str], depth: int
) -> None:
    pad = indent * depth if indent is not None else ""
    attrs = "".join(
        f' {name}="{escape_attr(value)}"' for name, value in node.attrib.items()
    )
    if isinstance(node, Markup) and node.markup:
        parts.append(f"{pad}<{node.tag}{attrs}>{node.markup}</{node.tag}>")
        if indent is not None:
            parts.append("\n")
        return
    if not node.children and not node.text:
        parts.append(f"{pad}<{node.tag}{attrs}/>")
        if indent is not None:
            parts.append("\n")
        return
    parts.append(f"{pad}<{node.tag}{attrs}>")
    if node.children:
        if indent is not None:
            parts.append("\n")
        for kid in node.children:
            _render_node(kid, parts, indent, depth + 1)
        parts.append(pad)
    else:
        parts.append(escape_text(node.text))
    parts.append(f"</{node.tag}>")
    if indent is not None:
        parts.append("\n")
