"""A small DOM-style XML parser with an explicit memory model.

The paper (Section 6): *"The XML parser at the SkyNode would run out of
memory while parsing SOAP messages of about 10 MB. We worked around by
dividing large data sets into smaller chunks."*

A DOM parser materializes the whole document as objects, with a sizable
expansion factor over the raw bytes. This parser models that: the peak
memory charged for a parse is ``overhead_factor * document_bytes``, and if
a ``memory_limit_bytes`` is configured and exceeded, the parse fails with
:class:`~repro.errors.XMLMemoryError` *before* building the tree — exactly
the production failure the authors hit, made reproducible.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.errors import XMLMemoryError, XMLSyntaxError
from repro.soap.xmlwriter import Element

#: Default expansion of a text document into DOM objects. With the paper's
#: ~40 MB per-worker budget this makes parses fail just above 10 MB.
DEFAULT_OVERHEAD_FACTOR = 4.0

_ENTITIES = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
    "apos": "'",
}


def _unescape(text: str) -> str:
    """Resolve entity and numeric character references in one pass.

    A single left-to-right scan — sequential ``str.replace`` calls would
    double-decode input like ``&amp;#9;`` (literal "&#9;"), a classic
    unescaping bug.
    """
    if "&" not in text:
        return text
    out: list[str] = []
    pos = 0
    n = len(text)
    while pos < n:
        amp = text.find("&", pos)
        if amp < 0:
            out.append(text[pos:])
            break
        out.append(text[pos:amp])
        end = text.find(";", amp + 1)
        if end < 0:
            raise XMLSyntaxError(f"unterminated entity reference at {amp}")
        name = text[amp + 1 : end]
        if name.startswith("#"):
            try:
                code = int(name[2:], 16) if name[1] in "xX" else int(name[1:])
                out.append(chr(code))
            except (ValueError, OverflowError, IndexError):
                raise XMLSyntaxError(
                    f"bad character reference &{name};"
                ) from None
        elif name in _ENTITIES:
            out.append(_ENTITIES[name])
        else:
            raise XMLSyntaxError(f"unknown entity &{name};")
        pos = end + 1
    return "".join(out)


class XMLParser:
    """Parser instance with an optional memory budget.

    ``peak_memory_bytes`` after a parse reports the modeled DOM footprint,
    used by the chunking experiment to chart memory versus chunk size.
    """

    def __init__(
        self,
        *,
        memory_limit_bytes: Optional[int] = None,
        overhead_factor: float = DEFAULT_OVERHEAD_FACTOR,
    ) -> None:
        if overhead_factor < 1.0:
            raise ValueError("overhead_factor must be >= 1")
        self.memory_limit_bytes = memory_limit_bytes
        self.overhead_factor = overhead_factor
        self.peak_memory_bytes = 0
        self.documents_parsed = 0

    def parse(self, text: str | bytes) -> Element:
        """Parse a document, enforcing the memory budget."""
        if isinstance(text, bytes):
            doc_bytes = len(text)
            try:
                text = text.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise XMLSyntaxError(f"document is not UTF-8: {exc}") from None
        else:
            doc_bytes = len(text.encode("utf-8"))
        needed = int(self.overhead_factor * doc_bytes)
        self.peak_memory_bytes = max(self.peak_memory_bytes, needed)
        if self.memory_limit_bytes is not None and needed > self.memory_limit_bytes:
            raise XMLMemoryError(
                f"XML parser out of memory: document of {doc_bytes} bytes "
                f"needs ~{needed} bytes, limit is {self.memory_limit_bytes}",
                document_bytes=doc_bytes,
                limit_bytes=self.memory_limit_bytes,
            )
        try:
            root = _parse_document(text)
        except RecursionError:
            raise XMLSyntaxError("document nests elements too deeply") from None
        self.documents_parsed += 1
        return root


def parse_xml(
    text: str | bytes, *, memory_limit_bytes: Optional[int] = None
) -> Element:
    """One-shot parse with an optional memory budget."""
    return XMLParser(memory_limit_bytes=memory_limit_bytes).parse(text)


def _parse_document(text: str) -> Element:
    pos = _skip_prolog(text, 0)
    root, pos = _parse_element(text, pos)
    # Trailing whitespace/comments only.
    pos = _skip_misc(text, pos)
    if pos != len(text):
        raise XMLSyntaxError(f"trailing content after document element at {pos}")
    return root


def _skip_prolog(text: str, pos: int) -> int:
    pos = _skip_ws(text, pos)
    if text.startswith("<?xml", pos):
        end = text.find("?>", pos)
        if end < 0:
            raise XMLSyntaxError("unterminated XML declaration")
        pos = end + 2
    return _skip_misc(text, pos)


def _skip_misc(text: str, pos: int) -> int:
    while True:
        pos = _skip_ws(text, pos)
        if text.startswith("<!--", pos):
            end = text.find("-->", pos)
            if end < 0:
                raise XMLSyntaxError("unterminated comment")
            pos = end + 3
            continue
        return pos


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos] in " \t\r\n":
        pos += 1
    return pos


def _parse_element(text: str, pos: int) -> Tuple[Element, int]:
    if pos >= len(text) or text[pos] != "<":
        raise XMLSyntaxError(f"expected '<' at position {pos}")
    tag_end = pos + 1
    n = len(text)
    while tag_end < n and text[tag_end] not in " \t\r\n/>":
        tag_end += 1
    tag = text[pos + 1 : tag_end]
    if not tag:
        raise XMLSyntaxError(f"empty tag name at position {pos}")
    attrib, pos = _parse_attributes(text, tag_end)
    if text.startswith("/>", pos):
        return Element(tag, attrib), pos + 2
    if pos >= n or text[pos] != ">":
        raise XMLSyntaxError(f"malformed start tag <{tag}> at position {pos}")
    pos += 1
    node = Element(tag, attrib)
    text_chunks = []
    while True:
        if pos >= n:
            raise XMLSyntaxError(f"unterminated element <{tag}>")
        if text.startswith("<!--", pos):
            end = text.find("-->", pos)
            if end < 0:
                raise XMLSyntaxError("unterminated comment")
            pos = end + 3
            continue
        if text.startswith("</", pos):
            end = text.find(">", pos)
            if end < 0:
                raise XMLSyntaxError(f"unterminated end tag in <{tag}>")
            if text[pos + 2 : end].strip() != tag:
                raise XMLSyntaxError(
                    f"mismatched end tag </{text[pos + 2:end].strip()}> "
                    f"for <{tag}>"
                )
            pos = end + 1
            break
        if text[pos] == "<":
            child, pos = _parse_element(text, pos)
            node.children.append(child)
            continue
        nxt = text.find("<", pos)
        if nxt < 0:
            raise XMLSyntaxError(f"unterminated element <{tag}>")
        text_chunks.append(text[pos:nxt])
        pos = nxt
    if text_chunks and not node.children:
        node.text = _unescape("".join(text_chunks))
    return node, pos


def _parse_attributes(text: str, pos: int) -> Tuple[Dict[str, str], int]:
    attrib: Dict[str, str] = {}
    n = len(text)
    while True:
        pos = _skip_ws(text, pos)
        if pos >= n:
            raise XMLSyntaxError("unterminated start tag")
        if text[pos] in "/>":
            return attrib, pos
        eq = text.find("=", pos)
        if eq < 0:
            raise XMLSyntaxError(f"malformed attribute at position {pos}")
        name = text[pos:eq].strip()
        vpos = _skip_ws(text, eq + 1)
        if vpos >= n or text[vpos] not in "\"'":
            raise XMLSyntaxError(f"attribute {name!r} value must be quoted")
        quote = text[vpos]
        vend = text.find(quote, vpos + 1)
        if vend < 0:
            raise XMLSyntaxError(f"unterminated value for attribute {name!r}")
        attrib[name] = _unescape(text[vpos + 1 : vend])
        pos = vend + 1
