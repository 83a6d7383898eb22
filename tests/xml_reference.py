"""The hand-written XML tokenizer, kept as a testing oracle.

This is the recursive-descent parser the SOAP layer first shipped with,
moved here verbatim when :mod:`repro.soap.xmlparser` switched to the
standard library's expat. It builds the same :class:`Element` trees: text
only on an element without children, comments skipped, entity and numeric
character references resolved. ``tests/test_xml_oracle.py`` holds the
production parser to it over generated rendered documents.

It is more lenient than XML 1.0: it reads raw C0 control characters and
keeps a raw CR, both of which a conforming parser refuses or normalises.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Tuple

from repro.errors import XMLSyntaxError
from repro.soap.encoding import WireRowSet
from repro.soap.xmlwriter import Element

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


def parse_reference(text: str) -> Element:
    """Parse a whole document with the hand-written tokenizer."""
    return _parse_document(text)


def xml_can_carry(text: str) -> bool:
    """Whether every character of ``text`` is in XML 1.0's ``Char``
    production: TAB, LF, CR, U+0020–U+D7FF, U+E000–U+FFFD, U+10000 and up."""
    return all(
        char in "\t\n\r"
        or 0x20 <= ord(char) <= 0xD7FF
        or 0xE000 <= ord(char) <= 0xFFFD
        or ord(char) >= 0x10000
        for char in text
    )


def wire_strings(value: Any) -> Iterator[str]:
    """Every string :func:`~repro.soap.encoding.encode_value` would put on
    the wire for ``value``: string scalars, and a rowset's column names and
    string cells, however deeply nested."""
    if isinstance(value, str):
        yield value
    elif isinstance(value, WireRowSet):
        yield from (name for name, _ in value.columns)
        yield from wire_strings(value.rows)
    elif isinstance(value, dict):
        yield from wire_strings(list(value.values()))
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from wire_strings(item)
