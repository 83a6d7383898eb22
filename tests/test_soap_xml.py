"""XML writer and parser."""

import pytest

from repro.errors import SoapError, XMLMemoryError, XMLSyntaxError
from repro.soap.xmlparser import XMLParser, parse_xml
from repro.soap.xmlwriter import Element, escape_attr, escape_text, render


def test_escape_text():
    assert escape_text("a < b & c > d") == "a &lt; b &amp; c &gt; d"


def test_escape_attr_quotes_and_newlines():
    assert escape_attr('say "hi"\n') == "say &quot;hi&quot;&#10;"


def test_render_empty_element():
    assert render(Element("a"), declaration=False) == "<a/>"


def test_render_attributes():
    el = Element("a", {"x": "1", "y": 'q"t'})
    assert render(el, declaration=False) == '<a x="1" y="q&quot;t"/>'


def test_render_text_content():
    el = Element("a", text="x < y")
    assert render(el, declaration=False) == "<a>x &lt; y</a>"


def test_render_nested():
    root = Element("a")
    root.child("b", text="1")
    root.child("c")
    assert render(root, declaration=False) == "<a><b>1</b><c/></a>"


def test_declaration_emitted():
    assert render(Element("a")).startswith('<?xml version="1.0"')


def test_pretty_indent():
    root = Element("a")
    root.child("b")
    pretty = render(root, declaration=False, indent="  ")
    assert "\n  <b/>" in pretty


def test_roundtrip():
    root = Element("root", {"k": "v & w"})
    child = root.child("item", text="hello <world>", idx="1")
    root.child("empty")
    parsed = parse_xml(render(root))
    assert parsed.tag == "root"
    assert parsed.attrib == {"k": "v & w"}
    assert parsed.children[0].text == "hello <world>"
    assert parsed.children[0].attrib == {"idx": "1"}
    assert parsed.children[1].tag == "empty"


def test_roundtrip_pretty():
    root = Element("root")
    root.child("a", text="1")
    parsed = parse_xml(render(root, indent="  "))
    assert parsed.find("a").text == "1"


def test_find_prefix_insensitive():
    root = Element("soap:Envelope")
    root.child("soap:Body")
    assert root.find("Body") is not None
    assert root.find("soap:Body") is not None
    assert root.find("Nope") is None


def test_require_raises():
    # A missing required element is a malformed document: a typed SOAP
    # error a service turns into a fault, not a bare KeyError.
    with pytest.raises(SoapError, match="no child <b>"):
        Element("a").require("b")


def test_iter_depth_first():
    root = Element("a")
    b = root.child("b")
    b.child("c")
    root.child("d")
    assert [e.tag for e in root.iter()] == ["a", "b", "c", "d"]


def test_comments_skipped():
    parsed = parse_xml("<!-- head --><a><!-- inner --><b/></a><!-- tail -->")
    assert parsed.children[0].tag == "b"


def test_mismatched_tags_rejected():
    with pytest.raises(XMLSyntaxError):
        parse_xml("<a><b></a></b>")


def test_unterminated_rejected():
    with pytest.raises(XMLSyntaxError):
        parse_xml("<a><b>")


def test_trailing_content_rejected():
    with pytest.raises(XMLSyntaxError):
        parse_xml("<a/><b/>")


def test_unquoted_attribute_rejected():
    with pytest.raises(XMLSyntaxError):
        parse_xml("<a x=1/>")


def test_memory_limit_enforced():
    doc = "<a>" + "x" * 1000 + "</a>"
    parser = XMLParser(memory_limit_bytes=2000, overhead_factor=4.0)
    with pytest.raises(XMLMemoryError) as err:
        parser.parse(doc)
    assert err.value.limit_bytes == 2000
    assert err.value.document_bytes == len(doc)


def test_memory_limit_allows_small_documents():
    parser = XMLParser(memory_limit_bytes=10_000)
    assert parser.parse("<a/>").tag == "a"
    assert parser.documents_parsed == 1


def test_peak_memory_tracked():
    parser = XMLParser()
    parser.parse("<a/>")
    small = parser.peak_memory_bytes
    parser.parse("<a>" + "y" * 500 + "</a>")
    assert parser.peak_memory_bytes > small


def test_bytes_input():
    assert parse_xml(b"<a>text</a>").text == "text"


def test_overhead_factor_validated():
    with pytest.raises(ValueError):
        XMLParser(overhead_factor=0.5)
