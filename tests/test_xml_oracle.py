"""The expat-backed parser against the hand-written tokenizer it replaced.

``tests/xml_reference.py`` is the recursive-descent parser the SOAP layer
first shipped with. Over generated element trees — qname tags, attributes
and text full of markup characters, CR, TAB, LF and non-ASCII, rendered
with or without the XML declaration and an indent, with comments planted
between the tags — both parsers must build the very tree that was rendered.
Production must also refuse what SOAP 1.1 forbids (a DOCTYPE, a processing
instruction) and nesting past :data:`~repro.soap.xmlparser.MAX_DEPTH`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import XMLSyntaxError
from repro.soap.xmlparser import MAX_DEPTH, parse_xml
from repro.soap.xmlwriter import Element, render
from tests.xml_reference import parse_reference, xml_can_carry

#: XML names, some with a namespace prefix (kept as part of the qname).
NAMES = st.builds(
    "{}{}{}".format,
    st.sampled_from(["", "", "a:", "soap:", "xsi:"]),
    st.sampled_from("aZ_"),
    st.text(alphabet="aZ_09.-", max_size=4),
)

#: Anything XML can carry, leaning on the characters the writer escapes.
TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from("&<>\"'\t\n\r ;#]x"),
        st.characters(exclude_categories=("Cs",)).filter(xml_can_carry),
    ),
    max_size=8,
)

#: A comment whose body opens with a space: the reference ends a comment at
#: the first ``-->`` it finds from ``<!--``, so it misreads ``<!-->...-->``.
COMMENT = st.text(alphabet=st.sampled_from("ab <>&;\n"), max_size=6).map(
    lambda body: f"<!-- {body}-->"
)


ATTRIBS = st.dictionaries(NAMES, TEXT, max_size=2)

#: Text only on leaves, as the model has it; a leaf's text may be empty.
TREES = st.recursive(
    st.builds(Element, NAMES, ATTRIBS, st.builds(list), TEXT),
    lambda kids: st.builds(
        Element, NAMES, ATTRIBS, st.lists(kids, min_size=1, max_size=4)
    ),
    max_leaves=8,
)


@st.composite
def documents(draw):
    """A rendered tree, with comments after some tags and trailing
    whitespace; every literal ``>`` the writer emits closes a tag."""
    tree = draw(TREES)
    text = render(
        tree,
        declaration=draw(st.booleans()),
        indent=draw(st.sampled_from([None, "", " ", "\t", "  "])),
    )
    ends = [at + 1 for at, char in enumerate(text) if char == ">"]
    marked = set(draw(st.lists(st.sampled_from(ends), max_size=4)))
    pieces, start = [], 0
    for end in sorted(marked):
        pieces += [text[start:end], draw(COMMENT)]
        start = end
    pieces += [text[start:], draw(st.sampled_from(["", "\n", " \r\n\t"]))]
    return tree, "".join(pieces)


@settings(max_examples=100, deadline=None)
@given(documents())
def test_both_parsers_build_the_rendered_tree(case):
    tree, text = case
    assert parse_reference(text) == tree
    assert parse_xml(text) == tree
    assert parse_xml(text.encode("utf-8")) == tree


@pytest.mark.parametrize(
    "text",
    [
        '<!DOCTYPE a [<!ENTITY x "boom">]><a>&x;</a>',
        '<?xml version="1.0"?><!DOCTYPE a SYSTEM "a.dtd"><a/>',
        "<a><?pi ?></a>",
        '<?xml version="1.0"?><?xml-stylesheet href="s"?><a/>',
        "<a/><?pi?>",
    ],
    ids=["doctype-entity", "doctype-system", "pi-in-element", "pi-prolog",
         "pi-after-root"],
)
def test_doctype_and_processing_instructions_are_refused(text):
    with pytest.raises(XMLSyntaxError, match="forbids a DOCTYPE or processing"):
        parse_xml(text)


def test_nesting_is_bounded():
    deepest = "<a>" * MAX_DEPTH + "</a>" * MAX_DEPTH
    assert parse_xml(deepest).tag == "a"
    over = "<a>" + deepest + "</a>"
    with pytest.raises(XMLSyntaxError, match="deeper than"):
        parse_xml(over)
