"""The stdlib's expat behind a DOM-style memory model.

The paper (Section 6): *"The XML parser at the SkyNode would run out of
memory while parsing SOAP messages of about 10 MB. We worked around by
dividing large data sets into smaller chunks."*

A DOM parser materializes the whole document as objects, with a sizable
expansion factor over the raw bytes. This parser models that: the peak
memory charged for a parse is ``overhead_factor * document_bytes``, and if
a ``memory_limit_bytes`` is configured and exceeded, the parse fails with
:class:`~repro.errors.XMLMemoryError` *before* building the tree — exactly
the production failure the authors hit, made reproducible.

Parsing is ``xml.parsers.expat`` over the document's UTF-8 bytes, with no
namespace processing (tags and attributes keep their qnames); comments are
dropped, and text is kept only on an element without children. SOAP 1.1 §3
forbids a DOCTYPE (so every entity declaration) and processing
instructions: both are refused, as is nesting past :data:`MAX_DEPTH`, each
with an :class:`~repro.errors.XMLSyntaxError`.
"""

from __future__ import annotations

from typing import Dict, List, Optional
from xml.parsers import expat

from repro.errors import XMLMemoryError, XMLSyntaxError
from repro.soap.xmlwriter import Element

#: Default expansion of a text document into DOM objects. With the paper's
#: ~40 MB per-worker budget this makes parses fail just above 10 MB.
DEFAULT_OVERHEAD_FACTOR = 4.0

#: The deepest element nesting a document may have. A safety bound, not an
#: option: it keeps the recursive walks over a parsed tree (``decode_value``,
#: ``Element.iter``) off hostile inputs. The deepest document the test suite
#: and the five ledger workloads parse nests 10 elements (a ``SubmitQuery``
#: response's plan step's ``attr_select`` entry); 256 leaves a wide margin.
MAX_DEPTH = 256


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
        if isinstance(text, str):  # a lone surrogate: bytes expat refuses
            text = text.encode("utf-8", "surrogatepass")
        doc_bytes = len(text)
        needed = int(self.overhead_factor * doc_bytes)
        self.peak_memory_bytes = max(self.peak_memory_bytes, needed)
        if self.memory_limit_bytes is not None and needed > self.memory_limit_bytes:
            raise XMLMemoryError(
                f"XML parser out of memory: document of {doc_bytes} bytes "
                f"needs ~{needed} bytes, limit is {self.memory_limit_bytes}",
                document_bytes=doc_bytes,
                limit_bytes=self.memory_limit_bytes,
            )
        root = _build_tree(text)
        self.documents_parsed += 1
        return root


def parse_xml(
    text: str | bytes, *, memory_limit_bytes: Optional[int] = None
) -> Element:
    """One-shot parse with an optional memory budget."""
    return XMLParser(memory_limit_bytes=memory_limit_bytes).parse(text)


def _build_tree(data: bytes) -> Element:
    """One expat pass over UTF-8 bytes, whatever encoding they declare."""
    parser = expat.ParserCreate("utf-8")
    parser.buffer_text = True
    stack: List[Element] = [Element("")]  # a sentinel holding the root
    text: List[str] = []  # character data since the last tag

    def start(tag: str, attrib: Dict[str, str]) -> None:
        if len(stack) > MAX_DEPTH:
            raise XMLSyntaxError(f"document nests deeper than {MAX_DEPTH}")
        node = Element(tag, attrib)
        stack[-1].children.append(node)
        stack.append(node)
        text.clear()

    def end(tag: str) -> None:
        node = stack.pop()
        if text and not node.children:
            node.text = "".join(text)
        text.clear()

    def refuse(*args: object) -> None:
        raise XMLSyntaxError("SOAP forbids a DOCTYPE or processing instruction")

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = text.append
    parser.StartDoctypeDeclHandler = refuse
    parser.ProcessingInstructionHandler = refuse
    try:
        parser.Parse(data, True)
    except expat.ExpatError as exc:
        raise XMLSyntaxError(f"malformed XML: {exc}") from None
    return stack[0].children[0]
