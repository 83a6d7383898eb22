"""XML and SOAP 1.1 wire format.

The paper's whole argument rests on Web services: SOAP messages over HTTP
with XML payloads, WSDL service descriptions, and a UDDI-style registry.
This package implements a real (small) XML writer, SOAP envelopes with
RPC request/response/fault conventions, a typed value/rowset encoding, and
WSDL generation — all as actual serialized text so that message sizes,
serialization overhead (paper Section 6), and the XML parser's memory
ceiling (the ~10 MB failures the authors report) are genuinely exercised.
Parsing is the stdlib's expat behind that memory model, refusing what SOAP
1.1 forbids (a DOCTYPE, processing instructions) and bounding nesting.
"""

from repro.soap.xmlwriter import Element, escape_attr, escape_text, render
from repro.soap.xmlparser import XMLParser, parse_xml
from repro.soap.encoding import (
    WireRowSet,
    decode_binary_rowset,
    decode_value,
    encode_binary_rowset,
    encode_value,
)
from repro.soap.envelope import (
    SOAP_ENV_NS,
    build_fault,
    build_rpc_request,
    build_rpc_response,
    parse_rpc_request,
    parse_rpc_response,
)
from repro.soap.wsdl import OperationSpec, ServiceDescription, generate_wsdl, parse_wsdl

__all__ = [
    "Element",
    "escape_attr",
    "escape_text",
    "render",
    "XMLParser",
    "parse_xml",
    "WireRowSet",
    "decode_binary_rowset",
    "decode_value",
    "encode_binary_rowset",
    "encode_value",
    "SOAP_ENV_NS",
    "build_fault",
    "build_rpc_request",
    "build_rpc_response",
    "parse_rpc_request",
    "parse_rpc_response",
    "OperationSpec",
    "ServiceDescription",
    "generate_wsdl",
    "parse_wsdl",
]
