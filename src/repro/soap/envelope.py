"""SOAP 1.1 envelopes: RPC requests, responses, and faults.

Requests may carry SOAP Header blocks: the distributed-tracing context
(``<sq:TraceContext traceId=".." parentSpanId=".."/>``) and the
query-lifetime budget (``<sq:QueryBudget deadlineS=".." queryId=".."/>``,
the absolute deadline on the sim clock). Without a tracer or budget the
Header is omitted entirely, so plain envelopes stay byte-identical to
the original wire format.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional, Tuple

from repro.budget import QueryBudget
from repro.errors import SoapError, SoapFaultError
from repro.soap.encoding import decode_value, encode_value
from repro.soap.xmlparser import XMLParser
from repro.soap.xmlwriter import Element, escape_non_xml_chars, render
from repro.tracing.tracer import TraceContext

SOAP_ENV_NS = "http://schemas.xmlsoap.org/soap/envelope/"
XSI_NS = "http://www.w3.org/2001/XMLSchema-instance"
SKYQUERY_NS = "urn:skyquery:services"
TRACING_NS = "urn:skyquery:tracing"
BUDGET_NS = "urn:skyquery:budget"


def _envelope(
    body_child: Element, header_children: Tuple[Element, ...] = ()
) -> Element:
    root = Element(
        "soap:Envelope",
        {
            "xmlns:soap": SOAP_ENV_NS,
            "xmlns:xsi": XSI_NS,
            "xmlns:sky": SKYQUERY_NS,
        },
    )
    if header_children:
        header = root.child("soap:Header")
        header.children.extend(header_children)
    body = root.child("soap:Body")
    body.children.append(body_child)
    return root


def _trace_header(context: TraceContext) -> Element:
    return Element(
        "sq:TraceContext",
        {
            "xmlns:sq": TRACING_NS,
            "traceId": context.trace_id,
            "parentSpanId": context.parent_span_id,
        },
    )


def _budget_header(budget: QueryBudget) -> Element:
    attrs = {
        "xmlns:sq": BUDGET_NS,
        "deadlineS": repr(budget.deadline_s),
    }
    if budget.query_id:
        attrs["queryId"] = budget.query_id
    return Element("sq:QueryBudget", attrs)


def build_rpc_request(
    operation: str,
    params: Dict[str, Any],
    *,
    trace_context: Optional[TraceContext] = None,
    budget: Optional[QueryBudget] = None,
) -> str:
    """Serialize an RPC call: operation element wrapping encoded parameters.

    With ``trace_context``, a ``<sq:TraceContext>`` Header block precedes
    the Body so the callee can parent its server span under the caller's
    span; with ``budget``, a ``<sq:QueryBudget>`` block carries the
    query's absolute deadline to the callee. Without either, the
    envelope has no Header at all.
    """
    call = Element(f"sky:{operation}")
    for name, value in params.items():
        call.children.append(encode_value(name, value))
    headers: Tuple[Element, ...] = ()
    if trace_context:
        headers += (_trace_header(trace_context),)
    if budget is not None:
        headers += (_budget_header(budget),)
    return render(_envelope(call, headers))


def build_rpc_response(operation: str, result: Any) -> str:
    """Serialize an RPC response: ``<{op}Response><result>...</result></...>``."""
    wrapper = Element(f"sky:{operation}Response")
    wrapper.children.append(encode_value("result", result))
    return render(_envelope(wrapper))


def build_fault(faultcode: str, faultstring: str, detail: str = "") -> str:
    """Serialize a SOAP Fault response. It never raises: a character XML
    cannot carry in the message or detail travels as its ``\\x08`` escape."""
    fault = Element("soap:Fault")
    fault.child("faultcode", text=faultcode)
    fault.child("faultstring", text=escape_non_xml_chars(faultstring))
    if detail:
        fault.child("detail", text=escape_non_xml_chars(detail))
    return render(_envelope(fault))


def _body_of(document: Element) -> Element:
    if document.local_name() != "Envelope":
        raise SoapError(f"not a SOAP envelope: <{document.tag}>")
    body = document.find("Body")
    if body is None or not body.children:
        raise SoapError("SOAP envelope has no Body content")
    return body.children[0]


def parse_trace_context(document: Element) -> Optional[TraceContext]:
    """The envelope's ``<sq:TraceContext>`` Header block, if present."""
    header = document.find("Header")
    if header is None:
        return None
    block = header.find("TraceContext")
    if block is None:
        return None
    trace_id = block.get("traceId")
    parent = block.get("parentSpanId")
    if not trace_id or not parent:
        return None
    return TraceContext(trace_id, parent)


def parse_query_budget(document: Element) -> Optional[QueryBudget]:
    """The envelope's ``<sq:QueryBudget>`` Header block, if present.

    A ``deadlineS`` that is missing, unparsable or not finite (``nan``,
    ``inf``) is dropped: such a budget could never expire, and its NaN
    would reach every timeout clamped to it.
    """
    header = document.find("Header")
    if header is None:
        return None
    block = header.find("QueryBudget")
    if block is None:
        return None
    deadline = block.get("deadlineS")
    if not deadline:
        return None
    try:
        deadline_s = float(deadline)
    except ValueError:
        return None
    if not math.isfinite(deadline_s):
        return None
    return QueryBudget(deadline_s, block.get("queryId") or "")


def parse_rpc_request(
    text: str | bytes, parser: Optional[XMLParser] = None
) -> Tuple[str, Dict[str, Any]]:
    """Parse a request envelope into (operation, decoded params)."""
    operation, params, _, _ = parse_rpc_call(text, parser)
    return operation, params


def parse_rpc_call(
    text: str | bytes, parser: Optional[XMLParser] = None
) -> Tuple[str, Dict[str, Any], Optional[TraceContext], Optional[QueryBudget]]:
    """Parse a request envelope into (operation, params, trace, budget)."""
    parser = parser or XMLParser()
    document = parser.parse(text)
    content = _body_of(document)
    operation = content.local_name()
    params = {kid.local_name(): decode_value(kid) for kid in content.children}
    return (
        operation,
        params,
        parse_trace_context(document),
        parse_query_budget(document),
    )


def parse_rpc_response(
    text: str | bytes, parser: Optional[XMLParser] = None
) -> Any:
    """Parse a response envelope; raises :class:`SoapFaultError` on faults."""
    parser = parser or XMLParser()
    content = _body_of(parser.parse(text))
    if content.local_name() == "Fault":
        code = content.find("faultcode")
        message = content.find("faultstring")
        detail = content.find("detail")
        raise SoapFaultError(
            code.text if code is not None else "soap:Server",
            message.text if message is not None else "unknown fault",
            detail.text if detail is not None else "",
        )
    if not content.local_name().endswith("Response"):
        raise SoapError(f"unexpected response element <{content.tag}>")
    result = content.find("result")
    if result is None:
        raise SoapError("RPC response has no <result>")
    return decode_value(result)
