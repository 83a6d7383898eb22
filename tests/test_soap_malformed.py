"""Hostile payloads: every malformed body is a typed SOAP error.

A service must answer a body it cannot decode with a ``soap:Client``
fault — never a raw traceback out of ``handle_soap`` — and keep serving;
a client parsing a malformed response gets a :class:`SoapError` (base64
doubles of the wrong length or alphabet, and NULL bitmaps that do not fit
the row count, included). A colset's
``rows`` attribute is only a claim: a count no column backs is refused
without materialising it.
"""

import time

import pytest

from repro.errors import SoapError, SoapFaultError
from repro.services.framework import WebService
from repro.soap.envelope import (
    SKYQUERY_NS,
    SOAP_ENV_NS,
    XSI_NS,
    build_rpc_request,
    parse_rpc_response,
)
from repro.soap.encoding import WireRowSet
from repro.soap.xmlparser import MAX_DEPTH

_DECL = '<?xml version="1.0" encoding="utf-8"?>'
_OPEN = (
    _DECL
    + f'<soap:Envelope xmlns:soap="{SOAP_ENV_NS}" xmlns:xsi="{XSI_NS}" '
    f'xmlns:sky="{SKYQUERY_NS}"><soap:Body>'
)
_CLOSE = "</soap:Body></soap:Envelope>"
_VALID = build_rpc_request(
    "Take", {"value": WireRowSet([("c", "int")], [(1,)])}
)


def _take(value_xml):
    """A ``Take`` request whose param is ``value_xml``."""
    return _OPEN + "<sky:Take>" + value_xml + "</sky:Take>" + _CLOSE


def _colset(code, data, extra=""):
    return (
        f'<{{tag}} xsi:type="colset" rows="1"><schema><col name="c" '
        f'type="{code}"/></schema><cols><col>{extra}<data>{data}</data>'
        f"</col></cols></{{tag}}>"
    )


#: One malformed value each; ``{tag}`` is the element it travels as.
MALFORMED = {
    "colset-int-token": _colset("int", "12x"),
    "colset-double-token": _colset("double", "1.5.2"),
    "colset-dict-index": _colset("string", "zz", "<dict><v>a</v></dict>"),
    # A double column is base64 float64: 10 bytes for one row, a character
    # outside the alphabet, a NULL bitmap of 3 bytes for one row, and one
    # whose bit for a second row is set.
    "colset-double-base64-length": _colset("double", "AAAAAAAAAAAAAA=="),
    "colset-double-base64-alphabet": _colset("double", "AAAA!AAAAAA="),
    "colset-double-bitmap-length": _colset("double", "", "<nulls>AAAA</nulls>"),
    "colset-double-bitmap-past-rows": _colset("double", "", "<nulls>Ag==</nulls>"),
    "colset-boolean-token": _colset("boolean", "yes"),
    "colset-no-cols": '<{tag} xsi:type="colset" rows="0"><schema/></{tag}>',
    "rowset-no-data": (
        '<{tag} xsi:type="rowset" rows="0"><schema><col name="c" '
        'type="int"/></schema></{tag}>'
    ),
    "rowset-bad-cell": (
        '<{tag} xsi:type="rowset" rows="1"><schema><col name="c" '
        'type="int"/></schema><data><r><c>abc</c></r></data></{tag}>'
    ),
    "scalar-int": '<{tag} xsi:type="int">forty-two</{tag}>',
}


def _service():
    service = WebService("Sink")
    service.register(
        "Take", lambda value: 1, params=(("value", "rowset"),), returns="int"
    )
    return service


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_request_is_a_client_fault_and_the_service_serves_on(case):
    service = _service()
    status, xml = service.handle_soap(
        _take(MALFORMED[case].format(tag="value")).encode("utf-8")
    )
    assert status == 500
    with pytest.raises(SoapFaultError) as fault:
        parse_rpc_response(xml)
    assert fault.value.faultcode == "soap:Client"
    assert "malformed request" in fault.value.faultstring
    # The next valid request is answered as if nothing had happened.
    status, xml = service.handle_soap(_VALID.encode("utf-8"))
    assert status == 200
    assert parse_rpc_response(xml) == 1


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_response_is_a_soap_error(case):
    body = _OPEN + "<sky:TakeResponse>" \
        + MALFORMED[case].format(tag="result") + "</sky:TakeResponse>" + _CLOSE
    with pytest.raises(SoapError):
        parse_rpc_response(body)


@pytest.mark.parametrize("rows", ["2000000000", "-1", "1"])
def test_zero_column_colset_refuses_its_claimed_row_count(rows):
    # ~330 bytes that would otherwise decode to that many empty rows.
    body = (
        _OPEN + "<sky:TakeResponse>"
        f'<result xsi:type="colset" rows="{rows}"><schema/><cols/></result>'
        "</sky:TakeResponse>" + _CLOSE
    )
    started = time.perf_counter()
    with pytest.raises(SoapError):
        parse_rpc_response(body)
    assert time.perf_counter() - started < 0.5
    status, xml = _service().handle_soap(
        body.replace("TakeResponse", "Take").replace("result", "value").encode()
    )
    assert status == 500 and "soap:Client" in xml


def test_negative_row_count_refused_even_with_columns():
    body = (
        _OPEN + "<sky:TakeResponse>"
        '<result xsi:type="colset" rows="-1"><schema><col name="c" '
        'type="int"/></schema><cols><col><data/></col></cols></result>'
        "</sky:TakeResponse>" + _CLOSE
    )
    with pytest.raises(SoapError, match="row count"):
        parse_rpc_response(body)


@pytest.mark.parametrize(
    "body",
    [
        b"\xff\xfe<not-utf8/>",
        ("<a>" * 5000 + "</a>" * 5000).encode(),
        _VALID[: _VALID.index("<schema>") + 5].encode(),
        _take('<value xsi:type="string">&x;</value>').replace(
            _DECL, _DECL + '<!DOCTYPE soap:Envelope [<!ENTITY x "boom">]>'
        ).encode(),
        _take('<?pi ?><value xsi:type="int">1</value>').encode(),
        _take(
            '<value xsi:type="struct">' * 5000 + "</value>" * 5000
        ).encode(),
    ],
    ids=[
        "not-utf8",
        "too-deep",
        "truncated",
        "doctype-entity",
        "processing-instruction",
        "deep-struct-param",
    ],
)
def test_undecodable_documents_are_client_faults(body):
    service = _service()
    status, xml = service.handle_soap(body)
    assert status == 500 and "soap:Client" in xml
    # The next valid request is answered as if nothing had happened.
    status, xml = service.handle_soap(_VALID.encode("utf-8"))
    assert status == 200
    assert parse_rpc_response(xml) == 1


@pytest.mark.parametrize("xsi_type", ["struct", "array"])
def test_the_deepest_param_the_parser_admits_is_decoded(xsi_type):
    # The depth bound is what keeps the recursive decoder safe: a param as
    # deep as it admits (Envelope, Body and the call take three levels)
    # decodes and is served.
    levels = MAX_DEPTH - 3
    body = _take(f'<value xsi:type="{xsi_type}">' * levels + "</value>" * levels)
    status, xml = _service().handle_soap(body.encode("utf-8"))
    assert status == 200 and parse_rpc_response(xml) == 1
