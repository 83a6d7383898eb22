"""The compact column-major wire form ("colset").

A :class:`ColumnarRowSet` must be a pure wire-shape choice: whatever the
sender wraps, the receiver decodes back to a plain :class:`WireRowSet`
with identical schema and rows — through the raw element codec and through
a full SOAP RPC envelope — while spending measurably fewer bytes on the
payloads the streaming chain actually ships.
"""

import pytest

from repro.errors import SoapError
from repro.soap.encoding import (
    ColumnarRowSet,
    WireRowSet,
    decode_value,
    encode_value,
)
from repro.soap.envelope import build_rpc_response, parse_rpc_response
from repro.soap.xmlparser import parse_xml
from repro.soap.xmlwriter import render
from repro.xmatch.wire import (
    rowset_to_tuples,
    tuple_schema,
    tuples_to_payload,
    tuples_to_rowset,
)


def roundtrip(value):
    return decode_value(parse_xml(render(encode_value("v", value))))


def make_rowset():
    return WireRowSet(
        [("id", "int"), ("ra", "double"), ("name", "string"), ("ok", "boolean")],
        [
            (1, 185.5, "a <b> & 'c'", True),
            (2, -0.25, None, False),
            (None, 1.0, "x", None),
        ],
    )


def test_colset_roundtrips_to_plain_rowset():
    rowset = make_rowset()
    back = roundtrip(ColumnarRowSet(rowset))
    assert isinstance(back, WireRowSet)  # receivers never see the wrapper
    assert back.columns == rowset.columns
    assert back.rows == rowset.rows


def test_colset_wire_element_is_colset_typed():
    xml = render(encode_value("v", ColumnarRowSet(make_rowset())))
    assert 'xsi:type="colset"' in xml
    assert "<r>" not in xml  # no per-row elements


def test_colset_through_soap_envelope():
    rowset = make_rowset()
    envelope = build_rpc_response("PullBatch", ColumnarRowSet(rowset))
    decoded = parse_rpc_response(envelope)
    assert isinstance(decoded, WireRowSet)
    assert decoded.rows == rowset.rows


def test_colset_empty_rowset():
    empty = WireRowSet([("id", "int"), ("name", "string")])
    back = roundtrip(ColumnarRowSet(empty))
    assert back.columns == empty.columns
    assert back.rows == []


def test_colset_all_null_column():
    rowset = WireRowSet(
        [("id", "int"), ("flag", "boolean")],
        [(1, None), (2, None), (3, None)],
    )
    back = roundtrip(ColumnarRowSet(rowset))
    assert back.rows == rowset.rows


def test_delta_encoding_restores_after_null_gaps():
    # Deltas are taken against the previous *non-NULL* value; decode must
    # mirror that convention exactly.
    rowset = WireRowSet(
        [("id", "int")], [(100,), (None,), (103,), (None,), (None,), (90,)]
    )
    back = roundtrip(ColumnarRowSet(rowset))
    assert back.rows == rowset.rows


def test_delta_encoding_handles_negative_and_unsorted_ids():
    rowset = WireRowSet([("id", "int")], [(-5,), (1000,), (-1000,), (0,)])
    back = roundtrip(ColumnarRowSet(rowset))
    assert back.rows == rowset.rows


def test_dictionary_encoding_keeps_xml_unsafe_strings_intact():
    rowset = WireRowSet(
        [("s", "string")],
        [("a <b> & 'c'",), ("_",), ("",), ("a <b> & 'c'",), ("  padded  ",)],
    )
    back = roundtrip(ColumnarRowSet(rowset))
    assert back.rows == rowset.rows


def test_dictionary_deduplicates_repeated_strings():
    repeated = WireRowSet([("s", "string")], [("GALAXY",)] * 200)
    distinct = WireRowSet(
        [("s", "string")], [(f"GALAXY-{i}",) for i in range(200)]
    )
    repeated_xml = render(encode_value("v", ColumnarRowSet(repeated)))
    distinct_xml = render(encode_value("v", ColumnarRowSet(distinct)))
    assert repeated_xml.count("GALAXY") == 1
    assert len(repeated_xml) < len(distinct_xml) / 2


def test_float_precision_preserved_through_colset():
    values = [0.1 + 0.2, 1e-300, -1.5e300, 3.141592653589793]
    rowset = WireRowSet([("x", "double")], [(v,) for v in values])
    back = roundtrip(ColumnarRowSet(rowset))
    assert [row[0] for row in back.rows] == values


def test_colset_smaller_than_rowset_on_chain_shaped_payload():
    # The payload shape the streaming chain ships: near-sorted id columns,
    # accumulator doubles, a low-cardinality string attribute.
    rowset = WireRowSet(
        [
            ("id_O", "int"),
            ("id_T", "int"),
            ("acc_a", "double"),
            ("type", "string"),
        ],
        [
            (1000 + i, 5000 + 2 * i, 1.0 + i / 7.0, ("GALAXY", "STAR")[i % 2])
            for i in range(500)
        ],
    )
    rowset_xml = render(encode_value("v", rowset))
    colset_xml = render(encode_value("v", ColumnarRowSet(rowset)))
    assert roundtrip(ColumnarRowSet(rowset)).rows == rowset.rows
    assert len(colset_xml) < 0.5 * len(rowset_xml)


def test_colset_slice_stays_columnar():
    sliced = ColumnarRowSet(make_rowset()).slice(0, 2)
    assert isinstance(sliced, ColumnarRowSet)
    assert len(sliced) == 2
    assert roundtrip(sliced).rows == make_rowset().rows[:2]


def test_colset_type_mismatch_rejected_on_encode():
    rowset = WireRowSet([("id", "int")], [("not-an-int",)])
    with pytest.raises(SoapError):
        render(encode_value("v", ColumnarRowSet(rowset)))


def test_colset_wrong_width_rejected_on_encode():
    rowset = WireRowSet([("id", "int"), ("ra", "double")])
    rowset.rows.append((1,))
    with pytest.raises(SoapError):
        render(encode_value("v", ColumnarRowSet(rowset)))


# -- the streamed batch payload ---------------------------------------------------

CHAIN_SQL = [
    # attribute payload (doubles + a dictionary-coded string) on two members
    "SELECT O.object_id, O.ra, T.obj_id, O.type, O.i_flux - T.i_flux AS color "
    "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T, "
    "FIRST:Primary_Object P "
    "WHERE AREA(185.0, -0.5, 900.0) AND XMATCH(O, T, P) < 3.5 "
    "AND O.type = GALAXY",
    # a drop-out member: fewer id columns than plan steps
    "SELECT O.object_id, O.ra, T.obj_id "
    "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T, "
    "FIRST:Primary_Object P "
    "WHERE AREA(185.0, -0.5, 900.0) AND XMATCH(O, T, !P) < 3.5",
]


@pytest.mark.parametrize("sql", CHAIN_SQL)
def test_streamed_batch_decodes_to_the_row_form(sql, monkeypatch):
    """``tuples_to_payload`` (what every ``PullBatch`` ships) is the row
    form in a different wire shape: a real chain's partial-tuple rows, sent
    through a PullBatch envelope, decode to exactly the rowset — and the
    rows — the classic ``<r><c>`` encoding carries, and the oracle's codec
    reads them back unchanged. This is what the retired ``rows`` stream
    format used to prove end to end."""
    from repro.federation.builder import FederationConfig, build_federation
    from repro.skynode import crossmatch

    shipped = []
    encode = crossmatch.tuples_to_payload

    def recording(rows, member_aliases, attr_columns):
        shipped.append((list(rows), member_aliases, attr_columns))
        return encode(rows, member_aliases, attr_columns)

    monkeypatch.setattr(crossmatch, "tuples_to_payload", recording)
    fed = build_federation(FederationConfig(n_bodies=400, seed=7))
    result = fed.portal.submit(sql)
    aliases = result.plan.member_aliases_after(0)
    attrs = result.plan.attr_columns_after(0)
    # The head's batch, shipped last: the answer as the Portal received it.
    rows, *schema = shipped[-1]
    assert schema == [aliases, attrs]
    assert rows
    rowset = WireRowSet(tuple_schema(aliases, attrs), rows)
    payload = tuples_to_payload(rows, aliases, attrs)
    assert isinstance(payload, ColumnarRowSet)
    decoded = parse_rpc_response(
        build_rpc_response("PullBatch", {"rows": payload, "batch": 0})
    )["rows"]
    assert decoded.columns == rowset.columns
    assert decoded.rows == rowset.rows
    assert decoded.rows == parse_rpc_response(
        build_rpc_response("PullBatch", {"rows": rowset, "batch": 0})
    )["rows"].rows
    tuples = rowset_to_tuples(decoded, aliases, attrs)
    assert tuples_to_rowset(tuples, aliases, attrs).rows == rows
