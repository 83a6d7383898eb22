"""Typed value encoding and the rowset formats."""

import pytest

from repro.errors import SoapError
from repro.soap.encoding import (
    WireRowSet,
    decode_binary_rowset,
    decode_value,
    encode_binary_rowset,
    encode_value,
    infer_rowset,
    typecode_of,
)
from repro.soap.xmlparser import parse_xml
from repro.soap.xmlwriter import render


def roundtrip(value):
    return decode_value(parse_xml(render(encode_value("v", value))))


def test_scalar_roundtrips():
    for value in (1, -7, 3.5, "text", True, False, None, ""):
        assert roundtrip(value) == value


def test_bool_not_confused_with_int():
    assert roundtrip(True) is True
    assert roundtrip(1) == 1
    assert not isinstance(roundtrip(1), bool)


def test_float_precision_preserved():
    value = 0.1 + 0.2
    assert roundtrip(value) == value


def test_special_characters_in_strings():
    assert roundtrip("<tag> & 'quote' \"dq\"") == "<tag> & 'quote' \"dq\""


def test_struct_roundtrip():
    value = {"a": 1, "b": "x", "c": None, "nested": {"d": 2.5}}
    assert roundtrip(value) == value


def test_array_roundtrip():
    assert roundtrip([1, "two", 3.0, None]) == [1, "two", 3.0, None]


def test_array_of_structs():
    value = [{"a": 1}, {"a": 2}]
    assert roundtrip(value) == value


def test_typecode_of():
    assert typecode_of(True) == "boolean"
    assert typecode_of(2) == "int"
    assert typecode_of(2.0) == "double"
    assert typecode_of("s") == "string"
    with pytest.raises(SoapError):
        typecode_of(object())


def make_rowset():
    return WireRowSet(
        [("id", "int"), ("ra", "double"), ("name", "string"), ("ok", "boolean")],
        [
            (1, 185.5, "a <b> & 'c'", True),
            (2, -0.25, None, False),
            (None, 1.0, "x", None),
        ],
    )


def test_rowset_roundtrip_xml():
    rowset = make_rowset()
    back = roundtrip(rowset)
    assert isinstance(back, WireRowSet)
    assert back.columns == rowset.columns
    assert back.rows == rowset.rows


def test_rowset_roundtrip_binary():
    rowset = make_rowset()
    back = decode_binary_rowset(encode_binary_rowset(rowset))
    assert back.columns == rowset.columns
    assert back.rows == rowset.rows


def test_binary_smaller_than_xml():
    rowset = make_rowset()
    xml_size = len(render(encode_value("v", rowset)))
    assert len(encode_binary_rowset(rowset)) < xml_size


def test_binary_bad_magic():
    with pytest.raises(SoapError):
        decode_binary_rowset(b"NOPE" + b"\x00" * 16)


def test_rowset_bad_typecode_rejected():
    with pytest.raises(SoapError):
        WireRowSet([("a", "decimal")])


def test_rowset_wrong_width_rejected_on_encode():
    rowset = WireRowSet([("a", "int")], [(1, 2)])
    with pytest.raises(SoapError):
        encode_value("v", rowset)


def test_rowset_type_mismatch_rejected_on_encode():
    rowset = WireRowSet([("a", "int")], [("not an int",)])
    with pytest.raises(SoapError):
        encode_value("v", rowset)


def test_rowset_int_widens_to_double_column():
    rowset = WireRowSet([("a", "double")], [(1,)])
    back = roundtrip(rowset)
    assert back.rows == [(1.0,)]


def test_rowset_slice_and_concat():
    rowset = make_rowset()
    parts = [rowset.slice(0, 2), rowset.slice(2, 3)]
    merged = WireRowSet.concat(parts)
    assert merged.rows == rowset.rows


def test_concat_schema_mismatch():
    a = WireRowSet([("a", "int")])
    b = WireRowSet([("b", "int")])
    with pytest.raises(SoapError):
        WireRowSet.concat([a, b])


def test_concat_empty_rejected():
    with pytest.raises(SoapError):
        WireRowSet.concat([])


def test_column_names():
    assert make_rowset().column_names == ["id", "ra", "name", "ok"]


def test_infer_rowset():
    rowset = infer_rowset(
        ["i", "f", "s", "b", "n"],
        [(1, 2.5, "x", True, None), (2, 3.5, "y", False, None)],
    )
    codes = [code for _, code in rowset.columns]
    assert codes == ["int", "double", "string", "boolean", "string"]


def test_infer_rowset_mixed_int_float():
    rowset = infer_rowset(["v"], [(1,), (2.5,)])
    assert rowset.columns == [("v", "double")]
    assert rowset.rows[0] == (1.0,)


def test_infer_rowset_empty():
    rowset = infer_rowset(["a"], [])
    assert rowset.columns == [("a", "string")]


@pytest.mark.parametrize("key", ["COUNT(*)", "1x", "a:b", "", "a b", "Ĳ"])
def test_struct_key_that_is_no_xml_name_is_refused_at_the_sender(key):
    # A tag the receiver would refuse (or, for "a:b", read back as "b").
    with pytest.raises(SoapError, match="struct key"):
        encode_value("v", {key: 1})


def test_non_ascii_struct_keys_that_are_names_roundtrip():
    value = {"étoile": 1, "x·y": 2, "中文": 3}
    assert roundtrip(value) == value
