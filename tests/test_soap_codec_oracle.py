"""The column-wise colset codec against its per-cell reference.

``tests/colset_reference.py`` is the codec as it first shipped. For any
schema and any cells — NULLs, bools, ints in double columns,
``numpy.float64``, NaN, ±inf, −0.0, huge and negative ints, XML-hostile and
non-ASCII text, zero rows — the production encoder must emit the very same
bytes, decoding must give back exactly the cells the reference gives back
(NaN compared by ``repr``), and every rowset the reference refuses must be
refused here with a :class:`SoapError`.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SoapError
from repro.soap.encoding import ColumnarRowSet, WireRowSet, decode_value, encode_value
from repro.soap.xmlparser import parse_xml
from repro.soap.xmlwriter import render
from tests.colset_reference import decode_colset, encode_colset

CODES = ("int", "double", "string", "boolean")

HOSTILE_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from("&<>\"'\t\n _;#ab"),
        st.characters(min_codepoint=0xA0, max_codepoint=0x2FFF),
    ),
    max_size=8,
)

VALID = {
    "int": st.integers() | st.integers(min_value=-(2**70), max_value=2**70),
    "double": st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan, 1e-300]),
        st.integers(min_value=-(2**60), max_value=2**60),
        st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    ),
    "string": HOSTILE_TEXT,
    "boolean": st.booleans(),
}

#: Values that fail some column's type check, or that the reference cannot
#: encode at all (an int too large for a double).
WRONG = st.sampled_from(
    ["x", 7, 2.5, True, b"bytes", np.int64(3), 10**400, ("t",)]
)


@st.composite
def rowsets(draw):
    codes = draw(st.lists(st.sampled_from(CODES), min_size=1, max_size=4))
    names = draw(
        st.lists(HOSTILE_TEXT.filter(bool), min_size=len(codes),
                 max_size=len(codes))
    )
    rows = draw(
        st.lists(
            st.tuples(
                *(st.one_of(st.none(), VALID[code], VALID[code])
                  for code in codes)
            ),
            max_size=12,
        )
    )
    if rows and draw(st.booleans()):
        # One planted value, so a refusal is that value's alone.
        r = draw(st.integers(0, len(rows) - 1))
        c = draw(st.integers(0, len(codes) - 1))
        row = list(rows[r])
        row[c] = draw(WRONG)
        rows[r] = tuple(row)
    return WireRowSet(list(zip(names, codes)), rows)


def _wire(rowset):
    """The cells as the wire carries them: doubles as python floats."""
    return [
        tuple(
            float(v) if code == "double" and v is not None else v
            for v, (_, code) in zip(row, rowset.columns)
        )
        for row in rowset.rows
    ]


@settings(max_examples=300, deadline=None)
@given(rowsets())
@example(WireRowSet([("c", "int")], []))  # 0 rows
@example(WireRowSet([("c", "double")], [(np.float64(-0.0),)]))  # 1 x 1
@example(WireRowSet([("c", "int")], [(1,), (True,)]))  # a bool is no int
@example(WireRowSet([("c", "double")], [(1.5,), (10**400,)]))  # overflow
@example(WireRowSet([("c", "int")], [(np.int64(3),)]))
@example(WireRowSet([("c", "string")], [("a",), (None,), (7,)]))
def test_colset_codec_matches_the_reference(rowset):
    try:
        reference = render(encode_colset("v", rowset))
    except Exception:  # the reference refuses: a type error or an overflow
        with pytest.raises(SoapError):
            encode_value("v", ColumnarRowSet(rowset))
        return
    xml = render(encode_value("v", ColumnarRowSet(rowset)))
    assert xml == reference
    back = decode_value(parse_xml(xml))
    assert back.columns == rowset.columns
    assert repr(back.rows) == repr(_wire(rowset))
    assert repr(back.rows) == repr(decode_colset(parse_xml(xml)).rows)


def test_zero_column_colset():
    empty = WireRowSet([], [])
    assert render(encode_value("v", ColumnarRowSet(empty))) == render(
        encode_colset("v", empty)
    )
    assert decode_value(parse_xml(render(encode_value(
        "v", ColumnarRowSet(empty))))).rows == []
    # No column could carry them, so no decoder would accept them back.
    with pytest.raises(SoapError, match="no columns"):
        encode_value("v", ColumnarRowSet(WireRowSet([], [(), ()])))


# -- doubles travel as base64 float64: every bit round-trips ---------------------


def _bits(value):
    return struct.pack("<d", value)


#: Doubles whose bits ``repr`` text would not all keep or that sit at the
#: edges of the format: -0.0, NaNs with payload bits (quiet and
#: signalling, either sign), infinities and subnormals.
EDGE_DOUBLES = [
    -0.0,
    struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_0000_0001))[0],
    struct.unpack("<d", struct.pack("<Q", 0xFFF0_0000_DEAD_BEEF))[0],
    struct.unpack("<d", struct.pack("<Q", 0x7FF4_0000_0000_0000))[0],
    math.inf,
    -math.inf,
    5e-324,
    -2.225073858507201e-308,
]

DOUBLE_CELLS = st.one_of(
    st.sampled_from(EDGE_DOUBLES),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.integers(min_value=-(2**1000), max_value=2**1000),
    st.sampled_from([2**53 + 1, -(2**53) - 1, 2**63, 2**1023]),
    st.floats().map(np.float64),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.none(), DOUBLE_CELLS), max_size=20))
@example([])  # 0 rows
@example([-0.0])  # 1 row
@example([None, 1.0, 2.0])  # NULL first
@example([1.0, 2.0, None])  # NULL last
@example([None] * 9)  # NULL everywhere, past one bitmap byte
@example(EDGE_DOUBLES)
def test_double_column_round_trips_bit_for_bit(cells):
    rowset = WireRowSet([("d", "double")], [(cell,) for cell in cells])
    xml = render(encode_value("v", ColumnarRowSet(rowset)))
    back = [row[0] for row in decode_value(parse_xml(xml)).rows]
    assert len(back) == len(cells)
    for sent, got in zip(cells, back):
        if sent is None:
            assert got is None
        else:
            # An int arrives as float() converts it; everything else keeps
            # its bits, NaN payloads included.
            assert type(got) is float and _bits(got) == _bits(float(sent))
    if not cells:
        assert "<data/>" in xml


@pytest.mark.parametrize("cells", [[10**400], [None, 1.5, -(10**309)]])
def test_an_int_no_double_holds_is_a_soap_error(cells):
    rowset = WireRowSet([("d", "double")], [(cell,) for cell in cells])
    with pytest.raises(SoapError, match="does not fit a double"):
        encode_value("v", ColumnarRowSet(rowset))
