"""Property-based tests (hypothesis) on the core invariants."""

import math

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.errors import SoapError, XMLSyntaxError
from repro.htm.cover import cover
from repro.htm.index import id_for_point
from repro.htm.mesh import depth_of_id
from repro.htm.ranges import HTMRanges
from repro.soap.encoding import WireRowSet, decode_binary_rowset, decode_value, \
    encode_binary_rowset, encode_value
from repro.soap.xmlparser import parse_xml
from repro.soap.xmlwriter import render
from repro.sphere.coords import radec_to_vector, vector_to_radec
from repro.sphere.distance import angular_separation
from repro.sphere.regions import Cap
from repro.units import arcsec_to_rad
from repro.xmatch.chi2 import Accumulator
from tests.xml_reference import wire_strings, xml_can_carry

ra_strategy = st.floats(min_value=0.0, max_value=359.999999, allow_nan=False)
dec_strategy = st.floats(min_value=-89.999, max_value=89.999, allow_nan=False)


@given(ra=ra_strategy, dec=dec_strategy)
def test_radec_vector_roundtrip(ra, dec):
    back_ra, back_dec = vector_to_radec(radec_to_vector(ra, dec))
    # Angular distance between original and roundtripped position ~ 0.
    sep = angular_separation(
        radec_to_vector(ra, dec), radec_to_vector(back_ra, back_dec)
    )
    assert sep < 1e-9


@given(ra=ra_strategy, dec=dec_strategy, depth=st.integers(0, 14))
def test_htm_point_inside_own_trixel(ra, dec, depth):
    from repro.htm.mesh import trixel_by_id

    v = radec_to_vector(ra, dec)
    hid = id_for_point(v, depth)
    assert depth_of_id(hid) == depth
    assert trixel_by_id(hid).contains(v)


@given(
    ranges=st.lists(
        st.tuples(st.integers(0, 1000), st.integers(0, 1000)), max_size=20
    ),
    probe=st.integers(0, 1000),
)
def test_htm_ranges_membership_matches_naive(ranges, probe):
    rset = HTMRanges(ranges)
    naive = any(lo <= probe <= hi for lo, hi in ranges if lo <= hi)
    assert rset.contains(probe) == naive


@given(
    a=st.lists(st.tuples(st.integers(0, 500), st.integers(0, 500)), max_size=10),
    b=st.lists(st.tuples(st.integers(0, 500), st.integers(0, 500)), max_size=10),
    probe=st.integers(0, 500),
)
def test_htm_ranges_union_is_set_union(a, b, probe):
    ra, rb = HTMRanges(a), HTMRanges(b)
    assert ra.union(rb).contains(probe) == (ra.contains(probe) or rb.contains(probe))


@settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
@given(
    ra=ra_strategy,
    dec=st.floats(min_value=-85.0, max_value=85.0, allow_nan=False),
    radius=st.floats(min_value=1.0, max_value=7200.0, allow_nan=False),
    probe_ra=ra_strategy,
    probe_dec=dec_strategy,
    depth=st.integers(2, 10),
)
def test_cover_never_loses_points(ra, dec, radius, probe_ra, probe_dec, depth):
    cap = Cap.from_radec(ra, dec, radius)
    probe = radec_to_vector(probe_ra, probe_dec)
    result = cover(cap, depth)
    hid = id_for_point(probe, depth)
    if cap.contains(probe):
        assert result.full.contains(hid) or result.partial.contains(hid)
    if result.full.contains(hid):
        assert cap.contains(probe)


scalar_strategy = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=40),
)


def _encodes_iff_carriable(name, value):
    """The encoded element, or None when the encoder refused ``value``; it
    must refuse exactly a value holding a character XML cannot carry, and
    name that character by its code point, never raw."""
    if all(map(xml_can_carry, wire_strings(value))):
        return encode_value(name, value)
    with pytest.raises(SoapError, match=r"U\+[0-9A-F]{4}") as refused:
        encode_value(name, value)
    assert xml_can_carry(str(refused.value))
    return None


@given(value=scalar_strategy)
def test_soap_scalar_roundtrip(value):
    element = _encodes_iff_carriable("v", value)
    if element is None:
        return
    back = decode_value(parse_xml(render(element)))
    assert back == value
    assert type(back) is type(value)


@given(
    value=st.recursive(
        scalar_strategy,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(
                st.text(
                    alphabet=st.characters(min_codepoint=97, max_codepoint=122),
                    min_size=1,
                    max_size=8,
                ),
                children,
                max_size=4,
            ),
        ),
        max_leaves=12,
    )
)
def test_soap_nested_roundtrip(value):
    element = _encodes_iff_carriable("v", value)
    if element is None:
        return
    back = decode_value(parse_xml(render(element)))
    if isinstance(value, tuple):
        value = list(value)
    assert back == value


row_strategy = st.tuples(
    st.one_of(st.none(), st.integers(min_value=-(2**50), max_value=2**50)),
    st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False)),
    st.one_of(st.none(), st.text(max_size=30)),
    st.one_of(st.none(), st.booleans()),
)


@given(rows=st.lists(row_strategy, max_size=15))
def test_rowset_xml_roundtrip(rows):
    rowset = WireRowSet(
        [("i", "int"), ("d", "double"), ("s", "string"), ("b", "boolean")],
        rows,
    )
    element = _encodes_iff_carriable("v", rowset)
    if element is None:
        return
    back = decode_value(parse_xml(render(element)))
    assert back.columns == rowset.columns
    assert back.rows == rowset.rows


@given(rows=st.lists(row_strategy, max_size=15))
def test_rowset_binary_roundtrip(rows):
    rowset = WireRowSet(
        [("i", "int"), ("d", "double"), ("s", "string"), ("b", "boolean")],
        rows,
    )
    back = decode_binary_rowset(encode_binary_rowset(rowset))
    assert back.columns == rowset.columns
    assert back.rows == rowset.rows


@given(text=st.text(max_size=200))
def test_xml_text_roundtrip(text):
    from repro.soap.xmlwriter import Element

    document = render(Element("t", text=text))
    if not xml_can_carry(text):
        with pytest.raises(XMLSyntaxError):
            parse_xml(document)
        return
    assert parse_xml(document).text == text


@settings(max_examples=50)
@given(
    observations=st.lists(
        st.tuples(ra_strategy, dec_strategy, st.floats(0.05, 5.0)),
        min_size=1,
        max_size=6,
    )
)
def test_chi2_nonnegative_and_permutation_invariant(observations):
    import itertools

    def accumulate(order):
        acc = Accumulator.empty()
        for ra, dec, sigma in order:
            acc = acc.with_observation(
                radec_to_vector(ra, dec), arcsec_to_rad(sigma)
            )
        return acc

    forward = accumulate(observations)
    assert forward.chi2() >= 0.0
    reverse = accumulate(list(reversed(observations)))
    scale = max(1.0, forward.acc_scale if hasattr(forward, "acc_scale") else forward.a)
    # Permutation invariance up to the documented cancellation bound.
    assert math.isclose(
        forward.chi2(), reverse.chi2(),
        rel_tol=1e-6, abs_tol=1e-4 * max(1.0, forward.a / 1e10),
    )


@given(
    sql_ident=st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,10}", fullmatch=True),
    number=st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
    ),
)
def test_sql_expression_print_parse_fixpoint(sql_ident, number):
    from repro.sql.lexer import KEYWORDS
    from repro.sql.parser import parse_expression
    from repro.sql.printer import to_sql

    assume(sql_ident.upper() not in KEYWORDS)
    text = f"{sql_ident} + {number!r} > 2"
    expr = parse_expression(text)
    assert parse_expression(to_sql(expr)) == expr
