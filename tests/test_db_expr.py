"""Expression evaluation semantics, on the compiled form."""

import pytest

from repro.db.expr import compile_expr, compile_predicate
from repro.errors import QueryError
from repro.sql.ast import ColumnRef, Literal
from repro.sql.parser import parse_expression

CONSTANTS = {"GALAXY": "GALAXY", "STAR": "STAR"}


def ev(text, **values):
    columns = [ColumnRef("O", key) for key in values]
    compiled = compile_expr(parse_expression(text), columns, CONSTANTS)
    return compiled(list(values.values()))


def test_arithmetic():
    assert ev("1 + 2 * 3") == 7
    assert ev("(1 + 2) * 3") == 9
    assert ev("10 / 4") == 2.5
    assert ev("-5 + 3") == -2


def test_column_lookup_bare_and_qualified():
    assert ev("flux", flux=12.5) == 12.5
    assert ev("O.flux", flux=12.5) == 12.5


def test_unknown_column_raises():
    with pytest.raises(QueryError):
        ev("nope")


def test_unknown_qualifier_raises():
    with pytest.raises(QueryError):
        ev("T.flux", flux=1.0)


def test_named_constants():
    assert ev("GALAXY") == "GALAXY"
    assert ev("type = GALAXY", type="GALAXY") is True
    assert ev("type = GALAXY", type="STAR") is False


def test_column_shadows_constant():
    compiled = compile_expr(
        ColumnRef(None, "galaxy"), [ColumnRef("O", "galaxy")], {"galaxy": "CONST"}
    )
    assert compiled(["COLUMN"]) == "COLUMN"


def test_comparisons():
    assert ev("3 < 4") is True
    assert ev("3 >= 4") is False
    assert ev("3 <> 4") is True
    assert ev("'a' = 'a'") is True
    assert ev("'a' < 'b'") is True


def test_comparison_type_mismatch():
    with pytest.raises(QueryError):
        ev("'a' = 1")


def test_int_float_compare():
    assert ev("1 = 1.0") is True
    assert ev("2 > 1.5") is True


def test_null_propagation_in_arithmetic():
    assert ev("flux + 1", flux=None) is None


def test_null_comparisons_are_false():
    assert ev("flux > 1", flux=None) is False
    assert ev("flux = flux", flux=None) is False


def test_and_or_short_circuit():
    assert ev("1 < 2 AND 3 < 4") is True
    assert ev("1 > 2 AND nope = 1") is False  # right side never evaluated
    assert ev("1 < 2 OR nope = 1") is True


def test_not():
    assert ev("NOT 1 > 2") is True
    assert ev("NOT (1 < 2)") is False


def test_not_non_boolean_raises():
    with pytest.raises(QueryError):
        ev("NOT 5")


def test_unary_minus_non_number_raises():
    with pytest.raises(QueryError):
        ev("-'a'")


def test_division_by_zero():
    with pytest.raises(QueryError):
        ev("1 / 0")


def test_abs_function():
    assert ev("ABS(0 - 5)") == 5
    assert ev("ABS(flux)", flux=None) is None


def test_abs_without_argument_is_a_query_error():
    with pytest.raises(QueryError, match="ABS needs an argument"):
        ev("ABS()")


def test_unknown_function():
    with pytest.raises(QueryError):
        ev("FOO(1)")


def test_is_true():
    def is_true(value):
        return compile_predicate(Literal(value), [])([])

    assert is_true(True)
    assert not is_true(False)
    assert not is_true(None)
    assert not is_true(1)


def test_area_clause_not_evaluable():
    with pytest.raises(QueryError):
        ev("AREA(1.0, 2.0, 3.0)")
