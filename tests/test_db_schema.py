"""Table schemas."""

import pytest

from repro.db.schema import Column, TableSchema
from repro.db.types import ColumnType
from repro.errors import SchemaError


def make_schema():
    return TableSchema(
        "Photo_Object",
        [
            Column("object_id", ColumnType.INT, nullable=False),
            Column("ra", ColumnType.FLOAT, nullable=False),
            Column("type", ColumnType.STRING),
        ],
    )


def test_column_names_in_order():
    assert make_schema().column_names == ["object_id", "ra", "type"]


def test_case_insensitive_lookup():
    schema = make_schema()
    assert schema.column_index("RA") == 1
    assert schema.has_column("TYPE")
    assert schema.column("Object_ID").name == "object_id"


def test_unknown_column_raises():
    with pytest.raises(SchemaError):
        make_schema().column_index("nope")


def test_duplicate_column_rejected():
    with pytest.raises(SchemaError):
        TableSchema("t", [Column("a", ColumnType.INT), Column("A", ColumnType.INT)])


def test_empty_schema_rejected():
    with pytest.raises(SchemaError):
        TableSchema("t", [])


def test_invalid_table_name_rejected():
    with pytest.raises(SchemaError):
        TableSchema("1bad", [Column("a", ColumnType.INT)])
    with pytest.raises(SchemaError):
        TableSchema("bad name", [Column("a", ColumnType.INT)])


def test_invalid_column_name_rejected():
    with pytest.raises(SchemaError):
        Column("bad-name", ColumnType.INT)


def test_coerce_row_positional():
    schema = make_schema()
    assert schema.coerce_row((1, 2.5, "GALAXY")) == [1, 2.5, "GALAXY"]


def test_coerce_columns_named_batch():
    schema = make_schema()
    batch = schema.coerce_columns([(2.5, 1)], ["ra", "object_id"])
    assert batch.rows() == [[1, 2.5, None]]


def test_coerce_columns_named_batch_case_insensitive():
    schema = make_schema()
    batch = schema.coerce_columns([(1.0, 2)], ["RA", "OBJECT_ID"])
    assert batch.rows() == [[2, 1.0, None]]


def test_coerce_columns_unknown_name():
    with pytest.raises(SchemaError, match="has no column 'nope'"):
        make_schema().coerce_columns([(1, 2)], ["object_id", "nope"])


def test_coerce_columns_missing_not_null_column():
    with pytest.raises(SchemaError, match="'object_id' is NOT NULL"):
        make_schema().coerce_columns([(1.0,)], ["ra"])  # object_id -> None


def test_coerce_row_wrong_width():
    with pytest.raises(SchemaError):
        make_schema().coerce_row((1, 2.0))


def test_coerce_row_not_null_enforced():
    with pytest.raises(SchemaError):
        make_schema().coerce_row((None, 1.0, None))


def test_coerce_row_type_enforced():
    with pytest.raises(SchemaError):
        make_schema().coerce_row((1, "not a float", None))
