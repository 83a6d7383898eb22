"""The dict-row coercion loop, kept as a testing oracle.

:func:`coerce_dict_rows` is how named rows reached a table before
:meth:`TableSchema.coerce_columns` took names: unknown names were refused
first (a 2PC participant's prepare check), then every row became a dict,
``dict(zip(names, row))``, coerced one cell at a time against the schema's
columns: names matched case-insensitively, and a column not named read as
NULL. ``tests/test_coerce_oracle.py`` holds the named column path to it,
value for value and error for error.
"""

from __future__ import annotations

from typing import Any, List, Sequence

from repro.db.schema import TableSchema
from repro.errors import SchemaError


def coerce_dict_rows(
    schema: TableSchema, rows: Sequence[Sequence[Any]], names: Sequence[str]
) -> List[List[Any]]:
    """``rows`` (values in ``names`` order) in storage form, row by row."""
    for name in names:
        if not schema.has_column(name):
            raise SchemaError(
                f"table {schema.name!r} has no column {name!r}"
            )
    coerced = []
    for row in rows:
        named = dict(zip(names, row))
        lowered = {key.lower(): value for key, value in named.items()}
        coerced.append([
            col.ctype.coerce(
                lowered.get(col.name.lower()),
                nullable=col.nullable,
                column=col.name,
            )
            for col in schema.columns
        ])
    return coerced
