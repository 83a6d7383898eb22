"""Column types and value coercion for the relational engine."""

from __future__ import annotations

from enum import Enum
from typing import Any, Sequence

from repro.errors import SchemaError


class ColumnType(Enum):
    """Supported column types."""

    INT = "int"
    FLOAT = "float"
    STRING = "string"
    BOOL = "bool"

    def coerce(self, value: Any, *, nullable: bool = True, column: str = "?") -> Any:
        """Coerce ``value`` to this type, raising :class:`SchemaError` on mismatch."""
        if value is None:
            if nullable:
                return None
            raise SchemaError(f"column {column!r} is NOT NULL")
        if self is ColumnType.INT:
            if isinstance(value, bool) or not isinstance(value, int):
                if isinstance(value, float) and value.is_integer():
                    return int(value)
                raise SchemaError(
                    f"column {column!r} expects INT, got {type(value).__name__}"
                )
            return value
        if self is ColumnType.FLOAT:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SchemaError(
                    f"column {column!r} expects FLOAT, got {type(value).__name__}"
                )
            return float(value)
        if self is ColumnType.STRING:
            if not isinstance(value, str):
                raise SchemaError(
                    f"column {column!r} expects STRING, got {type(value).__name__}"
                )
            return value
        if not isinstance(value, bool):
            raise SchemaError(
                f"column {column!r} expects BOOL, got {type(value).__name__}"
            )
        return value

    def coerce_column(
        self, values: Sequence[Any], *, nullable: bool = True, column: str = "?"
    ) -> Sequence[Any]:
        """:meth:`coerce` over a whole column.

        A column whose values all already have this type's storage type
        (``None`` too, when nullable) is stored as it is after one check
        of the set of value types; any other column is coerced cell by
        cell and raises exactly what :meth:`coerce` raises.
        """
        stored = _STORAGE_TYPES[self]
        if set(map(type, values)) <= (
            stored | _NONE_TYPE if nullable else stored
        ):
            return values
        return [
            self.coerce(value, nullable=nullable, column=column)
            for value in values
        ]

    @classmethod
    def of_value(cls, value: Any) -> "ColumnType":
        """Infer the column type of a python value (bool before int!)."""
        if isinstance(value, bool):
            return cls.BOOL
        if isinstance(value, int):
            return cls.INT
        if isinstance(value, float):
            return cls.FLOAT
        if isinstance(value, str):
            return cls.STRING
        raise SchemaError(f"unsupported value type {type(value).__name__}")


#: The exact Python type each column type stores (what ``coerce`` returns).
_STORAGE_TYPES = {
    ColumnType.INT: frozenset({int}),
    ColumnType.FLOAT: frozenset({float}),
    ColumnType.STRING: frozenset({str}),
    ColumnType.BOOL: frozenset({bool}),
}
_NONE_TYPE = frozenset({type(None)})
