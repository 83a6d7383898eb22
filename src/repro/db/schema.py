"""Table schemas."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.db.types import ColumnType
from repro.errors import SchemaError

_VALID_FIRST = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")


def _check_identifier(name: str, what: str) -> str:
    if not name or name[0] not in _VALID_FIRST or not all(
        c in _VALID_FIRST or c.isdigit() for c in name
    ):
        raise SchemaError(f"invalid {what} name {name!r}")
    return name


@dataclass(frozen=True)
class Column:
    """One column: name, type, nullability."""

    name: str
    ctype: ColumnType
    nullable: bool = True

    def __post_init__(self) -> None:
        _check_identifier(self.name, "column")


@dataclass(frozen=True)
class CoercedColumns:
    """A batch of rows in storage form, held column by column."""

    columns: Tuple[Sequence[Any], ...]
    count: int

    def rows(self) -> List[List[Any]]:
        """The batch as row lists, the table's storage form."""
        return [list(row) for row in zip(*self.columns)]


class TableSchema:
    """An ordered set of columns with fast name lookup.

    Column names are matched case-insensitively, as in most SQL engines.
    """

    def __init__(self, name: str, columns: Sequence[Column]) -> None:
        _check_identifier(name, "table")
        if not columns:
            raise SchemaError(f"table {name!r} needs at least one column")
        self.name = name
        self.columns: Tuple[Column, ...] = tuple(columns)
        self._index: Dict[str, int] = {}
        for i, col in enumerate(self.columns):
            key = col.name.lower()
            if key in self._index:
                raise SchemaError(f"duplicate column {col.name!r} in {name!r}")
            self._index[key] = i

    def __len__(self) -> int:
        return len(self.columns)

    def __repr__(self) -> str:
        cols = ", ".join(f"{c.name} {c.ctype.value}" for c in self.columns)
        return f"TableSchema({self.name!r}: {cols})"

    @property
    def column_names(self) -> List[str]:
        """Column names in declaration order."""
        return [c.name for c in self.columns]

    def has_column(self, name: str) -> bool:
        """True if a column with this (case-insensitive) name exists."""
        return name.lower() in self._index

    def column_index(self, name: str) -> int:
        """Position of a column, raising :class:`SchemaError` if unknown."""
        try:
            return self._index[name.lower()]
        except KeyError:
            raise SchemaError(
                f"table {self.name!r} has no column {name!r}"
            ) from None

    def column(self, name: str) -> Column:
        """The :class:`Column` for a name."""
        return self.columns[self.column_index(name)]

    def coerce_columns(
        self,
        rows: Sequence[Sequence[Any]],
        names: Optional[Sequence[str]] = None,
    ) -> "CoercedColumns":
        """Validate and coerce a batch of positional rows, a column at a time.

        ``names`` are the columns the rows' values are in (default: the
        schema's own order). They are mapped to schema slots once: matched
        case-insensitively, an unknown name raises, a column not named
        reads as NULL, and a name given twice keeps its last value. Each
        column then goes through :meth:`ColumnType.coerce_column`; a batch
        that fails (or has a row of the wrong width) is re-checked row by
        row with :meth:`coerce_row`, so it raises the first error in row
        order.
        """
        width = len(self.columns)
        slots = (
            range(width)
            if names is None
            else [self.column_index(name) for name in names]
        )
        if all(len(row) == len(slots) for row in rows):
            values: List[Sequence[Any]] = [(None,) * len(rows)] * width
            for slot, column in zip(slots, zip(*rows)):
                values[slot] = column
            try:
                return CoercedColumns(
                    tuple(
                        col.ctype.coerce_column(
                            column, nullable=col.nullable, column=col.name
                        )
                        for col, column in zip(self.columns, values)
                    ),
                    len(rows),
                )
            except SchemaError:
                pass  # re-raised below in row order
        coerced = [
            self.coerce_row(row if names is None else self._placed(row, slots))
            for row in rows
        ]
        return CoercedColumns(
            tuple(zip(*coerced)) if coerced else ((),) * width, len(coerced)
        )

    def _placed(self, row: Sequence[Any], slots: Sequence[int]) -> List[Any]:
        """A named row's values at their schema slots (NULL elsewhere)."""
        if len(row) != len(slots):
            raise SchemaError(
                f"row has {len(row)} values for {len(slots)} named columns "
                f"of table {self.name!r}"
            )
        placed: List[Any] = [None] * len(self.columns)
        for slot, value in zip(slots, row):
            placed[slot] = value
        return placed

    def coerce_row(self, row: Sequence[Any]) -> List[Any]:
        """Validate and coerce a positional row to storage form."""
        if len(row) != len(self.columns):
            raise SchemaError(
                f"row has {len(row)} values, table {self.name!r} "
                f"has {len(self.columns)} columns"
            )
        return [
            col.ctype.coerce(v, nullable=col.nullable, column=col.name)
            for col, v in zip(self.columns, row)
        ]
