"""The tail every SELECT ends with: output names, DISTINCT, ORDER BY, LIMIT.

One copy serves the archive engine (plain and grouped queries) and the
Portal's finish of a federated query. Each caller hands over its projected
rows plus, row for row, the *source* row each was projected from — a table
row, a group row, a Portal tuple's attribute values — and the ``columns``
naming the source's slots, since ORDER BY may use any expression over the
source, not only the output columns.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, List, Mapping, Optional, Sequence, Tuple

from repro.db.expr import compile_row
from repro.errors import QueryError
from repro.sql.ast import ColumnRef, Expr, Query, SelectItem, Star


def output_columns(
    items: Sequence[SelectItem], star: Optional[Sequence[str]] = None
) -> List[str]:
    """Output column names: the alias, else a column reference's text,
    else ``expr<position>``. ``star`` is what ``*`` expands to; without
    it ``*`` is named like any other expression."""
    columns: List[str] = []
    for item in items:
        if star is not None and isinstance(item.expr, Star):
            columns.extend(star)
        elif item.alias:
            columns.append(item.alias)
        elif isinstance(item.expr, ColumnRef):
            columns.append(str(item.expr))
        else:
            columns.append(f"expr{len(columns) + 1}")
    return columns


def finish(
    query: Query,
    rows: List[Tuple[Any, ...]],
    sources: Sequence[Sequence[Any]],
    columns: Sequence[Expr],
    constants: Optional[Mapping[str, Any]] = None,
) -> List[Tuple[Any, ...]]:
    """DISTINCT, then ORDER BY, then LIMIT over projected ``rows``.

    DISTINCT keeps each row's first occurrence. ORDER BY keys are computed
    from the kept rows' sources only, and the sort is stable: ties keep
    their scan order. NULLs sort first; DESC flips the comparison.
    """
    if query.distinct:
        seen = set()
        kept = []
        for row, source in zip(rows, sources):
            if row not in seen:
                seen.add(row)
                kept.append((row, source))
        rows = [row for row, _ in kept]
        sources = [source for _, source in kept]
    if query.order_by:
        key = compile_row(
            [item.expr for item in query.order_by], columns, constants
        )
        descending = [item.descending for item in query.order_by]
        keys = [
            tuple(map(_SortKey, key(source), descending)) for source in sources
        ]
        rows = [row for _, row in sorted(zip(keys, rows), key=itemgetter(0))]
    if query.limit is not None:
        rows = rows[: query.limit]
    return rows


class _SortKey:
    """ORDER BY key wrapper: NULLs sort first; DESC flips the comparison."""

    __slots__ = ("value", "descending")

    def __init__(self, value: Any, descending: bool) -> None:
        self.value = value
        self.descending = descending

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _SortKey):
            return NotImplemented
        return self.value == other.value

    def __lt__(self, other: "_SortKey") -> bool:
        a, b = self.value, other.value
        if a == b:
            return False
        if a is None:
            before = True
        elif b is None:
            before = False
        else:
            try:
                before = a < b
            except TypeError:
                raise QueryError(
                    f"ORDER BY cannot compare {type(a).__name__} "
                    f"with {type(b).__name__}"
                ) from None
        return not before if self.descending else before
