"""Partial tuples in the SOAP rowset transfer format.

Between adjacent SkyNodes, the partial-result set travels as a rowset: one
row per partial tuple, carrying the member object ids, the four cumulative
values, and any attribute values the final SELECT (or a Portal-evaluated
cross-archive predicate) needs. That row is the whole state of a tuple, so
it is the only form the chain's hops and the Portal work on: they check
an incoming batch with :func:`tuple_rows` and encode an outgoing one with
:func:`tuples_to_payload`. :func:`tuples_to_rowset` and
:func:`rowset_to_tuples` are the codec of the in-memory oracle
(:class:`~repro.xmatch.tuples.PartialTuple`, ``run_chain``).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, List, Sequence, Tuple

from repro.errors import SoapError
from repro.soap.encoding import ColumnarRowSet, WireRowSet
from repro.xmatch.chi2 import Accumulator
from repro.xmatch.tuples import PartialTuple

_ACC_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("acc_a", "double"),
    ("acc_ax", "double"),
    ("acc_ay", "double"),
    ("acc_az", "double"),
)
_ACC_VALUES = attrgetter("a", "ax", "ay", "az")

#: One partial tuple as the chain carries it: a row of ``tuple_schema`` —
#: member ids, ``(a, ax, ay, az)``, attributes, and on a partition chain
#: the seed key last.
Row = Tuple[Any, ...]


def tuple_schema(
    member_aliases: Sequence[str], attr_columns: Sequence[Tuple[str, str]]
) -> List[Tuple[str, str]]:
    """Rowset schema for tuples whose members are ``member_aliases``.

    ``attr_columns`` are ``("alias.column", typecode)`` pairs for the
    attribute payload.
    """
    columns: List[Tuple[str, str]] = [
        (f"id_{alias}", "int") for alias in member_aliases
    ]
    columns.extend(_ACC_COLUMNS)
    columns.extend(attr_columns)
    return columns


def tuple_rows(
    rowset: WireRowSet,
    member_aliases: Sequence[str],
    attr_columns: Sequence[Tuple[str, str]],
) -> List[Row]:
    """The rows of a partial-tuple rowset, checked against its plan.

    The schema must be exactly ``tuple_schema(member_aliases,
    attr_columns)``, and no member id or accumulator cell may be NULL
    (attribute cells may). Anything else is a hostile batch: it raises
    :class:`SoapError`, never a ``TypeError`` further on.
    """
    expected = tuple_schema(member_aliases, attr_columns)
    if rowset.columns != expected:
        raise SoapError(
            f"rowset schema {rowset.columns} does not match expected {expected}"
        )
    rows = rowset.rows
    width = len(member_aliases) + len(_ACC_COLUMNS)
    for index, row in enumerate(rows):
        if None in row[:width]:
            column = expected[row[:width].index(None)][0]
            raise SoapError(f"row {index} has a NULL {column} cell")
    return rows


def attribute_rows(
    rows: Sequence[Row],
    member_aliases: Sequence[str],
    attr_columns: Sequence[Tuple[str, str]],
) -> WireRowSet:
    """The attribute columns of partial-tuple rows: per tuple, its values
    in the ``attr_columns`` (``alias.column``) order."""
    skip = len(member_aliases) + len(_ACC_COLUMNS)
    return WireRowSet(list(attr_columns), [row[skip:] for row in rows])


def tuples_to_rowset(
    tuples: Sequence[PartialTuple],
    member_aliases: Sequence[str],
    attr_columns: Sequence[Tuple[str, str]],
) -> WireRowSet:
    """Encode partial tuples as a rowset (the oracle's codec).

    A tuple lists its members in chain order (``seed`` then ``extended``
    per hop), which must be the schema's.
    """
    aliases = list(member_aliases)
    names = [name for name, _ in attr_columns]
    rows = []
    for item in tuples:
        listed, ids = zip(*item.members) if item.members else ((), ())
        if list(listed) != aliases:
            raise SoapError(
                f"tuple members {list(listed)} do not match schema "
                f"aliases {aliases}"
            )
        rows.append(
            (*ids, *_ACC_VALUES(item.acc), *map(item.attributes.get, names))
        )
    return WireRowSet(tuple_schema(member_aliases, attr_columns), rows)


def tuples_to_payload(
    rows: Sequence[Row],
    member_aliases: Sequence[str],
    attr_columns: Sequence[Tuple[str, str]],
) -> ColumnarRowSet:
    """Encode one streamed batch of partial-tuple rows.

    The streaming chain ships its batches as the compact column-major
    ``colset`` (delta-encoded ids, dictionary-encoded strings, doubles as
    base64 float64 bytes): the id columns delta-encode tightly and the
    accumulator doubles travel at 8 bytes and 2 bits each, cutting envelope
    bytes (and therefore simulated transfer time) without changing the
    decoded rows at all.
    """
    return ColumnarRowSet(
        WireRowSet(tuple_schema(member_aliases, attr_columns), list(rows))
    )


def rowset_to_tuples(
    rowset: WireRowSet,
    member_aliases: Sequence[str],
    attr_columns: Sequence[Tuple[str, str]],
) -> List[PartialTuple]:
    """Decode a rowset back into partial tuples (the oracle's codec)."""
    n = len(member_aliases)
    names = [name for name, _ in attr_columns]
    return [
        PartialTuple(
            tuple(zip(member_aliases, map(int, row[:n]))),
            Accumulator(*row[n:n + 4]),
            dict(zip(names, row[n + 4:])),
        )
        for row in tuple_rows(rowset, member_aliases, attr_columns)
    ]
