"""Serializing partial tuples to the SOAP rowset transfer format.

Between adjacent SkyNodes, the partial-result set travels as a rowset: one
row per partial tuple, carrying the member object ids, the four cumulative
values, and any attribute values the final SELECT (or a Portal-evaluated
cross-archive predicate) needs.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

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


def tuples_to_rowset(
    tuples: Sequence[PartialTuple],
    member_aliases: Sequence[str],
    attr_columns: Sequence[Tuple[str, str]],
) -> WireRowSet:
    """Encode partial tuples as a rowset."""
    rowset = WireRowSet(tuple_schema(member_aliases, attr_columns))
    for partial in tuples:
        members: Dict[str, int] = dict(partial.members)
        missing = [alias for alias in member_aliases if alias not in members]
        if missing or len(partial.members) != len(member_aliases):
            raise SoapError(
                f"tuple members {sorted(members)} do not match schema "
                f"aliases {list(member_aliases)}"
            )
        row: List[Any] = [members[alias] for alias in member_aliases]
        row.extend(
            (partial.acc.a, partial.acc.ax, partial.acc.ay, partial.acc.az)
        )
        for attr_name, _ in attr_columns:
            row.append(partial.attributes.get(attr_name))
        rowset.rows.append(tuple(row))
    return rowset


def tuples_to_payload(
    tuples: Sequence[PartialTuple],
    member_aliases: Sequence[str],
    attr_columns: Sequence[Tuple[str, str]],
) -> ColumnarRowSet:
    """Encode one streamed batch of partial tuples.

    The streaming chain ships its batches as the compact column-major
    ``colset`` (delta-encoded ids, dictionary-encoded strings): the id
    columns delta-encode tightly and the accumulator doubles dominate what
    is left, cutting envelope bytes (and therefore simulated transfer
    time) without changing the decoded tuples at all. Receivers decode it
    to the same rowset :func:`tuples_to_rowset` builds.
    """
    return ColumnarRowSet(
        tuples_to_rowset(tuples, member_aliases, attr_columns)
    )


def rowset_to_tuples(
    rowset: WireRowSet,
    member_aliases: Sequence[str],
    attr_columns: Sequence[Tuple[str, str]],
) -> List[PartialTuple]:
    """Decode a rowset back into partial tuples."""
    expected = tuple_schema(member_aliases, attr_columns)
    if rowset.columns != expected:
        raise SoapError(
            f"rowset schema {rowset.columns} does not match expected {expected}"
        )
    n_members = len(member_aliases)
    tuples: List[PartialTuple] = []
    for row in rowset.rows:
        member_ids = row[:n_members]
        a, ax, ay, az = row[n_members : n_members + 4]
        attrs = {
            name: value
            for (name, _), value in zip(attr_columns, row[n_members + 4 :])
        }
        tuples.append(
            PartialTuple(
                members=tuple(
                    (alias, int(object_id))
                    for alias, object_id in zip(member_aliases, member_ids)
                ),
                acc=Accumulator(a=a, ax=ax, ay=ay, az=az),
                attributes=attrs,
            )
        )
    return tuples
