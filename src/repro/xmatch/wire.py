"""Serializing partial tuples to the SOAP rowset transfer format.

Between adjacent SkyNodes, the partial-result set travels as a rowset: one
row per partial tuple, carrying the member object ids, the four cumulative
values, and any attribute values the final SELECT (or a Portal-evaluated
cross-archive predicate) needs.
"""

from __future__ import annotations

from functools import partial
from itertools import repeat
from operator import attrgetter, methodcaller
from typing import Any, Iterable, List, Sequence, Tuple

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


def _member_id_columns(
    members: List[Tuple[Tuple[str, int], ...]], member_aliases: Sequence[str]
) -> List[Sequence[int]]:
    """One object-id column per schema alias.

    A tuple lists its members in chain order (``seed`` then ``extended``
    per hop), which is the schema's, so member position i is column i and
    every alias in it must be the schema's i-th.
    """
    aliases = list(member_aliases)
    if set(map(len, members)) <= {len(aliases)}:
        columns: List[Sequence[int]] = []
        for alias, pairs in zip(
            aliases, zip(*members) if members else [()] * len(aliases)
        ):
            names, ids = zip(*pairs) if pairs else ((), ())
            if names.count(alias) != len(names):
                break
            columns.append(ids)
        else:
            return columns
    listed = next(m for m in members if [a for a, _ in m] != aliases)
    raise SoapError(
        f"tuple members {[a for a, _ in listed]} do not match schema "
        f"aliases {aliases}"
    )


def tuples_to_rowset(
    tuples: Sequence[PartialTuple],
    member_aliases: Sequence[str],
    attr_columns: Sequence[Tuple[str, str]],
) -> WireRowSet:
    """Encode partial tuples as a rowset, built a column at a time."""
    columns = _member_id_columns(
        [item.members for item in tuples], member_aliases
    )
    accs = [item.acc for item in tuples]
    columns.extend(
        zip(*map(_ACC_VALUES, accs)) if accs else [()] * len(_ACC_COLUMNS)
    )
    attributes = [item.attributes for item in tuples]
    columns.extend(
        list(map(methodcaller("get", name), attributes))
        for name, _ in attr_columns
    )
    return WireRowSet(
        tuple_schema(member_aliases, attr_columns), list(zip(*columns))
    )


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
    """Decode a rowset back into partial tuples, a column at a time."""
    expected = tuple_schema(member_aliases, attr_columns)
    if rowset.columns != expected:
        raise SoapError(
            f"rowset schema {rowset.columns} does not match expected {expected}"
        )
    count = len(rowset.rows)
    columns = list(zip(*rowset.rows)) if count else [()] * len(expected)
    n_members = len(member_aliases)
    members = _rows(
        [
            list(zip(repeat(alias), map(int, ids)))
            for alias, ids in zip(member_aliases, columns)
        ],
        count,
    )
    accs = map(Accumulator, *columns[n_members : n_members + 4])
    names = [name for name, _ in attr_columns]
    attributes = map(
        dict, map(partial(zip, names), _rows(columns[n_members + 4 :], count))
    )
    return list(map(PartialTuple, members, accs, attributes))


def _rows(columns: Sequence[Sequence[Any]], count: int) -> Iterable[Tuple[Any, ...]]:
    """``count`` row tuples of ``columns`` (empty ones when there are none)."""
    return zip(*columns) if columns else repeat((), count)
