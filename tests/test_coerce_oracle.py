"""Named column-at-a-time coercion against the dict-row loop.

:meth:`TableSchema.coerce_columns` maps a batch's column names to schema
slots once and coerces a column at a time; ``coerce_dict_rows`` (in
``tests/coerce_reference.py``) turns every row into a dict and coerces it
cell by cell. On random batches — permuted, missing, case-varied,
unknown and repeated names; NULLs into NOT NULL columns; wrong types;
ints into FLOAT, integral floats into INT, bools against ints — the two
must store the same values of the same types, or raise the same first
:class:`SchemaError`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.schema import Column, TableSchema
from repro.db.types import ColumnType
from repro.errors import SchemaError
from tests.coerce_reference import coerce_dict_rows

SCHEMA = TableSchema(
    "Photo_Object",
    [
        Column("object_id", ColumnType.INT, nullable=False),
        Column("ra", ColumnType.FLOAT, nullable=False),
        Column("flux", ColumnType.FLOAT),
        Column("kind", ColumnType.STRING),
        Column("flag", ColumnType.BOOL),
        Column("count", ColumnType.INT),
    ],
)

_ANY = st.one_of(
    st.none(),
    st.integers(-3, 3),
    st.sampled_from([0.0, 2.0, -1.0, 0.5, 1e300]),
    st.booleans(),
    st.text(max_size=2),
)
#: Values each column type accepts: its own, ints into FLOAT (widened),
#: integral floats into INT (narrowed).
_ACCEPTED = {
    ColumnType.INT: st.one_of(
        st.integers(-(2**40), 2**40), st.integers(-9, 9).map(float)
    ),
    ColumnType.FLOAT: st.one_of(
        st.floats(allow_nan=False), st.integers(-9, 9)
    ),
    ColumnType.STRING: st.text(max_size=3),
    ColumnType.BOOL: st.booleans(),
}


def _recased(name):
    return st.sampled_from([name, name.upper(), name.capitalize()])


@st.composite
def named_batches(draw):
    """``(rows, names)``: a subset of the schema's names in any order and
    case, perhaps an unknown name, perhaps one name given twice, and rows
    whose cells are of a type their column accepts — or, in a noisy
    batch, sometimes any value at all (NULL, a bool, a string...)."""
    noisy = draw(st.booleans())
    columns = draw(st.permutations(SCHEMA.columns))
    keep = draw(st.integers(0, len(columns)))
    columns = [
        col for i, col in enumerate(columns)
        if i < keep or not (noisy or col.nullable)
    ]
    if columns and draw(st.booleans()):
        columns.insert(
            draw(st.integers(0, len(columns))),
            draw(st.sampled_from(columns)),
        )
    names = [draw(_recased(col.name)) for col in columns]
    values = [
        st.one_of(_ACCEPTED[col.ctype], _ANY)
        if noisy
        else st.one_of(_ACCEPTED[col.ctype], st.none())
        if col.nullable
        else _ACCEPTED[col.ctype]
        for col in columns
    ]
    if noisy and draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(names)))
        names.insert(at, draw(st.sampled_from(["nope", "RA_err"])))
        values.insert(at, _ANY)
    rows = draw(st.lists(st.tuples(*values), max_size=6))
    return rows, names


def _outcome(coerce):
    try:
        rows = coerce()
    except SchemaError as exc:
        return "raises", str(exc)
    return "stores", [[(type(v), v) for v in row] for row in rows]


@settings(max_examples=150, deadline=None)
@given(named_batches())
def test_named_columns_match_the_dict_row_loop(batch):
    rows, names = batch
    assert _outcome(
        lambda: SCHEMA.coerce_columns(rows, names).rows()
    ) == _outcome(lambda: coerce_dict_rows(SCHEMA, rows, names))


def test_a_ragged_named_row_raises():
    with pytest.raises(SchemaError, match="row has 1 values for 2 named"):
        SCHEMA.coerce_columns([(1, 2.0), (1,)], ["object_id", "ra"])
