"""The compiled expression evaluator against its row-at-a-time oracle.

``repro.db.expr.compile_expr`` must give, on every row, the value the
reference ``evaluate`` (``tests/expr_reference.py``) gives — or raise the
same ``QueryError`` with the same message. Checked over generated
expression trees (NULL, NaN, ±0.0, ints beyond 2**53, int/float mixes,
strings, booleans, named constants, unknown names, misplaced COUNT and
AREA, division by zero, type mismatches) and through the three places the
compiled form runs: the archive engine, its grouped path and the Portal's
finish.
"""

import math
from types import SimpleNamespace

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.db.engine import ASTRO_CONSTANTS, Database
from repro.db.expr import compile_expr
from repro.db.schema import Column
from repro.db.types import ColumnType
from repro.portal.executor import ChainExecutor
from repro.soap.encoding import WireRowSet
from repro.sql.ast import (
    AreaClause,
    BinaryOp,
    ColumnRef,
    FuncCall,
    IsNull,
    Literal,
    OrderItem,
    Query,
    SelectItem,
    Star,
    TableRef,
    UnaryOp,
    XMatchClause,
    XMatchTerm,
    and_together,
)
from tests.expr_reference import RowContext, evaluate, reference_finish, reference_select

CONSTANTS = {"GALAXY": "GALAXY", "STAR": "STAR", "SEVEN": 7}

#: Row slots: ``a`` is bound under two aliases, so a bare ``a`` reads the
#: last one bound (``t.a``).
SLOTS = [ColumnRef("o", "a"), ColumnRef("o", "b"), ColumnRef("t", "a"),
         ColumnRef("t", "s")]

values = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([0, 1, -1, 2**53 + 1, -(2**63), 10**30]),
    st.integers(-5, 5),
    st.sampled_from([0.0, -0.0, 0.5, -2.5, math.nan, math.inf, -math.inf,
                     1e308, 2.0**53]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "a", "b", "GALAXY", "STAR"]),
)

names = st.sampled_from([
    ColumnRef("o", "a"), ColumnRef("O", "B"), ColumnRef("t", "a"),
    ColumnRef("t", "s"), ColumnRef(None, "a"), ColumnRef(None, "b"),
    ColumnRef(None, "S"), ColumnRef(None, "galaxy"), ColumnRef(None, "SEVEN"),
    ColumnRef(None, "nope"), ColumnRef("x", "a"), ColumnRef("t", "nope"),
])

misplaced = st.sampled_from([
    Star(),
    AreaClause(1.0, 2.0, 3.0),
    XMatchClause((XMatchTerm("o"), XMatchTerm("t")), 3.5),
    FuncCall("COUNT", (Star(),)),
    FuncCall("FOO", ()),
])


def trees(leaves, max_leaves=6):
    def extend(children):
        return st.one_of(
            st.builds(UnaryOp, st.sampled_from(["NOT", "-", "~"]), children),
            st.builds(
                BinaryOp,
                st.sampled_from(["AND", "OR", "+", "-", "*", "/", "=", "<>",
                                 "<", "<=", ">", ">=", "%"]),
                children,
                children,
            ),
            st.builds(lambda x: FuncCall("ABS", (x,)), children),
            st.builds(lambda x: FuncCall("COUNT", (x,)), children),
            st.builds(IsNull, children, st.booleans()),
        )

    return st.recursive(leaves, extend, max_leaves=max_leaves)


literals = st.builds(Literal, values)
expressions = trees(st.one_of(literals, literals, names, names, misplaced))


def outcome(thunk):
    """A value by type and repr (so 1 != 1.0 != True, -0.0 != 0.0, NaN ==
    NaN), or an exception by type and message."""
    try:
        value = thunk()
    except Exception as exc:  # the oracle compares every failure
        return ("raises", type(exc).__name__, str(exc))
    return ("value", type(value).__name__, repr(value))


def reference_row(row):
    ctx = RowContext(CONSTANTS)
    for slot, value in zip(SLOTS, row):
        ctx.bind(slot.qualifier, slot.name, value)
    return ctx


@settings(max_examples=400, deadline=None)
@given(expr=expressions, row=st.lists(values, min_size=4, max_size=4))
@example(ColumnRef(None, "a"), [1, 2, 3, 4])  # the last alias bound wins
@example(BinaryOp("/", Literal(1), ColumnRef("o", "b")), [0, -0.0, 0, 0])
@example(BinaryOp("+", Literal(2**53 + 1), Literal(1.0)), [0, 0, 0, 0])
@example(UnaryOp("NOT", BinaryOp(">", ColumnRef("o", "a"), Literal(1))),
         [None, 0, 0, 0])  # two-valued NULL: true
@example(BinaryOp("AND", Literal(False), ColumnRef(None, "nope")), [0, 0, 0, 0])
@example(BinaryOp("<", ColumnRef("t", "s"), Literal(1)), ["a", 0, 0, 0])
def test_compiled_matches_reference(expr, row):
    compiled = compile_expr(expr, SLOTS, CONSTANTS)
    assert outcome(lambda: compiled(row)) == outcome(
        lambda: evaluate(expr, reference_row(row))
    ), expr


# -- the engine and its grouped path ------------------------------------------

cells = st.one_of(st.none(), st.integers(-3, 3), st.sampled_from([0.5, -0.0]))
table_rows = st.lists(
    st.tuples(cells, cells, st.sampled_from(["a", "b", None])), max_size=12
)
COMPARISONS = ["=", "<>", "<", "<=", ">", ">="]


def typed_trees(numbers, strings):
    """Mostly well-typed trees: numeric arithmetic, comparisons and
    boolean connectives over them, and string columns against strings."""
    number = st.recursive(
        numbers,
        lambda kids: st.one_of(
            st.builds(BinaryOp, st.sampled_from(["+", "-", "*", "/"]), kids, kids),
            st.builds(UnaryOp, st.just("-"), kids),
            st.builds(lambda x: FuncCall("ABS", (x,)), kids),
        ),
        max_leaves=3,
    )
    condition = st.recursive(
        st.one_of(
            st.builds(BinaryOp, st.sampled_from(COMPARISONS), number, number),
            st.builds(
                BinaryOp, st.sampled_from(COMPARISONS), strings,
                st.sampled_from([Literal("a"), Literal("b")]),
            ),
            st.builds(IsNull, number | strings, st.booleans()),
        ),
        lambda kids: st.one_of(
            st.builds(BinaryOp, st.sampled_from(["AND", "OR"]), kids, kids),
            st.builds(UnaryOp, st.just("NOT"), kids),
        ),
        max_leaves=3,
    )
    return number, condition, st.one_of(number, number, condition, strings)


number_cells = st.builds(Literal, cells)
row_numbers, row_conditions, row_values = typed_trees(
    number_cells | st.sampled_from(
        [ColumnRef("o", "x"), ColumnRef(None, "y"), ColumnRef(None, "X")]
    ),
    st.sampled_from([ColumnRef("o", "name"), ColumnRef(None, "NAME")]),
)
#: Trees of any shape, mostly ill-typed: the error paths.
wild = trees(
    st.one_of(
        st.builds(Literal, st.one_of(cells, st.sampled_from(["a", True]))),
        st.sampled_from([
            ColumnRef("o", "x"), ColumnRef(None, "name"), ColumnRef(None, "galaxy"),
            ColumnRef("q", "x"), ColumnRef(None, "nope"),
        ]),
    ),
    max_leaves=4,
)
GROUP_KEYS = [
    ColumnRef("o", "name"), ColumnRef(None, "y"),
    BinaryOp("/", ColumnRef("o", "x"), Literal(2)),
]
aggregate_calls = st.builds(
    FuncCall,
    st.sampled_from(["COUNT", "SUM", "MIN", "MAX", "AVG"]),
    st.tuples(st.sampled_from([ColumnRef("o", "x"), ColumnRef(None, "y")])),
) | st.sampled_from([
    FuncCall("COUNT", (Star(),)), FuncCall("COUNT", (ColumnRef("o", "name"),)),
])
group_numbers, group_conditions, group_values = typed_trees(
    aggregate_calls | number_cells | st.sampled_from(GROUP_KEYS[1:]),
    st.sampled_from([ColumnRef("o", "name"), ColumnRef(None, "name"),
                     FuncCall("MAX", (ColumnRef("o", "name"),))]),
)


@st.composite
def engine_queries(draw):
    grouped = draw(st.booleans())
    values_ = st.one_of(
        *([group_values] * 4 if grouped else [row_values] * 4), wild
    )
    items = draw(st.lists(values_, min_size=1, max_size=3))
    if not grouped and draw(st.booleans()):
        items.append(Star())
    if grouped:
        group_by = tuple(draw(st.lists(st.sampled_from(GROUP_KEYS), max_size=2)))
        having = draw(st.none() | group_conditions | wild)
    else:
        group_by, having = (), None
    return Query(
        items=tuple(SelectItem(expr) for expr in items),
        tables=(TableRef(None, "t", "o"),),
        distinct=draw(st.booleans()),
        where=draw(st.none() | row_conditions | wild),
        group_by=group_by,
        having=having,
        order_by=tuple(
            OrderItem(expr, descending)
            for expr, descending in draw(
                st.lists(st.tuples(values_, st.booleans()), max_size=2)
            )
        ),
        limit=draw(st.sampled_from([None, 0, 1, 3])),
    )


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(rows=table_rows, query=engine_queries())
def test_engine_and_grouped_path_match_reference(rows, query):
    db = Database("oracle")
    db.create_table(
        "t",
        [Column("x", ColumnType.FLOAT), Column("y", ColumnType.FLOAT),
         Column("name", ColumnType.STRING)],
    )
    db.insert("t", rows)
    assert outcome(lambda: db.execute(query).rows) == outcome(
        lambda: reference_select(db, query)
    ), query


# -- the Portal's finish ------------------------------------------------------

LAYOUT = ["O.a", "O.b", "T.a", "T.s"]
portal_names = st.sampled_from([
    ColumnRef("O", "a"), ColumnRef("o", "B"), ColumnRef("T", "a"),
    ColumnRef("T", "s"), ColumnRef(None, "a"), ColumnRef(None, "s"),
    ColumnRef(None, "GALAXY"),
])
portal_exprs = trees(
    st.one_of(
        st.builds(Literal, cells), portal_names, portal_names,
        st.sampled_from([ColumnRef("P", "a"), ColumnRef(None, "nope")]),
    ),
    max_leaves=4,
)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.lists(values, min_size=4, max_size=4), max_size=10),
    items=st.lists(portal_exprs, min_size=1, max_size=3),
    cross=st.lists(portal_exprs, max_size=2),
    order=st.lists(st.tuples(portal_exprs, st.booleans()), max_size=2),
    distinct=st.booleans(),
    limit=st.sampled_from([None, 0, 2]),
)
def test_portal_finish_matches_reference(rows, items, cross, order, distinct, limit):
    query = Query(
        items=tuple(SelectItem(expr) for expr in items),
        tables=(TableRef("S", "t", "O"), TableRef("W", "t", "T")),
        distinct=distinct,
        where=and_together(tuple(cross)),
        order_by=tuple(OrderItem(e, d) for e, d in order),
        limit=limit,
    )
    attributes = [dict(zip(LAYOUT, row)) for row in rows]
    answer = WireRowSet(
        [(name, "double") for name in LAYOUT], [tuple(row) for row in rows]
    )
    executor = ChainExecutor(SimpleNamespace(cache=None))
    decomposed = SimpleNamespace(
        query=query, analysis=SimpleNamespace(cross_conjuncts=cross)
    )
    assert outcome(
        lambda: executor._finish(None, decomposed, answer, []).rows
    ) == outcome(
        lambda: reference_finish(query, cross, attributes, ASTRO_CONSTANTS)
    ), query
