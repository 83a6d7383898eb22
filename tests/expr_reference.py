"""The row-at-a-time expression evaluator, kept as a testing oracle.

``RowContext`` + ``evaluate`` walk the AST once per row against a dict of
bound names — the evaluator ``repro.db.expr.compile_expr`` replaced.
``tests/test_expr_oracle.py`` holds the compiled form to it: the same
value, or the same ``QueryError`` message, on the same row. The
query-level helpers at the bottom answer a whole single-table query, a
grouped query and the Portal's finish with it, one row at a time.

The evaluator implements a simplified SQL semantics:

* NULL propagates through arithmetic; any comparison involving NULL is
  false; AND/OR treat NULL as false (two-valued logic, documented shortcut).
* Bare identifiers that do not resolve to a column are looked up in the
  database's *named constants* (the sample query's ``O.type = GALAXY`` uses
  the astronomy constant GALAXY).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.db.aggregates import _AggState, collect_aggregates, is_aggregate_query
from repro.errors import QueryError
from repro.sql.ast import (
    AreaClause,
    BinaryOp,
    ColumnRef,
    Expr,
    FuncCall,
    IsNull,
    Literal,
    PolygonClause,
    Query,
    Star,
    UnaryOp,
    XMatchClause,
)


class RowContext:
    """Column values for one row, addressable bare or alias-qualified."""

    def __init__(self, constants: Optional[Mapping[str, Any]] = None) -> None:
        self._values: Dict[str, Any] = {}
        self._constants = {k.lower(): v for k, v in (constants or {}).items()}

    def bind(self, alias: Optional[str], column: str, value: Any) -> None:
        """Bind one column value (under both bare and qualified keys)."""
        self._values[column.lower()] = value
        if alias:
            self._values[f"{alias.lower()}.{column.lower()}"] = value

    def lookup(self, ref: ColumnRef) -> Any:
        """Resolve a column reference, falling back to named constants."""
        if ref.qualifier:
            key = f"{ref.qualifier.lower()}.{ref.name.lower()}"
            if key in self._values:
                return self._values[key]
            raise QueryError(f"unknown column {ref!s}")
        key = ref.name.lower()
        if key in self._values:
            return self._values[key]
        if key in self._constants:
            return self._constants[key]
        raise QueryError(f"unknown column or constant {ref.name!r}")


def evaluate(expr: Expr, ctx: RowContext) -> Any:
    """Evaluate an expression against one row."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, ColumnRef):
        return ctx.lookup(expr)
    if isinstance(expr, UnaryOp):
        return _unary(expr, ctx)
    if isinstance(expr, BinaryOp):
        return _binary(expr, ctx)
    if isinstance(expr, FuncCall):
        return _function(expr, ctx)
    if isinstance(expr, IsNull):
        value = evaluate(expr.operand, ctx)
        return (value is not None) if expr.negated else (value is None)
    if isinstance(expr, (AreaClause, PolygonClause, XMatchClause)):
        raise QueryError(
            f"{type(expr).__name__} cannot be evaluated per-row; it must be "
            "handled by the spatial scan / cross-match machinery"
        )
    if isinstance(expr, Star):
        raise QueryError("'*' is only valid inside SELECT or COUNT(*)")
    raise QueryError(f"cannot evaluate expression node {expr!r}")


def is_true(value: Any) -> bool:
    """SQL-ish truthiness: NULL counts as false."""
    return value is True


def _unary(expr: UnaryOp, ctx: RowContext) -> Any:
    value = evaluate(expr.operand, ctx)
    if expr.op == "NOT":
        if value is None:
            return None
        if isinstance(value, bool):
            return not value
        raise QueryError(f"NOT applied to non-boolean {value!r}")
    if expr.op == "-":
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise QueryError(f"unary minus applied to non-number {value!r}")
        return -value
    raise QueryError(f"unknown unary operator {expr.op!r}")


def _binary(expr: BinaryOp, ctx: RowContext) -> Any:
    op = expr.op
    if op == "AND":
        left = evaluate(expr.left, ctx)
        if not is_true(left):
            return False
        return is_true(evaluate(expr.right, ctx))
    if op == "OR":
        left = evaluate(expr.left, ctx)
        if is_true(left):
            return True
        return is_true(evaluate(expr.right, ctx))

    left = evaluate(expr.left, ctx)
    right = evaluate(expr.right, ctx)
    if op in ("+", "-", "*", "/"):
        return _arith(op, left, right)
    if op in ("=", "<>", "<", "<=", ">", ">="):
        return _compare(op, left, right)
    raise QueryError(f"unknown binary operator {op!r}")


def _arith(op: str, left: Any, right: Any) -> Any:
    if left is None or right is None:
        return None
    if not _is_number(left) or not _is_number(right):
        raise QueryError(
            f"arithmetic {op!r} needs numbers, got {left!r} and {right!r}"
        )
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if right == 0:
        raise QueryError("division by zero")
    return left / right


def _compare(op: str, left: Any, right: Any) -> Any:
    if left is None or right is None:
        return False
    if _is_number(left) and _is_number(right):
        pass  # numbers compare across int/float
    elif type(left) is not type(right):
        raise QueryError(
            f"cannot compare {type(left).__name__} with {type(right).__name__}"
        )
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    return left >= right


def _function(expr: FuncCall, ctx: RowContext) -> Any:
    name = expr.name.upper()
    if name == "COUNT":
        raise QueryError("COUNT(*) is an aggregate; handled by the engine")
    if name == "ABS":
        value = evaluate(expr.args[0], ctx)
        if value is None:
            return None
        if not _is_number(value):
            raise QueryError(f"ABS applied to non-number {value!r}")
        return abs(value)
    raise QueryError(f"unknown function {expr.name!r}")


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# -- whole queries, one row at a time -----------------------------------------


def row_context(table, alias, row, constants) -> RowContext:
    """Bind one stored row's columns, bare and under ``alias``."""
    ctx = RowContext(constants)
    for col, value in zip(table.schema.columns, row):
        ctx.bind(alias, col.name, value)
    return ctx


class SortKey:
    """ORDER BY key: NULLs sort first; DESC flips the comparison."""

    def __init__(self, value: Any, descending: bool) -> None:
        self.value = value
        self.descending = descending

    def __eq__(self, other: object) -> bool:
        return self.value == other.value

    def __lt__(self, other: "SortKey") -> bool:
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


def finish_rows(query: Query, rows: List[tuple], contexts: List[Any], run=None):
    """DISTINCT (first occurrence), ORDER BY on the kept rows' contexts
    (a stable sort), then LIMIT. ``run(expr, ctx)`` evaluates a key."""
    run = run or evaluate
    if query.distinct:
        seen, kept = set(), []
        for row, ctx in zip(rows, contexts):
            if row not in seen:
                seen.add(row)
                kept.append((row, ctx))
        rows = [row for row, _ in kept]
        contexts = [ctx for _, ctx in kept]
    if query.order_by:
        keys = [
            tuple(
                SortKey(run(item.expr, ctx), item.descending)
                for item in query.order_by
            )
            for ctx in contexts
        ]
        rows = [row for _, row in sorted(zip(keys, rows), key=lambda p: p[0])]
    if query.limit is not None:
        rows = rows[: query.limit]
    return rows


def reference_select(db, query: Query) -> List[tuple]:
    """A single-table query's rows, on a table without AREA predicates.

    Ungrouped: scan in storage order (stopping at LIMIT matches when
    neither ORDER BY nor DISTINCT needs every row), project each match,
    then :func:`finish_rows`. Grouped: accumulate the groups, then
    evaluate HAVING, the select list and ORDER BY per group with
    :func:`evaluate_in_group`.
    """
    table_ref = query.tables[0]
    table = db.table(table_ref.table)
    alias = table_ref.effective_alias
    grouped = is_aggregate_query(query)
    aggregates = collect_aggregates(query) if grouped else []
    stop = (
        query.limit
        if not grouped and not query.order_by and not query.distinct
        else None
    )
    contexts = []
    for pos in range(len(table)):
        if stop is not None and len(contexts) >= stop:
            break
        ctx = row_context(table, alias, table.row(pos), db.constants)
        if query.where is None or is_true(evaluate(query.where, ctx)):
            contexts.append(ctx)
    if not grouped:
        rows = [_project(query, table, ctx) for ctx in contexts]
        return finish_rows(query, rows, contexts)
    groups = _groups(query, aggregates, contexts, db.constants)
    if query.having is not None:
        groups = [
            g for g in groups if is_true(evaluate_in_group(query.having, g))
        ]
    if any(isinstance(item.expr, Star) for item in query.items):
        raise QueryError("SELECT * is not valid in a grouped query")
    rows = [
        tuple(evaluate_in_group(item.expr, g) for item in query.items)
        for g in groups
    ]
    return finish_rows(query, rows, groups, evaluate_in_group)


def _project(query: Query, table, ctx) -> tuple:
    values = []
    for item in query.items:
        if isinstance(item.expr, Star):
            for col in table.schema.columns:
                values.append(ctx.lookup(ColumnRef(None, col.name)))
        else:
            values.append(evaluate(item.expr, ctx))
    return tuple(values)


def evaluate_in_group(expr: Expr, group: Tuple[Dict[Any, Any], RowContext]):
    """Row semantics over a group: every subexpression equal to a
    non-column GROUP BY key or to an aggregate call is replaced by its
    value, and the column-reference keys are bound by name."""
    bound, ctx = group
    return evaluate(_substitute(expr, bound), ctx)


def _substitute(expr: Expr, bound: Dict[Any, Any]) -> Expr:
    if not isinstance(expr, ColumnRef) and expr in bound:
        return Literal(bound[expr])
    if isinstance(expr, BinaryOp):
        return BinaryOp(
            expr.op, _substitute(expr.left, bound), _substitute(expr.right, bound)
        )
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, _substitute(expr.operand, bound))
    if isinstance(expr, IsNull):
        return IsNull(_substitute(expr.operand, bound), expr.negated)
    if isinstance(expr, FuncCall):
        return FuncCall(
            expr.name, tuple(_substitute(arg, bound) for arg in expr.args)
        )
    return expr


def _groups(query, aggregates, contexts, constants):
    """Each group as ``(bound values, context of its column keys)``."""
    groups: Dict[tuple, List[_AggState]] = {}
    for ctx in contexts:
        key = tuple(evaluate(expr, ctx) for expr in query.group_by)
        states = groups.setdefault(key, [_AggState() for _ in aggregates])
        for state, call in zip(states, aggregates):
            name = call.name.upper()
            arg = call.args[0] if call.args else Star()
            if not isinstance(arg, Star):
                state.update(name, evaluate(arg, ctx))
            elif name == "COUNT":
                state.update_star()
            else:
                raise QueryError(f"{name}(*) is not valid; only COUNT(*)")
    if not groups and not query.group_by:
        groups[()] = [_AggState() for _ in aggregates]
    out = []
    for key, states in groups.items():
        bound: Dict[Any, Any] = {}
        ctx = RowContext(constants)
        for expr, value in zip(query.group_by, key):
            if isinstance(expr, ColumnRef):
                ctx.bind(expr.qualifier, expr.name, value)
            else:
                bound[expr] = value
        for call, state in zip(aggregates, states):
            bound[call] = state.result(call.name.upper())
        out.append((bound, ctx))
    return out


def reference_finish(
    query: Query, cross_conjuncts: Sequence[Expr], attribute_dicts, constants
) -> List[tuple]:
    """The Portal's finish, one ``RowContext`` per tuple: cross-archive
    conjuncts, projection, then :func:`finish_rows`."""
    contexts = []
    for attributes in attribute_dicts:
        ctx = RowContext(constants)
        for key, value in attributes.items():
            alias, _, column = key.partition(".")
            ctx.bind(alias, column, value)
        if all(is_true(evaluate(c, ctx)) for c in cross_conjuncts):
            contexts.append(ctx)
    rows = [
        tuple(evaluate(item.expr, ctx) for item in query.items)
        for ctx in contexts
    ]
    return finish_rows(query, rows, contexts)
