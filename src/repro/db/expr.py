"""WHERE/SELECT expression evaluation: each expression compiled once per query.

:func:`compile_expr` resolves every column reference of an expression to a
*slot* of the row it will run over, once, and returns a closure over one
row. A row is any sequence; ``columns`` names its slots:

* a :class:`ColumnRef` entry binds its slot by name, bare and (when it
  has a qualifier) alias-qualified — a table row binds
  ``ColumnRef(alias, column)`` per stored column, a Portal tuple one per
  ``alias.column`` attribute;
* any other entry binds its slot to every subexpression structurally
  equal to it — a grouped query's *group row* is its GROUP BY keys then
  its aggregate calls, so ``MAX(x) - MIN(x)`` reads two slots.

The semantics are a simplified SQL:

* NULL propagates through arithmetic; any comparison involving NULL is
  false. AND/OR short-circuit and treat NULL as false; ``NOT NULL`` is
  NULL. This is two-valued logic, a documented shortcut and not SQL:
  ``NOT (x > 1)`` is *true* when x is NULL, because ``x > 1`` is false
  (SQL's three-valued logic would say unknown).
* int and float mix; any other type mix in a comparison is an error.
* Bare identifiers that do not resolve to a column are looked up in the
  database's *named constants* (the sample query's ``O.type = GALAXY`` uses
  the astronomy constant GALAXY). A bare name bound under several aliases
  resolves to the last one bound.

Compiling never raises. Every error — an unknown column, a misplaced
``AREA`` or ``COUNT``, a type mismatch, a division by zero — is raised by
the closure, on the row that first reaches it, so ``1 > 2 AND nope = 1``
is false and a query that matches no row raises nothing.
"""

from __future__ import annotations

import operator
from functools import singledispatch
from operator import itemgetter
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

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
    Star,
    UnaryOp,
    XMatchClause,
)

#: A compiled expression: one row in, one value out.
Compiled = Callable[[Sequence[Any]], Any]


class _Scope:
    """Where each name and bound subexpression lives in the row."""

    def __init__(
        self, columns: Sequence[Expr], constants: Optional[Mapping[str, Any]]
    ) -> None:
        self.names: Dict[str, int] = {}
        self.bound: Dict[Expr, int] = {}
        for slot, column in enumerate(columns):
            if isinstance(column, ColumnRef):
                name = column.name.lower()
                self.names[name] = slot
                if column.qualifier:
                    self.names[f"{column.qualifier.lower()}.{name}"] = slot
            else:
                self.bound[column] = slot
        self.constants = {k.lower(): v for k, v in (constants or {}).items()}

    def slot_of(self, expr: Expr) -> Optional[int]:
        """The slot an expression reads whole, if it is one."""
        if isinstance(expr, ColumnRef):
            if expr.qualifier:
                return self.names.get(
                    f"{expr.qualifier.lower()}.{expr.name.lower()}"
                )
            return self.names.get(expr.name.lower())
        return self.bound.get(expr)


def compile_expr(
    expr: Expr,
    columns: Sequence[Expr],
    constants: Optional[Mapping[str, Any]] = None,
) -> Compiled:
    """Compile an expression over rows whose slots ``columns`` names."""
    return _compile(expr, _Scope(columns, constants))


def compile_predicate(
    expr: Expr,
    columns: Sequence[Expr],
    constants: Optional[Mapping[str, Any]] = None,
) -> Callable[[Sequence[Any]], bool]:
    """Compile a condition: true only where the expression is TRUE (NULL,
    and any value that is not the boolean true, counts as false)."""
    test = compile_expr(expr, columns, constants)
    return lambda row: test(row) is True


def compile_row(
    exprs: Sequence[Expr],
    columns: Sequence[Expr],
    constants: Optional[Mapping[str, Any]] = None,
) -> Callable[[Sequence[Any]], Tuple[Any, ...]]:
    """Compile a list of expressions into one row-to-tuple projection.

    A list of plain slot reads (a SELECT list of column references, a
    GROUP BY of columns) compiles to one :func:`operator.itemgetter`.
    """
    scope = _Scope(columns, constants)
    slots = [scope.slot_of(expr) for expr in exprs]
    if len(slots) > 1 and None not in slots:
        return itemgetter(*slots)
    if len(slots) == 1 and slots[0] is not None:
        (slot,) = slots
        return lambda row: (row[slot],)
    parts = [_compile(expr, scope) for expr in exprs]
    return lambda row: tuple([part(row) for part in parts])


def _compile(expr: Expr, scope: _Scope) -> Compiled:
    slot = scope.bound.get(expr) if scope.bound else None
    if slot is not None:
        return itemgetter(slot)
    return _node(expr, scope)


def _raises(message: str) -> Compiled:
    def fail(row: Sequence[Any]) -> Any:
        raise QueryError(message)

    return fail


@singledispatch
def _node(expr: Any, scope: _Scope) -> Compiled:
    return _raises(f"cannot evaluate expression node {expr!r}")


@_node.register(Literal)
def _literal(expr: Literal, scope: _Scope) -> Compiled:
    value = expr.value
    return lambda row: value


@_node.register(ColumnRef)
def _column(expr: ColumnRef, scope: _Scope) -> Compiled:
    slot = scope.slot_of(expr)
    if slot is not None:
        return itemgetter(slot)
    if expr.qualifier:
        return _raises(f"unknown column {expr!s}")
    key = expr.name.lower()
    if key in scope.constants:
        value = scope.constants[key]
        return lambda row: value
    return _raises(f"unknown column or constant {expr.name!r}")


@_node.register(UnaryOp)
def _unary(expr: UnaryOp, scope: _Scope) -> Compiled:
    operand = _compile(expr.operand, scope)
    if expr.op == "NOT":

        def negate(row: Sequence[Any]) -> Any:
            value = operand(row)
            if value is None:
                return None
            if isinstance(value, bool):
                return not value
            raise QueryError(f"NOT applied to non-boolean {value!r}")

        return negate
    if expr.op == "-":

        def minus(row: Sequence[Any]) -> Any:
            value = operand(row)
            if value is None:
                return None
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise QueryError(f"unary minus applied to non-number {value!r}")
            return -value

        return minus
    message = f"unknown unary operator {expr.op!r}"

    def unknown(row: Sequence[Any]) -> Any:
        operand(row)
        raise QueryError(message)

    return unknown


def _divide(left: Any, right: Any) -> Any:
    if right == 0:
        raise QueryError("division by zero")
    return left / right


_ARITHMETIC = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _divide,
}
_COMPARISONS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


@_node.register(BinaryOp)
def _binary(expr: BinaryOp, scope: _Scope) -> Compiled:
    op = expr.op
    left = _compile(expr.left, scope)
    right = _compile(expr.right, scope)
    if op == "AND":
        return lambda row: left(row) is True and right(row) is True
    if op == "OR":
        return lambda row: left(row) is True or right(row) is True
    if op in _ARITHMETIC:
        apply = _ARITHMETIC[op]

        def arithmetic(row: Sequence[Any]) -> Any:
            a, b = left(row), right(row)
            if a is None or b is None:
                return None
            if not _is_number(a) or not _is_number(b):
                raise QueryError(
                    f"arithmetic {op!r} needs numbers, got {a!r} and {b!r}"
                )
            return apply(a, b)

        return arithmetic
    if op in _COMPARISONS:
        compare = _COMPARISONS[op]

        def comparison(row: Sequence[Any]) -> Any:
            a, b = left(row), right(row)
            if a is None or b is None:
                return False
            if type(a) is not type(b) and not (
                _is_number(a) and _is_number(b)
            ):
                raise QueryError(
                    f"cannot compare {type(a).__name__} with {type(b).__name__}"
                )
            return compare(a, b)

        return comparison
    message = f"unknown binary operator {op!r}"

    def unknown(row: Sequence[Any]) -> Any:
        left(row)
        right(row)
        raise QueryError(message)

    return unknown


@_node.register(FuncCall)
def _function(expr: FuncCall, scope: _Scope) -> Compiled:
    name = expr.name.upper()
    if name == "COUNT":
        return _raises("COUNT(*) is an aggregate; handled by the engine")
    if name != "ABS":
        return _raises(f"unknown function {expr.name!r}")
    if not expr.args:
        return _raises("ABS needs an argument")
    operand = _compile(expr.args[0], scope)

    def absolute(row: Sequence[Any]) -> Any:
        value = operand(row)
        if value is None:
            return None
        if not _is_number(value):
            raise QueryError(f"ABS applied to non-number {value!r}")
        return abs(value)

    return absolute


@_node.register(IsNull)
def _is_null(expr: IsNull, scope: _Scope) -> Compiled:
    operand = _compile(expr.operand, scope)
    if expr.negated:
        return lambda row: operand(row) is not None
    return lambda row: operand(row) is None


@_node.register(AreaClause)
@_node.register(PolygonClause)
@_node.register(XMatchClause)
def _spatial(expr: Expr, scope: _Scope) -> Compiled:
    return _raises(
        f"{type(expr).__name__} cannot be evaluated per-row; it must be "
        "handled by the spatial scan / cross-match machinery"
    )


@_node.register(Star)
def _star(expr: Star, scope: _Scope) -> Compiled:
    return _raises("'*' is only valid inside SELECT or COUNT(*)")


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)
