"""Aggregate evaluation: COUNT / SUM / AVG / MIN / MAX with GROUP BY / HAVING.

The engine detects aggregate queries (any select item, HAVING, or ORDER BY
key containing an aggregate call, or an explicit GROUP BY), scans matching
rows once while accumulating per-group state, then evaluates HAVING, the
select list and ORDER BY against each finished group's *group row* (GROUP
BY keys, then aggregate values) with the one expression compiler of
:mod:`repro.db.expr` — so grouped expressions follow row semantics. Standard SQL NULL semantics:
``COUNT(*)`` counts rows, every other aggregate ignores NULL inputs, and an
empty input yields NULL (0 for COUNT).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.db.expr import compile_expr, compile_row
from repro.errors import QueryError
from repro.sql.ast import BinaryOp, Expr, FuncCall, IsNull, Query, Star, UnaryOp

AGGREGATE_NAMES = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})


def is_aggregate_call(expr: Expr) -> bool:
    """True for a COUNT/SUM/AVG/MIN/MAX call node."""
    return isinstance(expr, FuncCall) and expr.name.upper() in AGGREGATE_NAMES


def is_count_star(expr: Expr) -> bool:
    """True for ``COUNT(*)``."""
    return (
        isinstance(expr, FuncCall)
        and expr.name.upper() == "COUNT"
        and len(expr.args) == 1
        and isinstance(expr.args[0], Star)
    )


def contains_aggregate(expr: Expr) -> bool:
    """True if any aggregate call appears in the expression tree."""
    if is_aggregate_call(expr):
        return True
    if isinstance(expr, FuncCall):
        return any(contains_aggregate(a) for a in expr.args)
    if isinstance(expr, BinaryOp):
        return contains_aggregate(expr.left) or contains_aggregate(expr.right)
    if isinstance(expr, UnaryOp):
        return contains_aggregate(expr.operand)
    if isinstance(expr, IsNull):
        return contains_aggregate(expr.operand)
    return False


def is_aggregate_query(query: Query) -> bool:
    """True if the query needs the grouped execution path."""
    if query.group_by:
        return True
    if any(contains_aggregate(item.expr) for item in query.items):
        return True
    if query.having is not None:
        return True
    return any(contains_aggregate(item.expr) for item in query.order_by)


def collect_aggregates(query: Query) -> List[FuncCall]:
    """Every distinct aggregate call in SELECT, HAVING, and ORDER BY."""
    found: List[FuncCall] = []

    def walk(expr: Expr) -> None:
        if is_aggregate_call(expr):
            assert isinstance(expr, FuncCall)
            for arg in expr.args:
                if contains_aggregate(arg):
                    raise QueryError("aggregates cannot be nested")
            if expr not in found:
                found.append(expr)
            return
        if isinstance(expr, FuncCall):
            for arg in expr.args:
                walk(arg)
        elif isinstance(expr, BinaryOp):
            walk(expr.left)
            walk(expr.right)
        elif isinstance(expr, (UnaryOp, IsNull)):
            walk(expr.operand)

    for item in query.items:
        walk(item.expr)
    if query.having is not None:
        walk(query.having)
    for order in query.order_by:
        walk(order.expr)
    return found


@dataclass
class _AggState:
    count: int = 0
    total: float = 0.0
    saw_float: bool = False
    minimum: Any = None
    maximum: Any = None

    def update_star(self) -> None:
        """COUNT(*): every row counts."""
        self.count += 1

    def update(self, name: str, value: Any) -> None:
        if name == "COUNT":
            if value is not None:
                self.count += 1
            return
        if value is None:
            return
        self.count += 1
        if name in ("SUM", "AVG"):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise QueryError(f"{name} needs numeric input, got {value!r}")
            self.total += value
            if isinstance(value, float):
                self.saw_float = True
        elif name == "MIN":
            if self.minimum is None or _less(value, self.minimum):
                self.minimum = value
        elif name == "MAX":
            if self.maximum is None or _less(self.maximum, value):
                self.maximum = value

    def result(self, name: str) -> Any:
        if name == "COUNT":
            return self.count
        if self.count == 0:
            return None
        if name == "SUM":
            return self.total if self.saw_float else int(self.total)
        if name == "AVG":
            return self.total / self.count
        if name == "MIN":
            return self.minimum
        return self.maximum


def _less(a: Any, b: Any) -> bool:
    try:
        return a < b
    except TypeError:
        raise QueryError(
            f"cannot compare {type(a).__name__} with {type(b).__name__} "
            "inside MIN/MAX"
        ) from None


def group_rows(
    query: Query,
    aggregates: Sequence[FuncCall],
    rows: Iterable[Sequence[Any]],
    columns: Sequence[Expr],
    constants: Optional[Mapping[str, Any]] = None,
) -> List[Tuple[Any, ...]]:
    """Accumulate matching rows into GROUP BY buckets, in first-seen order.

    Each bucket comes back as its *group row*: the GROUP BY key values,
    then one value per call in ``aggregates``. An ungrouped aggregate
    query gets one (possibly empty) group even when no rows matched —
    ``SELECT COUNT(*) ...`` is 0, not zero rows.
    """
    key_of = compile_row(query.group_by, columns, constants)
    updates = []
    for call in aggregates:
        arg = call.args[0] if call.args else Star()
        compiled = (
            None if isinstance(arg, Star)
            else compile_expr(arg, columns, constants)
        )
        updates.append((call.name.upper(), compiled))
    groups: Dict[Tuple[Any, ...], List[_AggState]] = {}
    for row in rows:
        key = key_of(row)
        states = groups.get(key)
        if states is None:
            states = groups[key] = [_AggState() for _ in updates]
        for state, (name, arg) in zip(states, updates):
            if arg is not None:
                state.update(name, arg(row))
            elif name == "COUNT":
                state.update_star()
            else:
                raise QueryError(f"{name}(*) is not valid; only COUNT(*)")
    if not groups and not query.group_by:
        groups[()] = [_AggState() for _ in updates]
    return [
        key + tuple(state.result(name) for state, (name, _) in zip(states, updates))
        for key, states in groups.items()
    ]
