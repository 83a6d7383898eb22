"""Query decomposition: one user query -> per-archive subqueries.

Section 5.1: the Portal "decomposes the queries to generate performance
queries that are used for query optimization". Each archive in the XMATCH
clause gets (a) the local conjuncts it alone can evaluate, (b) the list of
attribute columns it must contribute (for the SELECT list and for
cross-archive predicates the Portal evaluates at the end), and (c) — for
mandatory archives — the count-star performance query.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.errors import ValidationError
from repro.portal.catalog import FederationCatalog, NodeRecord
from repro.portal.plan import node_query
from repro.sql.ast import (
    AreaLike,
    BinaryOp,
    ColumnRef,
    Expr,
    FuncCall,
    IsNull,
    Query,
    SelectItem,
    Star,
    TableRef,
    UnaryOp,
    XMatchClause,
    and_together,
)
from repro.sql.printer import to_sql
from repro.sql.validate import QueryAnalysis, validate_query


@dataclass
class NodeSubquery:
    """Everything one archive contributes to the federated query."""

    alias: str
    archive: str
    table: str  # canonical table name at the archive
    dropout: bool
    residual_sql: str
    attr_select: Tuple[Tuple[str, str, str], ...]  # (column, wire name, typecode)
    node_sql: str  # display form of this archive's spatial query
    perf_sql: Optional[str]  # count-star performance query (mandatory only)


@dataclass
class DecomposedQuery:
    """The validated, decomposed user query."""

    query: Query
    analysis: QueryAnalysis
    area: Optional[AreaLike]
    xmatch: Optional[XMatchClause]
    subqueries: Dict[str, NodeSubquery] = field(default_factory=dict)

    @property
    def mandatory_aliases(self) -> List[str]:
        """Aliases of mandatory archives, in query order."""
        assert self.xmatch is not None
        return [t.alias for t in self.xmatch.mandatory]

    @property
    def dropout_aliases(self) -> List[str]:
        """Aliases of drop-out archives, in query order."""
        assert self.xmatch is not None
        return [t.alias for t in self.xmatch.dropouts]


def decompose(query: Query, catalog: FederationCatalog) -> DecomposedQuery:
    """Validate against the catalog and split into per-archive subqueries."""
    analysis = validate_query(query)
    if analysis.xmatch is None:
        raise ValidationError(
            "decompose() handles cross-match queries; single-archive "
            "queries are routed directly to the node's Query service"
        )

    tables_by_alias: Dict[str, TableRef] = {
        t.effective_alias: t for t in query.tables
    }
    xmatch_aliases = {term.alias for term in analysis.xmatch.terms}
    unmatched = set(tables_by_alias) - xmatch_aliases
    if unmatched:
        raise ValidationError(
            f"FROM table(s) {sorted(unmatched)} do not appear in XMATCH"
        )

    decomposed = DecomposedQuery(
        query=query,
        analysis=analysis,
        area=analysis.area,
        xmatch=analysis.xmatch,
    )

    attr_needs = _attribute_needs(query, analysis)
    for term in analysis.xmatch.terms:
        table_ref = tables_by_alias[term.alias]
        if table_ref.archive is None:
            raise ValidationError(
                f"table {table_ref.table!r} (alias {term.alias!r}) has no "
                "archive qualifier"
            )
        record = catalog.node(table_ref.archive)
        info = record.info
        table = record.resolve_table(table_ref.table)
        attr_select = _resolve_attrs(
            attr_needs.get(term.alias, []), term.alias, table, record
        )
        residual = and_together(tuple(analysis.local_conjuncts[term.alias]))
        _check_columns_exist(residual, term.alias, table, record)
        residual_sql = to_sql(residual) if residual is not None else ""
        decomposed.subqueries[term.alias] = NodeSubquery(
            alias=term.alias,
            archive=record.archive,
            table=table,
            dropout=term.dropout,
            residual_sql=residual_sql,
            attr_select=attr_select,
            node_sql=to_sql(node_query(
                term.alias,
                table,
                (info.object_id_column, info.ra_column, info.dec_column),
                analysis.area,
                residual,
            )),
            perf_sql=None
            if term.dropout
            else _perf_sql(term.alias, table, analysis, residual),
        )
    return decomposed


def _attribute_needs(
    query: Query, analysis: QueryAnalysis
) -> Dict[str, List[str]]:
    """Which columns each alias must contribute (SELECT + cross conjuncts)."""
    needs: Dict[str, List[str]] = {}

    def visit(expr: Expr) -> None:
        if isinstance(expr, ColumnRef):
            if expr.qualifier is None:
                # Might be a named constant (GALAXY); the Portal cannot tell
                # without archive context, so only qualified refs are shipped.
                return
            bucket = needs.setdefault(expr.qualifier, [])
            if expr.name not in bucket:
                bucket.append(expr.name)
        elif isinstance(expr, BinaryOp):
            visit(expr.left)
            visit(expr.right)
        elif isinstance(expr, UnaryOp):
            visit(expr.operand)
        elif isinstance(expr, IsNull):
            visit(expr.operand)
        elif isinstance(expr, FuncCall):
            for arg in expr.args:
                visit(arg)

    for item in query.items:
        if isinstance(item.expr, Star):
            raise ValidationError(
                "SELECT * is not supported in cross-match queries; list "
                "the columns explicitly"
            )
        visit(item.expr)
    for conjunct in analysis.cross_conjuncts:
        visit(conjunct)
    for order_item in query.order_by:
        visit(order_item.expr)
    return needs


def _resolve_attrs(
    columns: List[str], alias: str, table: str, record: NodeRecord
) -> Tuple[Tuple[str, str, str], ...]:
    resolved = []
    for column in columns:
        canonical = record.column_name(table, column)
        typecode = record.column_type(table, column)
        resolved.append((canonical, f"{alias}.{canonical}", typecode))
    return tuple(resolved)


def _check_columns_exist(
    expr: Optional[Expr], alias: str, table: str, record: NodeRecord
) -> None:
    if expr is None:
        return
    if isinstance(expr, ColumnRef):
        if expr.qualifier == alias:
            record.column_name(table, expr.name)  # raises if unknown
    elif isinstance(expr, BinaryOp):
        _check_columns_exist(expr.left, alias, table, record)
        _check_columns_exist(expr.right, alias, table, record)
    elif isinstance(expr, UnaryOp):
        _check_columns_exist(expr.operand, alias, table, record)
    elif isinstance(expr, IsNull):
        _check_columns_exist(expr.operand, alias, table, record)
    elif isinstance(expr, FuncCall):
        for arg in expr.args:
            _check_columns_exist(arg, alias, table, record)


def _perf_sql(
    alias: str, table: str, analysis: QueryAnalysis, residual: Optional[Expr]
) -> str:
    """The count-star performance query for a mandatory archive."""
    query = node_query(alias, table, (), analysis.area, residual)
    return to_sql(
        replace(query, items=(SelectItem(FuncCall("COUNT", (Star(),))),))
    )
