"""The pull-everything-to-the-mediator baseline.

Runs the same decomposed cross-match query, but instead of daisy-chaining
partial results between SkyNodes, the Portal pulls every archive's full
AREA-qualified row set over the network (via each node's Query service)
and computes the cross match centrally. Correctness is identical — the
benchmarks compare wire bytes and simulated time against the chain.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import ExecutionError
from repro.portal.decompose import DecomposedQuery, NodeSubquery, decompose
from repro.portal.executor import FederatedResult
from repro.portal.portal import Portal
from repro.soap.encoding import WireRowSet
from repro.sphere.coords import radec_to_vector
from repro.sql.ast import (
    BinaryOp,
    ColumnRef,
    Expr,
    Query,
    SelectItem,
    TableRef,
)
from repro.sql.parser import parse_query
from repro.sql.printer import to_sql
from repro.units import arcsec_to_rad
from repro.xmatch.stream import run_chain
from repro.xmatch.tuples import LocalObject

PHASE = "pull-mediator"


class PullMediator:
    """Pulls full per-archive results to the Portal and matches there.

    The central matcher is :func:`repro.xmatch.stream.run_chain`'s default
    engine; the Portal-side finish is the chain executor's own, so both
    strategies answer every query with the same rows in the same order.
    """

    def __init__(self, portal: Portal) -> None:
        self._portal = portal

    def execute(self, sql: str) -> FederatedResult:
        """Run a cross-match query with the pull strategy."""
        query = parse_query(sql)
        decomposed = decompose(query, self._portal.catalog)
        assert decomposed.xmatch is not None

        network = self._portal.require_network()
        pulled: Dict[str, List[LocalObject]] = {}
        with network.phase(PHASE):
            for term in decomposed.xmatch.terms:
                subquery = decomposed.subqueries[term.alias]
                pulled[term.alias] = self._pull_archive(subquery, decomposed)

        # Mandatory archives first (query order), then drop-outs — the
        # reference matcher requires a mean position before exclusion tests.
        chain_spec = []
        for term in decomposed.xmatch.mandatory + decomposed.xmatch.dropouts:
            record = self._portal.catalog.node(
                decomposed.subqueries[term.alias].archive
            )
            chain_spec.append(
                (
                    term.alias,
                    pulled[term.alias],
                    arcsec_to_rad(record.info.sigma_arcsec),
                    term.dropout,
                )
            )
        tuples = run_chain(chain_spec, decomposed.xmatch.threshold)
        return self._portal.executor._finish(
            None, decomposed, tuples, stats=[]
        )

    def _pull_archive(
        self, subquery: NodeSubquery, decomposed: DecomposedQuery
    ) -> List[LocalObject]:
        record = self._portal.catalog.node(subquery.archive)
        info = record.info
        items: List[SelectItem] = [
            SelectItem(ColumnRef(subquery.alias, info.object_id_column)),
            SelectItem(ColumnRef(subquery.alias, info.ra_column)),
            SelectItem(ColumnRef(subquery.alias, info.dec_column)),
        ]
        items.extend(
            SelectItem(ColumnRef(subquery.alias, column))
            for column, _, _ in subquery.attr_select
        )
        where: Expr | None = decomposed.area
        if subquery.residual_sql:
            from repro.sql.parser import parse_expression

            residual = parse_expression(subquery.residual_sql)
            where = residual if where is None else BinaryOp("AND", where, residual)
        node_query = Query(
            items=tuple(items),
            tables=(TableRef(None, subquery.table, subquery.alias),),
            where=where,
        )
        proxy = self._portal.proxy(record.services["query"])
        # The chunk-aware call: pull-based mediators face exactly the same
        # XML parser ceiling as the chain, so they need the same workaround.
        from repro.services.chunked import receive_rowset

        response = proxy.call("ExecuteQueryChunked", sql=to_sql(node_query))
        rowset = receive_rowset(response, proxy)
        if not isinstance(rowset, WireRowSet):
            raise ExecutionError(
                f"Query service at {subquery.archive!r} returned no rowset"
            )
        attr_names = [column for column, _, _ in subquery.attr_select]
        objects: List[LocalObject] = []
        for row in rowset.rows:
            objects.append(
                LocalObject(
                    object_id=int(row[0]),
                    position=radec_to_vector(float(row[1]), float(row[2])),
                    attributes=dict(zip(attr_names, row[3:])),
                )
            )
        return objects
