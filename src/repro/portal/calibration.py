"""Black-box cost calibration of the component archives.

The paper's count-star approach "follows the basic approach of treating
component DBMSs as black boxes, running test queries on them, and finally
estimating transmission costs from the results", citing Du et al. [Du92]
and Zhu & Larson [Zhu96]. Count star estimates *rows*; but transmission
cost is *bytes*, and archives contribute very different row widths to the
partial results (one flux column vs five plus a type string). This module
extends the black-box idea one step: a small sampling query per archive
measures the serialized bytes-per-row and the round-trip time, giving the
planner a byte-based ordering (``OrderingStrategy.BYTES_DESC``) to compare
against the paper's count ordering (experiment E14).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional

from repro.errors import PlanningError
from repro.portal.decompose import DecomposedQuery, NodeSubquery
from repro.soap.encoding import ColumnarRowSet, WireRowSet
from repro.sql.ast import (
    BinaryOp,
    ColumnRef,
    Expr,
    Query,
    SelectItem,
    TableRef,
)
from repro.sql.parser import parse_expression
from repro.sql.printer import to_sql
from repro.transport.chunking import envelope_bytes

if TYPE_CHECKING:
    from repro.portal.portal import Portal

PHASE = "calibration"


@dataclass(frozen=True)
class ArchiveCostModel:
    """Measured transfer characteristics of one archive for one query."""

    alias: str
    archive: str
    bytes_per_row: float
    round_trip_s: float
    sample_rows: int

    def estimated_bytes(self, row_count: int) -> float:
        """Predicted serialized size of ``row_count`` result rows."""
        return row_count * self.bytes_per_row


class CostCalibrator:
    """Runs per-archive sampling queries and fits the byte cost model."""

    def __init__(self, portal: "Portal", *, sample_limit: int = 32) -> None:
        self._portal = portal
        self.sample_limit = sample_limit

    def calibrate(
        self,
        decomposed: DecomposedQuery,
        services_for: Optional[Mapping[str, Mapping[str, str]]] = None,
    ) -> Dict[str, ArchiveCostModel]:
        """Measure bytes-per-row and RTT at every mandatory archive.

        ``services_for`` (alias -> endpoint set) names the replica a
        failed-over archive is planned against: its sample goes there,
        not to the dead primary.
        """
        network = self._portal.require_network()
        models: Dict[str, ArchiveCostModel] = {}
        with network.phase(PHASE):
            for alias in decomposed.mandatory_aliases:
                subquery = decomposed.subqueries[alias]
                models[alias] = self._calibrate_archive(
                    alias, subquery, decomposed, network,
                    (services_for or {}).get(alias),
                )
        return models

    def _calibrate_archive(
        self, alias: str, subquery: NodeSubquery, decomposed: DecomposedQuery,
        network, services: Optional[Mapping[str, str]],
    ) -> ArchiveCostModel:
        record = self._portal.catalog.node(subquery.archive)
        sample_sql = to_sql(self._sample_query(subquery, decomposed, record))
        proxy = self._portal.proxy((services or record.services)["query"])
        started = network.clock.now
        rowset = proxy.call("ExecuteQuery", sql=sample_sql)
        round_trip = network.clock.now - started
        if not isinstance(rowset, WireRowSet):
            raise PlanningError(
                f"calibration query at {subquery.archive!r} returned no rowset"
            )
        # Sized in the form the Query service ships (and the chain's
        # batches travel in): the colset, not the row form.
        shipped = ColumnarRowSet(rowset)
        overhead = envelope_bytes(shipped.slice(0, 0))
        n_rows = len(rowset.rows)
        if n_rows:
            per_row = (envelope_bytes(shipped) - overhead) / n_rows
        else:
            per_row = 0.0
        return ArchiveCostModel(
            alias=alias,
            archive=record.archive,
            bytes_per_row=max(1.0, per_row),
            round_trip_s=round_trip,
            sample_rows=n_rows,
        )

    def _sample_query(
        self, subquery: NodeSubquery, decomposed: DecomposedQuery, record
    ) -> Query:
        """The node query limited to a handful of rows.

        Samples exactly the columns the plan would ship (id + position +
        requested attributes), so the measured row width is the shipped
        row width.
        """
        info = record.info
        alias = subquery.alias
        items: List[SelectItem] = [
            SelectItem(ColumnRef(alias, info.object_id_column)),
            SelectItem(ColumnRef(alias, info.ra_column)),
            SelectItem(ColumnRef(alias, info.dec_column)),
        ]
        items.extend(
            SelectItem(ColumnRef(alias, column))
            for column, _, _ in subquery.attr_select
        )
        where: Optional[Expr] = decomposed.area
        if subquery.residual_sql:
            residual = parse_expression(subquery.residual_sql)
            where = residual if where is None else BinaryOp("AND", where, residual)
        return Query(
            items=tuple(items),
            tables=(TableRef(None, subquery.table, alias),),
            where=where,
            limit=self.sample_limit,
        )
