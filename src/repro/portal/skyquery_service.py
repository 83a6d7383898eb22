"""The Portal's SkyQuery service — the endpoint clients talk to."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict

from repro.services.framework import WebService
from repro.soap.encoding import ColumnarRowSet, infer_rowset

if TYPE_CHECKING:
    from repro.portal.portal import Portal


class SkyQueryService(WebService):
    """``SubmitQuery``: accepts cross-match SQL, returns the final rows.

    "[The Portal] receives SQL-like queries from the Client through its
    SkyQuery service."
    """

    def __init__(self, portal: "Portal") -> None:
        super().__init__("SkyQuery")
        self._portal = portal
        self.register(
            "SubmitQuery",
            self._submit,
            params=(("sql", "string"), ("strategy", "string")),
            returns="struct",
            doc="Run a federated cross-match query and return its rows.",
        )
        self.register(
            "ExplainQuery",
            self._explain,
            params=(("sql", "string"), ("strategy", "string")),
            returns="struct",
            doc="Decompose, probe, and plan without executing the chain.",
        )
        self.register(
            "GetFederation",
            self._get_federation,
            returns="struct",
            doc="Describe the registered archives (tables, sigma, footprint).",
        )

    def _explain(self, sql: str, strategy: str = "") -> Dict[str, Any]:
        from repro.portal.planner import OrderingStrategy

        chosen = OrderingStrategy(strategy) if strategy else \
            OrderingStrategy.COUNT_DESC
        return self._portal.explain(sql, strategy=chosen)

    def _get_federation(self) -> Dict[str, Any]:
        catalog = self._portal.catalog
        archives = []
        for name in catalog.archives():
            record = catalog.node(name)
            info = record.info
            archives.append(
                {
                    "archive": record.archive,
                    "sigma_arcsec": info.sigma_arcsec,
                    "primary_table": info.primary_table,
                    "object_count": record.object_count,
                    "dialect": record.dialect,
                    "tables": sorted(
                        original for original, _ in record.schema.values()
                    ),
                    "footprint_ra_deg": info.footprint_ra_deg,
                    "footprint_dec_deg": info.footprint_dec_deg,
                    "footprint_radius_arcsec": info.footprint_radius_arcsec,
                }
            )
        return {
            "federation_size": len(catalog),
            "archives": archives,
            "queries_served": self._portal.queries_served,
        }

    def _submit(self, sql: str, strategy: str = "") -> Dict[str, Any]:
        from repro.portal.planner import OrderingStrategy

        chosen = OrderingStrategy.COUNT_DESC
        if strategy:
            chosen = OrderingStrategy(strategy)
        result = self._portal.submit(sql, strategy=chosen)
        return {
            "columns": list(result.columns),
            "rows": ColumnarRowSet(infer_rowset(result.columns, result.rows)),
            "stats": result.node_stats,
            "counts": dict(result.counts),
            "epochs": dict(result.epochs),
            "matched_tuples": result.matched_tuples,
            "plan": result.plan.to_wire() if result.plan is not None else None,
            "warnings": list(result.warnings),
            "degraded": result.degraded,
            "failovers": result.failovers,
        }
