"""Transactional data exchange: copy a source archive's rows to others.

The motivating use case for the paper's transactions extension: copy a
source archive's objects — inside an AREA, or all of them in table order —
into tables at one or more target archives, atomically, so no target ever
exposes a partial copy. An exchange is one pull and one shipment: the rows
travel from the source over its Query service (:meth:`DataExchange.pull`,
chunk-aware), and reach the targets through
:meth:`TwoPhaseCoordinator.stage_and_complete` (:meth:`DataExchange.ship`),
the one staging path every 2PC writer uses. Replica provisioning is a
whole-table :meth:`DataExchange.replicate_region` to every mirror, so a
replica is its primary row for row; shard provisioning pulls once and
ships each shard its own slice.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

from repro.errors import SoapFaultError, TransactionError, TransportError
from repro.portal.portal import Portal
from repro.services.chunked import receive_rowset
from repro.services.client import ServiceProxy
from repro.soap.encoding import WireRowSet
from repro.sql.ast import (
    AreaLike,
    ColumnRef,
    Query,
    SelectItem,
    TableRef,
)
from repro.sql.printer import to_sql
from repro.transactions.coordinator import PHASE, TwoPhaseCoordinator

#: Txn-id sequence numbers, one sequence per coordinating Portal (not one
#: per process): identically built federations mint identical ids and so
#: send identical bytes, and two exchanges of one Portal never reuse an id
#: a participant still remembers.
_TXN_COUNTERS: "WeakKeyDictionary[Portal, Iterator[int]]" = WeakKeyDictionary()


@dataclass
class ExchangeResult:
    """Outcome of one exchange."""

    txn_id: str
    committed: bool
    #: Rows each target applied (the most any one applied, when targets
    #: get different slices); 0 unless committed.
    rows_copied: int
    #: The target table names, comma-separated.
    replica_table: str
    votes: Dict[str, str] = field(default_factory=dict)
    abort_reason: str = ""


class DataExchange:
    """Row copies from one archive into others, under 2PC."""

    def __init__(
        self,
        portal: Portal,
        transaction_urls: Dict[str, str],
        *,
        coordinator: Optional[TwoPhaseCoordinator] = None,
        stage_rows_per_call: int = 500,
    ) -> None:
        """``transaction_urls`` maps archive name -> Transaction service URL."""
        self.portal = portal
        self.transaction_urls = dict(transaction_urls)
        self.coordinator = coordinator or TwoPhaseCoordinator(
            portal.require_network(), portal.hostname
        )
        self.stage_rows_per_call = stage_rows_per_call
        self._txn_ids = _TXN_COUNTERS.setdefault(
            portal, itertools.count(1)
        )

    def replicate_region(
        self,
        source_archive: str,
        target_archives: List[str],
        area: Optional[AreaLike],
        *,
        columns: Optional[List[str]] = None,
        target_table: Optional[str] = None,
    ) -> ExchangeResult:
        """Copy the source's in-AREA objects into each target, atomically.

        ``area=None`` copies the whole primary table in table order.
        ``target_table`` overrides the default ``{source}_replica`` name —
        replica provisioning uses the source's own primary table name so
        a replica SkyNode answers the same node queries.
        """
        if not target_archives:
            raise TransactionError("replicate_region needs at least one target")
        self._require_transaction_services(target_archives)
        table = target_table or f"{source_archive.lower()}_replica"
        tracer = self.portal.require_network().tracer
        with tracer.span("replicate-region", host=self.portal.hostname):
            rowset = self.pull(source_archive, columns, area)
            result = self.ship(
                source_archive.lower(),
                {archive: [(table, rowset)] for archive in target_archives},
            )
            tracer.annotate(
                "exchange",
                txn_id=result.txn_id,
                committed=result.committed,
                rows_copied=result.rows_copied,
            )
        return result

    def pull(
        self,
        source_archive: str,
        columns: Optional[List[str]] = None,
        area: Optional[AreaLike] = None,
    ) -> WireRowSet:
        """``SELECT columns FROM primary [WHERE area]`` at the source, over
        its Query service: the rows in the source's own table order (or
        its AREA scan order). ``columns`` defaults to id, ra and dec."""
        source = self.portal.catalog.node(source_archive)
        info = source.info
        wanted = columns or [
            info.object_id_column, info.ra_column, info.dec_column
        ]
        query = Query(
            items=tuple(
                SelectItem(ColumnRef("s", column)) for column in wanted
            ),
            tables=(TableRef(None, info.primary_table, "s"),),
            where=area,
        )
        proxy = self._proxy(source.services["query"])
        with self.portal.require_network().phase(PHASE):
            response = proxy.call("ExecuteQueryChunked", sql=to_sql(query))
            return receive_rowset(response, proxy)

    def ship(
        self,
        label: str,
        assignments: Dict[str, Sequence[Tuple[str, WireRowSet]]],
    ) -> ExchangeResult:
        """Stage each participant its ``(table, rowset)`` list under ONE 2PC.

        ``assignments`` maps participant keys (present in
        ``transaction_urls``) to the rows each must apply — a replica gets
        the whole table, a shard and its mirrors an identical slice,
        sibling shards disjoint ones. Either every participant applies its
        rows or none does. Each target table is ensured (``EnsureTable``)
        before any ``Begin``; a participant that cannot be reached or
        refuses a call leaves the exchange uncommitted, and no participant
        holds an ACTIVE transaction once the coordinator has recovered.
        """
        if not assignments:
            raise TransactionError("an exchange needs at least one target")
        self._require_transaction_services(assignments)
        txn_id = f"xchg-{label}-{next(self._txn_ids)}"
        stages = {
            self.transaction_urls[key]: list(rows)
            for key, rows in assignments.items()
        }
        try:
            with self.portal.require_network().phase(PHASE):
                for url, rowsets in stages.items():
                    proxy = self._proxy(url)
                    for table, rowset in rowsets:
                        proxy.call(
                            "EnsureTable",
                            table=table,
                            columns=[
                                {"name": name.split(".", 1)[-1], "type": code}
                                for name, code in rowset.columns
                            ],
                        )
        except (TransportError, SoapFaultError) as exc:
            return ExchangeResult(
                txn_id, False, 0, _tables(stages),
                abort_reason=f"EnsureTable failed: {exc}",
            )
        outcome = self.coordinator.stage_and_complete(
            txn_id,
            stages,
            proxy=self._proxy,
            phase=PHASE,
            rows_per_call=self.stage_rows_per_call,
        )
        rows = max(
            sum(len(rowset.rows) for _, rowset in rowsets)
            for rowsets in stages.values()
        )
        return ExchangeResult(
            txn_id=txn_id,
            committed=outcome.committed,
            rows_copied=rows if outcome.committed else 0,
            replica_table=_tables(stages),
            votes=outcome.votes,
            abort_reason=outcome.abort_reason,
        )

    def _require_transaction_services(self, keys: Iterable[str]) -> None:
        """Refuse an exchange to a target this exchange has no
        Transaction service for, before any row moves."""
        for key in keys:
            if key not in self.transaction_urls:
                raise TransactionError(
                    f"archive {key!r} has no Transaction service"
                )

    def _proxy(self, url: str) -> ServiceProxy:
        return ServiceProxy(
            self.portal.require_network(), self.portal.hostname, url
        )


def _tables(stages: Dict[str, List[Tuple[str, WireRowSet]]]) -> str:
    return ", ".join(sorted({t for rowsets in stages.values() for t, _ in rowsets}))
