"""Transactional data exchange: replicate a sky region across archives.

The motivating use case for the paper's transactions extension: copy all
of a source archive's objects inside an AREA into replica tables at one or
more target archives — atomically, so no target ever exposes a partial
copy. The rows travel over the Query service (chunk-aware), staging and
2PC over the Transaction services.
"""

from __future__ import annotations

import itertools
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import TransactionError
from repro.portal.portal import Portal
from repro.services.chunked import receive_rowset
from repro.services.client import ServiceProxy
from repro.soap.encoding import ColumnarRowSet, WireRowSet
from repro.sql.ast import (
    AreaLike,
    ColumnRef,
    Query,
    SelectItem,
    TableRef,
)
from repro.sql.printer import to_sql
from repro.transactions.coordinator import TwoPhaseCoordinator, TxnOutcome
from repro.transport.chunking import chunk_rowset

_txn_counter = itertools.count(1)


@dataclass
class ExchangeResult:
    """Outcome of one replication exchange."""

    txn_id: str
    committed: bool
    rows_copied: int
    replica_table: str
    votes: Dict[str, str] = field(default_factory=dict)
    abort_reason: str = ""


class DataExchange:
    """Region replication from one archive into others, under 2PC."""

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

    def replicate_region(
        self,
        source_archive: str,
        target_archives: List[str],
        area: AreaLike,
        *,
        columns: Optional[List[str]] = None,
        target_table: Optional[str] = None,
    ) -> ExchangeResult:
        """Copy the source's in-AREA objects into each target, atomically.

        ``target_table`` overrides the default ``{source}_replica`` name —
        the full-replica provisioning path uses the source's own primary
        table name so a replica SkyNode answers the same node queries.
        """
        tracer = self.portal.require_network().tracer
        scope = (
            tracer.span("replicate-region", host=self.portal.hostname)
            if tracer is not None
            else nullcontext(None)
        )
        with scope:
            result = self._replicate_region(
                source_archive,
                target_archives,
                area,
                columns=columns,
                target_table=target_table,
            )
            if tracer is not None:
                tracer.annotate(
                    "exchange",
                    txn_id=result.txn_id,
                    committed=result.committed,
                    rows_copied=result.rows_copied,
                )
        return result

    def _replicate_region(
        self,
        source_archive: str,
        target_archives: List[str],
        area: AreaLike,
        *,
        columns: Optional[List[str]] = None,
        target_table: Optional[str] = None,
    ) -> ExchangeResult:
        if not target_archives:
            raise TransactionError("replicate_region needs at least one target")
        source = self.portal.catalog.node(source_archive)
        rowset = self._pull_source_rows(source, area, columns)
        replica_table = target_table or f"{source_archive.lower()}_replica"
        txn_id = f"xchg-{source_archive.lower()}-{next(_txn_counter)}"

        participants = []
        for archive in target_archives:
            url = self.transaction_urls.get(archive)
            if url is None:
                raise TransactionError(
                    f"archive {archive!r} has no Transaction service"
                )
            participants.append(url)

        network = self.portal.require_network()
        with network.phase("transaction"):
            column_specs = [
                {"name": name.split(".", 1)[-1], "type": code}
                for name, code in rowset.columns
            ]
            for url in participants:
                proxy = self._proxy(url)
                proxy.call("Begin", txn_id=txn_id)
                proxy.call(
                    "EnsureTable", table=replica_table, columns=column_specs
                )
                for chunk in chunk_rowset(
                    ColumnarRowSet(rowset), self.stage_rows_per_call
                ):
                    proxy.call(
                        "StageRows",
                        txn_id=txn_id,
                        table=replica_table,
                        rows=chunk,
                    )
        outcome: TxnOutcome = self.coordinator.complete(txn_id, participants)
        return ExchangeResult(
            txn_id=txn_id,
            committed=outcome.committed,
            rows_copied=len(rowset.rows) if outcome.committed else 0,
            replica_table=replica_table,
            votes=outcome.votes,
            abort_reason=outcome.abort_reason,
        )

    def pull_table_with_positions(
        self,
        source_archive: str,
        columns: List[str],
        *,
        position_column: str = "_skyq_pos",
    ) -> WireRowSet:
        """Pull every row of the source's primary table, in table order,
        with each row's position appended as a trailing int column.

        The position is the row's index in the source's own scan order —
        the same order the monolithic cross-match engine visits rows in —
        so shard tables carrying it can reproduce the monolithic result
        order exactly after a partitioned query's merge (see
        :mod:`repro.shard.merge`). Travels over the source's Query
        service like any replication pull; the position is assigned
        client-side because it is an artifact of *this* table's layout,
        not a column the source schema knows about.
        """
        source = self.portal.catalog.node(source_archive)
        info = source.info
        query = Query(
            items=tuple(
                SelectItem(ColumnRef("s", column)) for column in columns
            ),
            tables=(TableRef(None, info.primary_table, "s"),),
        )
        proxy = self._proxy(source.services["query"])
        network = self.portal.require_network()
        with network.phase("transaction"):
            response = proxy.call("ExecuteQueryChunked", sql=to_sql(query))
            rowset = receive_rowset(response, proxy)
        return WireRowSet(
            list(rowset.columns) + [(position_column, "int")],
            [tuple(row) + (pos,) for pos, row in enumerate(rowset.rows)],
        )

    def stage_partitioned(
        self,
        assignments: Dict[str, Dict[str, WireRowSet]],
        *,
        txn_label: str,
    ) -> ExchangeResult:
        """Stage *different* rows at each participant, under ONE 2PC.

        The shard-provisioning path: ``assignments`` maps participant
        keys (present in ``transaction_urls``) to the rows each must
        apply, by target table — a shard and its mirrors receive
        identical slices, sibling shards disjoint ones (and each its own
        margin copies in a second table). A single transaction spans
        every participant, so either the whole sharded layout appears or
        none of it does; no query can ever observe a half-provisioned
        archive.
        """
        if not assignments:
            raise TransactionError(
                "stage_partitioned needs at least one participant"
            )
        participants: List[str] = []
        for key in assignments:
            url = self.transaction_urls.get(key)
            if url is None:
                raise TransactionError(
                    f"participant {key!r} has no Transaction service"
                )
            participants.append(url)
        txn_id = f"xchg-{txn_label}-{next(_txn_counter)}"
        network = self.portal.require_network()
        with network.phase("transaction"):
            for key in sorted(assignments):
                proxy = self._proxy(self.transaction_urls[key])
                proxy.call("Begin", txn_id=txn_id)
                for table, rowset in assignments[key].items():
                    column_specs = [
                        {"name": name.split(".", 1)[-1], "type": code}
                        for name, code in rowset.columns
                    ]
                    proxy.call(
                        "EnsureTable", table=table, columns=column_specs
                    )
                    for chunk in chunk_rowset(
                        ColumnarRowSet(rowset), self.stage_rows_per_call
                    ):
                        proxy.call(
                            "StageRows", txn_id=txn_id, table=table, rows=chunk
                        )
        outcome: TxnOutcome = self.coordinator.complete(txn_id, participants)
        tables = sorted({t for slices in assignments.values() for t in slices})
        return ExchangeResult(
            txn_id=txn_id,
            committed=outcome.committed,
            rows_copied=sum(
                len(rowset.rows)
                for slices in assignments.values()
                for rowset in slices.values()
            ) if outcome.committed else 0,
            replica_table=", ".join(tables),
            votes=outcome.votes,
            abort_reason=outcome.abort_reason,
        )

    def _proxy(self, url: str) -> ServiceProxy:
        return ServiceProxy(
            self.portal.require_network(), self.portal.hostname, url
        )

    def _pull_source_rows(
        self,
        source,  # NodeRecord
        area: AreaLike,
        columns: Optional[List[str]],
    ) -> WireRowSet:
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
        network = self.portal.require_network()
        with network.phase("transaction"):
            response = proxy.call("ExecuteQueryChunked", sql=to_sql(query))
            return receive_rowset(response, proxy)
