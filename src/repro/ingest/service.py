"""The live-ingest service: batched uploads that commit as snapshot epochs.

The paper's federation is read-only; archives in practice keep observing.
This extension service accepts batched row uploads against a primary
archive and commits each upload set as ONE new snapshot epoch, fanned out
to every replica through the two-phase-commit Transaction services — so
primaries and mirrors advance their epoch counters in lockstep and no
replica ever exposes a partial upload. CommitEpoch ships the batches
through :meth:`TwoPhaseCoordinator.stage_and_complete`, the staging path
replica and shard provisioning use too; a participant that cannot be
staged aborts the epoch everywhere. In-flight queries keep reading the
epoch they were planned at (see ``Portal.submit(pin_epochs=...)``).

Upload sessions are *volatile*: a primary crash before CommitEpoch drops
the session and the client starts over. The 2PC coordinator log is
durable, so a crash mid-decision is replayed by :meth:`IngestService.
_recover` exactly like any other in-doubt transaction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.errors import IngestError
from repro.services.framework import WebService
from repro.soap.encoding import WireRowSet
from repro.transactions.coordinator import CoordinatorLog, TwoPhaseCoordinator

if TYPE_CHECKING:
    from repro.skynode.node import SkyNode

#: Metrics phase for upload + staging fan-out traffic (the 2PC decision
#: itself stays in the coordinator's "transaction" phase).
PHASE = "ingest"


@dataclass
class _IngestSession:
    """One open upload: batches accumulate until CommitEpoch or abort."""

    table: str
    batches: List[WireRowSet] = field(default_factory=list)

    @property
    def row_count(self) -> int:
        return sum(len(batch.rows) for batch in self.batches)


class IngestService(WebService):
    """``BeginIngest`` / ``UploadBatch`` / ``CommitEpoch`` and friends."""

    def __init__(
        self,
        node: "SkyNode",
        *,
        parser_memory_limit: Optional[int] = None,
    ) -> None:
        super().__init__(
            f"{node.info.archive}Ingest",
            parser_memory_limit=parser_memory_limit,
        )
        self._node = node
        self._sessions: Dict[str, _IngestSession] = {}
        # Per-service (not module-global) so identically built federations
        # mint identical ids — txn-id byte lengths feed the simulated
        # transfer times, and the chaos tests rely on twin determinism.
        self._counter = itertools.count(1)
        #: Durable across simulated crashes: the 2PC write-ahead log.
        self.coordinator_log = CoordinatorLog()
        #: Rows per StageRows call during replica fan-out.
        self.stage_rows_per_call = 500
        self.register(
            "BeginIngest", self._begin,
            params=(("table", "string"),),
            returns="struct",
            doc="Open an upload session against one table; returns its id.",
        )
        self.register(
            "UploadBatch", self._upload,
            params=(("ingest_id", "string"), ("rows", "rowset")),
            returns="int",
            doc="Buffer one batch of rows under an open session (volatile "
                "until CommitEpoch).",
        )
        self.register(
            "CommitEpoch", self._commit_epoch,
            params=(("ingest_id", "string"),),
            returns="struct",
            doc="Stage every buffered batch at this archive AND all of its "
                "replicas, then two-phase commit them as one new snapshot "
                "epoch everywhere.",
        )
        self.register(
            "AbortIngest", self._abort,
            params=(("ingest_id", "string"),),
            returns="boolean",
            doc="Discard an upload session (idempotent).",
        )
        self.register(
            "GetEpoch", self._get_epoch,
            returns="struct",
            doc="The archive's committed and oldest-pinnable epochs.",
        )
        self.register(
            "Recover", self._recover,
            returns="struct",
            doc="Replay in-doubt epoch commits from the durable 2PC log.",
        )

    # -- operations ------------------------------------------------------------

    def _begin(self, table: str) -> Dict[str, Any]:
        db = self._node.db
        if not db.has_table(table):
            raise IngestError(
                f"archive {self._node.info.archive!r} has no table {table!r}"
            )
        ingest_id = (
            f"ing-{self._node.info.archive.lower()}-{next(self._counter)}"
        )
        self._sessions[ingest_id] = _IngestSession(table=table)
        return {"ingest_id": ingest_id}

    def _upload(self, ingest_id: str, rows: WireRowSet) -> int:
        session = self._require(ingest_id)
        if not isinstance(rows, WireRowSet):
            raise IngestError("UploadBatch needs a rowset payload")
        session.batches.append(rows)
        return len(rows.rows)

    def _commit_epoch(self, ingest_id: str) -> Dict[str, Any]:
        session = self._require(ingest_id)
        node = self._node
        network = node.network
        if network is None:
            raise IngestError("ingest requires the node to be attached")
        txn_id = f"{ingest_id}-txn"
        participants = [node.enable_transactions()]
        participants.extend(node.replica_transaction_urls)
        stages = [(session.table, batch) for batch in session.batches]

        with network.tracer.span("ingest-commit", host=node.hostname):
            # An epoch exists on every mirror or on none: a participant
            # that cannot be staged aborts the upload everywhere.
            outcome = TwoPhaseCoordinator(
                network, node.hostname, self.coordinator_log
            ).stage_and_complete(
                txn_id,
                {url: stages for url in participants},
                proxy=node.proxy,
                phase=PHASE,
                rows_per_call=self.stage_rows_per_call,
                advance_epoch=True,
            )
            network.tracer.annotate(
                "ingest",
                ingest_id=ingest_id,
                rows=session.row_count,
                committed=outcome.committed,
                epoch=node.db.committed_epoch,
            )
        del self._sessions[ingest_id]
        # Votes travel as parallel arrays: participant URLs cannot be XML
        # element names, so a URL-keyed struct would not encode.
        return {
            "committed": outcome.committed,
            "epoch": node.db.committed_epoch,
            "txn_id": txn_id,
            "participants": list(outcome.votes.keys()),
            "votes": list(outcome.votes.values()),
            "abort_reason": outcome.abort_reason,
        }

    def _abort(self, ingest_id: str) -> bool:
        self._sessions.pop(ingest_id, None)
        return True

    def _get_epoch(self) -> Dict[str, Any]:
        db = self._node.db
        return {
            "committed_epoch": db.committed_epoch,
            "oldest_epoch": db.oldest_epoch,
        }

    def _recover(self) -> Dict[str, Any]:
        node = self._node
        if node.network is None:
            raise IngestError("recover requires the node to be attached")
        coordinator = TwoPhaseCoordinator(
            node.network, node.hostname, self.coordinator_log
        )
        outcomes = coordinator.recover()
        return {
            "replayed": len(outcomes),
            "committed": sum(1 for o in outcomes if o.committed),
            "committed_epoch": node.db.committed_epoch,
        }

    # -- helpers ---------------------------------------------------------------

    def _require(self, ingest_id: str) -> _IngestSession:
        session = self._sessions.get(ingest_id)
        if session is None:
            raise IngestError(
                f"unknown ingest session {ingest_id!r} (a primary crash "
                "drops open sessions; begin a new one)"
            )
        return session

    def crash(self) -> None:
        """Lose volatile state: every open upload session vanishes.

        The coordinator log is durable (it models a write-ahead log on
        disk), so in-doubt epoch commits survive for :meth:`_recover`.
        """
        self._sessions.clear()
