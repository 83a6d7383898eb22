"""The live-ingest service: batched uploads that commit as snapshot epochs.

The paper's federation is read-only; archives in practice keep observing.
This extension service accepts batched row uploads against a primary
archive and commits each upload set as ONE new snapshot epoch, fanned out
to every replica through the two-phase-commit Transaction services — so
primaries and mirrors advance their epoch counters in lockstep and no
replica ever exposes a partial upload. In-flight queries keep reading the
epoch they were planned at (see ``Portal.submit(pin_epochs=...)``).

Upload sessions are *volatile*: a primary crash before CommitEpoch drops
the session and the client starts over. The 2PC coordinator log is
durable, so a crash mid-decision is replayed by :meth:`IngestService.
_recover` exactly like any other in-doubt transaction.
"""

from __future__ import annotations

import itertools
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, ContextManager, Dict, List, Optional

from repro.errors import IngestError, SoapFaultError, TransportError
from repro.services.framework import WebService
from repro.soap.encoding import ColumnarRowSet, WireRowSet
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

        with self._span("ingest-commit"):
            staged = self._stage_everywhere(txn_id, session, participants)
            if not staged:
                # A participant was unreachable mid-staging: no one can
                # vote commit on a partial stage, so presume abort
                # everywhere (best effort — a crashed replica lost its
                # ACTIVE txn anyway and Prepare-on-unknown votes abort).
                self._abort_everywhere(txn_id, participants)
                del self._sessions[ingest_id]
                return {
                    "committed": False,
                    "epoch": node.db.committed_epoch,
                    "txn_id": txn_id,
                    "participants": [],
                    "votes": [],
                    "abort_reason": "staging failed: participant unreachable",
                }
            coordinator = TwoPhaseCoordinator(
                network, node.hostname, self.coordinator_log
            )
            outcome = coordinator.complete(txn_id, participants)
            if network.tracer is not None:
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

    # -- fan-out ---------------------------------------------------------------

    def _stage_everywhere(
        self,
        txn_id: str,
        session: _IngestSession,
        participants: List[str],
    ) -> bool:
        """Begin + stage every batch at every participant; False on failure.

        Staging sequence numbers make retried batches idempotent; an
        unreachable participant aborts the whole upload (no quorum games —
        an epoch exists on every mirror or on none).
        """
        from repro.transport.chunking import chunk_rowset

        node = self._node
        try:
            with node.network.phase(PHASE):
                for url in participants:
                    proxy = node.proxy(url)
                    proxy.call("Begin", txn_id=txn_id, advance_epoch=True)
                    seq = 0
                    for batch in session.batches:
                        for chunk in chunk_rowset(
                            ColumnarRowSet(batch), self.stage_rows_per_call
                        ):
                            proxy.call(
                                "StageRows",
                                txn_id=txn_id,
                                table=session.table,
                                rows=chunk,
                                seq=seq,
                            )
                            seq += 1
        except (TransportError, SoapFaultError):
            # Unreachable, or a participant that crashed mid-protocol and
            # lost its ACTIVE transaction — either way the stage set is
            # incomplete and the upload must abort everywhere.
            return False
        return True

    def _abort_everywhere(self, txn_id: str, participants: List[str]) -> None:
        node = self._node
        with node.network.phase(PHASE):
            for url in participants:
                try:
                    node.proxy(url).call("Abort", txn_id=txn_id)
                except TransportError:
                    pass  # presumed abort: Prepare on an unknown txn fails

    # -- helpers ---------------------------------------------------------------

    def _require(self, ingest_id: str) -> _IngestSession:
        session = self._sessions.get(ingest_id)
        if session is None:
            raise IngestError(
                f"unknown ingest session {ingest_id!r} (a primary crash "
                "drops open sessions; begin a new one)"
            )
        return session

    def _span(self, name: str) -> ContextManager:
        network = self._node.network
        if network is None or network.tracer is None:
            return nullcontext(None)
        return network.tracer.span(name, host=self._node.hostname)

    def crash(self) -> None:
        """Lose volatile state: every open upload session vanishes.

        The coordinator log is durable (it models a write-ahead log on
        disk), so in-doubt epoch commits survive for :meth:`_recover`.
        """
        self._sessions.clear()
