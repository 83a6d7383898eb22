"""The two-phase-commit coordinator with a write-ahead log.

Rows reach participants one way, :meth:`TwoPhaseCoordinator.
stage_and_complete`: ``Begin`` at every participant, ``StageRows`` in
numbered chunks, then :meth:`~TwoPhaseCoordinator.complete`. Replica and
shard provisioning (:mod:`repro.transactions.exchange`) and every ingest
epoch (:mod:`repro.ingest.service`) ship their rows through it. A staging
call that fails makes the decision abort, logged and delivered like any
other, so no participant is left holding an ACTIVE transaction nobody
will finish: one the Abort cannot reach is replayed by ``recover()``.

Protocol: once staging is done, the coordinator logs BEGIN, collects
Prepare votes from every participant, logs its DECISION (commit only on a
unanimous yes — presumed abort otherwise), delivers the decision to every
participant, then logs COMPLETE. A crash between DECISION and COMPLETE
leaves the transaction *in doubt*; :meth:`TwoPhaseCoordinator.recover`
replays the logged decision (participant operations are idempotent, so
redelivery is safe) — the textbook recovery path, exercised by the tests
via the :class:`CoordinatorCrash` fault hook.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SoapFaultError, TransactionError, TransportError
from repro.services.client import ServiceProxy
from repro.soap.encoding import ColumnarRowSet, WireRowSet
from repro.transport.chunking import chunk_rowset
from repro.transport.network import SimulatedNetwork

PHASE = "transaction"


class CoordinatorCrash(Exception):
    """Raised by fault hooks to simulate the coordinator dying mid-protocol."""


@dataclass
class LogRecord:
    """One write-ahead-log entry."""

    txn_id: str
    kind: str  # "begin" | "decision" | "complete"
    decision: str = ""  # "commit" | "abort" for decision records
    participants: List[str] = field(default_factory=list)


class CoordinatorLog:
    """The coordinator's durable log (survives coordinator restarts).

    It holds unfinished transactions only: COMPLETE means nothing is left
    to replay, so a transaction's records go when it completes.
    """

    def __init__(self) -> None:
        self.records: List[LogRecord] = []

    def append(self, record: LogRecord) -> None:
        """Durably append a record (a COMPLETE one drops its transaction)."""
        if record.kind == "complete":
            self.records = [
                kept for kept in self.records if kept.txn_id != record.txn_id
            ]
        else:
            self.records.append(record)

    def in_doubt(self) -> Dict[str, LogRecord]:
        """Decision records that never reached COMPLETE (need replay)."""
        return {
            record.txn_id: record
            for record in self.records
            if record.kind == "decision"
        }


@dataclass
class TxnOutcome:
    """What happened to one coordinated transaction."""

    txn_id: str
    committed: bool
    votes: Dict[str, str] = field(default_factory=dict)
    abort_reason: str = ""


class TwoPhaseCoordinator:
    """Drives 2PC over the participants' Transaction services."""

    def __init__(
        self,
        network: SimulatedNetwork,
        hostname: str,
        log: Optional[CoordinatorLog] = None,
    ) -> None:
        self.network = network
        self.hostname = hostname
        self.log = log if log is not None else CoordinatorLog()
        #: Test hook: called before each Commit/Abort delivery with the
        #: participant URL; raise CoordinatorCrash to simulate dying.
        self.fault_hook: Optional[Callable[[str], None]] = None

    def _proxy(self, url: str) -> ServiceProxy:
        return ServiceProxy(self.network, self.hostname, url)

    def stage_and_complete(
        self,
        txn_id: str,
        stages: Dict[str, Sequence[Tuple[str, WireRowSet]]],
        *,
        proxy: Callable[[str], ServiceProxy],
        phase: str,
        rows_per_call: int,
        advance_epoch: bool = False,
    ) -> TxnOutcome:
        """Ship each participant its ``(table, rowset)`` list, then 2PC.

        ``stages`` maps participant URL -> the rowsets it applies, in
        order. Each participant gets ``Begin``, then ``StageRows`` in
        ``rows_per_call`` chunks numbered from 0 (a retried chunk is not
        staged twice), over the caller's ``proxy`` (and so its retry
        policy) under the caller's metrics ``phase``. If any staging call
        fails, the decision is abort (logged, delivered to every
        participant, replayed by :meth:`recover` where delivery failed)
        and the outcome is uncommitted; otherwise :meth:`complete`
        decides it.
        """
        participants = list(stages)
        try:
            with self.network.phase(phase):
                for url, rowsets in stages.items():
                    call = proxy(url).call
                    call("Begin", txn_id=txn_id, advance_epoch=advance_epoch)
                    chunks = [
                        (table, chunk)
                        for table, rowset in rowsets
                        for chunk in chunk_rowset(
                            ColumnarRowSet(rowset), rows_per_call
                        )
                    ]
                    for seq, (table, chunk) in enumerate(chunks):
                        call(
                            "StageRows",
                            txn_id=txn_id, table=table, rows=chunk, seq=seq,
                        )
        except (TransportError, SoapFaultError) as exc:
            # Unreachable, or a participant that crashed mid-protocol and
            # lost its ACTIVE transaction: the stage set is incomplete, so
            # nobody may vote commit on it. A participant the Abort cannot
            # reach stays in doubt in the log until recover() replays it.
            with self.network.phase(PHASE):
                self._decide(txn_id, "abort", participants)
            return TxnOutcome(
                txn_id, committed=False, abort_reason=f"staging failed: {exc}"
            )
        return self.complete(txn_id, participants)

    def complete(self, txn_id: str, participants: List[str]) -> TxnOutcome:
        """Run prepare + decision + delivery for an already-staged txn."""
        with self.network.phase(PHASE), self.network.tracer.span(
            "2pc-complete", host=self.hostname
        ):
            self.log.append(
                LogRecord(txn_id, "begin", participants=list(participants))
            )
            votes: Dict[str, str] = {}
            abort_reason = ""
            for url in participants:
                try:
                    reply = self._proxy(url).call("Prepare", txn_id=txn_id)
                    votes[url] = str(reply.get("vote"))
                    if votes[url] != "commit" and not abort_reason:
                        abort_reason = str(reply.get("reason") or "participant voted abort")
                except (TransportError, TransactionError) as exc:
                    votes[url] = "unreachable"
                    abort_reason = abort_reason or str(exc)
            decision = (
                "commit"
                if all(vote == "commit" for vote in votes.values())
                else "abort"
            )
            self._decide(txn_id, decision, participants)
            return TxnOutcome(
                txn_id=txn_id,
                committed=decision == "commit",
                votes=votes,
                abort_reason="" if decision == "commit" else abort_reason,
            )

    def _decide(
        self, txn_id: str, decision: str, participants: List[str]
    ) -> None:
        """Log ``decision`` and deliver it to every participant."""
        self.log.append(
            LogRecord(txn_id, "decision", decision=decision,
                      participants=list(participants))
        )
        self.network.tracer.annotate(
            "decision", txn_id=txn_id, decision=decision
        )
        if self._deliver_decision(txn_id, decision, participants):
            self.log.append(LogRecord(txn_id, "complete"))
        # else: the txn stays in doubt in the log; recover() replays it.

    def _deliver_decision(
        self, txn_id: str, decision: str, participants: List[str]
    ) -> bool:
        """Deliver to everyone; True only if every delivery succeeded."""
        operation = "Commit" if decision == "commit" else "Abort"
        all_delivered = True
        for url in participants:
            if self.fault_hook is not None:
                self.fault_hook(url)
            try:
                self._proxy(url).call(operation, txn_id=txn_id)
            except TransportError:
                # The participant is partitioned; it stays prepared (in
                # doubt on its side) until recover() replays the decision.
                all_delivered = False
        return all_delivered

    def recover(self) -> List[TxnOutcome]:
        """Replay logged decisions that never completed (after a crash)."""
        outcomes: List[TxnOutcome] = []
        with self.network.phase(PHASE), self.network.tracer.span(
            "2pc-recover", host=self.hostname
        ):
            for txn_id, record in self.log.in_doubt().items():
                if self._deliver_decision(
                    txn_id, record.decision, record.participants
                ):
                    self.log.append(LogRecord(txn_id, "complete"))
                outcomes.append(
                    TxnOutcome(txn_id, committed=record.decision == "commit")
                )
        return outcomes
