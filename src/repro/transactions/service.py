"""The per-archive transaction participant service.

A strict two-phase-commit participant: rows are *staged* against a
transaction id, coerced against their table schemas at *prepare* (the
vote), and only applied to the archive's tables at *commit*. Each staged
batch is coerced exactly once: the coerced batches are the prepared state,
and commit appends them as they are. Staged-but-unprepared state is
volatile (lost on a simulated node crash); a PREPARED vote and its coerced
batches are durable — the participant must be able to commit after
recovery, which is what :meth:`TransactionService.simulate_crash`
exercises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.db.schema import CoercedColumns, Column
from repro.db.types import ColumnType
from repro.errors import SchemaError, TransactionError
from repro.services.framework import WebService
from repro.skynode.wrapper import ArchiveWrapper
from repro.soap.encoding import WireRowSet

_WIRE_TO_COLUMN = {
    "int": ColumnType.INT,
    "double": ColumnType.FLOAT,
    "string": ColumnType.STRING,
    "boolean": ColumnType.BOOL,
}


class TxnState(Enum):
    """Participant-side transaction states."""

    ACTIVE = "active"
    PREPARED = "prepared"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class _Txn:
    state: TxnState
    staged: List[Tuple[str, WireRowSet]] = field(default_factory=list)
    #: The staged batches coerced against their tables at Prepare: the
    #: durable prepared state, which Commit applies as it is.
    prepared: List[Tuple[str, CoercedColumns]] = field(default_factory=list)
    #: When True, Commit applies the prepared rows as one new snapshot epoch
    #: (the live-ingest path) instead of folding them into the current one.
    advance_epoch: bool = False
    #: Staging sequence numbers already accepted — a retried StageRows
    #: (response lost in flight) is recognized and not double-staged.
    seqs: Set[int] = field(default_factory=set)


class TransactionService(WebService):
    """Begin / StageRows / Prepare / Commit / Abort / GetStatus."""

    def __init__(
        self,
        wrapper: ArchiveWrapper,
        *,
        parser_memory_limit: Optional[int] = None,
    ) -> None:
        super().__init__(
            f"{wrapper.info.archive}Transaction",
            parser_memory_limit=parser_memory_limit,
        )
        self._wrapper = wrapper
        self._txns: Dict[str, _Txn] = {}
        #: Test hook: the next Prepare votes abort with this reason.
        self.fail_next_prepare: Optional[str] = None
        #: Epoch retention: after an epoch-advancing commit, keep this many
        #: past epochs pinnable and GC the rest. ``None`` retains forever.
        self.keep_epochs: Optional[int] = None
        #: Called with the new epoch after every epoch-advancing commit
        #: (the SkyNode hooks stale-lease reaping here).
        self.on_epoch_commit: Optional[Callable[[int], None]] = None
        self.register(
            "Begin", self._begin,
            params=(("txn_id", "string"), ("advance_epoch", "boolean")),
            returns="boolean",
            doc="Open a transaction (idempotent while active). With "
                "advance_epoch, commit applies the rows as a new snapshot "
                "epoch instead of extending the current one.",
        )
        self.register(
            "EnsureTable",
            self._ensure_table,
            params=(("table", "string"), ("columns", "array")),
            returns="boolean",
            doc="Idempotently create a replica table for incoming rows.",
        )
        self.register(
            "StageRows",
            self._stage_rows,
            params=(("txn_id", "string"), ("table", "string"),
                    ("rows", "rowset"), ("seq", "int")),
            returns="int",
            doc="Stage rows under a transaction (not yet visible). "
                "``seq`` >= 0 makes the call idempotent: a retried "
                "sequence number is acknowledged without re-staging.",
        )
        self.register(
            "Prepare", self._prepare, params=(("txn_id", "string"),),
            returns="struct",
            doc="Phase 1: coerce staged rows and vote commit/abort.",
        )
        self.register(
            "Commit", self._commit, params=(("txn_id", "string"),),
            returns="boolean",
            doc="Phase 2: apply the prepared rows (idempotent).",
        )
        self.register(
            "Abort", self._abort, params=(("txn_id", "string"),),
            returns="boolean",
            doc="Discard a transaction (idempotent).",
        )
        self.register(
            "GetStatus", self._status, params=(("txn_id", "string"),),
            returns="string",
            doc="Participant-side state of a transaction id.",
        )

    # -- operations ------------------------------------------------------------

    def _begin(self, txn_id: str, advance_epoch: bool = False) -> bool:
        if not txn_id:
            raise TransactionError("Begin requires a txn_id")
        existing = self._txns.get(txn_id)
        if existing is None:
            self._txns[txn_id] = _Txn(
                TxnState.ACTIVE, advance_epoch=bool(advance_epoch)
            )
            return True
        if existing.state is TxnState.ACTIVE:
            if bool(advance_epoch) != existing.advance_epoch:
                raise TransactionError(
                    f"transaction {txn_id!r} re-begun with a different "
                    "advance_epoch setting"
                )
            return True  # idempotent re-begin
        raise TransactionError(
            f"transaction {txn_id!r} already {existing.state.value}"
        )

    def _ensure_table(self, table: str, columns: List[Dict[str, Any]]) -> bool:
        db = self._wrapper.db
        if db.has_table(table):
            return False
        cols = []
        for spec in columns:
            code = str(spec.get("type") or "string")
            ctype = _WIRE_TO_COLUMN.get(code)
            if ctype is None:
                raise TransactionError(f"unknown column type {code!r}")
            cols.append(Column(str(spec["name"]), ctype, nullable=True))
        db.create_table(table, cols)
        return True

    def _stage_rows(
        self, txn_id: str, table: str, rows: WireRowSet, seq: int = -1
    ) -> int:
        txn = self._require(txn_id)
        if txn.state is not TxnState.ACTIVE:
            raise TransactionError(
                f"cannot stage into {txn.state.value} transaction {txn_id!r}"
            )
        if not isinstance(rows, WireRowSet):
            raise TransactionError("StageRows needs a rowset payload")
        seq = int(seq)
        if seq >= 0:
            if seq in txn.seqs:
                return len(rows.rows)  # retried batch; already staged
            txn.seqs.add(seq)
        txn.staged.append((table, rows))
        return len(rows.rows)

    def _prepare(self, txn_id: str) -> Dict[str, Any]:
        txn = self._require(txn_id)
        if txn.state is TxnState.PREPARED:
            return {"vote": "commit", "reason": ""}  # idempotent
        if txn.state is not TxnState.ACTIVE:
            raise TransactionError(
                f"cannot prepare {txn.state.value} transaction {txn_id!r}"
            )
        if self.fail_next_prepare is not None:
            reason = self.fail_next_prepare
            self.fail_next_prepare = None
            txn.state = TxnState.ABORTED
            txn.staged.clear()
            return {"vote": "abort", "reason": reason}
        staged, txn.staged = txn.staged, []
        try:
            txn.prepared = [
                (table, self._coerced(table, rowset))
                for table, rowset in staged
            ]
        except SchemaError as exc:
            txn.state = TxnState.ABORTED
            return {"vote": "abort", "reason": str(exc)}
        txn.state = TxnState.PREPARED  # durable from here on
        return {"vote": "commit", "reason": ""}

    def _commit(self, txn_id: str) -> bool:
        txn = self._txns.get(txn_id)
        if txn is None:
            raise TransactionError(f"unknown transaction {txn_id!r}")
        if txn.state is TxnState.COMMITTED:
            return True  # idempotent redelivery
        if txn.state is not TxnState.PREPARED:
            raise TransactionError(
                f"commit of {txn.state.value} transaction {txn_id!r} "
                "violates two-phase commit"
            )
        db = self._wrapper.db
        if txn.advance_epoch:
            # The live-ingest path: all staged batches become ONE new
            # epoch, applied atomically (crashes in the simulation land
            # between messages, never inside a handler). Every 2PC
            # participant computes the same committed_epoch + 1
            # independently, so primaries and mirrors advance in lockstep.
            epoch = db.apply_epoch(txn.prepared)
            if self.keep_epochs is not None:
                db.gc_epochs(self.keep_epochs)
            if self.on_epoch_commit is not None:
                self.on_epoch_commit(epoch)
        else:
            for table, batch in txn.prepared:
                db.table(table).insert_many(batch)
        txn.prepared = []
        txn.state = TxnState.COMMITTED
        return True

    def _abort(self, txn_id: str) -> bool:
        txn = self._txns.get(txn_id)
        if txn is None:
            # Aborting an unknown txn is safe (presumed abort).
            self._txns[txn_id] = _Txn(TxnState.ABORTED)
            return True
        if txn.state is TxnState.COMMITTED:
            raise TransactionError(
                f"cannot abort committed transaction {txn_id!r}"
            )
        txn.staged.clear()
        txn.prepared = []
        txn.state = TxnState.ABORTED
        return True

    def _status(self, txn_id: str) -> str:
        txn = self._txns.get(txn_id)
        return txn.state.value if txn is not None else "unknown"

    # -- helpers ---------------------------------------------------------------

    def _require(self, txn_id: str) -> _Txn:
        txn = self._txns.get(txn_id)
        if txn is None:
            raise TransactionError(f"unknown transaction {txn_id!r}")
        return txn

    def _coerced(self, table: str, rowset: WireRowSet) -> CoercedColumns:
        """The prepare-time check: a staged batch in storage form."""
        db = self._wrapper.db
        if not db.has_table(table):
            raise SchemaError(f"table {table!r} does not exist")
        return db.table(table).schema.coerce_columns(
            rowset.rows,
            [name.split(".", 1)[-1] for name in rowset.column_names],
        )

    def simulate_crash(self) -> None:
        """Lose volatile state: ACTIVE transactions vanish, PREPARED survive.

        Models a participant restart: the staged rows of prepared
        transactions live in its (simulated) write-ahead log, so they are
        retained; everything not yet prepared is gone.
        """
        self._txns = {
            txn_id: txn
            for txn_id, txn in self._txns.items()
            if txn.state is not TxnState.ACTIVE
        }
