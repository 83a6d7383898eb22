"""Transactional data exchange between archives (paper Section 6 extension).

"Another extension is to implement transaction processing for exchange of
data between astronomy archives, and see how the stateless SOAP handles
such complex requirements."

The answer this package demonstrates: SOAP stays stateless — every message
carries its transaction id — while the *endpoints* hold the state. Each
participating SkyNode mounts a :class:`TransactionService` (begin / stage /
prepare / commit / abort, all idempotent where the protocol needs it), and
a :class:`TwoPhaseCoordinator` with a write-ahead log drives the classic
two-phase commit, including recovery of in-doubt transactions after a
coordinator crash. Its :meth:`TwoPhaseCoordinator.stage_and_complete` is
the one way rows reach participants (Begin, numbered StageRows chunks,
then 2PC; a failed staging call aborts everywhere): replica and shard
provisioning and every live-ingest epoch use it. :class:`DataExchange`
builds the paper's motivating use case on top: one pull of a source
archive's rows (a sky region, or the whole table in table order) shipped
transactionally into others.
"""

from repro.transactions.service import TransactionService, TxnState
from repro.transactions.coordinator import (
    CoordinatorCrash,
    CoordinatorLog,
    TwoPhaseCoordinator,
)
from repro.transactions.exchange import DataExchange, ExchangeResult

__all__ = [
    "TransactionService",
    "TxnState",
    "CoordinatorCrash",
    "CoordinatorLog",
    "TwoPhaseCoordinator",
    "DataExchange",
    "ExchangeResult",
]
