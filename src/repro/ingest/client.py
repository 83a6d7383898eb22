"""A programmatic live-ingest client for one archive's Ingest service."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import IngestError
from repro.services.client import ServiceProxy
from repro.services.retry import RetryPolicy
from repro.soap.encoding import ColumnarRowSet, infer_rowset
from repro.transport.network import SimulatedNetwork

PHASE = "ingest"


@dataclass
class IngestResult:
    """What happened to one upload set."""

    committed: bool
    epoch: int
    txn_id: str
    rows_sent: int
    votes: Dict[str, str] = field(default_factory=dict)
    abort_reason: str = ""


class IngestClient:
    """Uploads row batches to a primary and commits them as one epoch."""

    def __init__(
        self,
        network: SimulatedNetwork,
        ingest_url: str,
        *,
        hostname: str = "ingest.skyquery.net",
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.network = network
        self.hostname = hostname
        self._proxy = ServiceProxy(
            network, hostname, ingest_url, retry_policy=retry_policy
        )

    def begin(self, table: str) -> str:
        """Open an upload session; returns the ingest id."""
        with self.network.phase(PHASE):
            response = self._proxy.call("BeginIngest", table=table)
        if not isinstance(response, dict) or not response.get("ingest_id"):
            raise IngestError(f"malformed BeginIngest response: {response!r}")
        return str(response["ingest_id"])

    def upload(
        self,
        ingest_id: str,
        columns: Sequence[str],
        rows: Sequence[Tuple[Any, ...]],
    ) -> int:
        """Send one batch; returns how many rows the service buffered."""
        with self.network.phase(PHASE):
            accepted = self._proxy.call(
                "UploadBatch",
                ingest_id=ingest_id,
                rows=ColumnarRowSet(infer_rowset(list(columns), list(rows))),
            )
        return int(accepted)

    def commit(self, ingest_id: str, *, rows_sent: int = 0) -> IngestResult:
        """Commit every uploaded batch as one new epoch (2PC fan-out)."""
        with self.network.phase(PHASE):
            response = self._proxy.call("CommitEpoch", ingest_id=ingest_id)
        if not isinstance(response, dict):
            raise IngestError(f"malformed CommitEpoch response: {response!r}")
        return IngestResult(
            committed=bool(response.get("committed")),
            epoch=int(response.get("epoch") or 0),
            txn_id=str(response.get("txn_id") or ""),
            rows_sent=rows_sent,
            votes=dict(
                zip(
                    [str(p) for p in response.get("participants") or []],
                    [str(v) for v in response.get("votes") or []],
                )
            ),
            abort_reason=str(response.get("abort_reason") or ""),
        )

    def abort(self, ingest_id: str) -> bool:
        """Discard an open upload session."""
        with self.network.phase(PHASE):
            return bool(self._proxy.call("AbortIngest", ingest_id=ingest_id))

    def epochs(self) -> Dict[str, int]:
        """The archive's ``committed_epoch`` and ``oldest_epoch``."""
        with self.network.phase(PHASE):
            response = self._proxy.call("GetEpoch")
        if not isinstance(response, dict):
            raise IngestError(f"malformed GetEpoch response: {response!r}")
        return {str(k): int(v) for k, v in response.items()}

    def recover(self) -> Dict[str, int]:
        """Ask the primary to replay in-doubt epoch commits from its log."""
        with self.network.phase(PHASE):
            response = self._proxy.call("Recover")
        if not isinstance(response, dict):
            raise IngestError(f"malformed Recover response: {response!r}")
        return {str(k): int(v) for k, v in response.items()}

    def ingest_rows(
        self,
        table: str,
        columns: Sequence[str],
        rows: Sequence[Tuple[Any, ...]],
        *,
        batch_size: int = 200,
    ) -> IngestResult:
        """The whole dance: begin, upload in batches, commit one epoch."""
        if batch_size < 1:
            raise IngestError(f"batch_size must be >= 1, got {batch_size}")
        ingest_id = self.begin(table)
        sent = 0
        rows = list(rows)
        for start in range(0, len(rows), batch_size):
            sent += self.upload(
                ingest_id, columns, rows[start:start + batch_size]
            )
        return self.commit(ingest_id, rows_sent=sent)
