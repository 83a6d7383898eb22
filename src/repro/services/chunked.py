"""Chunked rowset transfer between services (sender and receiver halves).

The paper's workaround for its ~10 MB XML parser ceiling ("dividing large
data sets into smaller chunks") is a general transfer pattern, used by the
Cross match service between chain neighbours *and* by the Query service
when a caller pulls a large result. The sender returns either the rowset
inline or a ``{chunked, transfer_id, chunk_count}`` descriptor; the caller
then drains numbered ``FetchChunk`` calls and reassembles.

Each chunk is encoded once, when the sender prepares the transfer, and is
held encoded. Sender-side state is bounded: the prepared chunks are held
as a lease (:mod:`repro.services.leases`), so a transfer a caller abandons
mid-drain (crash, circuit opened, chain retried from scratch) is reclaimed
by an explicit ``AbortTransfer``, by the owning query's ``CancelQuery``,
or by the TTL on the simulated clock. A fully drained transfer settles
onto its final chunk so a retry of the *last* fetch (response lost in
flight) is served idempotently instead of failing with "unknown transfer".
"""

from __future__ import annotations

import itertools
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import ExecutionError, SoapError
from repro.services.leases import LeaseTable
from repro.soap.encoding import ColumnarRowSet, EncodedColset, WireRowSet, seal
from repro.transport.chunking import envelope_bytes, split_for_budget

#: What a sender ships: a rowset, in whichever wire form it is wrapped in
#: (a colset already encoded, once it is kept for the wire).
Payload = Union[WireRowSet, ColumnarRowSet, EncodedColset]

#: Phase label for the bulk chunk-drain traffic, so reports separate
#: payload bytes from chain-control bytes.
CHUNK_TRANSFER_PHASE = "chunk-transfer"

#: How long (simulated seconds) an unfetched transfer survives once the
#: sender's lease table is bound to a clock. Generous relative to any
#: retry budget.
DEFAULT_TRANSFER_TTL_S = 600.0

#: The lease kind of a chunked transfer's prepared chunks.
TRANSFER = "transfer"


@dataclass(frozen=True)
class Shipment:
    """A rowset made ready for the wire once: its parts as they travel (a
    colset part encoded, see :func:`~repro.soap.encoding.seal`), inline
    (one part) or as the chunks of a transfer. Sending it again encodes
    nothing, and it holds about its wire size."""

    parts: Tuple[Payload, ...]
    chunked: bool

    @property
    def row_count(self) -> int:
        return sum(map(len, self.parts))


class ChunkedSender:
    """Sender half: lease prepared chunks until the caller fetches them.

    ``leases`` is the table the chunks are held in — a service that also
    holds other per-query state passes its own, so one ``CancelQuery``,
    one TTL reaper, and one ``crash()`` cover all of it.
    """

    def __init__(
        self,
        owner_name: str,
        chunk_budget_bytes: Optional[int],
        *,
        ttl_s: float = DEFAULT_TRANSFER_TTL_S,
        leases: Optional[LeaseTable] = None,
    ) -> None:
        self.owner_name = owner_name
        self.chunk_budget_bytes = chunk_budget_bytes
        self.ttl_s = ttl_s
        self.leases = leases if leases is not None else LeaseTable()
        self._transfer_ids = itertools.count(1)

    def mount(self, service: Any, what: str) -> None:
        """Register the receiver-facing half on ``service``: the two
        operations a caller drains (or abandons) a chunked ``what`` with."""
        service.register(
            "FetchChunk",
            self.fetch_chunk,
            params=(("transfer_id", "string"), ("seq", "int")),
            returns="rowset",
            doc=f"Fetch one chunk of a chunked {what}.",
        )
        service.register(
            "AbortTransfer",
            lambda transfer_id: {"aborted": self.abort(str(transfer_id))},
            params=(("transfer_id", "string"),),
            returns="struct",
            doc="Free an abandoned chunked transfer before its TTL.",
        )

    def prepare(self, rowset: Payload) -> Shipment:
        """Encode a rowset for the wire once, chunked when over budget.

        The budget is checked against ``rowset`` in the form it will
        travel — a :class:`ColumnarRowSet` is sized as the colset it ships,
        and its chunks stay colsets, each encoded once.
        """
        sealed = seal(rowset)
        budget = self.chunk_budget_bytes
        if budget is None or envelope_bytes(sealed) <= budget:
            return Shipment((sealed,), False)
        return Shipment(tuple(split_for_budget(rowset, budget)), True)

    def respond(
        self,
        shipment: Shipment,
        extra: Optional[Dict[str, Any]] = None,
        *,
        query_id: str = "",
    ) -> Dict[str, Any]:
        """The response carrying a prepared rowset (:meth:`prepare`):
        inline, or the descriptor of a fresh chunked transfer of its parts.

        Nothing is encoded here, so a shipment kept and sent again costs
        no encoding. ``query_id`` tags the transfer with the query it
        belongs to, so cancelling the query frees it without knowing its
        id.
        """
        self.leases.reap()
        response: Dict[str, Any] = dict(extra or {})
        if not shipment.chunked:
            response.update(chunked=False, rows=shipment.parts[0])
            return response
        transfer_id = f"{self.owner_name}-{next(self._transfer_ids)}"
        self.leases.grant(
            TRANSFER,
            transfer_id,
            list(shipment.parts),
            ttl_s=self.ttl_s,
            qid=query_id,
            abandonable=True,
        )
        response.update(
            chunked=True,
            transfer_id=transfer_id,
            chunk_count=len(shipment.parts),
            row_count=shipment.row_count,
        )
        return response

    def fetch_chunk(self, transfer_id: str, seq: int) -> Payload:
        """The ``FetchChunk`` operation body; settles the transfer at the end.

        A repeat of the *final* fetch re-serves the parked last chunk (the
        caller's retry after a lost response must not fault); any other
        touch of an unknown or expired transfer fails deterministically.
        """
        lease = self.leases.require(TRANSFER, transfer_id)
        seq = int(seq)
        if not lease.live:
            final_seq, final_chunk = lease.value
            if seq != final_seq:
                raise ExecutionError(
                    f"chunk {seq} of completed transfer {transfer_id!r} is "
                    f"gone (only the final chunk {final_seq} is re-servable)"
                )
            self.leases.touch(lease)
            return final_chunk
        chunks: List[Payload] = lease.value
        if not 0 <= seq < len(chunks):
            raise ExecutionError(
                f"chunk {seq} out of range for transfer {transfer_id!r}"
            )
        if seq == len(chunks) - 1:
            lease.value = (seq, chunks[seq])  # all that stays re-servable
            self.leases.settle(lease)
        else:
            self.leases.touch(lease)
        return chunks[seq]

    def abort(self, transfer_id: str) -> bool:
        """The ``AbortTransfer`` operation body (idempotent).

        Aborting a pending transfer counts as a reclaim; dropping a fully
        drained one does not (its payload was delivered).
        """
        return self.leases.abort(TRANSFER, transfer_id) is not None

    @property
    def pending_transfers(self) -> int:
        """Number of transfers awaiting pickup (0 after clean runs)."""
        return self.leases.held(TRANSFER)


def receive_rowset(
    response: Dict[str, Any],
    proxy: Any,
    *,
    fetch_operation: str = "FetchChunk",
    abort_operation: Optional[str] = "AbortTransfer",
) -> WireRowSet:
    """Receiver half: unwrap an inline rowset or drain the chunks.

    Chunk fetches are tagged with the ``chunk-transfer`` phase so byte
    reports separate bulk payload from chain control. When a drain dies
    part-way the receiver best-effort aborts the transfer so the sender
    frees its chunks immediately instead of waiting out the TTL.
    """
    if not isinstance(response, dict):
        raise ExecutionError(f"malformed chunked response: {response!r}")
    if not response.get("chunked"):
        rowset = response.get("rows")
        if not isinstance(rowset, WireRowSet):
            raise SoapError("response carries no rowset")
        return rowset
    transfer_id = str(response["transfer_id"])
    chunk_count = int(response["chunk_count"])
    network = getattr(proxy, "network", None)
    parts: List[WireRowSet] = []
    try:
        for seq in range(chunk_count):
            with (
                network.phase(CHUNK_TRANSFER_PHASE)
                if network is not None
                else nullcontext()
            ):
                parts.append(
                    proxy.call(
                        fetch_operation, transfer_id=transfer_id, seq=seq
                    )
                )
    except Exception:
        if abort_operation is not None:
            try:
                proxy.call(abort_operation, transfer_id=transfer_id)
            except Exception:
                pass
        raise
    return WireRowSet.concat(parts)
