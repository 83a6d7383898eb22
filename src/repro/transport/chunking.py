"""Splitting large rowsets into SOAP-sized chunks.

The paper's workaround for the XML parser's memory ceiling (Section 6):
"We worked around by dividing large data sets into smaller chunks." These
helpers split a rowset so each chunk's *serialized SOAP envelope* stays
under a byte budget; the cross-match services then ship partial results as
a sequence of chunk messages instead of one monolithic envelope.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.errors import SoapError
from repro.soap.encoding import WireRowSet, seal
from repro.soap.envelope import build_rpc_response


def chunk_rowset(rowset: WireRowSet, rows_per_chunk: int) -> List[WireRowSet]:
    """Split into chunks of at most ``rows_per_chunk`` rows, over the
    ranges of :func:`batch_slices` (so an empty rowset is one empty chunk,
    and receivers always get the schema)."""
    if rows_per_chunk < 1:
        raise SoapError(f"rows_per_chunk must be >= 1, got {rows_per_chunk}")
    return [
        rowset.slice(start, stop)
        for start, stop in batch_slices(len(rowset), rows_per_chunk)
    ]


def batch_slices(total: int, batch_size: int) -> List[Tuple[int, int]]:
    """Partition ``total`` items into ``[start, stop)`` batch ranges.

    The streaming chain's planning helper: zero items still yield one
    (empty) batch so every stream serves at least one batch and the schema
    always reaches the consumer.
    """
    if batch_size < 1:
        raise SoapError(f"batch_size must be >= 1, got {batch_size}")
    if total < 0:
        raise SoapError(f"total must be >= 0, got {total}")
    if total == 0:
        return [(0, 0)]
    return [
        (start, min(start + batch_size, total))
        for start in range(0, total, batch_size)
    ]


def envelope_bytes(rowset: Any) -> int:
    """Serialized size of a rowset (in any wire form, encoded or not)
    inside a SOAP response envelope."""
    return len(build_rpc_response("Chunk", rowset).encode("utf-8"))


def split_for_budget(rowset: WireRowSet, byte_budget: int) -> List[Any]:
    """Split so every chunk's SOAP envelope fits in ``byte_budget`` bytes.

    Estimates bytes-per-row from a sample serialization, then verifies each
    chunk and bisects any that still exceed the budget (rows vary in width).
    Chunks come back as they are kept for the wire (:func:`seal`): a colset
    chunk is encoded once, when it is measured, and never again.
    """
    if byte_budget < 1:
        raise SoapError(f"byte_budget must be >= 1, got {byte_budget}")
    empty_overhead = envelope_bytes(rowset.slice(0, 0))
    if empty_overhead >= byte_budget:
        raise SoapError(
            f"byte_budget {byte_budget} smaller than envelope overhead "
            f"{empty_overhead}"
        )
    if not rowset.rows:
        return [seal(rowset.slice(0, 0))]

    sample = rowset.slice(0, min(len(rowset.rows), 64))
    per_row = max(
        1.0, (envelope_bytes(sample) - empty_overhead) / max(1, len(sample.rows))
    )
    guess = max(1, int((byte_budget - empty_overhead) / per_row))

    chunks: List[WireRowSet] = []
    pending = chunk_rowset(rowset, guess)
    while pending:
        chunk = pending.pop(0)
        sealed = seal(chunk)
        if len(chunk.rows) > 1 and envelope_bytes(sealed) > byte_budget:
            half = len(chunk.rows) // 2
            pending.insert(0, chunk.slice(half, len(chunk.rows)))
            pending.insert(0, chunk.slice(0, half))
            continue
        chunks.append(sealed)
    return chunks
