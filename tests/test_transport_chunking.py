"""Rowset chunking."""

import pytest

from repro.errors import ExecutionError, SoapError
from repro.services.chunked import TRANSFER, ChunkedSender
from repro.services.leases import LEASE_TTL_S, LeaseTable
from repro.soap.encoding import WireRowSet
from repro.transport.chunking import (
    batch_slices,
    chunk_rowset,
    envelope_bytes,
    split_for_budget,
)


def make_rowset(n):
    return WireRowSet(
        [("id", "int"), ("ra", "double"), ("name", "string")],
        [(i, i * 1.5, f"obj-{i}") for i in range(n)],
    )


def test_chunk_rowset_sizes():
    chunks = chunk_rowset(make_rowset(10), 3)
    assert [len(c.rows) for c in chunks] == [3, 3, 3, 1]


def test_chunk_rowset_preserves_rows():
    rowset = make_rowset(10)
    chunks = chunk_rowset(rowset, 4)
    assert WireRowSet.concat(chunks).rows == rowset.rows


def test_chunk_rowset_empty_gives_one_chunk():
    chunks = chunk_rowset(make_rowset(0), 5)
    assert len(chunks) == 1
    assert chunks[0].rows == []
    assert chunks[0].columns == make_rowset(0).columns


def test_chunk_rowset_bad_size():
    with pytest.raises(SoapError):
        chunk_rowset(make_rowset(3), 0)


def test_envelope_bytes_positive_even_when_empty():
    assert envelope_bytes(make_rowset(0)) > 0


def test_split_for_budget_respects_budget():
    rowset = make_rowset(500)
    budget = 4096
    chunks = split_for_budget(rowset, budget)
    assert len(chunks) > 1
    for chunk in chunks:
        assert envelope_bytes(chunk) <= budget


def test_split_for_budget_preserves_rows():
    rowset = make_rowset(200)
    chunks = split_for_budget(rowset, 4096)
    assert WireRowSet.concat(chunks).rows == rowset.rows


def test_split_for_budget_single_chunk_when_small():
    rowset = make_rowset(2)
    chunks = split_for_budget(rowset, 1_000_000)
    assert len(chunks) == 1


def test_split_for_budget_empty_rowset():
    chunks = split_for_budget(make_rowset(0), 4096)
    assert len(chunks) == 1


def test_split_for_budget_budget_too_small():
    with pytest.raises(SoapError):
        split_for_budget(make_rowset(10), 10)


def test_split_handles_wide_rows():
    # One huge string row amid small rows: bisecting must isolate it.
    rowset = WireRowSet(
        [("s", "string")],
        [("x",)] * 50 + [("y" * 2000,)] + [("z",)] * 50,
    )
    budget = 4000
    chunks = split_for_budget(rowset, budget)
    assert WireRowSet.concat(chunks).rows == rowset.rows
    for chunk in chunks:
        if len(chunk.rows) > 1:
            assert envelope_bytes(chunk) <= budget


# -- batch_slices (the streaming chain's partition helper) ----------------------


def test_batch_slices_covers_range_in_order():
    slices = batch_slices(10, 3)
    assert slices == [(0, 3), (3, 6), (6, 9), (9, 10)]


def test_batch_slices_exact_multiple():
    assert batch_slices(6, 3) == [(0, 3), (3, 6)]


def test_batch_slices_zero_items_single_empty_batch():
    # Mirrors chunk_rowset: the schema must still reach the consumer.
    assert batch_slices(0, 50) == [(0, 0)]


def test_batch_slices_rejects_bad_arguments():
    with pytest.raises(SoapError):
        batch_slices(10, 0)
    with pytest.raises(SoapError):
        batch_slices(-1, 5)


# -- ChunkedSender lifecycle (TTL, abort, completed-cache) ----------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def advance(self, dt):
        self.now += dt


def make_sender(budget=2048):
    clock = FakeClock()
    reclaims = []
    sender = ChunkedSender("t", budget, LeaseTable())
    sender.leases.bind_clock(lambda: clock.now, reclaims.append)
    return sender, clock, reclaims


def test_sender_inline_when_under_budget():
    sender, _, _ = make_sender(budget=1_000_000)
    response = sender.respond(sender.prepare(make_rowset(5)))
    assert response["chunked"] is False
    assert response["rows"].rows == make_rowset(5).rows
    assert sender.leases.held(TRANSFER) == 0


def test_sender_ttl_reclaims_abandoned_transfer():
    sender, clock, reclaims = make_sender()
    response = sender.respond(sender.prepare(make_rowset(500)))
    assert response["chunked"] is True
    assert sender.leases.held(TRANSFER) == 1
    clock.advance(LEASE_TTL_S + 1.0)
    assert sender.leases.reap() == 1
    assert sender.leases.held(TRANSFER) == 0
    assert reclaims == [1]
    with pytest.raises(ExecutionError, match="unknown transfer"):
        sender.fetch_chunk(response["transfer_id"], 0)


def test_sender_fetch_activity_extends_the_deadline():
    sender, clock, reclaims = make_sender()
    response = sender.respond(sender.prepare(make_rowset(500)))
    transfer_id = response["transfer_id"]
    parts = []
    # Each fetch arrives just inside the TTL after the last: past the
    # *original* deadline by the end, but never a TTL idle, so the drain
    # must survive.
    for seq in range(response["chunk_count"]):
        clock.advance(LEASE_TTL_S - 10.0)
        parts.append(sender.fetch_chunk(transfer_id, seq))
    assert WireRowSet.concat(parts).rows == make_rowset(500).rows
    assert sender.leases.held(TRANSFER) == 0
    assert reclaims == []


def test_final_chunk_reserved_idempotently_from_completed_cache():
    sender, _, reclaims = make_sender()
    response = sender.respond(sender.prepare(make_rowset(500)))
    transfer_id = response["transfer_id"]
    last = response["chunk_count"] - 1
    chunks = [
        sender.fetch_chunk(transfer_id, seq)
        for seq in range(response["chunk_count"])
    ]
    # The caller's retry of the final fetch (response lost in flight).
    again = sender.fetch_chunk(transfer_id, last)
    assert again.rows == chunks[-1].rows
    # Earlier chunks are gone for good, deterministically.
    if last > 0:
        with pytest.raises(ExecutionError, match="gone"):
            sender.fetch_chunk(transfer_id, 0)
    assert reclaims == []  # a delivered payload is not a reclaim


def test_completed_cache_expires_silently():
    sender, clock, reclaims = make_sender()
    response = sender.respond(sender.prepare(make_rowset(500)))
    transfer_id = response["transfer_id"]
    for seq in range(response["chunk_count"]):
        sender.fetch_chunk(transfer_id, seq)
    clock.advance(LEASE_TTL_S + 1.0)
    with pytest.raises(ExecutionError, match="unknown transfer"):
        sender.fetch_chunk(transfer_id, response["chunk_count"] - 1)
    assert reclaims == []


def test_abort_is_idempotent_and_counts_pending_reclaims_only():
    sender, _, reclaims = make_sender()
    pending = sender.respond(sender.prepare(make_rowset(500)))
    assert sender.abort(pending["transfer_id"]) is True
    assert reclaims == [1]
    assert sender.abort(pending["transfer_id"]) is False
    # Aborting a fully drained transfer drops the cache entry without
    # counting a reclaim: its payload reached the caller.
    drained = sender.respond(sender.prepare(make_rowset(500)))
    for seq in range(drained["chunk_count"]):
        sender.fetch_chunk(drained["transfer_id"], seq)
    assert sender.abort(drained["transfer_id"]) is True
    assert reclaims == [1]


# -- dropped FetchChunk responses over the simulated network --------------------


def bulk_service_net(rowset, budget=4096):
    """One Bulk service whose Get response is chunked, sender TTL-armed."""
    from repro.services.framework import ServiceHost, WebService
    from repro.transport.network import SimulatedNetwork

    net = SimulatedNetwork(default_latency_s=0.01, default_bandwidth_bps=1e9)
    sender = ChunkedSender("bulk", budget, LeaseTable())

    def on_reclaim(count):
        net.metrics.reclaimed_transfers += count

    sender.leases.bind_clock(lambda: net.clock.now, on_reclaim)
    service = WebService("Bulk")
    service.register(
        "Get",
        lambda: sender.respond(sender.prepare(rowset)),
        params=(),
        returns="struct",
    )
    service.register(
        "FetchChunk",
        sender.fetch_chunk,
        params=(("transfer_id", "string"), ("seq", "int")),
        returns="rowset",
    )
    service.register(
        "AbortTransfer",
        lambda transfer_id: {"aborted": sender.abort(str(transfer_id))},
        params=(("transfer_id", "string"),),
        returns="struct",
    )
    host = ServiceHost("svc")
    url = host.mount("/bulk", service)
    net.add_host("svc", host.handle)
    return net, url, sender


def retry_proxy(net, url):
    from repro.services.client import ServiceProxy
    from repro.services.retry import RetryPolicy

    return ServiceProxy(
        net,
        "cli",
        url,
        retry_policy=RetryPolicy(
            max_attempts=4, timeout_s=1.0, base_backoff_s=0.1,
            max_backoff_s=1.0, jitter=0.0, seed=7,
        ),
    )


def test_dropped_final_fetch_response_retried_without_duplication():
    from repro.transport.faults import FaultPlan

    rowset = make_rowset(500)
    net, url, sender = bulk_service_net(rowset)
    proxy = retry_proxy(net, url)
    response = proxy.call("Get")
    assert response["chunked"] is True
    last = response["chunk_count"] - 1
    # Drain everything but the final chunk cleanly...
    parts = [
        proxy.call("FetchChunk", transfer_id=response["transfer_id"], seq=seq)
        for seq in range(last)
    ]
    # ...then lose the final fetch's *response*: the handler ran (transfer
    # freed to the completed-cache) but the caller never saw the rows. The
    # retry must be served from the cache, not fault with unknown-transfer.
    net.set_fault_plan(FaultPlan(seed=2).drop_responses(src="svc", first_n=1))
    parts.append(
        proxy.call("FetchChunk", transfer_id=response["transfer_id"], seq=last)
    )
    assert WireRowSet.concat(parts).rows == rowset.rows
    assert net.metrics.fault_count("response-drop") == 1
    assert net.metrics.retries > 0
    assert sender.leases.held(TRANSFER) == 0


def test_dropped_fetch_responses_mid_drain_via_receive_rowset():
    from repro.services.chunked import receive_rowset
    from repro.transport.faults import FaultPlan

    rowset = make_rowset(500)
    net, url, sender = bulk_service_net(rowset)
    proxy = retry_proxy(net, url)
    response = proxy.call("Get")
    # Random response drops across the whole drain: every retried fetch
    # repeats an already-served seq, which the sender tolerates only for
    # the final chunk — mid-drain drops are request-level retries of the
    # *same* seq, so the rowset must come back exactly once per row.
    net.set_fault_plan(FaultPlan(seed=5).drop_responses(src="svc", rate=0.3))
    reassembled = receive_rowset(response, proxy)
    assert reassembled.rows == rowset.rows
    assert net.metrics.fault_count("response-drop") > 0
    assert sender.leases.held(TRANSFER) == 0


def test_failed_drain_aborts_the_transfer():
    from repro.services.chunked import receive_rowset
    from repro.services.client import ServiceProxy
    from repro.transport.faults import FaultPlan

    rowset = make_rowset(500)
    net, url, sender = bulk_service_net(rowset)
    plain = ServiceProxy(net, "cli", url)  # no retry policy
    response = plain.call("Get")
    assert sender.leases.held(TRANSFER) == 1
    # Drop the first fetch's response; with no retries the drain dies, and
    # receive_rowset's best-effort abort must free the sender immediately.
    net.set_fault_plan(FaultPlan(seed=3).drop_responses(src="svc", first_n=1))
    with pytest.raises(Exception):
        receive_rowset(response, plain)
    assert sender.leases.held(TRANSFER) == 0
    assert net.metrics.reclaimed_transfers == 1
