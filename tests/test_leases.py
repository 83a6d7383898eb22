"""The lease table, exercised through every kind of state a SkyNode holds.

One suite, three kinds — tuple streams, chunked transfers and ingest
upload sessions — plus the settled form of the first (a drained stream:
the chain's checkpoint), each created through the real service operation
that creates it, each observed only through public counters
(``open_streams``, ``leases.held``, ``leases.owned_by``) and the
network's reclaim metrics. All of them are leases in the node's one
table, under one TTL. Whatever the state is, it must end the same few
ways, and each way must move exactly the counter docs/RESILIENCE.md says
it moves.
"""

from dataclasses import dataclass
from typing import Callable

import pytest

from repro.errors import SoapFaultError
from repro.federation.builder import FederationConfig, build_federation
from repro.portal.executor import WHOLE_RESULT
from repro.ingest.service import UPLOAD
from repro.services.chunked import TRANSFER
from repro.services.leases import LEASE_TTL_S, SETTLED_KEPT
from repro.skynode.crossmatch import STREAM
from repro.workloads.skysim import generate_bodies, observe_survey

SQL = (
    "SELECT O.object_id, T.obj_id "
    "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T "
    "WHERE AREA(185.0, -0.5, 900.0) AND XMATCH(O, T) < 3.5"
)
QID = "portal.skyquery.net-q77"


class Holder:
    """One node holding one freshly granted lease of one kind."""

    def __init__(self, chunk_budget_bytes=None, ingest=False):
        self.fed = build_federation(
            FederationConfig(
                n_bodies=400,
                seed=5,
                tracing=False,
                chunk_budget_bytes=chunk_budget_bytes,
                ingest=ingest,
            )
        )
        self.plan = self.fed.portal.explain(SQL)["plan"]
        #: The last plan step executes first (the seed hop) and calls no
        #: one, so everything it holds it holds alone.
        self.position = len(self.plan["steps"]) - 1
        archive = self.plan["steps"][-1]["archive"]
        self.node = self.fed.nodes[archive]
        self.proxy = self.fed.portal.proxy(self.node.service_url("crossmatch"))
        self.metrics = self.fed.network.metrics

    def call(self, operation, **params):
        return self.proxy.call(operation, **params)

    def cancel(self, query_id):
        return self.call("CancelQuery", query_id=query_id)["freed"]

    def advance(self, seconds):
        self.fed.network.clock.advance(seconds)
        self.node.leases.reap()


def _hold_stream(holder):
    opened = holder.call(
        "PerformXMatch", plan=holder.plan, position=holder.position,
        qid=QID, batch_size=5, start_seq=0,
    )
    assert opened["batch_count"] >= 3
    stream_id = opened["stream_id"]
    holder.touch = lambda: holder.call("PullBatch", stream_id=stream_id, seq=0)
    holder.use = lambda: holder.call("PullBatch", stream_id=stream_id, seq=1)
    holder.abort = lambda: holder.call("AbortStream", stream_id=stream_id)


def _hold_checkpoint(holder):
    def perform():
        return holder.call(
            "PerformXMatch", plan=holder.plan, position=holder.position,
            qid=QID, batch_size=WHOLE_RESULT, start_seq=0,
        )

    stream_id = perform()["stream_id"]
    holder.touch = holder.use = perform
    holder.abort = lambda: holder.call("AbortStream", stream_id=stream_id)


def _hold_transfer(holder):
    response = holder.call(
        "PerformXMatch", plan=holder.plan, position=holder.position,
        qid=QID, batch_size=WHOLE_RESULT, start_seq=0,
    )
    assert response["chunked"] and response["chunk_count"] >= 3
    # The batch's stream settles as it is served; drop it as the settled-
    # lease bound would, so the transfer its caller still drains is the
    # only state left.
    holder.node.leases.abort(STREAM, response["stream_id"])
    holder.transfer = response
    transfer_id = response["transfer_id"]
    holder.touch = lambda: holder.call(
        "FetchChunk", transfer_id=transfer_id, seq=0
    )
    holder.use = lambda: holder.call(
        "FetchChunk", transfer_id=transfer_id, seq=1
    )
    holder.abort = lambda: holder.call(
        "AbortTransfer", transfer_id=transfer_id
    )


def _new_rows(holder, n_rows):
    """Fresh observations for the node's primary table."""
    config = holder.fed.config
    survey = next(
        s for s in config.surveys if s.archive == holder.node.info.archive
    )
    observation = observe_survey(
        survey, generate_bodies(config.sky_field, n_rows, 99), 99
    )
    columns = list(observation.rows[0])
    rows = [tuple(row[c] for c in columns) for row in observation.rows]
    return survey.primary_table, columns, rows


def _hold_upload(holder):
    client = holder.fed.ingest_client(holder.node.info.archive)
    table, columns, rows = _new_rows(holder, 4)
    ingest_id = client.begin(table)
    holder.touch = lambda: client.upload(ingest_id, columns, rows)
    holder.use = lambda: client.commit(ingest_id)
    holder.abort = lambda: client.abort(ingest_id)


@dataclass(frozen=True)
class Kind:
    hold: Callable
    held: Callable  # the public counter for this kind, given the node
    #: TTL expiry means a caller abandoned live state (a reclaim) rather
    #: than a retry cache aging out (silent).
    abandonable: bool
    #: The state is pinned to a snapshot epoch.
    epoch_pinned: bool
    #: The state belongs to a query, so cancelling the query frees it.
    tagged: bool = True
    #: The holder's abort frees it (a drained stream stays as the retry
    #: cache it now is).
    abortable: bool = True
    #: Referring to the state once it is gone is a typed fault (a lost
    #: checkpoint is not: the hop just recomputes).
    faults_when_lost: bool = True
    #: Small enough that the operation's reply is chunked.
    chunk_budget_bytes: int = None
    #: The node mounts the Ingest service.
    ingest: bool = False


KINDS = {
    "stream": Kind(
        _hold_stream, lambda node: node.crossmatch.open_streams, True, True
    ),
    "checkpoint": Kind(
        _hold_checkpoint, lambda node: len(node.leases.owned_by(QID)),
        False, True, abortable=False, faults_when_lost=False,
    ),
    "transfer": Kind(
        _hold_transfer, lambda node: node.leases.held(TRANSFER),
        True, False, chunk_budget_bytes=700,
    ),
    "upload": Kind(
        _hold_upload, lambda node: node.leases.held(UPLOAD),
        True, False, tagged=False, ingest=True,
    ),
}


@pytest.fixture(params=sorted(KINDS))
def held(request):
    kind = KINDS[request.param]
    holder = Holder(kind.chunk_budget_bytes, kind.ingest)
    kind.hold(holder)
    holder.kind = kind
    holder.count = lambda: kind.held(holder.node)
    assert holder.count() == 1
    return holder


def assert_lost(holder):
    if holder.kind.faults_when_lost:
        with pytest.raises(SoapFaultError, match="unknown"):
            holder.use()
    else:
        holder.use()  # recomputed from scratch, and held again
        assert holder.count() == 1


def test_expires_on_the_sim_clock(held):
    held.advance(LEASE_TTL_S - 1.0)
    assert held.count() == 1
    held.advance(2.0)
    assert held.count() == 0
    assert held.metrics.reclaimed_transfers == int(held.kind.abandonable)
    assert held.metrics.eager_reclaims == 0
    assert_lost(held)


def test_touch_extends_the_lease(held):
    held.advance(LEASE_TTL_S - 1.0)
    held.touch()
    held.advance(LEASE_TTL_S - 1.0)  # past the original deadline
    assert held.count() == 1
    held.use()  # still servable
    assert held.metrics.reclaimed_transfers == 0


def test_release_by_qid_is_idempotent_and_counted_as_eager(held):
    owned = int(held.kind.tagged)  # an untagged lease is no query's
    assert held.cancel("someone-else") == 0
    assert held.count() == 1
    assert held.cancel(QID) == owned
    assert held.count() == 1 - owned
    assert held.cancel(QID) == 0
    assert held.metrics.cancels == 3
    assert held.metrics.eager_reclaims == owned
    assert held.metrics.reclaimed_transfers == 0  # eager, never TTL
    held.advance(LEASE_TTL_S + 1.0)  # the reaper finds only what is left
    assert held.metrics.reclaimed_transfers == (1 - owned) * int(
        held.kind.abandonable
    )


def test_abort_frees_live_state_as_a_reclaim(held):
    freed = int(held.kind.abortable)
    held.abort()
    held.abort()  # idempotent: nothing is counted twice
    assert held.count() == 1 - freed
    assert held.metrics.reclaimed_transfers == freed
    assert held.metrics.eager_reclaims == 0
    assert_lost(held)


def test_epoch_floor_reap_is_counted_as_stale(held):
    db = held.node.db
    db.apply_epoch([])
    db.gc_epochs(0)  # the seed epoch every plan step pinned is gone
    held.node.leases.reap()
    assert held.count() == (0 if held.kind.epoch_pinned else 1)
    assert held.metrics.stale_epoch_reaps == int(held.kind.epoch_pinned)
    assert held.metrics.reclaimed_transfers == 0
    assert held.metrics.eager_reclaims == 0


def test_crash_counts_nothing(held):
    held.node.crash_volatile_state()
    assert held.count() == 0
    held.advance(LEASE_TTL_S + 1.0)
    assert held.cancel(QID) == 0
    assert held.metrics.reclaimed_transfers == 0
    assert held.metrics.eager_reclaims == 0
    assert held.metrics.stale_epoch_reaps == 0
    assert_lost(held)


def test_final_chunk_is_reserved_until_the_lease_ends():
    """Settled state: the drained transfer parks its last chunk for the
    caller's retry; it is no longer pending, and however it ends — here
    the TTL — no counter moves."""
    holder = Holder(700)
    _hold_transfer(holder)
    transfer_id = holder.transfer["transfer_id"]
    last = holder.transfer["chunk_count"] - 1
    chunks = [
        holder.call("FetchChunk", transfer_id=transfer_id, seq=seq)
        for seq in range(last + 1)
    ]
    assert holder.node.leases.held(TRANSFER) == 0
    again = holder.call("FetchChunk", transfer_id=transfer_id, seq=last)
    assert again.rows == chunks[-1].rows
    with pytest.raises(SoapFaultError, match="gone"):
        holder.call("FetchChunk", transfer_id=transfer_id, seq=0)
    holder.advance(LEASE_TTL_S + 1.0)
    with pytest.raises(SoapFaultError, match="unknown transfer"):
        holder.call("FetchChunk", transfer_id=transfer_id, seq=last)
    assert holder.metrics.reclaimed_transfers == 0
    assert holder.metrics.eager_reclaims == 0


def test_settled_leases_are_a_bounded_retry_cache(reopen_hop):
    """A table keeps its newest settled leases and silently drops older
    ones: after more clean queries than that, the newest executions'
    replays are served from the cache, the older ones recompute — and
    nothing is counted either way."""
    holder = Holder()
    fed, portal = holder.fed, holder.fed.portal
    queries = SETTLED_KEPT + 4
    for _ in range(queries):
        portal.submit(SQL)
        for node in fed.nodes.values():
            assert node.crossmatch.open_streams == 0
    executions = [f"{portal.hostname}-x{n + 1}" for n in range(queries)]
    for kept in executions[-SETTLED_KEPT:]:
        assert reopen_hop(fed, holder.plan, kept)[1] == []
    for evicted in executions[:-SETTLED_KEPT]:
        assert len(reopen_hop(fed, holder.plan, evicted)[1]) == 1
    assert holder.metrics.reclaimed_transfers == 0
    assert holder.metrics.eager_reclaims == 0


def test_chunked_batches_do_not_evict_other_queries_checkpoints(reopen_hop):
    """The bound is per kind: every chunked batch settles a transfer, so
    one pipelined query under a chunk budget settles far more transfers
    than the table keeps — and an earlier query's drained streams are
    still there to replay."""
    holder = Holder(chunk_budget_bytes=1024)
    fed, portal = holder.fed, holder.fed.portal
    wide = SQL.replace("900.0", "1800.0")  # enough tuples for > 8 batches
    plan = portal.explain(wide)["plan"]
    portal.submit(wide)
    earlier = f"{portal.hostname}-x1"
    portal.batch_size = 5
    head = fed.nodes[plan["steps"][0]["archive"]]
    sender, responses = head.crossmatch.sender, []
    respond = sender.respond
    sender.respond = lambda *args, **kwargs: (
        responses.append(respond(*args, **kwargs)), responses[-1]
    )[1]
    portal.submit(wide)
    assert sum(r["chunked"] for r in responses) > SETTLED_KEPT
    assert head.leases.held(TRANSFER) == 0
    assert reopen_hop(fed, plan, earlier)[1] == []


def test_one_crash_drops_everything_the_node_holds():
    """A node's open stream, both services' pending transfers and an open
    upload session are leases in one table: one crash drops them all,
    and counts nothing."""
    holder = Holder(chunk_budget_bytes=700, ingest=True)
    node = holder.node
    _hold_stream(holder)
    response = holder.call(
        "PerformXMatch", plan=holder.plan, position=holder.position,
        qid="q-chunked", batch_size=WHOLE_RESULT, start_seq=0,
    )
    assert response["chunked"]
    step = holder.plan["steps"][-1]
    sql = f"SELECT {step['ra_column']} FROM {step['table']}"
    query = holder.fed.portal.proxy(node.service_url("query"))
    assert query.call("ExecuteQueryChunked", sql=sql)["chunked"]
    _hold_upload(holder)
    assert node.crossmatch.open_streams == 1
    assert node.leases.held(TRANSFER) == 2  # one per service
    assert node.leases.held(UPLOAD) == 1

    node.crash_volatile_state()
    assert node.crossmatch.open_streams == 0
    assert node.leases.held(TRANSFER) == 0
    assert node.leases.held(UPLOAD) == 0
    assert node.leases.owned_by("q-chunked") == []
    holder.advance(LEASE_TTL_S + 1.0)
    assert holder.metrics.reclaimed_transfers == 0
    assert holder.metrics.eager_reclaims == 0
    with pytest.raises(SoapFaultError, match="unknown ingest session"):
        holder.use()
