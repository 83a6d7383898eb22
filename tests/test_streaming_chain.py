"""The pipelined streaming chain: equivalence, ordering, faults, hygiene.

The pipelined mode must be a pure performance transform: byte-identical
rows in identical order, same matched-tuple set, same per-node counters —
with the stream protocol enforcing in-order batch delivery, idempotent
retry of the batch just served, and TTL reclamation of abandoned state.
"""

import pytest

from repro.errors import SoapFaultError
from repro.federation.builder import FederationConfig, build_federation
from repro.services.retry import RetryPolicy
from repro.transport.faults import FaultPlan
from repro.workloads.skysim import SkyField

XMATCH_SQL = (
    "SELECT O.object_id, O.ra, T.obj_id, O.i_flux - T.i_flux AS color "
    "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T, "
    "FIRST:Primary_Object P "
    "WHERE AREA(185.0, -0.5, 900.0) AND XMATCH(O, T, P) < 3.5 "
    "AND O.type = GALAXY"
)

DROPOUT_SQL = (
    "SELECT O.object_id, O.ra, T.obj_id "
    "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T, "
    "FIRST:Primary_Object P "
    "WHERE AREA(185.0, -0.5, 900.0) AND XMATCH(O, T, !P) < 3.5"
)


def make_fed(**kw):
    config = dict(
        n_bodies=500,
        seed=11,
        sky_field=SkyField(185.0, -0.5, 1800.0),
    )
    config.update(kw)
    return build_federation(FederationConfig(**config))


def submit(fed, sql):
    start = fed.network.clock.now
    result = fed.portal.submit(sql)
    return result, fed.network.clock.now - start


# -- result equivalence ---------------------------------------------------------


@pytest.mark.parametrize("sql", [XMATCH_SQL, DROPOUT_SQL])
def test_modes_return_identical_results(sql):
    reference, _ = submit(make_fed(), sql)
    pipelined, _ = submit(
        make_fed(chain_mode="pipelined", stream_batch_size=32), sql
    )
    assert pipelined.columns == reference.columns
    assert pipelined.rows == reference.rows  # byte-identical, same order
    assert pipelined.matched_tuples == reference.matched_tuples


def test_streaming_stats_match_store_forward_counters():
    reference, _ = submit(make_fed(), XMATCH_SQL)
    pipelined, _ = submit(
        make_fed(chain_mode="pipelined", stream_batch_size=16), XMATCH_SQL
    )
    assert len(pipelined.node_stats) == len(reference.node_stats)
    for stream_stats, classic in zip(
        pipelined.node_stats, reference.node_stats
    ):
        assert stream_stats["archive"] == classic["archive"]
        assert stream_stats["role"] == classic["role"]
        assert stream_stats["tuples_in"] == classic["tuples_in"]
        assert stream_stats["tuples_out"] == classic["tuples_out"]
        # Batch-granular accounting: per-batch rows sum to the total.
        assert stream_stats["batches"] >= 1
        assert sum(stream_stats["batch_rows"]) == stream_stats["tuples_out"]
        assert len(stream_stats["batch_rows"]) == stream_stats["batches"]


def test_batch_size_one_still_identical():
    reference, _ = submit(make_fed(n_bodies=120), XMATCH_SQL)
    pipelined, _ = submit(
        make_fed(n_bodies=120, chain_mode="pipelined", stream_batch_size=1),
        XMATCH_SQL,
    )
    assert pipelined.rows == reference.rows


# -- the makespan claim ---------------------------------------------------------


def test_pipelined_strictly_faster_when_transfer_dominates():
    # A slow link and a wide unfiltered query make payload bytes, not
    # per-hop latency, the bottleneck: the regime pipelining exists for.
    sql = (
        "SELECT O.object_id, O.ra, T.obj_id "
        "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T, "
        "FIRST:Primary_Object P "
        "WHERE AREA(185.0, -0.5, 1800.0) AND XMATCH(O, T, P) < 3.5"
    )
    slow = dict(default_bandwidth_bps=25_000.0)
    _, classic_makespan = submit(make_fed(**slow), sql)
    _, stream_makespan = submit(
        make_fed(chain_mode="pipelined", stream_batch_size=64, **slow), sql
    )
    assert stream_makespan < classic_makespan


def test_makespan_is_clock_delta_not_summed_seconds():
    fed = make_fed(chain_mode="pipelined", stream_batch_size=32)
    _, makespan = submit(fed, XMATCH_SQL)
    # parallel() pools batch branches: the clock advances by the slowest
    # branch while simulated_seconds sums every message regardless.
    assert makespan < fed.network.metrics.simulated_seconds


# -- stream protocol ordering ----------------------------------------------------


def open_stream(fed, sql, batch_size=8):
    plan_wire = fed.portal.explain(sql)["plan"]
    url = plan_wire["steps"][0]["url"]
    proxy = fed.portal.proxy(url)
    opened = proxy.call(
        "OpenStream",
        plan=plan_wire,
        position=0,
        batch_size=batch_size,
    )
    return proxy, opened["stream_id"], opened["batch_count"]


def test_out_of_order_pull_rejected():
    fed = make_fed()
    proxy, stream_id, batch_count = open_stream(fed, XMATCH_SQL)
    assert batch_count >= 2
    with pytest.raises(SoapFaultError, match="out of order"):
        proxy.call("PullBatch", stream_id=stream_id, seq=1)
    # The stream is still usable at the expected sequence afterwards.
    response = proxy.call("PullBatch", stream_id=stream_id, seq=0)
    assert response["batch"] == 0


def test_duplicate_pull_served_from_cache_without_reprocessing():
    fed = make_fed()
    proxy, stream_id, batch_count = open_stream(fed, XMATCH_SQL)
    first = proxy.call("PullBatch", stream_id=stream_id, seq=0)
    again = proxy.call("PullBatch", stream_id=stream_id, seq=0)
    assert again["rows"].rows == first["rows"].rows  # idempotent re-serve
    # Drain the rest; the final stats must count every batch exactly once
    # even though batch 0 was delivered twice.
    for seq in range(1, batch_count):
        final = proxy.call("PullBatch", stream_id=stream_id, seq=seq)
    stats = final["stats"][-1]
    assert sum(stats["batch_rows"]) == stats["tuples_out"]


def test_stale_duplicate_and_overrun_pulls_rejected():
    fed = make_fed()
    proxy, stream_id, batch_count = open_stream(fed, XMATCH_SQL)
    for seq in range(batch_count):
        proxy.call("PullBatch", stream_id=stream_id, seq=seq)
    # A batch older than the cached one is gone for good.
    if batch_count >= 2:
        with pytest.raises(SoapFaultError, match="out of order"):
            proxy.call("PullBatch", stream_id=stream_id, seq=0)
    # Pulling past the end is out of order too.
    with pytest.raises(SoapFaultError, match="out of order"):
        proxy.call("PullBatch", stream_id=stream_id, seq=batch_count)


def test_unknown_stream_rejected():
    fed = make_fed()
    proxy, _, _ = open_stream(fed, XMATCH_SQL)
    with pytest.raises(SoapFaultError, match="unknown stream"):
        proxy.call("PullBatch", stream_id="nope-s99", seq=0)


# -- faults and retries ----------------------------------------------------------


def retry_config(**kw):
    return dict(
        retry_policy=RetryPolicy(
            max_attempts=4, timeout_s=5.0, base_backoff_s=0.1,
            max_backoff_s=1.0, jitter=0.0, seed=3,
        ),
        chain_mode="pipelined",
        stream_batch_size=32,
        **kw,
    )


def test_dropped_batch_response_retried_without_duplication():
    baseline, _ = submit(make_fed(**retry_config()), XMATCH_SQL)

    fed = make_fed(**retry_config())
    order = fed.portal.explain(XMATCH_SQL)["plan"]["steps"]
    first = fed.nodes[order[0]["archive"]].hostname
    second = fed.nodes[order[1]["archive"]].hostname
    # Drop the next two responses on the first chain hop: the OpenStream
    # cascade's and the first PullBatch's. Each retry must resume the
    # stream (cached re-serve) rather than restart the whole chain.
    fed.network.set_fault_plan(
        FaultPlan(seed=1).drop_responses(src=second, dst=first, first_n=2)
    )
    result, _ = submit(fed, XMATCH_SQL)

    assert result.rows == baseline.rows
    assert result.columns == baseline.columns
    metrics = fed.network.metrics
    assert metrics.fault_count("response-drop") == 2
    assert metrics.retries > 0
    # A retried OpenStream may orphan a downstream stream; the TTL reaps
    # it instead of pinning tuples forever.
    fed.network.clock.advance(601.0)
    for node in fed.nodes.values():
        node.crossmatch.leases.reap()
        assert node.crossmatch.open_streams == 0


def test_pipelined_whole_chain_retry_on_unretried_fault():
    # Without a per-hop retry policy a dropped response kills the stream;
    # the executor's chain-level recovery must still answer correctly.
    fed = make_fed(chain_mode="pipelined", stream_batch_size=32)
    baseline, _ = submit(make_fed(chain_mode="pipelined",
                                  stream_batch_size=32), XMATCH_SQL)
    order = fed.portal.explain(XMATCH_SQL)["plan"]["steps"]
    first = fed.nodes[order[0]["archive"]].hostname
    second = fed.nodes[order[1]["archive"]].hostname
    # Inter-node links carry only chain traffic, so the drop hits the
    # stream itself (not the portal's probes or performance queries).
    fed.network.set_fault_plan(
        FaultPlan(seed=1).drop_responses(src=second, dst=first, first_n=1)
    )
    result, _ = submit(fed, XMATCH_SQL)
    assert result.rows == baseline.rows
    assert fed.network.metrics.fault_count("response-drop") == 1


# -- server-side stream hygiene --------------------------------------------------


def test_clean_run_leaves_no_stream_state():
    fed = make_fed(chain_mode="pipelined", stream_batch_size=32)
    submit(fed, XMATCH_SQL)
    for node in fed.nodes.values():
        assert node.crossmatch.open_streams == 0
        assert node.crossmatch.sender.pending_transfers == 0
        assert node.query.sender.pending_transfers == 0
    assert fed.network.metrics.reclaimed_transfers == 0


def test_abort_stream_cascades_down_the_chain():
    fed = make_fed()
    proxy, stream_id, _ = open_stream(fed, XMATCH_SQL)
    assert sum(n.crossmatch.open_streams for n in fed.nodes.values()) == 3
    assert proxy.call("AbortStream", stream_id=stream_id)["aborted"] is True
    assert sum(n.crossmatch.open_streams for n in fed.nodes.values()) == 0
    assert fed.network.metrics.reclaimed_transfers == 3
    # Idempotent: aborting again is a no-op, not an error.
    assert proxy.call("AbortStream", stream_id=stream_id)["aborted"] is False


def test_abandoned_stream_expires_against_the_clock():
    fed = make_fed()
    proxy, stream_id, _ = open_stream(fed, XMATCH_SQL)
    fed.network.clock.advance(601.0)
    with pytest.raises(SoapFaultError, match="unknown stream"):
        proxy.call("PullBatch", stream_id=stream_id, seq=0)
    assert fed.network.metrics.reclaimed_transfers >= 1
