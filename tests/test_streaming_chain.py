"""The chain transport: one stream per hop, cut into batches of any size.

The batch size must be a pure performance parameter: byte-identical rows
in identical order, same matched-tuple set, same per-node counters — with
the stream protocol enforcing in-order batch delivery, idempotent retry
of the batch just served, and TTL reclamation of abandoned state. One
batch (``store-forward``) is the paper's N nested round trips.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SoapFaultError
from repro.federation.builder import FederationConfig, build_federation
from repro.portal.executor import WHOLE_RESULT
from repro.services.retry import RetryPolicy
from repro.transport.faults import FaultPlan
from repro.sphere.coords import radec_to_vector
from repro.units import arcsec_to_rad
from repro.workloads.skysim import SkyField
from repro.xmatch import LocalObject, run_chain

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


def reference_counts_for(fed, sql):
    """``(matched_tuples, [(alias, tuples_in, tuples_out), ...])`` of the
    plan's chain, seed hop first, from ``repro.xmatch.run_chain`` over the
    archives' own rows: ground truth with no services, no wire and no
    batches. Hop k's output is the reference run over the first k hops."""
    plan = fed.portal.explain(sql)["plan"]
    chain = []
    for step in reversed(plan["steps"]):  # computation order
        rows = fed.nodes[step["archive"]].wrapper.execute_sql(step["sql"]).rows
        chain.append((
            step["alias"],
            [LocalObject(r[0], radec_to_vector(r[1], r[2])) for r in rows],
            arcsec_to_rad(step["sigma_arcsec"]),
            step["dropout"],
        ))
    outs = [
        len(run_chain(chain[:k + 1], plan["threshold"], engine="scalar"))
        for k in range(len(chain))
    ]
    per_hop = [
        (hop[0], tuples_in, tuples_out)
        for hop, tuples_in, tuples_out in zip(chain, [0] + outs, outs)
    ]
    return outs[-1], per_hop


@pytest.fixture(scope="module")
def reference_counts():
    fed = make_fed(n_bodies=300)
    return {
        sql: reference_counts_for(fed, sql)
        for sql in (XMATCH_SQL, DROPOUT_SQL)
    }


@settings(max_examples=16, deadline=None)
@given(
    batch_size=st.sampled_from([WHOLE_RESULT, 1, 7, 200]),
    sql=st.sampled_from([XMATCH_SQL, DROPOUT_SQL]),
)
def test_every_batch_size_equals_the_in_memory_reference(
    reference_counts, batch_size, sql
):
    """Not merely "the modes agree": each batch size's tuple accounting is
    the reference chain's."""
    fed = make_fed(n_bodies=300, chain_mode="pipelined")
    fed.portal.batch_size = batch_size
    result, _ = submit(fed, sql)
    matched, per_hop = reference_counts[sql]
    assert result.matched_tuples == matched
    assert [
        (s["alias"], s["tuples_in"], s["tuples_out"])
        for s in result.node_stats
    ] == per_hop
    for stats in result.node_stats:
        # Batch-granular accounting: per-batch rows sum to the total.
        assert sum(stats["batch_rows"]) == stats["tuples_out"]
        assert len(stats["batch_rows"]) == stats["batches"] >= 1
    for node in fed.nodes.values():
        assert node.crossmatch.open_streams == 0
        assert node.crossmatch.sender.pending_transfers == 0


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
        assert stream_stats["batches"] > classic["batches"] == 1


def test_batch_size_one_still_identical():
    reference, _ = submit(make_fed(n_bodies=120), XMATCH_SQL)
    pipelined, _ = submit(
        make_fed(n_bodies=120, chain_mode="pipelined", stream_batch_size=1),
        XMATCH_SQL,
    )
    assert pipelined.rows == reference.rows


# -- the message sequence: one batch is N nested round trips ---------------------

TWO_ARCHIVE_SQL = (
    "SELECT O.object_id, T.obj_id "
    "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T "
    "WHERE AREA(185.0, -0.5, 900.0) AND XMATCH(O, T) < 3.5"
)


def chain_sequence(fed, sql):
    """``(src, dst, operation, kind, phase)`` of every chain message."""
    before = len(fed.network.metrics.messages)
    result = fed.portal.submit(sql)
    hosts = [fed.portal.hostname] + [
        fed.nodes[step.archive].hostname for step in result.plan.steps
    ]
    sequence = [
        (m.src, m.dst, m.operation, m.kind, m.phase)
        for m in fed.network.metrics.messages[before:]
        if m.phase in ("crossmatch-chain", "batch-transfer", "chunk-transfer")
    ]
    return hosts, sequence


@pytest.mark.parametrize("sql", [TWO_ARCHIVE_SQL, XMATCH_SQL])
@pytest.mark.parametrize(
    "config",
    [{}, {"chain_mode": "pipelined", "stream_batch_size": 10_000}],
    ids=["store-forward", "pipelined-one-batch"],
)
def test_one_batch_is_n_nested_round_trips(sql, config):
    """Store-forward — and a pipelined query whose result fits one batch —
    is the paper's chain: N ``PerformXMatch`` requests down, N responses
    back up, no ``PullBatch``."""
    hosts, sequence = chain_sequence(make_fed(**config), sql)
    hops = list(zip(hosts, hosts[1:]))
    assert sequence == [
        (src, dst, "PerformXMatch", "request", "crossmatch-chain")
        for src, dst in hops
    ] + [
        (dst, src, "PerformXMatch", "response", "crossmatch-chain")
        for src, dst in reversed(hops)
    ]


def test_many_batches_open_once_then_pull():
    hosts, sequence = chain_sequence(
        make_fed(chain_mode="pipelined", stream_batch_size=16), XMATCH_SQL
    )
    n = len(hosts) - 1
    assert [m[2] for m in sequence[:2 * n]] == ["PerformXMatch"] * (2 * n)
    pulls = sequence[2 * n:]
    assert pulls and len(pulls) % (2 * n) == 0
    assert {m[2:] for m in pulls} == {
        ("PullBatch", "request", "batch-transfer"),
        ("PullBatch", "response", "batch-transfer"),
    }


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
        "PerformXMatch",
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
    assert len(response["rows"].rows) <= 8  # what survives of 8 seeds
    proxy.call("PullBatch", stream_id=stream_id, seq=1)  # ... and now in order


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
    # Drop the next two responses on the first chain hop: the open
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
    # The retried open found the stream the lost one had opened (it is
    # leased under its content, not under a fresh id): zero orphans, with
    # no TTL to wait out.
    for node in fed.nodes.values():
        assert node.crossmatch.open_streams == 0
    assert metrics.reclaimed_transfers == 0


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
