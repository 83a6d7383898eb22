"""Replica failover + mid-chain checkpoint/resume (docs/RESILIENCE.md).

The failover contract: a federation built with ``replicas=N`` keeps
answering *complete* queries — never degraded — as long as every archive
has one live endpoint. An injected crash costs failovers and simulated
seconds, never rows: both chain modes must return rows byte-identical to
the fault-free oracle, with ``failovers >= 1`` and zero degradation.

``SKYQUERY_CHAOS_SEED`` (CI's chaos-smoke matrix) shifts the crash
schedule so different recovery paths are exercised on every run.
"""

import functools
import os

import pytest

from repro.errors import SoapFaultError
from repro.federation.builder import FederationConfig, build_federation
from repro.services.chunked import receive_rowset
from repro.services.client import ServiceProxy
from repro.services.retry import RetryPolicy
from repro.skynode.crossmatch import STREAM_TTL_S
from repro.transport.faults import FaultPlan
from repro.workloads.skysim import SkyField

CHAOS_SEED = int(os.environ.get("SKYQUERY_CHAOS_SEED", "0"))

XMATCH_SQL = (
    "SELECT O.object_id, O.ra, T.obj_id "
    "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T, "
    "FIRST:Primary_Object P "
    "WHERE AREA(185.0, -0.5, 900.0) AND XMATCH(O, T, P) < 3.5"
)


def _config(*, replicas=1, chain_mode="store-forward"):
    return FederationConfig(
        n_bodies=500,
        seed=11,
        sky_field=SkyField(185.0, -0.5, 1800.0),
        retry_policy=RetryPolicy(
            max_attempts=3, timeout_s=5.0, base_backoff_s=0.2,
            max_backoff_s=2.0, seed=11 + CHAOS_SEED,
        ),
        replicas=replicas,
        chain_mode=chain_mode,
    )


def _build(**kwargs):
    return build_federation(_config(**kwargs))


def _table_rows(node, table_name):
    table = node.db.table(table_name)
    return sorted(tuple(table.row(pos)) for pos in table.iter_positions())


@functools.lru_cache(maxsize=4)
def _oracle(chain_mode):
    """Fault-free run: (rows, columns, chain window, first-hop hostname).

    The simulation is deterministic, so an identically-built twin
    federation reaches ``t0`` at the same instant — a crash scheduled
    inside ``(t0, t1)`` is guaranteed to land while the twin's chain is
    executing.
    """
    fed = _build(chain_mode=chain_mode)
    t0 = fed.network.clock.now
    result = fed.client().submit(XMATCH_SQL)
    t1 = fed.network.clock.now
    assert result.failovers == 0 and not result.degraded
    victim = result.plan["steps"][0]["url"].split("/")[2]
    return tuple(result.rows), tuple(result.columns), (t0, t1), victim


class TestReplicaProvisioning:
    def test_replicas_mirror_primary_content(self):
        fed = _build()
        for archive, replica_nodes in fed.replicas.items():
            assert len(replica_nodes) == 1
            primary = fed.node(archive)
            table = primary.info.primary_table
            want = _table_rows(primary, table)
            assert want
            for replica in replica_nodes:
                assert _table_rows(replica, table) == want

    def test_every_archive_fails_over_to_its_own_replica(self):
        """The Portal learned one replica per archive: with a primary
        down, exactly that archive's hop moves to that archive's replica
        and the other hops stay on their primaries."""
        for archive in ("SDSS", "TWOMASS", "FIRST"):
            fed = _build()
            fed.network.fail_host(fed.node(archive).hostname)
            result = fed.client().submit(XMATCH_SQL)
            assert result.failovers == 1 and not result.degraded
            for step in result.plan["steps"]:
                host = step["url"].split("/")[2]
                home = step["archive"]
                if home == archive:
                    assert host == fed.replicas[home][0].hostname
                    assert fed.node(home).hostname in step["replica_urls"][0]
                else:
                    assert host == fed.node(home).hostname

    def test_replica_hostnames_are_distinct(self):
        fed = _build()
        hostnames = {node.hostname for node in fed.nodes.values()}
        for replicas in fed.replicas.values():
            for node in replicas:
                assert node.hostname not in hostnames

    def test_no_replicas_by_default(self):
        fed = _build(replicas=0)
        assert fed.replicas == {}
        result = fed.client().submit(XMATCH_SQL)
        for step in result.plan["steps"]:
            assert step["url"].split("/")[2] == fed.node(step["archive"]).hostname
            assert step["replica_urls"] == []


class TestPlanTimeFailover:
    def test_dead_primary_substituted_at_plan_time(self):
        rows, columns, _, _ = _oracle("store-forward")
        fed = _build()
        fed.network.set_fault_plan(
            FaultPlan().crash(
                fed.node("SDSS").hostname, at_s=fed.network.clock.now
            )
        )
        result = fed.client().submit(XMATCH_SQL)
        assert tuple(result.rows) == rows
        assert tuple(result.columns) == columns
        assert result.failovers >= 1
        assert not result.degraded
        assert any(
            "unreachable; failing over to replica" in w
            for w in result.warnings
        )

    def test_mandatory_archive_with_no_live_endpoint_degrades(self):
        fed = _build()
        fed.network.fail_host(fed.node("SDSS").hostname)
        for replica in fed.replicas["SDSS"]:
            fed.network.fail_host(replica.hostname)
        result = fed.client().submit(XMATCH_SQL)
        assert result.degraded
        assert result.rows == []

    def test_failover_without_replicas_degrades_as_before(self):
        fed = _build(replicas=0)
        fed.network.fail_host(fed.node("SDSS").hostname)
        result = fed.client().submit(XMATCH_SQL)
        assert result.degraded
        assert result.failovers == 0

    def test_explain_is_what_submit_runs(self):
        """EXPLAIN goes through the same routing as SUBMIT: a dead primary
        with a live replica is explained against the replica (the parent
        commit raised ``TransportError: no route to host`` here)."""
        fed = _build()
        fed.network.fail_host(fed.node("SDSS").hostname)
        explained = fed.client().explain(XMATCH_SQL)
        submitted = fed.client().submit(XMATCH_SQL)
        assert explained["plan"] == submitted.plan
        assert explained["failovers"] == submitted.failovers == 1
        assert explained["warnings"] == submitted.warnings
        assert explained["would_execute"] and not explained["degraded"]

    def test_explain_does_not_reveal_a_dead_dropout_archive(self):
        """A drop-out archive is never counted, so only the chain finds it
        dead: explain plans through it, and submit prunes it mid-chain."""
        sql = XMATCH_SQL.replace("XMATCH(O, T, P)", "XMATCH(O, T, !P)")
        fed = _build(replicas=0)
        fed.network.fail_host(fed.node("FIRST").hostname)
        explained = fed.client().explain(sql)
        submitted = fed.client().submit(sql)
        assert explained["skipped"] == [] and not explained["degraded"]
        assert explained["warnings"] == []
        assert [s["alias"] for s in explained["plan"]["steps"]] == [
            "P", "O", "T"
        ]
        assert submitted.degraded and len(submitted) > 0
        assert [s["alias"] for s in submitted.plan["steps"]] == ["O", "T"]
        assert any(
            "'FIRST'" in w and "mid-chain" in w for w in submitted.warnings
        )

    def test_explain_of_a_lost_mandatory_archive_has_no_plan(self):
        fed = _build(replicas=0)
        fed.network.fail_host(fed.node("SDSS").hostname)
        explained = fed.client().explain(XMATCH_SQL)
        assert explained["plan"] is None and not explained["would_execute"]
        assert explained["degraded"]
        assert explained["warnings"] == fed.client().submit(XMATCH_SQL).warnings


class TestMidChainFailover:
    """The tentpole acceptance criterion, both chain modes."""

    @pytest.mark.parametrize("chain_mode", ["store-forward", "pipelined"])
    def test_crash_mid_chain_is_byte_identical_to_oracle(self, chain_mode):
        rows, columns, (t0, t1), victim = _oracle(chain_mode)
        fed = _build(chain_mode=chain_mode)
        crash_at = t0 + 0.6 * (t1 - t0)
        fed.network.set_fault_plan(FaultPlan().crash(victim, at_s=crash_at))
        result = fed.client().submit(XMATCH_SQL)
        assert tuple(result.rows) == rows
        assert tuple(result.columns) == columns
        assert result.failovers >= 1
        assert not result.degraded
        assert any(
            "failed mid-chain; failing over to replica" in w
            for w in result.warnings
        )
        assert fed.network.metrics.failovers >= 1
        assert fed.network.metrics.fault_count("crash") >= 1

    @pytest.mark.parametrize("chain_mode", ["store-forward", "pipelined"])
    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_chaos_crash_schedule_never_loses_rows(self, chain_mode, slot):
        """Seeded sweep: wherever the crash lands, the answer is complete."""
        rows, _, (t0, t1), victim = _oracle(chain_mode)
        fraction = 0.2 + 0.25 * ((CHAOS_SEED + slot) % 3)
        fed = _build(chain_mode=chain_mode)
        fed.network.set_fault_plan(
            FaultPlan().crash(victim, at_s=t0 + fraction * (t1 - t0))
        )
        result = fed.client().submit(XMATCH_SQL)
        assert tuple(result.rows) == rows
        assert result.failovers >= 1
        assert not result.degraded


class TestRecoveryRemembersPlanning:
    """The per-query dead set is seeded at plan time and handed to the
    executor: recovery never re-asks an endpoint planning saw dead."""

    @pytest.mark.parametrize("chain_mode", ["store-forward", "pipelined"])
    def test_dead_primary_is_probed_exactly_once(self, chain_mode):
        rows, columns, _, _ = _oracle(chain_mode)

        def build():
            fed = _build(replicas=2, chain_mode=chain_mode)
            fed.network.fail_host(fed.node("SDSS").hostname)
            return fed

        # A twin with only the primary down tells us when the chain runs
        # (the simulation is deterministic): crash the first replica —
        # the hop the plan failed over to — in the middle of it.
        twin = build()
        before = len(twin.network.metrics.messages)
        assert twin.portal.submit(XMATCH_SQL).failovers == 1
        chain = [
            m.sim_time for m in twin.network.metrics.messages[before:]
            if m.phase in ("crossmatch-chain", "batch-transfer")
        ]
        fed = build()
        fed.network.set_fault_plan(
            FaultPlan().crash(
                fed.replicas["SDSS"][0].hostname,
                at_s=(min(chain) + max(chain)) / 2.0,
            )
        )
        primary = fed.node("SDSS").hostname
        asked = []
        make_proxy = fed.portal.proxy
        fed.portal.proxy = lambda url: (asked.append(url), make_proxy(url))[1]
        result = fed.portal.submit(XMATCH_SQL)
        assert tuple(result.rows) == rows
        assert tuple(result.columns) == columns
        assert result.failovers == 2 and not result.degraded
        assert fed.network.metrics.fault_count("crash") == 1
        final = {step.archive: step.url for step in result.plan.steps}
        assert fed.replicas["SDSS"][1].hostname in final["SDSS"]
        # Planning's count probe is the only ask of the dead primary, on
        # any of its services.
        assert [url.split("/")[2] for url in asked].count(primary) == 1


class TestCheckpoints:
    """The drained stream is the checkpoint: a hop that finished its step
    answers the same execution's re-open from the cached payload."""

    def _submitted(self):
        fed = _build(replicas=0)
        submitted = fed.client().submit(XMATCH_SQL)
        #: The execution id the Portal minted for that (unbudgeted) submit.
        return fed, submitted, f"{fed.portal.hostname}-x1"

    def test_chain_records_one_checkpoint_per_hop(self, reopen_hop):
        fed, submitted, xid = self._submitted()
        for node in fed.nodes.values():
            assert node.crossmatch.open_streams == 0
        # Every hop, asked again by the same execution, replays.
        for position in range(len(submitted.plan["steps"])):
            _, downstream = reopen_hop(fed, submitted.plan, xid, position)
            assert downstream == []

    def test_fresh_query_never_reuses_checkpoints(self, reopen_hop):
        fed, first, xid = self._submitted()
        before = len(fed.network.metrics.messages)
        second = fed.client().submit(XMATCH_SQL)
        assert first.rows == second.rows
        # A new execution id per submit: the second query ran its whole
        # chain instead of being served the first one's payloads.
        chain = [
            m for m in fed.network.metrics.messages[before:]
            if m.operation == "PerformXMatch" and m.kind == "request"
        ]
        assert len(chain) == len(second.plan["steps"])
        # ... and each execution keeps its own: both still replay.
        for execution in (xid, f"{fed.portal.hostname}-x2"):
            assert reopen_hop(fed, second.plan, execution)[1] == []

    def test_checkpoint_hit_skips_downstream_recompute(self, reopen_hop):
        fed, submitted, _ = self._submitted()
        first, downstream = reopen_hop(fed, submitted.plan, "probe-x1")
        assert len(downstream) >= 1  # a new execution: the full chain ran
        replay, downstream = reopen_hop(fed, submitted.plan, "probe-x1")
        # Same qid: answered from the hop's drained stream.
        assert downstream == []
        assert replay["rows"].rows == first["rows"].rows
        assert replay["stats"] == first["stats"]
        assert replay["stream_id"] == first["stream_id"]

    def test_checkpoints_reaped_after_ttl(self, reopen_hop):
        fed, submitted, xid = self._submitted()
        fed.network.clock.advance(STREAM_TTL_S + 1.0)
        _, downstream = reopen_hop(fed, submitted.plan, xid)
        assert len(downstream) == len(submitted.plan["steps"]) - 1

    def test_crash_wipes_checkpoints(self, reopen_hop):
        fed, submitted, xid = self._submitted()
        head = fed.node(submitted.plan["steps"][0]["archive"])
        head.crash_volatile_state()
        # The head recomputes its step; its neighbour still replays.
        _, downstream = reopen_hop(fed, submitted.plan, xid)
        assert [m.operation for m in downstream] == ["PerformXMatch"]

    def test_replay_under_a_chunk_budget_gets_a_fresh_transfer(
        self, reopen_hop
    ):
        """The cache holds the payload, not the first response's transfer
        descriptor — that transfer was drained and is gone."""
        fed = build_federation(
            FederationConfig(
                n_bodies=500, seed=11,
                sky_field=SkyField(185.0, -0.5, 1800.0),
                chunk_budget_bytes=1024,
            )
        )
        submitted = fed.client().submit(XMATCH_SQL)
        assert len(submitted.rows) > 0
        position = len(submitted.plan["steps"]) - 1
        proxy = ServiceProxy(
            fed.network, "tester.skyquery.net",
            submitted.plan["steps"][position]["url"],
        )
        response, downstream = reopen_hop(
            fed, submitted.plan, f"{fed.portal.hostname}-x1", position
        )
        assert downstream == [] and response["chunked"]
        replayed = receive_rowset(response, proxy)
        seeded = submitted.node_stats[0]
        assert len(replayed.rows) == seeded["tuples_out"] > 0
        for node in fed.nodes.values():
            assert node.crossmatch.sender.pending_transfers == 0


class TestStreamResume:
    def _open(self, proxy, plan, start_seq, batch_size=25, qid=""):
        return proxy.call(
            "PerformXMatch", plan=plan, position=0, qid=qid,
            batch_size=batch_size, start_seq=start_seq,
        )

    def test_open_stream_validates_start_seq(self):
        fed = _build(replicas=0, chain_mode="pipelined")
        submitted = fed.client().submit(XMATCH_SQL)
        proxy = ServiceProxy(
            fed.network, "tester.skyquery.net",
            submitted.plan["steps"][0]["url"],
        )
        with pytest.raises(SoapFaultError):
            self._open(proxy, submitted.plan, -1)
        opened = self._open(proxy, submitted.plan, 0)
        with pytest.raises(SoapFaultError):
            self._open(proxy, submitted.plan, opened["batch_count"])

    @pytest.mark.parametrize("window", [1, 2])
    def test_pull_window_flow_control_preserves_rows(self, window):
        """Bounded pull waves change pacing, never the answer."""
        rows, columns, _, _ = _oracle("pipelined")
        fed = _build(chain_mode="pipelined")
        fed.portal.batch_size = 8
        fed.portal.stream_pull_window = window
        result = fed.client().submit(XMATCH_SQL)
        assert tuple(result.rows) == rows
        assert tuple(result.columns) == columns
        assert not result.degraded

    def test_resumed_stream_serves_only_the_tail(self):
        fed = _build(replicas=0, chain_mode="pipelined")
        submitted = fed.client().submit(XMATCH_SQL)
        proxy = ServiceProxy(
            fed.network, "tester.skyquery.net",
            submitted.plan["steps"][0]["url"],
        )
        full = self._open(proxy, submitted.plan, 0)
        count = full["batch_count"]
        assert count >= 2, "need a multi-batch stream to test resume"
        batches = [
            proxy.call("PullBatch", stream_id=full["stream_id"], seq=seq)
            for seq in range(count)
        ]
        resume_at = count // 2
        resumed = self._open(proxy, submitted.plan, resume_at)
        assert resumed["batch_count"] == count
        # Already-acknowledged batches are gone: the stream starts at the
        # high-water mark and pulling before it is a protocol error.
        with pytest.raises(SoapFaultError):
            proxy.call("PullBatch", stream_id=resumed["stream_id"], seq=0)
        for seq in range(resume_at, count):
            tail = proxy.call(
                "PullBatch", stream_id=resumed["stream_id"], seq=seq
            )
            assert tail["rows"].rows == batches[seq]["rows"].rows
