"""Live ingest: snapshot epochs, replica lockstep, crash consistency.

The ingest contract (docs/RESILIENCE.md): an upload set becomes visible as
ONE new snapshot epoch on the primary AND every replica, or on none of
them. In-flight queries keep reading the epoch they were planned at, and a
crash during any ingest phase — upload, staging, prepare, decision
delivery — either aborts cleanly (zero partial rows anywhere) or recovers
to the committed epoch through the 2PC log replay.

``SKYQUERY_CHAOS_SEED`` (CI's chaos-smoke matrix) shifts where inside each
phase window the crash lands, so different interleavings are exercised on
every run.
"""

import functools
import os

import pytest

from repro.errors import (
    IngestError,
    SoapFaultError,
    StaleEpochError,
    TransportError,
)
from repro.federation.builder import FederationConfig, build_federation
from repro.services.retry import RetryPolicy
from repro.transport.faults import FaultPlan
from repro.workloads.skysim import SkyField, generate_bodies, observe_survey

CHAOS_SEED = int(os.environ.get("SKYQUERY_CHAOS_SEED", "0"))

XMATCH_SQL = (
    "SELECT O.object_id, O.ra, T.obj_id "
    "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T, "
    "FIRST:Primary_Object P "
    "WHERE AREA(185.0, -0.5, 900.0) AND XMATCH(O, T, P) < 3.5"
)

INGEST_PHASES = ["upload", "staging", "prepare", "decision"]


def _config(*, chain_mode="store-forward", replicas=1, keep_epochs=3):
    return FederationConfig(
        n_bodies=240,
        seed=11,
        sky_field=SkyField(185.0, -0.5, 1800.0),
        retry_policy=RetryPolicy(
            max_attempts=3, timeout_s=5.0, base_backoff_s=0.2,
            max_backoff_s=2.0, seed=11 + CHAOS_SEED,
        ),
        replicas=replicas,
        chain_mode=chain_mode,
        ingest=True,
        keep_epochs=keep_epochs,
    )


def _build(**kwargs):
    return build_federation(_config(**kwargs))


def _table_rows(node, table_name):
    table = node.db.table(table_name)
    return sorted(tuple(table.row(pos)) for pos in table.iter_positions())


def _new_observation(fed, archive, n_rows, seed_offset):
    """Deterministic fresh rows for one archive's primary table."""
    config = fed.config
    survey = next(s for s in config.surveys if s.archive == archive)
    observation = observe_survey(
        survey,
        generate_bodies(config.sky_field, n_rows, config.seed + seed_offset),
        config.seed + seed_offset,
    )
    columns = list(observation.rows[0].keys())
    rows = [tuple(row[c] for c in columns) for row in observation.rows]
    return survey.primary_table, columns, rows


class TestEpochCommit:
    def test_commit_advances_primary_and_replicas_in_lockstep(self):
        fed = _build()
        primary = fed.node("SDSS")
        replica = fed.replicas["SDSS"][0]
        table, columns, rows = _new_observation(fed, "SDSS", 40, 1)
        result = fed.ingest_client("SDSS").ingest_rows(
            table, columns, rows, batch_size=15
        )
        assert result.committed
        assert result.epoch == 1
        assert result.rows_sent == len(rows)
        assert set(result.votes.values()) == {"commit"}
        assert len(result.votes) == 2  # the primary itself + one mirror
        assert primary.db.committed_epoch == 1
        assert replica.db.committed_epoch == 1
        assert _table_rows(primary, table) == _table_rows(replica, table)

    def test_uploaded_batches_invisible_until_commit(self):
        fed = _build()
        primary = fed.node("SDSS")
        table, columns, rows = _new_observation(fed, "SDSS", 25, 2)
        before = primary.db.count_rows(table)
        client = fed.ingest_client("SDSS")
        ingest_id = client.begin(table)
        client.upload(ingest_id, columns, rows)
        assert primary.db.count_rows(table) == before
        assert primary.db.committed_epoch == 0
        result = client.commit(ingest_id)
        assert result.committed
        assert primary.db.count_rows(table) == before + len(rows)

    def test_aborted_session_leaves_no_trace(self):
        fed = _build()
        primary = fed.node("SDSS")
        table, columns, rows = _new_observation(fed, "SDSS", 25, 3)
        before = _table_rows(primary, table)
        client = fed.ingest_client("SDSS")
        ingest_id = client.begin(table)
        client.upload(ingest_id, columns, rows)
        assert client.abort(ingest_id)
        assert _table_rows(primary, table) == before
        assert primary.db.committed_epoch == 0
        with pytest.raises(SoapFaultError):
            client.commit(ingest_id)  # the session is gone

    def test_begin_rejects_unknown_table(self):
        fed = _build()
        with pytest.raises(SoapFaultError) as excinfo:
            fed.ingest_client("SDSS").begin("No_Such_Table")
        assert excinfo.value.detail == "IngestError"

    def test_pinned_reads_survive_ingest_between_queries(self):
        fed = _build()
        client = fed.client()
        before = client.submit(XMATCH_SQL)
        table, columns, rows = _new_observation(fed, "SDSS", 40, 4)
        assert fed.ingest_client("SDSS").ingest_rows(
            table, columns, rows
        ).committed
        after = client.submit(XMATCH_SQL)
        assert after.epochs["O"] == 1
        # Repeatable read: pinning the pre-ingest epochs replays the old
        # answer bit for bit, even though the live table has grown.
        pinned = fed.portal.submit(XMATCH_SQL, pin_epochs=before.epochs)
        assert sorted(pinned.rows) == sorted(before.rows)
        assert pinned.epochs == before.epochs

    def test_epoch_gc_advances_oldest_on_all_participants(self):
        fed = _build(keep_epochs=2)
        primary = fed.node("SDSS")
        replica = fed.replicas["SDSS"][0]
        client = fed.ingest_client("SDSS")
        for i in range(3):
            table, columns, rows = _new_observation(fed, "SDSS", 10, 10 + i)
            assert client.ingest_rows(table, columns, rows).committed
        assert client.epochs() == {"committed_epoch": 3, "oldest_epoch": 1}
        assert primary.db.oldest_epoch == replica.db.oldest_epoch == 1

    def test_pinning_a_gcd_epoch_raises(self):
        fed = _build(keep_epochs=1)
        r0 = fed.client().submit(XMATCH_SQL)
        client = fed.ingest_client("SDSS")
        for i in range(2):
            table, columns, rows = _new_observation(fed, "SDSS", 10, 20 + i)
            assert client.ingest_rows(table, columns, rows).committed
        with pytest.raises(StaleEpochError):
            fed.portal.submit(XMATCH_SQL, pin_epochs=r0.epochs)

    def test_primary_crash_drops_open_sessions(self):
        fed = _build()
        table, columns, rows = _new_observation(fed, "SDSS", 10, 5)
        client = fed.ingest_client("SDSS")
        ingest_id = client.begin(table)
        client.upload(ingest_id, columns, rows)
        fed.node("SDSS").crash_volatile_state()
        with pytest.raises(SoapFaultError) as excinfo:
            client.upload(ingest_id, columns, rows)
        assert excinfo.value.detail == "IngestError"

    def test_coordinator_log_forgets_finished_epochs(self):
        """A completed epoch leaves nothing to replay, so the durable 2PC
        log keeps none of its records."""
        fed = _build()
        client = fed.ingest_client("SDSS")
        for i in range(3):
            table, columns, rows = _new_observation(fed, "SDSS", 10, 50 + i)
            assert client.ingest_rows(table, columns, rows).committed
        log = fed.node("SDSS").ingest.coordinator_log
        assert log.records == [] and log.in_doubt() == {}
        assert client.recover()["replayed"] == 0

    def test_ingest_commit_is_traced(self):
        fed = _build()
        tracer = fed.tracer
        tracer.reset()
        table, columns, rows = _new_observation(fed, "SDSS", 10, 6)
        assert fed.ingest_client("SDSS").ingest_rows(
            table, columns, rows
        ).committed
        names = {
            span.name
            for trace_id in tracer.trace_ids()
            for span in tracer.trace(trace_id)
        }
        assert "CommitEpoch" in names  # the server span
        assert "ingest-commit" in names  # the fan-out + 2PC wrapper
        assert "2pc-complete" in names


class TestStaleEpochReaping:
    """A finished hop's drained stream (the chain's checkpoint) is pinned
    to the snapshot epoch it was computed at and dies with it."""

    def test_checkpoints_pinned_to_gcd_epochs_are_reaped(self, reopen_hop):
        fed = _build(keep_epochs=1)
        submitted = fed.client().submit(XMATCH_SQL)  # pinned at epoch 0
        xid = f"{fed.portal.hostname}-x1"
        for node in fed.nodes.values():
            assert len(node.leases.owned_by(xid)) == 1
        client = fed.ingest_client("SDSS")
        for i in range(2):
            table, columns, rows = _new_observation(fed, "SDSS", 10, 30 + i)
            assert client.ingest_rows(table, columns, rows).committed
        # SDSS is now at committed=2, oldest=1: its epoch-0 stream died
        # with the GC, counted in the network's metrics, so the same
        # execution's re-open goes downstream again and then finds the
        # epoch it would recompute at collected.
        assert fed.node("SDSS").leases.owned_by(xid) == []
        assert fed.network.metrics.stale_epoch_reaps >= 1
        steps = [step["archive"] for step in submitted.plan["steps"]]
        assert steps[-1] != "SDSS"  # SDSS has a neighbour to ask
        fault, downstream = reopen_hop(
            fed, submitted.plan, xid, steps.index("SDSS")
        )
        assert downstream and fault.detail == "StaleEpochError"
        # Archives that saw no ingest keep theirs and replay.
        assert reopen_hop(
            fed, submitted.plan, xid, steps.index("TWOMASS")
        )[1] == []

    def test_unversioned_checkpoints_survive_gc(self, reopen_hop):
        fed = _build(keep_epochs=1)
        # A chain driven without epoch pins (epoch None) is unversioned;
        # its streams never go stale. Simulate by running the chain
        # with a plan whose steps carry no epochs.
        plan = fed.client().submit(XMATCH_SQL).plan
        for step in plan["steps"]:
            step["epoch"] = None
        assert reopen_hop(fed, plan, "unversioned")[1]
        reaps_before = fed.network.metrics.stale_epoch_reaps
        client = fed.ingest_client("SDSS")
        for i in range(2):
            table, columns, rows = _new_observation(fed, "SDSS", 10, 40 + i)
            assert client.ingest_rows(table, columns, rows).committed
        # The epoch-pinned stream from the submit was reaped; the
        # unversioned one from the raw PerformXMatch still replays.
        assert fed.network.metrics.stale_epoch_reaps > reaps_before
        assert reopen_hop(fed, plan, "unversioned")[1] == []


@functools.lru_cache(maxsize=4)
def _ingest_oracle(chain_mode):
    """Fault-free twin run: phase windows + expected before/after state.

    The simulation is deterministic, so an identically-built federation
    that replays the same calls reaches each ingest phase at the same
    simulated instant — a crash scheduled inside a phase window is
    guaranteed to land in that phase.
    """
    fed = _build(chain_mode=chain_mode)
    primary = fed.node("SDSS")
    r0 = fed.client().submit(XMATCH_SQL)
    table, columns, rows = _new_observation(fed, "SDSS", 40, 7)
    rows_before = _table_rows(primary, table)
    t_start = fed.network.clock.now
    result = fed.ingest_client("SDSS").ingest_rows(
        table, columns, rows, batch_size=15
    )
    assert result.committed

    def times(operation):
        return [
            m.sim_time
            for m in fed.network.metrics.messages
            if m.kind == "request" and m.operation == operation
            and m.sim_time >= t_start
        ]

    # The decision window ends at the LAST Commit delivery, not at the end
    # of the ingest: a crash scheduled later would land after the protocol
    # finished and never fire.
    edges = [
        min(times("UploadBatch")),
        min(times("StageRows")),
        min(times("Prepare")),
        min(times("Commit")),
        max(times("Commit")),
    ]
    assert edges[4] > edges[3], "need two participants to crash between"
    windows = {
        phase: (edges[i], edges[i + 1])
        for i, phase in enumerate(INGEST_PHASES)
    }
    return {
        "windows": windows,
        "rows_before": rows_before,
        "rows_after": _table_rows(primary, table),
        "r0_rows": sorted(r0.rows),
        "r0_epochs": dict(r0.epochs),
        "table": table,
    }


class TestIngestCrashConsistency:
    """The tentpole acceptance sweep: crash in every ingest phase."""

    @pytest.mark.parametrize("chain_mode", ["store-forward", "pipelined"])
    @pytest.mark.parametrize("victim", ["primary", "replica"])
    @pytest.mark.parametrize("phase", INGEST_PHASES)
    def test_crash_aborts_cleanly_or_recovers_committed(
        self, chain_mode, victim, phase
    ):
        oracle = _ingest_oracle(chain_mode)
        t0, t1 = oracle["windows"][phase]
        fraction = 0.15 + 0.3 * (
            (CHAOS_SEED + len(phase) + len(victim)) % 3
        )
        crash_at = t0 + fraction * (t1 - t0)

        fed = _build(chain_mode=chain_mode)
        primary = fed.node("SDSS")
        replica = fed.replicas["SDSS"][0]
        host = primary.hostname if victim == "primary" else replica.hostname
        table = oracle["table"]

        # Replay the oracle's exact call sequence so the sim clock lines up.
        r0 = fed.client().submit(XMATCH_SQL)
        assert sorted(r0.rows) == oracle["r0_rows"]
        _, columns, rows = _new_observation(fed, "SDSS", 40, 7)
        fed.network.set_fault_plan(
            FaultPlan()
            .crash(host, at_s=crash_at)
            .recover(host, at_s=crash_at + 120.0)
        )
        client = fed.ingest_client("SDSS")
        try:
            client.ingest_rows(table, columns, rows, batch_size=15)
        except (TransportError, SoapFaultError):
            pass  # the upload died with the crashed host; state checked below

        # Let the victim come back, then replay any in-doubt decision.
        now = fed.network.clock.now
        if now < crash_at + 121.0:
            fed.network.clock.advance(crash_at + 121.0 - now)
        assert fed.network.metrics.fault_count("crash") >= 1
        client.recover()

        # Zero divergence: primaries and mirrors agree on epoch AND bytes.
        assert primary.db.committed_epoch == replica.db.committed_epoch
        assert primary.db.oldest_epoch == replica.db.oldest_epoch
        assert _table_rows(primary, table) == _table_rows(replica, table)
        # All-or-nothing: the federation holds the pre-ingest state or the
        # fully committed one, never a partial upload.
        state = _table_rows(primary, table)
        assert state in (oracle["rows_before"], oracle["rows_after"])
        if primary.db.committed_epoch == 0:
            assert state == oracle["rows_before"]
            # A clean abort is retryable: the same upload now commits.
            retry = client.ingest_rows(table, columns, rows, batch_size=15)
            assert retry.committed
        assert _table_rows(primary, table) == oracle["rows_after"]
        assert _table_rows(replica, table) == oracle["rows_after"]
        assert primary.db.committed_epoch == replica.db.committed_epoch == 1

        # In-flight reads pinned before the crash stay byte-identical.
        pinned = fed.portal.submit(
            XMATCH_SQL, pin_epochs=oracle["r0_epochs"]
        )
        assert sorted(pinned.rows) == oracle["r0_rows"]

    @pytest.mark.parametrize("phase", INGEST_PHASES)
    def test_quiescent_oracle_equivalence(self, phase):
        """Post-recovery state is byte-identical to a never-crashed twin.

        (The committed-state arm of the previous test asserts this row for
        row; this one also pins the final epoch counters and a fresh
        unpinned query against the quiescent twin's.)
        """
        oracle = _ingest_oracle("store-forward")
        t0, t1 = oracle["windows"][phase]
        fed = _build()
        primary = fed.node("SDSS")
        host = primary.hostname
        crash_at = t0 + 0.5 * (t1 - t0)
        r0 = fed.client().submit(XMATCH_SQL)
        table = oracle["table"]
        _, columns, rows = _new_observation(fed, "SDSS", 40, 7)
        fed.network.set_fault_plan(
            FaultPlan()
            .crash(host, at_s=crash_at)
            .recover(host, at_s=crash_at + 120.0)
        )
        client = fed.ingest_client("SDSS")
        try:
            client.ingest_rows(table, columns, rows, batch_size=15)
        except (TransportError, SoapFaultError):
            pass
        now = fed.network.clock.now
        if now < crash_at + 121.0:
            fed.network.clock.advance(crash_at + 121.0 - now)
        client.recover()
        if primary.db.committed_epoch == 0:
            assert client.ingest_rows(
                table, columns, rows, batch_size=15
            ).committed
        # Quiescent equivalence: same rows, same epoch window, and a fresh
        # federated query returns what the never-crashed twin would.
        assert _table_rows(primary, table) == oracle["rows_after"]
        assert client.epochs() == {"committed_epoch": 1, "oldest_epoch": 0}
        fresh = fed.client().submit(XMATCH_SQL)
        assert fresh.epochs["O"] == 1
        assert not fresh.degraded
        pinned = fed.portal.submit(XMATCH_SQL, pin_epochs=r0.epochs)
        assert sorted(pinned.rows) == sorted(r0.rows)


class TestIngestClientErrors:
    def test_ingest_rows_rejects_bad_batch_size(self):
        fed = _build()
        with pytest.raises(IngestError):
            fed.ingest_client("SDSS").ingest_rows("Photo_Object", ["a"], [],
                                                  batch_size=0)

    def test_ingest_client_requires_ingest_enabled(self):
        from repro.errors import RegistrationError

        fed = build_federation(
            FederationConfig(
                n_bodies=60,
                seed=11,
                sky_field=SkyField(185.0, -0.5, 1800.0),
            )
        )
        with pytest.raises(RegistrationError):
            fed.ingest_client("SDSS")
