"""Two-phase commit data exchange between archives."""

import pytest

from repro.db.schema import TableSchema
from repro.errors import SoapFaultError, TransactionError
from repro.federation.builder import FederationConfig, build_federation
from repro.services.client import ServiceProxy
from repro.soap.encoding import WireRowSet
from repro.sql.ast import AreaClause
from repro.transactions import (
    CoordinatorCrash,
    CoordinatorLog,
    DataExchange,
    TwoPhaseCoordinator,
)
from repro.workloads.skysim import SkyField


@pytest.fixture()
def fed():
    federation = build_federation(
        FederationConfig(
            n_bodies=300, seed=31, sky_field=SkyField(185.0, -0.5, 1200.0)
        )
    )
    for node in federation.nodes.values():
        node.enable_transactions()
    return federation


def txn_url(fed, archive):
    return fed.node(archive).enable_transactions()


def txn_urls(fed):
    return {name: txn_url(fed, name) for name in fed.nodes}


def proxy(fed, archive):
    return ServiceProxy(fed.network, "tester", txn_url(fed, archive))


AREA = AreaClause(185.0, -0.5, 600.0)


class TestParticipant:
    def test_begin_stage_prepare_commit(self, fed):
        p = proxy(fed, "TWOMASS")
        p.call("Begin", txn_id="t1")
        p.call("EnsureTable", table="incoming",
               columns=[{"name": "x", "type": "int"}])
        staged = p.call("StageRows", txn_id="t1", table="incoming",
                        rows=WireRowSet([("x", "int")], [(1,), (2,)]))
        assert staged == 2
        # Staged rows are invisible before commit.
        db = fed.node("TWOMASS").db
        assert db.count_rows("incoming") == 0
        assert p.call("Prepare", txn_id="t1")["vote"] == "commit"
        assert db.count_rows("incoming") == 0
        assert p.call("Commit", txn_id="t1") is True
        assert db.count_rows("incoming") == 2

    def test_commit_idempotent(self, fed):
        p = proxy(fed, "TWOMASS")
        p.call("Begin", txn_id="t2")
        p.call("EnsureTable", table="inc2", columns=[{"name": "x", "type": "int"}])
        p.call("StageRows", txn_id="t2", table="inc2",
               rows=WireRowSet([("x", "int")], [(1,)]))
        p.call("Prepare", txn_id="t2")
        p.call("Commit", txn_id="t2")
        p.call("Commit", txn_id="t2")  # redelivery is safe
        assert fed.node("TWOMASS").db.count_rows("inc2") == 1

    def test_commit_without_prepare_rejected(self, fed):
        p = proxy(fed, "SDSS")
        p.call("Begin", txn_id="t3")
        with pytest.raises(SoapFaultError) as err:
            p.call("Commit", txn_id="t3")
        assert "two-phase" in str(err.value)

    def test_abort_discards_staged(self, fed):
        p = proxy(fed, "SDSS")
        p.call("Begin", txn_id="t4")
        p.call("EnsureTable", table="inc4", columns=[{"name": "x", "type": "int"}])
        p.call("StageRows", txn_id="t4", table="inc4",
               rows=WireRowSet([("x", "int")], [(9,)]))
        p.call("Abort", txn_id="t4")
        assert fed.node("SDSS").db.count_rows("inc4") == 0
        assert p.call("GetStatus", txn_id="t4") == "aborted"

    def test_abort_unknown_txn_is_presumed_abort(self, fed):
        p = proxy(fed, "SDSS")
        assert p.call("Abort", txn_id="never-began") is True

    def test_abort_committed_rejected(self, fed):
        p = proxy(fed, "FIRST")
        p.call("Begin", txn_id="t5")
        p.call("Prepare", txn_id="t5")
        p.call("Commit", txn_id="t5")
        with pytest.raises(SoapFaultError):
            p.call("Abort", txn_id="t5")

    def test_prepare_validates_schema(self, fed):
        p = proxy(fed, "SDSS")
        p.call("Begin", txn_id="t6")
        p.call("EnsureTable", table="inc6", columns=[{"name": "x", "type": "int"}])
        p.call("StageRows", txn_id="t6", table="inc6",
               rows=WireRowSet([("y", "int")], [(1,)]))  # unknown column
        reply = p.call("Prepare", txn_id="t6")
        assert reply["vote"] == "abort"
        assert "no column" in reply["reason"]

    @pytest.mark.parametrize("advance_epoch", [False, True])
    def test_each_staged_batch_is_coerced_once_at_prepare(
        self, fed, monkeypatch, advance_epoch
    ):
        """Prepare's coercion is the vote and the prepared state: each
        staged batch is coerced exactly once, and Commit applies it (as a
        plain append or as a new epoch) without converting a row."""
        calls = []
        for name in ("coerce_columns", "coerce_row"):
            def counted(schema, *args, _name=name,
                        _original=getattr(TableSchema, name), **kwargs):
                calls.append(_name)
                return _original(schema, *args, **kwargs)

            monkeypatch.setattr(TableSchema, name, counted)
        p = proxy(fed, "TWOMASS")
        p.call("Begin", txn_id="once", advance_epoch=advance_epoch)
        p.call("EnsureTable", table="counted",
               columns=[{"name": "x", "type": "int"},
                        {"name": "y", "type": "double"}])
        for seq, rows in enumerate([[(1, 0.5), (2, 1.5)], [(3, 2.5)]]):
            p.call("StageRows", txn_id="once", table="counted", seq=seq,
                   rows=WireRowSet([("c.x", "int"), ("c.y", "double")], rows))
        assert calls == []
        assert p.call("Prepare", txn_id="once")["vote"] == "commit"
        assert calls == ["coerce_columns", "coerce_columns"]
        assert p.call("Commit", txn_id="once") is True
        assert calls == ["coerce_columns", "coerce_columns"]
        table = fed.node("TWOMASS").db.table("counted")
        assert [table.row(i) for i in range(len(table))] == [
            [1, 0.5], [2, 1.5], [3, 2.5]
        ]

    @pytest.mark.parametrize(
        "columns, row, reason",
        [
            ([("ra", "double"), ("dec", "double")], (185.0, -0.5),
             "column 'object_id' is NOT NULL"),
            ([("object_id", "string"), ("ra", "double"), ("dec", "double")],
             ("seven", 185.0, -0.5),
             "column 'object_id' expects INT, got str"),
            ([("object_id", "int"), ("nope", "int")], (7, 1),
             "table 'Photo_Object' has no column 'nope'"),
        ],
    )
    def test_a_bad_row_votes_abort_with_its_reason(
        self, fed, columns, row, reason
    ):
        p = proxy(fed, "SDSS")
        p.call("Begin", txn_id="bad")
        p.call("StageRows", txn_id="bad", table="Photo_Object",
               rows=WireRowSet(columns, [row]))
        assert p.call("Prepare", txn_id="bad") == {
            "vote": "abort", "reason": reason
        }
        assert p.call("GetStatus", txn_id="bad") == "aborted"

    def test_stage_unknown_txn_rejected(self, fed):
        p = proxy(fed, "SDSS")
        with pytest.raises(SoapFaultError):
            p.call("StageRows", txn_id="nope", table="t",
                   rows=WireRowSet([("x", "int")], []))

    def test_status_unknown(self, fed):
        assert proxy(fed, "SDSS").call("GetStatus", txn_id="zz") == "unknown"

    def test_crash_loses_active_keeps_prepared(self, fed):
        node = fed.node("TWOMASS")
        p = proxy(fed, "TWOMASS")
        p.call("Begin", txn_id="active1")
        p.call("Begin", txn_id="prepared1")
        p.call("Prepare", txn_id="prepared1")
        node.transaction.simulate_crash()
        assert p.call("GetStatus", txn_id="active1") == "unknown"
        assert p.call("GetStatus", txn_id="prepared1") == "prepared"
        assert p.call("Commit", txn_id="prepared1") is True


class TestExchange:
    def test_replicate_region_happy_path(self, fed):
        exchange = DataExchange(fed.portal, txn_urls(fed))
        result = exchange.replicate_region("SDSS", ["TWOMASS", "FIRST"], AREA)
        assert result.committed
        assert result.rows_copied > 0
        for archive in ("TWOMASS", "FIRST"):
            db = fed.node(archive).db
            assert db.count_rows(result.replica_table) == result.rows_copied
        # Source count inside the AREA matches what was copied.
        source_count = fed.node("SDSS").db.execute(
            "SELECT count(*) FROM Photo_Object o WHERE AREA(185.0, -0.5, 600.0)"
        ).scalar()
        assert result.rows_copied == source_count

    def test_one_abort_vote_rolls_back_everyone(self, fed):
        exchange = DataExchange(fed.portal, txn_urls(fed))
        fed.node("FIRST").transaction.fail_next_prepare = "disk full"
        result = exchange.replicate_region("SDSS", ["TWOMASS", "FIRST"], AREA)
        assert not result.committed
        assert result.abort_reason == "disk full"
        for archive in ("TWOMASS", "FIRST"):
            db = fed.node(archive).db
            if db.has_table(result.replica_table):
                assert db.count_rows(result.replica_table) == 0

    def test_atomic_visibility(self, fed):
        """No target sees rows until the global commit."""
        exchange = DataExchange(fed.portal, txn_urls(fed))
        result = exchange.replicate_region("FIRST", ["SDSS"], AREA)
        assert result.committed
        # A second, aborted exchange leaves the replica untouched.
        before = fed.node("SDSS").db.count_rows(result.replica_table)
        fed.node("SDSS").transaction.fail_next_prepare = "nope"
        second = exchange.replicate_region("FIRST", ["SDSS"], AREA)
        assert not second.committed
        assert fed.node("SDSS").db.count_rows(result.replica_table) == before

    def test_unknown_target_rejected(self, fed):
        exchange = DataExchange(fed.portal, {"SDSS": txn_url(fed, "SDSS")})
        with pytest.raises(TransactionError):
            exchange.replicate_region("SDSS", ["TWOMASS"], AREA)

    def test_unknown_target_rejected_before_the_pull(self, fed):
        """A whole-table copy to a target without a Transaction service
        is refused before a single source row is pulled."""
        exchange = DataExchange(fed.portal, {"SDSS": txn_url(fed, "SDSS")})
        sent = fed.network.metrics.message_count()
        with pytest.raises(TransactionError, match="no Transaction service"):
            exchange.replicate_region("SDSS", ["TWOMASS"], None)
        assert fed.network.metrics.message_count() == sent

    def test_twin_federations_send_identical_bytes(self):
        """Txn ids are minted per Portal, so identically built federations
        in one process send the same bytes and end at the same instant."""
        seen = []
        for _ in range(5):
            twin = build_federation(
                FederationConfig(n_bodies=200, replicas=1, seed=3)
            )
            replica = twin.replicas["SDSS"][0]
            status = ServiceProxy(
                twin.network, "tester", replica.enable_transactions()
            ).call("GetStatus", txn_id="xchg-sdss-1")
            seen.append(
                (twin.network.metrics.total_bytes(), twin.network.clock.now,
                 status)
            )
        assert seen[0][2] == "committed"
        assert seen == [seen[0]] * 5


class TestCoordinatorRecovery:
    def test_coordinator_crash_then_recovery_commits_everyone(self, fed):
        log = CoordinatorLog()
        coordinator = TwoPhaseCoordinator(
            fed.network, fed.portal.hostname, log
        )
        exchange = DataExchange(
            fed.portal, txn_urls(fed), coordinator=coordinator
        )

        # Crash after the decision is logged and the FIRST commit delivered.
        delivered = []

        def crash_on_second(url):
            if delivered:
                raise CoordinatorCrash(url)
            delivered.append(url)

        coordinator.fault_hook = crash_on_second
        with pytest.raises(CoordinatorCrash):
            exchange.replicate_region("SDSS", ["TWOMASS", "FIRST"], AREA)

        # One target committed, one is still in doubt (prepared).
        states = {
            archive: proxy(fed, archive).call(
                "GetStatus", txn_id=log.records[-1].txn_id
            )
            for archive in ("TWOMASS", "FIRST")
        }
        assert sorted(states.values()) == ["committed", "prepared"]

        # A new coordinator over the same log finishes the job.
        recovered = TwoPhaseCoordinator(fed.network, fed.portal.hostname, log)
        outcomes = recovered.recover()
        assert len(outcomes) == 1 and outcomes[0].committed
        txn_id = outcomes[0].txn_id
        for archive in ("TWOMASS", "FIRST"):
            assert proxy(fed, archive).call(
                "GetStatus", txn_id=txn_id
            ) == "committed"
        counts = {
            archive: fed.node(archive).db.count_rows("sdss_replica")
            for archive in ("TWOMASS", "FIRST")
        }
        assert counts["TWOMASS"] == counts["FIRST"] > 0

    def test_partitioned_participant_recovers_after_restore(self, fed):
        log = CoordinatorLog()
        coordinator = TwoPhaseCoordinator(fed.network, fed.portal.hostname, log)
        exchange = DataExchange(
            fed.portal, txn_urls(fed), coordinator=coordinator
        )
        target = fed.node("TWOMASS")

        # Partition the target between its Prepare vote and the Commit
        # delivery: the coordinator's decision cannot reach it.
        original_hook_state = {"partitioned": False}

        def partition_before_commit(url):
            if target.hostname in url and not original_hook_state["partitioned"]:
                fed.network.fail_host(target.hostname)
                original_hook_state["partitioned"] = True

        coordinator.fault_hook = partition_before_commit
        result = exchange.replicate_region("FIRST", ["TWOMASS"], AREA)
        assert result.committed  # decision was commit; delivery pending
        txn_id = result.txn_id
        fed.network.restore_host(target.hostname)
        assert proxy(fed, "TWOMASS").call("GetStatus", txn_id=txn_id) == "prepared"

        coordinator.fault_hook = None
        coordinator.recover()
        assert proxy(fed, "TWOMASS").call("GetStatus", txn_id=txn_id) == "committed"
        assert target.db.count_rows("first_replica") == result.rows_copied

    def test_recover_noop_when_log_complete(self, fed):
        log = CoordinatorLog()
        coordinator = TwoPhaseCoordinator(fed.network, fed.portal.hostname, log)
        exchange = DataExchange(
            fed.portal, txn_urls(fed), coordinator=coordinator
        )
        exchange.replicate_region("SDSS", ["TWOMASS"], AREA)
        assert coordinator.recover() == []


class TestFaultInjectedTwoPhase:
    """Scripted crash injection against the 2PC exchange (FaultPlan)."""

    def test_participant_lost_before_prepare_aborts_cleanly(self, fed):
        from repro.transport.faults import FaultPlan

        target = fed.node("TWOMASS")
        network = fed.network

        class LosesContact(TwoPhaseCoordinator):
            """Crashes the target after staging, before its Prepare."""

            def complete(self, txn_id, participants):
                network.set_fault_plan(
                    FaultPlan().crash(target.hostname, at_s=network.clock.now)
                )
                return super().complete(txn_id, participants)

        coordinator = LosesContact(fed.network, fed.portal.hostname)
        exchange = DataExchange(
            fed.portal, txn_urls(fed), coordinator=coordinator
        )
        result = exchange.replicate_region("SDSS", ["TWOMASS", "FIRST"], AREA)

        # One unreachable participant forces a global abort...
        assert not result.committed
        assert "unreachable" in result.votes.values()
        assert result.rows_copied == 0
        # ...and the abort path leaves no partial replica table anywhere:
        # the table may exist (EnsureTable ran while staging) but holds
        # zero rows on every target, crashed or not.
        for archive in ("TWOMASS", "FIRST"):
            db = fed.node(archive).db
            if db.has_table(result.replica_table):
                assert db.count_rows(result.replica_table) == 0
        assert proxy(fed, "FIRST").call(
            "GetStatus", txn_id=result.txn_id
        ) == "aborted"

    def test_retried_exchange_after_abort_is_idempotent(self, fed):
        from repro.transport.faults import FaultPlan

        target = fed.node("TWOMASS")
        network = fed.network

        class LosesContact(TwoPhaseCoordinator):
            def complete(self, txn_id, participants):
                network.set_fault_plan(
                    FaultPlan().crash(target.hostname, at_s=network.clock.now)
                )
                return super().complete(txn_id, participants)

        failed = DataExchange(
            fed.portal, txn_urls(fed),
            coordinator=LosesContact(fed.network, fed.portal.hostname),
        ).replicate_region("SDSS", ["TWOMASS", "FIRST"], AREA)
        assert not failed.committed

        # The host is repaired; the retried exchange must converge to
        # exactly one copy of the region — the aborted attempt left no
        # residue that a retry could double-apply.
        network.set_fault_plan(None)
        retry = DataExchange(fed.portal, txn_urls(fed))
        second = retry.replicate_region("SDSS", ["TWOMASS", "FIRST"], AREA)
        assert second.committed
        source_count = fed.node("SDSS").db.execute(
            "SELECT count(*) FROM Photo_Object o WHERE AREA(185.0, -0.5, 600.0)"
        ).scalar()
        assert second.rows_copied == source_count
        for archive in ("TWOMASS", "FIRST"):
            assert fed.node(archive).db.count_rows(
                second.replica_table
            ) == source_count

    def test_unreachable_target_leaves_no_active_transaction(self, fed):
        first = fed.node("FIRST")
        fed.network.fail_host(first.hostname)
        exchange = DataExchange(fed.portal, txn_urls(fed))
        result = exchange.replicate_region("SDSS", ["TWOMASS", "FIRST"], AREA)
        fed.network.restore_host(first.hostname)
        assert not result.committed and result.rows_copied == 0
        for archive in ("TWOMASS", "FIRST"):
            assert proxy(fed, archive).call(
                "GetStatus", txn_id=result.txn_id
            ) != "active"

    def test_participant_lost_mid_staging_aborts_everywhere(self, fed):
        """FIRST crashes between two of its StageRows chunks and forgets
        the ACTIVE transaction: the exchange aborts at every participant,
        including TWOMASS, which had staged all its rows."""
        first = fed.node("FIRST")
        first_url = txn_url(fed, "FIRST")
        stages_sent = []

        class CrashesFirst(DataExchange):
            def _proxy(self, url):
                proxy = super()._proxy(url)
                if url == first_url:
                    call = proxy.call

                    def crash_before_second_stage(operation, **params):
                        if operation == "StageRows":
                            stages_sent.append(params["table"])
                            if len(stages_sent) == 2:
                                first.transaction.simulate_crash()
                        return call(operation, **params)

                    proxy.call = crash_before_second_stage
                return proxy

        exchange = CrashesFirst(
            fed.portal, txn_urls(fed), stage_rows_per_call=20
        )
        result = exchange.replicate_region("SDSS", ["TWOMASS", "FIRST"], AREA)
        assert len(stages_sent) == 2
        assert not result.committed and result.rows_copied == 0
        assert "staging failed" in result.abort_reason
        for archive in ("TWOMASS", "FIRST"):
            assert proxy(fed, archive).call(
                "GetStatus", txn_id=result.txn_id
            ) == "aborted"
            assert fed.node(archive).db.count_rows(result.replica_table) == 0

    def test_partitioned_mid_staging_is_aborted_by_recovery(self, fed):
        """FIRST drops off the network while staging: the abort cannot
        reach it, so it stays in doubt in the log, and recovery aborts
        the transaction FIRST still holds once it is back."""
        first = fed.node("FIRST")
        first_url = txn_url(fed, "FIRST")
        log = CoordinatorLog()
        coordinator = TwoPhaseCoordinator(fed.network, fed.portal.hostname, log)

        class PartitionsFirst(DataExchange):
            def _proxy(self, url):
                proxy = super()._proxy(url)
                if url == first_url:
                    call = proxy.call

                    def partition_on_stage(operation, **params):
                        if operation == "StageRows":
                            fed.network.fail_host(first.hostname)
                        return call(operation, **params)

                    proxy.call = partition_on_stage
                return proxy

        exchange = PartitionsFirst(
            fed.portal, txn_urls(fed), coordinator=coordinator
        )
        result = exchange.replicate_region("SDSS", ["TWOMASS", "FIRST"], AREA)
        assert not result.committed
        fed.network.restore_host(first.hostname)
        assert proxy(fed, "TWOMASS").call(
            "GetStatus", txn_id=result.txn_id
        ) == "aborted"
        assert proxy(fed, "FIRST").call(
            "GetStatus", txn_id=result.txn_id
        ) == "active"
        outcomes = coordinator.recover()
        assert [o.committed for o in outcomes] == [False]
        assert proxy(fed, "FIRST").call(
            "GetStatus", txn_id=result.txn_id
        ) == "aborted"
        assert coordinator.recover() == []

    def test_participant_lost_between_prepare_and_commit_recovers(self, fed):
        from repro.transport.faults import FaultPlan

        target = fed.node("TWOMASS")
        network = fed.network
        log = CoordinatorLog()
        coordinator = TwoPhaseCoordinator(fed.network, fed.portal.hostname, log)

        def crash_target_before_delivery(url):
            if target.hostname in url and network.fault_plan is None:
                network.set_fault_plan(
                    FaultPlan().crash(target.hostname, at_s=network.clock.now)
                )

        coordinator.fault_hook = crash_target_before_delivery
        exchange = DataExchange(
            fed.portal, txn_urls(fed), coordinator=coordinator
        )
        result = exchange.replicate_region("FIRST", ["TWOMASS"], AREA)
        # Every vote was commit, so the decision is commit — but the
        # delivery never reached the crashed participant: in doubt.
        assert result.committed
        assert log.in_doubt()

        network.set_fault_plan(None)
        coordinator.fault_hook = None
        assert proxy(fed, "TWOMASS").call(
            "GetStatus", txn_id=result.txn_id
        ) == "prepared"
        outcomes = coordinator.recover()
        assert len(outcomes) == 1 and outcomes[0].committed
        assert target.db.count_rows(result.replica_table) == result.rows_copied
        # Replaying recovery again redelivers Commit; idempotent.
        assert coordinator.recover() == []
        assert target.db.count_rows(result.replica_table) == result.rows_copied
