"""EXPLAIN plans and database persistence."""

import pytest

from repro.db.persist import (
    database_from_dict,
    database_to_dict,
    load_database,
    save_database,
)
from repro.errors import SchemaError

PAPER_SQL = (
    "SELECT O.object_id, T.obj_id, O.i_flux - T.i_flux AS color "
    "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T, "
    "FIRST:Primary_Object P "
    "WHERE AREA(185.0, -0.5, 900.0) AND XMATCH(O, T, P) < 3.5 "
    "AND O.type = GALAXY AND O.i_flux - T.i_flux > 2"
)


class TestExplain:
    def test_explain_chain_structure(self, small_federation):
        plan = small_federation.client().explain(PAPER_SQL)
        assert plan["type"] == "chain"
        assert plan["strategy"] == "count_desc"
        assert set(plan["counts"]) == {"O", "T", "P"}
        assert plan["would_execute"] is True
        assert set(plan["performance_queries"]) == {"O", "T", "P"}
        assert "COUNT(*)" in plan["performance_queries"]["O"]
        assert "O.type = GALAXY" in plan["performance_queries"]["O"]
        assert plan["cross_conjuncts"] == ["O.i_flux - T.i_flux > 2"]
        steps = plan["plan"]["steps"]
        counts = [s["count_star"] for s in steps]
        assert counts == sorted(counts, reverse=True)

    def test_explain_runs_no_chain(self, fresh_metrics):
        fed = fresh_metrics
        fed.client().explain(PAPER_SQL)
        metrics = fed.network.metrics
        assert metrics.message_count(phase="performance-query") > 0
        assert metrics.message_count(phase="crossmatch-chain") == 0

    def test_explain_zero_count_flags_no_execution(self, small_federation):
        sql = (
            "SELECT O.object_id, T.obj_id "
            "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T "
            "WHERE AREA(10.0, 40.0, 300.0) AND XMATCH(O, T) < 3.5"
        )
        plan = small_federation.client().explain(sql)
        assert plan["would_execute"] is False
        # Nothing would be sent down a chain — exactly what submit does.
        assert plan["plan"] is None
        assert small_federation.client().submit(sql).plan is None
        assert not plan["degraded"] and plan["warnings"] == []

    def test_explain_reports_the_routing_outcome(self, small_federation):
        plan = small_federation.client().explain(PAPER_SQL)
        assert plan["warnings"] == [] and plan["skipped"] == []
        assert plan["failovers"] == 0 and plan["degraded"] is False

    def test_explain_probes_like_submit(self, fresh_metrics):
        """EXPLAIN is SUBMIT minus the chain: the same count-star probes
        cross the wire, and they are all planning sends — neither pings
        an archive before its chain."""
        fed = fresh_metrics

        def planning_traffic(action):
            before = len(fed.network.metrics.messages)
            action(PAPER_SQL)
            return [
                (m.src, m.dst, m.operation, m.phase, m.kind)
                for m in fed.network.metrics.messages[before:]
                if m.phase in ("health-probe", "performance-query")
            ]

        explained = planning_traffic(fed.portal.explain)
        assert explained == planning_traffic(fed.portal.submit)
        assert any(phase == "performance-query" for *_, phase, _ in explained)
        assert not any(phase == "health-probe" for *_, phase, _ in explained)

    def test_explain_pinned_epochs(self):
        """A pinned (time-travel) read can be explained: the plan carries
        the pinned epochs and the counts of that snapshot (the parent
        commit's explain took no ``pin_epochs`` at all)."""
        from repro.errors import StaleEpochError
        from repro.federation.builder import FederationConfig, build_federation

        sql = (
            "SELECT O.object_id, T.obj_id "
            "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T "
            "WHERE AREA(185.0, -0.5, 900.0) AND XMATCH(O, T) < 3.5"
        )
        fed = build_federation(
            FederationConfig(n_bodies=300, seed=5, ingest=True, keep_epochs=1)
        )
        old = fed.portal.submit(sql)
        table = fed.node("SDSS").db.table("Photo_Object")
        columns = [column.name for column in table.schema.columns]
        rows = [
            tuple(
                10_000_000 + i if name == "object_id" else value
                for name, value in zip(columns, table.row(0))
            )
            for i in range(3)
        ]
        fed.ingest_client("SDSS").ingest_rows("Photo_Object", columns, rows)
        live = fed.portal.explain(sql)
        pinned = fed.portal.explain(sql, pin_epochs=old.epochs)
        assert live["epochs"]["O"] == old.epochs["O"] + 1
        assert pinned["epochs"] == old.epochs
        assert pinned["counts"] == old.counts
        assert pinned["plan"] == old.plan.to_wire()
        assert pinned["plan"] == fed.portal.submit(
            sql, pin_epochs=old.epochs
        ).plan.to_wire()
        fed.ingest_client("SDSS").ingest_rows(
            "Photo_Object", columns,
            [tuple(20_000_000 if n == "object_id" else v
                   for n, v in zip(columns, rows[0]))],
        )
        with pytest.raises(StaleEpochError):  # GC'd pin: same as submit
            fed.portal.explain(sql, pin_epochs=old.epochs)

    def test_explain_bytes_strategy_includes_calibration(self, small_federation):
        plan = small_federation.client().explain(
            PAPER_SQL, strategy="bytes_desc"
        )
        assert plan["calibration"] is not None
        assert plan["calibration"]["O"]["bytes_per_row"] > 0

    def test_explain_direct_query(self, small_federation):
        plan = small_federation.client().explain(
            "SELECT t.object_id FROM SDSS:Photo_Object t LIMIT 1"
        )
        assert plan["type"] == "direct"
        assert plan["archive"] == "SDSS"
        assert plan["query_service"].endswith("/query")

    def test_explain_matches_actual_plan(self, small_federation):
        client = small_federation.client()
        explained = client.explain(PAPER_SQL)
        executed = client.submit(PAPER_SQL)
        assert [s["alias"] for s in explained["plan"]["steps"]] == [
            s["alias"] for s in executed.plan["steps"]
        ]


class TestPersistence:
    def test_roundtrip(self, tmp_path, small_federation):
        original = small_federation.node("SDSS").db
        path = tmp_path / "sdss.json"
        save_database(original, path)
        restored = load_database(path)
        assert restored.name == original.name
        assert restored.dialect == original.dialect
        assert restored.table_names() == original.table_names()
        table = original.table("Photo_Object")
        restored_table = restored.table("Photo_Object")
        assert len(restored_table) == len(table)
        assert restored_table.spatial == table.spatial

    def test_roundtrip_preserves_query_results(self, tmp_path, small_federation):
        original = small_federation.node("SDSS").db
        path = tmp_path / "sdss.json"
        save_database(original, path)
        restored = load_database(path)
        sql = (
            "SELECT o.object_id FROM Photo_Object o "
            "WHERE AREA(185.0, -0.5, 600.0) AND o.type = GALAXY "
            "ORDER BY o.object_id"
        )
        assert restored.execute(sql).rows == original.execute(sql).rows

    def test_temp_tables_excluded(self, tmp_path):
        from repro.db.engine import Database
        from repro.db.schema import Column
        from repro.db.types import ColumnType

        db = Database("d")
        db.create_table("keep", [Column("a", ColumnType.INT)])
        db.create_temp_table("scratch", [Column("b", ColumnType.INT)])
        data = database_to_dict(db)
        assert [t["name"] for t in data["tables"]] == ["keep"]

    def test_bad_version_rejected(self):
        with pytest.raises(SchemaError):
            database_from_dict({"format_version": 99, "name": "x"})

    def test_save_is_crash_atomic(self, tmp_path, small_federation):
        """A crash mid-save never corrupts the previous good dump."""
        db = small_federation.node("SDSS").db
        path = tmp_path / "sdss.json"
        save_database(db, path)
        good = path.read_bytes()

        class MidSaveCrash(RuntimeError):
            pass

        def die(tmp):
            assert tmp.exists()  # the new dump was fully written...
            raise MidSaveCrash("power cut before rename")

        with pytest.raises(MidSaveCrash):
            save_database(db, path, crash_hook=die)
        # ...but the target still holds the old dump, bit for bit, and the
        # temp file was cleaned up rather than left to confuse a reload.
        assert path.read_bytes() == good
        assert not (tmp_path / "sdss.json.tmp").exists()
        assert load_database(path).table_names() == db.table_names()

    def test_roundtrip_preserves_epoch_snapshots(self, tmp_path):
        """Pinned visibility survives save/load: marks and counters."""
        from repro.db.engine import Database
        from repro.db.schema import Column
        from repro.db.types import ColumnType

        db = Database("epochal")
        db.create_table(
            "obs",
            [
                Column("object_id", ColumnType.INT, nullable=False),
                Column("flux", ColumnType.FLOAT),
            ],
        )
        db.insert("obs", [(1, 0.5), (2, 1.5)])
        db.apply_epoch([("obs", [(3, 2.5)])])
        db.apply_epoch([("obs", [(4, 3.5), (5, 4.5)])])
        db.gc_epochs(1)
        path = tmp_path / "epochal.json"
        save_database(db, path)
        restored = load_database(path)
        assert restored.committed_epoch == db.committed_epoch == 2
        assert restored.oldest_epoch == db.oldest_epoch == 1
        for epoch in (1, 2):
            want = db.table("obs").visible_count(epoch)
            assert restored.table("obs").visible_count(epoch) == want
        assert len(restored.table("obs")) == 5

    def test_restored_db_serves_a_skynode(self, tmp_path, small_federation):
        """A restored archive can stand in for the original in a federation."""
        from repro.skynode.node import SkyNode
        from repro.skynode.wrapper import ArchiveInfo

        original = small_federation.node("TWOMASS")
        path = tmp_path / "twomass.json"
        save_database(original.db, path)
        restored = load_database(path)
        node = SkyNode(
            restored,
            ArchiveInfo(
                archive="TWOMASS2",
                sigma_arcsec=original.info.sigma_arcsec,
                primary_table=original.info.primary_table,
                object_id_column=original.info.object_id_column,
                ra_column=original.info.ra_column,
                dec_column=original.info.dec_column,
            ),
            hostname="twomass2.skyquery.net",
        )
        node.attach(small_federation.network)
        node.register_with_portal(
            small_federation.portal.service_url("registration")
        )
        result = small_federation.client().submit(
            "SELECT O.object_id, T2.obj_id "
            "FROM SDSS:Photo_Object O, TWOMASS2:Photo_Primary T2 "
            "WHERE AREA(185.0, -0.5, 600.0) AND XMATCH(O, T2) < 3.5"
        )
        assert len(result) > 0
        # Cleanup so other session-scoped tests see the original catalog.
        small_federation.portal.catalog.unregister("TWOMASS2")
        small_federation.network.remove_host("twomass2.skyquery.net")
