"""EXPLAIN plans."""

import pytest

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
