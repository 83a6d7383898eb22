"""End-to-end federation tests over real SOAP traffic."""

import pytest

from repro.errors import SoapFaultError
from repro.portal.planner import OrderingStrategy
from repro.sphere.coords import radec_to_vector
from repro.sphere.distance import separation_arcsec
from repro.units import arcsec_to_rad

PAPER_SQL = (
    "SELECT O.object_id, O.ra, T.obj_id, O.i_flux - T.i_flux AS color "
    "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T, "
    "FIRST:Primary_Object P "
    "WHERE AREA(185.0, -0.5, 900.0) AND XMATCH(O, T, P) < 3.5 "
    "AND O.type = GALAXY AND O.i_flux - T.i_flux > 2"
)


def test_registration_catalogs_all_archives(small_federation):
    assert small_federation.portal.catalog.archives() == [
        "FIRST",
        "SDSS",
        "TWOMASS",
    ]


def test_paper_query_returns_rows(small_federation):
    result = small_federation.client().submit(PAPER_SQL)
    assert len(result) > 0
    assert result.columns == ["O.object_id", "O.ra", "T.obj_id", "color"]


def test_cross_archive_predicate_enforced(small_federation):
    result = small_federation.client().submit(PAPER_SQL)
    for row in result.rows:
        assert row[3] > 2  # O.i_flux - T.i_flux > 2


def test_local_predicate_enforced(small_federation):
    result = small_federation.client().submit(PAPER_SQL)
    sdss = small_federation.node("SDSS").db
    galaxies = {
        row[0]
        for row in sdss.execute(
            "SELECT o.object_id FROM Photo_Object o WHERE o.type = GALAXY"
        ).rows
    }
    assert all(row[0] in galaxies for row in result.rows)


def test_area_enforced(small_federation):
    result = small_federation.client().submit(PAPER_SQL)
    center = radec_to_vector(185.0, -0.5)
    sdss = small_federation.node("SDSS").db
    positions = {
        row[0]: (row[1], row[2])
        for row in sdss.execute(
            "SELECT o.object_id, o.ra, o.dec FROM Photo_Object o"
        ).rows
    }
    for row in result.rows:
        ra, dec = positions[row[0]]
        assert separation_arcsec(radec_to_vector(ra, dec), center) <= 900.0 + 1.0


def test_matches_are_mostly_true_bodies(small_federation):
    result = small_federation.client().submit(PAPER_SQL)
    truth_sdss = small_federation.truth["SDSS"]
    truth_twomass = small_federation.truth["TWOMASS"]
    correct = sum(
        1
        for row in result.rows
        if truth_sdss[row[0]] == truth_twomass[row[2]]
    )
    assert correct / len(result) > 0.95


def test_all_orderings_same_result(small_federation):
    client = small_federation.client()
    results = {
        strategy: sorted(client.submit(PAPER_SQL, strategy=strategy.value).rows)
        for strategy in OrderingStrategy
    }
    reference = results[OrderingStrategy.COUNT_DESC]
    assert all(rows == reference for rows in results.values())


def test_plan_order_matches_counts(small_federation):
    result = small_federation.client().submit(PAPER_SQL)
    steps = result.plan["steps"]
    counts = [s["count_star"] for s in steps if not s["dropout"]]
    assert counts == sorted(counts, reverse=True)


def test_node_stats_chain_order(small_federation):
    result = small_federation.client().submit(PAPER_SQL)
    assert result.node_stats[0]["role"] == "seed"
    assert all(s["role"] != "seed" for s in result.node_stats[1:])
    # Tuples flow: each node's input equals the previous node's output.
    for prev, cur in zip(result.node_stats, result.node_stats[1:]):
        assert cur["tuples_in"] == prev["tuples_out"]


def test_dropout_query(small_federation):
    sql = (
        "SELECT O.object_id, T.obj_id "
        "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T, "
        "FIRST:Primary_Object P "
        "WHERE AREA(185.0, -0.5, 900.0) AND XMATCH(O, T, !P) < 3.5"
    )
    result = small_federation.client().submit(sql)
    assert len(result) > 0
    # Drop-out results must be disjoint from the mandatory-match results.
    sql_mand = sql.replace("!P", "P")
    mandatory = small_federation.client().submit(sql_mand)
    assert {r[0] for r in result.rows}.isdisjoint({r[0] for r in mandatory.rows})


def test_dropout_plus_mandatory_covers_pairs(small_federation):
    base_sql = (
        "SELECT O.object_id, T.obj_id "
        "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T "
        "WHERE AREA(185.0, -0.5, 900.0) AND XMATCH(O, T) < 3.5"
    )
    pairs = {tuple(r) for r in small_federation.client().submit(base_sql).rows}
    with_p = (
        "SELECT O.object_id, T.obj_id "
        "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T, "
        "FIRST:Primary_Object P "
        "WHERE AREA(185.0, -0.5, 900.0) AND XMATCH(O, T, P) < 3.5"
    )
    without_p = with_p.replace("XMATCH(O, T, P)", "XMATCH(O, T, !P)")
    matched = {
        tuple(r) for r in small_federation.client().submit(with_p).rows
    }
    unmatched = {
        tuple(r) for r in small_federation.client().submit(without_p).rows
    }
    assert matched | unmatched == pairs
    assert matched.isdisjoint(unmatched)


def test_two_archive_query(small_federation):
    sql = (
        "SELECT O.object_id, T.obj_id "
        "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T "
        "WHERE AREA(185.0, -0.5, 600.0) AND XMATCH(O, T) < 3.5"
    )
    result = small_federation.client().submit(sql)
    assert len(result) > 0
    assert len(result.node_stats) == 2


def test_limit_applied(small_federation):
    sql = (
        "SELECT O.object_id, T.obj_id "
        "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T "
        "WHERE AREA(185.0, -0.5, 900.0) AND XMATCH(O, T) < 3.5 LIMIT 3"
    )
    result = small_federation.client().submit(sql)
    assert len(result) == 3


def test_single_archive_query_routed_directly(fresh_metrics):
    fed = fresh_metrics
    result = fed.client().submit(
        "SELECT t.object_id, t.ra FROM SDSS:Photo_Object t "
        "WHERE AREA(185.0, -0.5, 300.0) LIMIT 5"
    )
    assert 0 < len(result) <= 5
    metrics = fed.network.metrics
    assert metrics.message_count(phase="direct-query") == 2
    assert metrics.message_count(phase="crossmatch-chain") == 0


def test_empty_area_returns_no_rows(small_federation):
    sql = (
        "SELECT O.object_id, T.obj_id "
        "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T "
        "WHERE AREA(10.0, 40.0, 60.0) AND XMATCH(O, T) < 3.5"
    )
    result = small_federation.client().submit(sql)
    assert len(result) == 0


def test_invalid_query_returns_fault(small_federation):
    with pytest.raises(SoapFaultError):
        small_federation.client().submit("THIS IS NOT SQL")


def test_unknown_archive_returns_fault(small_federation):
    with pytest.raises(SoapFaultError):
        small_federation.client().submit(
            "SELECT a.x, b.y FROM NOPE:T1 a, SDSS:Photo_Object b "
            "WHERE XMATCH(a, b) < 1"
        )


def test_temp_tables_cleaned_up(small_federation):
    small_federation.client().submit(PAPER_SQL)
    for node in small_federation.nodes.values():
        leftovers = [
            name
            for name in node.db._tables
            if "tmp" in name
        ]
        assert leftovers == []


def test_phases_recorded(fresh_metrics):
    fed = fresh_metrics
    fed.client().submit(PAPER_SQL)
    phases = fed.network.metrics.bytes_by_phase()
    assert {"client", "performance-query", "crossmatch-chain"} <= set(phases)


def test_simulated_time_advances(fresh_metrics):
    fed = fresh_metrics
    before = fed.network.clock.now
    fed.client().submit(PAPER_SQL)
    assert fed.network.clock.now > before


def test_unsupported_config_knobs_rejected():
    """An unsupported enumerated knob fails at build time with an
    actionable ConfigurationError, not deep inside the first query."""
    from repro.errors import ConfigurationError
    from repro.federation.builder import FederationConfig, build_federation

    for knob, bad in [
        ("match_engine", "quadtree"),
        ("chain_mode", "broadcast"),
    ]:
        config = FederationConfig(n_bodies=10, **{knob: bad})
        with pytest.raises(ConfigurationError) as excinfo:
            build_federation(config)
        message = str(excinfo.value)
        assert knob in message
        assert repr(bad) in message


def test_match_engine_defaults_to_zone(monkeypatch):
    """Zone is the production engine at every layer that has a default,
    and no environment variable can say otherwise."""
    import inspect

    from repro.federation.builder import FederationConfig
    from repro.portal.portal import Portal
    from repro.skynode.node import SkyNode
    from repro.skynode.xmatch_proc import sp_xmatch_reference

    monkeypatch.setenv("SKYQUERY_MATCH_ENGINE", "htm")
    assert FederationConfig().match_engine == "zone"
    assert Portal().match_engine == "zone"
    for function, parameter in (
        (SkyNode.__init__, "match_engine"),
        (sp_xmatch_reference, "engine"),  # the sp_xmatch call surface
    ):
        signature = inspect.signature(function)
        assert signature.parameters[parameter].default == "zone"
    assert FederationConfig(match_engine="htm").match_engine == "htm"
