"""SELECT DISTINCT and the zero-count early exit."""

import pytest

from repro.db.engine import Database
from repro.db.schema import Column
from repro.db.types import ColumnType


@pytest.fixture()
def db():
    database = Database("d")
    database.create_table(
        "t",
        [
            Column("object_id", ColumnType.INT, nullable=False),
            Column("kind", ColumnType.STRING, nullable=False),
            Column("v", ColumnType.INT),
        ],
    )
    database.insert(
        "t",
        [
            (1, "a", 10),
            (2, "a", 10),
            (3, "b", 20),
            (4, "b", None),
            (5, "b", None),
        ],
    )
    return database


def test_distinct_single_column(db):
    result = db.execute("SELECT DISTINCT t.kind FROM t ORDER BY t.kind")
    assert result.rows == [("a",), ("b",)]


def test_distinct_multi_column(db):
    result = db.execute(
        "SELECT DISTINCT t.kind, t.v FROM t ORDER BY t.kind, t.v"
    )
    assert result.rows == [("a", 10), ("b", None), ("b", 20)]


def test_distinct_with_limit(db):
    result = db.execute(
        "SELECT DISTINCT t.kind FROM t ORDER BY t.kind LIMIT 1"
    )
    assert result.rows == [("a",)]


def test_distinct_limit_without_order(db):
    # LIMIT must apply after deduplication, not cut the scan short.
    result = db.execute("SELECT DISTINCT t.kind FROM t LIMIT 2")
    assert sorted(result.rows) == [("a",), ("b",)]


def test_distinct_nulls_collapse(db):
    result = db.execute("SELECT DISTINCT t.v FROM t WHERE t.kind = 'b'")
    assert sorted(result.rows, key=lambda r: (r[0] is not None, r[0])) == [
        (None,), (20,),
    ]


def test_non_distinct_keeps_duplicates(db):
    result = db.execute("SELECT t.kind FROM t")
    assert len(result.rows) == 5


def test_distinct_printing_roundtrip():
    from repro.sql.parser import parse_query
    from repro.sql.printer import to_sql

    sql = "SELECT DISTINCT t.a, t.b FROM T t WHERE t.a > 1 ORDER BY t.a"
    assert parse_query(to_sql(parse_query(sql))) == parse_query(sql)


def test_federated_distinct(small_federation):
    sql = (
        "SELECT DISTINCT O.type "
        "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T "
        "WHERE AREA(185.0, -0.5, 900.0) AND XMATCH(O, T) < 3.5 "
        "ORDER BY O.type"
    )
    result = small_federation.client().submit(sql)
    values = [row[0] for row in result.rows]
    assert values == sorted(set(values))
    assert len(values) <= 3  # GALAXY / QSO / STAR


class TestEarlyExit:
    def test_zero_count_skips_chain(self, fresh_metrics):
        fed = fresh_metrics
        # An AREA nowhere near the synthetic field: every count is zero.
        result = fed.client().submit(
            "SELECT O.object_id, T.obj_id "
            "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T "
            "WHERE AREA(10.0, 40.0, 300.0) AND XMATCH(O, T) < 3.5"
        )
        assert len(result) == 0
        metrics = fed.network.metrics
        assert metrics.message_count(phase="performance-query") > 0
        assert metrics.message_count(phase="crossmatch-chain") == 0

    def test_zero_count_result_reports_counts(self, small_federation):
        result = small_federation.client().submit(
            "SELECT O.object_id, T.obj_id "
            "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T "
            "WHERE AREA(10.0, 40.0, 300.0) AND XMATCH(O, T) < 3.5"
        )
        assert set(result.counts) == {"O", "T"}
        assert all(count == 0 for count in result.counts.values())
        assert result.columns == ["O.object_id", "T.obj_id"]

    def test_partial_zero_also_exits(self, fresh_metrics):
        fed = fresh_metrics
        # Impossible local predicate at one archive only.
        result = fed.client().submit(
            "SELECT O.object_id, T.obj_id "
            "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T "
            "WHERE AREA(185.0, -0.5, 900.0) AND XMATCH(O, T) < 3.5 "
            "AND O.i_flux < -99999"
        )
        assert len(result) == 0
        assert fed.network.metrics.message_count(phase="crossmatch-chain") == 0


SINGLE_ARCHIVE_DISTINCT = "SELECT DISTINCT t.type FROM SDSS:Photo_Object t"


def _engine_distinct_types(fed):
    return fed.node("SDSS").db.execute(
        "SELECT DISTINCT t.type FROM Photo_Object t"
    ).rows


def test_single_archive_distinct_through_the_portal(small_federation):
    answer = small_federation.portal.submit(SINGLE_ARCHIVE_DISTINCT)
    expected = _engine_distinct_types(small_federation)
    assert 1 < len(expected) < 10
    assert answer.rows == expected


def test_single_archive_distinct_through_the_client(small_federation):
    answer = small_federation.client().submit(SINGLE_ARCHIVE_DISTINCT)
    assert answer.rows == _engine_distinct_types(small_federation)
