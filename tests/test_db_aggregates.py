"""Aggregates: COUNT/SUM/AVG/MIN/MAX, GROUP BY, HAVING."""

import pytest

from repro.db.engine import Database
from repro.db.schema import Column
from repro.db.types import ColumnType
from repro.errors import QueryError, ValidationError
from repro.sql.parser import parse_query
from repro.sql.printer import to_sql
from repro.sql.validate import validate_query


@pytest.fixture()
def db():
    database = Database("agg")
    database.create_table(
        "objects",
        [
            Column("object_id", ColumnType.INT, nullable=False),
            Column("type", ColumnType.STRING, nullable=False),
            Column("flux", ColumnType.FLOAT),
        ],
    )
    database.insert(
        "objects",
        [
            (1, "GALAXY", 10.0),
            (2, "GALAXY", 20.0),
            (3, "GALAXY", None),
            (4, "STAR", 5.0),
            (5, "STAR", 15.0),
            (6, "QSO", None),
        ],
    )
    return database


def test_count_column_skips_nulls(db):
    result = db.execute("SELECT COUNT(o.flux) FROM objects o")
    assert result.rows == [(4,)]


def test_count_star_vs_count_column(db):
    star = db.execute("SELECT COUNT(*) FROM objects o").scalar()
    col = db.execute("SELECT COUNT(o.flux) FROM objects o").rows[0][0]
    assert (star, col) == (6, 4)


def test_sum_avg_min_max(db):
    result = db.execute(
        "SELECT SUM(o.flux), AVG(o.flux), MIN(o.flux), MAX(o.flux) "
        "FROM objects o"
    )
    assert result.rows == [(50.0, 12.5, 5.0, 20.0)]


def test_aggregates_on_empty_input(db):
    result = db.execute(
        "SELECT COUNT(*), COUNT(o.flux), SUM(o.flux), AVG(o.flux), "
        "MIN(o.flux) FROM objects o WHERE o.object_id > 100"
    )
    assert result.rows == [(0, 0, None, None, None)]


def test_group_by_counts(db):
    result = db.execute(
        "SELECT o.type, COUNT(*) AS n FROM objects o "
        "GROUP BY o.type ORDER BY o.type"
    )
    assert result.columns == ["o.type", "n"]
    assert result.rows == [("GALAXY", 3), ("QSO", 1), ("STAR", 2)]


def test_group_by_with_aggregate_expression(db):
    result = db.execute(
        "SELECT o.type, MAX(o.flux) - MIN(o.flux) AS spread FROM objects o "
        "WHERE o.flux IS NOT NULL GROUP BY o.type ORDER BY o.type"
    )
    assert result.rows == [("GALAXY", 10.0), ("STAR", 10.0)]


def test_having_filters_groups(db):
    result = db.execute(
        "SELECT o.type, COUNT(*) AS n FROM objects o "
        "GROUP BY o.type HAVING COUNT(*) >= 2 ORDER BY o.type"
    )
    assert result.rows == [("GALAXY", 3), ("STAR", 2)]


def test_order_by_aggregate(db):
    result = db.execute(
        "SELECT o.type FROM objects o GROUP BY o.type "
        "ORDER BY COUNT(*) DESC, o.type"
    )
    assert [r[0] for r in result.rows] == ["GALAXY", "STAR", "QSO"]


def test_group_by_limit(db):
    result = db.execute(
        "SELECT o.type FROM objects o GROUP BY o.type ORDER BY o.type LIMIT 2"
    )
    assert len(result.rows) == 2


def test_ungrouped_column_rejected(db):
    with pytest.raises(QueryError):
        db.execute("SELECT o.type, COUNT(*) FROM objects o")


def test_nested_aggregate_rejected(db):
    with pytest.raises(QueryError):
        db.execute("SELECT SUM(COUNT(*)) FROM objects o")


def test_sum_star_rejected(db):
    from repro.errors import SQLSyntaxError

    # `*` is only grammatical inside COUNT(...); SUM(*) fails at parse time.
    with pytest.raises((QueryError, SQLSyntaxError)):
        db.execute("SELECT SUM(*) FROM objects o")


def test_sum_non_numeric_rejected(db):
    with pytest.raises(QueryError):
        db.execute("SELECT SUM(o.type) FROM objects o")


def test_where_applies_before_grouping(db):
    result = db.execute(
        "SELECT o.type, COUNT(*) FROM objects o WHERE o.flux > 9 "
        "GROUP BY o.type ORDER BY o.type"
    )
    assert result.rows == [("GALAXY", 2), ("STAR", 1)]


def test_default_column_label_is_sql(db):
    result = db.execute("SELECT MAX(o.flux) FROM objects o")
    assert result.columns == ["MAX(o.flux)"]


def test_group_by_expression_key(db):
    result = db.execute(
        "SELECT o.object_id / 3, COUNT(*) FROM objects o "
        "GROUP BY o.object_id / 3 ORDER BY o.object_id / 3"
    )
    # Keys: 1/3, 2/3, 1.0, 4/3, 5/3, 2.0 — all distinct true division values.
    assert len(result.rows) == 6


def test_grouped_sql_printing_roundtrip():
    sql = (
        "SELECT o.type, COUNT(*) AS n FROM objects o WHERE o.flux > 1 "
        "GROUP BY o.type HAVING COUNT(*) >= 2 ORDER BY n DESC LIMIT 3"
    )
    query = parse_query(sql)
    assert parse_query(to_sql(query)) == query


def test_federated_aggregates_rejected():
    query = parse_query(
        "SELECT COUNT(*) FROM S:T1 a, W:T2 b WHERE XMATCH(a, b) < 3.5"
    )
    with pytest.raises(ValidationError):
        validate_query(query)


def test_single_archive_aggregate_via_portal(small_federation):
    result = small_federation.client().submit(
        "SELECT t.type, COUNT(*) AS n FROM SDSS:Photo_Object t "
        "GROUP BY t.type ORDER BY t.type"
    )
    direct = small_federation.node("SDSS").db.execute(
        "SELECT t.type, COUNT(*) AS n FROM Photo_Object t "
        "GROUP BY t.type ORDER BY t.type"
    )
    assert result.rows == direct.rows


@pytest.fixture()
def names_db():
    database = Database("names")
    database.create_table(
        "t",
        [Column("x", ColumnType.INT), Column("name", ColumnType.STRING)],
    )
    database.insert("t", [(1, "a"), (2, "b"), (3, "b")])
    return database


def test_count_star_honours_group_by(names_db):
    result = names_db.execute("SELECT COUNT(*) FROM t GROUP BY name")
    assert result.rows == [(1,), (2,)]
    assert result.columns == ["count"]


def test_count_star_honours_having(names_db):
    sql = "SELECT COUNT(*) FROM t GROUP BY name HAVING COUNT(*) > 5"
    assert names_db.execute(sql).rows == []
    assert names_db.execute("SELECT COUNT(*) FROM t HAVING COUNT(*) > 5").rows == []
    assert names_db.execute("SELECT COUNT(*) FROM t HAVING COUNT(*) > 2").rows == [(3,)]


def test_count_star_honours_limit_and_distinct(names_db):
    assert names_db.execute("SELECT COUNT(*) FROM t LIMIT 0").rows == []
    assert names_db.execute(
        "SELECT DISTINCT COUNT(*) FROM t GROUP BY x"
    ).rows == [(1,)]


def test_count_star_group_by_via_portal(small_federation):
    counts = small_federation.client().submit(
        "SELECT COUNT(*) FROM SDSS:Photo_Object t GROUP BY t.type"
    )
    typed = small_federation.node("SDSS").db.execute(
        "SELECT t.type, COUNT(*) FROM Photo_Object t GROUP BY t.type"
    )
    assert len(typed.rows) > 1
    assert counts.rows == [(n,) for _, n in typed.rows]


def test_having_or_null_keeps_group_like_where(names_db):
    where = names_db.execute("SELECT x FROM t WHERE x > 0 OR NULL")
    having = names_db.execute(
        "SELECT name FROM t GROUP BY name HAVING MAX(x) > 0 OR NULL"
    )
    assert where.rows == [(1,), (2,), (3,)]
    assert having.rows == [("a",), ("b",)]


@pytest.mark.parametrize(
    "select, message",
    [
        ("-MAX(name)", "unary minus applied to non-number 'b'"),
        ("ABS(MAX(name))", "ABS applied to non-number 'b'"),
        ("NOT COUNT(*)", "NOT applied to non-boolean 3"),
    ],
)
def test_grouped_type_errors_are_query_errors(names_db, select, message):
    with pytest.raises(QueryError, match=message):
        names_db.execute(f"SELECT {select} FROM t")
