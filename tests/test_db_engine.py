"""The archive database engine."""

import random

import pytest

from repro.db.engine import Database, ResultSet
from repro.db.schema import Column
from repro.db.table import SpatialSpec
from repro.db.types import ColumnType
from repro.errors import QueryError, SchemaError
from repro.sphere.coords import radec_to_vector, vector_to_radec
from repro.sphere.distance import angular_separation
from repro.sphere.random import random_in_cap
from repro.sphere.regions import Cap
from repro.units import arcsec_to_rad


@pytest.fixture()
def db():
    database = Database("sdss", page_size=8, buffer_pages=64)
    database.create_table(
        "Photo_Object",
        [
            Column("object_id", ColumnType.INT, nullable=False),
            Column("ra", ColumnType.FLOAT, nullable=False),
            Column("dec", ColumnType.FLOAT, nullable=False),
            Column("type", ColumnType.STRING),
            Column("i_flux", ColumnType.FLOAT),
        ],
        spatial=SpatialSpec("ra", "dec", htm_depth=10),
    )
    rng = random.Random(7)
    center = radec_to_vector(185.0, -0.5)
    rows = []
    for i in range(300):
        ra, dec = vector_to_radec(random_in_cap(rng, center, 0.01))
        rows.append((i, ra, dec, "GALAXY" if i % 3 else "STAR", 10.0 + i % 10))
    database.insert("Photo_Object", rows)
    database._test_rows = rows  # for brute-force comparison
    return database


def test_count_star(db):
    result = db.execute("SELECT count(*) FROM Photo_Object o")
    assert result.scalar() == 300


def test_count_star_with_predicate(db):
    result = db.execute(
        "SELECT count(*) FROM Photo_Object o WHERE o.type = 'STAR'"
    )
    assert result.scalar() == 100


def test_projection_and_aliases(db):
    result = db.execute(
        "SELECT o.object_id, o.i_flux AS flux FROM Photo_Object o LIMIT 3"
    )
    assert result.columns == ["o.object_id", "flux"]
    assert len(result) == 3


def test_star_projection(db):
    result = db.execute("SELECT * FROM Photo_Object o LIMIT 1")
    assert result.columns == ["object_id", "ra", "dec", "type", "i_flux"]


def test_expression_projection(db):
    result = db.execute("SELECT o.i_flux + 1 AS up FROM Photo_Object o LIMIT 1")
    assert result.rows[0][0] == pytest.approx(db._test_rows[0][4] + 1)


def test_limit(db):
    result = db.execute("SELECT o.object_id FROM Photo_Object o LIMIT 5")
    assert len(result) == 5


def test_area_query_matches_brute_force(db):
    radius = 900.0
    result = db.execute(
        f"SELECT count(*) FROM Photo_Object o WHERE AREA(185.0, -0.5, {radius})"
    )
    center = radec_to_vector(185.0, -0.5)
    brute = sum(
        1
        for row in db._test_rows
        if angular_separation(radec_to_vector(row[1], row[2]), center)
        <= arcsec_to_rad(radius)
    )
    assert result.scalar() == brute


def test_area_with_index_examines_fewer_rows(db):
    result = db.execute(
        "SELECT count(*) FROM Photo_Object o WHERE AREA(185.0, -0.5, 300.0)"
    )
    assert result.stats.used_spatial_index
    assert result.stats.rows_examined < 300


def test_full_scan_when_index_disabled(db):
    # The same rows in a table created without a SpatialSpec have no
    # positions to search: a full scan reads them all, and AREA is refused.
    db.create_table("Photo_Scan", db.table("Photo_Object").schema.columns)
    db.insert("Photo_Scan", db._test_rows)
    result = db.execute("SELECT count(*) FROM Photo_Scan o")
    assert not result.stats.used_spatial_index
    assert result.stats.rows_examined == 300
    with pytest.raises(QueryError, match="no spatial columns"):
        db.execute(
            "SELECT count(*) FROM Photo_Scan o WHERE AREA(185.0, -0.5, 300.0)"
        )
    # The index finds exactly what testing every stored position finds.
    indexed = db.execute(
        "SELECT count(*) FROM Photo_Object o WHERE AREA(185.0, -0.5, 300.0)"
    )
    cap = Cap.from_radec(185.0, -0.5, 300.0)
    positions = db.table("Photo_Object").position_matrix()
    assert indexed.scalar() == int(cap.contains_many(positions).sum())


def test_stats_buffer_accounting(db):
    db.buffer.clear()
    db.buffer.reset_stats()
    first = db.execute("SELECT count(*) FROM Photo_Object o")
    assert first.stats.physical_reads > 0
    second = db.execute("SELECT count(*) FROM Photo_Object o")
    assert second.stats.physical_reads == 0
    assert second.stats.logical_reads == first.stats.logical_reads


def test_multi_table_rejected(db):
    with pytest.raises(QueryError):
        db.execute("SELECT a.x FROM t1 a, t2 b")


def test_xmatch_rejected_at_engine(db):
    with pytest.raises(QueryError):
        db.execute(
            "SELECT o.object_id FROM Photo_Object o "
            "WHERE XMATCH(o, o) < 3.5"
        )


def test_unknown_table(db):
    with pytest.raises(SchemaError):
        db.execute("SELECT x.a FROM Nope x")


def test_area_on_non_spatial_table():
    db = Database("d")
    db.create_table("t", [Column("a", ColumnType.INT)])
    db.insert("t", [(1,)])
    with pytest.raises(QueryError):
        db.execute("SELECT t.a FROM t WHERE AREA(0.0, 0.0, 10.0)")


def test_temp_table_lifecycle():
    db = Database("d")
    temp = db.create_temp_table("xm", [Column("seq", ColumnType.INT)])
    assert db.has_table(temp.name)
    assert temp.temporary
    assert temp.name not in db.table_names()  # hidden from catalog
    db.drop_table(temp.name)
    assert not db.has_table(temp.name)


def test_temp_table_names_unique():
    db = Database("d")
    t1 = db.create_temp_table("xm", [Column("a", ColumnType.INT)])
    t2 = db.create_temp_table("xm", [Column("a", ColumnType.INT)])
    assert t1.name != t2.name


def test_duplicate_table_rejected(db):
    with pytest.raises(SchemaError):
        db.create_table("Photo_Object", [Column("a", ColumnType.INT)])


def test_drop_missing_table():
    with pytest.raises(SchemaError):
        Database("d").drop_table("nope")


def test_procedures():
    db = Database("d")
    db.register_procedure("double", lambda _db, value: value * 2)
    assert db.call_procedure("double", value=21) == 42
    assert db.has_procedure("DOUBLE")
    with pytest.raises(SchemaError):
        db.register_procedure("double", lambda _db: None)
    with pytest.raises(QueryError):
        db.call_procedure("nope")
    # Dropping frees the name for another body (how oracle procedures
    # are swapped in); dropping twice is an error like any unknown name.
    db.drop_procedure("Double")
    assert not db.has_procedure("double")
    db.register_procedure("double", lambda _db, value: value + value)
    assert db.call_procedure("double", value="ab") == "abab"
    with pytest.raises(QueryError):
        db.drop_procedure("nope")


def test_scalar_requires_1x1(db):
    result = db.execute("SELECT o.object_id FROM Photo_Object o LIMIT 2")
    with pytest.raises(QueryError):
        result.scalar()


def test_to_dicts(db):
    result = db.execute("SELECT o.object_id FROM Photo_Object o LIMIT 2")
    dicts = result.to_dicts()
    assert dicts[0]["o.object_id"] == 0


def test_named_constant_in_query(db):
    quoted = db.execute(
        "SELECT count(*) FROM Photo_Object o WHERE o.type = 'GALAXY'"
    ).scalar()
    constant = db.execute(
        "SELECT count(*) FROM Photo_Object o WHERE o.type = GALAXY"
    ).scalar()
    assert quoted == constant == 200


def test_limit_zero_reads_nothing():
    """LIMIT 0 returns no rows and touches no row, page or pool slot."""
    database = Database("cold", page_size=8, buffer_pages=4)
    database.create_table("t", [Column("id", ColumnType.INT)])
    database.insert("t", [(i,) for i in range(20)])
    result = database.execute("SELECT id FROM t LIMIT 0")
    assert result.rows == []
    assert result.stats.rows_examined == 0
    assert result.stats.logical_reads == 0
    assert result.stats.physical_reads == 0
    assert database.buffer.resident_pages == 0


def test_early_stop_counts_only_tested_candidates(db):
    """An AREA scan stopped by LIMIT reports the candidates it tested,
    never more than the rows it examined."""
    result = db.execute(
        "SELECT o.object_id FROM Photo_Object o "
        "WHERE AREA(185.0, -0.5, 600.0) LIMIT 1"
    )
    assert len(result) == 1
    stats = result.stats
    assert stats.used_spatial_index
    assert stats.rows_tested_geometrically <= stats.rows_examined
    full = db.execute(
        "SELECT o.object_id FROM Photo_Object o WHERE AREA(185.0, -0.5, 600.0)"
    )
    assert full.stats.rows_tested_geometrically > stats.rows_tested_geometrically
