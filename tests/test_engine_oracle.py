"""The set-at-a-time archive engine against its row-at-a-time oracle.

For random skies (poles and RA 0/360 included), random AREA shapes (zero
radius, hemisphere, caps past 90 degrees, polygons), residual predicates,
LIMIT/ORDER BY/DISTINCT/GROUP BY/count(*), pinned epochs and full scans
(of a table with no SpatialSpec, which refuses an AREA),
``Database.execute`` must match ``tests.engine_reference`` exactly: the
same rows in the same order, the same ``QueryStats``, the same buffer
pool counters and the same resident pages in the same LRU order — over a
sequence of queries sharing one pool, from one page up to more pages
than the table has.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.db.engine import Database
from repro.db.schema import Column
from repro.db.table import SpatialSpec
from repro.db.types import ColumnType
from repro.errors import QueryError
from tests.engine_reference import ReferenceDatabase

COLUMNS = [
    Column("object_id", ColumnType.INT, nullable=False),
    Column("ra", ColumnType.FLOAT, nullable=False),
    Column("dec", ColumnType.FLOAT, nullable=False),
    Column("mag", ColumnType.FLOAT),
    Column("kind", ColumnType.STRING),
]

SPECIAL_RA = [0.0, 359.9999999, 1e-9, 180.0, 90.0, 270.0, 45.0]
SPECIAL_DEC = [90.0, -90.0, 89.9999, -89.9999, 0.0, 1e-12, 35.26438968275466]

ras = st.one_of(
    st.sampled_from(SPECIAL_RA),
    st.floats(0.0, 360.0, allow_nan=False, exclude_max=True),
    st.floats(359.5, 360.0, exclude_max=True),
    st.floats(0.0, 0.5),
)
decs = st.one_of(
    st.sampled_from(SPECIAL_DEC),
    st.floats(-90.0, 90.0, allow_nan=False),
    st.floats(88.0, 90.0),
    st.floats(-1.0, 1.0),
)
rows = st.lists(
    st.tuples(
        ras,
        decs,
        st.one_of(st.none(), st.floats(10.0, 25.0)),
        st.sampled_from(["STAR", "GALAXY", "QSO"]),
    ),
    max_size=120,
)


@st.composite
def areas(draw):
    ra, dec = draw(ras), draw(decs)
    if draw(st.booleans()):
        radius = draw(
            st.one_of(
                st.sampled_from([0.0, 324000.0, 400000.0, 648000.0]),
                st.floats(0.0, 40000.0),
            )
        )
        return f"AREA({ra!r}, {dec!r}, {radius!r})"
    half = draw(st.floats(0.01, 5.0))
    dec = max(-80.0, min(80.0, dec))
    corners = [
        (ra - half, dec - half), (ra + half, dec - half),
        (ra + half, dec + half), (ra - half, dec + half),
    ]
    return "AREA(POLYGON, " + ", ".join(
        f"{r!r}, {d!r}" for r, d in corners
    ) + ")"


@st.composite
def queries(draw):
    where = []
    if draw(st.booleans()):
        where.append(draw(areas()))
    residual = draw(
        st.sampled_from([None, "o.mag < 18.0", "o.kind = 'STAR'",
                         "o.mag IS NULL OR o.object_id > 40"])
    )
    if residual:
        where.append(f"({residual})")
    clause = f" WHERE {' AND '.join(where)}" if where else ""
    shape = draw(st.sampled_from(
        ["plain", "star", "expr", "count", "group", "order", "distinct"]
    ))
    limit = draw(st.sampled_from([None, 0, 1, 7]))
    tail = "" if limit is None else f" LIMIT {limit}"
    if shape == "plain":
        return f"SELECT o.object_id, dec FROM objs o{clause}{tail}"
    if shape == "star":
        return f"SELECT * FROM objs o{clause}{tail}"
    if shape == "expr":
        return f"SELECT o.object_id, o.ra + 1.0 FROM objs o{clause}{tail}"
    if shape == "count":
        return f"SELECT count(*) FROM objs o{clause}"
    if shape == "group":
        return (f"SELECT o.kind, count(*) FROM objs o{clause} "
                f"GROUP BY o.kind ORDER BY o.kind{tail}")
    if shape == "order":
        return (f"SELECT o.object_id FROM objs o{clause} "
                f"ORDER BY o.ra DESC{tail}")
    return f"SELECT DISTINCT o.kind FROM objs o{clause}{tail}"


def _database(cls, depth, page_size, pool, first, later, use_index):
    db = cls("arch", page_size=page_size, buffer_pages=pool)
    spatial = SpatialSpec("ra", "dec", depth) if use_index else None
    db.create_table("objs", COLUMNS, spatial=spatial)
    db.insert("objs", first)
    if later:
        db.apply_epoch([("objs", later)])
    return db


def _observe(db, sql, epoch):
    try:
        result = db.execute(sql, epoch=epoch)
    except QueryError as exc:  # an AREA on a table with no SpatialSpec
        return (str(exc), db.buffer.stats, db.buffer.resident_order())
    return (
        result.columns,
        result.rows,
        result.stats,
        db.buffer.stats,
        db.buffer.resident_order(),
    )


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    sky=rows,
    split=st.integers(0, 120),
    depth=st.integers(2, 7),
    page_size=st.sampled_from([1, 3, 16]),
    pool=st.sampled_from([1, 2, 5, 64]),
    use_index=st.booleans(),
    epoch=st.sampled_from([None, 0, 1]),
    sqls=st.lists(queries(), min_size=1, max_size=3),
)
def test_engine_matches_row_at_a_time_reference(
    sky, split, depth, page_size, pool, use_index, epoch, sqls
):
    table = [(i, ra, dec, mag, kind) for i, (ra, dec, mag, kind) in enumerate(sky)]
    first, later = table[:split], table[split:]
    if epoch == 1 and not later:
        epoch = 0
    engine = _database(
        Database, depth, page_size, pool, first, later, use_index
    )
    oracle = _database(
        ReferenceDatabase, depth, page_size, pool, first, later, use_index
    )
    for sql in sqls:
        assert _observe(engine, sql, epoch) == _observe(oracle, sql, epoch), sql
