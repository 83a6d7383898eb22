"""Row storage, paging, spatial ids."""

import pytest

from repro.db.schema import Column, TableSchema
from repro.db.table import SpatialSpec, Table
from repro.db.types import ColumnType
from repro.errors import SchemaError
from repro.htm.index import id_for_radec


def make_table(page_size=4, spatial=True):
    schema = TableSchema(
        "objects",
        [
            Column("object_id", ColumnType.INT, nullable=False),
            Column("ra", ColumnType.FLOAT, nullable=False),
            Column("dec", ColumnType.FLOAT, nullable=False),
        ],
    )
    spec = SpatialSpec("ra", "dec", htm_depth=8) if spatial else None
    return Table(schema, page_size=page_size, spatial=spec)


def test_insert_and_len():
    table = make_table()
    table.insert((1, 185.0, -0.5))
    table.insert_many([(0.5, 186.0, 2)], ["dec", "ra", "object_id"])
    assert len(table) == 2
    assert table.row(1) == [2, 186.0, 0.5]


def test_row_retrieval():
    table = make_table()
    table.insert((1, 185.0, -0.5))
    assert table.row(0) == [1, 185.0, -0.5]


def test_page_arithmetic():
    table = make_table(page_size=4)
    for i in range(10):
        table.insert((i, 10.0, 10.0))
    assert table.page_count == 3
    assert table.page_of(0) == 0
    assert table.page_of(3) == 0
    assert table.page_of(4) == 1
    assert table.page_of(9) == 2


def test_htm_id_matches_index():
    table = make_table()
    table.insert((1, 185.0, -0.5))
    assert table.htm_id(0) == id_for_radec(185.0, -0.5, 8)


def test_htm_id_without_spatial_raises():
    table = make_table(spatial=False)
    table.insert((1, 185.0, -0.5))
    with pytest.raises(SchemaError):
        table.htm_id(0)


def test_spatial_entries_sorted():
    table = make_table()
    for i, ra in enumerate((300.0, 10.0, 185.0)):
        table.insert((i, ra, 0.0))
    entries = table.spatial_entries()
    assert entries == sorted(entries)
    assert len(entries) == 3


def test_spatial_entries_refresh_after_insert():
    table = make_table()
    table.insert((1, 185.0, -0.5))
    assert len(table.spatial_entries()) == 1
    table.insert((2, 10.0, 0.0))
    assert len(table.spatial_entries()) == 2


def test_spatial_requires_position_columns():
    schema = TableSchema("t", [Column("a", ColumnType.INT)])
    with pytest.raises(SchemaError):
        Table(schema, spatial=SpatialSpec("ra", "dec"))


def test_null_position_rejected():
    schema = TableSchema(
        "t",
        [
            Column("ra", ColumnType.FLOAT),
            Column("dec", ColumnType.FLOAT),
        ],
    )
    table = Table(schema, spatial=SpatialSpec("ra", "dec"))
    with pytest.raises(SchemaError):
        table.insert((None, 0.0))


def test_truncate():
    table = make_table()
    table.insert((1, 185.0, -0.5))
    table.truncate()
    assert len(table) == 0
    assert table.spatial_entries() == []


def test_insert_many():
    table = make_table()
    assert table.insert_many([(i, 10.0, 10.0) for i in range(5)]) == 5
    assert len(table) == 5


def test_bad_page_size():
    schema = TableSchema("t", [Column("a", ColumnType.INT)])
    with pytest.raises(SchemaError):
        Table(schema, page_size=0)


def test_insert_many_equals_repeated_insert():
    bulk, loop = make_table(), make_table()
    rows = [(i, 185.0 + i * 0.01, -0.5 + i * 0.005) for i in range(20)]
    inserted = bulk.insert_many(rows)
    for row in rows:
        loop.insert(row)
    assert inserted == 20
    assert [bulk.row(i) for i in range(20)] == [loop.row(i) for i in range(20)]
    assert bulk.spatial_entries() == loop.spatial_entries()


def test_insert_many_bad_row_leaves_table_unchanged():
    table = make_table()
    table.insert((1, 185.0, -0.5))
    with pytest.raises(SchemaError):
        table.insert_many([(2, 186.0, 0.5), (3, None, 0.5)])
    assert len(table) == 1
    assert table.spatial_entries() == [(table.htm_id(0), 0)]


def test_insert_many_defers_derived_invalidation():
    """The bulk path is measurably cheaper: one derived-structure
    invalidation per batch instead of one per row, and spatial column
    lookups resolved at construction, not per insert."""
    bulk, loop = make_table(), make_table()
    rows = [(i, 185.0 + i * 0.001, -0.5) for i in range(50)]
    counters = {}
    for name, table in (("bulk", bulk), ("loop", loop)):
        count = 0
        original = table._invalidate_derived

        def counting(original=original):
            nonlocal count
            count += 1
            original()

        table._invalidate_derived = counting
        if name == "bulk":
            table.insert_many(rows)
        else:
            for row in rows:
                table.insert(row)
        counters[name] = count
    assert counters["bulk"] == 1
    assert counters["loop"] == len(rows)


def test_spatial_column_indexes_cached_at_construction():
    table = make_table()
    calls = []
    original = table.schema.column_index
    table.schema.column_index = lambda name: (calls.append(name), original(name))[1]
    table.insert_many([(i, 185.0, -0.5) for i in range(30)])
    for i in range(30, 40):
        table.insert((i, 185.0, -0.5))
    assert calls == []  # resolved once in __init__, never per insert


def test_position_matrix_matches_scalar_conversion():
    import numpy as np

    from repro.sphere.coords import radec_to_vector

    table = make_table()
    rows = [(i, 185.0 + i * 0.01, -0.5 + i * 0.003) for i in range(8)]
    table.insert_many(rows)
    matrix = table.position_matrix()
    assert matrix.shape == (8, 3) and matrix.dtype == np.float64
    for i, (_, ra, dec) in enumerate(rows):
        assert tuple(matrix[i]) == radec_to_vector(ra, dec)  # bitwise
        assert table.position_of(i) == radec_to_vector(ra, dec)


def test_columnar_caches_invalidated_on_insert_and_truncate():
    table = make_table()
    table.insert((1, 185.0, -0.5))
    matrix = table.position_matrix()
    ids, positions = table.spatial_arrays()
    # Cached until the next mutation.
    assert table.position_matrix() is matrix
    assert table.spatial_arrays()[0] is ids
    table.insert((2, 186.0, 0.5))
    assert table.position_matrix() is not matrix
    assert table.position_matrix().shape == (2, 3)
    assert len(table.spatial_arrays()[0]) == 2
    table.truncate()
    assert table.position_matrix().shape == (0, 3)
    assert len(table.spatial_arrays()[0]) == 0
    assert len(table) == 0


def test_spatial_arrays_match_entries():
    import numpy as np

    table = make_table()
    table.insert_many([(i, 180.0 + i * 1.5, (-1) ** i * 20.0) for i in range(12)])
    ids, positions = table.spatial_arrays()
    assert ids.dtype == np.int64 and positions.dtype == np.int64
    assert list(zip(ids.tolist(), positions.tolist())) == table.spatial_entries()


def test_columnar_accessors_require_spatial():
    table = make_table(spatial=False)
    table.insert((1, 185.0, -0.5))
    with pytest.raises(SchemaError):
        table.position_matrix()
    with pytest.raises(SchemaError):
        table.spatial_arrays()
    with pytest.raises(SchemaError):
        table.position_of(0)


def test_int_column_cached_until_the_next_insert():
    """The seed hop's storage lookup reads an integer column as one int64
    array, built once and rebuilt only after a mutation."""
    import numpy as np

    table = make_table(spatial=False)
    table.insert_many([(i * 3, 185.0, -0.5) for i in range(5)])
    ids = table.int_column("object_id")
    assert ids.dtype == np.int64 and ids.tolist() == [0, 3, 6, 9, 12]
    assert table.int_column("object_id") is ids
    table.insert((15, 185.0, -0.5))
    assert table.int_column("object_id").tolist() == [0, 3, 6, 9, 12, 15]
    table.truncate()
    assert table.int_column("object_id").tolist() == []
