"""Spatial index probes."""

import random

import pytest

from repro.db.indexes import spatial_probe
from repro.db.schema import Column
from repro.db.table import SpatialSpec, Table, TableSchema
from repro.db.types import ColumnType
from repro.sphere.coords import radec_to_vector, vector_to_radec
from repro.sphere.distance import angular_separation
from repro.sphere.random import random_in_cap
from repro.sphere.regions import Cap
from repro.units import arcsec_to_rad


def make_table(n=400, depth=10, seed=3):
    schema = TableSchema(
        "objects",
        [
            Column("object_id", ColumnType.INT, nullable=False),
            Column("ra", ColumnType.FLOAT, nullable=False),
            Column("dec", ColumnType.FLOAT, nullable=False),
        ],
    )
    table = Table(schema, spatial=SpatialSpec("ra", "dec", htm_depth=depth))
    rng = random.Random(seed)
    center = radec_to_vector(185.0, -0.5)
    rows = []
    for i in range(n):
        ra, dec = vector_to_radec(random_in_cap(rng, center, 0.02))
        rows.append((i, ra, dec))
    table.insert_many(rows)
    return table


def brute_force(table, cap):
    hits = set()
    for pos in table.iter_positions():
        row = table.row(pos)
        if cap.contains(radec_to_vector(row[1], row[2])):
            hits.add(pos)
    return hits


def test_probe_exact_rows_truly_inside():
    table = make_table()
    cap = Cap.from_radec(185.0, -0.5, 1200.0)
    probe = spatial_probe(table, cap)
    for pos in probe.exact:
        row = table.row(pos)
        assert cap.contains(radec_to_vector(row[1], row[2]))


def test_probe_covers_all_matches():
    table = make_table()
    cap = Cap.from_radec(185.0, -0.5, 1200.0)
    probe = spatial_probe(table, cap)
    candidates = set(probe.exact.tolist()) | set(probe.candidates.tolist())
    assert brute_force(table, cap) <= candidates


def test_probe_prunes_most_rows():
    table = make_table(n=1000)
    cap = Cap.from_radec(185.0, -0.5, 120.0)
    probe = spatial_probe(table, cap)
    assert probe.stats.candidate_rows < 200


def test_probe_empty_region():
    table = make_table()
    cap = Cap.from_radec(20.0, 50.0, 60.0)  # nowhere near the data
    probe = spatial_probe(table, cap)
    assert probe.exact.size == 0 and probe.candidates.size == 0


def test_probe_requires_spatial_table():
    schema = TableSchema("t", [Column("a", ColumnType.INT)])
    table = Table(schema)
    with pytest.raises(ValueError):
        spatial_probe(table, Cap.from_radec(0.0, 0.0, 10.0))


def test_probe_stats_counts():
    table = make_table()
    cap = Cap.from_radec(185.0, -0.5, 600.0)
    probe = spatial_probe(table, cap)
    assert probe.stats.exact_rows == len(probe.exact)
    assert probe.stats.tested_rows == len(probe.candidates)
    assert probe.stats.candidate_rows == len(probe.exact) + len(probe.candidates)


def _probe_pairs(table, regions, limit=None):
    """The per-region spatial probes as flat (region, row) pairs."""
    pairs = []
    for i, region in enumerate(regions):
        probe = spatial_probe(table, region, limit=limit)
        rows = probe.exact.tolist() + probe.candidates.tolist()
        pairs.extend((i, pos) for pos in sorted(rows))
    return pairs


def test_batch_probe_equals_scalar_probe():
    from repro.db.indexes import batch_spatial_probe

    table = make_table(n=600, seed=5)
    rng = random.Random(9)
    center = radec_to_vector(185.0, -0.5)
    caps = [
        Cap(random_in_cap(rng, center, 0.02), arcsec_to_rad(rng.uniform(5.0, 900.0)))
        for _ in range(40)
    ]
    caps.append(Cap.from_radec(20.0, 50.0, 60.0))  # off-field: empty probe
    pair_t, pair_i = batch_spatial_probe(table, caps)
    assert list(zip(pair_t.tolist(), pair_i.tolist())) == _probe_pairs(table, caps)


def test_batch_probe_non_cap_regions_fall_back():
    from repro.db.indexes import batch_spatial_probe
    from repro.sphere.regions import ConvexPolygon

    table = make_table(n=200, seed=6)
    polygon = ConvexPolygon.from_radec(
        [(184.8, -0.7), (185.2, -0.7), (185.2, -0.3), (184.8, -0.3)]
    )
    cap = Cap.from_radec(185.0, -0.5, 600.0)
    regions = [polygon, cap]
    pair_t, pair_i = batch_spatial_probe(table, regions)
    assert list(zip(pair_t.tolist(), pair_i.tolist())) == _probe_pairs(
        table, regions
    )


def test_batch_probe_empty_table():
    from repro.db.indexes import batch_spatial_probe

    table = make_table(n=0)
    pair_t, pair_i = batch_spatial_probe(
        table, [Cap.from_radec(185.0, -0.5, 600.0)]
    )
    assert pair_t.size == 0 and pair_i.size == 0


class _Entries:
    """A stand-in table exposing only the sorted spatial arrays."""

    def __init__(self, entries):
        import numpy as np

        self._arrays = (
            np.asarray([e[0] for e in entries], dtype=np.int64),
            np.asarray([e[1] for e in entries], dtype=np.int64),
        )

    def spatial_arrays(self):
        return self._arrays


def test_rows_in_id_range_inclusive_bounds():
    """The range scanner honours the inclusive [lo, hi] contract, range by
    range, against a walk over the sorted (htm_id, row) entries."""
    from repro.db.indexes import _rows_in_ranges

    entries = [(5, 0), (5, 3), (7, 1), (9, 2), (12, 4)]
    table = _Entries(entries)
    cases = [
        (5, 5),    # hits the lowest id exactly, including position 0
        (5, 9),    # inclusive on both ends
        (6, 8),    # interior range with no exact endpoints
        (10, 11),  # empty gap between ids
        (12, 99),  # open-ended top
        (0, 4),    # everything below the table
    ]
    for lo, hi in cases:
        expected = [pos for hid, pos in entries if lo <= hid <= hi]
        rows, lengths = _rows_in_ranges(table, [(lo, hi)])
        assert rows.tolist() == expected
        assert lengths.tolist() == [len(expected)]
    rows, lengths = _rows_in_ranges(table, cases)
    assert rows.tolist() == [
        pos for lo, hi in cases for hid, pos in entries if lo <= hid <= hi
    ]
    assert lengths.tolist() == [
        sum(lo <= hid <= hi for hid, _ in entries) for lo, hi in cases
    ]


def test_array_rows_in_id_range_epoch_limit():
    import numpy as np
    from repro.db.indexes import _rows_in_ranges, _sorted_pairs

    rows, _ = _rows_in_ranges(_Entries([(5, 0), (5, 3), (7, 1)]), [(5, 7)])
    _, got = _sorted_pairs(np.zeros(len(rows), dtype=np.int64), rows, 2)
    assert got.tolist() == [0, 1]


def test_batch_probe_equals_scalar_probe_with_limit():
    """Epoch-limited scans agree between the single and batch scanners."""
    from repro.db.indexes import batch_spatial_probe

    table = make_table(n=300)
    cap = Cap.from_radec(185.0, -0.5, 1200.0)
    pair_t, pair_i = batch_spatial_probe(table, [cap], limit=150)
    assert list(zip(pair_t.tolist(), pair_i.tolist())) == _probe_pairs(
        table, [cap], limit=150
    )
    assert pair_i.size and all(pos < 150 for pos in pair_i.tolist())
