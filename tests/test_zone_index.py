"""The declination-zone index: zone arithmetic, windows, and table probes."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.indexes import batch_zone_probe, spatial_probe, zone_probe
from repro.db.schema import Column
from repro.db.table import SpatialSpec, Table, TableSchema
from repro.db.types import ColumnType
from repro.errors import GeometryError, SchemaError
from repro.sphere.coords import radec_to_vector, vector_to_radec
from repro.sphere.random import random_in_cap
from repro.sphere.regions import Cap
from repro.units import arcsec_to_rad
from repro.zone.index import (
    DEFAULT_ZONE_HEIGHT_DEG,
    ZoneArrays,
    cap_windows,
    unit_vectors_to_radec,
    zone_count,
    zone_of,
)
from tests.zone_reference import window_pairs_reference


# ---------------------------------------------------------------- zone math


def test_zone_count_default_height():
    # 30 arcsec stripes: 180 deg / (30/3600) deg = 21600 zones exactly.
    assert zone_count(DEFAULT_ZONE_HEIGHT_DEG) == 21600


def test_zone_count_rejects_nonpositive_height():
    with pytest.raises(GeometryError):
        zone_count(0.0)
    with pytest.raises(GeometryError):
        zone_count(-1.0)


def test_zone_of_poles_are_clamped_into_valid_zones():
    n = zone_count(DEFAULT_ZONE_HEIGHT_DEG)
    assert zone_of(-90.0) == 0
    # dec exactly +90 computes to zone n, clamped into the last stripe.
    assert zone_of(90.0) == n - 1


def test_zone_of_is_floor_of_shifted_dec():
    h = 1.0  # one-degree zones keep the arithmetic easy to eyeball
    assert zone_of(-90.0, h) == 0
    assert zone_of(-89.5, h) == 0
    assert zone_of(-89.0, h) == 1
    assert zone_of(0.0, h) == 90
    assert zone_of(89.9, h) == 179


def test_unit_vectors_to_radec_round_trip():
    points = [(0.0, 0.0), (359.9, 10.0), (180.0, -45.0), (90.0, 89.9)]
    matrix = np.asarray([radec_to_vector(ra, dec) for ra, dec in points])
    ra, dec = unit_vectors_to_radec(matrix)
    for i, (ra_true, dec_true) in enumerate(points):
        assert ra[i] == pytest.approx(ra_true, abs=1e-9)
        assert dec[i] == pytest.approx(dec_true, abs=1e-9)
    assert np.all((ra >= 0.0) & (ra < 360.0))


# ------------------------------------------------------------- cap windows


def test_cap_windows_are_supersets_of_their_caps():
    """Every point of each cap falls inside the cap's dec/RA window."""
    rng = random.Random(11)
    caps = [
        (185.0, -0.5, arcsec_to_rad(600.0)),
        (0.05, 0.0, arcsec_to_rad(900.0)),  # wraps through RA 0/360
        (100.0, 89.9, arcsec_to_rad(1200.0)),  # near the pole
        (200.0, -89.95, arcsec_to_rad(600.0)),
        (10.0, 40.0, math.radians(120.0)),  # radius beyond pi/2
    ]
    ra_c = np.asarray([c[0] for c in caps])
    dec_c = np.asarray([c[1] for c in caps])
    radii = np.asarray([c[2] for c in caps])
    dec_lo, dec_hi, halfwidth = cap_windows(ra_c, dec_c, radii)
    for i, (ra0, dec0, radius) in enumerate(caps):
        center = radec_to_vector(ra0, dec0)
        for _ in range(300):
            ra, dec = vector_to_radec(random_in_cap(rng, center, radius))
            assert dec_lo[i] <= dec <= dec_hi[i]
            delta = abs((ra - ra0 + 180.0) % 360.0 - 180.0)
            assert delta <= halfwidth[i]


def test_cap_windows_polar_fallback_spans_all_longitudes():
    _, _, halfwidth = cap_windows(
        np.asarray([10.0]), np.asarray([89.99]), np.asarray([math.radians(0.1)])
    )
    assert halfwidth[0] == 180.0


def test_cap_windows_equatorial_halfwidth_is_tight():
    radius = math.radians(1.0)
    _, _, halfwidth = cap_windows(
        np.asarray([50.0]), np.asarray([0.0]), np.asarray([radius])
    )
    assert halfwidth[0] == pytest.approx(1.0, abs=1e-5)
    assert halfwidth[0] >= 1.0  # padded outward, never inward


# --------------------------------------------------------------- ZoneArrays


def random_radec(rng, n):
    ra = [rng.uniform(0.0, 360.0) for _ in range(n)]
    dec = [math.degrees(math.asin(rng.uniform(-1.0, 1.0))) for _ in range(n)]
    return np.asarray(ra), np.asarray(dec)


def test_build_sorts_by_zone_then_ra():
    rng = random.Random(5)
    ra, dec = random_radec(rng, 500)
    za = ZoneArrays.build(ra, dec)
    assert len(za) == 500
    assert np.all(np.diff(za.zones) >= 0)
    same_zone = np.diff(za.zones) == 0
    assert np.all(np.diff(za.ra)[same_zone] >= 0)
    assert np.all(np.diff(za.keys) >= 0)
    # order is a permutation mapping sorted slots back to original rows.
    assert sorted(za.order.tolist()) == list(range(500))
    np.testing.assert_array_equal(za.ra, np.mod(ra, 360.0)[za.order])


def test_build_rejects_mismatched_arrays():
    with pytest.raises(GeometryError):
        ZoneArrays.build(np.zeros(3), np.zeros(4))


def test_window_pairs_matches_brute_force():
    """Window membership agrees with a per-point scan, wrap included."""
    rng = random.Random(7)
    ra, dec = random_radec(rng, 400)
    za = ZoneArrays.build(ra, dec, 1.0)
    windows = [
        (10.0, 14.0, 200.0, 5.0),
        (-2.0, 2.0, 359.5, 2.0),  # wraps below 0
        (-2.0, 2.0, 0.3, 2.0),  # wraps above 360
        (88.0, 95.0, 50.0, 180.0),  # full-circle scan near the pole
    ]
    dec_lo = np.asarray([w[0] for w in windows])
    dec_hi = np.asarray([w[1] for w in windows])
    ra_c = np.asarray([w[2] for w in windows])
    half = np.asarray([w[3] for w in windows])
    pair_t, pair_i = za.window_pairs(dec_lo, dec_hi, ra_c, half)
    got = {(int(t), int(i)) for t, i in zip(pair_t, pair_i)}
    assert len(got) == pair_t.size  # no duplicate pairs
    expected = set()
    for w, (lo, hi, rc, hw) in enumerate(windows):
        zlo, zhi = zone_of(lo, 1.0), zone_of(hi, 1.0)
        for i in range(400):
            if not (zlo <= zone_of(dec[i], 1.0) <= zhi):
                continue
            delta = abs((ra[i] - rc + 180.0) % 360.0 - 180.0)
            if delta <= hw or hw >= 180.0:
                expected.add((w, i))
    assert got == expected


_WINDOW = st.tuples(
    st.floats(-95.0, 95.0),  # window center dec (past a pole: polar)
    st.floats(0.0, 12.0),  # dec half-height
    # RA centers hug 0/360 so the intervals wrap both ways.
    st.one_of(st.floats(0.0, 360.0), st.floats(-3.0, 3.0).map(lambda r: r % 360.0)),
    # Half-widths reach past 180: whole-zone scans.
    st.one_of(st.floats(0.0, 8.0), st.floats(170.0, 200.0)),
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(0, 300),
    height=st.sampled_from([0.5, 2.0, 7.0]),
    windows=st.lists(_WINDOW, max_size=12),
)
def test_window_pairs_equal_the_zone_offset_loop(seed, n, height, windows):
    """The flattened probe returns exactly the pairs of the loop over zone
    offsets it replaced, on wrapped, polar and whole-zone windows."""
    rng = random.Random(seed)
    ra = np.asarray([rng.uniform(0.0, 360.0) for _ in range(n)])
    dec = np.asarray([rng.uniform(-90.0, 90.0) for _ in range(n)])
    za = ZoneArrays.build(ra, dec, height)
    dec_c, half_height, ra_c, half = (
        np.asarray(column, dtype=np.float64) for column in zip(*windows)
    ) if windows else (np.empty(0),) * 4
    args = (dec_c - half_height, dec_c + half_height, ra_c, half)
    got = sorted(zip(*(part.tolist() for part in za.window_pairs(*args))))
    expected = sorted(
        zip(*(part.tolist() for part in window_pairs_reference(za, *args)))
    )
    assert got == expected


def test_window_pairs_empty_inputs():
    za = ZoneArrays.build(np.asarray([10.0]), np.asarray([0.0]))
    pair_t, pair_i = za.window_pairs(
        np.empty(0), np.empty(0), np.empty(0), np.empty(0)
    )
    assert pair_t.size == 0 and pair_i.size == 0
    empty = ZoneArrays.build(np.empty(0), np.empty(0))
    pair_t, pair_i = empty.window_pairs(
        np.asarray([-1.0]), np.asarray([1.0]), np.asarray([0.0]), np.asarray([5.0])
    )
    assert pair_t.size == 0 and pair_i.size == 0


# ------------------------------------------------------------- table probes


def make_table(n=400, seed=3, center=(185.0, -0.5), spread_arcsec=4000.0):
    schema = TableSchema(
        "objects",
        [
            Column("object_id", ColumnType.INT, nullable=False),
            Column("ra", ColumnType.FLOAT, nullable=False),
            Column("dec", ColumnType.FLOAT, nullable=False),
        ],
    )
    table = Table(schema, spatial=SpatialSpec("ra", "dec", htm_depth=10))
    rng = random.Random(seed)
    c = radec_to_vector(*center)
    rows = []
    for i in range(n):
        ra, dec = vector_to_radec(
            random_in_cap(rng, c, arcsec_to_rad(spread_arcsec))
        )
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


def test_zone_probe_is_superset_of_cap():
    table = make_table()
    for center, radius in [
        ((185.0, -0.5), 1200.0),
        ((185.3, -0.4), 300.0),
    ]:
        cap = Cap.from_radec(center[0], center[1], radius)
        rows = zone_probe(table, cap.center, cap.radius_rad)
        assert brute_force(table, cap) <= set(rows)
        assert rows == sorted(rows)


def test_zone_probe_agrees_with_htm_probe_after_exact_filter():
    """Both indexes admit supersets; the exact-filtered sets are equal."""
    table = make_table(n=600, seed=9)
    cap = Cap.from_radec(185.0, -0.5, 900.0)
    zone_rows = zone_probe(table, cap.center, cap.radius_rad)
    probe = spatial_probe(table, cap)
    htm_rows = probe.exact.tolist() + probe.candidates.tolist()

    def exact(rows):
        keep = []
        for pos in rows:
            row = table.row(pos)
            if cap.contains(radec_to_vector(row[1], row[2])):
                keep.append(pos)
        return sorted(keep)

    assert exact(zone_rows) == exact(htm_rows)


def test_zone_probe_wrap_and_polar_fields():
    for center in [(0.01, 0.0), (359.99, 10.0), (100.0, 89.97), (40.0, -89.97)]:
        table = make_table(n=200, seed=13, center=center)
        cap = Cap.from_radec(center[0], center[1], 2000.0)
        rows = zone_probe(table, cap.center, cap.radius_rad)
        assert brute_force(table, cap) <= set(rows)


def test_zone_probe_limit_filters_epochs():
    table = make_table(n=100)
    cap = Cap.from_radec(185.0, -0.5, 4000.0)
    all_rows = zone_probe(table, cap.center, cap.radius_rad)
    limited = zone_probe(table, cap.center, cap.radius_rad, limit=50)
    assert limited == [pos for pos in all_rows if pos < 50]


def test_batch_zone_probe_matches_single_probes():
    table = make_table(n=300, seed=21)
    caps = [
        Cap.from_radec(185.0, -0.5, 600.0),
        Cap.from_radec(185.4, -0.2, 300.0),
        Cap.from_radec(20.0, 50.0, 60.0),  # nowhere near the data
    ]
    centers = np.asarray([c.center for c in caps])
    radii = np.asarray([c.radius_rad for c in caps])
    pair_t, pair_i = batch_zone_probe(table, centers, radii)
    assert np.all(np.diff(pair_t) >= 0)  # flat pairs, sorted by cap
    for i, cap in enumerate(caps):
        rows = pair_i[pair_t == i]
        assert rows.tolist() == zone_probe(table, cap.center, cap.radius_rad)
    assert not np.any(pair_t == 2)


def test_zone_probe_requires_spatial_table():
    schema = TableSchema("t", [Column("a", ColumnType.INT)])
    table = Table(schema)
    with pytest.raises(ValueError):
        zone_probe(table, radec_to_vector(0.0, 0.0), 0.01)


def test_table_zone_arrays_cached_and_invalidated():
    table = make_table(n=50)
    za1 = table.zone_arrays()
    assert za1 is table.zone_arrays()  # cached per height
    za_coarse = table.zone_arrays(1.0)
    assert za_coarse is not za1
    assert za_coarse is table.zone_arrays(1.0)
    table.insert((999, 12.0, 34.0))
    za2 = table.zone_arrays()
    assert za2 is not za1  # insert invalidates the cache...
    assert len(za2) == 51  # ...and the rebuild sees the new row


def test_table_zone_arrays_requires_spatial_column():
    schema = TableSchema("t", [Column("a", ColumnType.INT)])
    table = Table(schema)
    with pytest.raises(SchemaError):
        table.zone_arrays()
