"""Spatial range scans over the two table indexes: HTM and zones.

The HTM half implements the paper's range-search recipe (Section 5.4):
compute the trixels entirely inside the region and the trixels that merely
intersect it; rows in the former need no geometric test, rows in the
latter are tested individually.

The zone half (:func:`zone_probe` / :func:`batch_zone_probe`) is the
successor papers' replacement: the cap becomes a declination window over a
few adjacent zones plus an RA interval per zone, each resolving to a
``searchsorted`` slice of the table's sorted ``(zone, ra)`` arrays. Zone
windows return a *superset* of the cap — callers always re-filter with an
exact geometric test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.db.table import Table
from repro.htm.batch import batch_cap_covers
from repro.htm.cover import cover
from repro.sphere.regions import Cap, Region
from repro.sphere.vector import Vec3
from repro.zone.index import cap_windows, unit_vectors_to_radec


@dataclass
class RangeScanStats:
    """What a spatial scan touched (fed into the engine's cost counters)."""

    candidate_rows: int = 0
    exact_rows: int = 0
    tested_rows: int = 0
    full_ranges: int = 0
    partial_ranges: int = 0


@dataclass
class SpatialCandidates:
    """Result of a spatial index probe: row positions plus testing needs.

    ``exact`` rows are inside the region for sure (from fully-covered
    trixels); ``candidates`` rows need an individual geometric test (from
    partially-covered trixels). Both are int64 arrays in index order:
    cover range by cover range, each range's rows by (htm_id, position).
    """

    exact: np.ndarray
    candidates: np.ndarray
    stats: RangeScanStats = field(default_factory=RangeScanStats)


def spatial_probe(
    table: Table, region: Region, *, limit: Optional[int] = None
) -> SpatialCandidates:
    """Probe a table's HTM entries with a region cover.

    ``limit`` is an epoch visibility watermark: row positions at or past
    it are invisible to the probing snapshot and are skipped. Storage is
    append-only, so the sorted HTM entries stay valid for every epoch —
    filtering by position is exact.
    """
    if table.spatial is None:
        raise ValueError(f"table {table.name!r} is not spatially indexed")
    reg_cover = cover(region, table.spatial.htm_depth)
    full, partial = reg_cover.full, reg_cover.partial
    rows, lengths = _rows_in_ranges(
        table, np.concatenate((full.bounds(), partial.bounds()))
    )
    split = int(lengths[: len(full)].sum())
    exact, candidates = rows[:split], rows[split:]
    if limit is not None:
        exact = exact[exact < limit]
        candidates = candidates[candidates < limit]
    stats = RangeScanStats(
        candidate_rows=len(exact) + len(candidates),
        exact_rows=len(exact),
        tested_rows=len(candidates),
        full_ranges=len(full),
        partial_ranges=len(partial),
    )
    return SpatialCandidates(exact, candidates, stats)


def batch_spatial_probe(
    table: Table, regions: Sequence[Region], *, limit: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Probe a table's HTM entries with many region covers at once.

    Returns flat ``(region index, row position)`` pairs sorted by region,
    then row: every row of each region's cover ranges, full and partial
    alike, epoch-filtered by ``limit`` — a superset hint that callers
    re-filter with an exact test, like :func:`batch_zone_probe`'s. Cap
    covers are computed level-synchronously for the whole batch (see
    :func:`repro.htm.batch.batch_cap_covers`) and every range of every
    cover becomes one slice of :meth:`Table.spatial_arrays`, found by one
    ``searchsorted`` per bound for the whole batch.
    """
    if table.spatial is None:
        raise ValueError(f"table {table.name!r} is not spatially indexed")
    depth = table.spatial.htm_depth
    if all(type(region) is Cap for region in regions):
        covers = batch_cap_covers(list(regions), depth)
    else:
        covers = [cover(region, depth) for region in regions]
    ranges: List[Tuple[int, int]] = []
    owners: List[int] = []
    for i, reg_cover in enumerate(covers):
        before = len(ranges)
        ranges.extend(reg_cover.full)
        ranges.extend(reg_cover.partial)
        owners.extend([i] * (len(ranges) - before))
    pair_i, lengths = _rows_in_ranges(table, ranges)
    pair_t = np.repeat(np.asarray(owners, dtype=np.int64), lengths)
    return _sorted_pairs(pair_t, pair_i, limit)


def _rows_in_ranges(
    table: Table, ranges: Union[np.ndarray, Sequence[Tuple[int, int]]]
) -> Tuple[np.ndarray, np.ndarray]:
    """Row positions of inclusive ``[lo, hi]`` trixel-id ranges, in order.

    ``ranges`` is an ``(n, 2)`` int64 bounds array (as
    :meth:`HTMRanges.bounds` gives) or a sequence of pairs. Returns the
    concatenated rows of every range (each range's rows as
    :meth:`Table.spatial_arrays` sorts them) and each range's row count.
    One ``searchsorted`` per bound serves every range.
    """
    htm_ids, row_positions = table.spatial_arrays()
    bounds = np.asarray(ranges, dtype=np.int64).reshape(-1, 2)
    starts = htm_ids.searchsorted(bounds[:, 0], side="left")
    lengths = htm_ids.searchsorted(bounds[:, 1], side="right") - starts
    ends = lengths.cumsum()
    gather = np.arange(int(ends[-1]) if len(ends) else 0) + (
        starts - ends + lengths
    ).repeat(lengths)
    return row_positions[gather], lengths


def _sorted_pairs(
    pair_t: np.ndarray, pair_i: np.ndarray, limit: Optional[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Epoch-filter ``(tuple, row)`` pairs and sort them by tuple, then row.

    One sort of the int64 key ``tuple * span + row`` (``span`` exceeds
    every row position) orders the pairs exactly as a two-key lexsort.
    """
    if limit is not None:
        keep = pair_i < limit
        pair_t = pair_t[keep]
        pair_i = pair_i[keep]
    if not len(pair_i):
        return pair_t, pair_i
    span = int(pair_i.max()) + 1
    return np.divmod(np.sort(pair_t.astype(np.int64) * span + pair_i), span)


def batch_zone_probe(
    table: Table,
    centers: np.ndarray,
    radii_rad: np.ndarray,
    *,
    zone_height_deg: Optional[float] = None,
    limit: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Zone-window row candidates for a batch of caps, as flat pairs.

    ``centers`` is an ``(m, 3)`` unit-vector matrix, ``radii_rad`` the
    per-cap search radii. Returns ``(cap index, row position)`` pairs
    sorted by cap, then row: the rows whose zone/RA bucket intersects the
    cap's dec/RA window — a superset of the cap itself, epoch-filtered by
    ``limit`` exactly like :func:`batch_spatial_probe`. Callers apply the
    exact geometric test.
    """
    if table.spatial is None:
        raise ValueError(f"table {table.name!r} is not spatially indexed")
    if zone_height_deg is None:
        za = table.zone_arrays()
    else:
        za = table.zone_arrays(zone_height_deg)
    ra_c, dec_c = unit_vectors_to_radec(centers)
    dec_lo, dec_hi, halfwidth = cap_windows(ra_c, dec_c, radii_rad)
    pair_t, pair_i = za.window_pairs(dec_lo, dec_hi, ra_c, halfwidth)
    return _sorted_pairs(pair_t, pair_i, limit)


def zone_probe(
    table: Table,
    center: Vec3,
    radius_rad: float,
    *,
    zone_height_deg: Optional[float] = None,
    limit: Optional[int] = None,
) -> List[int]:
    """Single-cap :func:`batch_zone_probe`: ascending row positions."""
    centers = np.asarray([center], dtype=np.float64)
    radii = np.asarray([radius_rad], dtype=np.float64)
    _, rows = batch_zone_probe(
        table, centers, radii, zone_height_deg=zone_height_deg, limit=limit
    )
    return rows.tolist()
