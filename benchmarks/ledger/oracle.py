"""Brute-force ground truth for the ledger's queries.

Re-answers a query from the node tables read in-process: positions are
recomputed from the stored ra/dec columns with numpy (not taken from the
program's cached matrices), every archive is filtered by the AREA circle,
and the N-way join is a blocked all-pairs chi-squared

    chi2 = 2 * (a - |avec|),  a = sum 1/sigma_i^2,  avec = sum x_i/sigma_i^2

(paper Section 5.4) accepted at ``chi2 <= threshold^2``. Chi-squared only
grows as observations are added, so pruning partial tuples at the threshold
is exact. Epochs are honoured: a query pinned at epoch ``e`` sees the row
prefix ``Table.visible_count(e)`` of each table.

The subtraction cancels ~11 digits (see ``repro.xmatch.chi2``), so tuples
within ``CHI2_BAND`` of the threshold, and objects within ``AREA_BAND`` of
the circle's edge, are *undecided*: the program may return them or not. The
check is ``sure <= returned <= sure + undecided``.

None of the five workloads issues a drop-out (``!A``) query, so the oracle
does not model one.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from workloads import ALIAS

CHI2_BAND = 0.02
AREA_BAND = 1e-12
#: Candidate pre-filter around a tuple's best position. Any object that can
#: keep chi2 under 3.5^2 lies within a few arcseconds (sigmas are <= 1");
#: 60" is a wide superset and keeps the all-pairs blocks sparse.
PREFILTER_ARCSEC = 60.0
BLOCK = 512
ARCSEC = np.pi / (180.0 * 3600.0)


def _unit_vectors(ra_deg: np.ndarray, dec_deg: np.ndarray) -> np.ndarray:
    ra, dec = np.radians(np.mod(ra_deg, 360.0)), np.radians(dec_deg)
    cos_dec = np.cos(dec)
    return np.stack([cos_dec * np.cos(ra), cos_dec * np.sin(ra), np.sin(dec)], axis=1)


def _archive_objects(fed, archive: str, epoch, center: np.ndarray, cos_radius: float):
    """(ids, positions, surely-inside flags) of one archive inside the AREA."""
    node = fed.nodes[archive]
    info = node.info
    table = node.db.table(info.primary_table)
    schema = table.schema
    columns = [
        schema.column_index(name)
        for name in (info.object_id_column, info.ra_column, info.dec_column)
    ]
    visible = table.visible_count(epoch)
    data = np.array(
        [[table.row(pos)[c] for c in columns] for pos in range(visible)],
        dtype=np.float64,
    ).reshape(visible, 3)
    positions = _unit_vectors(data[:, 1], data[:, 2])
    dots = positions @ center
    inside = dots >= cos_radius - AREA_BAND
    sure = dots >= cos_radius + AREA_BAND
    weight = 1.0 / (info.sigma_arcsec * ARCSEC) ** 2
    return data[inside, 0].astype(np.int64), positions[inside], sure[inside], weight


def answer(fed, spec, epochs: Dict[str, int], threshold: float):
    """``(sure, undecided)`` multisets of object-id tuples for one query."""
    center = _unit_vectors(np.array([spec.ra]), np.array([spec.dec]))[0]
    cos_radius = float(np.cos(spec.radius * ARCSEC))
    limit = threshold * threshold
    cos_prefilter = float(np.cos(PREFILTER_ARCSEC * ARCSEC))

    ids, positions, sure, weight = _archive_objects(
        fed, spec.archives[0], epochs.get(ALIAS[spec.archives[0]]), center, cos_radius
    )
    members = ids.reshape(-1, 1)
    a = np.full(len(ids), weight)
    avec = positions * weight
    chi2 = np.zeros(len(ids))
    for archive in spec.archives[1:]:
        ids, positions, sure_here, weight = _archive_objects(
            fed, archive, epochs.get(ALIAS[archive]), center, cos_radius
        )
        parts = []
        # max(.., 1): an empty tuple set still yields one (empty) block
        for start in range(0, max(len(a), 1), BLOCK):
            stop = start + BLOCK
            best = avec[start:stop] / np.linalg.norm(avec[start:stop], axis=1, keepdims=True)
            ti, ci = np.nonzero(best @ positions.T >= cos_prefilter)
            ti += start
            new_a = a[ti] + weight
            new_avec = avec[ti] + positions[ci] * weight
            new_chi2 = 2.0 * (new_a - np.linalg.norm(new_avec, axis=1))
            keep = new_chi2 <= limit + CHI2_BAND
            parts.append((ti[keep], ci[keep], new_a[keep], new_avec[keep], new_chi2[keep]))
        ti, ci, a, avec, chi2 = (np.concatenate(column) for column in zip(*parts))
        members = np.column_stack([members[ti], ids[ci]])
        sure = sure[ti] & sure_here[ci]
    sure &= chi2 <= limit - CHI2_BAND
    tuples = [tuple(int(v) for v in row) for row in members]
    return (
        Counter(t for t, s in zip(tuples, sure) if s),
        Counter(t for t, s in zip(tuples, sure) if not s),
    )


def pinnable(fed, record) -> bool:
    """True while every epoch the query was pinned at is still retained."""
    archive_of = {alias: archive for archive, alias in ALIAS.items()}
    return all(
        epoch >= fed.nodes[archive_of[alias]].db.oldest_epoch
        for alias, epoch in record.epochs.items()
    )


def choose_samples(records: Sequence[Any], limit: int = 16) -> List[Any]:
    """At most ``limit`` records, spread evenly over the window and split
    evenly between the kinds present; one per distinct (SQL, epochs)."""
    distinct: Dict[Tuple, Any] = {}
    for record in records:
        distinct[(record.spec.sql, tuple(sorted(record.epochs.items())))] = record
    by_kind: Dict[str, List[Any]] = {}
    for record in distinct.values():
        by_kind.setdefault(record.kind, []).append(record)
    chosen: List[Any] = []
    share = max(1, limit // max(len(by_kind), 1))
    for group in by_kind.values():
        step = max(1, len(group) // share)
        chosen.extend(group[::-1][::step][:share])
    return chosen


def check(fed, records: Sequence[Any], threshold: float) -> Tuple[int, int, List[str]]:
    """Oracle-check a sample and the repeat-consistency of the whole window.

    Returns ``(checked, mismatched, notes)``. A repeated (SQL, epochs) pair
    that did not return identical rows every time is a mismatch too: that
    is what catches a cache serving a wrong answer.
    """
    notes: List[str] = []
    mismatched = 0
    first_rows: Dict[Tuple, List[tuple]] = {}
    for record in records:
        key = (record.spec.sql, tuple(sorted(record.epochs.items())))
        seen = first_rows.setdefault(key, record.rows)
        if seen is not record.rows and Counter(seen) != Counter(record.rows):
            mismatched += 1
            notes.append(f"repeat differs: {record.spec.sql[:60]}...")
    samples = choose_samples([r for r in records if pinnable(fed, r)])
    for record in samples:
        sure, undecided = answer(fed, record.spec, record.epochs, threshold)
        got = Counter(
            tuple(int(row[col]) for col in record.spec.id_cols) for row in record.rows
        )
        missing = sure - got
        extra = got - sure - undecided
        if missing or extra:
            mismatched += 1
            notes.append(
                f"oracle: {len(missing)} missing, {len(extra)} extra of "
                f"{sum(got.values())} rows: {record.spec.sql[:60]}..."
            )
    return len(samples), mismatched, notes[:8]
