"""The archive engine's row-at-a-time scan, kept as a testing oracle.

:class:`ReferenceDatabase` is a :class:`repro.db.engine.Database` whose
scan is the loop the set-at-a-time ``Database._scan`` replaced: walk the
sorted ``(htm_id, row)`` entries range by range with ``bisect``, touch the
buffer pool once per visited row, test each partial-range candidate with
the scalar ``Region.contains`` on a unit vector computed from the row's
own ra/dec, evaluate the residual per row with the reference evaluator
(``tests.expr_reference``: a ``RowContext`` bound per row), and stop at
the row that makes a LIMIT's worth of matches.

Two declared fixes ride in both the engine and this oracle: ``LIMIT 0``
visits no row (the old loop read one before it checked the limit), and
``rows_tested_geometrically`` counts the candidates actually tested (the
old loop reported every candidate, even past an early stop).
"""

from __future__ import annotations

import bisect
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.db.engine import Database, QueryStats
from repro.db.table import Table
from repro.htm.cover import cover
from repro.sphere.coords import radec_to_vector
from repro.sphere.regions import Region
from repro.sql.ast import Expr
from tests.expr_reference import evaluate, is_true, row_context


def rows_in_id_range(
    entries: List[Tuple[int, int]], lo: int, hi: int
) -> Iterator[int]:
    """Row positions whose htm_id falls in the inclusive [lo, hi] range.

    The bisect is seeded with the 1-tuple ``(lo,)``, which compares below
    every ``(lo, pos)`` pair whatever ``pos`` is.
    """
    start = bisect.bisect_left(entries, (lo,))
    for i in range(start, len(entries)):
        hid, pos = entries[i]
        if hid > hi:
            break
        yield pos


def reference_probe(
    table: Table, region: Region, limit: Optional[int]
) -> Tuple[List[int], List[int]]:
    """``(exact, candidates)`` row lists of an HTM probe, by list walk."""
    reg_cover = cover(region, table.spatial.htm_depth)
    entries = table.spatial_entries()
    exact = [
        pos
        for lo, hi in reg_cover.full
        for pos in rows_in_id_range(entries, lo, hi)
        if limit is None or pos < limit
    ]
    candidates = [
        pos
        for lo, hi in reg_cover.partial
        for pos in rows_in_id_range(entries, lo, hi)
        if limit is None or pos < limit
    ]
    return exact, candidates


class ReferenceDatabase(Database):
    """A database whose scan runs one row at a time."""

    def _scan(
        self,
        table: Table,
        alias: str,
        region: Optional[Region],
        residual: Optional[Expr],
        stats: QueryStats,
        epoch: Optional[int],
        *,
        stop_after: Optional[int] = None,
    ) -> np.ndarray:
        stats.used_spatial_index = region is not None
        out: List[int] = []
        if stop_after != 0:
            rows = self._matching_positions(
                table, alias, region, residual, stats, epoch
            )
            for pos in rows:
                out.append(pos)
                if stop_after is not None and len(out) >= stop_after:
                    break
            rows.close()
        return np.asarray(out, dtype=np.int64)

    def _matching_positions(
        self,
        table: Table,
        alias: str,
        region: Optional[Region],
        residual: Optional[Expr],
        stats: QueryStats,
        epoch: Optional[int],
    ) -> Iterator[int]:
        limit = None if epoch is None else table.visible_count(epoch)
        if stats.used_spatial_index:
            exact, candidates = reference_probe(table, region, limit)
            for pos in exact:
                self._touch(table, pos, stats)
                if self._residual_ok(table, alias, pos, residual):
                    stats.rows_from_full_ranges += 1
                    yield pos
            for pos in candidates:
                self._touch(table, pos, stats)
                stats.rows_tested_geometrically += 1
                if not region.contains(self._vector(table, pos)):
                    continue
                if self._residual_ok(table, alias, pos, residual):
                    yield pos
            return
        for pos in table.iter_positions(epoch):
            self._touch(table, pos, stats)
            if self._residual_ok(table, alias, pos, residual):
                yield pos

    @staticmethod
    def _vector(table: Table, pos: int):
        spec = table.spatial
        row = table.row(pos)
        return radec_to_vector(
            row[table.schema.column_index(spec.ra_column)],
            row[table.schema.column_index(spec.dec_column)],
        )

    def _touch(self, table: Table, pos: int, stats: QueryStats) -> None:
        self.buffer.access(table.name, table.page_of(pos))
        stats.rows_examined += 1

    def _residual_ok(
        self, table: Table, alias: str, pos: int, residual: Optional[Expr]
    ) -> bool:
        if residual is None:
            return True
        ctx = row_context(table, alias, table.row(pos), self.constants)
        return is_true(evaluate(residual, ctx))
