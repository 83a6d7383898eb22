"""Row storage with paging and an optional HTM spatial column."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.db.schema import CoercedColumns, TableSchema
from repro.errors import SchemaError
from repro.htm.index import ids_for_points
from repro.sphere.coords import radec_to_vector
from repro.units import normalize_ra_deg
from repro.zone.index import DEFAULT_ZONE_HEIGHT_DEG, ZoneArrays


_NO_IDS = np.empty(0, dtype=np.int64)
_NO_VECTORS = np.empty((0, 3), dtype=np.float64)


@dataclass(frozen=True)
class SpatialSpec:
    """Declares which columns carry a position and at what HTM depth to index.

    The column names are per-archive (``ra``/``dec`` at one node,
    ``right_ascension``/``declination`` at another) — heterogeneity the
    SkyNode wrapper hides from the Portal.
    """

    ra_column: str
    dec_column: str
    htm_depth: int = 12


class Table:
    """One table: typed rows stored in fixed-size pages.

    If a :class:`SpatialSpec` is attached, every row gets a precomputed
    unit vector and HTM trixel id, computed for a whole insert batch at
    once and held as numpy arrays. :meth:`position_matrix` is the ``(n, 3)``
    float64 unit-vector matrix and :meth:`spatial_arrays` the (htm_id, row)
    entries sorted for the spatial index, as parallel arrays; the sorted
    entries are built lazily and invalidated on insert/truncate.

    Versioned snapshots: storage is append-only, so an *epoch* is just a
    visible row-count watermark. ``_epoch_marks`` holds ``[epoch, count]``
    pairs in ascending epoch order; a query pinned at epoch ``e`` sees the
    row prefix of the newest mark whose epoch is ``<= e``. Plain inserts
    extend the latest mark (rows become visible at the current epoch —
    the pre-ingest behaviour); the live-ingest commit path calls
    :meth:`stamp_epoch` first so the new rows are visible only from the
    freshly committed epoch onward. Since row values never change and
    visibility is a prefix, every derived structure (sorted HTM entries,
    columnar arrays, the position matrix) stays valid for pinned reads —
    readers just ignore row positions at or past their watermark.
    """

    def __init__(
        self,
        schema: TableSchema,
        *,
        page_size: int = 64,
        spatial: Optional[SpatialSpec] = None,
        temporary: bool = False,
    ) -> None:
        if page_size < 1:
            raise SchemaError(f"page_size must be >= 1, got {page_size}")
        self.schema = schema
        self.page_size = page_size
        self.spatial = spatial
        self.temporary = temporary
        # Spatial column positions are resolved once here, not per insert.
        if spatial is not None:
            self._ra_idx: Optional[int] = schema.column_index(spatial.ra_column)
            self._dec_idx: Optional[int] = schema.column_index(spatial.dec_column)
        else:
            self._ra_idx = None
            self._dec_idx = None
        self._rows: List[List[Any]] = []
        #: Per-row trixel ids and unit vectors (spatial tables only).
        self._htm_ids = _NO_IDS
        self._vectors = _NO_VECTORS
        #: Epoch visibility watermarks: [epoch, visible_count], ascending.
        self._epoch_marks: List[List[int]] = [[0, 0]]
        self._spatial_arrays: Optional[Tuple[np.ndarray, np.ndarray]] = None
        #: Zone index caches keyed by zone height (degrees); built lazily
        #: like the HTM companions, invalidated together with them.
        self._zone_arrays: Dict[float, ZoneArrays] = {}
        #: int64 column arrays keyed by column name, same lifetime.
        self._int_columns: Dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def name(self) -> str:
        """The table name (from its schema)."""
        return self.schema.name

    @property
    def page_count(self) -> int:
        """Number of pages currently occupied."""
        return (len(self._rows) + self.page_size - 1) // self.page_size

    def page_of(self, row_pos: int) -> int:
        """Page number holding a row position."""
        return row_pos // self.page_size

    def _unit_vectors(self, batch: CoercedColumns) -> np.ndarray:
        """The ``(n, 3)`` unit vectors of a coerced batch's positions.

        Row by row with the scalar :func:`radec_to_vector`, so every
        vector is bitwise the one a per-row reader computes; a NULL
        position or an out-of-range declination raises in row order.
        """
        vectors = np.empty((batch.count, 3), dtype=np.float64)
        for i, (ra, dec) in enumerate(
            zip(batch.columns[self._ra_idx], batch.columns[self._dec_idx])
        ):
            if ra is None or dec is None:
                raise SchemaError(
                    f"spatial table {self.name!r} requires non-NULL "
                    f"{self.spatial.ra_column}/{self.spatial.dec_column}"
                )
            vectors[i] = radec_to_vector(ra, dec)
        return vectors

    def _invalidate_derived(self) -> None:
        self._spatial_arrays = None
        self._zone_arrays.clear()
        self._int_columns.clear()

    def insert(self, row: Dict[str, Any] | Sequence[Any]) -> int:
        """Insert one row (mapping or positional); returns its row position."""
        pos = len(self._rows)
        self.insert_many([row])
        return pos

    def insert_many(
        self, rows: CoercedColumns | Sequence[Dict[str, Any] | Sequence[Any]]
    ) -> int:
        """Bulk insert; returns the number inserted.

        Rows are coerced a column at a time (a batch already coerced by
        :meth:`TableSchema.coerce_columns` is taken as it is), and a
        spatial table computes the whole batch's unit vectors and trixel
        ids before it stores anything, so a bad row leaves the table
        untouched. The derived spatial structures are invalidated once.
        """
        if not isinstance(rows, CoercedColumns):
            rows = self.schema.coerce_columns(rows)
        if self.spatial is not None and rows.count:
            vectors = self._unit_vectors(rows)
            ids = ids_for_points(vectors, self.spatial.htm_depth)
            self._vectors = np.concatenate((self._vectors, vectors))
            self._htm_ids = np.concatenate((self._htm_ids, ids))
        if rows.count:
            self._invalidate_derived()
        self._rows.extend(rows.rows())
        self._epoch_marks[-1][1] = len(self._rows)
        return rows.count

    # -- epoch visibility --------------------------------------------------------

    @property
    def latest_epoch(self) -> int:
        """The newest epoch this table has a visibility mark for."""
        return self._epoch_marks[-1][0]

    def stamp_epoch(self, epoch: int) -> None:
        """Freeze visibility: rows inserted after this call are visible
        only from ``epoch`` onward (earlier epochs keep the current count).
        """
        last = self._epoch_marks[-1]
        if epoch < last[0]:
            raise SchemaError(
                f"cannot stamp epoch {epoch} on table {self.name!r}; "
                f"already at epoch {last[0]}"
            )
        if epoch == last[0]:
            last[1] = len(self._rows)
        else:
            self._epoch_marks.append([epoch, len(self._rows)])

    def visible_count(self, epoch: Optional[int]) -> int:
        """Rows visible at an epoch (``None`` = everything, unversioned)."""
        if epoch is None:
            return len(self._rows)
        for mark_epoch, count in reversed(self._epoch_marks):
            if mark_epoch <= epoch:
                return count
        return 0

    def drop_epochs_before(self, oldest: int) -> None:
        """Forget watermarks older than ``oldest`` (epoch GC).

        The newest mark at or before ``oldest`` is retained so reads
        pinned exactly at the floor still resolve; everything earlier is
        unpinnable and its memory is released.
        """
        keep_from = 0
        for i, (mark_epoch, _) in enumerate(self._epoch_marks):
            if mark_epoch <= oldest:
                keep_from = i
        if keep_from:
            self._epoch_marks = self._epoch_marks[keep_from:]

    def row(self, row_pos: int) -> List[Any]:
        """The raw row values at a position."""
        return self._rows[row_pos]

    def htm_id(self, row_pos: int) -> int:
        """The precomputed HTM id of a row (spatial tables only)."""
        if self.spatial is None:
            raise SchemaError(f"table {self.name!r} has no spatial column")
        return int(self._htm_ids[row_pos])

    def rows_at(self, positions: Sequence[int]) -> List[List[Any]]:
        """The raw rows at many positions, in the order given."""
        return list(map(self._rows.__getitem__, positions))

    def iter_positions(self, epoch: Optional[int] = None) -> Iterator[int]:
        """Row positions in storage order (a full scan).

        With ``epoch`` given, only positions visible at that epoch — the
        stored prefix up to its watermark.
        """
        return iter(range(self.visible_count(epoch)))

    def spatial_entries(self) -> List[Tuple[int, int]]:
        """Sorted (htm_id, row_pos) pairs: :meth:`spatial_arrays` as a list."""
        htm_ids, row_positions = self.spatial_arrays()
        return list(zip(htm_ids.tolist(), row_positions.tolist()))

    def spatial_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The spatial index: parallel int64 ``(htm_ids, row_positions)``.

        Sorted by trixel id, ties in row-position order (one stable
        ``argsort``), so the pairs ascend exactly as the sorted
        ``(htm_id, row_pos)`` tuples do and a ``searchsorted`` slice
        visits one id range's rows in position order. Built lazily,
        invalidated on insert/truncate.
        """
        if self.spatial is None:
            raise SchemaError(f"table {self.name!r} has no spatial column")
        if self._spatial_arrays is None:
            order = np.argsort(self._htm_ids, kind="stable").astype(np.int64)
            self._spatial_arrays = (self._htm_ids[order], order)
        return self._spatial_arrays

    def int_column(self, name: str) -> np.ndarray:
        """Every stored row's value of an integer column, as int64.

        Built with one pass over the rows on first use and cached until
        the next insert/truncate, like the spatial and zone arrays.
        """
        cached = self._int_columns.get(name)
        if cached is None:
            column = self.schema.column_index(name)
            cached = np.fromiter(
                (row[column] for row in self._rows), dtype=np.int64, count=len(self._rows)
            )
            self._int_columns[name] = cached
        return cached

    def position_matrix(self) -> np.ndarray:
        """The ``(n, 3)`` float64 unit-vector position of every row.

        Row ``i`` of the matrix is exactly ``radec_to_vector(ra, dec)`` of
        row position ``i`` — the same floats the scalar path computes per
        candidate — so vectorized and scalar evaluations agree bitwise.
        """
        if self.spatial is None:
            raise SchemaError(f"table {self.name!r} has no spatial column")
        return self._vectors

    def zone_arrays(
        self, zone_height_deg: float = DEFAULT_ZONE_HEIGHT_DEG
    ) -> ZoneArrays:
        """The zone index over every stored row, sorted by ``(zone, ra)``.

        Zone ids come from the raw spatial-column values (RA normalized to
        [0, 360)); ``order`` maps back to row positions. Storage is
        append-only, so — like :meth:`spatial_arrays` — one build stays
        valid for every epoch: readers filter positions against their
        visibility watermark. Cached per zone height, invalidated on
        insert/truncate alongside the HTM companions.
        """
        if self.spatial is None:
            raise SchemaError(f"table {self.name!r} has no spatial column")
        cached = self._zone_arrays.get(zone_height_deg)
        if cached is None:
            ra = np.asarray(
                [normalize_ra_deg(row[self._ra_idx]) for row in self._rows],
                dtype=np.float64,
            )
            dec = np.asarray(
                [row[self._dec_idx] for row in self._rows], dtype=np.float64
            )
            cached = ZoneArrays.build(ra, dec, zone_height_deg)
            self._zone_arrays[zone_height_deg] = cached
        return cached

    def position_of(self, row_pos: int) -> Tuple[float, float, float]:
        """The precomputed unit vector of a row (spatial tables only)."""
        if self.spatial is None:
            raise SchemaError(f"table {self.name!r} has no spatial column")
        x, y, z = self.position_matrix()[row_pos].tolist()
        return (x, y, z)

    def truncate(self) -> None:
        """Delete all rows."""
        self._rows.clear()
        self._htm_ids = _NO_IDS
        self._vectors = _NO_VECTORS
        self._epoch_marks = [[self._epoch_marks[-1][0], 0]]
        self._invalidate_derived()

