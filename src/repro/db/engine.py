"""The per-archive database engine: DDL, DML, single-table SELECT execution.

Deliberately scoped to what a SkyNode needs (the paper's wrappers push only
single-archive queries into each DBMS): CREATE/DROP (temp) tables, inserts,
SELECT with WHERE (including an AREA spatial conjunct), COUNT(*), LIMIT, and
stored procedures. Multi-archive semantics (XMATCH) live above the engine in
:mod:`repro.xmatch` / :mod:`repro.portal`, exactly as in the paper where the
cross match is a stored procedure plus service logic, not a DBMS feature.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.db.aggregates import (
    collect_aggregates,
    group_rows,
    is_aggregate_query,
    is_count_star,
)
from repro.db.buffer import BufferPool
from repro.db.expr import compile_predicate, compile_row
from repro.db.finish import finish, output_columns
from repro.db.indexes import spatial_probe
from repro.db.schema import CoercedColumns, Column, TableSchema
from repro.db.table import SpatialSpec, Table
from repro.errors import QueryError, SchemaError, StaleEpochError
from repro.sphere.regions import Region
from repro.sql.area import is_area, region_for
from repro.sql.ast import (
    AreaLike,
    ColumnRef,
    Expr,
    Query,
    Star,
    XMatchClause,
    and_together,
    conjuncts,
)
from repro.sql.parser import parse_query

#: Named constants available to every archive (``O.type = GALAXY``).
ASTRO_CONSTANTS: Dict[str, Any] = {
    "GALAXY": "GALAXY",
    "STAR": "STAR",
    "QSO": "QSO",
    "UNKNOWN": "UNKNOWN",
}


@dataclass
class QueryStats:
    """Cost counters for one executed query."""

    rows_examined: int = 0
    rows_returned: int = 0
    logical_reads: int = 0
    physical_reads: int = 0
    used_spatial_index: bool = False
    rows_tested_geometrically: int = 0
    #: Scan output rows that came from fully covered trixels (no geometric
    #: test). An HTM scan emits those first, so in an unordered result
    #: they are the leading rows.
    rows_from_full_ranges: int = 0


@dataclass
class ResultSet:
    """Columns + rows + per-query cost stats."""

    columns: List[str]
    rows: List[Tuple[Any, ...]]
    stats: QueryStats = field(default_factory=QueryStats)

    def __len__(self) -> int:
        return len(self.rows)

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Rows as dictionaries keyed by column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def scalar(self) -> Any:
        """The single value of a one-row, one-column result (e.g. COUNT(*))."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise QueryError(
                f"scalar() needs a 1x1 result, got "
                f"{len(self.rows)}x{len(self.columns)}"
            )
        return self.rows[0][0]


_NO_ROWS = np.empty(0, dtype=np.int64)


def row_columns(table: Table, alias: str) -> List[ColumnRef]:
    """The names of a stored row's slots, for :mod:`repro.db.expr`: each
    column bare and under the query's alias."""
    return [ColumnRef(alias, column.name) for column in table.schema.columns]


ProcedureFn = Callable[..., Any]


class Database:
    """One autonomous archive's DBMS."""

    def __init__(
        self,
        name: str,
        *,
        dialect: str = "ansi",
        page_size: int = 64,
        buffer_pages: int = 1024,
        constants: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.dialect = dialect
        self.page_size = page_size
        self.buffer = BufferPool(buffer_pages)
        self.constants = dict(ASTRO_CONSTANTS)
        if constants:
            self.constants.update(constants)
        self._tables: Dict[str, Table] = {}
        self._procedures: Dict[str, ProcedureFn] = {}
        self._temp_counter = itertools.count(1)
        #: Snapshot bookkeeping: seed data belongs to epoch 0; every live
        #: ingest commit advances ``committed_epoch`` by one, and epoch GC
        #: raises ``oldest_epoch`` (the oldest still-pinnable snapshot).
        self.committed_epoch = 0
        self.oldest_epoch = 0

    # -- DDL -----------------------------------------------------------------

    def create_table(
        self,
        name: str,
        columns: Sequence[Column],
        *,
        spatial: Optional[SpatialSpec] = None,
        temporary: bool = False,
    ) -> Table:
        """Create a table; raises :class:`SchemaError` if it already exists."""
        key = name.lower()
        if key in self._tables:
            raise SchemaError(f"table {name!r} already exists in {self.name!r}")
        table = Table(
            TableSchema(name, columns),
            page_size=self.page_size,
            spatial=spatial,
            temporary=temporary,
        )
        self._tables[key] = table
        return table

    def create_temp_table(
        self,
        prefix: str,
        columns: Sequence[Column],
        *,
        spatial: Optional[SpatialSpec] = None,
    ) -> Table:
        """Create a uniquely named temporary table (paper Section 5.3)."""
        name = f"{prefix}_tmp{next(self._temp_counter)}"
        return self.create_table(name, columns, spatial=spatial, temporary=True)

    def drop_table(self, name: str) -> None:
        """Drop a table and evict its buffered pages."""
        key = name.lower()
        if key not in self._tables:
            raise SchemaError(f"table {name!r} does not exist in {self.name!r}")
        del self._tables[key]
        self.buffer.invalidate_table(name)

    def has_table(self, name: str) -> bool:
        """True if the table exists."""
        return name.lower() in self._tables

    def table(self, name: str) -> Table:
        """Look up a table, raising :class:`SchemaError` if missing."""
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise SchemaError(
                f"table {name!r} does not exist in {self.name!r}"
            ) from None

    def table_names(self) -> List[str]:
        """Names of all (non-temporary) tables."""
        return [t.name for t in self._tables.values() if not t.temporary]

    # -- DML -----------------------------------------------------------------

    def insert(
        self,
        table_name: str,
        rows: Iterable[Sequence[Any]],
        names: Optional[Sequence[str]] = None,
    ) -> int:
        """Insert positional rows into a table; returns the count inserted.

        ``names`` are the columns the rows' values are in (default: the
        table's own order; see :meth:`TableSchema.coerce_columns`).
        Routed through the table's bulk path: one deferred spatial-index
        rebuild per statement instead of one invalidation per row.
        """
        table = self.table(table_name)
        return table.insert_many(list(rows), names)

    # -- snapshot epochs -------------------------------------------------------

    def resolve_epoch(self, epoch: Optional[int]) -> Optional[int]:
        """Validate a pinned epoch against this archive's snapshot window.

        ``None`` (unversioned: read everything) passes through. Otherwise
        the epoch must be committed here (a replica lagging behind an
        in-doubt 2PC decision cannot serve the future) and not yet
        garbage-collected.
        """
        if epoch is None:
            return None
        if epoch > self.committed_epoch:
            raise StaleEpochError(
                f"epoch {epoch} is not committed at {self.name!r} "
                f"(committed: {self.committed_epoch})"
            )
        if epoch < self.oldest_epoch:
            raise StaleEpochError(
                f"epoch {epoch} was garbage-collected at {self.name!r} "
                f"(oldest pinnable: {self.oldest_epoch})"
            )
        return epoch

    def apply_epoch(
        self,
        staged: Sequence[Tuple[str, CoercedColumns | Sequence[Sequence[Any]]]],
    ) -> int:
        """Apply staged ingest batches as one new epoch; returns its number.

        Every batch is coerced against its table schema *before* any table
        is touched (a batch :meth:`TableSchema.coerce_columns` already
        coerced — a 2PC participant's prepared state — is taken as it is),
        so a bad row leaves the whole database at the old epoch. Then each
        affected table is stamped with the new epoch first and filled
        second: readers pinned at or below the old epoch
        keep their exact row prefix while the new rows become visible only
        from the new epoch onward.
        """
        new_epoch = self.committed_epoch + 1
        coerced: List[Tuple[Table, CoercedColumns]] = []
        for table_name, rows in staged:
            table = self.table(table_name)
            if not isinstance(rows, CoercedColumns):
                rows = table.schema.coerce_columns(rows)
            coerced.append((table, rows))
        stamped = set()
        for table, rows in coerced:
            if table.name not in stamped:
                table.stamp_epoch(new_epoch)
                stamped.add(table.name)
            table.insert_many(rows)
        self.committed_epoch = new_epoch
        return new_epoch

    def gc_epochs(self, keep: int) -> int:
        """Garbage-collect snapshots, keeping the newest ``keep`` epochs.

        Raises the pinnable floor to ``committed_epoch - keep`` (never
        below zero, never backwards) and drops each table's unpinnable
        watermarks. Returns the new oldest pinnable epoch.
        """
        if keep < 0:
            raise QueryError(f"gc_epochs needs keep >= 0, got {keep}")
        floor = max(0, self.committed_epoch - keep)
        if floor > self.oldest_epoch:
            self.oldest_epoch = floor
            for table in self._tables.values():
                table.drop_epochs_before(floor)
        return self.oldest_epoch

    # -- query execution -------------------------------------------------------

    def execute(
        self, query: Query | str, *, epoch: Optional[int] = None
    ) -> ResultSet:
        """Execute a single-table SELECT (text or AST).

        ``epoch`` pins the read to a committed snapshot: only rows visible
        at that epoch are scanned, matched, and returned. ``None`` reads
        the live table (everything), preserving pre-ingest behaviour.
        """
        if isinstance(query, str):
            query = parse_query(query)
        if len(query.tables) != 1:
            raise QueryError(
                "the archive engine executes single-table queries; "
                "multi-archive joins are the federation's job"
            )
        epoch = self.resolve_epoch(epoch)
        table_ref = query.tables[0]
        table = self.table(table_ref.table)
        alias = table_ref.effective_alias

        area, residual = self._split_where(query.where)
        region = self._region_for(area, table) if area is not None else None

        stats = QueryStats()
        before = (self.buffer.stats.logical_reads, self.buffer.stats.physical_reads)

        if is_aggregate_query(query):
            columns, rows = self._execute_grouped(
                query, table, alias, region, residual, stats, epoch=epoch
            )
        else:
            columns = output_columns(query.items, table.schema.column_names)
            can_stop_early = not query.order_by and not query.distinct
            positions = self._scan(
                table, alias, region, residual, stats, epoch,
                stop_after=query.limit if can_stop_early else None,
            )
            slots = row_columns(table, alias)
            select = [  # ``*`` is every stored column
                expr
                for item in query.items
                for expr in (
                    slots if isinstance(item.expr, Star) else (item.expr,)
                )
            ]
            project = compile_row(select, slots, self.constants)
            sources = table.rows_at(positions.tolist())
            rows = finish(
                query, list(map(project, sources)), sources, slots,
                self.constants,
            )

        stats.rows_returned = len(rows)
        stats.logical_reads = self.buffer.stats.logical_reads - before[0]
        stats.physical_reads = self.buffer.stats.physical_reads - before[1]
        return ResultSet(columns=columns, rows=rows, stats=stats)

    def _execute_grouped(
        self,
        query: Query,
        table: Table,
        alias: str,
        region: Optional[Region],
        residual: Optional[Expr],
        stats: QueryStats,
        *,
        epoch: Optional[int] = None,
    ) -> Tuple[List[str], List[Tuple[Any, ...]]]:
        """The aggregate / GROUP BY / HAVING execution path.

        A query whose aggregates are all ``COUNT(*)`` with no GROUP BY —
        the Planner's count probes — needs nothing from a row but its
        existence, so its one group row is the scan's length.
        """
        from repro.sql.printer import to_sql

        aggregates = collect_aggregates(query)
        positions = self._scan(table, alias, region, residual, stats, epoch)
        if not query.group_by and all(map(is_count_star, aggregates)):
            groups = [(len(positions),) * len(aggregates)]
        else:
            groups = group_rows(
                query, aggregates, table.rows_at(positions.tolist()),
                row_columns(table, alias), self.constants,
            )
        slots = (*query.group_by, *aggregates)
        if query.having is not None:
            having = compile_predicate(query.having, slots, self.constants)
            groups = [group for group in groups if having(group)]

        columns: List[str] = []
        for item in query.items:
            if isinstance(item.expr, Star):
                raise QueryError("SELECT * is not valid in a grouped query")
            if item.alias:
                columns.append(item.alias)
            elif isinstance(item.expr, ColumnRef):
                columns.append(str(item.expr))
            elif len(query.items) == 1 and is_count_star(item.expr):
                columns.append("count")
            else:
                columns.append(to_sql(item.expr))

        project = compile_row(
            [item.expr for item in query.items], slots, self.constants
        )
        rows = finish(
            query, list(map(project, groups)), groups, slots, self.constants
        )
        return columns, rows

    def count_rows(
        self, table_name: str, *, epoch: Optional[int] = None
    ) -> int:
        """Row count without touching the buffer pool (catalog metadata)."""
        return self.table(table_name).visible_count(self.resolve_epoch(epoch))

    # -- stored procedures -----------------------------------------------------

    def register_procedure(self, name: str, fn: ProcedureFn) -> None:
        """Register a stored procedure (callable taking this db first)."""
        key = name.lower()
        if key in self._procedures:
            raise SchemaError(f"procedure {name!r} already registered")
        self._procedures[key] = fn

    def drop_procedure(self, name: str) -> None:
        """Remove a stored procedure, so another body can take its name."""
        if self._procedures.pop(name.lower(), None) is None:
            raise QueryError(f"unknown procedure {name!r}")

    def call_procedure(self, name: str, **params: Any) -> Any:
        """Invoke a stored procedure by name."""
        try:
            fn = self._procedures[name.lower()]
        except KeyError:
            raise QueryError(f"unknown procedure {name!r}") from None
        return fn(self, **params)

    def has_procedure(self, name: str) -> bool:
        """True if a stored procedure with this name is registered."""
        return name.lower() in self._procedures

    # -- internals ---------------------------------------------------------------

    @staticmethod
    def _split_where(
        where: Optional[Expr],
    ) -> Tuple[Optional[AreaLike], Optional[Expr]]:
        """Separate the AREA conjunct from the rest of the WHERE tree."""
        area: Optional[AreaLike] = None
        rest: List[Expr] = []
        for conjunct in conjuncts(where):
            if is_area(conjunct):
                if area is not None:
                    raise QueryError("multiple AREA clauses")
                area = conjunct
            elif isinstance(conjunct, XMatchClause):
                raise QueryError(
                    "XMATCH reached the archive engine; the Portal should "
                    "have decomposed it"
                )
            else:
                rest.append(conjunct)
        return area, and_together(tuple(rest))

    @staticmethod
    def _region_for(area: AreaLike, table: Table) -> Region:
        if table.spatial is None:
            raise QueryError(
                f"AREA clause on table {table.name!r} which has no "
                "spatial columns"
            )
        return region_for(area)

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
        """Row positions passing the spatial and residual predicates.

        The scan visits rows in one fixed order — an HTM scan's exact rows
        (fully covered trixels) then its candidates (partially covered
        ones), a full scan the visible prefix — and charges the buffer
        pool one touch per visited row, in that order, run-collapsed.
        With ``stop_after`` it stops at the row that makes that many
        matches, as a LIMIT does; ``stop_after=0`` visits nothing. The
        geometric test is one :meth:`Region.contains_many` over the
        tested rows' stored unit vectors; the residual stays per row.
        With an ``epoch`` pinned, rows past its visibility watermark are
        excluded from both paths.
        """
        visible = table.visible_count(epoch)
        n_exact = 0
        tested: Optional[np.ndarray] = None
        # ``_region_for`` refuses an AREA on a table with no SpatialSpec,
        # so a region always has the HTM index to probe.
        stats.used_spatial_index = region is not None
        if stop_after == 0:
            return _NO_ROWS
        if region is not None:
            probe = spatial_probe(
                table, region, limit=None if epoch is None else visible
            )
            n_exact = len(probe.exact)
            order = np.concatenate((probe.exact, probe.candidates))
            tested = region.contains_many(
                table.position_matrix()[probe.candidates]
            )
            hits = np.concatenate(
                (np.arange(n_exact), n_exact + np.flatnonzero(tested))
            )
        else:
            order = hits = np.arange(visible)
        visited = len(order)
        try:
            if residual is not None:
                passes = compile_predicate(
                    residual, row_columns(table, alias), self.constants
                )
                row = table.row
                kept: List[int] = []
                for index, pos in zip(hits.tolist(), order[hits].tolist()):
                    visited = index + 1  # a row that raises was visited
                    if passes(row(pos)):
                        kept.append(index)
                        if stop_after is not None and len(kept) >= stop_after:
                            break
                else:
                    visited = len(order)
                hits = np.asarray(kept, dtype=np.int64)
            elif stop_after is not None and len(hits) >= stop_after:
                hits = hits[:stop_after]
                visited = int(hits[-1]) + 1
        finally:
            self.buffer.access_pages(
                table.name, order[:visited] // table.page_size
            )
            stats.rows_examined += visited
            if tested is not None:
                stats.rows_tested_geometrically += max(0, visited - n_exact)
        stats.rows_from_full_ranges += int(np.count_nonzero(hits < n_exact))
        return order[hits]
