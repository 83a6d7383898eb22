"""The cross-match stored procedure.

Paper Section 5.3: "a stored procedure encoding the cross match algorithm
uses this temporary table and the primary table at this SkyNode to identify
matching objects... This procedure, in fact, computes an implicit spatial
join."

The procedure reads the incoming partial tuples from a temp table (seq +
cumulative values), range-searches the primary table around each tuple's
best position via a spatial index, applies the archive's local predicates
and the query's AREA clause to every candidate, runs the chi-squared test,
and returns — per incoming tuple — the candidates that keep the tuple
alive. All row touches go through the engine's buffer pool so processing
costs (and cache warming) are observable.

``engine`` picks the *spatial index* that narrows each tuple's search:
``htm`` (trixel cover ranges, the reference oracle) or ``zone``
(declination-zone sorted-merge windows).

Every SkyNode runs the one procedure with its default, ``zone``; no
node, Portal or federation setting picks another. ``sp_xmatch`` is always
the set-at-a-time numpy body. The per-tuple / per-candidate Python loop
it replaced stays here as :func:`sp_xmatch_reference` — the oracle that
tests and the E16/E20 experiments install over it through the engine's
own seam, ``db.register_procedure(PROCEDURE_NAME, sp_xmatch_reference)``.
The HTM arm is installed the same way, as a body pinned by
:func:`with_engine`.

Both bodies and both engines are interchangeable by construction:
whatever the index returns is only a superset hint — every body then keeps
exactly the rows inside the tuple's search cap (one cosine test per row
against the index-stored unit vectors, identical float64 operations
everywhere) and visits them in ascending row-position order. The examined
row set, the buffer-pool charges, the cost stats, and the matches — and
therefore the node stats and wire traffic of a federated query — are
byte-identical across engines and bodies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.db.engine import Database, row_columns
from repro.db.expr import compile_predicate
from repro.db.indexes import (
    batch_spatial_probe,
    batch_zone_probe,
    spatial_probe,
    zone_probe,
)
from repro.db.table import Table
from repro.errors import GeometryError, QueryError
from repro.sphere.coords import radec_to_vector
from repro.sphere.regions import Cap, Region
from repro.sql.ast import Expr
from repro.units import arcsec_to_rad
from repro.xmatch import kernel as xkernel
from repro.xmatch.chi2 import Accumulator
from repro.xmatch.kernel import _COS_SLACK
from repro.xmatch.tuples import LocalObject

PROCEDURE_NAME = "sp_xmatch"

MATCH_ENGINE_HTM = "htm"
MATCH_ENGINE_ZONE = "zone"
MATCH_ENGINES = (MATCH_ENGINE_HTM, MATCH_ENGINE_ZONE)


def _cap_bounds(radius: float) -> Tuple[float, float]:
    """The exact-filter cosine threshold and effective probe radius.

    ``cos_r`` is the broadcast kernel's boundary-slackened cosine of the
    search radius: a candidate row is *in the cap* iff its index-stored
    unit vector dots with the tuple's center at or above it. ``r_eff``
    (``acos`` of that threshold) is the radius whose ball contains every
    such row — the index is probed with it so no engine's superset can
    miss a row another engine would keep. Evaluated per tuple with the
    same scalar ``math`` calls in both bodies, so the admitted set is
    bitwise engine- and body-independent.
    """
    cos_r = math.cos(min(radius, math.pi)) - _COS_SLACK
    return cos_r, math.acos(max(-1.0, cos_r))


@dataclass
class XMatchProcStats:
    """Cost counters of one procedure invocation."""

    tuples_in: int = 0
    candidates_tested: int = 0
    rows_examined: int = 0
    matches_found: int = 0


@dataclass
class XMatchProcResult:
    """Matches per incoming tuple sequence number, plus cost stats."""

    matches: Dict[int, List[LocalObject]] = field(default_factory=dict)
    stats: XMatchProcStats = field(default_factory=XMatchProcStats)


def register_xmatch_procedure(db: Database) -> None:
    """Install ``sp_xmatch`` on an archive database."""
    db.register_procedure(PROCEDURE_NAME, sp_xmatch)


def _as_procedure(body):
    """Wrap a match body as a stored procedure (``db.call_procedure``)."""

    def procedure(
        db: Database,
        *,
        temp_table: str,
        primary_table: str,
        id_column: str,
        ra_column: str,
        dec_column: str,
        alias: str,
        sigma_arcsec: float,
        threshold: float,
        area: Optional[Region] = None,
        residual: Optional[Expr] = None,
        attr_columns: Sequence[str] = (),
        engine: str = MATCH_ENGINE_ZONE,
        epoch: Optional[int] = None,
    ) -> XMatchProcResult:
        """``engine`` picks the spatial index (``htm`` or ``zone``); results,
        stats, and buffer traffic are byte-identical either way. ``epoch``
        pins the primary-table scan to a committed snapshot: rows ingested
        after that epoch are invisible to the probe, so a chain that pinned
        its epochs at plan time matches against one consistent version even
        while live ingest commits the next.
        """
        if engine not in MATCH_ENGINES:
            raise QueryError(
                f"unknown match engine {engine!r}; expected one of "
                f"{MATCH_ENGINES}"
            )
        temp = db.table(temp_table)
        primary = db.table(primary_table)
        if primary.spatial is None:
            raise QueryError(
                f"primary table {primary_table!r} has no spatial index"
            )
        limit = (
            None if epoch is None
            else primary.visible_count(db.resolve_epoch(epoch))
        )
        return body(
            db,
            temp,
            primary,
            id_column=id_column,
            ra_column=ra_column,
            dec_column=dec_column,
            alias=alias,
            sigma_arcsec=sigma_arcsec,
            threshold=threshold,
            area=area,
            residual=residual,
            attr_columns=attr_columns,
            engine=engine,
            limit=limit,
        )

    return procedure


def _sp_xmatch_scalar(
    db: Database,
    temp: Table,
    primary: Table,
    *,
    id_column: str,
    ra_column: str,
    dec_column: str,
    alias: str,
    sigma_arcsec: float,
    threshold: float,
    area: Optional[Region],
    residual: Optional[Expr],
    attr_columns: Sequence[str],
    engine: str,
    limit: Optional[int] = None,
) -> XMatchProcResult:
    """The reference per-tuple/per-candidate loop (the testing oracle)."""
    sigma_rad = arcsec_to_rad(sigma_arcsec)
    threshold_sq = threshold * threshold

    seq_idx = temp.schema.column_index("seq")
    acc_idx = [temp.schema.column_index(c) for c in ("a", "ax", "ay", "az")]
    id_idx = primary.schema.column_index(id_column)
    ra_idx = primary.schema.column_index(ra_column)
    dec_idx = primary.schema.column_index(dec_column)
    attr_idx = [(name, primary.schema.column_index(name)) for name in attr_columns]
    residual_holds = (
        None if residual is None
        else compile_predicate(residual, row_columns(primary, alias), db.constants)
    )

    result = XMatchProcResult()
    # The temp table is read whole before the first probe, as the
    # set-at-a-time body reads it, so both leave one buffer-pool state.
    incoming = []
    for pos in temp.iter_positions():
        db.buffer.access(temp.name, temp.page_of(pos))
        incoming.append(temp.row(pos))
    for row in incoming:
        seq = row[seq_idx]
        acc = Accumulator(*(row[i] for i in acc_idx))
        result.stats.tuples_in += 1

        center = acc.best_position()
        radius = acc.search_radius(sigma_rad, threshold)
        cos_r, r_eff = _cap_bounds(radius)
        cx, cy, cz = center
        if engine == MATCH_ENGINE_ZONE:
            window_rows = zone_probe(primary, center, r_eff, limit=limit)
        else:
            probe = spatial_probe(primary, Cap(center, r_eff), limit=limit)
            window_rows = probe.exact.tolist() + probe.candidates.tolist()
        # The index window is only a superset hint; the examined set is
        # the rows inside the cap, visited in row-position order — the
        # engine-independent contract both bodies share.
        candidate_rows = []
        for window_pos in window_rows:
            px, py, pz = primary.position_of(window_pos)
            if px * cx + py * cy + pz * cz >= cos_r:
                candidate_rows.append(window_pos)
        candidate_rows.sort()
        matched: List[LocalObject] = []
        for candidate_pos in candidate_rows:
            db.buffer.access(primary.name, primary.page_of(candidate_pos))
            result.stats.rows_examined += 1
            crow = primary.row(candidate_pos)
            position = radec_to_vector(crow[ra_idx], crow[dec_idx])
            result.stats.candidates_tested += 1
            if area is not None and not area.contains(position):
                continue
            if residual_holds is not None and not residual_holds(crow):
                continue
            if acc.with_observation(position, sigma_rad).chi2() > threshold_sq:
                continue
            matched.append(
                LocalObject(
                    object_id=crow[id_idx],
                    position=position,
                    attributes={name: crow[i] for name, i in attr_idx},
                )
            )
        if matched:
            result.matches[seq] = matched
            result.stats.matches_found += len(matched)
    return result


def _primary_positions(
    primary: Table, ra_column: str, dec_column: str
) -> np.ndarray:
    """The primary table's columnar position matrix.

    Normally the cached :meth:`Table.position_matrix` (the procedure is
    called with the table's own spatial columns); if a caller names other
    position columns, fall back to materializing them row by row exactly
    as the scalar loop would read them.
    """
    spec = primary.spatial
    assert spec is not None
    if (
        ra_column.lower() == spec.ra_column.lower()
        and dec_column.lower() == spec.dec_column.lower()
    ):
        return primary.position_matrix()
    ra_idx = primary.schema.column_index(ra_column)
    dec_idx = primary.schema.column_index(dec_column)
    matrix = np.empty((len(primary), 3), dtype=np.float64)
    for pos in primary.iter_positions():
        row = primary.row(pos)
        matrix[pos] = radec_to_vector(row[ra_idx], row[dec_idx])
    return matrix


def _sp_xmatch_vectorized(
    db: Database,
    temp: Table,
    primary: Table,
    *,
    id_column: str,
    ra_column: str,
    dec_column: str,
    alias: str,
    sigma_arcsec: float,
    threshold: float,
    area: Optional[Region],
    residual: Optional[Expr],
    attr_columns: Sequence[str],
    engine: str,
    limit: Optional[int] = None,
) -> XMatchProcResult:
    """Set-at-a-time body: batched probes + one broadcasted chi-squared pass.

    Charges the same page touches in the same order as the scalar loop
    (every temp row, then one primary page per (tuple, candidate) pair),
    through :meth:`BufferPool.access_pages`, and produces identical
    matches and stats. The per-tuple and per-pair Python arithmetic is
    replaced by array passes over flat (tuple, row) pairs; what stays per
    row is the residual predicate (once per distinct candidate row) and
    building each match's :class:`LocalObject`.
    """
    sigma_rad = arcsec_to_rad(sigma_arcsec)
    threshold_sq = threshold * threshold

    seq_idx = temp.schema.column_index("seq")
    acc_idx = [temp.schema.column_index(c) for c in ("a", "ax", "ay", "az")]
    id_idx = primary.schema.column_index(id_column)
    attr_idx = [(name, primary.schema.column_index(name)) for name in attr_columns]

    result = XMatchProcResult()

    # Stage 1: read the incoming tuples into columnar accumulator arrays
    # (the scalar loop's temp-table charges: every row, in order).
    n_in = len(temp)
    db.buffer.access_pages(temp.name, np.arange(n_in) // temp.page_size)
    temp_rows = temp.rows_at(range(n_in))
    seqs = [row[seq_idx] for row in temp_rows]
    result.stats.tuples_in = n_in
    if not seqs:
        return result

    stacked = np.asarray(temp_rows, dtype=np.float64)[:, acc_idx]
    a = np.ascontiguousarray(stacked[:, 0])
    avec = np.ascontiguousarray(stacked[:, 1:])
    try:
        centers = xkernel.best_positions(a, avec)
    except GeometryError as exc:
        raise GeometryError(f"{exc} [temp table {temp.name!r}]") from exc
    radii = xkernel.search_radii(a, sigma_rad, threshold)
    # Per-tuple cap bounds via the same scalar math calls the reference
    # loop makes, so the admitted candidate sets agree bitwise.
    cos_r, r_eff = (
        np.asarray(column)
        for column in zip(*(_cap_bounds(r) for r in radii.tolist()))
    )

    # Stage 2: one batched index probe over every tuple's effective cap,
    # then one exact cosine filter over every (tuple, row) pair. The
    # pairs come sorted by (tuple, row) and stay so: the examined rows.
    if engine == MATCH_ENGINE_ZONE:
        pair_t, pair_i = batch_zone_probe(primary, centers, r_eff, limit=limit)
    else:
        caps = [
            Cap(tuple(center), radius)
            for center, radius in zip(centers.tolist(), r_eff.tolist())
        ]
        pair_t, pair_i = batch_spatial_probe(primary, caps, limit=limit)
    index_positions = primary.position_matrix()
    dots = (
        index_positions[pair_i, 0] * centers[pair_t, 0]
        + index_positions[pair_i, 1] * centers[pair_t, 1]
        + index_positions[pair_i, 2] * centers[pair_t, 2]
    )
    inside = dots >= cos_r[pair_t]
    pair_t = pair_t[inside]
    pair_i = pair_i[inside]

    # Stage 3: charge the scalar loop's per-pair buffer access and filter
    # on AREA/residual per *unique* candidate row (both predicates are
    # row-local, so one verdict serves every tuple that examined the row).
    db.buffer.access_pages(primary.name, pair_i // primary.page_size)
    result.stats.rows_examined = len(pair_i)
    result.stats.candidates_tested = len(pair_i)
    positions = _primary_positions(primary, ra_column, dec_column)
    rows, row_of_pair = np.unique(pair_i, return_inverse=True)
    verdict = (
        np.ones(len(rows), dtype=bool) if area is None
        else area.contains_many(positions[rows])
    )
    if residual is not None:
        residual_holds = compile_predicate(
            residual, row_columns(primary, alias), db.constants
        )
        for k in np.flatnonzero(verdict).tolist():
            verdict[k] = residual_holds(primary.row(int(rows[k])))
    passes = verdict[row_of_pair]
    ti = pair_t[passes]
    ri = pair_i[passes]
    if not len(ri):
        return result

    # Stage 4: the broadcasted chi-squared pass over all surviving pairs.
    _, _, chi2 = xkernel.extend_pairs(a[ti], avec[ti], positions[ri], sigma_rad)
    accepted = chi2 <= threshold_sq
    ri = ri[accepted]
    for i, row_pos, position in zip(
        ti[accepted].tolist(), ri.tolist(), positions[ri].tolist()
    ):
        crow = primary.row(row_pos)
        result.matches.setdefault(seqs[i], []).append(
            LocalObject(
                object_id=crow[id_idx],
                position=tuple(position),
                attributes={name: crow[j] for name, j in attr_idx},
            )
        )
    result.stats.matches_found = len(ri)
    return result


#: The production procedure body.
sp_xmatch = _as_procedure(_sp_xmatch_vectorized)

#: The scalar loop as an installable procedure — the testing oracle, never
#: a production option: ``db.register_procedure(PROCEDURE_NAME,
#: sp_xmatch_reference)`` swaps it in on one database.
sp_xmatch_reference = _as_procedure(_sp_xmatch_scalar)


def with_engine(procedure, engine: str):
    """``procedure`` with its spatial index pinned to ``engine``, whatever
    the caller passes. The HTM arm of a comparison is installed this way
    on a built federation's databases::

        db.drop_procedure(PROCEDURE_NAME)
        db.register_procedure(
            PROCEDURE_NAME, with_engine(sp_xmatch, MATCH_ENGINE_HTM)
        )
    """

    def pinned(db: Database, **params) -> XMatchProcResult:
        return procedure(db, **{**params, "engine": engine})

    return pinned
