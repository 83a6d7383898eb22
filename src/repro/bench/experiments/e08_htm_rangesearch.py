"""E8 — Sections 5.1/5.4: HTM range search vs full scan, plus depth ablation."""

from __future__ import annotations

import random
from typing import Sequence

from repro.bench.registry import Experiment
from repro.bench.reporting import ExperimentReport, best_of
from repro.units import arcsec_to_rad


def run(
    *, n_objects: int, radii: Sequence[float], depths: Sequence[int]
) -> ExperimentReport:
    """The HTM 'helps in reducing spatial processing' (Section 5.1)."""
    from repro.db.engine import Database
    from repro.db.schema import Column
    from repro.db.table import SpatialSpec
    from repro.db.types import ColumnType
    from repro.sphere.coords import vector_to_radec
    from repro.sphere.random import random_in_cap
    from repro.sphere.coords import radec_to_vector

    report = ExperimentReport(
        exp_id="E8",
        title="HTM range search vs full scan (and depth ablation)",
        source="Sections 5.1/5.4 (HTM 'helps in reducing spatial processing "
        "at individual databases')",
        headers=[
            "config", "radius (arcsec)", "rows examined", "rows matched",
            "fraction examined", "wall ms",
        ],
    )
    rng = random.Random(11)
    center = radec_to_vector(185.0, -0.5)
    positions = [
        random_in_cap(rng, center, arcsec_to_rad(7200.0))
        for _ in range(n_objects)
    ]

    def make_db(depth: int) -> Database:
        db = Database(f"htm{depth}", page_size=128, buffer_pages=4096)
        db.create_table(
            "objects",
            [
                Column("object_id", ColumnType.INT, nullable=False),
                Column("ra", ColumnType.FLOAT, nullable=False),
                Column("dec", ColumnType.FLOAT, nullable=False),
            ],
            spatial=SpatialSpec("ra", "dec", htm_depth=depth),
        )
        rows = []
        for i, position in enumerate(positions):
            ra, dec = vector_to_radec(position)
            rows.append((i, ra, dec))
        db.insert("objects", rows)
        db.table("objects").spatial_entries()  # build the index up front
        return db

    def timed(db: Database, sql: str):
        """The query's result and its best wall ms of three runs."""
        result, seconds = best_of(lambda: db.execute(sql), 3)
        return result, seconds * 1000.0

    db12 = make_db(12)
    for radius in radii:
        sql = f"SELECT count(*) FROM objects o WHERE AREA(185.0, -0.5, {radius})"
        for label, use_index in (("HTM depth 12", True), ("full scan", False)):
            db12.use_spatial_index = use_index
            result, wall = timed(db12, sql)
            report.add_row(
                label, radius, result.stats.rows_examined, result.scalar(),
                round(result.stats.rows_examined / n_objects, 4),
                round(wall, 2),
            )
        db12.use_spatial_index = True

    for depth in depths:
        db = make_db(depth)
        sql = "SELECT count(*) FROM objects o WHERE AREA(185.0, -0.5, 300.0)"
        result, wall = timed(db, sql)
        report.add_row(
            f"depth {depth}", 300.0, result.stats.rows_examined,
            result.scalar(),
            round(result.stats.rows_examined / n_objects, 4),
            round(wall, 2),
        )
    report.note(
        "Deeper meshes tighten the cover: fewer rows examined at every "
        "step. The set-at-a-time engine makes a visited row so cheap that "
        "the wall column is now almost all cover computation, so it rises "
        "with depth from depth 6 on."
    )
    report.note(
        f"Losing regime: at {n_objects} rows the vectorised full scan beats "
        "every HTM scan on wall time. HTM's win is the fraction of rows "
        "examined, which is what the buffer pool and the per-row "
        "processing cost charge."
    )
    return report


def check(report: ExperimentReport, quick: bool) -> None:
    rows = {(row[0], row[1]): row for row in report.rows}
    for radius in sorted({row[1] for row in report.rows if row[0] == "full scan"}):
        indexed = rows[("HTM depth 12", radius)]
        scanned = rows[("full scan", radius)]
        assert indexed[2] < scanned[2], "HTM must examine fewer rows"
        assert indexed[3] == scanned[3], "identical result counts"
    # Depth ablation: rows examined shrink monotonically with depth.
    depth_rows = [row[2] for row in report.rows if str(row[0]).startswith("depth")]
    assert depth_rows == sorted(depth_rows, reverse=True)


EXPERIMENT = Experiment(
    exp_id="E8",
    claim="§5.1/§5.4: HTM reduces spatial processing",
    shape="indexed scan touches a tiny fraction of rows; deeper mesh => "
    "tighter (in rows examined: on wall time the set-at-a-time full scan "
    "beats every HTM scan at 20,000 rows, the losing regime in the notes)",
    run=run,
    check=check,
    full=dict(
        n_objects=20000, radii=(60.0, 300.0, 900.0), depths=(6, 8, 10, 12, 14)
    ),
    quick={},
)
