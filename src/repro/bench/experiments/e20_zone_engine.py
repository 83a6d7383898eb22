"""E20 — the zone match engine vs the HTM reference at scale.

The federation is built on zones; its HTM and scalar arms run procedure
bodies installed over ``sp_xmatch`` through ``db.register_procedure``.
At quick sizes the zone engine's index-build overhead dominates and
wall-clock ratios are meaningless, so quick runs check only the identity
half of each row.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.bench.registry import Experiment
from repro.bench.reporting import ExperimentReport, best_of
from repro.bench.scenarios import survey_chain_federation, survey_chain_query
from repro.units import arcsec_to_rad


def _e20_bodies(n: int, seed: int = 12, spread_arcsec: float = 3600.0):
    """A dense random field of true body positions."""
    from repro.sphere.coords import radec_to_vector
    from repro.sphere.random import random_in_cap

    rng = random.Random(seed)
    center = radec_to_vector(185.0, -0.5)
    return rng, [
        random_in_cap(rng, center, arcsec_to_rad(spread_arcsec))
        for _ in range(n)
    ]


def _e20_chain_spec(n: int):
    """Three in-memory archives observing the same n bodies."""
    from repro.sphere.random import perturb_gaussian
    from repro.xmatch.tuples import LocalObject

    rng, bodies = _e20_bodies(n)
    spec = []
    for alias, sigma_arcsec in (("A", 0.1), ("B", 0.3), ("C", 0.5)):
        sigma = arcsec_to_rad(sigma_arcsec)
        objects = [
            LocalObject(object_id=i, position=perturb_gaussian(rng, b, sigma))
            for i, b in enumerate(bodies)
        ]
        spec.append((alias, objects, sigma, False))
    return spec


def _e20_database(n: int, m: int):
    """One archive table of n rows plus a temp table of m incoming tuples."""
    from repro.db.engine import Database
    from repro.db.schema import Column
    from repro.db.table import SpatialSpec
    from repro.db.types import ColumnType
    from repro.skynode.xmatch_proc import register_xmatch_procedure
    from repro.sphere.coords import vector_to_radec
    from repro.sphere.random import perturb_gaussian
    from repro.xmatch.chi2 import Accumulator

    sigma = arcsec_to_rad(0.3)
    rng, bodies = _e20_bodies(n)
    db = Database("arch", page_size=64)
    register_xmatch_procedure(db)
    db.create_table(
        "objects",
        [
            Column("object_id", ColumnType.INT, nullable=False),
            Column("ra", ColumnType.FLOAT, nullable=False),
            Column("dec", ColumnType.FLOAT, nullable=False),
        ],
        spatial=SpatialSpec("ra", "dec", htm_depth=12),
    )
    rows = []
    for i, body in enumerate(bodies):
        ra, dec = vector_to_radec(perturb_gaussian(rng, body, sigma))
        rows.append((i, ra, dec))
    db.insert("objects", rows)
    temp = db.create_temp_table(
        "xm",
        [
            Column("seq", ColumnType.INT, nullable=False),
            Column("a", ColumnType.FLOAT, nullable=False),
            Column("ax", ColumnType.FLOAT, nullable=False),
            Column("ay", ColumnType.FLOAT, nullable=False),
            Column("az", ColumnType.FLOAT, nullable=False),
        ],
    )
    for seq in range(m):
        acc = Accumulator.of_observation(
            perturb_gaussian(rng, bodies[seq], sigma), sigma
        )
        temp.insert((seq, acc.a, acc.ax, acc.ay, acc.az))
    return db, temp


def run(
    *,
    kernel_sizes: Sequence[int],
    proc_sizes: Sequence[int],
    chain_sizes: Sequence[int],
    broadcast_cap: int,
    scalar_cap: int,
    proc_tuples: int,
    repeats: int,
) -> ExperimentReport:
    """The zone engine against HTM (and the scalar oracle) at three layers.

    ``kernel``: the in-memory chain (``run_chain``) — the zone sorted-merge
    vs the broadcast O(m*n) batch kernel vs the scalar loop, pure matcher
    cost with no database or SOAP. ``sp_xmatch``: one stored-procedure call
    on a single archive database — the zone window probe vs the batched-HTM
    cap covers, everything else identical. ``federated``: the full
    three-node SOAP chain, once as built (zone) and once with a body
    pinned to HTM installed over ``sp_xmatch`` on every archive. Engines
    that are infeasible at a size (the broadcast kernel is quadratic; the
    scalar loop pays per pair in Python) are capped and reported as ``-``
    rather than extrapolated.
    """
    from repro.xmatch.stream import run_chain

    report = ExperimentReport(
        exp_id="E20",
        title="Zone match engine vs HTM reference at scale",
        source="ROADMAP item 2: the successor papers' zone algorithm "
        "(Nieto-Santisteban 2005; Dobos 2012) replacing per-cap HTM probes",
        headers=[
            "scenario", "bodies", "baseline", "base s", "zone s",
            "speedup", "scalar s", "rows", "identical",
        ],
    )

    # --- layer 1: the isolated in-memory kernels -------------------------
    kernel_crossover = None
    for n in kernel_sizes:
        spec = _e20_chain_spec(n)
        zone_result, zone_s = best_of(
            lambda: run_chain(spec, 3.5, engine="zone"), repeats
        )
        zone_key = [(t.members, t.acc.a, t.acc.ax, t.acc.ay, t.acc.az)
                    for t in zone_result]
        identical = []
        base_s = None
        if n <= broadcast_cap:
            base_result, base_s = best_of(
                lambda: run_chain(spec, 3.5, engine="vectorized"), repeats
            )
            base_key = [(t.members, t.acc.a, t.acc.ax, t.acc.ay, t.acc.az)
                        for t in base_result]
            identical.append(zone_key == base_key)
            if kernel_crossover is None and zone_s < base_s:
                kernel_crossover = n
        scalar_s = None
        if n <= scalar_cap:
            scalar_result, scalar_s = best_of(
                lambda: run_chain(spec, 3.5, engine="scalar"), repeats
            )
            scalar_key = [(t.members, t.acc.a, t.acc.ax, t.acc.ay, t.acc.az)
                          for t in scalar_result]
            identical.append(zone_key == scalar_key)
        report.add_row(
            "kernel", n, "broadcast",
            round(base_s, 3) if base_s is not None else "-",
            round(zone_s, 3),
            round(base_s / zone_s, 2) if base_s is not None else "-",
            round(scalar_s, 3) if scalar_s is not None else "-",
            len(zone_result),
            # "-" when zone ran alone (every comparison engine was over
            # its feasibility cap), so absence of evidence never reads
            # as divergence.
            ("yes" if all(identical) else "NO") if identical else "-",
        )

    # --- layer 2: one sp_xmatch call on a single archive -----------------
    from repro.skynode.xmatch_proc import (
        MATCH_ENGINE_HTM,
        PROCEDURE_NAME,
        sp_xmatch,
        sp_xmatch_reference,
        with_engine,
    )

    def proc_call(db, temp, engine):
        return db.call_procedure(
            PROCEDURE_NAME, temp_table=temp.name, primary_table="objects",
            id_column="object_id", ra_column="ra", dec_column="dec",
            alias="X", sigma_arcsec=0.3, threshold=3.5, area=None,
            residual=None, attr_columns=(), engine=engine,
        )

    def proc_key(result):
        return (
            [(*pair[:3], *map(float.hex, pair[3:7]))
             for pair in result.pairs()],
            (result.stats.tuples_in, result.stats.candidates_tested,
             result.stats.rows_examined, result.stats.matches_found),
        )

    for n in proc_sizes:
        db, temp = _e20_database(n, proc_tuples)
        htm_result, htm_s = best_of(lambda: proc_call(db, temp, "htm"), repeats)
        zone_result, zone_s = best_of(lambda: proc_call(db, temp, "zone"), repeats)
        db.drop_procedure(PROCEDURE_NAME)
        db.register_procedure(PROCEDURE_NAME, sp_xmatch_reference)
        scalar_result, scalar_s = best_of(
            lambda: proc_call(db, temp, "htm"), repeats
        )
        identical = (
            proc_key(zone_result) == proc_key(htm_result) == proc_key(scalar_result)
        )
        report.add_row(
            "sp_xmatch", n, "batched-htm",
            round(htm_s, 3), round(zone_s, 3), round(htm_s / zone_s, 2),
            round(scalar_s, 3), len(set(zone_result.seqs.tolist())),
            "yes" if identical else "NO",
        )

    # --- layer 3: the full federated SOAP chain --------------------------
    sql = survey_chain_query(3)

    def fed_observe(n, procedure=None):
        fed = survey_chain_federation(3, n, procedure)
        client = fed.client()

        def submit():
            fed.network.metrics.reset()
            return client.submit(sql)

        result, best = best_of(submit, repeats)
        return best, (
            sorted(result.rows), result.node_stats,
            fed.network.metrics.bytes_by_phase(),
        )

    # The federation runs zone; the HTM arms install their body over
    # sp_xmatch on every archive, the procedure's own seam.
    htm_body = with_engine(sp_xmatch, MATCH_ENGINE_HTM)
    htm_reference = with_engine(sp_xmatch_reference, MATCH_ENGINE_HTM)
    for n in chain_sizes:
        htm_s, htm_obs = fed_observe(n, htm_body)
        zone_s, zone_obs = fed_observe(n)
        scalar_s = None
        identical = [zone_obs == htm_obs]
        if n <= scalar_cap * 4:
            scalar_s, scalar_obs = fed_observe(n, htm_reference)
            identical.append(zone_obs == scalar_obs)
        report.add_row(
            "federated", n, "htm",
            round(htm_s, 3), round(zone_s, 3), round(htm_s / zone_s, 2),
            round(scalar_s, 3) if scalar_s is not None else "-",
            len(zone_obs[0]),
            "yes" if all(identical) else "NO",
        )

    if kernel_crossover is not None:
        report.note(
            f"Kernel crossover: the zone sorted-merge overtakes the "
            f"broadcast batch kernel at ~{kernel_crossover} bodies. Below "
            f"that, building the per-archive zone arrays and the window "
            f"trigonometry cost more than simply broadcasting the few "
            f"(tuple, candidate) pairs — the zone engine LOSES on small "
            f"in-memory batches, which is why broadcast stays run_chain's "
            f"default. The federation's stored procedure runs zone: "
            f"there the baseline is the per-tuple HTM probe, and zone wins "
            f"every sp_xmatch and federated row below."
        )
    report.note(
        "The broadcast kernel is O(m*n) per step and infeasible past "
        f"{broadcast_cap} bodies (the '-' cells); the zone kernel is "
        "O(m*k + n log n) and runs the same field at 100k+ bodies in "
        "seconds. On the stored-procedure path the win is the probe: "
        "per-tuple HTM cap covers walk the trixel tree in Python, while "
        "zone windows are one vectorized searchsorted batch."
    )
    report.note(
        "Federated chains dilute the kernel win behind SOAP encode/parse "
        "and simulated transfer costs — the honest losing regime of both "
        "fast engines. Every row above also re-checks the contract: "
        "identical survivors, accumulators, scan stats, and wire bytes "
        "across engines ('identical' column)."
    )
    return report


def check(report: ExperimentReport, quick: bool) -> None:
    for row in report.rows:
        scenario, bodies, _, _, _, speedup, _, _, identical = row
        # "-" marks a size where zone ran alone (nothing to compare).
        assert identical in ("yes", "-"), f"engines diverged: {row}"
        if not quick and scenario == "sp_xmatch" and bodies >= 100_000:
            # The acceptance bar: at 10^5+ bodies the isolated zone
            # kernel must beat the batched-HTM kernel.
            assert speedup > 1.0, f"zone not faster at scale: {row}"


EXPERIMENT = Experiment(
    exp_id="E20",
    claim="§5.4 cross-match at scale — the successor papers' zone algorithm "
    "(Nieto-Santisteban 2005; Dobos 2012) as an alternate engine (extension)",
    shape="zone sorted-merge beats batched-HTM probes at 10^5+ bodies with "
    "byte-identical survivors/stats/wire bytes; loses below the ~10^3 "
    "crossover and dilutes behind SOAP in federated chains",
    run=run,
    check=check,
    full=dict(
        kernel_sizes=(200, 1_000, 5_000, 20_000, 100_000),
        proc_sizes=(20_000, 100_000, 300_000),
        chain_sizes=(20_000, 100_000),
        broadcast_cap=20_000,
        scalar_cap=5_000,
        proc_tuples=5_000,
        repeats=2,
    ),
    quick=dict(
        kernel_sizes=(200, 1_000),
        proc_sizes=(2_000,),
        chain_sizes=(1_000,),
        proc_tuples=500,
        repeats=1,
    ),
)
