"""E20 — the zone match engine vs the HTM reference at scale.

``SKYQUERY_BENCH_QUICK=1`` shrinks every layer to smoke-test sizes (the
CI benchmark job); at that scale the zone engine's index-build overhead
dominates and wall-clock ratios are meaningless, so quick mode checks
only the identity half of each row. The federation is built on zones;
its HTM and scalar arms run procedure bodies installed over ``sp_xmatch``
through ``db.register_procedure``.
"""

import os

from repro.bench import run_e20_zone_engine

QUICK = bool(os.environ.get("SKYQUERY_BENCH_QUICK"))


def test_e20_zone_engine(benchmark, report_sink):
    if QUICK:
        report = report_sink(
            run_e20_zone_engine(
                kernel_sizes=(200, 1_000),
                proc_sizes=(2_000,),
                chain_sizes=(1_000,),
                proc_tuples=500,
                repeats=1,
            )
        )
    else:
        report = report_sink(run_e20_zone_engine())
    for row in report.rows:
        scenario, bodies, _, _, _, speedup, _, _, identical = row
        # "-" marks a size where zone ran alone (nothing to compare).
        assert identical in ("yes", "-"), f"engines diverged: {row}"
        if not QUICK and scenario == "sp_xmatch" and bodies >= 100_000:
            # The acceptance bar: at 10^5+ bodies the isolated zone
            # kernel must beat the batched-HTM kernel.
            assert speedup > 1.0, f"zone not faster at scale: {row}"

    # Hot path: the zone window probe against a 20k-row archive.
    from repro.bench.experiments import _e20_database
    from repro.skynode.xmatch_proc import PROCEDURE_NAME

    n = 2_000 if QUICK else 20_000
    db, temp = _e20_database(n, 500 if QUICK else 2_000)

    def probe():
        return db.call_procedure(
            PROCEDURE_NAME, temp_table=temp.name, primary_table="objects",
            id_column="object_id", ra_column="ra", dec_column="dec",
            alias="X", sigma_arcsec=0.3, threshold=3.5, area=None,
            residual=None, attr_columns=(), engine="zone",
        )

    benchmark(probe)
