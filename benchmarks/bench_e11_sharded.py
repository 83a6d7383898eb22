"""E11-sharded — partition chains over sharded archives vs the twin.

Quick mode (CI): body counts small enough for the smoke job; the win
already shows at 30k bodies on a cluster link. The full-size acceptance
point (sharded beating monolithic at 1e5 bodies) runs with the
experiment's defaults via the report CLI.
"""

from repro.bench import run_e11_sharded


def test_e11_sharded(benchmark, report_sink):
    report = report_sink(run_e11_sharded(body_counts=(2_000, 30_000)))
    rows = {row[0]: row for row in report.rows if row[0] != "cluster link"}
    cluster = [row for row in report.rows if row[0] == "cluster link"]

    # Winning regime: compute-bound scans over a cluster link. The
    # speedup must be real at the larger count and grow with table size.
    speedups = [row[4] for row in cluster]
    assert speedups[-1] > 1.2
    assert speedups == sorted(speedups)

    # Every stripe's chain has links of its own, so the win holds on a
    # WAN too; an AREA inside one stripe parallelizes nothing.
    assert rows["wan link"][4] > 1.0
    assert rows["single-shard AREA"][4] < 1.2

    # Bytes are the price: every arm ships more sharded (seed keys, one
    # set of envelopes and probes per stripe), less so as tables grow.
    assert all(row[6] > row[5] for row in report.rows)
    excess = [row[6] / row[5] for row in cluster]
    assert excess == sorted(excess, reverse=True) and excess[-1] < 1.25

    # Hot path: one sharded submission on a mid-size federation.
    from repro.federation.builder import FederationConfig, build_federation

    fed = build_federation(
        FederationConfig(
            n_bodies=10_000, seed=42, shards=4,
            processing_seconds_per_row=2e-4,
            default_latency_s=0.002, default_bandwidth_bps=100_000_000.0,
        )
    )
    sql = (
        "SELECT O.object_id, T.obj_id "
        "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T "
        "WHERE AREA(185.0, -0.5, 1800.0) AND XMATCH(O, T) < 3.5"
    )
    benchmark(lambda: fed.portal.submit(sql))
