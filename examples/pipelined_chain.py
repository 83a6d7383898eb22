#!/usr/bin/env python3
"""Pipelined chain execution vs store-and-forward, on the same query.

Builds the same federation twice — once with the classic store-and-forward
chain (each hop's whole result is one batch, carried by the
`PerformXMatch` response: every SkyNode finishes its whole step before the
partial results move one hop) and once in pipelined mode (the same tuple
streams cut into 200-tuple batches whose `PullBatch` chain traversals run
as parallel branches) — then verifies the two modes return *identical rows
in identical order* and compares their simulated makespans and chain
bytes. Both ship the same columnar payload, so the byte column shows what
batching itself costs: per-batch framing and a separate open cascade.

The link is deliberately slowed (250 kB/s) so payload transfer, not
per-hop latency, dominates: the regime pipelining exists for.

Run:  python examples/pipelined_chain.py
"""

from repro import FederationConfig, SkyField, build_federation

SQL = """
    SELECT O.object_id, O.ra, T.obj_id
    FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T,
         FIRST:Primary_Object P
    WHERE AREA(185.0, -0.5, 1800.0) AND XMATCH(O, T, P) < 3.5
"""

CHAIN_PHASES = ("crossmatch-chain", "batch-transfer", "chunk-transfer")


def run_mode(chain_mode):
    federation = build_federation(
        FederationConfig(
            n_bodies=4000,
            seed=42,
            sky_field=SkyField(center_ra_deg=185.0, center_dec_deg=-0.5,
                               radius_arcsec=1800.0),
            default_bandwidth_bps=250_000.0,
            chain_mode=chain_mode,
            stream_batch_size=200,
        )
    )
    client = federation.client()
    start = federation.network.clock.now
    result = client.submit(SQL)
    makespan = federation.network.clock.now - start
    metrics = federation.network.metrics
    chain_bytes = sum(
        metrics.total_bytes(phase=phase) for phase in CHAIN_PHASES
    )
    return result, makespan, chain_bytes


def main() -> None:
    print("Same 3-archive query, two chain execution modes (250 kB/s link).\n")
    classic, classic_s, classic_b = run_mode("store-forward")
    pipelined, pipelined_s, pipelined_b = run_mode("pipelined")

    # The pipelined mode is a pure performance transform: not one byte of
    # the answer may differ.
    assert pipelined.columns == classic.columns
    assert pipelined.rows == classic.rows
    assert pipelined.matched_tuples == classic.matched_tuples
    print(f"Rows identical across modes? True ({len(classic)} matches, "
          "same order)")

    print(f"\n{'mode':<16} {'makespan':>10} {'chain bytes':>12}")
    print(f"{'store-forward':<16} {classic_s:>9.3f}s {classic_b:>12}")
    print(f"{'pipelined':<16} {pipelined_s:>9.3f}s {pipelined_b:>12}")
    print(f"\nPipelined speedup: {classic_s / pipelined_s:.2f}x "
          f"(for {pipelined_b / classic_b:.2f}x the chain bytes)")

    print("\nPer-node batch accounting (pipelined run):")
    for stats in pipelined.node_stats:
        print(
            f"  {stats['archive']:<8} role={stats['role']:<6} "
            f"batches={stats['batches']:<3} "
            f"rows/batch={stats['batch_rows']}"
        )


if __name__ == "__main__":
    main()
