"""E17 — pipelined streaming chain vs store-and-forward.

``SKYQUERY_BENCH_QUICK=1`` shrinks the sweep to smoke-test sizes (used by
the CI benchmark job). Tiny scenarios sit in the latency-dominated regime
where pipelining legitimately loses, so quick mode checks only result
equivalence; the full run also enforces the speedup in the
transfer-dominated arms and that the byte price of batching falls as the
batch grows.
"""

import os

from repro.bench import run_e17_pipelined_chain

QUICK = bool(os.environ.get("SKYQUERY_BENCH_QUICK"))


def test_e17_pipelined_chain(benchmark, report_sink):
    if QUICK:
        report = report_sink(
            run_e17_pipelined_chain(
                node_counts=(3,),
                body_counts=(400,),
                # The 400-body result fits the default 200-tuple batch (a
                # one-batch stream is the store-forward chain, message for
                # message); 50-tuple batches make the smoke run pull.
                batch_sizes=(50,),
                bandwidths=(250_000.0,),
            )
        )
    else:
        report = report_sink(run_e17_pipelined_chain())
    for row in report.rows:
        bodies, bandwidth = row[1], row[3]
        speedup, identical = row[6], row[10]
        assert identical == "yes", f"modes diverged: {row}"
        # Pipelining wins where transfer dominates latency: the largest
        # scenario at default-or-slower links. Small payloads on fast
        # links pay the extra chain fill and legitimately lose.
        if not QUICK and bodies >= 8000 and bandwidth <= 1_000_000:
            assert speedup > 1.0, f"pipelined chain not faster: {row}"

    # Both modes ship the same colset payload (the codec's saving is E7's
    # claim, not this one's); per-batch framing is pipelining's byte
    # price, so within one scenario the ratio improves as the batch grows.
    sweeps = {}
    for row in report.rows:
        sweeps.setdefault((row[0], row[1], row[3]), []).append((row[2], row[9]))
    for scenario, points in sweeps.items():
        ratios = [ratio for _, ratio in sorted(points)]
        assert ratios == sorted(ratios), f"{scenario}: {sorted(points)}"

    # Hot path: the pipelined 3-archive chain end to end.
    from repro.bench.experiments import _e17_federation

    fed = _e17_federation(3, 400 if QUICK else 1200, 1_000_000.0)
    fed.portal.chain_mode = "pipelined"
    client = fed.client()
    sql = (
        "SELECT S0.object_id "
        "FROM SURV0:objects S0, SURV1:objects S1, SURV2:objects S2 "
        "WHERE AREA(185.0, -0.5, 900.0) AND XMATCH(S0, S1, S2) < 3.5"
    )
    benchmark(lambda: client.submit(sql))
