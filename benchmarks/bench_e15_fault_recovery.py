"""E15 — extension: fault injection, retries, graceful degradation."""

from repro.bench import run_e15_fault_recovery


def test_e15_fault_recovery(benchmark, report_sink):
    report = report_sink(run_e15_fault_recovery(n_bodies=600))
    rows = {row[0]: row for row in report.rows}

    # Resilience must be ~free when the network is clean...
    baseline_s = rows["single-shot (seed)"][7]
    resilient_s = rows["resilient, 0% faults"][7]
    assert resilient_s <= baseline_s * 1.05, (
        "retry/timeout machinery must cost <=5% at zero faults"
    )

    # ...and every faulted arm must complete with identical rows.
    for rate in ("5%", "10%", "20%"):
        row = rows[f"resilient, {rate} request drops"]
        assert row[1] == "yes", f"{rate} drops: query did not complete"
        assert row[3] == "yes", f"{rate} drops: rows differ from fault-free"
        assert row[6] > 0, f"{rate} drops: the plan injected no faults"

    # A permanently partitioned drop-out archive degrades, not raises.
    degraded = rows["resilient, drop-out archive partitioned"]
    assert degraded[1] == "degraded"
    assert degraded[2] > 0, "the degraded cross-match still returns rows"
    # The chain's open at the dead head spends the policy's one retry
    # cycle (5 attempts = 4 retries); recovery does not ping it again.
    assert degraded[4] <= 4, "recovery re-asked the dead head"

    # Hot path: a resilient submit (armed retries, 0 faults).
    from repro.bench.scenarios import fresh_federation, paper_query
    from repro.services.retry import RetryPolicy

    fed = fresh_federation(
        n_bodies=600,
        retry_policy=RetryPolicy(max_attempts=4, timeout_s=8.0),
    )
    sql = paper_query(radius_arcsec=900.0)
    benchmark(lambda: fed.client().submit(sql))
