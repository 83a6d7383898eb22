"""E15 — extension: fault injection, retries, graceful degradation."""

from __future__ import annotations

from repro.bench.registry import Experiment
from repro.bench.reporting import ExperimentReport
from repro.bench.scenarios import fresh_federation, paper_query


def run(*, n_bodies: int) -> ExperimentReport:
    """Retry overhead at zero faults; completion under seeded drop rates.

    Autonomous archives fail: the resilient federation (retry policy +
    chain re-planning) must cost ~nothing when the network is clean,
    survive transient request drops with *identical* rows, and degrade
    gracefully (not raise) when an archive is truly gone.
    """
    from repro.services.retry import RetryPolicy
    from repro.transport.faults import FaultPlan

    policy = RetryPolicy(
        max_attempts=5, timeout_s=8.0, base_backoff_s=0.2,
        max_backoff_s=2.0, seed=15,
    )
    sql = paper_query(radius_arcsec=900.0)

    def run_arm(scenario, *, retry_policy=None, fault_plan=None, kill=None,
                query=sql):
        fed = fresh_federation(
            n_bodies=n_bodies, seed=15,
            retry_policy=retry_policy, fault_plan=fault_plan,
        )
        if kill is not None:
            fed.network.fail_host(fed.node(kill).hostname)
        fed.network.metrics.reset()
        start = fed.network.clock.now
        result = fed.client().submit(query)
        elapsed = fed.network.clock.now - start
        metrics = fed.network.metrics
        return {
            "scenario": scenario,
            "rows": sorted(result.rows),
            "degraded": result.degraded,
            "warnings": list(result.warnings),
            "elapsed": elapsed,
            "retries": metrics.retries,
            "timeouts": metrics.timeouts,
            "faults": metrics.fault_count(),
        }

    arms = [run_arm("single-shot (seed)")]
    arms.append(
        run_arm("resilient, 0% faults", retry_policy=policy)
    )
    # Per-rate plan seeds chosen so the (few dozen) messages of one query
    # really do see injected drops at each rate.
    for rate, plan_seed in ((0.05, 5), (0.10, 2), (0.20, 1)):
        plan = FaultPlan(seed=plan_seed).drop_requests(
            rate=rate, label="drops"
        )
        arms.append(
            run_arm(f"resilient, {rate:.0%} request drops",
                    retry_policy=policy, fault_plan=plan)
        )
    arms.append(
        run_arm("resilient, drop-out archive partitioned",
                retry_policy=policy, kill="FIRST",
                query=paper_query(radius_arcsec=900.0, dropout=True))
    )

    baseline = arms[0]
    report = ExperimentReport(
        exp_id="E15",
        title="Extension: fault injection, retries, graceful degradation",
        source="Section 2 (autonomous 'federation of archives'); extension",
        headers=["scenario", "completed", "rows", "identical", "retries",
                 "timeouts", "faults injected", "sim seconds"],
    )
    for arm in arms:
        degraded = arm["degraded"]
        report.add_row(
            arm["scenario"],
            "degraded" if degraded else "yes",
            len(arm["rows"]),
            ("n/a (partial)" if degraded
             else "yes" if arm["rows"] == baseline["rows"] else "NO"),
            arm["retries"],
            arm["timeouts"],
            arm["faults"],
            round(arm["elapsed"], 3),
        )
    overhead = arms[1]["elapsed"] / baseline["elapsed"] - 1.0
    report.note(
        f"Resilience overhead at 0% faults: {overhead:+.1%} simulated "
        "elapsed time (retries and timeouts cost nothing until a fault "
        "fires; liveness is learned from the count probes and the chain, "
        "which the query sends anyway)."
    )
    degraded_arm = arms[-1]
    if degraded_arm["warnings"]:
        report.note(
            "Partitioned drop-out archive: " + degraded_arm["warnings"][0]
        )
    report.note(
        "Fault injection is seeded and replays identically; every retry, "
        "timeout and injected fault above is visible in NetworkMetrics. "
        "The seed picks which of the query's messages are dropped, so a "
        "drop arm's sim seconds depend on where its drops land: two "
        "timeouts inside one parallel block (the count probes) overlap, "
        "two on sequential messages add up."
    )
    return report


def check(report: ExperimentReport, quick: bool) -> None:
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


EXPERIMENT = Experiment(
    exp_id="E15",
    claim="§2: autonomous archives over the Internet — \"some nodes may be "
    "down\" (extension)",
    shape="resilient federation survives seeded drops with identical rows; "
    "permanent partition degrades, never crashes",
    run=run,
    check=check,
    full=dict(n_bodies=600),
    quick={},
)
