"""E18 — extension: replica failover, checkpoint/resume vs restart vs degrade."""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.bench.registry import Experiment
from repro.bench.reporting import ExperimentReport
from repro.bench.scenarios import fresh_federation, paper_query
from repro.portal.executor import ChainExecutor
from repro.portal.plan import ExecutionPlan
from repro.soap.encoding import WireRowSet


class RestartExecutor(ChainExecutor):
    """E18's full-restart arm: every attempt of a chain starts over.

    Each attempt runs with fresh state under its own execution id,
    ``xid/<attempt>``: nothing an earlier attempt left on a node is found
    again and every hop recomputes, while a cancel of ``xid`` still frees
    all of it. The shipped executor resumes instead.
    """

    def _run_chain(
        self, plan: ExecutionPlan, state: Dict[str, Any], xid: str
    ) -> Tuple[WireRowSet, List[Dict[str, Any]]]:
        state["attempt"] = state.get("attempt", 0) + 1
        return super()._run_chain(plan, {}, f"{xid}/{state['attempt']}")


def run(*, n_bodies: int) -> ExperimentReport:
    """Mid-chain crash recovery: checkpoint/resume vs full-restart vs degrade.

    A replica-backed federation answers the paper query while the first
    chain hop's host is crashed mid-execution. Three recovery strategies
    compete under the *same* injected crash: resume (the shipped path — the
    retried chain re-opens every hop's stream under the same execution
    id, so a hop that had drained replays its cached payload and only the
    failed hop's bytes travel again), full restart (failover to the
    replica but every hop recomputes and re-transfers), and degrade (no
    replicas provisioned at all). Wasted bytes = chain bytes beyond the
    fault-free oracle's; recovery makespan = simulated seconds beyond the
    oracle's elapsed time.
    """
    from repro.services.retry import RetryPolicy
    from repro.transport.faults import FaultPlan

    sql = paper_query(radius_arcsec=900.0)

    def build(mode: str, replicas: int = 1):
        fed = fresh_federation(
            n_bodies=n_bodies,
            seed=18,
            retry_policy=RetryPolicy(
                max_attempts=3, timeout_s=5.0, base_backoff_s=0.2,
                max_backoff_s=2.0, seed=18,
            ),
            replicas=replicas,
            chain_mode=mode,
        )
        if mode == "pipelined":
            # Several small batches under single-batch flow control: the
            # stream acknowledges progress batch by batch, so a mid-pull
            # crash has a meaningful high-water mark to resume from.
            fed.portal.batch_size = 8
            fed.portal.stream_pull_window = 1
        return fed

    def chain_bytes(metrics) -> int:
        return (
            metrics.total_bytes(phase="crossmatch-chain")
            + metrics.total_bytes(phase="batch-transfer")
            + metrics.total_bytes(phase="chunk-transfer")
        )

    def run(fed, crash_host=None, crash_at=None):
        if crash_host is not None:
            fed.network.set_fault_plan(
                FaultPlan().crash(crash_host, at_s=crash_at)
            )
        fed.network.metrics.reset()
        start = fed.network.clock.now
        result = fed.client().submit(sql)
        pulls = [
            m.sim_time for m in fed.network.metrics.messages
            if m.phase == "batch-transfer"
        ]
        return {
            "rows": list(result.rows),
            "elapsed": fed.network.clock.now - start,
            "bytes": chain_bytes(fed.network.metrics),
            "failovers": result.failovers,
            "degraded": result.degraded,
            "victim": (
                result.plan["steps"][0]["url"].split("/")[2]
                if result.plan else None
            ),
            "start": start,
            "pull_window": (min(pulls), max(pulls)) if pulls else None,
        }

    def late_crash_at(baseline):
        """A crash instant that lands while completed work exists to save.

        Store-forward: 60% into the submit window, while the portal
        awaits the chain and downstream hops have drained their one
        batch. Pipelined: 70% into the batch-pull phase, after some
        batches are acknowledged but before the stream drains.
        """
        if baseline["pull_window"] is not None:
            lo, hi = baseline["pull_window"]
            return lo + 0.7 * (hi - lo)
        return baseline["start"] + 0.6 * baseline["elapsed"]

    report = ExperimentReport(
        exp_id="E18",
        title="Replica failover: checkpoint/resume vs restart vs degrade",
        source="Section 2 (autonomous archives) / Section 5.3 chain "
        "execution; extension",
        headers=[
            "mode", "strategy", "completed", "rows", "identical",
            "failovers", "chain B", "wasted B", "recovery s",
        ],
    )
    for mode in ("store-forward", "pipelined"):
        oracle = run(build(mode))
        window = oracle["elapsed"]
        victim = oracle["victim"]

        def arm(label, fed, *, crash_at, baseline=oracle):
            outcome = run(fed, crash_host=victim, crash_at=crash_at)
            report.add_row(
                mode,
                label,
                "degraded" if outcome["degraded"] else "yes",
                len(outcome["rows"]),
                ("n/a (partial)" if outcome["degraded"]
                 else "yes" if outcome["rows"] == baseline["rows"] else "NO"),
                outcome["failovers"],
                outcome["bytes"],
                outcome["bytes"] - baseline["bytes"],
                round(outcome["elapsed"] - baseline["elapsed"], 3),
            )
            return outcome

        report.add_row(
            mode, "fault-free oracle", "yes", len(oracle["rows"]), "yes",
            0, oracle["bytes"], 0, 0.0,
        )
        late = late_crash_at(oracle)
        early = oracle["start"] + 0.15 * window
        arm("resume (late crash)", build(mode), crash_at=late)
        restart_fed = build(mode)
        restart_fed.portal.executor = RestartExecutor(restart_fed.portal)
        arm("full restart (late crash)", restart_fed, crash_at=late)
        arm("resume (early crash)", build(mode), crash_at=early)
        early_restart = build(mode)
        early_restart.portal.executor = RestartExecutor(early_restart.portal)
        arm("full restart (early crash)", early_restart, crash_at=early)

        # Degrade: no replicas at all. Its own oracle twin (a replica-free
        # build has a different deterministic timeline, so the crash
        # instant must be measured against it).
        degrade_oracle = run(build(mode, replicas=0))
        report.add_row(
            mode, "degrade oracle (no replicas)", "yes",
            len(degrade_oracle["rows"]), "yes", 0, degrade_oracle["bytes"],
            0, 0.0,
        )
        fed = build(mode, replicas=0)
        fed.network.set_fault_plan(
            FaultPlan().crash(
                degrade_oracle["victim"], at_s=late_crash_at(degrade_oracle)
            )
        )
        fed.network.metrics.reset()
        start = fed.network.clock.now
        result = fed.client().submit(sql)
        report.add_row(
            mode, "degrade (late crash)",
            "degraded" if result.degraded else "yes",
            len(result.rows),
            "n/a (partial)" if result.degraded else
            ("yes" if list(result.rows) == degrade_oracle["rows"] else "NO"),
            result.failovers,
            chain_bytes(fed.network.metrics),
            chain_bytes(fed.network.metrics) - degrade_oracle["bytes"],
            round(
                (fed.network.clock.now - start) - degrade_oracle["elapsed"], 3
            ),
        )
    report.note(
        "Resume's win is structural, and it is one mechanism at two batch "
        "sizes: the crashed hop sits at the head of the chain, so when "
        "the crash fired every downstream hop had drained its stream "
        "(store-forward: the one batch) or the Portal had acknowledged "
        "batches below a high-water mark (pipelined). The failed-over "
        "chain re-opens each stream under the same execution id at the "
        "first batch it still lacks: a drained hop replays its cached "
        "payload with no downstream call, so only the replacement hop's "
        "compute and its two adjacent transfers are re-spent; full "
        "restart re-spends the whole chain."
    )
    report.note(
        "Losing regimes, honestly: a crash early in the chain (the "
        "early-crash arms, 15% into the submit window) "
        "leaves little or nothing finished, so resume converges to "
        "full restart (and when the crash lands before the chain starts, "
        "plan-time failover makes the two byte-identical). A crash of the "
        "chain's *last* hop similarly finds no completed downstream work "
        "to reuse. A drained stream also holds its last payload in node "
        "memory (until 8 newer ones settle on that node, or its 600 "
        "simulated seconds pass) — a cost the restart strategy never pays."
    )
    report.note(
        "The pipelined arms run 8-tuple batches under single-batch flow "
        "control (stream_pull_window=1): progress is acknowledged batch "
        "by batch, so the high-water mark means something. With unbounded "
        "overlap (the latency-optimal default) every batch is in flight "
        "at the crash instant and they fail as one — another regime where "
        "resume buys nothing over restart."
    )
    report.note(
        "Degrade is the cheapest recovery on every axis except the one "
        "that matters: with the crashed archive mandatory and no replica, "
        "the answer is empty. Failover turns the same crash into a "
        "complete result for the price of the re-spent hop."
    )
    return report


def check(report: ExperimentReport, quick: bool) -> None:
    rows = {(row[0], row[1]): row for row in report.rows}

    for mode in ("store-forward", "pipelined"):
        oracle = rows[(mode, "fault-free oracle")]
        resume = rows[(mode, "resume (late crash)")]
        restart = rows[(mode, "full restart (late crash)")]

        # Failover must keep the answer complete and byte-identical.
        for arm in (resume, restart):
            assert arm[2] == "yes", f"{mode}: crashed arm did not complete"
            assert arm[4] == "yes", f"{mode}: rows differ from oracle"
            assert arm[5] >= 1, f"{mode}: no failover recorded"
            assert arm[3] == oracle[3]

        # The acceptance criterion: checkpoint/resume re-transfers
        # strictly fewer bytes than a full restart after a late crash.
        assert resume[7] < restart[7], (
            f"{mode}: resume wasted {resume[7]} B, "
            f"restart wasted {restart[7]} B — resume must win strictly"
        )

        # The losing regime is honest: an early crash leaves nothing to
        # resume, so the two strategies waste (almost) the same bytes.
        early_resume = rows[(mode, "resume (early crash)")]
        early_restart = rows[(mode, "full restart (early crash)")]
        early_gap = abs(early_resume[7] - early_restart[7])
        late_gap = restart[7] - resume[7]
        assert early_gap < late_gap, (
            f"{mode}: the early-crash arms should show resume's advantage "
            f"collapsing (early gap {early_gap} B vs late gap {late_gap} B)"
        )

        # Without replicas the same crash degrades to an empty answer.
        degrade = rows[(mode, "degrade (late crash)")]
        assert degrade[2] == "degraded"
        assert degrade[3] == 0


EXPERIMENT = Experiment(
    exp_id="E18",
    claim="§2 autonomy + §5.3 chain — replica failover with "
    "checkpoint/resume (extension)",
    shape="crashed-over chain returns byte-identical rows; resume "
    "re-transfers strictly fewer bytes than restart after a late crash, "
    "~equal after an early one",
    run=run,
    check=check,
    full=dict(n_bodies=800),
    quick=dict(n_bodies=400),
)
