"""E22 — end-to-end deadlines: eager cancellation vs TTL-only reaping."""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.bench.registry import Experiment
from repro.bench.reporting import ExperimentReport
from repro.bench.scenarios import fresh_federation, paper_query
from repro.portal.executor import ChainExecutor
from repro.portal.plan import ExecutionPlan


class TtlOnlyExecutor(ChainExecutor):
    """E22's TTL-only arm: a deadline-dead chain is never cancelled.

    Every stream and transfer the query owned stays in server memory
    until the nodes' TTL reapers find it. The shipped executor sends one
    parallel round of ``CancelQuery`` to every endpoint the plan names
    instead.
    """

    def _cancel_chain(self, plan: ExecutionPlan, qid: str) -> None:
        pass


def _e22_nodes(federation):
    nodes = list(federation.nodes.values())
    for group in federation.replicas.values():
        nodes.extend(group)
    return nodes


def _e22_residuals(federation, qid: str) -> Tuple[int, float]:
    """(leftover items, leftover KB) still owned by ``qid`` federation-wide.

    Items are streams (open, or drained and kept as the hop's checkpoint)
    and chunked transfers; the KB figure sums every payload whose wire
    size is directly measurable — the batch a stream served last (held as
    the parts it travels in: one, or its chunks) and the chunks a transfer
    still buffers (all of them while pending, the parked final one once
    drained).
    """
    from repro.transport.chunking import envelope_bytes

    items = 0
    held_bytes = 0
    for node in _e22_nodes(federation):
        for leases in (node.crossmatch.leases, node.query.sender.leases):
            for kind, _, lease in leases.owned_by(qid):
                items += 1
                if kind == "stream":
                    served = lease.value.served
                    payloads = served[0].parts if served is not None else []
                elif lease.live:
                    payloads = lease.value  # a pending transfer's chunks
                else:
                    payloads = [lease.value[1]]  # its parked final chunk
                held_bytes += sum(envelope_bytes(p) for p in payloads)
    return items, held_bytes / 1024.0


def run(*, n_bodies: int, storm_queries: int) -> ExperimentReport:
    """Deadline-expired queries: eager CancelQuery vs TTL-only reaping.

    A query is given a budget that expires mid-chain (chunked drains for
    the store-forward mode, bounded pull waves for the pipelined mode
    provide budget-checked operations deep into the run). Twin arms on
    identical federations differ in one part, the Portal's executor. The
    shipped one sends ``CancelQuery`` to every endpoint the plan names, in
    one parallel round, the moment the deadline fault surfaces, and every
    stream, staging, and chunked transfer the query owned is freed
    immediately; with :class:`TtlOnlyExecutor` the
    same state sits in server memory until the 600 s TTL reapers find it. The
    report measures that custody directly: leftover items and buffered KB
    the instant the degraded answer returns, the reclaim latency, the
    wire cost of the cancel fan-out itself, and how long after its
    deadline the caller got the degraded answer.

    Honest framing: in this synchronous simulation the chain stops
    executing when the deadline fault propagates, so eager cancellation
    cannot save *recompute* — the differential is custody (state held x
    seconds until reclaim) and reclaim latency, which is exactly what the
    TTL columns show. Losing regimes are measured, not hidden: the budget
    header taxes every message of a query that never comes close to its
    deadline, and a cancel storm over near-empty state ships more cancel
    bytes than it frees.
    """
    from repro.skynode.crossmatch import STREAM_TTL_S

    report = ExperimentReport(
        exp_id="E22",
        title="Query deadlines: eager cancellation vs TTL-only reaping",
        source="Section 5.3's long-running federated queries need "
        "budgets and cleanup (ROADMAP robustness item)",
        headers=[
            "arm", "mode", "cancels", "eager", "leftover items",
            "leftover KB", "reclaim s", "cancel KB", "answer after",
            "returned after deadline (s)",
        ],
    )

    sql = paper_query(900.0)
    fractions = {"store-forward": 0.95, "pipelined": 0.5}

    def build(chain_mode):
        fed = fresh_federation(
            n_bodies=n_bodies,
            chain_mode=chain_mode,
            chunk_budget_bytes=1024,
            replicas=1,
        )
        if chain_mode == "pipelined":
            # Batches small enough that the answer takes several (one
            # batch would be the store-forward arm again), pulled in
            # bounded waves.
            fed.portal.batch_size = 8
            fed.portal.stream_pull_window = 2
        return fed

    oracle_cache: Dict[str, Tuple[Any, float]] = {}

    def oracle(chain_mode):
        if chain_mode not in oracle_cache:
            fed = build(chain_mode)
            t0 = fed.network.clock.now
            result = fed.portal.submit(sql)
            oracle_cache[chain_mode] = (result, fed.network.clock.now - t0)
        return oracle_cache[chain_mode]

    for chain_mode in ("store-forward", "pipelined"):
        oracle_result, duration = oracle(chain_mode)
        for eager in (True, False):
            fed = build(chain_mode)
            if not eager:
                fed.portal.executor = TtlOnlyExecutor(fed.portal)
            metrics = fed.network.metrics
            portal = fed.portal
            qid = f"{portal.hostname}-q{portal.queries_served + 1}"
            deadline = (
                fed.network.clock.now + fractions[chain_mode] * duration
            )
            result = portal.submit(sql, deadline_s=deadline)
            late_s = fed.network.clock.now - deadline
            assert result.degraded and result.rows == [], (
                f"E22 expected a mid-chain deadline fault "
                f"({chain_mode}, eager={eager}); got {result!r}"
            )
            items, held_kb = _e22_residuals(fed, qid)
            cancel_kb = metrics.total_bytes(phase="cancel") / 1024.0
            if items:
                # TTL-only custody: the state outlives the query by the
                # full reaper horizon. Prove the backstop actually fires.
                fed.network.clock.advance(STREAM_TTL_S + 1.0)
                for node in _e22_nodes(fed):
                    node.crossmatch.leases.reap()
                    node.query.sender.leases.reap()
                after_items, _ = _e22_residuals(fed, qid)
                assert after_items == 0, "TTL backstop failed to reap"
                reclaim_s = STREAM_TTL_S
            else:
                reclaim_s = 0.0
            follow_up = portal.submit(sql)
            report.add_row(
                "eager cancel" if eager else "TTL-only",
                chain_mode,
                metrics.cancels,
                metrics.eager_reclaims,
                items,
                round(held_kb, 1),
                reclaim_s,
                round(cancel_kb, 2),
                "oracle" if follow_up.rows == oracle_result.rows else "NO",
                round(late_s, 3),
            )

    # --- losing regime 1: the budget header taxes instant queries --------
    plain = fresh_federation(n_bodies=n_bodies)
    plain.network.metrics.reset()
    plain.portal.submit(sql)
    plain_bytes = sum(plain.network.metrics.bytes_by_phase().values())
    stamped = fresh_federation(n_bodies=n_bodies)
    stamped.network.metrics.reset()
    stamped.portal.submit(
        sql, deadline_s=stamped.network.clock.now + 1e9
    )
    stamped_bytes = sum(stamped.network.metrics.bytes_by_phase().values())
    header_overhead = stamped_bytes - plain_bytes
    report.note(
        f"Losing regime (instant queries): a generous deadline changes "
        f"no answer but stamps a QueryBudget header on every request — "
        f"{header_overhead} extra wire bytes "
        f"({100.0 * header_overhead / plain_bytes:.2f}%) on a query that "
        f"finishes with budget to spare. Deadlines are free only when "
        f"you do not set them."
    )

    # --- losing regime 2: a cancel storm over near-empty state -----------
    tiny = fresh_federation(
        n_bodies=max(40, n_bodies // 20),
        chain_mode="pipelined",
        chunk_budget_bytes=1024,
    )
    tiny.portal.stream_pull_window = 1
    t0 = tiny.network.clock.now
    tiny.portal.submit(sql)
    tiny_duration = tiny.network.clock.now - t0
    storm = fresh_federation(
        n_bodies=max(40, n_bodies // 20),
        chain_mode="pipelined",
        chunk_budget_bytes=1024,
    )
    storm.portal.stream_pull_window = 1
    storm.network.metrics.reset()
    degraded = 0
    for _ in range(storm_queries):
        outcome = storm.portal.submit(
            sql,
            deadline_s=storm.network.clock.now + 0.5 * tiny_duration,
        )
        degraded += 1 if outcome.degraded else 0
    storm_cancel_bytes = storm.network.metrics.total_bytes(phase="cancel")
    storm_freed = storm.network.metrics.eager_reclaims
    report.note(
        f"Losing regime (cancel storm): {degraded}/{storm_queries} "
        f"deadline-expired queries on a tiny federation fanned "
        f"{storm.network.metrics.cancels} CancelQuery calls "
        f"({storm_cancel_bytes} wire bytes) to free just {storm_freed} "
        f"residual object(s) — state so small the TTL reaper would have "
        f"handled it for zero wire bytes. Eager cancellation pays off in "
        f"proportion to the state it frees, not the queries it touches."
    )
    report.note(
        "Synchronous-simulation caveat: the chain stops executing the "
        "moment the deadline fault propagates, so no arm can waste "
        "*recompute* downstream of the fault; in a real asynchronous "
        "federation the TTL-only arm would additionally keep executing "
        "until each hop next touched the wire. The custody and "
        "reclaim-latency columns are therefore a LOWER bound on what "
        "eager cancellation saves."
    )
    report.note(
        "Integrity bars, re-checked every arm: the degraded answer is "
        "empty with a typed deadline warning (never a silent partial "
        "row set), a follow-up unbudgeted query on the same federation "
        "still returns the oracle answer ('answer after'), and the "
        "TTL-only arm's leftovers provably vanish once the reapers run."
    )
    return report


def check(report: ExperimentReport, quick: bool) -> None:
    rows = {(row[0], row[1]): row for row in report.rows}
    for mode in ("store-forward", "pipelined"):
        eager = rows[("eager cancel", mode)]
        ttl = rows[("TTL-only", mode)]
        # Eager cancellation strictly reduces wasted downstream custody:
        # zero leftovers at zero latency vs items parked until the TTL.
        assert eager[4] == 0, f"eager arm left residual state: {eager}"
        assert eager[6] == 0.0, f"eager arm had reclaim latency: {eager}"
        assert ttl[4] > eager[4], (ttl, eager)
        assert ttl[6] > 0.0, f"TTL arm claims instant reclaim: {ttl}"
        # The eager arm actually cancelled; the TTL arm never did.
        assert eager[2] > 0 and eager[3] > 0, eager
        assert ttl[2] == 0 and ttl[3] == 0, ttl
        # Cancellation costs wire bytes — nonzero, reported, and only
        # on the arm that fans out.
        assert eager[7] > 0.0 and ttl[7] == 0.0, (eager, ttl)
        # Neither arm perturbs the federation for the next caller.
        assert eager[8] == "oracle" and ttl[8] == "oracle", (eager, ttl)

    # Losing regimes are documented, not hidden.
    assert any("instant queries" in n for n in report.notes)
    assert any("cancel storm" in n for n in report.notes)
    assert any("LOWER bound" in n for n in report.notes)


EXPERIMENT = Experiment(
    exp_id="E22",
    claim="§5.3 long-running federated queries need budgets and cleanup — "
    "deadlines + cooperative cancellation (extension)",
    shape="a deadline-dead query degrades to an empty, typed-warning answer; "
    "eager CancelQuery leaves zero custody and zero reclaim latency where "
    "TTL-only holds state for the whole TTL; follow-up answers stay "
    "oracle-identical; header tax and cancel storms are the losing regimes",
    run=run,
    check=check,
    full=dict(n_bodies=800, storm_queries=6),
    quick=dict(n_bodies=300, storm_queries=3),
)
