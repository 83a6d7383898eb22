"""E19 — extension: live ingest under load, snapshot reads, replica lag."""

from __future__ import annotations

from repro.bench.registry import Experiment
from repro.bench.reporting import ExperimentReport
from repro.bench.scenarios import fresh_federation


def run(
    *, n_bodies: int, n_epochs: int, rows_per_epoch: int
) -> ExperimentReport:
    """Live ingest under query load vs the quiescent federation.

    A replica-backed federation answers the paper query between epoch
    commits: both SDSS and TWOMASS ingest the same fresh bodies, so each
    epoch genuinely grows the match set. Measured per epoch: query
    latency (simulated seconds) against the quiescent baseline, the
    ingest commit makespan, the replica catch-up lag (how long the
    mirror's Commit delivery trails the primary's inside the 2PC
    decision), and the staged wire bytes. A final arm replays the first
    query pinned at its epochs — the repeatable read — and a
    replica-free build prices the fan-out.
    """
    from repro.services.retry import RetryPolicy
    from repro.workloads.skysim import generate_bodies, observe_survey

    # Two-archive cross-match over the two surveys that ingest below —
    # every committed epoch can genuinely grow the match set. (The
    # 3-archive paper query would gate new matches on FIRST, which does
    # not observe the fresh bodies.)
    sql = (
        "SELECT O.object_id, O.ra, T.obj_id "
        "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T "
        "WHERE AREA(185.0, -0.5, 900.0) AND XMATCH(O, T) < 3.5"
    )

    def build(replicas: int = 1):
        return fresh_federation(
            n_bodies=n_bodies,
            seed=19,
            retry_policy=RetryPolicy(
                max_attempts=3, timeout_s=5.0, base_backoff_s=0.2,
                max_backoff_s=2.0, seed=19,
            ),
            replicas=replicas,
            ingest=True,
        )

    def observation(fed, archive, offset):
        config = fed.config
        survey = next(s for s in config.surveys if s.archive == archive)
        obs = observe_survey(
            survey,
            generate_bodies(
                config.sky_field, rows_per_epoch, config.seed + offset
            ),
            config.seed + offset,
        )
        columns = list(obs.rows[0].keys())
        rows = [tuple(row[c] for c in columns) for row in obs.rows]
        return survey.primary_table, columns, rows

    def timed_query(fed, **kwargs):
        start = fed.network.clock.now
        if kwargs:
            result = fed.portal.submit(sql, **kwargs)
        else:
            result = fed.client().submit(sql)
        return result, fed.network.clock.now - start

    def ingest_epoch(fed, offset):
        """Commit one epoch into SDSS+TWOMASS; returns (s, lag_s, bytes)."""
        metrics = fed.network.metrics
        ingest_bytes = (
            metrics.total_bytes(phase="ingest")
            + metrics.total_bytes(phase="transaction")
        )
        mark = len(metrics.messages)
        start = fed.network.clock.now
        lags = []
        for archive in ("SDSS", "TWOMASS"):
            table, columns, rows = observation(fed, archive, offset)
            result = fed.ingest_client(archive).ingest_rows(
                table, columns, rows
            )
            assert result.committed, result.abort_reason
        commits = [
            m.sim_time for m in metrics.messages[mark:]
            if m.kind == "request" and m.operation == "Commit"
        ]
        # Two archives committed, each delivering Commit to its primary
        # then its mirrors; the lag is how far the last delivery trails
        # the first within one archive's decision.
        if commits:
            half = len(commits) // 2
            lags = [
                max(chunk) - min(chunk)
                for chunk in (commits[:half], commits[half:])
                if chunk
            ]
        new_bytes = (
            metrics.total_bytes(phase="ingest")
            + metrics.total_bytes(phase="transaction")
            - ingest_bytes
        )
        return (
            fed.network.clock.now - start,
            max(lags) if lags else 0.0,
            new_bytes,
        )

    report = ExperimentReport(
        exp_id="E19",
        title="Live ingest under load: snapshot queries + replica catch-up",
        source="Section 6 future work (archives keep observing); extension",
        headers=[
            "arm", "epoch", "matches", "query s", "vs quiescent s",
            "ingest s", "replica lag s", "ingest B",
        ],
    )

    # Quiescent baseline: the same query on the untouched federation.
    quiet = build()
    q_result, q_elapsed = timed_query(quiet)
    report.add_row(
        "quiescent", 0, len(q_result.rows), round(q_elapsed, 3), 0.0,
        None, None, None,
    )

    # Under load: query between epoch commits.
    fed = build()
    r0, e0 = timed_query(fed)
    assert list(r0.rows) == list(q_result.rows)
    report.add_row(
        "under load", 0, len(r0.rows), round(e0, 3),
        round(e0 - q_elapsed, 3), None, None, None,
    )
    matches = [len(r0.rows)]
    for epoch in range(1, n_epochs + 1):
        ingest_s, lag_s, ingest_b = ingest_epoch(fed, 100 + epoch)
        result, elapsed = timed_query(fed)
        assert result.epochs["O"] == epoch
        matches.append(len(result.rows))
        report.add_row(
            "under load", epoch, len(result.rows), round(elapsed, 3),
            round(elapsed - q_elapsed, 3), round(ingest_s, 3),
            round(lag_s, 4), ingest_b,
        )

    # The repeatable read: the first query's answer, replayed bit for bit
    # at its pinned epochs after every ingest has landed.
    pinned, pinned_s = timed_query(fed, pin_epochs=dict(r0.epochs))
    assert sorted(pinned.rows) == sorted(r0.rows)
    report.add_row(
        "pinned replay @0", 0, len(pinned.rows), round(pinned_s, 3),
        round(pinned_s - q_elapsed, 3), None, None, None,
    )

    # Fan-out priced: the same first epoch with no replicas provisioned.
    bare = build(replicas=0)
    bare_s, _, bare_b = ingest_epoch(bare, 101)
    report.add_row(
        "no-replica ingest", 1, None, None, None,
        round(bare_s, 3), 0.0, bare_b,
    )

    report.note(
        "Query latency under load grows with the data, not the ingest "
        "machinery: each epoch adds rows inside the query area, so the "
        "chain carries more candidate tuples. The pinned replay reads the "
        "epoch-0 snapshot and stays at (or near) the quiescent latency "
        "even though the live tables have grown past it."
    )
    report.note(
        "Replica catch-up lag is the decision-delivery gap inside 2PC: "
        "the mirror commits the epoch one Commit-message transfer after "
        "the primary. Until that delivery lands, a failover read at the "
        "new epoch would fail — the lag is the price of lockstep."
    )
    report.note(
        "Losing regimes, honestly: replica fan-out roughly doubles the "
        "staged wire bytes and stretches the commit makespan vs the "
        "no-replica arm (every batch travels once per participant). "
        "Epoch GC (keep_epochs) bounds the snapshot history: a reader "
        "pinned past it gets StaleEpochError and must re-plan, and "
        "holding more epochs holds more row versions. And ingest commits "
        "serialize behind the 2PC decision — an upload burst delays its "
        "own later batches, though never a pinned reader."
    )
    assert matches == sorted(matches), "epochs must only grow the answer"
    return report


def check(report: ExperimentReport, quick: bool) -> None:
    rows = {(row[0], row[1]): row for row in report.rows}

    quiescent = rows[("quiescent", 0)]
    load0 = rows[("under load", 0)]
    # Epoch 0 under load IS the quiescent run (identical build, no ingest
    # yet): same matches, same simulated latency.
    assert load0[2] == quiescent[2]
    assert abs(load0[3] - quiescent[3]) < 1e-6

    # Each committed epoch grows the answer (both surveys saw the same
    # fresh bodies) and carries real fan-out: a positive commit makespan,
    # a positive replica catch-up lag, and staged bytes on the wire.
    epochs = sorted(e for arm, e in rows if arm == "under load" and e > 0)
    assert epochs, "no ingest epochs measured"
    last_matches = load0[2]
    for epoch in epochs:
        arm = rows[("under load", epoch)]
        assert arm[2] >= last_matches, f"epoch {epoch} shrank the answer"
        last_matches = arm[2]
        assert arm[5] > 0, f"epoch {epoch}: zero ingest makespan"
        assert arm[6] > 0, f"epoch {epoch}: mirror committed instantly?"
        assert arm[7] > 0, f"epoch {epoch}: no ingest bytes on the wire"
    assert rows[("under load", epochs[-1])][2] > load0[2], (
        "ingest never grew the match set — the epochs measured nothing"
    )

    # The repeatable read: pinned at the epoch-0 snapshot, the replay
    # stays at (or near) quiescent latency even after every ingest.
    pinned = rows[("pinned replay @0", 0)]
    assert pinned[2] == quiescent[2]
    loaded = rows[("under load", epochs[-1])]
    assert pinned[3] <= loaded[3], (
        "a pinned snapshot read should not pay the grown-table price"
    )

    # The losing regime is honest: replica fan-out costs real bytes —
    # the replicated commit stages strictly more than the no-replica arm
    # (every batch travels once per participant).
    bare = rows[("no-replica ingest", 1)]
    replicated = rows[("under load", epochs[0])]
    assert replicated[7] > bare[7] * 1.5, (
        f"fan-out cost missing: replicated {replicated[7]} B vs "
        f"bare {bare[7]} B"
    )
    assert bare[6] == 0.0  # and with no mirror there is nothing to lag


EXPERIMENT = Experiment(
    exp_id="E19",
    claim="§6 future work — live ingest with snapshot epochs (extension)",
    shape="epoch commits grow the answer in replica lockstep; pinned reads "
    "replay byte-identically at pre-growth latency; fan-out costs "
    "~participants x staged bytes",
    run=run,
    check=check,
    full=dict(n_bodies=800, n_epochs=3, rows_per_epoch=60),
    quick=dict(n_bodies=400, rows_per_epoch=30),
)
