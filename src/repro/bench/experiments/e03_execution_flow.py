"""E3 — Figure 3: the seven-step execution flow of the sample query."""

from __future__ import annotations

from repro.bench.registry import Experiment
from repro.bench.reporting import ExperimentReport
from repro.bench.scenarios import fresh_federation, paper_query


def run(*, n_bodies: int) -> ExperimentReport:
    """Trace the sample query through the Portal and the chain."""
    fed = fresh_federation(n_bodies=n_bodies)
    fed.network.metrics.reset()
    client = fed.client()
    result = client.submit(paper_query(radius_arcsec=900.0))
    metrics = fed.network.metrics

    report = ExperimentReport(
        exp_id="E3",
        title="Execution flow of the Section 5.2 sample query",
        source="Figure 3 / Section 5.3",
        headers=["step", "what happens", "measured"],
    )
    report.add_row(
        1,
        "Client submits the query to the Portal's SkyQuery service",
        f"{metrics.message_count(phase='client')} msgs, "
        f"{metrics.total_bytes(phase='client')} B (incl. final relay)",
    )
    report.add_row(
        2, "Portal decomposes the query into performance queries",
        f"{len(result.counts)} count-star queries (mandatory archives)",
    )
    report.add_row(
        3,
        "Performance queries go to each Query service as SOAP messages",
        f"{metrics.message_count(phase='performance-query')} msgs, "
        f"{metrics.total_bytes(phase='performance-query')} B",
    )
    report.add_row(
        4, "Count-star results arrive at the Portal",
        "; ".join(f"{alias}={count}" for alias, count in result.counts.items()),
    )
    plan_order = [
        (step["alias"], step["count_star"], bool(step["dropout"]))
        for step in (result.plan or {}).get("steps", [])
    ]
    report.add_row(
        5,
        "Portal builds the plan: decreasing count, drop-outs first",
        " -> ".join(
            f"{alias}({'drop' if dropout else count})"
            for alias, count, dropout in plan_order
        ),
    )
    chain = [
        f"{s['archive']}[{s['role']}] in={s['tuples_in']} out={s['tuples_out']}"
        for s in result.node_stats
    ]
    report.add_row(
        6,
        "Daisy chain executes in reverse list order (smallest node seeds)",
        "; ".join(chain),
    )
    report.add_row(
        7,
        "Partial results flow back; Portal projects and relays",
        f"{metrics.total_bytes(phase='crossmatch-chain')} B on the chain, "
        f"{len(result)} final rows",
    )
    return report


def check(report: ExperimentReport, quick: bool) -> None:
    assert len(report.rows) == 7  # the seven steps of Figure 3


EXPERIMENT = Experiment(
    exp_id="E3",
    claim="Fig. 3: 7-step execution flow",
    shape="steps occur in order with the paper's roles",
    run=run,
    check=check,
    full=dict(n_bodies=1200),
    quick=dict(n_bodies=800),
)
