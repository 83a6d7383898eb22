"""E9 — Section 5.3: performance queries warm the buffer cache."""

from __future__ import annotations

from collections import defaultdict

from repro.bench.registry import Experiment, published_rows
from repro.bench.reporting import ExperimentReport
from repro.bench.scenarios import fresh_federation, paper_query
from repro.portal.decompose import decompose
from repro.sql.parser import parse_query


def run(*, n_bodies: int) -> ExperimentReport:
    """Physical reads during the chain, cold cache vs count-star-warmed."""
    fed = fresh_federation(n_bodies=n_bodies, buffer_pages=2048)
    portal = fed.portal
    query = parse_query(paper_query(radius_arcsec=1200.0))
    decomposed = decompose(query, portal.catalog)
    counts = portal.planner.performance_counts(decomposed)
    plan = portal.planner.build_plan(decomposed, counts)

    report = ExperimentReport(
        exp_id="E9",
        title="Count-star performance queries warm the buffer cache",
        source="Section 5.3 ('This will often warm the database cache on "
        "each SkyNode with index pages that satisfy the main cross match "
        "query')",
        headers=[
            "scenario", "archive", "physical reads", "logical reads",
            "hit ratio",
        ],
    )

    def run_chain_collect(scenario: str, warm: bool) -> None:
        for node in fed.nodes.values():
            node.db.buffer.clear()
            node.db.buffer.reset_stats()
        if warm:
            portal.planner.performance_counts(decomposed)
            for node in fed.nodes.values():
                node.db.buffer.reset_stats()  # count only the chain's reads
        result = portal.executor.execute(plan, decomposed)
        for stats in result.node_stats:
            logical = stats["logical_reads"]
            physical = stats["physical_reads"]
            ratio = 1.0 - physical / logical if logical else 0.0
            report.add_row(
                scenario, stats["archive"], physical, logical, round(ratio, 3)
            )

    run_chain_collect("cold cache", warm=False)
    run_chain_collect("after performance queries", warm=True)
    report.note(
        "The warming pass touches exactly the pages the cross match needs "
        "(same AREA + predicates), so the chain's physical reads drop."
    )
    return report


def check(report: ExperimentReport, quick: bool) -> None:
    published = {
        (scenario, archive): (int(phys), int(logical))
        for scenario, archive, phys, logical, _ in published_rows("E9")
    }
    assert {
        (scenario, archive): (phys, logical)
        for scenario, archive, phys, logical, _ in report.rows
    } == published, "E9 buffer reads must reproduce the published table"
    physical = defaultdict(dict)
    for scenario, archive, phys, _, _ in report.rows:
        physical[archive][scenario] = phys
    for archive, scenarios in physical.items():
        assert (
            scenarios["after performance queries"] <= scenarios["cold cache"]
        ), archive
    total_cold = sum(s["cold cache"] for s in physical.values())
    total_warm = sum(
        s["after performance queries"] for s in physical.values()
    )
    assert total_warm < total_cold, "warming must reduce physical reads overall"


EXPERIMENT = Experiment(
    exp_id="E9",
    claim="§5.3: performance queries warm the cache",
    shape="physical reads drop after the count-star pass",
    run=run,
    check=check,
    full=dict(n_bodies=2500),
    # Quick runs at the published size: the check pins every read to the
    # published table.
    quick={},
)
