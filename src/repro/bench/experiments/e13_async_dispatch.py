"""E13 — ablation: asynchronous vs sequential performance queries."""

from __future__ import annotations

from repro.bench.registry import Experiment
from repro.bench.reporting import ExperimentReport
from repro.bench.scenarios import fresh_federation, paper_query
from repro.portal.decompose import decompose
from repro.sql.parser import parse_query


def run(*, n_bodies: int) -> ExperimentReport:
    """Parallel vs sequential count-star probes over uneven links.

    Section 5.3: performance queries "are passed as asynchronous SOAP
    messages". With archives behind links of very different latency, the
    asynchronous makespan is the slowest round trip instead of the sum.
    """
    fed = fresh_federation(n_bodies=n_bodies)
    portal = fed.portal
    # Uneven Internet: FIRST is far away.
    portal_host = portal.hostname
    latencies = {"SDSS": 0.02, "TWOMASS": 0.08, "FIRST": 0.3}
    for archive, latency in latencies.items():
        fed.network.set_link(
            portal_host, fed.node(archive).hostname, latency_s=latency
        )
    decomposed = decompose(
        parse_query(paper_query(radius_arcsec=900.0)), portal.catalog
    )

    def elapsed_sequential() -> float:
        start = fed.network.clock.now
        with fed.network.phase("performance-query"):
            for alias in decomposed.mandatory_aliases:
                subquery = decomposed.subqueries[alias]
                record = portal.catalog.node(subquery.archive)
                proxy = portal.proxy(record.services["query"])
                proxy.call("ExecuteQuery", sql=subquery.perf_sql)
        return fed.network.clock.now - start

    def elapsed_parallel() -> float:
        start = fed.network.clock.now
        portal.planner.performance_counts(decomposed)
        return fed.network.clock.now - start

    sequential = elapsed_sequential()
    parallel = elapsed_parallel()
    report = ExperimentReport(
        exp_id="E13",
        title="Ablation: asynchronous vs sequential performance queries",
        source="Section 5.3 ('passed as asynchronous SOAP messages')",
        headers=["dispatch", "elapsed sim seconds", "speedup"],
    )
    report.add_row("sequential", round(sequential, 4), 1.0)
    report.add_row(
        "asynchronous (paper)", round(parallel, 4),
        round(sequential / parallel, 2) if parallel else None,
    )
    report.note(
        f"Per-archive link latencies: {latencies}; asynchronous dispatch "
        "hides everything but the slowest archive's round trip."
    )
    return report


def check(report: ExperimentReport, quick: bool) -> None:
    rows = {row[0]: row for row in report.rows}
    sequential = rows["sequential"][1]
    parallel = rows["asynchronous (paper)"][1]
    assert parallel < sequential, (
        "asynchronous dispatch must beat sequential over uneven links"
    )


EXPERIMENT = Experiment(
    exp_id="E13",
    claim="§5.3: performance queries sent \"as asynchronous SOAP messages\" "
    "(ablation)",
    shape="async makespan = slowest archive, beating sequential over "
    "uneven links",
    run=run,
    check=check,
    full=dict(n_bodies=800),
)
