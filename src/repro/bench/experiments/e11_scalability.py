"""E11 — scaling the daisy chain from 2 to 5 federated archives."""

from __future__ import annotations

from typing import Sequence

from repro.bench.registry import Experiment
from repro.bench.reporting import ExperimentReport
from repro.bench.scenarios import survey_chain_federation, survey_chain_query


def run(*, node_counts: Sequence[int], n_bodies: int) -> ExperimentReport:
    """Chain cost and tuple attrition as archives are added."""
    report = ExperimentReport(
        exp_id="E11",
        title="Scaling the chain: 2-5 federated archives",
        source="Section 2 (the federation must scale to many archives) / "
        "Section 5.3 cost model",
        headers=[
            "archives", "chain bytes", "chain msgs", "sim seconds",
            "tuples per hop", "final rows",
        ],
    )
    for n_nodes in node_counts:
        fed = survey_chain_federation(n_nodes, n_bodies)
        fed.network.metrics.reset()
        result = fed.client().submit(survey_chain_query(n_nodes))
        metrics = fed.network.metrics
        hops = " -> ".join(
            str(stats["tuples_out"]) for stats in result.node_stats
        )
        report.add_row(
            n_nodes,
            metrics.total_bytes(phase="crossmatch-chain"),
            metrics.message_count(phase="crossmatch-chain"),
            round(metrics.simulated_seconds, 3),
            hops,
            len(result),
        )
    report.note(
        "Each added archive adds one hop; surviving tuples shrink "
        "monotonically along the chain, so per-hop payloads stay bounded."
    )
    return report


def check(report: ExperimentReport, quick: bool) -> None:
    # Chain messages grow linearly: 2 per hop, hops = archives.
    for row in report.rows:
        archives, _, messages = row[0], row[1], row[2]
        assert messages == 2 * archives
    # Tuple counts shrink monotonically along every chain.
    for row in report.rows:
        hops = [int(x) for x in str(row[4]).split(" -> ")]
        assert hops == sorted(hops, reverse=True)


EXPERIMENT = Experiment(
    exp_id="E11",
    claim="§2/§5.3: federation must scale in archives",
    shape="linear messages per added hop; monotone tuple attrition",
    run=run,
    check=check,
    full=dict(node_counts=(2, 3, 4, 5), n_bodies=1000),
)
