"""E4 — Section 5.3: count-star ordering reduces chain transmission."""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Sequence

from repro.bench.registry import Experiment
from repro.bench.reporting import ExperimentReport
from repro.bench.scenarios import fresh_federation, paper_query
from repro.portal.planner import OrderingStrategy


def run(*, n_bodies: int, radii: Sequence[float]) -> ExperimentReport:
    """Chain bytes under the paper's ordering vs baselines."""
    fed = fresh_federation(n_bodies=n_bodies)
    client = fed.client()
    report = ExperimentReport(
        exp_id="E4",
        title="Count-star ordering reduces chain transmission",
        source="Section 5.3 ('the order based on the count star values will "
        "often decrease the network transmission costs')",
        headers=[
            "AREA radius (arcsec)", "ordering", "chain bytes",
            "chain msgs", "sim seconds", "rows",
        ],
    )
    strategies = [
        OrderingStrategy.COUNT_DESC,
        OrderingStrategy.COUNT_ASC,
        OrderingStrategy.RANDOM,
        OrderingStrategy.AS_WRITTEN,
    ]
    baseline_rows: Dict[float, int] = {}
    for radius in radii:
        for strategy in strategies:
            fed.network.metrics.reset()
            result = client.submit(
                paper_query(radius_arcsec=radius), strategy=strategy.value
            )
            metrics = fed.network.metrics
            report.add_row(
                radius,
                strategy.value,
                metrics.total_bytes(phase="crossmatch-chain"),
                metrics.message_count(phase="crossmatch-chain"),
                round(metrics.simulated_seconds, 3),
                len(result),
            )
            baseline_rows.setdefault(radius, len(result))
            if baseline_rows[radius] != len(result):
                report.note(
                    f"RESULT MISMATCH at radius {radius} for {strategy.value}!"
                )
    report.note(
        "Same result rows under every ordering (the algorithm is "
        "symmetric); count_desc ships the smallest partial results."
    )
    return report


def check(report: ExperimentReport, quick: bool) -> None:
    # At every radius the paper's ordering ships no more bytes than the
    # worst baseline, and beats count-ascending.
    by_radius = defaultdict(dict)
    for radius, ordering, chain_bytes, _, _, _ in report.rows:
        by_radius[radius][ordering] = chain_bytes
    for radius, orderings in by_radius.items():
        assert orderings["count_desc"] <= max(orderings.values())
        assert orderings["count_desc"] <= orderings["count_asc"], radius


EXPERIMENT = Experiment(
    exp_id="E4",
    claim="§5.3: count-star descending order \"will often decrease the "
    "network transmission costs\"",
    shape="count_desc <= count_asc bytes at every radius",
    run=run,
    check=check,
    full=dict(n_bodies=1500, radii=(450.0, 900.0, 1800.0)),
)
