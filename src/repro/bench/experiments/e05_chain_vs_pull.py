"""E5 — Section 5.1: chained partial results vs pull-to-portal."""

from __future__ import annotations

from typing import Sequence

from repro.baselines.pull_mediator import PullMediator
from repro.bench.registry import Experiment
from repro.bench.reporting import ExperimentReport
from repro.bench.scenarios import fresh_federation, paper_query


def run(*, n_bodies: int, radii: Sequence[float]) -> ExperimentReport:
    """SkyQuery's chained shipping vs the classic pull mediator."""
    fed = fresh_federation(n_bodies=n_bodies)
    client = fed.client()
    puller = PullMediator(fed.portal)
    report = ExperimentReport(
        exp_id="E5",
        title="Chained partial results vs pulling everything to the Portal",
        source="Section 5.1 ('SkyQuery, instead, moves the partial results "
        "... along a chain')",
        headers=[
            "AREA radius (arcsec)", "strategy", "data bytes", "messages",
            "sim seconds", "rows",
        ],
    )
    for radius in radii:
        sql = paper_query(radius_arcsec=radius)

        fed.network.metrics.reset()
        chain_result = client.submit(sql)
        m = fed.network.metrics
        chain_bytes = m.total_bytes(phase="crossmatch-chain") + m.total_bytes(
            phase="performance-query"
        )
        report.add_row(
            radius, "chain (SkyQuery)", chain_bytes,
            m.message_count(phase="crossmatch-chain")
            + m.message_count(phase="performance-query"),
            round(m.simulated_seconds, 3), len(chain_result),
        )

        fed.network.metrics.reset()
        pull_result = puller.execute(sql)
        m = fed.network.metrics
        report.add_row(
            radius, "pull-to-portal", m.total_bytes(phase="pull-mediator"),
            m.message_count(phase="pull-mediator"),
            round(m.simulated_seconds, 3), len(pull_result),
        )
        if sorted(chain_result.rows) != sorted(pull_result.rows):
            report.note(f"RESULT MISMATCH at radius {radius}!")
    report.note(
        "Both strategies return identical rows; the chain only ships "
        "surviving partial tuples while the pull baseline ships every "
        "AREA-qualified row of every archive (both in the colset wire "
        "form). Pull wins the smallest AREA on bytes; the chain wins from "
        "the crossover radius up."
    )
    return report


def check(report: ExperimentReport, quick: bool) -> None:
    # For the largest (least selective) AREA, the chain ships fewer data
    # bytes than pulling every archive's rows to the Portal.
    radii = sorted({row[0] for row in report.rows})
    data_bytes = {(row[0], row[1]): row[2] for row in report.rows}
    chain_wins = [
        data_bytes[r, "chain (SkyQuery)"] < data_bytes[r, "pull-to-portal"]
        for r in radii
    ]
    assert chain_wins[-1]
    # The measured crossover, with the pull baseline pulling colsets: pull
    # wins the 450" AREA on bytes, the chain wins from 900" up (at 900" by
    # ~1 % at 1200 bodies, 42,560 vs 42,999 B; by ~12 % at 1500).
    assert chain_wins == [False, True, True]


EXPERIMENT = Experiment(
    exp_id="E5",
    claim="§5.1: chaining partial results beats pulling everything to the "
    "Portal",
    shape="chain < pull for unselective queries; pull can win tiny queries "
    "(RPC overhead) — a real crossover: with both sides on the colset wire "
    "form, pull wins 450″ on bytes and the chain wins from 900″ up",
    run=run,
    check=check,
    full=dict(n_bodies=1500, radii=(450.0, 900.0, 1800.0)),
    quick=dict(n_bodies=1200),
)
