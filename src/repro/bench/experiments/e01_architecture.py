"""E1 — Figure 1: the Web-service architecture and registration handshake."""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

from repro.bench.registry import Experiment
from repro.bench.reporting import ExperimentReport
from repro.bench.scenarios import fresh_federation


def run(*, n_bodies: int) -> ExperimentReport:
    """Registration traffic: which services talk, in which order."""
    fed = fresh_federation(n_bodies=n_bodies)
    report = ExperimentReport(
        exp_id="E1",
        title="Architecture: registration handshake over SOAP/HTTP",
        source="Figure 1 / Section 5.1",
        headers=["operation", "direction", "messages", "wire bytes"],
    )
    registration = [
        m for m in fed.network.metrics.messages if m.phase == "registration"
    ]
    grouped: Dict[Tuple[str, str], List[int]] = defaultdict(list)
    for message in registration:
        direction = (
            "node->portal" if message.dst.startswith("portal") else
            "portal->node" if message.src.startswith("portal") else
            f"{message.src.split('.')[0]}->{message.dst.split('.')[0]}"
        )
        grouped[(message.operation, direction)].append(message.wire_bytes)
    for (operation, direction), sizes in sorted(grouped.items()):
        report.add_row(operation, direction, len(sizes), sum(sizes))
    ops_in_order = [m.operation for m in registration if m.kind == "request"]
    per_node = len(ops_in_order) // max(1, len(fed.nodes))
    report.note(
        f"per-node handshake (request order): {ops_in_order[:per_node]} — "
        "Register triggers the Portal's GetSchema + GetInfo callbacks, "
        "matching Figure 1."
    )
    report.note(
        f"{len(fed.nodes)} SkyNodes registered; catalog holds "
        f"{fed.portal.catalog.archives()}"
    )
    return report


def check(report: ExperimentReport, quick: bool) -> None:
    # Every handshake is Register -> GetSchema -> GetInfo.
    operations = {row[0] for row in report.rows}
    assert operations == {"Register", "GetSchema", "GetInfo"}


EXPERIMENT = Experiment(
    exp_id="E1",
    claim="Fig. 1: registration = Register + Metadata + Information "
    "callbacks over SOAP",
    shape="exact handshake sequence on the wire",
    run=run,
    check=check,
    full=dict(n_bodies=300),
)
