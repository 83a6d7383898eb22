"""E6 — Section 6: the XML parser memory ceiling and chunked transfers."""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from repro.bench.registry import Experiment
from repro.bench.reporting import ExperimentReport
from repro.bench.scenarios import fresh_federation
from repro.errors import SoapFaultError


def run(
    *, n_bodies: int, parser_memory_limit: int, budgets: Sequence[int]
) -> ExperimentReport:
    """Monolithic SOAP messages OOM the receiving parser; chunking works."""
    sql = (
        "SELECT O.object_id, T.obj_id "
        "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T "
        "WHERE AREA(185.0, -0.5, 1800.0) AND XMATCH(O, T) < 3.5"
    )
    report = ExperimentReport(
        exp_id="E6",
        title="XML parser memory ceiling and the chunking workaround",
        source="Section 6 ('The XML parser at the SkyNode would run out of "
        "memory while parsing SOAP messages of about 10 MB. We worked "
        "around by dividing large data sets into smaller chunks.')",
        headers=[
            "transfer mode", "outcome", "chain msgs", "control bytes",
            "chunk-fetch bytes", "max envelope B", "peak parse need B",
            "sim seconds",
        ],
    )

    def transfer(chunk_budget: Optional[int]) -> Tuple[str, Dict[str, Any]]:
        fed = fresh_federation(
            n_bodies=n_bodies,
            parser_memory_limit=parser_memory_limit,
            chunk_budget_bytes=chunk_budget,
        )
        fed.network.metrics.reset()
        client = fed.client()
        try:
            result = client.submit(sql)
            outcome = f"ok ({len(result)} rows)"
        except SoapFaultError as fault:
            outcome = f"FAULT: {fault.faultcode}"
        metrics = fed.network.metrics
        # Chunk drains run under their own phase label so payload bytes
        # separate from chain-control bytes in the accounting.
        chain = [
            m
            for m in metrics.messages
            if m.phase in ("crossmatch-chain", "chunk-transfer")
        ]
        peak = max(
            (node.parser.peak_memory_bytes for node in fed.nodes.values()),
            default=0,
        )
        return outcome, {
            "msgs": len(chain),
            "control": metrics.total_bytes(phase="crossmatch-chain"),
            "fetch": metrics.total_bytes(phase="chunk-transfer"),
            "max_envelope": max((m.wire_bytes for m in chain), default=0),
            "peak": peak,
            "sim": round(metrics.simulated_seconds, 3),
        }

    outcome, stats = transfer(None)
    report.add_row(
        "monolithic", outcome, stats["msgs"], stats["control"],
        stats["fetch"], stats["max_envelope"], stats["peak"], stats["sim"],
    )
    for budget in budgets:
        outcome, stats = transfer(budget)
        report.add_row(
            f"chunked <= {budget} B", outcome, stats["msgs"],
            stats["control"], stats["fetch"], stats["max_envelope"],
            stats["peak"], stats["sim"],
        )
    report.note(
        f"Receiver parser budget: {parser_memory_limit} B at 4x DOM "
        "expansion — documents above a quarter of the budget fail, "
        "mirroring the paper's ~10 MB ceiling (scaled down for test speed)."
    )
    report.note(
        "Smaller chunks -> more messages and more total bytes (per-message "
        "overhead), but bounded parser memory: the paper's trade-off."
    )
    return report


def check(report: ExperimentReport, quick: bool) -> None:
    outcomes = {row[0]: row[1] for row in report.rows}
    assert outcomes["monolithic"].startswith("FAULT"), (
        "monolithic transfer must hit the parser memory ceiling"
    )
    assert all(
        outcome.startswith("ok")
        for mode, outcome in outcomes.items()
        if mode.startswith("chunked")
    )
    # Smaller chunk budgets -> more chain messages.
    msgs = [row[2] for row in report.rows if str(row[0]).startswith("chunked")]
    assert msgs == sorted(msgs, reverse=True)


EXPERIMENT = Experiment(
    exp_id="E6",
    claim="§6: parser OOM at ~10 MB; chunking works around it",
    shape="monolithic faults above the ceiling, chunked succeeds; smaller "
    "chunks => more messages",
    run=run,
    check=check,
    full=dict(
        n_bodies=4000,
        parser_memory_limit=1_000_000,
        budgets=(32_768, 65_536, 131_072),
    ),
    quick=dict(n_bodies=2500, parser_memory_limit=600_000),
)
