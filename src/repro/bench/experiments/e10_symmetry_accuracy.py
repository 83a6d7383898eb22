"""E10 — Section 5.4: order symmetry; accuracy vs ground truth."""

from __future__ import annotations

from typing import Sequence

from repro.bench.registry import Experiment
from repro.bench.reporting import ExperimentReport
from repro.bench.scenarios import fresh_federation
from repro.portal.planner import OrderingStrategy


def run(*, n_bodies: int, thresholds: Sequence[float]) -> ExperimentReport:
    """Identical results under any order; precision/recall vs the truth."""
    fed = fresh_federation(n_bodies=n_bodies)
    client = fed.client()

    report = ExperimentReport(
        exp_id="E10",
        title="Order symmetry and match accuracy vs ground truth",
        source="Section 5.4 ('This XMATCH scheme is fully symmetric; the "
        "particular order of the archives considered doesn't matter.')",
        headers=["threshold", "pairs", "precision", "recall", "orders agree"],
    )

    sdss = fed.node("SDSS")
    twomass = fed.node("TWOMASS")
    area_sql = "AREA(185.0, -0.5, 1200.0)"
    in_area = {}
    for archive, node in (("SDSS", sdss), ("TWOMASS", twomass)):
        info = node.info
        result = node.db.execute(
            f"SELECT x.{info.object_id_column} FROM {info.primary_table} x "
            f"WHERE {area_sql}"
        )
        in_area[archive] = {row[0] for row in result.rows}
    truth_pairs = set()
    sdss_by_body = {
        body: oid
        for oid, body in fed.truth["SDSS"].items()
        if oid in in_area["SDSS"]
    }
    for t_oid, body in fed.truth["TWOMASS"].items():
        if t_oid in in_area["TWOMASS"] and body in sdss_by_body:
            truth_pairs.add((sdss_by_body[body], t_oid))

    for threshold in thresholds:
        sql = (
            "SELECT O.object_id, T.obj_id "
            "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T "
            f"WHERE {area_sql} AND XMATCH(O, T) < {threshold}"
        )
        results = {}
        for strategy in OrderingStrategy:
            res = client.submit(sql, strategy=strategy.value)
            results[strategy] = sorted(res.rows)
        agree = len({tuple(map(tuple, rows)) for rows in results.values()}) == 1
        pairs = {tuple(row) for row in results[OrderingStrategy.COUNT_DESC]}
        true_positives = len(pairs & truth_pairs)
        precision = true_positives / len(pairs) if pairs else 1.0
        recall = true_positives / len(truth_pairs) if truth_pairs else 1.0
        report.add_row(
            threshold, len(pairs), round(precision, 4), round(recall, 4), agree
        )
    report.note(
        f"Ground truth: {len(truth_pairs)} body pairs observed by both "
        "surveys inside the AREA. Recall grows with the threshold; "
        "precision stays high until the threshold admits chance alignments."
    )
    return report


def check(report: ExperimentReport, quick: bool) -> None:
    # Orders must agree at every threshold (full symmetry).
    assert all(row[4] for row in report.rows)
    # Recall grows monotonically with the threshold.
    recalls = [row[3] for row in report.rows]
    assert recalls == sorted(recalls)
    # At the paper's 3.5-sigma threshold both precision and recall are high.
    at_35 = next(row for row in report.rows if row[0] == 3.5)
    assert at_35[2] > 0.95 and at_35[3] > 0.95


EXPERIMENT = Experiment(
    exp_id="E10",
    claim="§5.4: XMATCH is fully symmetric",
    shape="identical results under all orderings; accuracy high at 3.5 sigma",
    run=run,
    check=check,
    full=dict(n_bodies=1500, thresholds=(1.0, 2.0, 3.5, 5.0)),
)
