"""E14 — extension: byte-calibrated ordering vs the paper's count star."""

from __future__ import annotations

from repro.bench.registry import Experiment
from repro.bench.reporting import ExperimentReport
from repro.bench.scenarios import fresh_federation


def run(*, n_bodies: int) -> ExperimentReport:
    """Count-star ordering vs black-box byte calibration (Du92/Zhu96 idea).

    Count star estimates rows, but transmission cost is bytes: a query
    that ships five SDSS flux columns plus a type string per tuple but
    only one TWOMASS column makes SDSS rows ~4x wider. When the wide
    archive also has the *smaller* count, the paper's ordering seeds the
    chain with wide rows that then travel every hop; ordering by
    calibrated count x bytes-per-row keeps the wide rows near the front
    of the list (fewest hops).
    """
    fed = fresh_federation(n_bodies=n_bodies)
    client = fed.client()
    # O has the GALAXY filter (count ~0.66x) but contributes 6 wide attrs;
    # T has the larger count but a single attribute.
    sql = (
        "SELECT O.object_id, O.type, O.u_flux, O.g_flux, O.r_flux, "
        "O.i_flux, O.z_flux, T.obj_id "
        "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T "
        "WHERE AREA(185.0, -0.5, 1200.0) AND XMATCH(O, T) < 3.5 "
        "AND O.type = GALAXY"
    )
    report = ExperimentReport(
        exp_id="E14",
        title="Extension: byte-calibrated ordering vs count-star ordering",
        source="Section 5.3 black-box cost estimation ([Du92], [Zhu96]); "
        "count star measures rows, transmission cost is bytes",
        headers=[
            "ordering", "plan list", "chain bytes", "calibration bytes",
            "rows",
        ],
    )
    reference_rows = None
    for strategy in ("count_desc", "bytes_desc"):
        fed.network.metrics.reset()
        result = client.submit(sql, strategy=strategy)
        metrics = fed.network.metrics
        plan_list = " -> ".join(
            step["alias"] for step in (result.plan or {}).get("steps", [])
        )
        report.add_row(
            strategy,
            plan_list,
            metrics.total_bytes(phase="crossmatch-chain"),
            metrics.total_bytes(phase="calibration"),
            len(result),
        )
        if reference_rows is None:
            reference_rows = sorted(result.rows)
        elif sorted(result.rows) != reference_rows:
            report.note("RESULT MISMATCH between orderings!")
    report.note(
        "Identical results; the byte-calibrated plan places the wide-row "
        "archive first on the list so its attributes travel the fewest "
        "hops, at the price of a small calibration probe per archive."
    )
    return report


def check(report: ExperimentReport, quick: bool) -> None:
    rows = {row[0]: row for row in report.rows}
    count_row = rows["count_desc"]
    bytes_row = rows["bytes_desc"]
    # Same results, fewer chain bytes for the calibrated plan, and the
    # saving must exceed the calibration probes' own cost.
    assert count_row[4] == bytes_row[4]
    assert bytes_row[2] < count_row[2]
    assert (count_row[2] - bytes_row[2]) > bytes_row[3] * 0.5


EXPERIMENT = Experiment(
    exp_id="E14",
    claim="§5.3 black-box cost estimation ([Du92]/[Zhu96]) extension",
    shape="calibrated count-x-bytes ordering ships fewer chain bytes than "
    "count-only when row widths differ",
    run=run,
    check=check,
    full=dict(n_bodies=1500),
    quick={},
)
