"""E2 — Figure 2: XMATCH selects {aO,aT,aP}; XMATCH with !P selects {bO,bT}."""

from __future__ import annotations

from repro.bench.registry import Experiment
from repro.bench.reporting import ExperimentReport
from repro.bench.scenarios import build_figure2_federation


def run() -> ExperimentReport:
    """The two-body scenario: mandatory vs drop-out selection."""
    fed, ids = build_figure2_federation()
    client = fed.client()
    base = (
        "SELECT O.object_id, T.object_id, P.object_id "
        "FROM SDSS:objects O, TWOMASS:objects T, FIRST:objects P "
        "WHERE AREA(185.0, -0.5, 180.0) AND XMATCH({terms}) < 3.5"
    )
    report = ExperimentReport(
        exp_id="E2",
        title="XMATCH semantics on the Figure 2 scenario",
        source="Figure 2 / Section 5.2",
        headers=["query", "selected sets", "expected", "match"],
    )

    res_mand = client.submit(base.format(terms="O, T, P"))
    got_mand = sorted(tuple(row[:3]) for row in res_mand.rows)
    expected_mand = [
        (ids["a"]["SDSS"], ids["a"]["TWOMASS"], ids["a"]["FIRST"])
    ]
    report.add_row(
        "XMATCH(O,T,P) < 3.5",
        got_mand,
        expected_mand,
        got_mand == expected_mand,
    )

    dropout_sql = (
        "SELECT O.object_id, T.object_id "
        "FROM SDSS:objects O, TWOMASS:objects T, FIRST:objects P "
        "WHERE AREA(185.0, -0.5, 180.0) AND XMATCH(O, T, !P) < 3.5"
    )
    res_drop = client.submit(dropout_sql)
    got_drop = sorted(tuple(row[:2]) for row in res_drop.rows)
    expected_drop = [(ids["b"]["SDSS"], ids["b"]["TWOMASS"])]
    report.add_row(
        "XMATCH(O,T,!P) < 3.5",
        got_drop,
        expected_drop,
        got_drop == expected_drop,
    )
    report.note(
        "Body a is selected by the mandatory form only; body b (whose P "
        "observation is ~30 sigma away) only by the drop-out form — "
        "exactly Figure 2."
    )
    return report


def check(report: ExperimentReport, quick: bool) -> None:
    assert all(row[3] for row in report.rows), "Figure 2 semantics must hold"


EXPERIMENT = Experiment(
    exp_id="E2",
    claim="Fig. 2: XMATCH(O,T,P) selects body *a*; XMATCH(O,T,!P) selects "
    "body *b*",
    shape="exact set selection",
    run=run,
    check=check,
)
