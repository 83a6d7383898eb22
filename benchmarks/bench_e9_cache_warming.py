"""E9 — Section 5.3: performance queries warm the buffer cache."""

import pathlib
from collections import defaultdict

from repro.bench import run_e9_cache_warming

COMMITTED = pathlib.Path(__file__).resolve().parent / "_reports" / "e9.md"


def _committed_reads():
    """{(scenario, archive): (physical, logical)} of the committed report."""
    reads = {}
    for line in COMMITTED.read_text(encoding="utf-8").splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 5 and cells[2].isdigit():
            reads[(cells[0], cells[1])] = (int(cells[2]), int(cells[3]))
    return reads


def test_e9_cache_warming(benchmark, report_sink):
    committed = _committed_reads()  # before a full run rewrites the file
    report = report_sink(run_e9_cache_warming(n_bodies=2000))
    assert {
        (scenario, archive): (phys, logical)
        for scenario, archive, phys, logical, _ in report.rows
    } == committed, "E9 buffer reads must reproduce the committed report"
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

    # Hot path: the warming pass itself (3 count-star queries over SOAP).
    from repro.bench.scenarios import fresh_federation, paper_query
    from repro.portal.decompose import decompose
    from repro.sql.parser import parse_query

    fed = fresh_federation(n_bodies=1000)
    decomposed = decompose(
        parse_query(paper_query(radius_arcsec=900.0)), fed.portal.catalog
    )
    benchmark(lambda: fed.portal.planner.performance_counts(decomposed))
