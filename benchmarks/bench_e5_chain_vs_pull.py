"""E5 — Section 5.1: chained partial results vs pull-to-portal."""

from repro.baselines.pull_mediator import PullMediator
from repro.bench import run_e5_chain_vs_pull
from repro.bench.scenarios import paper_query


def test_e5_chain_vs_pull(benchmark, report_sink, shared_federation):
    report = report_sink(
        run_e5_chain_vs_pull(n_bodies=1200, radii=(450.0, 900.0, 1800.0))
    )
    # Shape check: for the largest (least selective) AREA, the chain ships
    # fewer data bytes than pulling every archive's rows to the Portal.
    radii = sorted({row[0] for row in report.rows})
    data_bytes = {(row[0], row[1]): row[2] for row in report.rows}
    chain_wins = [
        data_bytes[r, "chain (SkyQuery)"] < data_bytes[r, "pull-to-portal"]
        for r in radii
    ]
    assert chain_wins[-1]
    # The measured crossover, with the pull baseline pulling colsets: pull
    # wins the 450" AREA on bytes, the chain wins from 900" up (at 900" by
    # ~1 %, 42,560 vs 42,999 B).
    assert chain_wins == [False, True, True]

    puller = PullMediator(shared_federation.portal)
    sql = paper_query(radius_arcsec=900.0)
    benchmark(lambda: puller.execute(sql))
