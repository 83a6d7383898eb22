"""E16 — the vectorized ``sp_xmatch`` body vs the scalar reference loop.

Both arms run the production zone engine. The scalar arm is not a
federation option: the experiment installs ``sp_xmatch_reference`` over
``sp_xmatch`` on every archive database through ``db.register_procedure``
(see :func:`~repro.bench.scenarios.survey_chain_federation`).
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, Sequence

from repro.bench.registry import Experiment
from repro.bench.reporting import ExperimentReport, best_of
from repro.bench.scenarios import survey_chain_federation, survey_chain_query


def run(
    *, node_counts: Sequence[int], n_bodies: int, repeats: int
) -> ExperimentReport:
    """Wall-clock of both kernels on the E11 scalability scenario.

    The scalar per-tuple loop was the original engine (and remains the
    testing oracle); the vectorized kernel evaluates the same recurrence
    set-at-a-time with numpy and probes the zone index once for all
    search caps. Both arms run the production zone engine. The two must
    differ in wall-clock only: identical match sets, identical per-node
    stats, byte-for-byte identical wire traffic.
    """
    from repro.skynode.xmatch_proc import sp_xmatch_reference

    report = ExperimentReport(
        exp_id="E16",
        title="Vectorized numpy cross-match kernel vs scalar reference",
        source="Section 5.4 cross-match recurrence, evaluated set-at-a-time "
        "(the bugfix that removed the scipy dependency)",
        headers=[
            "archives", "bodies", "scalar s", "vectorized s", "speedup",
            "rows", "same wire bytes", "same node stats",
        ],
    )
    for n_nodes in node_counts:
        sql = survey_chain_query(n_nodes)
        arms: Dict[str, Dict[str, Any]] = {}
        for kernel, procedure in (
            ("scalar", sp_xmatch_reference), ("vectorized", None)
        ):
            fed = survey_chain_federation(n_nodes, n_bodies, procedure)
            client = fed.client()

            def submit():
                fed.network.metrics.reset()
                return client.submit(sql)

            result, elapsed = best_of(submit, repeats)
            arms[kernel] = {
                "elapsed": elapsed,
                "rows": sorted(result.rows),
                "bytes": fed.network.metrics.bytes_by_phase(),
                "node_stats": result.node_stats,
            }
        scalar, vectorized = arms["scalar"], arms["vectorized"]
        assert vectorized["rows"] == scalar["rows"], "kernel changed matches!"
        report.add_row(
            n_nodes,
            n_bodies,
            round(scalar["elapsed"], 3),
            round(vectorized["elapsed"], 3),
            round(scalar["elapsed"] / vectorized["elapsed"], 2),
            len(vectorized["rows"]),
            "yes" if vectorized["bytes"] == scalar["bytes"] else "NO",
            "yes" if vectorized["node_stats"] == scalar["node_stats"] else "NO",
        )
    report.note(
        "Same matches, same per-node cost counters, byte-identical SOAP "
        "traffic: the kernels differ only in wall-clock. The vectorized "
        "engine wins on three axes: one batched zone probe for all "
        "search caps (per-zone searchsorted windows over the columnar "
        "index arrays), one exact cosine filter over every (tuple, row) "
        "pair, and one broadcasted chi-squared pass per chain step."
    )
    report.note(
        "The scalar loop pays per (tuple, candidate) pair in Python, the "
        "vectorized kernel per chain step. Both arms run the production "
        "zone probe, so the gap is narrower than it was against per-tuple "
        "HTM covers, and at these sizes it moves from run to run by more "
        "than the difference between 3 and 5 archives. Isolated from "
        "SOAP/simulation overhead (see docs/PERFORMANCE.md) the kernel "
        "itself is 40-50x faster."
    )
    return report


def check(report: ExperimentReport, quick: bool) -> None:
    for row in report.rows:
        speedup = row[4]
        # The acceptance bar: strictly faster wall-clock with identical
        # match sets and byte-identical wire traffic. Wall-clock ratios
        # are noisy at quick sizes, so quick runs check only the
        # correctness half of each row.
        if not quick:
            assert speedup > 1.0, f"vectorized kernel not faster: {row}"
        assert row[6] == "yes", f"wire bytes diverged: {row}"
        assert row[7] == "yes", f"node stats diverged: {row}"
    _check_isolated_kernel()


def _check_isolated_kernel() -> None:
    """The kernel itself (no SOAP, no simulation): run_chain at scale."""
    from repro.sphere.coords import radec_to_vector
    from repro.sphere.random import perturb_gaussian, random_in_cap
    from repro.units import arcsec_to_rad
    from repro.xmatch.stream import run_chain
    from repro.xmatch.tuples import LocalObject

    rng = random.Random(12)
    center = radec_to_vector(185.0, -0.5)
    bodies = [
        random_in_cap(rng, center, arcsec_to_rad(1200.0)) for _ in range(2000)
    ]
    spec = []
    for alias, sigma_arcsec in (("A", 0.1), ("B", 0.3), ("C", 0.5)):
        sigma = arcsec_to_rad(sigma_arcsec)
        objects = [
            LocalObject(object_id=i, position=perturb_gaussian(rng, b, sigma))
            for i, b in enumerate(bodies)
        ]
        spec.append((alias, objects, sigma, False))

    elapsed = {}
    survivors = {}
    for engine in ("scalar", "vectorized"):
        started = time.perf_counter()
        tuples = run_chain(spec, 3.5, engine=engine)
        elapsed[engine] = time.perf_counter() - started
        survivors[engine] = [t.members for t in tuples]
    assert survivors["vectorized"] == survivors["scalar"]
    speedup = elapsed["scalar"] / elapsed["vectorized"]
    # Conservative floor; typically 40-50x on this workload.
    assert speedup > 5.0, f"isolated kernel speedup only {speedup:.1f}x"


EXPERIMENT = Experiment(
    exp_id="E16",
    claim="§5.4 cross-match cost — vectorized kernel (extension)",
    shape="vectorized matcher = identical matches, large speedup over scalar",
    run=run,
    check=check,
    full=dict(node_counts=(3, 5), n_bodies=1500, repeats=3),
    quick=dict(node_counts=(3,), n_bodies=400, repeats=1),
)
