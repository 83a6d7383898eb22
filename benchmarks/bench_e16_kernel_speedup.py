"""E16 — the vectorized ``sp_xmatch`` body vs the scalar reference loop.

The scalar arm is not a federation option: the experiment installs
``sp_xmatch_reference`` over ``sp_xmatch`` on every archive database
through ``db.register_procedure`` (see ``_e16_federation``).

``SKYQUERY_BENCH_QUICK=1`` shrinks the scenario to smoke-test sizes (the
CI benchmark job); wall-clock ratios are noisy at that scale, so quick
mode checks only the correctness half of each row.
"""

import os

from repro.bench import run_e16_kernel_speedup

QUICK = bool(os.environ.get("SKYQUERY_BENCH_QUICK"))


def test_e16_kernel_speedup(benchmark, report_sink):
    if QUICK:
        report = report_sink(
            run_e16_kernel_speedup(node_counts=(3,), n_bodies=400, repeats=1)
        )
    else:
        report = report_sink(
            run_e16_kernel_speedup(node_counts=(3, 5), n_bodies=1200)
        )
    for row in report.rows:
        speedup = row[4]
        # The acceptance bar: strictly faster wall-clock with identical
        # match sets and byte-identical wire traffic.
        if not QUICK:
            assert speedup > 1.0, f"vectorized kernel not faster: {row}"
        assert row[6] == "yes", f"wire bytes diverged: {row}"
        assert row[7] == "yes", f"node stats diverged: {row}"

    # Hot path: the vectorized 3-archive chain end to end.
    from repro.bench.experiments import _e16_federation

    fed = _e16_federation(3, 400 if QUICK else 1200, reference=False)
    client = fed.client()
    sql = (
        "SELECT S0.object_id "
        "FROM SURV0:objects S0, SURV1:objects S1, SURV2:objects S2 "
        "WHERE AREA(185.0, -0.5, 900.0) AND XMATCH(S0, S1, S2) < 3.5"
    )
    benchmark(lambda: client.submit(sql))


def test_kernel_only_speedup_isolated(report_sink):
    """The kernel itself (no SOAP, no simulation): run_chain at scale."""
    import random
    import time

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
