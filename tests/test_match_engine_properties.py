"""Property-based tests: the zone engine is byte-identical to HTM (hypothesis).

The tentpole contract, stated as a property: for ANY random federation
(body count, seed, survey sigmas) and EITHER chain mode, running the same
cross-match query on a federation as built (zone) and on its HTM twin —
the same federation with ``sp_xmatch`` pinned to HTM on every archive,
installed through the procedure seam — yields identical rows, identical
per-node scan statistics, and identical wire traffic byte-for-byte. The
engines may examine their candidate supersets through different index
structures, but nothing observable — result set, stats on the wire,
message sizes — may differ. Chaos seeds (``SKYQUERY_CHAOS_SEED``) vary the
simulated retry timings like the other property suites.
"""

import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.federation.builder import FederationConfig, build_federation
from repro.services.retry import RetryPolicy
from repro.skynode.xmatch_proc import (
    MATCH_ENGINE_HTM,
    PROCEDURE_NAME,
    sp_xmatch,
    with_engine,
)
from repro.workloads.skysim import SkyField

CHAOS_SEED = int(os.environ.get("SKYQUERY_CHAOS_SEED", "0"))

XMATCH_SQL = (
    "SELECT O.object_id, O.ra, T.obj_id "
    "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T "
    "WHERE AREA(185.0, -0.5, 900.0) AND XMATCH(O, T) < 3.5"
)

DROPOUT_SQL = (
    "SELECT O.object_id, T.obj_id "
    "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T, "
    "FIRST:Primary_Object P "
    "WHERE AREA(185.0, -0.5, 900.0) AND XMATCH(O, T, !P) < 3.5"
)


def _build(match_engine, chain_mode, n_bodies, seed):
    fed = build_federation(
        FederationConfig(
            n_bodies=n_bodies,
            seed=seed,
            sky_field=SkyField(185.0, -0.5, 1800.0),
            retry_policy=RetryPolicy(
                max_attempts=3, timeout_s=5.0, base_backoff_s=0.2,
                max_backoff_s=2.0, seed=seed + CHAOS_SEED,
            ),
            chain_mode=chain_mode,
        )
    )
    if match_engine == MATCH_ENGINE_HTM:
        for node in fed.nodes.values():
            node.db.drop_procedure(PROCEDURE_NAME)
            node.db.register_procedure(
                PROCEDURE_NAME, with_engine(sp_xmatch, MATCH_ENGINE_HTM)
            )
    return fed


def _observe(match_engine, chain_mode, n_bodies, seed, sql):
    """Everything externally observable about one federated query."""
    fed = _build(match_engine, chain_mode, n_bodies, seed)
    fed.network.metrics.reset()
    result = fed.client().submit(sql)
    return (
        sorted(result.rows),
        result.node_stats,
        fed.network.metrics.bytes_by_phase(),
    )


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    chain_mode=st.sampled_from(["store-forward", "pipelined"]),
    n_bodies=st.integers(60, 220),
    seed=st.integers(0, 10_000),
)
def test_zone_engine_byte_identical_to_htm(chain_mode, n_bodies, seed):
    """Same rows, same node stats, same wire bytes — any sky, any mode."""
    htm = _observe("htm", chain_mode, n_bodies, seed, XMATCH_SQL)
    zone = _observe("zone", chain_mode, n_bodies, seed, XMATCH_SQL)
    assert zone == htm
    rows, node_stats, phases = htm
    assert rows  # the scenario is non-trivial
    assert node_stats
    assert phases.get("crossmatch-chain", 0) > 0


@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    chain_mode=st.sampled_from(["store-forward", "pipelined"]),
    seed=st.integers(0, 10_000),
)
def test_zone_engine_byte_identical_on_dropout_chains(chain_mode, seed):
    """The negative (drop-out) step also examines identical candidates."""
    htm = _observe("htm", chain_mode, 140, seed, DROPOUT_SQL)
    zone = _observe("zone", chain_mode, 140, seed, DROPOUT_SQL)
    assert zone == htm


def _match_database(body, rows, pool_pages):
    """One archive with ``rows`` in a 4-row-page table, ``body`` as sp_xmatch."""
    from repro.db.engine import Database
    from repro.db.schema import Column
    from repro.db.table import SpatialSpec
    from repro.db.types import ColumnType
    from repro.skynode.xmatch_proc import PROCEDURE_NAME

    db = Database("arch", page_size=4, buffer_pages=pool_pages)
    db.create_table(
        "objects",
        [
            Column("object_id", ColumnType.INT, nullable=False),
            Column("ra", ColumnType.FLOAT, nullable=False),
            Column("dec", ColumnType.FLOAT, nullable=False),
            Column("flux", ColumnType.FLOAT),
        ],
        spatial=SpatialSpec("ra", "dec", htm_depth=12),
    )
    db.insert("objects", rows)
    db.register_procedure(PROCEDURE_NAME, body)
    return db


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    pool_pages=st.integers(1, 6),
    with_area=st.booleans(),
    with_residual=st.booleans(),
)
def test_sp_xmatch_buffer_state_matches_reference(
    seed, pool_pages, with_area, with_residual
):
    """Both engines' sp_xmatch leave the pool exactly as the scalar
    reference does — counters and LRU order — with a pool smaller than
    the primary table, and find the same matches."""
    import random

    from repro.db.schema import Column
    from repro.db.types import ColumnType
    from repro.skynode.xmatch_proc import (
        PROCEDURE_NAME,
        sp_xmatch,
        sp_xmatch_reference,
    )
    from repro.sphere.coords import radec_to_vector, vector_to_radec
    from repro.sphere.random import perturb_gaussian, random_in_cap
    from repro.sphere.regions import Cap
    from repro.sql.parser import parse_expression
    from repro.units import arcsec_to_rad
    from repro.xmatch.chi2 import Accumulator

    rng = random.Random(seed)
    center = radec_to_vector(185.0, -0.5)
    sigma = arcsec_to_rad(0.5)
    bodies = [random_in_cap(rng, center, arcsec_to_rad(120.0)) for _ in range(40)]
    rows = [
        (i, *vector_to_radec(perturb_gaussian(rng, body, sigma)), float(i % 7))
        for i, body in enumerate(bodies)
    ]
    incoming = [
        Accumulator.of_observation(perturb_gaussian(rng, body, sigma), sigma)
        for body in bodies[::2]
    ]
    params = dict(
        primary_table="objects", id_column="object_id", ra_column="ra",
        dec_column="dec", alias="X", sigma_arcsec=0.5, threshold=3.5,
        area=Cap.from_radec(185.0, -0.5, 90.0) if with_area else None,
        residual=parse_expression("X.flux > 2.0") if with_residual else None,
        attr_columns=("flux",),
    )
    for engine in ("htm", "zone"):
        observed = []
        for body in (sp_xmatch, sp_xmatch_reference):
            db = _match_database(body, rows, pool_pages)
            assert pool_pages < db.table("objects").page_count
            temp = db.create_temp_table(
                "xm",
                [Column("seq", ColumnType.INT, nullable=False)]
                + [Column(c, ColumnType.FLOAT, nullable=False)
                   for c in ("a", "ax", "ay", "az")],
            )
            temp.insert_many(
                [(seq, acc.a, acc.ax, acc.ay, acc.az)
                 for seq, acc in enumerate(incoming)]
            )
            result = db.call_procedure(
                PROCEDURE_NAME, temp_table=temp.name, engine=engine, **params
            )
            observed.append((
                [
                    (*pair[:3], *map(float.hex, pair[3:7]), *pair[7:])
                    for pair in result.pairs()
                ],
                result.stats, db.buffer.stats, db.buffer.resident_order(),
            ))
        assert observed[0] == observed[1], engine
        assert observed[0][1].matches_found or with_area or with_residual


def test_htm_twin_probes_trixels_and_the_built_federation_zones(monkeypatch):
    """The twin really is HTM: its procedure probes the trixel index,
    while the federation as built never does."""
    from repro.skynode import xmatch_proc

    probes = []
    real_probe = xmatch_proc.batch_spatial_probe

    def counting_probe(*args, **kwargs):
        probes.append(1)
        return real_probe(*args, **kwargs)

    monkeypatch.setattr(xmatch_proc, "batch_spatial_probe", counting_probe)
    _observe("zone", "store-forward", 80, 5, XMATCH_SQL)
    assert not probes
    _observe(MATCH_ENGINE_HTM, "store-forward", 80, 5, XMATCH_SQL)
    assert probes
