"""Property-based tests over the higher layers (hypothesis)."""

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SoapError
from repro.portal.plan import ExecutionPlan, PlanStep
from repro.sphere.coords import radec_to_vector
from repro.sphere.distance import angular_separation
from repro.sphere.random import perturb_gaussian, random_in_cap
from repro.sql.ast import AreaClause, PolygonClause
from repro.units import arcsec_to_rad
from repro.xmatch.stream import in_memory_search, run_chain
from repro.xmatch.tuples import LocalObject
from tests.xml_reference import wire_strings, xml_can_carry


# -- the distributed matcher against a brute-force oracle ----------------------------


def brute_force_matches(archives, threshold):
    """Exhaustive N-way cross product + chi-squared test (the oracle)."""
    from itertools import product

    from repro.xmatch.chi2 import Accumulator

    results = set()
    object_lists = [objs for _, objs, _, _ in archives]
    sigmas = [sigma for _, _, sigma, _ in archives]
    aliases = [alias for alias, _, _, _ in archives]
    for combo in product(*object_lists):
        acc = Accumulator.empty()
        for obj, sigma in zip(combo, sigmas):
            acc = acc.with_observation(obj.position, sigma)
        if acc.accepts(threshold):
            results.add(
                frozenset(zip(aliases, (o.object_id for o in combo)))
            )
    return results


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10_000),
    n_bodies=st.integers(2, 12),
    threshold=st.sampled_from([1.0, 2.0, 3.5]),
    sigma_scale=st.floats(0.1, 2.0),
)
def test_chain_matches_brute_force_oracle(seed, n_bodies, threshold, sigma_scale):
    """The incremental chain finds exactly the oracle's match set.

    (Chi-squared decisions within ~1e-3 of the threshold boundary can
    legitimately differ due to the documented accumulator cancellation, so
    bodies are kept comfortably separated.)
    """
    rng = random.Random(seed)
    center = radec_to_vector(185.0, -0.5)
    bodies = [
        random_in_cap(rng, center, arcsec_to_rad(120.0))
        for _ in range(n_bodies)
    ]
    archives = []
    for alias, base_sigma in (("A", 0.2), ("B", 0.5), ("C", 1.0)):
        sigma = arcsec_to_rad(base_sigma * sigma_scale)
        objects = [
            LocalObject(i, perturb_gaussian(rng, body, sigma))
            for i, body in enumerate(bodies)
            if rng.random() < 0.8
        ]
        archives.append((alias, objects, sigma, False))
    if not archives[0][1]:
        return  # seeding archive saw nothing; trivially empty either way

    chain = {
        frozenset(t.members)
        for t in run_chain(archives, threshold)
    }
    oracle = brute_force_matches(archives, threshold)
    # Allow knife-edge disagreements only: every symmetric-difference
    # member must sit within 2% of the chi-squared boundary.
    disagreements = chain ^ oracle
    if disagreements:
        from repro.xmatch.chi2 import Accumulator

        lookup = {
            alias: {o.object_id: o for o in objs}
            for alias, objs, _, _ in archives
        }
        sigmas = {alias: sigma for alias, _, sigma, _ in archives}
        for members in disagreements:
            acc = Accumulator.empty()
            for alias, object_id in members:
                obj = lookup[alias][object_id]
                acc = acc.with_observation(obj.position, sigmas[alias])
            assert abs(acc.chi2() - threshold**2) < 0.02 * threshold**2, (
                f"non-boundary disagreement: {members}"
            )


# -- plan wire roundtrip over random plans -------------------------------------------

_ident = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,8}", fullmatch=True)

_step_strategy = st.builds(
    PlanStep,
    alias=_ident,
    archive=_ident,
    url=st.just("http://node/crossmatch"),
    sigma_arcsec=st.floats(0.01, 10.0, allow_nan=False),
    dropout=st.just(False),
    count_star=st.one_of(st.none(), st.integers(0, 10**9)),
    table=_ident,
    id_column=_ident,
    ra_column=_ident,
    dec_column=_ident,
    residual_sql=st.sampled_from(["", "O.type = GALAXY", "x.flux > 2.5"]),
    attr_select=st.lists(
        st.tuples(_ident, _ident, st.sampled_from(["int", "double", "string"])),
        max_size=4,
    ).map(tuple),
    sql=st.text(max_size=40),
)

_area_strategy = st.one_of(
    st.none(),
    st.builds(
        AreaClause,
        ra_deg=st.floats(0, 360, allow_nan=False),
        dec_deg=st.floats(-90, 90, allow_nan=False),
        radius_arcsec=st.floats(0.1, 7200, allow_nan=False),
    ),
    st.builds(
        PolygonClause,
        vertices=st.lists(
            st.tuples(
                st.floats(0, 360, allow_nan=False),
                st.floats(-89, 89, allow_nan=False),
            ),
            min_size=3,
            max_size=6,
        ).map(tuple),
    ),
)


@settings(max_examples=50)
@given(
    steps=st.lists(_step_strategy, min_size=1, max_size=5).map(tuple),
    threshold=st.floats(0.1, 10.0, allow_nan=False),
    area=_area_strategy,
)
def test_plan_wire_roundtrip(steps, threshold, area):
    plan = ExecutionPlan(steps=steps, threshold=threshold, area=area)
    # Through the actual SOAP text, not just the struct form.
    from repro.soap.envelope import build_rpc_request, parse_rpc_request

    wire = plan.to_wire()
    if not all(map(xml_can_carry, wire_strings(wire))):
        with pytest.raises(SoapError, match=r"U\+[0-9A-F]{4}"):
            build_rpc_request("PerformXMatch", {"plan": wire})
        return
    text = build_rpc_request("PerformXMatch", {"plan": wire})
    _, params = parse_rpc_request(text)
    assert ExecutionPlan.from_wire(params["plan"]) == plan


# -- engine ORDER BY / LIMIT against a python reference ----------------------------


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.one_of(st.none(), st.integers(-100, 100)), min_size=0, max_size=30
    ),
    descending=st.booleans(),
    limit=st.one_of(st.none(), st.integers(0, 10)),
)
def test_engine_order_by_matches_python_sort(values, descending, limit):
    from repro.db.engine import Database
    from repro.db.schema import Column
    from repro.db.types import ColumnType

    db = Database("p")
    db.create_table(
        "t",
        [
            Column("object_id", ColumnType.INT, nullable=False),
            Column("v", ColumnType.INT),
        ],
    )
    db.insert("t", [(i, v) for i, v in enumerate(values)])
    direction = " DESC" if descending else ""
    limit_sql = f" LIMIT {limit}" if limit is not None else ""
    result = db.execute(
        f"SELECT t.v FROM t ORDER BY t.v{direction}, t.object_id{limit_sql}"
    )
    got = [row[0] for row in result.rows]

    none_key = (0, 0) if not descending else (1, 0)

    def key(v):
        return (0 if v is None else 1, 0 if v is None else v)

    expected = sorted(values, key=key, reverse=descending)
    if limit is not None:
        expected = expected[:limit]
    assert got == expected


# -- grouped aggregates against a python reference ----------------------------------


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c"]),
            st.one_of(st.none(), st.integers(-50, 50)),
        ),
        max_size=30,
    )
)
def test_group_by_aggregates_match_python(rows):
    from collections import defaultdict

    from repro.db.engine import Database
    from repro.db.schema import Column
    from repro.db.types import ColumnType

    db = Database("g")
    db.create_table(
        "t",
        [
            Column("k", ColumnType.STRING, nullable=False),
            Column("v", ColumnType.INT),
        ],
    )
    db.insert("t", rows)
    result = db.execute(
        "SELECT t.k, COUNT(*), COUNT(t.v), SUM(t.v), MIN(t.v), MAX(t.v) "
        "FROM t GROUP BY t.k ORDER BY t.k"
    )
    buckets = defaultdict(list)
    for k, v in rows:
        buckets[k].append(v)
    expected = []
    for k in sorted(buckets):
        values = buckets[k]
        present = [v for v in values if v is not None]
        expected.append(
            (
                k,
                len(values),
                len(present),
                sum(present) if present else None,
                min(present) if present else None,
                max(present) if present else None,
            )
        )
    assert result.rows == expected


# -- EXPLAIN is the plan SUBMIT runs ---------------------------------------------

PLAN_SQL = (
    "SELECT O.object_id, T.obj_id "
    "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T, "
    "FIRST:Primary_Object P "
    "WHERE AREA(185.0, -0.5, 900.0) AND XMATCH(O, T, !P) < 3.5"
)

#: scenario -> (federation layout, which host to take down, if any)
PLAN_SCENARIOS = {
    "fault-free": ({}, None),
    "mandatory primary": ({}, lambda fed: fed.node("SDSS")),
    "drop-out primary": ({}, lambda fed: fed.node("FIRST")),
    "shard primary": ({"shards": 2}, lambda fed: fed.shards["TWOMASS"][0]),
}


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    scenario=st.sampled_from(sorted(PLAN_SCENARIOS)),
    replicas=st.sampled_from([0, 1]),
    chain_mode=st.sampled_from(["store-forward", "pipelined"]),
    seed=st.integers(0, 10_000),
)
def test_explain_is_the_plan_submit_runs(scenario, replicas, chain_mode, seed):
    """One plan pass: whatever is down — nothing, a mandatory archive's
    primary, a drop-out archive's, one shard's — and whether or not a
    replica can take over, EXPLAIN shows the plan SUBMIT hands to its
    chain (or that neither has one), the partition chains it runs that
    plan as, and the same warnings and failover count. A drop-out archive
    is never counted, so only the chain finds it dead: SUBMIT then fails
    it over or prunes it mid-chain, which EXPLAIN cannot show."""
    from repro.federation.builder import FederationConfig, build_federation
    from repro.services.retry import RetryPolicy
    from repro.workloads.skysim import SkyField

    layout, victim = PLAN_SCENARIOS[scenario]

    def build():
        fed = build_federation(
            FederationConfig(
                n_bodies=150,
                seed=seed,
                sky_field=SkyField(185.0, -0.5, 1800.0),
                retry_policy=RetryPolicy(
                    max_attempts=2, timeout_s=5.0, base_backoff_s=0.2,
                    seed=seed,
                ),
                replicas=replicas,
                chain_mode=chain_mode,
                **layout,
            )
        )
        if victim is not None:
            fed.network.fail_host(victim(fed).hostname)
        return fed

    # Twins, so circuit-breaker state left by one call cannot shape the
    # other's probes.
    explained = build().portal.explain(PLAN_SQL)
    fed = build()
    handed = {}
    execute = fed.portal.executor.execute

    def recording(plan, decomposed, **kwargs):
        handed.update(
            plan=plan.to_wire(),
            partitions=[chain.to_wire() for chain in kwargs["partitions"]],
            warnings=list(kwargs["warnings"]),
            failovers=kwargs["failovers"],
            degraded=kwargs["degraded"],
        )
        return execute(plan, decomposed, **kwargs)

    fed.portal.executor.execute = recording
    submitted = fed.portal.submit(PLAN_SQL)
    if not handed:  # no chain ran: the plan pass's outcome is the answer
        handed.update(
            plan=None,
            partitions=[],
            warnings=submitted.warnings,
            failovers=submitted.failovers,
            degraded=submitted.degraded,
        )
    ran = handed["plan"]
    assert explained["plan"] == ran
    assert explained["partitions"] == handed["partitions"]
    assert bool(handed["partitions"]) == (
        "shards" in layout and ran is not None
    )
    assert explained["would_execute"] == (ran is not None)
    assert explained["warnings"] == handed["warnings"]
    assert explained["failovers"] == handed["failovers"]
    assert explained["degraded"] == handed["degraded"]
    assert explained["counts"] == submitted.counts
    assert explained["epochs"] == submitted.epochs
    if scenario == "fault-free":
        assert ran is not None and not submitted.warnings
    if scenario == "drop-out primary":
        assert submitted.failovers == replicas
        assert submitted.degraded == (replicas == 0)
        assert len(submitted) > 0
