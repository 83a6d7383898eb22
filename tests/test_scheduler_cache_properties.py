"""Property-based tests: scheduling + caching never change any answer.

The contract, stated as a property: for ANY interleaving of concurrent
query batches and ingest commits, across both chain modes, every result
the scheduled + cached portal returns is identical
to the same query run alone on an uncached twin federation — same rows,
same warnings, same counts, same pinned epochs, same node statistics.
(``physical_reads`` is excluded: page residency is history the semantic
layer explicitly does not promise; everything else must match.)

Containment-served results promise a weaker, documented contract: the
same *multiset* of rows (row order is plan-order provenance, and a
containment hit inherits the covering entry's), empty counts, and the
covering entry's epochs.
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.federation.builder import FederationConfig, build_federation
from repro.portal.scheduler import SchedulerConfig
from repro.workloads.skysim import SkyField, generate_bodies, observe_survey

CHAOS_SEED = int(os.environ.get("SKYQUERY_CHAOS_SEED", "0"))
N_BODIES = 100
RADII = (700.0, 1000.0, 1300.0)
TENANTS = ("alpha", "beta")
ARCHIVES = ("SDSS", "TWOMASS", "FIRST")

SQL = (
    "SELECT O.object_id, O.ra, T.obj_id "
    "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T "
    "WHERE AREA(185.0, -0.5, {radius}) AND XMATCH(O, T) < 3.5"
)


def _build(chain_mode, *, scheduled):
    config = FederationConfig(
        n_bodies=N_BODIES,
        seed=23 + CHAOS_SEED,
        sky_field=SkyField(185.0, -0.5, 1800.0),
        chain_mode=chain_mode,
        ingest=True,
        keep_epochs=16,
        scheduler=SchedulerConfig(max_inflight=3) if scheduled else None,
        cache=scheduled,
    )
    return build_federation(config)


def _mirror_ingest(feds, archive, seed_offset):
    """Commit identical new rows to the same archive of every twin."""
    epochs = []
    for fed in feds:
        config = fed.config
        survey = next(s for s in config.surveys if s.archive == archive)
        observation = observe_survey(
            survey,
            generate_bodies(config.sky_field, 15, config.seed + seed_offset),
            config.seed + seed_offset,
        )
        columns = list(observation.rows[0].keys())
        rows = [tuple(row[c] for c in columns) for row in observation.rows]
        result = fed.ingest_client(archive).ingest_rows(
            survey.primary_table, columns, rows
        )
        assert result.committed
        epochs.append(result.epoch)
    assert epochs[0] == epochs[1]


def _stable_stats(result):
    return [
        {k: v for k, v in stats.items() if k != "physical_reads"}
        for stats in result.node_stats
    ]


def _assert_matches_solo(outcome, solo):
    result = outcome.result
    assert result is not None, outcome.error
    if result.cache == "containment":
        assert sorted(result.rows) == sorted(solo.rows)
        assert result.columns == solo.columns
        assert result.counts == {}
        assert not result.degraded and not result.warnings
        return
    assert result.columns == solo.columns
    assert result.rows == solo.rows
    assert result.warnings == solo.warnings
    assert result.degraded == solo.degraded
    assert result.failovers == solo.failovers
    assert result.counts == solo.counts
    assert result.epochs == solo.epochs
    assert _stable_stats(result) == _stable_stats(solo)


ops_strategy = st.lists(
    st.one_of(
        st.tuples(
            st.just("batch"),
            st.lists(
                st.tuples(
                    st.integers(0, len(RADII) - 1),
                    st.integers(0, len(TENANTS) - 1),
                ),
                min_size=1,
                max_size=4,
            ),
        ),
        st.tuples(st.just("ingest"), st.integers(0, len(ARCHIVES) - 1)),
    ),
    min_size=2,
    max_size=5,
)


@pytest.mark.parametrize("chain_mode", ["store-forward", "pipelined"])
@given(ops=ops_strategy)
@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_scheduled_cached_results_identical_to_solo(chain_mode, ops):
    scheduled = _build(chain_mode, scheduled=True)
    solo_fed = _build(chain_mode, scheduled=False)
    first_answer = None
    for op_index, op in enumerate(ops):
        if op[0] == "ingest":
            _mirror_ingest(
                (scheduled, solo_fed), ARCHIVES[op[1]], 100 + op_index
            )
            continue
        jobs = [
            {"sql": SQL.format(radius=RADII[r]), "tenant": TENANTS[t]}
            for r, t in op[1]
        ]
        outcomes = scheduled.scheduler.run(jobs)
        assert len(outcomes) == len(jobs)
        for outcome in outcomes:
            solo = solo_fed.portal.submit(outcome.job.sql)
            _assert_matches_solo(outcome, solo)
            if first_answer is None and outcome.result.cache != "containment":
                first_answer = (
                    outcome.job.sql,
                    dict(outcome.result.epochs),
                    list(outcome.result.rows),
                )
    # Repeatable reads survive everything above: replaying the first
    # query pinned at its original epochs returns its original rows.
    if first_answer is not None:
        sql, epochs, rows = first_answer
        replay = scheduled.portal.submit(sql, pin_epochs=epochs)
        assert replay.rows == rows


@given(
    radii=st.tuples(
        st.floats(min_value=400.0, max_value=2000.0),
        st.floats(min_value=300.0, max_value=2000.0),
    )
)
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_containment_multiset_equals_fresh_execution(radii):
    big = max(radii)
    small = min(radii)
    cached = _build("store-forward", scheduled=True)
    plain = _build("store-forward", scheduled=False)
    cached.portal.submit(SQL.format(radius=big))
    served = cached.portal.submit(SQL.format(radius=small))
    fresh = plain.portal.submit(SQL.format(radius=small))
    if small < big:
        assert served.cache == "containment"
    assert sorted(served.rows) == sorted(fresh.rows)
    assert served.columns == fresh.columns
