"""The Portal's epoch-aware semantic result cache."""

import pytest

from repro.bench.scenarios import fresh_federation, paper_query
from repro.portal.cache import CacheConfig, SemanticCache
from repro.workloads.skysim import generate_bodies, observe_survey

SMALL = 140

XMATCH_2 = """
SELECT O.object_id, O.ra, T.obj_id
FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T
WHERE AREA(185.0, -0.5, {radius}) AND XMATCH(O, T) < 3.5
"""


def _fed(**kwargs):
    kwargs.setdefault("n_bodies", SMALL)
    kwargs.setdefault("cache", True)
    return fresh_federation(**kwargs)


def _total_bytes(fed):
    return sum(fed.network.metrics.bytes_by_phase().values())


def _ingest(fed, archive, n_rows, seed_offset=77):
    config = fed.config
    survey = next(s for s in config.surveys if s.archive == archive)
    observation = observe_survey(
        survey,
        generate_bodies(config.sky_field, n_rows, config.seed + seed_offset),
        config.seed + seed_offset,
    )
    columns = list(observation.rows[0].keys())
    rows = [tuple(row[c] for c in columns) for row in observation.rows]
    result = fed.ingest_client(archive).ingest_rows(
        survey.primary_table, columns, rows
    )
    assert result.committed
    return result


def test_config_validation():
    with pytest.raises(ValueError):
        CacheConfig(max_entries=0)


def test_builder_rejects_junk_cache_config():
    from repro.errors import ConfigurationError
    from repro.federation.builder import FederationConfig, build_federation
    from repro.workloads.skysim import SkyField

    with pytest.raises(ConfigurationError):
        build_federation(
            FederationConfig(
                n_bodies=10, sky_field=SkyField(185.0, -0.5, 900.0),
                cache=3.14,
            )
        )


def test_exact_hit_identical_and_zero_wire():
    fed = _fed()
    sql = paper_query(900.0)
    first = fed.portal.submit(sql)
    assert first.cache is None
    before = _total_bytes(fed)
    clock_before = fed.network.clock.now
    second = fed.portal.submit(sql)
    assert second.cache == "exact"
    assert second == first  # rows, stats, counts, epochs, warnings
    assert _total_bytes(fed) == before
    assert fed.network.clock.now == clock_before
    assert fed.cache.stats.hits == 1
    # Tracing reconciliation: the hit's trace carries zero wire bytes.
    assert second.trace is None or second.trace.total_wire_bytes() == 0


def test_strategy_changes_the_exact_key():
    from repro.portal.planner import OrderingStrategy

    # Containment off: it would (correctly) serve the same circle under
    # any strategy, but this test is about the exact key.
    fed = _fed(cache=CacheConfig(containment=False))
    sql = paper_query(900.0)
    first = fed.portal.submit(sql, strategy=OrderingStrategy.COUNT_DESC)
    probes = fed.network.metrics.message_count
    before = probes(phase="performance-query")
    second = fed.portal.submit(sql, strategy=OrderingStrategy.COUNT_ASC)
    # Different exact key: not served from the result cache, so the
    # count-star probes go to the archives again.
    assert second.cache is None
    assert probes(phase="performance-query") > before
    assert sorted(second.rows) == sorted(first.rows)
    assert second.counts == first.counts


def test_ingest_commit_invalidates_and_pins_still_serve():
    fed = _fed(ingest=True)
    sql = paper_query(900.0)
    first = fed.portal.submit(sql)
    assert fed.portal.submit(sql).cache == "exact"

    ingest = _ingest(fed, "SDSS", 40)
    assert fed.cache.stats.invalidations > 0

    after = fed.portal.submit(sql)
    assert after.cache is None  # re-executed, not served stale
    assert after.epochs["O"] == ingest.epoch
    # The old snapshot remains reachable by pinning, bypassing the cache.
    pinned = fed.portal.submit(sql, pin_epochs=first.epochs)
    assert pinned.rows == first.rows
    # And the new epoch's answer re-warms.
    assert fed.portal.submit(sql) == after
    assert fed.cache.stats.hits >= 2


def test_note_epoch_is_surgical():
    fed = _fed()
    twomass = XMATCH_2.format(radius=600.0)
    first = (
        "SELECT O.object_id FROM SDSS:Photo_Object O, FIRST:Primary_Object P "
        "WHERE AREA(185.0, -0.5, 600.0) AND XMATCH(O, P) < 3.5"
    )
    fed.portal.submit(twomass)
    fed.portal.submit(first)
    epoch = fed.portal.submit(twomass).epochs["T"]
    invalidations = fed.cache.stats.invalidations
    fed.cache.note_epoch("TWOMASS", epoch + 1)
    # Only entries pinned to TWOMASS's old epoch go; the rest still serve.
    assert fed.cache.stats.invalidations == invalidations + 1
    assert fed.portal.submit(first).cache == "exact"
    assert fed.portal.submit(twomass).cache is None


def test_lru_eviction_bounds_entries():
    # Containment off so every distinct radius is a genuine store.
    fed = _fed(cache=CacheConfig(max_entries=2, containment=False))
    for radius in (600.0, 700.0, 800.0):
        fed.portal.submit(XMATCH_2.format(radius=radius))
    assert fed.cache.stats.evictions == 1
    # Oldest entry evicted: re-submitting it misses.
    assert fed.portal.submit(XMATCH_2.format(radius=600.0)).cache is None
    assert fed.portal.submit(XMATCH_2.format(radius=800.0)).cache == "exact"


def test_containment_serves_smaller_circle_locally():
    fed = _fed()
    big = fed.portal.submit(XMATCH_2.format(radius=2000.0))
    before = _total_bytes(fed)
    small = fed.portal.submit(XMATCH_2.format(radius=900.0))
    assert small.cache == "containment"
    assert _total_bytes(fed) == before  # zero federation traffic
    assert small.epochs == big.epochs
    assert small.node_stats[0]["cache"] == "containment"
    assert small.node_stats[0]["source_fingerprint"]
    assert small.node_stats[0]["tuples_kept"] == len(small.rows)
    # Same multiset of rows as a fresh, uncached federation computes.
    fresh = fresh_federation(n_bodies=SMALL).portal.submit(
        XMATCH_2.format(radius=900.0)
    )
    assert sorted(small.rows) == sorted(fresh.rows)
    assert len(small.rows) < len(big.rows)


def test_containment_refuses_risky_shapes():
    fed = _fed()
    fed.portal.submit(XMATCH_2.format(radius=2000.0))

    # LIMIT truncates in plan order: serving a re-filtered subset could
    # pick different survivors, so the cache must execute.
    limited = fed.portal.submit(
        XMATCH_2.format(radius=900.0).rstrip() + " LIMIT 5"
    )
    assert limited.cache != "containment"

    # Pinned reads describe a snapshot, not "whatever is cached".
    live = fed.portal.submit(XMATCH_2.format(radius=2000.0))
    pinned = fed.portal.submit(
        XMATCH_2.format(radius=900.0), pin_epochs=live.epochs
    )
    assert pinned.cache != "containment"

    # A bigger circle is not contained: must execute.
    bigger = fed.portal.submit(XMATCH_2.format(radius=2400.0))
    assert bigger.cache is None


def test_dropout_queries_never_use_containment():
    fed = _fed()
    sql = paper_query(1500.0, dropout=True)
    fed.portal.submit(sql)
    again = fed.portal.submit(paper_query(900.0, dropout=True))
    # Drop-out semantics depend on the non-matching side; only exact
    # repeats are safe, and this is not one.
    assert again.cache is None
    # The exact path still works for drop-outs.
    assert fed.portal.submit(paper_query(900.0, dropout=True)).cache == "exact"


def test_attr_widening_changes_bytes_never_rows():
    sql = XMATCH_2.format(radius=900.0)
    plain = fresh_federation(n_bodies=SMALL)
    cached = _fed()
    a = plain.portal.submit(sql)
    b = cached.portal.submit(sql)
    assert a.columns == b.columns
    assert a.rows == b.rows
    assert a.counts == b.counts
    for lhs, rhs in zip(a.node_stats, b.node_stats):
        assert lhs["tuples_in"] == rhs["tuples_in"]
        assert lhs["tuples_out"] == rhs["tuples_out"]
    # The widened attr_select ships the extra position columns.
    assert _total_bytes(cached) > _total_bytes(plain)


def test_degraded_results_never_cached():
    cache = SemanticCache()
    from repro.portal.executor import FederatedResult

    degraded = FederatedResult(
        columns=["a"], rows=[(1,)], degraded=True, warnings=["lost FIRST"]
    )
    key = SemanticCache.exact_key("sql", "count_desc", 0, (), ())
    cache.store_result(key, degraded, archives_by_alias={})
    assert cache.stats.stores == 0
    assert cache.lookup_exact(key) is None


def test_profile_knobs_produce_disjoint_plans():
    base = fresh_federation(n_bodies=SMALL)
    htm = fresh_federation(n_bodies=SMALL, match_engine="htm")
    piped = fresh_federation(n_bodies=SMALL, chain_mode="pipelined")
    sql = XMATCH_2.format(radius=900.0)
    prints = {
        fed.portal.submit(sql).plan.fingerprint(0)
        for fed in (base, htm, piped)
    }
    assert len(prints) == 3
