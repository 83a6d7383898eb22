"""Property-based tests: sharded federations are byte-identical twins.

The contract, stated as a property: for ANY random federation (body
count, seed), ANY shard count in {1, 2, 4, 7}, EITHER chain mode, and
EITHER match engine, a sharded federation — one chain per shard stripe,
merged at the Portal — answers every query with *exactly* the bytes its
monolithic twin produces: same rows in the same order, same columns,
same warnings, same degraded flag, same per-archive epochs and counts,
and the same per-hop node statistics. Two kinds of divergence are
permitted and stripped before comparing: buffer-pool accounting
(``logical_reads`` / ``physical_reads`` — shards own private buffer
pools and probe their margin tables separately, so page-hit patterns
differ even though every row examined and every pair compared is
identical) and the transport facts ``batches`` / ``batch_rows`` (K
partition chains cut K batch sequences). With ``shards=1`` nothing is
stripped: one stripe is the monolithic layout, buffer reads included.
Chaos seeds (``SKYQUERY_CHAOS_SEED``) vary simulated retry timings like
the other property suites.
"""

import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.federation.builder import FederationConfig, build_federation
from repro.services.retry import RetryPolicy
from repro.workloads.skysim import SkyField

CHAOS_SEED = int(os.environ.get("SKYQUERY_CHAOS_SEED", "0"))

XMATCH_SQL = (
    "SELECT O.object_id, O.ra, T.obj_id "
    "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T "
    "WHERE AREA(185.0, -0.5, 900.0) AND XMATCH(O, T) < 3.5"
)

FULL_SCAN_SQL = (
    "SELECT O.object_id, O.ra, T.obj_id "
    "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T "
    "WHERE XMATCH(O, T) < 3.5"
)

DROPOUT_SQL = (
    "SELECT O.object_id, T.obj_id "
    "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T, "
    "FIRST:Primary_Object P "
    "WHERE AREA(185.0, -0.5, 900.0) AND XMATCH(O, T, !P) < 3.5"
)

COUNT_SQL = (
    "SELECT O.object_id, T.obj_id "
    "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T "
    "WHERE AREA(185.0, -0.5, 2400.0) AND XMATCH(O, T) < 3.0"
)


def _build(n_bodies, seed, *, shards=0, chain_mode="store-forward",
           match_engine="htm"):
    return build_federation(
        FederationConfig(
            n_bodies=n_bodies,
            seed=seed,
            sky_field=SkyField(185.0, -0.5, 1800.0),
            retry_policy=RetryPolicy(
                max_attempts=3, timeout_s=5.0, base_backoff_s=0.2,
                max_backoff_s=2.0, seed=seed + CHAOS_SEED,
            ),
            shards=shards,
            chain_mode=chain_mode,
            match_engine=match_engine,
        )
    )


#: Node-stat keys partitioning legitimately changes (module docstring).
_PARTITION_SKEWED = (
    "logical_reads", "physical_reads", "batches", "batch_rows",
)


def _observe(n_bodies, seed, sql, buffer_stats=False, **kwargs):
    """Everything externally observable about one federated query."""
    fed = _build(n_bodies, seed, **kwargs)
    result = fed.portal.submit(sql)
    return (
        list(result.rows),
        list(result.columns),
        list(result.warnings),
        result.degraded,
        dict(result.epochs),
        dict(result.counts),
        list(result.node_stats)
        if buffer_stats
        else [
            {k: v for k, v in stats.items() if k not in _PARTITION_SKEWED}
            for stats in result.node_stats
        ],
    )


class TestShardOracle:
    """Sharded runs must match the monolithic twin byte for byte."""

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        shards=st.sampled_from([1, 2, 4, 7]),
        n_bodies=st.integers(60, 220),
        seed=st.integers(0, 10_000),
    )
    def test_xmatch_identical_to_monolithic(self, shards, n_bodies, seed):
        mono = _observe(n_bodies, seed, XMATCH_SQL)
        sharded = _observe(n_bodies, seed, XMATCH_SQL, shards=shards)
        assert sharded == mono
        assert mono[0], "oracle must exercise a non-trivial match"

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        sql=st.sampled_from([XMATCH_SQL, DROPOUT_SQL, FULL_SCAN_SQL]),
        chain_mode=st.sampled_from(["store-forward", "pipelined"]),
        seed=st.integers(0, 10_000),
    )
    def test_one_shard_is_the_monolithic_node_buffer_reads_included(
        self, sql, chain_mode, seed
    ):
        """A monolithic node is the one-partition layout: the same probe
        runs over the same pages (its empty margin is never probed), so
        with a single shard even the buffer-pool counters and the batches
        agree — nothing is stripped."""
        mono = _observe(150, seed, sql, buffer_stats=True,
                        chain_mode=chain_mode)
        sharded = _observe(150, seed, sql, buffer_stats=True, shards=1,
                           chain_mode=chain_mode)
        assert sharded == mono
        assert all(
            stats["logical_reads"] > 0 for stats in mono[6]
        ), "the comparison must not be over empty counters"

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        shards=st.sampled_from([2, 4, 7]),
        chain_mode=st.sampled_from(["store-forward", "pipelined"]),
        match_engine=st.sampled_from(["htm", "zone"]),
        seed=st.integers(0, 10_000),
    )
    def test_chain_mode_and_engine_composition(self, shards, chain_mode,
                                               match_engine, seed):
        mono = _observe(150, seed, XMATCH_SQL, chain_mode=chain_mode,
                        match_engine=match_engine)
        sharded = _observe(150, seed, XMATCH_SQL, shards=shards,
                           chain_mode=chain_mode,
                           match_engine=match_engine)
        assert sharded == mono

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        shards=st.sampled_from([2, 4, 7]),
        seed=st.integers(0, 10_000),
    )
    def test_full_scan_identical(self, shards, seed):
        """No AREA: every non-empty stripe runs a chain, order still holds."""
        mono = _observe(140, seed, FULL_SCAN_SQL)
        sharded = _observe(140, seed, FULL_SCAN_SQL, shards=shards)
        assert sharded == mono
        assert mono[0]

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        shards=st.sampled_from([2, 4]),
        chain_mode=st.sampled_from(["store-forward", "pipelined"]),
        seed=st.integers(0, 10_000),
    )
    def test_dropout_chain_identical(self, shards, chain_mode, seed):
        """Negated (dropout) hops see their margins: the same bytes too."""
        mono = _observe(180, seed, DROPOUT_SQL, chain_mode=chain_mode)
        sharded = _observe(180, seed, DROPOUT_SQL, shards=shards,
                           chain_mode=chain_mode)
        assert sharded == mono

    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        shards=st.sampled_from([2, 7]),
        seed=st.integers(0, 10_000),
    )
    def test_count_star_probes_agree_with_monolithic(self, shards, seed):
        """Per-stripe count-star probes sum to the monolithic counts, so
        both planners order the chain identically."""
        mono_fed = _build(200, seed)
        shard_fed = _build(200, seed, shards=shards)
        mono = mono_fed.portal.explain(COUNT_SQL)
        sharded = shard_fed.portal.explain(COUNT_SQL)
        assert sharded["counts"] == mono["counts"]
        assert sharded["epochs"] == mono["epochs"]
        assert [s["archive"] for s in sharded["plan"]["steps"]] == [
            s["archive"] for s in mono["plan"]["steps"]
        ]
        assert [s["count_star"] for s in sharded["plan"]["steps"]] == [
            s["count_star"] for s in mono["plan"]["steps"]
        ]

    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        sql=st.sampled_from([XMATCH_SQL, FULL_SCAN_SQL, COUNT_SQL]),
        seed=st.integers(0, 10_000),
    )
    def test_one_shard_is_the_monolithic_count_probe(self, sql, seed):
        """The Portal's half of the one-partition identity: a monolithic
        archive is the one-member layout of the scattered count probe, so
        ``shards=1`` asks the same questions in the same order and gets
        the same counts and epochs — only the hosts that answer differ."""
        from repro.portal.decompose import decompose
        from repro.sql.parser import parse_query

        def probe(**layout):
            fed = _build(160, seed, **layout)
            decomposed = decompose(parse_query(sql), fed.portal.catalog)
            before = len(fed.network.metrics.messages)
            epochs = {}
            counts = fed.portal.planner.performance_counts(
                decomposed, epochs=epochs
            )
            sequence = [
                (m.operation, m.phase, m.kind)
                for m in fed.network.metrics.messages[before:]
            ]
            return counts, epochs, sequence

        mono = probe()
        assert probe(shards=1) == mono
        assert mono[2] == [
            ("ExecuteQueryPinned", "performance-query", kind)
            for _ in mono[0] for kind in ("request", "response")
        ]
