"""Chaos tests: shard failover, shard-named degradation, and the
endpoint-candidate ordering contract.

The resilience contract for sharded archives extends docs/RESILIENCE.md:

* A shard primary dying is invisible in the answer when the shard has a
  mirror — the Portal walks *that stripe's* candidates for its partition
  chain, counts the failover, and the answer stays byte-identical to the
  fault-free oracle, never degraded.
* A shard with no mirror left yields a degraded empty result whose
  warning names **the shard**, not just the archive — operators must see
  which slice of the sky went dark.
* Shard endpoints are slices, not whole-archive substitutes: archive
  failover must NEVER route a chain hop to one, yet a cancelled query
  must still free their state, whichever chain's head is gone.

``SKYQUERY_CHAOS_SEED`` shifts retry timings like the other chaos suites.
"""

import os

import pytest

from repro.federation.builder import FederationConfig, build_federation
from repro.services.retry import RetryPolicy
from repro.shard import prune_members
from repro.sql.ast import AreaClause
from repro.transport.faults import FaultPlan
from repro.workloads.skysim import SkyField
from repro.services.chunked import TRANSFER

CHAOS_SEED = int(os.environ.get("SKYQUERY_CHAOS_SEED", "0"))

AREA = AreaClause(ra_deg=185.0, dec_deg=-0.5, radius_arcsec=900.0)

XMATCH_SQL = (
    "SELECT O.object_id, O.ra, T.obj_id "
    "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T "
    "WHERE AREA(185.0, -0.5, 900.0) AND XMATCH(O, T) < 3.5"
)


def _build(*, shards=4, replicas=0, chain_mode="store-forward",
           chunk_budget_bytes=None):
    return build_federation(
        FederationConfig(
            n_bodies=300,
            seed=11,
            sky_field=SkyField(185.0, -0.5, 1800.0),
            retry_policy=RetryPolicy(
                max_attempts=3, timeout_s=5.0, base_backoff_s=0.2,
                max_backoff_s=2.0, seed=11 + CHAOS_SEED,
            ),
            shards=shards,
            replicas=replicas,
            chain_mode=chain_mode,
            chunk_budget_bytes=chunk_budget_bytes,
        )
    )


def _oracle(chain_mode="store-forward"):
    fed = _build(shards=0, chain_mode=chain_mode)
    result = fed.portal.submit(XMATCH_SQL)
    assert result.rows and not result.degraded
    return list(result.rows), list(result.columns)


def _victim_member(fed, archive="SDSS"):
    """A shard member the query AREA actually needs (never pruned away)."""
    record = fed.portal.catalog.node(archive)
    members = prune_members(record.shard_set.members, AREA)
    assert members, "query AREA must intersect at least one shard"
    return members[0]


def _host_of(url):
    return url.split("/")[2]


def _kill(fed, member, candidate=0):
    fed.network.remove_host(_host_of(member.candidate_urls("query")[candidate]))


class TestShardFailover:
    def test_dead_primary_with_mirror_is_invisible(self):
        """Kill a needed shard's primary: the mirror answers, bytes match
        the fault-free monolithic oracle, nothing is degraded — and the
        substitution is counted."""
        rows, columns = _oracle()
        fed = _build(replicas=1)
        _kill(fed, _victim_member(fed))
        result = fed.portal.submit(XMATCH_SQL)
        assert result.failovers >= 1
        assert not result.degraded
        assert not result.warnings
        assert list(result.rows) == rows
        assert list(result.columns) == columns

    def test_dead_mirror_alone_is_also_invisible(self):
        """Killing only the mirror never even costs a failover attempt."""
        rows, _ = _oracle()
        fed = _build(replicas=1)
        _kill(fed, _victim_member(fed), candidate=1)
        result = fed.portal.submit(XMATCH_SQL)
        assert result.failovers == 0
        assert not result.degraded and not result.warnings
        assert list(result.rows) == rows

    def test_dead_shard_without_mirror_names_the_shard(self):
        """No mirror left: degrade, and the warning must name the shard —
        not merely the archive — so operators see which slice went dark."""
        fed = _build(replicas=0)
        victim = _victim_member(fed)
        _kill(fed, victim)
        result = fed.portal.submit(XMATCH_SQL)
        assert result.degraded
        assert result.rows == []
        joined = " ".join(result.warnings)
        assert f"shard {victim.name!r}" in joined
        assert "'SDSS'" in joined  # the owning archive, for context
        assert victim.name != "SDSS"  # the name is shard-level, not archive

    @staticmethod
    def _between_plan_and_chain(**config):
        """A sim instant after planning finished and before the chain
        starts, read off a fault-free twin (the simulation is
        deterministic, so the faulted run follows the same schedule)."""
        twin = _build(**config)
        before = len(twin.network.metrics.messages)
        twin.portal.submit(XMATCH_SQL)
        messages = twin.network.metrics.messages[before:]
        planned = max(
            m.sim_time for m in messages if m.phase == "performance-query"
        )
        chained = min(
            m.sim_time for m in messages if m.phase == "crossmatch-chain"
        )
        assert planned < chained
        return (planned + chained) / 2.0

    @pytest.mark.parametrize("chain_mode", ["store-forward", "pipelined"])
    def test_mid_chain_shard_death_degrades_with_shard_name(self, chain_mode):
        """The shard dies after a healthy plan and before the chain runs:
        its partition chain's recovery exhausts the candidate list and the
        executor degrades with a shard-named warning."""
        config = dict(replicas=0, chain_mode=chain_mode)
        fed = _build(**config)
        victim = _victim_member(fed)
        fed.network.set_fault_plan(
            FaultPlan(seed=1).crash(
                _host_of(victim.candidate_urls("query")[0]),
                self._between_plan_and_chain(**config),
            )
        )
        result = fed.portal.submit(XMATCH_SQL)
        assert result.degraded
        assert result.plan is not None  # planning saw a healthy federation
        joined = " ".join(result.warnings)
        assert "shard unavailable:" in joined
        assert f"shard {victim.name!r}" in joined

    @pytest.mark.parametrize(
        "transport",
        [{}, {"chain_mode": "pipelined", "stream_batch_size": 50}],
        ids=["store-forward", "pipelined"],
    )
    def test_shard_death_cancel_frees_the_surviving_shards(self, transport):
        """Every chain carries its execution id, deadline or not: when the
        second stripe's seed shard dies as its chain reaches it, the
        cancel of every partition chain finds — and frees — what the first
        stripe's chain left on its shards, on every node."""

        def build():
            return build_federation(
                FederationConfig(n_bodies=600, seed=3, shards=2, **transport)
            )

        twin = build()
        before = len(twin.network.metrics.messages)
        seed = twin.portal.submit(XMATCH_SQL).plan.steps[-1].archive
        victim = twin.shards[seed][1]
        reached = next(
            m for m in twin.network.metrics.messages[before:]
            if m.dst == victim.hostname and m.phase == "crossmatch-chain"
        )

        fed = build()
        fed.network.set_fault_plan(
            FaultPlan(seed=1).crash(victim.hostname, reached.sim_time - 0.001)
        )
        result = fed.portal.submit(XMATCH_SQL)
        assert result.degraded
        assert "shard unavailable:" in " ".join(result.warnings)
        assert f"shard {seed}-shard2" in " ".join(result.warnings).replace(
            "'", ""
        )
        metrics = fed.network.metrics
        assert metrics.cancels >= 1 and metrics.eager_reclaims >= 1
        execution = f"{fed.portal.hostname}-x1"
        survivors = [
            node for group in fed.shards.values() for node in group
            if node.hostname != victim.hostname
        ]
        for node in [*survivors, *fed.nodes.values()]:
            assert node.leases.owned_by(execution) == []
            assert node.crossmatch.open_streams == 0
            assert node.leases.held(TRANSFER) == 0

    def test_mid_chain_shard_death_with_mirror_stays_complete(self):
        """Same mid-chain kill, but a mirror exists: the fan-out slides to
        the next candidate and the full answer still comes back."""
        rows, _ = _oracle()
        fed = _build(replicas=1)
        fed.network.set_fault_plan(
            FaultPlan(seed=1).crash(
                _host_of(_victim_member(fed).candidate_urls("query")[0]),
                self._between_plan_and_chain(replicas=1),
            )
        )
        result = fed.portal.submit(XMATCH_SQL)
        assert fed.network.metrics.fault_count("crash") == 1
        assert not result.degraded and not result.warnings
        assert list(result.rows) == rows

    def test_archive_coordinator_failover_composes_with_shards(self):
        """Kill the *archive* primary of a sharded archive: its count
        probe and the partition chains run on the shards, which never
        need it, and the answer matches the oracle."""
        rows, _ = _oracle()
        fed = _build(replicas=1)
        fed.network.remove_host(fed.nodes["SDSS"].hostname)
        result = fed.portal.submit(XMATCH_SQL)
        assert not result.degraded
        assert list(result.rows) == rows


#: The same query at a threshold whose reach (80 x (0.1 + 0.3) arcsec)
#: exceeds the shards' margin, so it runs on the archives' full copies.
#: Only such a plan reaches a sharded archive's own endpoints: its count
#: probe goes to the shards, so a dead coordinator is met by the chain.
FULL_COPY_SQL = XMATCH_SQL.replace("< 3.5", "< 80")


class TestEndpointCandidateOrdering:
    """The ordering/membership contract of archive failover, as the
    plans it produces show it."""

    def test_archive_failover_never_lands_on_a_shard(self):
        """Shard endpoints hold slices — substituting one for the archive
        would silently answer from 1/N of the sky. Kill a sharded
        archive's coordinator: the hop moves to the archive replica,
        whatever shard and shard-mirror endpoints are registered."""
        fed = _build(replicas=1)
        fed.network.remove_host(fed.nodes["SDSS"].hostname)
        result = fed.portal.submit(FULL_COPY_SQL)
        assert result.failovers == 1 and not result.degraded
        slices = {node.hostname for node in fed.shards["SDSS"]}
        for mirrors in fed.shard_replicas["SDSS"].values():
            slices.update(node.hostname for node in mirrors)
        (step,) = [s for s in result.plan.steps if s.archive == "SDSS"]
        assert _host_of(step.url) == fed.replicas["SDSS"][0].hostname
        for candidate in fed.portal.planner.candidates("SDSS"):
            assert _host_of(candidate["crossmatch"]) not in slices

    def test_candidates_are_tried_primary_first_in_registration_order(self):
        """Fault-free hops sit on the registered primaries; each death
        moves the hop exactly one candidate down the registration order,
        and shard registration does not reorder the list."""
        for dead in (0, 1, 2):
            fed = _build(replicas=2)
            order = [fed.nodes["SDSS"], *fed.replicas["SDSS"]]
            for node in order[:dead]:
                fed.network.remove_host(node.hostname)
            result = fed.portal.submit(FULL_COPY_SQL)
            assert not result.degraded
            assert result.failovers == (1 if dead else 0)
            for step in result.plan.steps:
                if step.archive == "SDSS":
                    assert _host_of(step.url) == order[dead].hostname
                    assert [
                        _host_of(c["crossmatch"])
                        for c in fed.portal.planner.candidates("SDSS")
                    ] == [node.hostname for node in order]
                else:
                    assert _host_of(step.url) == (
                        fed.nodes[step.archive].hostname
                    )

    def test_cancel_chain_reaches_shard_endpoints(self):
        """A deadline death mid-chain must free server state on the shard
        workers and their mirrors — every partition chain's head is
        cancelled, and every other shard candidate directly."""
        # A small chunk budget drains every hop's answer in budget-checked
        # FetchChunk requests, so a deadline near the end of the chain
        # faults while every stripe's hops hold their streams.
        twin = _build(replicas=1, chunk_budget_bytes=1024)
        start = twin.network.clock.now
        twin.portal.submit(XMATCH_SQL)
        duration = twin.network.clock.now - start
        fed = _build(replicas=1, chunk_budget_bytes=1024)
        deadline = fed.network.clock.now + 0.95 * duration
        qid = f"{fed.portal.hostname}-q{fed.portal.queries_served + 1}"
        result = fed.portal.submit(XMATCH_SQL, deadline_s=deadline)
        assert result.degraded
        assert fed.network.metrics.eager_reclaims >= 1
        leftovers = []
        shard_nodes = [
            node for group in fed.shards.values() for node in group
        ]
        for mirrors_by_shard in fed.shard_replicas.values():
            for mirrors in mirrors_by_shard.values():
                shard_nodes.extend(mirrors)
        for node in shard_nodes:
            for kind, key, _ in node.leases.owned_by(qid):
                leftovers.append((node.hostname, kind, key))
        assert leftovers == []
