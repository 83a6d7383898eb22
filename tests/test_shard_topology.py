"""Shard topology, registration validation, fingerprint, and config.

The layout's plumbing contracts, pinned at the unit level:

* ownership and :class:`ShardSet` wire codecs round-trip exactly — the
  layout travels the wire once, at registration, and never again;
* registration rejects layouts the Planner cannot route (malformed
  ownership, repeated names, members without a crossmatch endpoint);
* :meth:`ShardSet.layout_signature` is content-based — replica URL
  substitution is fingerprint-neutral, re-sharding is not — and
  ``execution_profile()`` folds it in so the semantic cache never
  serves one layout's bytes to another;
* ``FederationConfig`` validation refuses nonsense shard counts, any
  shard key but the one zone layout, and the shards+ingest combination
  (ownership is planned once at provisioning; live ingest would route new
  rows nowhere);
* the CLI exposes ``--shards``.
"""

import pytest

from repro.errors import ConfigurationError, PlanningError, RegistrationError
from repro.federation.builder import FederationConfig, build_federation
from repro.portal.registration import RegistrationService
from repro.shard import ZoneRangeOwnership, ownership_from_wire
from repro.shard import margin_table
from repro.shard.topology import ShardMember, ShardSet


def _member(name="s1", *, ownership=None, endpoints=None):
    return ShardMember(
        name=name,
        ownership=ownership
        or ZoneRangeOwnership(zone_lo=0, zone_hi=100, htm_depth=8),
        endpoints=endpoints
        if endpoints is not None
        else (
            {
                "query": f"http://{name}.skyquery.net/q",
                "crossmatch": f"http://{name}.skyquery.net/x",
            },
        ),
    )


class TestWireCodecs:
    def test_zone_ownership_round_trip(self):
        own = ZoneRangeOwnership(
            zone_lo=12, zone_hi=340, zone_height_deg=0.1, htm_depth=9
        )
        assert ownership_from_wire(own.to_wire()) == own

    def test_unknown_ownership_kind_rejected(self):
        for kind in ("voronoi", "htm"):
            with pytest.raises(PlanningError):
                ownership_from_wire({"kind": kind})

    def test_shard_set_round_trip(self):
        original = ShardSet(
            members=(
                _member("a"),
                _member(
                    "b",
                    ownership=ZoneRangeOwnership(
                        zone_lo=101, zone_hi=1799, htm_depth=8
                    ),
                ),
            )
        )
        assert ShardSet.from_wire(original.to_wire()) == original

    def test_candidate_urls_preserve_order_and_skip_gaps(self):
        member = _member(
            "s1",
            endpoints=(
                {"query": "http://p/q", "crossmatch": "http://p/x"},
                {"query": "http://r1/q"},  # mirror without crossmatch
                {"query": "http://r2/q", "crossmatch": "http://r2/x"},
            ),
        )
        assert member.candidate_urls("query") == (
            "http://p/q", "http://r1/q", "http://r2/q",
        )
        assert member.candidate_urls("crossmatch") == (
            "http://p/x", "http://r2/x",
        )


class TestRegistrationValidation:
    def _wire(self, members):
        return ShardSet(members=tuple(members)).to_wire()

    def test_valid_layout_passes_through(self):
        wire = self._wire([_member("a")])
        assert RegistrationService._validate_shards("SDSS", wire) == wire

    def test_empty_layout_is_none(self):
        assert RegistrationService._validate_shards("SDSS", None) is None
        assert RegistrationService._validate_shards("SDSS", []) is None

    def test_mixed_ownership_kinds_rejected(self):
        wire = self._wire([_member("a"), _member("b")])
        wire[1]["ownership"] = {
            "kind": "htm", "id_lo": 0, "id_hi": 1, "htm_depth": 4,
        }
        with pytest.raises(RegistrationError, match="malformed shard layout"):
            RegistrationService._validate_shards("SDSS", wire)

    def test_repeated_member_names_rejected(self):
        wire = self._wire([_member("a"), _member("a")])
        with pytest.raises(RegistrationError, match="repeats member names"):
            RegistrationService._validate_shards("SDSS", wire)

    def test_member_without_crossmatch_endpoint_rejected(self):
        wire = self._wire([
            _member("a", endpoints=({"query": "http://a/q"},))
        ])
        with pytest.raises(
            RegistrationError, match="no crossmatch endpoint"
        ):
            RegistrationService._validate_shards("SDSS", wire)

    def test_garbage_ownership_struct_rejected(self):
        wire = self._wire([_member("a")])
        del wire[0]["ownership"]["zone_lo"]
        with pytest.raises(RegistrationError, match="malformed shard layout"):
            RegistrationService._validate_shards("SDSS", wire)


class TestLayoutSignature:
    def test_signature_ignores_endpoint_urls(self):
        """Replica substitution (different URLs, same ownership) must not
        move the fingerprint — exactly like archive-level failover."""
        a = ShardSet(members=(_member("a"),))
        b = ShardSet(
            members=(
                _member(
                    "a",
                    endpoints=(
                        {"query": "http://other/q",
                         "crossmatch": "http://other/x"},
                        {"query": "http://mirror/q",
                         "crossmatch": "http://mirror/x"},
                    ),
                ),
            )
        )
        assert a.layout_signature() == b.layout_signature()

    def test_signature_tracks_ownership_bounds(self):
        a = ShardSet(members=(_member("a"),))
        b = ShardSet(
            members=(
                _member(
                    "a",
                    ownership=ZoneRangeOwnership(
                        zone_lo=0, zone_hi=99, htm_depth=8
                    ),
                ),
            )
        )
        assert a.layout_signature() != b.layout_signature()

    def test_profile_folds_layout_per_archive(self):
        mono = build_federation(FederationConfig(n_bodies=80, seed=7))
        sharded = build_federation(
            FederationConfig(n_bodies=80, seed=7, shards=2)
        )
        resharded = build_federation(
            FederationConfig(n_bodies=80, seed=7, shards=4)
        )
        mono_keys = dict(mono.portal.execution_profile())
        shard_profile = dict(sharded.portal.execution_profile())
        assert not any(k.startswith("shard_layout:") for k in mono_keys)
        for archive in sharded.nodes:
            assert f"shard_layout:{archive}" in shard_profile
        assert (
            sharded.portal.execution_profile()
            != resharded.portal.execution_profile()
        )

    def test_sharded_cache_exact_hit_stays_exact(self):
        """Two identical submissions on a sharded federation: the second
        is a zero-wire exact hit with the first's bytes."""
        fed = build_federation(
            FederationConfig(n_bodies=150, seed=9, shards=3, cache=True)
        )
        sql = (
            "SELECT O.object_id, T.obj_id "
            "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T "
            "WHERE AREA(185.0, -0.5, 900.0) AND XMATCH(O, T) < 3.5"
        )
        first = fed.portal.submit(sql)
        second = fed.portal.submit(sql)
        assert fed.portal.cache.stats.hits == 1
        assert list(second.rows) == list(first.rows)
        assert dict(second.epochs) == dict(first.epochs)


class TestConfigValidation:
    def test_negative_shards_rejected(self):
        with pytest.raises(ConfigurationError, match="shards"):
            build_federation(FederationConfig(n_bodies=10, shards=-1))

    def test_unknown_shard_key_rejected(self):
        for key in ("voronoi", "htm"):
            with pytest.raises(ConfigurationError, match="'zone'"):
                build_federation(
                    FederationConfig(n_bodies=10, shards=2, shard_key=key)
                )

    def test_shards_with_ingest_rejected(self):
        with pytest.raises(ConfigurationError, match="ingest"):
            build_federation(
                FederationConfig(n_bodies=10, shards=2, ingest=True)
            )

    def test_single_shard_is_legal_and_sharded(self):
        """shards=1 still runs as a partition chain: one member owning
        the whole sky, with nothing in its margin."""
        fed = build_federation(FederationConfig(n_bodies=60, seed=3, shards=1))
        for archive in fed.nodes:
            record = fed.portal.catalog.node(archive)
            assert record.shard_set is not None
            assert len(record.shard_set.members) == 1
            assert len(fed.shards[archive]) == 1
        sql = (
            "SELECT O.object_id, T.obj_id "
            "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T "
            "WHERE XMATCH(O, T) < 3.5"
        )
        assert len(fed.portal.explain(sql)["partitions"]) == 1

    def test_shard_tables_partition_the_primary(self):
        """Disjoint union: shard row counts sum to the primary's table,
        every archive is cut on the same stripes, and a shard + its
        mirror hold identical slices and margins."""
        fed = build_federation(
            FederationConfig(n_bodies=120, seed=5, shards=4, replicas=1)
        )
        layouts = set()
        for archive, shard_nodes in fed.shards.items():
            primary = fed.nodes[archive]
            table = primary.info.primary_table
            total = sum(len(node.db.table(table)) for node in shard_nodes)
            assert total == len(primary.db.table(table))
            layouts.add(
                fed.portal.catalog.node(archive).shard_set.layout_signature()
            )
            for index, shard_node in enumerate(shard_nodes, 1):
                mirrors = fed.shard_replicas[archive][f"{archive}-shard{index}"]
                assert mirrors
                for mirror in mirrors:
                    for name in (table, margin_table(table)):
                        assert len(mirror.db.table(name)) == len(
                            shard_node.db.table(name)
                        )
        assert len(layouts) == 1


class TestCLIFlags:
    def test_cli_accepts_shard_flags(self, capsys):
        from repro.cli import main

        code = main([
            "query",
            "SELECT O.object_id, T.obj_id FROM SDSS:Photo_Object O, "
            "TWOMASS:Photo_Primary T "
            "WHERE AREA(185.0, -0.5, 600.0) AND XMATCH(O, T) < 3.5",
            "--bodies", "200", "--shards", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "object_id" in out or "rows" in out
