"""Boundary correctness: ownership edges and the partition cut.

Sharding cuts every archive on the same declination stripes and runs one
chain per stripe; the rows that can go wrong live exactly on the cut.
These tests pin the edge contracts:

* **Exactly-one-owner.** Ownership planning covers the *entire* zone
  space with inclusive, non-overlapping ranges — a body whose declination
  sits exactly on a zone cut has exactly one owner. Two owners would
  duplicate pairs; zero would drop them.
* **The partition cut, on purpose.** A planted sky puts rows exactly
  where a stripe's chain needs its margin: a matched pair whose seed one
  stripe owns and whose match the next (in both chain orders), a drop-out
  object across the cut from the tuple it must eliminate, bodies exactly
  on the cut declination, an AREA centred on the seam, a pair straddling
  RA 0/360 and the cut at once, and a threshold whose reach exceeds the
  margin (run on the full copies instead). Every query is checked against
  the monolithic twin *and* against the in-memory ``run_chain`` reference
  over the primaries' own tables.
"""

import os

import pytest

import repro.federation.builder as builder
from repro.federation.builder import FederationConfig, build_federation
from repro.portal.planner import OrderingStrategy
from repro.services.retry import RetryPolicy
from repro.shard import (
    MARGIN_DEG,
    ZoneRangeOwnership,
    margin_table,
    merge_match_lists,
    merge_seed_rows,
    plan_zone_ownership,
    prune_members,
    seed_order_keys,
)
from repro.shard.topology import ShardMember, ShardSet
from repro.sphere.coords import radec_to_vector
from repro.sql.ast import AreaClause
from repro.units import arcsec_to_rad
from repro.workloads.skysim import SurveyObservation
from repro.xmatch import LocalObject, run_chain
from repro.zone.index import DEFAULT_ZONE_HEIGHT_DEG, zone_count, zone_of

CHAOS_SEED = int(os.environ.get("SKYQUERY_CHAOS_SEED", "0"))

H = DEFAULT_ZONE_HEIGHT_DEG
#: The zone whose lower edge the planted sky forces the 2-stripe cut onto.
Z = zone_of(-0.5)
#: The cut declination: where stripe 1 ends and stripe 2 begins.
CUT = ZoneRangeOwnership(zone_lo=Z, zone_hi=Z).dec_interval()[0]
D = 0.2 / 3600.0  # 0.2 arcsec

PAIR_SQL = (
    "SELECT O.object_id, T.obj_id "
    "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T "
    "WHERE AREA({ra}, {dec}, {radius}) AND XMATCH(O, T) < {threshold}"
)
DROPOUT_SQL = (
    "SELECT O.object_id, T.obj_id "
    "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T, "
    "FIRST:Primary_Object P "
    f"WHERE AREA(185.05, {CUT!r}, 1800.0) AND XMATCH(O, T, !P) < 3.5"
)


def _pair_sql(ra=185.05, dec=CUT, radius=1800.0, threshold=3.5):
    return PAIR_SQL.format(ra=ra, dec=repr(dec), radius=radius,
                           threshold=threshold)


def _planted_sky():
    """``{archive: [(ra, dec), ...]}``; row ``i`` gets object id ``i + 1``."""
    sdss, twomass, first = [], [], []
    features = [
        # A matched pair whose SDSS half one stripe owns and whose
        # TWOMASS half the next, and the mirror image.
        ((185.000, CUT - D), (185.000, CUT + D)),
        ((185.005, CUT + D), (185.005, CUT - D)),
        # Bodies exactly on the cut declination.
        ((185.010, CUT), (185.010 + D, CUT)),
        ((185.015, CUT), (185.015, CUT - D)),
        # A pair just below the cut that FIRST eliminates from across it,
        # and a twin pair with no FIRST object near it.
        ((185.020, CUT - D), (185.020, CUT - D)),
        ((185.025, CUT - D), (185.025, CUT - D)),
        # A pair straddling RA 0/360 and the cut at once.
        ((359.99999, CUT - D), (0.00001, CUT + D)),
        # Rows 31.5 arcsec apart across the cut, one just past the
        # margin: inside a threshold-80 search (32 arcsec), so only the
        # full copies see both.
        ((185.030, CUT - 1 / 3600.0), (185.030, CUT + 30.5 / 3600.0)),
        ((185.035, CUT + 30.5 / 3600.0), (185.035, CUT - 1 / 3600.0)),
    ]
    for o_pos, t_pos in features:
        sdss.append(o_pos)
        twomass.append(t_pos)
    first.append((185.020, CUT + 2 * D))
    for k in range(1, 11):  # coincident background pairs on both sides
        for dec in (CUT - k * 0.02, CUT + H + k * 0.02):
            sdss.append((185.1 + k * 0.01, dec))
            twomass.append((185.1 + k * 0.01, dec))
    first.append((185.3, CUT + 0.3))
    # Balance the rows below and above zone Z, so the 2-stripe quantile
    # cut lands exactly on CUT.
    rows = sdss + twomass + first
    below = sum(zone_of(dec) < Z for _, dec in rows)
    above = sum(zone_of(dec) > Z for _, dec in rows)
    for k in range(abs(below - above)):
        dec = CUT + 0.4 if below > above else CUT - 0.4
        sdss.append((186.0 + k * 0.01, dec))
    return {"SDSS": sdss, "TWOMASS": twomass, "FIRST": first}


SKY = _planted_sky()


def _observe(survey, bodies, seed):
    observation = SurveyObservation()
    for object_id, (ra, dec) in enumerate(SKY[survey.archive], start=1):
        row = {
            survey.object_id_column: object_id,
            survey.ra_column: ra,
            survey.dec_column: dec,
        }
        if survey.has_type:
            row["type"] = "GALAXY"
        for band in survey.bands:
            row[f"{band}_flux"] = 15.0
        observation.rows.append(row)
        observation.truth[object_id] = object_id
    return observation


def _planted(shards):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(builder, "observe_survey", _observe)
        return build_federation(
            FederationConfig(
                n_bodies=1,
                seed=31,
                shards=shards,
                retry_policy=RetryPolicy(
                    max_attempts=3, timeout_s=5.0, base_backoff_s=0.2,
                    max_backoff_s=2.0, seed=31 + CHAOS_SEED,
                ),
            )
        )


@pytest.fixture(scope="module")
def twins():
    return _planted(0), _planted(2)


def _reference(fed, sql, strategy):
    """Sorted ``(O, T)`` id pairs of ``repro.xmatch.run_chain`` over the
    primaries' own rows, in the plan's computation order."""
    plan = fed.portal.explain(sql, strategy=strategy)["plan"]
    chain = []
    for step in reversed(plan["steps"]):
        rows = fed.nodes[step["archive"]].wrapper.execute_sql(step["sql"]).rows
        chain.append((
            step["alias"],
            [LocalObject(r[0], radec_to_vector(r[1], r[2])) for r in rows],
            arcsec_to_rad(step["sigma_arcsec"]),
            step["dropout"],
        ))
    tuples = run_chain(chain, plan["threshold"], engine="scalar")
    return sorted((t.member_id("O"), t.member_id("T")) for t in tuples)


def _hop_stats(result):
    """Node stats minus what partitioning legitimately skews (buffer-pool
    reads; the per-chain batch counts)."""
    skewed = ("logical_reads", "physical_reads", "batches", "batch_rows")
    return [
        {k: v for k, v in stats.items() if k not in skewed}
        for stats in result.node_stats
    ]


def _check(twins, sql, strategy=OrderingStrategy.COUNT_DESC, stripes=2):
    """Sharded == monolithic twin == in-memory reference; returns rows."""
    mono_fed, sharded_fed = twins
    mono = mono_fed.portal.submit(sql, strategy=strategy)
    sharded = sharded_fed.portal.submit(sql, strategy=strategy)
    plan = sharded_fed.portal.explain(sql, strategy=strategy)
    assert len(plan["partitions"]) == stripes
    assert list(sharded.rows) == list(mono.rows)
    assert sharded.warnings == mono.warnings == []
    assert not sharded.degraded
    assert sharded.counts == mono.counts
    assert _hop_stats(sharded) == _hop_stats(mono)
    assert sorted(sharded.rows) == _reference(mono_fed, sql, strategy)
    assert len(set(sharded.rows)) == len(sharded.rows)
    return list(sharded.rows)


def _ids(archive, *positions):
    return [SKY[archive].index(pos) + 1 for pos in positions]


class TestExactlyOneOwner:
    def test_zone_cut_boundaries_have_one_owner(self):
        """A declination exactly on a zone cut belongs to the shard whose
        range *starts* there — never to both neighbours, never to none."""
        decs = [-1.4 + i * 0.011 for i in range(200)]
        ownerships = plan_zone_ownership(decs, 4, htm_depth=8)
        h = ownerships[0].zone_height_deg
        for left, right in zip(ownerships, ownerships[1:]):
            if right.empty:
                continue
            boundary_dec = right.zone_lo * h - 90.0
            owners = [own for own in ownerships if own.owns(boundary_dec)]
            assert owners == [right]
            # A hair below the cut still belongs to the left neighbour.
            below = boundary_dec - h / 4.0
            if not left.empty and left.owns(below):
                assert [o for o in ownerships if o.owns(below)] == [left]

    def test_zone_space_fully_covered_at_poles(self):
        ownerships = plan_zone_ownership([-0.5, 0.5], 3)
        for dec in (-90.0, 90.0, -89.999, 89.999, 0.0):
            assert len([o for o in ownerships if o.owns(dec)]) == 1
        assert ownerships[0].zone_lo == 0
        assert ownerships[-1].zone_hi == zone_count(DEFAULT_ZONE_HEIGHT_DEG) - 1


class TestPartitionCut:
    def test_the_planted_sky_is_cut_where_it_was_planted(self, twins):
        """Every archive shares the one cut, each shard owns its stripe
        and copies its neighbour's rows within the margin — the cut rows
        are in both shards, owned by exactly one."""
        _, sharded = twins
        signatures = set()
        for archive, nodes in sharded.shards.items():
            record = sharded.portal.catalog.node(archive)
            signatures.add(record.shard_set.layout_signature())
            assert record.shard_set.members[1].ownership.zone_lo == Z
            table = record.info.primary_table
            owned = sum(len(node.db.table(table)) for node in nodes)
            assert owned == len(SKY[archive])
            near = [d for _, d in SKY[archive] if abs(d - CUT) < MARGIN_DEG]
            copies = sum(len(n.db.table(margin_table(table))) for n in nodes)
            assert copies >= len(near) > 0
        assert len(signatures) == 1

    @pytest.mark.parametrize(
        "strategy", [OrderingStrategy.COUNT_DESC, OrderingStrategy.COUNT_ASC]
    )
    def test_pair_split_by_the_cut_in_both_chain_orders(self, twins, strategy):
        """Seed below / match above and seed above / match below, with
        either archive seeding the chain: the match lives only in the
        seed stripe's margin."""
        rows = _check(twins, _pair_sql(), strategy)
        for o_pos, t_pos in (
            ((185.000, CUT - D), (185.000, CUT + D)),
            ((185.005, CUT + D), (185.005, CUT - D)),
        ):
            pair = (*_ids("SDSS", o_pos), *_ids("TWOMASS", t_pos))
            assert pair in rows

    def test_dropout_across_the_cut_eliminates(self, twins):
        """The FIRST object sits above the cut; the pair it eliminates
        sits below, in the other stripe's chain."""
        rows = _check(twins, DROPOUT_SQL)
        doomed = (*_ids("SDSS", (185.020, CUT - D)),
                  *_ids("TWOMASS", (185.020, CUT - D)))
        kept = (*_ids("SDSS", (185.025, CUT - D)),
                *_ids("TWOMASS", (185.025, CUT - D)))
        assert doomed not in rows
        assert kept in rows

    def test_bodies_exactly_on_the_cut(self, twins):
        rows = _check(twins, _pair_sql())
        assert (*_ids("SDSS", (185.010, CUT)),
                *_ids("TWOMASS", (185.010 + D, CUT))) in rows
        assert (*_ids("SDSS", (185.015, CUT)),
                *_ids("TWOMASS", (185.015, CUT - D))) in rows

    def test_reach_beyond_the_margin_runs_on_the_full_copies(self, twins):
        """At threshold 80 a tuple's search reaches 32 arcsec past its
        seed — more than the 30 arcsec margin, and the planted rows 31.5
        arcsec across the cut are examined — so the plan runs as one
        chain on the archives' full copies, and the answer (node stats
        included) is still the twin's."""
        assert 80 * (0.1 + 0.3) / 3600.0 > MARGIN_DEG
        rows = _check(twins, _pair_sql(threshold=80.0), stripes=0)
        assert len(rows) > len(_check(twins, _pair_sql()))


class TestStraddlingCircles:
    def test_circle_on_zone_seam_matches_monolithic(self, twins):
        """A small AREA centred on the cut: both stripes answer, nothing
        is duplicated at the seam, nothing lost."""
        rows = _check(twins, _pair_sql(ra=185.005, radius=60.0))
        assert len(rows) >= 3

    def test_circle_spanning_every_shard(self):
        """A radius wider than the whole field reaches every populated
        stripe of a randomly drawn sky and still merges to the twin's
        bytes and the reference's pairs."""
        def build(shards):
            return build_federation(
                FederationConfig(n_bodies=260, seed=23, shards=shards)
            )

        sql = _pair_sql(ra=185.0, dec=-0.5, radius=7200.0)
        rows = _check((build(0), build(4)), sql, stripes=4)
        assert rows


class TestRAWrap:
    def test_field_wrapping_ra_origin(self, twins):
        """A pair across RA 0/360 and across the cut at once."""
        rows = _check(twins, _pair_sql(ra=0.0, radius=60.0))
        assert rows == [(*_ids("SDSS", (359.99999, CUT - D)),
                         *_ids("TWOMASS", (0.00001, CUT + D)))]

    def test_area_centered_across_the_seam(self, twins):
        """The same pair, with the AREA centred just *west* of RA 0."""
        rows = _check(twins, _pair_sql(ra=359.9999, radius=60.0))
        assert rows == [(*_ids("SDSS", (359.99999, CUT - D)),
                         *_ids("TWOMASS", (0.00001, CUT + D)))]


class TestMergeOrder:
    """The canonical merge orders, pinned at the unit level."""

    def test_full_scan_merge_is_position_order(self):
        """Without an AREA a seed's key is its row position: partition
        answers merge back into plain position order, rows of one seed
        keeping their stream's order, and the key is dropped."""
        stripe_1 = [("a", k) for k in seed_order_keys([1, 1, 7])]
        stripe_2 = [("b", k) for k in seed_order_keys([4, 9])]
        assert merge_seed_rows([stripe_1, stripe_2]) == [
            ("a",), ("a",), ("b",), ("a",), ("b",)
        ]

    def test_full_ranges_come_first(self):
        """Rows in scan order, the first one from a full range: it keys
        first, the partial rows after it by trixel id."""
        keys = seed_order_keys([1, 0, 2], [100, 200, 50], 1, 8)
        assert sorted(range(3), key=keys.__getitem__) == [0, 2, 1]

    def test_seed_keys_match_the_cover_and_stored_ids(self, twins, monkeypatch):
        """The seed hop's keys are byte-identical to keys built the long
        way: each row's trixel id looked up through its ``_skyq_pos``,
        "full" decided by the AREA cover's full ranges."""
        import repro.skynode.crossmatch as crossmatch
        from repro.htm.cover import cover
        from repro.shard import SHARD_POS_COLUMN
        from repro.sql.area import region_for

        calls = []

        def spy(*args):
            keys = seed_order_keys(*args)
            calls.append((args, keys))
            return keys

        monkeypatch.setattr(crossmatch, "seed_order_keys", spy)
        _, sharded = twins
        partial_rows = 0
        for ra, radius in ((185.05, 1800.0), (185.005, 60.0)):
            calls.clear()
            sql = _pair_sql(ra=ra, radius=radius)
            plan = sharded.portal.explain(sql)["plan"]
            sharded.portal.submit(sql)
            stored_ids = {}
            for node in sharded.shards[plan["steps"][-1]["archive"]]:
                table = node.db.table(node.info.primary_table)
                column = table.schema.column_index(SHARD_POS_COLUMN)
                for i in range(len(table)):
                    stored_ids[table.row(i)[column]] = table.htm_id(i)
            full = cover(region_for(AreaClause(ra, CUT, radius)), 12).full
            assert len(calls) == 2  # one seed hop per stripe
            for (positions, hids, full_rows, depth), keys in calls:
                assert depth == 12 and 0 <= full_rows <= len(positions)
                assert list(hids) == [stored_ids[pos] for pos in positions]
                id_bits = 4 + 2 * depth
                assert keys == [
                    ((((0 if full.contains(hid) else 1) << id_bits) | hid)
                     << 40) | pos
                    for pos, hid in zip(positions, hids)
                ]
                partial_rows += len(positions) - full_rows
        assert partial_rows  # the partial arm is exercised too

    def test_match_merge_sorts_seq_then_position(self):
        rows = [
            (2, 5, "x"), (1, 9, "y"), (2, 1, "z"), (1, 3, "w"),
        ]
        merged = merge_match_lists(rows)
        assert [seq for seq, _ in merged] == [1, 2]
        assert [[r[1] for r in group] for _, group in merged] == [
            [3, 9], [1, 5],
        ]

    def test_prune_keeps_boundary_shard_via_trixel_pad(self):
        """A zone shard owning only the far side of a boundary trixel must
        survive pruning: the pad rounds the cap window outward."""
        area = AreaClause(ra_deg=185.0, dec_deg=-0.5, radius_arcsec=60.0)
        edge_zone = zone_of(-0.5 - 60.0 / 3600.0, H) - 1
        member = ShardMember(
            name="edge",
            ownership=ZoneRangeOwnership(
                zone_lo=0, zone_hi=edge_zone, htm_depth=8
            ),
            endpoints=({"query": "http://edge.skyquery.net/q"},),
        )
        assert prune_members([member], area) == [member]

    def test_prune_drops_far_away_zone_shard(self):
        area = AreaClause(ra_deg=185.0, dec_deg=-0.5, radius_arcsec=60.0)
        far = ShardMember(
            name="far",
            ownership=ZoneRangeOwnership(
                zone_lo=zone_of(60.0), zone_hi=zone_of(89.0), htm_depth=8
            ),
            endpoints=({"query": "http://far.skyquery.net/q"},),
        )
        assert prune_members([far], area) == []

    def test_empty_shards_are_never_contacted(self):
        empty_zone = ShardMember(
            name="ez",
            ownership=ZoneRangeOwnership(zone_lo=5, zone_hi=4, htm_depth=8),
            endpoints=({"query": "http://ez.skyquery.net/q"},),
        )
        assert prune_members([empty_zone], None) == []

    def test_shard_set_rejects_mixed_ownership_kinds(self):
        """Zone ranges are the one layout: a member advertising any other
        ownership kind (HTM trixel ranges, say) does not
        decode."""
        from repro.errors import PlanningError

        zone = ShardMember(
            name="a",
            ownership=ZoneRangeOwnership(zone_lo=0, zone_hi=1),
            endpoints=({"query": "http://a/q"},),
        ).to_wire()
        htm = dict(zone, name="b", ownership={
            "kind": "htm", "id_lo": 0, "id_hi": 1, "htm_depth": 4,
        })
        with pytest.raises(PlanningError):
            ShardSet.from_wire([zone, htm])
