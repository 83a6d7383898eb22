"""Spatial sharding: co-partitioned layout, margins, and merge order.

One archive may register as N *spatial shards*: worker SkyNodes that each
own a declination stripe of the sky and hold exactly the primary table
rows whose positions fall inside it, plus margin copies of the rows just
past its edges. Every sharded archive is cut on the same stripes, so a
query runs as one independent chain per stripe and the Portal merges the
answers — the layout of the parallel SkyQuery join engine (Dobos et al.)
and of the zone-parallel XMatch work ("Entering the Parallel Zone").

This package is deliberately free of service/transport code: it holds the
pure, deterministic pieces the provisioner, the Planner, the SkyNodes and
the Portal's merge share:

* :mod:`repro.shard.ownership` — zone-range ownership, its wire codec,
  federation-wide partition planning, the margin, and the exact-safe
  pruning predicates.
* :mod:`repro.shard.topology` — :class:`ShardMember` / :class:`ShardSet`,
  the advertised shard layout with per-shard endpoint-candidate lists.
* :mod:`repro.shard.merge` — the canonical order that makes a
  partitioned query byte-identical to its monolithic twin.
"""

from repro.shard.merge import (
    SEED_KEY,
    SHARD_POS_COLUMN,
    merge_match_lists,
    merge_seed_rows,
    seed_order_keys,
)
from repro.shard.ownership import (
    MARGIN_DEG,
    ZONE_KEY,
    ZoneRangeOwnership,
    margin_table,
    members_for_tuple,
    ownership_from_wire,
    plan_zone_ownership,
    prune_members,
    trixel_pad_deg,
)
from repro.shard.topology import ShardMember, ShardSet

__all__ = [
    "MARGIN_DEG",
    "SEED_KEY",
    "SHARD_POS_COLUMN",
    "ZONE_KEY",
    "ShardMember",
    "ShardSet",
    "ZoneRangeOwnership",
    "margin_table",
    "members_for_tuple",
    "merge_match_lists",
    "merge_seed_rows",
    "ownership_from_wire",
    "plan_zone_ownership",
    "prune_members",
    "seed_order_keys",
    "trixel_pad_deg",
]
