"""Shard ownership, federation-wide partition planning, margins, pruning.

An *ownership* is an inclusive range of declination-zone ids (the zone
engine's shard key, after Nieto-Santisteban et al.): shard rows satisfy
``zone_lo <= zone_of(dec) <= zone_hi``. Every sharded archive of a
federation is cut on the *same* zone boundaries, so the k-th shard of
every archive covers the same stripe of sky and one chain per stripe can
run without traffic between stripes. Besides the rows it owns, each shard
keeps copies of its neighbours' rows within :data:`MARGIN_DEG` of its
stripe — the rows a chain seeded in the stripe can reach.

Pruning is *conservative by construction*: contacting an extra shard is
always harmless — the shard's own spatial/zone index simply touches zero
rows, contributing nothing to the answer or the summed node stats —
whereas dropping a shard that owns even one cover-window row would
corrupt both. Every predicate here therefore rounds outward:

* Seed hops run a cover-based spatial probe whose ``rows_examined``
  counts every row in a *partial* boundary trixel, including rows whose
  declination lies outside the search cap's dec window. Seed pruning
  therefore pads the cap window by a trixel-diameter bound
  (:func:`trixel_pad_deg`) so that shards owning only such boundary rows
  are still contacted.
* Match hops count only rows *inside* the padded search cap (the kernels
  apply the cosine filter before touching stats), so the margin a row is
  copied into needs just the dec distance plus float slack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, PlanningError
from repro.sql.ast import AreaClause, AreaLike
from repro.zone.index import DEFAULT_ZONE_HEIGHT_DEG, zone_count, zone_of

#: The one shard key (``FederationConfig(shard_key=...)``'s legal value).
ZONE_KEY = "zone"

#: How far (degrees) past its stripe a shard keeps copies of its
#: neighbours' rows: one zone height, 30 arcsec. A chain runs on the
#: shards only while its reach fits inside it (see the Planner).
MARGIN_DEG = DEFAULT_ZONE_HEIGHT_DEG

#: Float slack (degrees) added to match-hop dec windows: covers the
#: rounding of the wire round-trip and of ``r_eff`` back-conversion,
#: both orders of magnitude below this.
_MATCH_PAD_DEG = 1e-6


def margin_table(table: str) -> str:
    """The name of the local table holding a shard's margin copies."""
    return f"{table}_margin"


def trixel_pad_deg(htm_depth: int) -> float:
    """Conservative bound (degrees) on the diameter of a depth-``d`` trixel.

    A root trixel (an octant) has vertex separation 90°; each subdivision
    at most halves edge lengths, and the diameter is at most two edge
    lengths away from any interior point — ``720 / 2**d`` over-covers all
    of that comfortably. Used to pad seed pruning windows so that rows in
    *partial* boundary trixels (counted by the engine's spatial probe
    even when their dec lies outside the cap window) never cause a shard
    to be pruned away.
    """
    if htm_depth < 0:
        raise ConfigurationError(f"htm_depth must be >= 0, got {htm_depth}")
    return min(180.0, 720.0 / (1 << htm_depth))


@dataclass(frozen=True)
class ZoneRangeOwnership:
    """Inclusive declination-zone id range ``[zone_lo, zone_hi]``.

    ``zone_height_deg`` fixes the zone grid the ids refer to;
    ``htm_depth`` records the depth of the table's spatial index so that
    seed-hop pruning can apply the matching :func:`trixel_pad_deg`.
    An inverted range (``zone_lo > zone_hi``) is a legal *empty* shard.
    """

    zone_lo: int
    zone_hi: int
    zone_height_deg: float = DEFAULT_ZONE_HEIGHT_DEG
    htm_depth: int = 0

    @property
    def empty(self) -> bool:
        return self.zone_lo > self.zone_hi

    def owns(self, dec_deg: float) -> bool:
        """True if a row at ``dec_deg`` belongs to this shard."""
        return self.zone_lo <= zone_of(dec_deg, self.zone_height_deg) <= self.zone_hi

    def dec_interval(self) -> Tuple[float, float]:
        """The closed declination interval ``[lo, hi]`` the range spans.

        The last zone is clamped outward to +90 (``zone_of`` clamps the
        pole into it), the first down to -90.
        """
        lo = self.zone_lo * self.zone_height_deg - 90.0
        hi = (self.zone_hi + 1) * self.zone_height_deg - 90.0
        return max(lo, -90.0), min(hi, 90.0)

    def to_wire(self) -> Dict[str, Any]:
        return {
            "kind": ZONE_KEY,
            "zone_lo": self.zone_lo,
            "zone_hi": self.zone_hi,
            "zone_height_deg": self.zone_height_deg,
            "htm_depth": self.htm_depth,
        }


def ownership_from_wire(data: Dict[str, Any]) -> ZoneRangeOwnership:
    """Decode one ownership wire struct (see ``ZoneRangeOwnership.to_wire``)."""
    kind = data.get("kind")
    if kind != ZONE_KEY:
        raise PlanningError(f"unknown shard ownership kind {kind!r}")
    return ZoneRangeOwnership(
        zone_lo=int(data["zone_lo"]),
        zone_hi=int(data["zone_hi"]),
        zone_height_deg=float(data["zone_height_deg"]),
        htm_depth=int(data["htm_depth"]),
    )


def _dec_windows_overlap(
    lo_a: float, hi_a: float, lo_b: float, hi_b: float
) -> bool:
    return lo_a <= hi_b and lo_b <= hi_a


def prune_members(members: Sequence[Any], area: Optional[AreaLike]) -> List[Any]:
    """The shard members a seed hop (or count-star probe) must contact.

    ``members`` is any sequence of objects with an ``ownership``
    attribute (typically :class:`~repro.shard.topology.ShardMember`).
    With no AREA the query is a full scan and every non-empty shard is
    kept. With a circular AREA, shards are kept when their dec interval
    overlaps the cap window padded by :func:`trixel_pad_deg`; polygon
    AREAs keep every non-empty shard — conservative, still exact.
    """
    kept: List[Any] = []
    for member in members:
        own = member.ownership
        if own.empty:
            continue
        if isinstance(area, AreaClause):
            radius_deg = area.radius_arcsec / 3600.0
            pad = trixel_pad_deg(own.htm_depth) + _MATCH_PAD_DEG
            dec_lo, dec_hi = own.dec_interval()
            if not _dec_windows_overlap(
                dec_lo, dec_hi,
                area.dec_deg - radius_deg - pad,
                area.dec_deg + radius_deg + pad,
            ):
                continue
        kept.append(member)
    return kept


def members_for_tuple(
    members: Sequence[Any], dec_c_deg: float, r_eff_deg: float
) -> List[Any]:
    """The shard members whose stripe lies within ``r_eff_deg`` of a
    declination (plus float slack) — at provisioning, the shards a row
    at ``dec_c_deg`` is owned by or copied into as margin."""
    win_lo = dec_c_deg - r_eff_deg - _MATCH_PAD_DEG
    win_hi = dec_c_deg + r_eff_deg + _MATCH_PAD_DEG
    return [
        member
        for member in members
        if not member.ownership.empty
        and _dec_windows_overlap(
            *member.ownership.dec_interval(), win_lo, win_hi
        )
    ]


def plan_zone_ownership(
    dec_values: Sequence[float],
    n_shards: int,
    zone_height_deg: float = DEFAULT_ZONE_HEIGHT_DEG,
    htm_depth: int = 0,
) -> Tuple[ZoneRangeOwnership, ...]:
    """Partition the zone-id space into ``n_shards`` row-balanced ranges.

    Cuts are zone-id quantiles of the declinations given (the provisioner
    passes every sharded archive's rows at once, so all archives share
    one set of cuts), forced nondecreasing; together the ranges cover the
    *entire* zone space (shard 0 starts at zone 0, the last shard ends at
    the last zone), so every representable declination has exactly one
    owner. Shards whose quantile collapses onto a neighbour come out
    empty — legal.
    """
    if n_shards < 1:
        raise ConfigurationError(f"n_shards must be >= 1, got {n_shards}")
    zones = sorted(zone_of(d, zone_height_deg) for d in dec_values) or [0]
    cuts = [0]
    for i in range(1, n_shards):
        cut = zones[min((i * len(zones)) // n_shards, len(zones) - 1)]
        cuts.append(max(cut, cuts[-1]))
    cuts.append(zone_count(zone_height_deg))
    return tuple(
        ZoneRangeOwnership(
            zone_lo=cuts[i],
            zone_hi=cuts[i + 1] - 1,
            zone_height_deg=zone_height_deg,
            htm_depth=htm_depth,
        )
        for i in range(n_shards)
    )
