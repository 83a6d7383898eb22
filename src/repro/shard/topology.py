"""Shard topology: the advertised layout of a sharded archive.

A sharded archive registers one :class:`ShardSet` alongside its normal
service endpoints. Each :class:`ShardMember` pairs an ownership slice
with an *ordered* endpoint-candidate list — the shard primary first,
then its mirrors — walked for failover exactly like an archive's own
candidates. The set travels over the wire once, at registration; the
Planner then builds one partition chain per member from its local copy
and folds the layout into the fingerprint's execution profile (via
:meth:`ShardSet.layout_signature`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.shard.ownership import ZoneRangeOwnership, ownership_from_wire


@dataclass(frozen=True)
class ShardMember:
    """One shard: a name, an ownership slice, and endpoint candidates.

    ``endpoints`` is an ordered tuple of service-URL mappings (each like
    a SkyNode's ``service_urls()``); index 0 is the shard primary, later
    entries its replicas, tried in order on transport failure.
    """

    name: str
    ownership: ZoneRangeOwnership
    endpoints: Tuple[Mapping[str, str], ...]

    def candidate_urls(self, service: str) -> Tuple[str, ...]:
        """The ordered failover candidates for one service."""
        return tuple(
            ep[service] for ep in self.endpoints if service in ep
        )

    def to_wire(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "ownership": self.ownership.to_wire(),
            "endpoints": [dict(ep) for ep in self.endpoints],
        }

    @classmethod
    def from_wire(cls, data: Mapping[str, Any]) -> "ShardMember":
        endpoints = tuple(
            {str(k): str(v) for k, v in ep.items()}
            for ep in data.get("endpoints", [])
        )
        return cls(
            name=str(data["name"]),
            ownership=ownership_from_wire(dict(data["ownership"])),
            endpoints=endpoints,
        )


@dataclass(frozen=True)
class ShardSet:
    """The complete shard layout of one archive table."""

    members: Tuple[ShardMember, ...]

    def layout_signature(self) -> str:
        """A content-based layout token for the execution profile.

        Folds every member's ownership bounds — but no endpoint URLs —
        into the plan fingerprint, so the semantic cache distinguishes
        layouts (a re-provisioned federation must not hit a stale
        layout's entries) while replica substitution stays
        fingerprint-neutral, exactly like archive-level failover. Two
        archives cut on the same boundaries have the same signature: the
        Planner's test for running a query as partition chains.
        """
        return "|".join(
            f"z:{own.zone_lo}:{own.zone_hi}"
            f":{own.zone_height_deg!r}:{own.htm_depth}"
            for own in (member.ownership for member in self.members)
        )

    def to_wire(self) -> List[Dict[str, Any]]:
        return [member.to_wire() for member in self.members]

    @classmethod
    def from_wire(cls, data: Sequence[Mapping[str, Any]]) -> "ShardSet":
        return cls(
            members=tuple(ShardMember.from_wire(item) for item in data)
        )
