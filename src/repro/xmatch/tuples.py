"""Partial tuples: what flows along the SkyNode chain."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

from repro.sphere.vector import Vec3
from repro.xmatch.chi2 import Accumulator


@dataclass(frozen=True)
class LocalObject:
    """One archive's observation offered to the matcher."""

    object_id: int
    position: Vec3
    attributes: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class PartialTuple:
    """An i-tuple ``R_i = (o_1, ..., o_i)`` plus its cumulative values.

    ``members`` maps archive alias -> object id for the archives joined so
    far; ``attributes`` carries the attribute values (keyed
    ``alias.column``) needed for the SELECT list and for cross-archive
    predicates evaluated at the Portal; ``acc`` is the chi-squared
    accumulator — the only spatial state the next archive needs.
    """

    members: Tuple[Tuple[str, int], ...]
    acc: Accumulator
    attributes: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def seed(cls, alias: str, obj: LocalObject, sigma_rad: float) -> "PartialTuple":
        """A 1-tuple from the first archive in the chain."""
        return cls(
            members=((alias, obj.object_id),),
            acc=Accumulator.of_observation(obj.position, sigma_rad),
            attributes={
                f"{alias}.{name}": value for name, value in obj.attributes.items()
            },
        )

    def extended(
        self, alias: str, obj: LocalObject, sigma_rad: float
    ) -> "PartialTuple":
        """The (i+1)-tuple with one more archive's observation appended."""
        merged = dict(self.attributes)
        for name, value in obj.attributes.items():
            merged[f"{alias}.{name}"] = value
        return PartialTuple(
            members=self.members + ((alias, obj.object_id),),
            acc=self.acc.with_observation(obj.position, sigma_rad),
            attributes=merged,
        )

    def member_id(self, alias: str) -> int:
        """The object id contributed by one archive (KeyError if absent)."""
        for member_alias, object_id in self.members:
            if member_alias == alias:
                return object_id
        raise KeyError(f"tuple has no member from archive {alias!r}")

    @property
    def length(self) -> int:
        """Number of archives joined so far."""
        return len(self.members)
