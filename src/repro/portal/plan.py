"""The federated query execution plan.

Paper Section 5.3: "The federated query execution plan consists of a list
of ordered pairs, each containing a query and the URL information of the
SkyNode where it would be executed. The list is in decreasing order of the
count star values returned by the performance queries, with the drop out
archives, if any, at the beginning of the list."

The Portal passes this plan (as a SOAP struct) to the first SkyNode; each
node forwards it down the chain. Execution then happens in reverse list
order: the *last* node on the list — the one with the smallest expected
result — runs its query first and seeds the partial tuples.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import PlanningError
from repro.shard.merge import SEED_KEY
from repro.sql.area import area_from_wire, area_to_wire
from repro.sql.ast import AreaLike


@dataclass(frozen=True)
class PlanStep:
    """One (query, SkyNode URL) pair of the plan list.

    ``sql`` is the human-readable node query (what the paper would ship);
    the structured fields alongside it are what the Cross match service
    actually needs to run its step: the primary table and its id/position
    column names (learned from the Information service at registration),
    the local residual predicate, and which attribute columns to carry.
    """

    alias: str
    archive: str
    url: str  # the node's Cross match service endpoint
    sigma_arcsec: float
    dropout: bool
    count_star: Optional[int]
    table: str
    id_column: str
    ra_column: str
    dec_column: str
    residual_sql: str  # "" when the archive has no local predicates
    attr_select: Tuple[Tuple[str, str, str], ...]  # (column, wire name, typecode)
    sql: str
    #: Alternative Cross match endpoints (replica SkyNodes with identical
    #: content) the executor may fail over to when ``url`` dies mid-chain.
    replica_urls: Tuple[str, ...] = ()
    #: Snapshot epoch pinned at plan time: every hop of the chain reads
    #: this archive at exactly this committed version, so an in-flight
    #: query is immune to ingest commits (and failovers land on the same
    #: snapshot at the replica). ``None`` reads the live table.
    epoch: Optional[int] = None

    def to_wire(self) -> Dict[str, Any]:
        """Encode as a SOAP struct."""
        return {
            "alias": self.alias,
            "archive": self.archive,
            "url": self.url,
            "sigma_arcsec": self.sigma_arcsec,
            "dropout": self.dropout,
            "count_star": self.count_star,
            "table": self.table,
            "id_column": self.id_column,
            "ra_column": self.ra_column,
            "dec_column": self.dec_column,
            "residual_sql": self.residual_sql,
            "attr_select": [list(item) for item in self.attr_select],
            "sql": self.sql,
            "replica_urls": list(self.replica_urls),
            "epoch": self.epoch,
        }

    @classmethod
    def from_wire(cls, data: Dict[str, Any]) -> "PlanStep":
        """Decode from a SOAP struct."""
        count = data.get("count_star")
        epoch = data.get("epoch")
        return cls(
            alias=str(data["alias"]),
            archive=str(data["archive"]),
            url=str(data["url"]),
            sigma_arcsec=float(data["sigma_arcsec"]),
            dropout=bool(data["dropout"]),
            count_star=int(count) if count is not None else None,
            table=str(data["table"]),
            id_column=str(data["id_column"]),
            ra_column=str(data["ra_column"]),
            dec_column=str(data["dec_column"]),
            residual_sql=str(data.get("residual_sql") or ""),
            attr_select=tuple(
                (str(c), str(w), str(t)) for c, w, t in data.get("attr_select", [])
            ),
            sql=str(data.get("sql") or ""),
            replica_urls=tuple(
                str(u) for u in data.get("replica_urls") or []
            ),
            epoch=int(epoch) if epoch is not None else None,
        )

    def content_key(self) -> Tuple[Any, ...]:
        """What this step *computes*, independent of where it runs.

        Excludes ``url``/``replica_urls`` (a replica substitution must not
        change the key) and ``count_star`` (an estimate, not an input).
        Includes ``epoch``: the same query at a different snapshot is a
        different computation, so its streams never answer a resume
        pinned elsewhere.
        """
        return (
            self.alias,
            self.archive,
            round(self.sigma_arcsec, 12),
            self.dropout,
            self.table,
            self.id_column,
            self.ra_column,
            self.dec_column,
            self.residual_sql,
            self.attr_select,
            self.epoch,
        )


@dataclass(frozen=True)
class ExecutionPlan:
    """The ordered plan list plus the query-wide spatial parameters."""

    steps: Tuple[PlanStep, ...]
    threshold: float
    area: Optional[AreaLike]
    #: Portal-side execution profile: sorted ``(knob, value)`` pairs for
    #: every setting that changes observable result bytes without changing
    #: the node queries — the batch size and each sharded archive's
    #: layout. Folded into ``fingerprint()`` so a semantic cache never
    #: serves a result produced under a different profile, but
    #: deliberately NOT serialized to the wire: nodes get the batch size
    #: from the call surface (PerformXMatch params), so the plan bytes
    #: stay the same whatever the profile.
    profile: Tuple[Tuple[str, str], ...] = ()
    #: Set on a partition chain of a sharded query: the index of the
    #: shard stripe every step runs on. Its seed hop tags each tuple with
    #: its monolithic order key (carried as a last attribute column) for
    #: the Portal's merge. ``None`` — the whole archives — stays off the
    #: wire and out of the fingerprint.
    partition: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.steps:
            raise PlanningError("execution plan has no steps")
        if self.steps[-1].dropout:
            raise PlanningError(
                "the last plan step (first to execute) must be mandatory"
            )
        mandatory = [s for s in self.steps if not s.dropout]
        if not mandatory:
            raise PlanningError("execution plan has no mandatory steps")

    def step(self, position: int) -> PlanStep:
        """The step at a list position."""
        if not 0 <= position < len(self.steps):
            raise PlanningError(
                f"plan position {position} out of range 0..{len(self.steps) - 1}"
            )
        return self.steps[position]

    def fingerprint(self, position: int = 0) -> str:
        """Content hash of the chain *suffix* starting at ``position``.

        Keyed on what the suffix computes — node queries, ordering, sigma,
        threshold, area — but NOT on endpoint URLs, so the key a node
        leases its stream under survives a failover to a replica anywhere
        in the chain, and a stream resumed through a replica partitions
        identically.
        """
        self.step(position)  # bounds check
        content: Tuple[Any, ...] = (
            tuple(step.content_key() for step in self.steps[position:]),
            round(self.threshold, 12),
            area_to_wire(self.area),
            self.profile,
        )
        if self.partition is not None:
            content += (self.partition,)
        return hashlib.sha256(repr(content).encode("utf-8")).hexdigest()[:24]

    def replace_url(self, position: int, new_url: str) -> "ExecutionPlan":
        """A new plan with the step at ``position`` re-routed to ``new_url``.

        The step's previous endpoint joins its replica candidates (minus
        the new one), so nothing is forgotten if further failovers are
        needed; everything the step computes is unchanged, so stream
        keys survive the substitution.
        """
        old = self.step(position)
        candidates = tuple(
            u for u in (old.url,) + old.replica_urls if u != new_url
        )
        steps = list(self.steps)
        steps[position] = replace(old, url=new_url, replica_urls=candidates)
        return replace(self, steps=tuple(steps))

    def member_aliases_after(self, position: int) -> List[str]:
        """Mandatory aliases joined once positions >= ``position`` have run.

        In *computation* order: the last list entry executes first, so its
        alias comes first in every partial tuple.
        """
        return [
            step.alias
            for step in reversed(self.steps[position:])
            if not step.dropout
        ]

    def attr_columns_after(self, position: int) -> List[Tuple[str, str]]:
        """(wire name, typecode) attribute columns carried past ``position``."""
        columns: List[Tuple[str, str]] = []
        for step in reversed(self.steps[position:]):
            if step.dropout:
                continue
            for _, wire_name, typecode in step.attr_select:
                columns.append((wire_name, typecode))
        if self.partition is not None:
            columns.append((SEED_KEY, "int"))
        return columns

    def to_wire(self) -> Dict[str, Any]:
        """Encode as a SOAP struct."""
        wire = {
            "steps": [step.to_wire() for step in self.steps],
            "threshold": self.threshold,
            "area": area_to_wire(self.area),
        }
        if self.partition is not None:
            wire["partition"] = self.partition
        return wire

    @classmethod
    def from_wire(cls, data: Dict[str, Any]) -> "ExecutionPlan":
        """Decode from a SOAP struct."""
        partition = data.get("partition")
        return cls(
            steps=tuple(PlanStep.from_wire(s) for s in data["steps"]),
            threshold=float(data["threshold"]),
            area=area_from_wire(data.get("area")),
            partition=None if partition is None else int(partition),
        )
