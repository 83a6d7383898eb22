"""The Portal's meta-data catalog of registered SkyNodes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import RegistrationError, ValidationError
from repro.shard import prune_members
from repro.shard.topology import ShardSet
from repro.skynode.wrapper import ArchiveInfo


@dataclass
class NodeRecord:
    """Everything the Portal catalogs about one registered SkyNode.

    ``schema`` maps lowercased table name -> (original name, column map),
    where the column map is lowercased column name -> (original, typecode).

    ``replica_services`` lists additional complete endpoint sets (one dict
    per replica SkyNode, same keys as ``services``) that serve identical
    content — the failover candidates the planner and executor prefer over
    degrading the answer when the primary endpoint dies.

    ``shard_set`` optionally records the archive's spatial shard layout:
    per-shard ownership plus per-shard endpoint-candidate lists. Unlike
    ``replica_services`` the shard endpoints are *not* interchangeable
    whole-archive substitutes — each serves one slice of the sky — so
    they never appear in :meth:`endpoint_candidates`; they are the
    :meth:`partitions` a count probe fans out over and the Planner's
    partition chains run on, and fold into the plan fingerprint through
    the layout signature.
    """

    archive: str
    services: Dict[str, str]
    info: ArchiveInfo
    object_count: int
    dialect: str
    schema: Dict[str, Tuple[str, Dict[str, Tuple[str, str]]]] = field(
        default_factory=dict
    )
    registered_at: float = 0.0
    replica_services: List[Dict[str, str]] = field(default_factory=list)
    shard_set: Optional[ShardSet] = None

    @classmethod
    def from_wire(
        cls,
        archive: str,
        services: Dict[str, str],
        info_wire: Dict[str, Any],
        schema_wire: Dict[str, Any],
        registered_at: float = 0.0,
        replica_services: Optional[List[Dict[str, str]]] = None,
        shards_wire: Optional[List[Dict[str, Any]]] = None,
    ) -> "NodeRecord":
        """Build a record from the Information + Meta-data service replies."""
        info = ArchiveInfo.from_wire(info_wire)
        schema: Dict[str, Tuple[str, Dict[str, Tuple[str, str]]]] = {}
        for table in schema_wire.get("tables", []):
            name = str(table["name"])
            columns = {
                str(col["name"]).lower(): (str(col["name"]), str(col["type"]))
                for col in table.get("columns", [])
            }
            schema[name.lower()] = (name, columns)
        return cls(
            archive=archive,
            services=dict(services),
            info=info,
            object_count=int(info_wire.get("object_count") or 0),
            dialect=str(info_wire.get("dialect") or "ansi"),
            schema=schema,
            registered_at=registered_at,
            replica_services=[
                dict(endpoint) for endpoint in replica_services or []
            ],
            shard_set=(
                ShardSet.from_wire(shards_wire) if shards_wire else None
            ),
        )

    def endpoint_candidates(self) -> List[Dict[str, str]]:
        """Every complete endpoint set for this archive, primary first."""
        return [self.services, *self.replica_services]

    def partitions(
        self, area: object = None
    ) -> List[Tuple[str, Sequence[Mapping[str, str]]]]:
        """``(label, ordered endpoint candidates)`` per partition of the
        table that can hold rows inside ``area`` (``None`` = all of them).

        A monolithic archive is the one-partition layout: itself, primary
        then replicas. A sharded one lists the shards whose ownership
        intersects the area — together they hold exactly the archive's
        rows — and falls back to the full copy at the archive's own
        endpoints when no shard owns any part of it (the full copy's
        spatial index answers that zero cheaply, and the answer carries
        the epoch a plan still needs to pin).
        """
        members = (
            prune_members(self.shard_set.members, area)
            if self.shard_set is not None
            else []
        )
        if not members:
            return [
                (f"archive {self.archive!r}", self.endpoint_candidates())
            ]
        return [
            (f"shard {m.name!r} of archive {self.archive!r}", m.endpoints)
            for m in members
        ]

    def _table(self, table: str) -> Tuple[str, Dict[str, Tuple[str, str]]]:
        entry = self.schema.get(table.lower())
        if entry is None:
            raise ValidationError(
                f"archive {self.archive!r} has no table {table!r}"
            )
        return entry

    def _column(self, table: str, column: str) -> Tuple[str, str]:
        name, columns = self._table(table)
        col = columns.get(column.lower())
        if col is None:
            raise ValidationError(
                f"table {self.archive}:{name} has no column {column!r}"
            )
        return col

    def resolve_table(self, table: str) -> str:
        """Canonical table name, raising :class:`ValidationError` if unknown."""
        return self._table(table)[0]

    def column_type(self, table: str, column: str) -> str:
        """Wire typecode of a column, raising if table/column unknown."""
        return self._column(table, column)[1]

    def column_name(self, table: str, column: str) -> str:
        """Canonical column name (original casing)."""
        return self._column(table, column)[0]


class FederationCatalog:
    """Registered nodes indexed by archive name (case-insensitive)."""

    def __init__(self) -> None:
        self._nodes: Dict[str, NodeRecord] = {}

    def register(self, record: NodeRecord) -> None:
        """Add or replace a node record (re-registration updates it)."""
        self._nodes[record.archive.lower()] = record

    def unregister(self, archive: str) -> bool:
        """Remove a node; returns True if it was present."""
        return self._nodes.pop(archive.lower(), None) is not None

    def has(self, archive: str) -> bool:
        """True if the archive is registered."""
        return archive.lower() in self._nodes

    def node(self, archive: str) -> NodeRecord:
        """Record for an archive, raising if unregistered."""
        record = self._nodes.get(archive.lower())
        if record is None:
            raise RegistrationError(
                f"archive {archive!r} is not registered with the Portal"
            )
        return record

    def archives(self) -> List[str]:
        """Registered archive names (canonical casing), sorted."""
        return sorted(record.archive for record in self._nodes.values())

    def __len__(self) -> int:
        return len(self._nodes)
