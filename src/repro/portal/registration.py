"""The Portal's Registration service.

The registration handshake of Figure 1 / Section 5.1: a SkyNode calls
``Register`` with its four service URLs; the Portal calls back the node's
Meta-data service (cataloging the schema) and then its Information service
(cataloging sigma, the primary table, and the position columns). Only then
is the node part of the federation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.errors import RegistrationError
from repro.portal.catalog import NodeRecord
from repro.services.framework import WebService
from repro.skynode.node import SERVICE_PATHS

if TYPE_CHECKING:
    from repro.portal.portal import Portal

REQUIRED_SERVICES = tuple(SERVICE_PATHS)


class RegistrationService(WebService):
    """``Register`` / ``Unregister`` operations."""

    def __init__(self, portal: "Portal") -> None:
        super().__init__("Registration")
        self._portal = portal
        self.register(
            "Register",
            self._register,
            params=(
                ("archive", "string"),
                ("services", "struct"),
                ("replicas", "array"),
                ("shards", "array"),
            ),
            returns="struct",
            doc="Join the federation; the Portal calls back Metadata and "
                "Information before accepting. ``replicas`` optionally "
                "lists extra endpoint sets (mirror SkyNodes with identical "
                "content) used for failover. ``shards`` optionally "
                "advertises the archive's spatial shard layout (per-shard "
                "ownership + endpoint candidates).",
        )
        self.register(
            "Unregister",
            self._unregister,
            params=(("archive", "string"),),
            returns="boolean",
            doc="Leave the federation.",
        )

    def _register(
        self,
        archive: str,
        services: Dict[str, Any],
        replicas: Optional[List[Dict[str, Any]]] = None,
        shards: Optional[List[Dict[str, Any]]] = None,
    ) -> Dict[str, Any]:
        if not archive:
            raise RegistrationError("registration needs an archive name")
        missing = [name for name in REQUIRED_SERVICES if not services.get(name)]
        if missing:
            raise RegistrationError(
                f"registration of {archive!r} missing service URL(s): {missing}"
            )
        shards_wire = self._validate_shards(archive, shards)
        replica_services: List[Dict[str, str]] = []
        for endpoint in replicas or []:
            gaps = [
                name for name in REQUIRED_SERVICES if not endpoint.get(name)
            ]
            if gaps:
                raise RegistrationError(
                    f"replica endpoint for {archive!r} missing service "
                    f"URL(s): {gaps}"
                )
            replica_services.append(
                {name: str(endpoint[name]) for name in REQUIRED_SERVICES}
            )
        network = self._portal.require_network()
        with network.phase("registration"):
            schema_wire = self._portal.proxy(str(services["metadata"])).call(
                "GetSchema"
            )
            info_wire = self._portal.proxy(str(services["information"])).call(
                "GetInfo"
            )
            # Each replica must answer for the same archive before the
            # Portal will ever route a failed-over query to it.
            for endpoint in replica_services:
                replica_info = self._portal.proxy(
                    endpoint["information"]
                ).call("GetInfo")
                if str(replica_info.get("archive")) != archive:
                    raise RegistrationError(
                        f"replica at {endpoint['information']} reports "
                        f"archive {replica_info.get('archive')!r}, "
                        f"not {archive!r}"
                    )
        if str(info_wire.get("archive")) != archive:
            raise RegistrationError(
                f"Information service reports archive "
                f"{info_wire.get('archive')!r}, not {archive!r}"
            )
        record = NodeRecord.from_wire(
            archive=archive,
            services={name: str(services[name]) for name in REQUIRED_SERVICES},
            info_wire=info_wire,
            schema_wire=schema_wire,
            registered_at=network.clock.now,
            replica_services=replica_services,
            shards_wire=shards_wire,
        )
        self._portal.catalog.register(record)
        return {
            "accepted": True,
            "archive": archive,
            "federation_size": len(self._portal.catalog),
        }

    @staticmethod
    def _validate_shards(
        archive: str, shards: Optional[List[Dict[str, Any]]]
    ) -> Optional[List[Dict[str, Any]]]:
        """Check an advertised shard layout before it enters the catalog.

        Each member needs a name, a decodable (zone-range) ownership
        struct, and at least one endpoint set exposing a crossmatch URL
        (the service a partition chain's hop targets). Raises
        :class:`RegistrationError` on any gap — a layout the Planner
        cannot route is worse than none.
        """
        from repro.errors import SkyQueryError
        from repro.shard.topology import ShardSet

        if not shards:
            return None
        try:
            shard_set = ShardSet.from_wire(shards)
        except (KeyError, ValueError, TypeError, SkyQueryError) as exc:
            raise RegistrationError(
                f"malformed shard layout for {archive!r}: {exc}"
            ) from exc
        names = [member.name for member in shard_set.members]
        if len(set(names)) != len(names):
            raise RegistrationError(
                f"shard layout for {archive!r} repeats member names"
            )
        for member in shard_set.members:
            if not member.candidate_urls("crossmatch"):
                raise RegistrationError(
                    f"shard {member.name!r} of {archive!r} advertises no "
                    "crossmatch endpoint candidate"
                )
        return [dict(item) for item in shards]

    def _unregister(self, archive: str) -> bool:
        return self._portal.catalog.unregister(archive)
