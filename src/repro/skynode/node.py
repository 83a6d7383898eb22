"""SkyNode assembly: database + wrapper + the four Web services + host."""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.db.engine import Database
from repro.errors import RegistrationError
from repro.services.client import ServiceProxy
from repro.services.framework import ServiceHost
from repro.services.retry import BreakerRegistry, RetryPolicy
from repro.skynode.crossmatch import CrossMatchService
from repro.skynode.information import InformationService
from repro.skynode.metadata import MetadataService
from repro.skynode.query import QueryService
from repro.skynode.wrapper import ArchiveInfo, ArchiveWrapper
from repro.skynode.xmatch_proc import PROCEDURE_NAME, register_xmatch_procedure
from repro.soap.xmlparser import XMLParser
from repro.transport.network import SimulatedNetwork

#: The paper's prototype died parsing ~10 MB SOAP messages. With the default
#: 4x DOM expansion, a 40 MB parser budget reproduces that ceiling.
DEFAULT_PARSER_MEMORY_LIMIT = 40 * 1024 * 1024

SERVICE_PATHS = {
    "information": "/information",
    "metadata": "/metadata",
    "query": "/query",
    "crossmatch": "/crossmatch",
}


class SkyNode:
    """One autonomous archive participating in the federation."""

    def __init__(
        self,
        db: Database,
        info: ArchiveInfo,
        hostname: Optional[str] = None,
        *,
        parser_memory_limit: Optional[int] = DEFAULT_PARSER_MEMORY_LIMIT,
        chunk_budget_bytes: Optional[int] = None,
        processing_seconds_per_row: float = 0.0,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.wrapper = ArchiveWrapper(db, info)
        self.info = info
        self.hostname = hostname or f"{info.archive.lower()}.skyquery.net"
        if not db.has_procedure(PROCEDURE_NAME):
            register_xmatch_procedure(db)
        #: Parser for everything this node receives from its chain neighbour
        #: (the big partial-result messages); models the node's XML memory.
        self.parser = XMLParser(memory_limit_bytes=parser_memory_limit)
        self.information = InformationService(
            self.wrapper, parser_memory_limit=parser_memory_limit
        )
        self.metadata = MetadataService(
            self.wrapper, parser_memory_limit=parser_memory_limit
        )
        self.processing_seconds_per_row = processing_seconds_per_row
        self.query = QueryService(
            self.wrapper,
            parser_memory_limit=parser_memory_limit,
            chunk_budget_bytes=chunk_budget_bytes,
            processing_charge=self.charge_processing,
        )
        self.crossmatch = CrossMatchService(
            self,
            parser_memory_limit=parser_memory_limit,
            chunk_budget_bytes=chunk_budget_bytes,
        )
        self.host = ServiceHost(self.hostname)
        self.host.mount(SERVICE_PATHS["information"], self.information)
        self.host.mount(SERVICE_PATHS["metadata"], self.metadata)
        self.host.mount(SERVICE_PATHS["query"], self.query)
        self.host.mount(SERVICE_PATHS["crossmatch"], self.crossmatch)
        self.network: Optional[SimulatedNetwork] = None
        self.transaction = None  # mounted on demand (extension service)
        self.ingest = None  # mounted on demand (live-ingest extension)
        #: Transaction-service URLs of this archive's mirrors; every
        #: epoch-advancing ingest commit fans out to all of them under 2PC.
        self.replica_transaction_urls: List[str] = []
        self._parser_memory_limit = parser_memory_limit
        #: Resilience for this node's outbound calls (chain hops, portal
        #: registration). None keeps the seed's single-shot behaviour.
        self.retry_policy = retry_policy
        self.breakers = (
            BreakerRegistry(metrics=self._current_metrics)
            if retry_policy is not None
            else None
        )

    def _current_metrics(self):
        return self.network.metrics if self.network is not None else None

    def enable_transactions(self) -> str:
        """Mount the Section 6 extension Transaction service; returns its URL.

        The four paper services stay the registration minimum; transactions
        are the opt-in extension for inter-archive data exchange.
        """
        if self.transaction is None:
            from repro.transactions.service import TransactionService

            self.transaction = TransactionService(
                self.wrapper,
                parser_memory_limit=self._parser_memory_limit,
            )
            self.host.mount("/transaction", self.transaction)
        return self.host.url_for("/transaction")

    def enable_ingest(
        self,
        *,
        keep_epochs: Optional[int] = 8,
        replica_transaction_urls: Optional[List[str]] = None,
    ) -> str:
        """Mount the live-ingest extension service; returns its URL.

        ``keep_epochs`` bounds how many past epochs stay pinnable after
        each commit (``None`` retains forever); ``replica_transaction_urls``
        lists the mirrors every epoch commit must reach atomically.
        """
        self.enable_transactions()
        if replica_transaction_urls is not None:
            self.replica_transaction_urls = list(replica_transaction_urls)
        self.transaction.keep_epochs = keep_epochs
        # After an epoch is GC'd, streams (drained or not) pinned to it can
        # never be read again — reap them the moment the epoch commits.
        self.transaction.on_epoch_commit = (
            lambda _epoch: self.crossmatch.leases.reap()
        )
        if self.ingest is None:
            from repro.ingest.service import IngestService

            self.ingest = IngestService(
                self, parser_memory_limit=self._parser_memory_limit
            )
            self.host.mount("/ingest", self.ingest)
        return self.host.url_for("/ingest")

    @property
    def db(self) -> Database:
        """The archive's database engine."""
        return self.wrapper.db

    def charge_processing(self, rows_examined: int) -> None:
        """Advance the simulated clock for local scan work.

        The other half of the paper's cost model: "processing costs at the
        individual SkyNodes". No-op when no cost rate is configured or the
        node is offline.
        """
        if self.network is None or self.processing_seconds_per_row <= 0.0:
            return
        elapsed = rows_examined * self.processing_seconds_per_row
        self.network.clock.advance(elapsed)
        self.network.metrics.processing_seconds += elapsed
        if self.network.tracer is not None:
            self.network.tracer.annotate(
                "processing",
                rows_examined=rows_examined,
                elapsed_s=elapsed,
            )

    def attach(self, network: SimulatedNetwork) -> None:
        """Put this node on the (simulated) Internet."""
        network.add_host(self.hostname, self.host.handle)
        self.network = network

        # Abandoned transfers and streams now expire
        # against the sim clock, and every way a lease ends is counted in
        # the network's metrics.
        def clock_fn() -> float:
            return network.clock.now

        def on_reclaim(count: int) -> None:
            network.metrics.reclaimed_transfers += count

        def on_stale_reap(count: int) -> None:
            network.metrics.stale_epoch_reaps += count

        def on_eager(count: int) -> None:
            network.metrics.eager_reclaims += count

        self.query.sender.leases.bind_clock(clock_fn, on_reclaim)
        self.crossmatch.leases.bind_clock(
            clock_fn, on_reclaim, on_stale_reap, on_eager
        )
        network.on_crash(self.hostname, self.crash_volatile_state)

    def crash_volatile_state(self) -> None:
        """Drop all in-memory service state, as a process crash would:
        every lease (transfers, streams) dies with
        the process, uncounted."""
        self.query.sender.leases.crash()
        self.crossmatch.leases.crash()
        if self.transaction is not None:
            self.transaction.simulate_crash()
        if self.ingest is not None:
            self.ingest.crash()

    def service_url(self, service: str) -> str:
        """Endpoint URL of one of the four services."""
        return self.host.url_for(SERVICE_PATHS[service])

    def service_urls(self) -> Dict[str, str]:
        """All four endpoint URLs keyed by service kind."""
        return {name: self.service_url(name) for name in SERVICE_PATHS}

    def proxy(self, url: str) -> ServiceProxy:
        """A caller proxy originating at this node (using its XML parser)."""
        if self.network is None:
            raise RegistrationError(
                f"SkyNode {self.info.archive!r} is not attached to a network"
            )
        return ServiceProxy(
            self.network,
            self.hostname,
            url,
            parser=self.parser,
            retry_policy=self.retry_policy,
            breaker=(
                self.breakers.breaker_for(url)
                if self.breakers is not None
                else None
            ),
        )

    def register_with_portal(
        self,
        registration_url: str,
        *,
        replicas: Optional[List[Dict[str, str]]] = None,
        shards: Optional[Any] = None,
    ) -> Dict[str, Any]:
        """Join the federation: call the Portal's Registration service.

        "When a SkyNode wishes to join the SkyQuery federation; it calls
        the Registration service of the Portal. The registration request
        includes information about services available on the SkyNode."

        ``replicas`` optionally advertises mirror SkyNodes (their full
        ``service_urls()`` dicts) that serve identical content and can
        take over if this node dies. ``shards`` optionally advertises
        this archive's spatial shard layout (a
        :class:`~repro.shard.topology.ShardSet`), folded into the
        catalog so the Planner can prune and fingerprint by layout.
        """
        if self.network is None:
            raise RegistrationError(
                f"SkyNode {self.info.archive!r} is not attached to a network"
            )
        params: Dict[str, Any] = {
            "archive": self.info.archive,
            "services": self.service_urls(),
        }
        if replicas:
            params["replicas"] = [dict(endpoint) for endpoint in replicas]
        if shards is not None:
            params["shards"] = shards.to_wire()
        with self.network.phase("registration"):
            result = self.proxy(registration_url).call("Register", **params)
        if not isinstance(result, dict) or not result.get("accepted"):
            raise RegistrationError(
                f"Portal rejected registration of {self.info.archive!r}: "
                f"{result!r}"
            )
        return result
