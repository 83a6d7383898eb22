"""One-call construction of a complete SkyQuery federation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.client.client import SkyQueryClient
from repro.db.engine import Database
from repro.db.schema import Column
from repro.db.table import SpatialSpec
from repro.db.types import ColumnType
from repro.errors import ConfigurationError, RegistrationError
from repro.federation.surveys import default_surveys
from repro.portal.cache import CacheConfig, SemanticCache
from repro.portal.portal import Portal
from repro.portal.scheduler import QueryScheduler, SchedulerConfig
from repro.services.retry import RetryPolicy
from repro.shard import SHARD_KEYS
from repro.skynode.crossmatch import SHARD_POS_COLUMN
from repro.skynode.node import DEFAULT_PARSER_MEMORY_LIMIT, SkyNode
from repro.skynode.wrapper import ArchiveInfo
from repro.sql.ast import AreaClause
from repro.transport.faults import FaultPlan
from repro.transport.network import SimulatedNetwork
from repro.workloads.skysim import (
    SkyField,
    SurveySpec,
    TrueBody,
    generate_bodies,
    observe_survey,
)


@dataclass
class FederationConfig:
    """Knobs for :func:`build_federation`."""

    surveys: Sequence[SurveySpec] = field(default_factory=default_surveys)
    sky_field: SkyField = field(default_factory=SkyField)
    n_bodies: int = 2000
    seed: int = 1234
    htm_depth: int = 12
    page_size: int = 64
    buffer_pages: int = 512
    default_latency_s: float = 0.05
    default_bandwidth_bps: float = 1_000_000.0
    parser_memory_limit: Optional[int] = DEFAULT_PARSER_MEMORY_LIMIT
    parser_overhead_factor: float = 4.0
    chunk_budget_bytes: Optional[int] = None
    #: Per-row scan cost charged to the simulated clock (paper Section 5.3
    #: counts processing alongside transmission). 5 microseconds/row by
    #: default — a 2002-era disk-backed scan rate of ~200k rows/s.
    processing_seconds_per_row: float = 5e-6
    #: Retry/timeout/breaker configuration for the Portal and every node's
    #: outbound calls. None keeps single-shot RPCs (the seed's behaviour).
    retry_policy: Optional[RetryPolicy] = None
    #: Portal pings archives before planning (graceful degradation).
    health_probes: bool = True
    #: Which spatial index every node's cross-match uses: ``zone``
    #: (declination zones with sorted-merge windows, the default) or
    #: ``htm`` (trixel covers, the reference oracle). Federated results,
    #: node stats, and wire traffic are byte-identical either way.
    match_engine: str = "zone"
    #: Scripted transient faults, installed only AFTER registration
    #: completes so federation construction is never fault-injected.
    fault_plan: Optional[FaultPlan] = None
    #: How the chain's one transport is cut into batches: ``store-forward``
    #: (each hop's whole result is one batch, carried by the
    #: PerformXMatch response — the paper's nested round trips) or
    #: ``pipelined`` (``stream_batch_size`` tuples a batch, pulled
    #: concurrently so transfer
    #: overlaps compute).
    chain_mode: str = "store-forward"
    #: Tuples per batch when the chain is pipelined.
    stream_batch_size: int = 200
    #: Replica SkyNodes provisioned per archive (0 = none). Each replica is
    #: a full mirror: its own database is populated from the primary over
    #: the transactional region-replication exchange (2PC), and its
    #: endpoints are advertised to the Portal as failover candidates.
    #: With ``shards`` > 0 the same count also provisions mirrors of each
    #: *shard*, advertised as that shard's endpoint candidates.
    replicas: int = 0
    #: Spatial shards per archive (0 = monolithic, the seed's behaviour;
    #: 1 is a legal single-shard layout that still exercises the
    #: scatter-gather path). Each archive's table is split across this
    #: many shard SkyNodes by row-balanced ownership planning; the
    #: primary keeps its full copy (the provisioning source and the
    #: single-archive/count-probe fallback) and re-registers advertising
    #: the layout, after which its chain hops fan out to the shards and
    #: merge in canonical order. Incompatible with ``ingest``.
    shards: int = 0
    #: Ownership model when ``shards`` > 0: ``zone`` (declination-zone
    #: ranges — supports per-tuple match-hop routing) or ``htm``
    #: (trixel-prefix id intervals — exact AREA pruning, but match hops
    #: broadcast).
    shard_key: str = "zone"
    #: Install a distributed :class:`~repro.tracing.Tracer` on the network.
    #: Off, no trace headers ride in any envelope — the wire traffic is
    #: byte-identical to the pre-tracing federation.
    tracing: bool = True
    #: Mount the live-ingest extension on every primary: batched uploads
    #: commit as snapshot epochs, fanned out to all replicas under 2PC.
    ingest: bool = False
    #: How many past epochs stay pinnable after each ingest commit before
    #: epoch GC reclaims them (``None`` retains every epoch forever).
    keep_epochs: Optional[int] = 8
    #: Install an admission-controlled multi-tenant run queue on the
    #: Portal (``federation.scheduler``): ``True`` for the defaults, a
    #: :class:`~repro.portal.scheduler.SchedulerConfig` for tuned knobs,
    #: ``None``/``False`` for the seed's one-query-at-a-time behaviour.
    scheduler: Union[None, bool, SchedulerConfig] = None
    #: Install the epoch-aware semantic result cache on the Portal
    #: (``portal.cache``): ``True`` for the defaults, a
    #: :class:`~repro.portal.cache.CacheConfig` for tuned knobs,
    #: ``None``/``False`` for no caching. With ``ingest=True`` every
    #: primary's epoch commits are chained into the cache's invalidation
    #: hook automatically.
    cache: Union[None, bool, CacheConfig] = None


@dataclass
class Federation:
    """A running federation and everything needed to poke at it."""

    config: FederationConfig
    network: SimulatedNetwork
    portal: Portal
    nodes: Dict[str, SkyNode]
    bodies: List[TrueBody]
    truth: Dict[str, Dict[int, int]]  # archive -> object_id -> body_id
    #: Replica SkyNodes keyed by archive (empty unless config.replicas > 0).
    replicas: Dict[str, List[SkyNode]] = field(default_factory=dict)
    #: Shard SkyNodes (primaries) keyed by archive, in ownership order
    #: (empty unless config.shards > 0).
    shards: Dict[str, List[SkyNode]] = field(default_factory=dict)
    #: Shard replica SkyNodes: archive -> shard name -> mirrors.
    shard_replicas: Dict[str, Dict[str, List[SkyNode]]] = field(
        default_factory=dict
    )

    def client(self, hostname: str = "client.skyquery.net") -> SkyQueryClient:
        """A client wired to this federation's Portal."""
        return SkyQueryClient(
            self.network,
            self.portal.service_url("skyquery"),
            hostname=hostname,
            retry_policy=self.config.retry_policy,
        )

    def node(self, archive: str) -> SkyNode:
        """A SkyNode by archive name."""
        return self.nodes[archive]

    def ingest_client(
        self, archive: str, hostname: str = "ingest.skyquery.net"
    ):
        """A live-ingest client wired to one archive's Ingest service."""
        from repro.ingest.client import IngestClient

        node = self.nodes[archive]
        if node.ingest is None:
            raise RegistrationError(
                f"archive {archive!r} has no Ingest service "
                "(build the federation with ingest=True)"
            )
        return IngestClient(
            self.network,
            node.host.url_for("/ingest"),
            hostname=hostname,
            retry_policy=self.config.retry_policy,
        )

    @property
    def tracer(self):
        """The network's tracer (None when built with ``tracing=False``)."""
        return self.network.tracer

    @property
    def scheduler(self):
        """The Portal's run queue (None unless built with ``scheduler=``)."""
        return self.portal.scheduler

    @property
    def cache(self):
        """The Portal's semantic cache (None unless built with ``cache=``)."""
        return self.portal.cache


#: Legal values of the enumerated FederationConfig knobs, checked up front
#: by :func:`build_federation` — an unknown value would otherwise fall
#: through silently into node config and only blow up (or worse, be
#: ignored) deep inside the first query.
_CONFIG_CHOICES = {
    "match_engine": ("htm", "zone"),
    "chain_mode": ("store-forward", "pipelined"),
}


def _validate_config(config: FederationConfig) -> None:
    """Reject unsupported enumerated knob values with an actionable error."""
    for knob, choices in _CONFIG_CHOICES.items():
        value = getattr(config, knob)
        if value not in choices:
            raise ConfigurationError(
                f"FederationConfig.{knob}={value!r} is not supported; "
                f"expected one of {choices}"
            )
    if not (
        config.scheduler is None
        or isinstance(config.scheduler, (bool, SchedulerConfig))
    ):
        raise ConfigurationError(
            f"FederationConfig.scheduler={config.scheduler!r} is not "
            "supported; expected None, a bool, or a SchedulerConfig"
        )
    if not (
        config.cache is None or isinstance(config.cache, (bool, CacheConfig))
    ):
        raise ConfigurationError(
            f"FederationConfig.cache={config.cache!r} is not supported; "
            "expected None, a bool, or a CacheConfig"
        )
    if config.shards < 0:
        raise ConfigurationError(
            f"FederationConfig.shards must be >= 0, got {config.shards}"
        )
    if config.shards and config.shard_key not in SHARD_KEYS:
        raise ConfigurationError(
            f"FederationConfig.shard_key={config.shard_key!r} is not "
            f"supported; expected one of {SHARD_KEYS}"
        )
    if config.shards and config.ingest:
        # Shard ownership is planned once, from the provisioning-time row
        # distribution; live ingest would route new rows nowhere. Until
        # ingest learns to split batches by ownership the combination is
        # rejected rather than silently wrong.
        raise ConfigurationError(
            "FederationConfig.shards cannot be combined with ingest"
        )


def build_federation(config: Optional[FederationConfig] = None) -> Federation:
    """Generate the sky, load the archives, register everyone.

    The registration handshake is performed over the simulated network with
    real SOAP messages, so even a freshly built federation already has
    "registration"-phase traffic in its metrics.
    """
    config = config or FederationConfig()
    _validate_config(config)
    network = SimulatedNetwork(
        default_latency_s=config.default_latency_s,
        default_bandwidth_bps=config.default_bandwidth_bps,
    )
    if config.tracing:
        from repro.tracing.tracer import Tracer

        network.install_tracer(Tracer())
    portal = Portal(
        retry_policy=config.retry_policy,
        health_probes=config.health_probes,
        chain_mode=config.chain_mode,
        stream_batch_size=config.stream_batch_size,
        match_engine=config.match_engine,
    )
    if config.cache:
        portal.cache = SemanticCache(
            config.cache if isinstance(config.cache, CacheConfig) else None
        )
    if config.scheduler:
        portal.scheduler = QueryScheduler(
            portal,
            config.scheduler
            if isinstance(config.scheduler, SchedulerConfig)
            else None,
        )
    portal.attach(network)

    bodies = generate_bodies(config.sky_field, config.n_bodies, config.seed)
    nodes: Dict[str, SkyNode] = {}
    truth: Dict[str, Dict[int, int]] = {}
    for survey in config.surveys:
        observation = observe_survey(survey, bodies, config.seed)
        truth[survey.archive] = observation.truth

        footprint = survey.footprint
        info = ArchiveInfo(
            archive=survey.archive,
            sigma_arcsec=survey.sigma_arcsec,
            primary_table=survey.primary_table,
            object_id_column=survey.object_id_column,
            ra_column=survey.ra_column,
            dec_column=survey.dec_column,
            footprint_ra_deg=footprint.center_ra_deg if footprint else None,
            footprint_dec_deg=footprint.center_dec_deg if footprint else None,
            footprint_radius_arcsec=(
                footprint.radius_arcsec if footprint else None
            ),
        )
        node = _make_node(
            config,
            network,
            survey,
            info,
            survey.archive.lower(),
            survey.columns(),
        )
        node.db.insert(survey.primary_table, observation.rows)
        node.register_with_portal(portal.service_url("registration"))
        nodes[survey.archive] = node

    replicas: Dict[str, List[SkyNode]] = {}
    if config.replicas > 0:
        for survey in config.surveys:
            replicas[survey.archive] = _provision_replicas(
                config, network, nodes[survey.archive], survey, portal
            )

    shard_nodes: Dict[str, List[SkyNode]] = {}
    shard_replica_nodes: Dict[str, Dict[str, List[SkyNode]]] = {}
    if config.shards > 0:
        for survey in config.surveys:
            provisioned, mirrors = _provision_shards(
                config,
                network,
                nodes[survey.archive],
                survey,
                portal,
                replicas.get(survey.archive, []),
            )
            shard_nodes[survey.archive] = provisioned
            shard_replica_nodes[survey.archive] = mirrors

    if config.ingest:
        for archive, node in nodes.items():
            replica_urls = []
            for replica in replicas.get(archive, []):
                # Mirrors participate in every epoch commit, so they need
                # the same retention policy + stale-pin reaping wiring —
                # epoch counters and GC floors advance in lockstep.
                replica_urls.append(replica.enable_transactions())
                replica.transaction.keep_epochs = config.keep_epochs
                replica.transaction.on_epoch_commit = (
                    lambda _epoch, r=replica: r.crossmatch.leases.reap()
                )
            node.enable_ingest(
                keep_epochs=config.keep_epochs,
                replica_transaction_urls=replica_urls,
            )
            if portal.cache is not None:
                # Chain cache invalidation onto the primary's commit hook
                # (after stale-pin reaping): the instant an epoch lands,
                # every cached answer pinned to this archive's previous
                # epoch is dropped.
                previous = node.transaction.on_epoch_commit

                def _note_epoch(
                    epoch: int,
                    archive: str = archive,
                    previous=previous,
                ) -> None:
                    if previous is not None:
                        previous(epoch)
                    portal.cache.note_epoch(archive, epoch)

                node.transaction.on_epoch_commit = _note_epoch

    if config.fault_plan is not None:
        network.set_fault_plan(config.fault_plan)

    return Federation(
        config=config,
        network=network,
        portal=portal,
        nodes=nodes,
        bodies=bodies,
        truth=truth,
        replicas=replicas,
        shards=shard_nodes,
        shard_replicas=shard_replica_nodes,
    )


def _provision_replicas(
    config: FederationConfig,
    network: SimulatedNetwork,
    primary: SkyNode,
    survey: SurveySpec,
    portal: Portal,
) -> List[SkyNode]:
    """Stand up ``config.replicas`` mirror SkyNodes for one archive.

    Each replica starts with an *empty* copy of the primary table (same
    spatial indexing) and is filled over the wire: the transactional
    region-replication exchange pulls the primary's rows through its Query
    service and commits them at the replica under 2PC — so a replica is
    provisioned exactly the way two real archives would exchange data,
    never by reaching into the primary's database object. The primary then
    re-registers, advertising the replicas' endpoints as failover
    candidates.
    """
    from repro.transactions.exchange import DataExchange

    info = primary.info
    field_ = config.sky_field
    # Generous circle: every observed position (field radius + positional
    # scatter) falls inside it, so the replica is a complete mirror.
    everything = AreaClause(
        field_.center_ra_deg,
        field_.center_dec_deg,
        field_.radius_arcsec * 4.0,
    )
    column_names = [column.name for column in survey.columns()]
    replica_nodes: List[SkyNode] = []
    for index in range(1, config.replicas + 1):
        replica = _make_node(
            config,
            network,
            survey,
            info,
            f"{survey.archive.lower()}_r{index}",
            survey.columns(),
            hostname=f"{survey.archive.lower()}-r{index}.skyquery.net",
        )
        replica_key = f"{survey.archive}-r{index}"
        exchange = DataExchange(
            portal, {replica_key: replica.enable_transactions()}
        )
        result = exchange.replicate_region(
            survey.archive,
            [replica_key],
            everything,
            columns=column_names,
            target_table=survey.primary_table,
        )
        if not result.committed:
            raise RegistrationError(
                f"replica provisioning for {survey.archive!r} aborted: "
                f"{result.abort_reason}"
            )
        replica_nodes.append(replica)
    primary.register_with_portal(
        portal.service_url("registration"),
        replicas=[replica.service_urls() for replica in replica_nodes],
    )
    return replica_nodes


def _make_node(
    config: FederationConfig,
    network: SimulatedNetwork,
    survey: SurveySpec,
    info: ArchiveInfo,
    db_name: str,
    columns: Sequence[Column],
    hostname: Optional[str] = None,
) -> SkyNode:
    """One SkyNode on the network over an empty, spatially indexed primary
    table — primary, replica, shard or shard mirror alike. Every
    execution knob comes from the one config, so whichever of them serves
    a slice computes exactly what the primary would over it."""
    db = Database(
        db_name,
        dialect=survey.dialect,
        page_size=config.page_size,
        buffer_pages=config.buffer_pages,
    )
    db.create_table(
        survey.primary_table,
        columns,
        spatial=SpatialSpec(
            survey.ra_column, survey.dec_column, htm_depth=config.htm_depth
        ),
    )
    node = SkyNode(
        db,
        info,
        hostname=hostname,
        parser_memory_limit=config.parser_memory_limit,
        parser_overhead_factor=config.parser_overhead_factor,
        chunk_budget_bytes=config.chunk_budget_bytes,
        processing_seconds_per_row=config.processing_seconds_per_row,
        retry_policy=config.retry_policy,
        match_engine=config.match_engine,
    )
    node.attach(network)
    return node


def _provision_shards(
    config: FederationConfig,
    network: SimulatedNetwork,
    primary: SkyNode,
    survey: SurveySpec,
    portal: Portal,
    archive_replicas: List[SkyNode],
):
    """Split one archive's table across ``config.shards`` shard SkyNodes.

    Ownership is planned from the primary's actual row distribution
    (zone-id or HTM-id quantiles), the rows are pulled once over the wire
    with their scan positions appended, partitioned by ownership, and
    staged to every shard (and each shard's mirrors) under ONE 2PC — the
    federation never observes a half-sharded archive. The primary keeps
    its full copy and re-registers, advertising the layout; the primary
    and its archive replicas all learn the ShardSet so whichever of them
    coordinates a chain hop fans out identically.

    Returns ``(shard_primaries, {shard_name: [mirrors]})``.
    """
    from repro.htm.index import id_for_point
    from repro.shard import (
        HTM_KEY,
        plan_htm_ownership,
        plan_zone_ownership,
    )
    from repro.shard.topology import ShardMember, ShardSet
    from repro.soap.encoding import WireRowSet
    from repro.sphere.coords import radec_to_vector
    from repro.transactions.exchange import DataExchange

    info = primary.info
    column_names = [column.name for column in survey.columns()]
    ra_idx = column_names.index(info.ra_column)
    dec_idx = column_names.index(info.dec_column)

    puller = DataExchange(portal, {})
    rowset = puller.pull_table_with_positions(
        survey.archive, column_names, position_column=SHARD_POS_COLUMN
    )
    if config.shard_key == HTM_KEY:
        hids = [
            id_for_point(
                radec_to_vector(float(row[ra_idx]), float(row[dec_idx])),
                config.htm_depth,
            )
            for row in rowset.rows
        ]
        ownerships = plan_htm_ownership(
            hids, config.shards, config.htm_depth
        )
    else:
        hids = [0] * len(rowset.rows)
        ownerships = plan_zone_ownership(
            [float(row[dec_idx]) for row in rowset.rows],
            config.shards,
            htm_depth=config.htm_depth,
        )

    partitions: List[List[tuple]] = [[] for _ in ownerships]
    for row, hid in zip(rowset.rows, hids):
        dec = float(row[dec_idx])
        for index, ownership in enumerate(ownerships):
            if not ownership.empty and ownership.owns(dec, hid):
                partitions[index].append(tuple(row))
                break
        else:  # pragma: no cover - ownerships cover the whole key space
            raise RegistrationError(
                f"row at dec {dec} of {survey.archive!r} has no owning shard"
            )

    # A shard's table is the survey's plus a trailing position column
    # recording each row's index in the *primary's* scan order — what
    # lets a scatter-gather merge reproduce the monolithic result order.
    shard_columns = list(survey.columns()) + [
        Column(SHARD_POS_COLUMN, ColumnType.INT, nullable=True)
    ]
    shard_primaries: List[SkyNode] = []
    shard_mirrors: Dict[str, List[SkyNode]] = {}
    members: List[ShardMember] = []
    transaction_urls: Dict[str, str] = {}
    assignments: Dict[str, WireRowSet] = {}
    for index, ownership in enumerate(ownerships, start=1):
        shard_name = f"{survey.archive}-shard{index}"
        shard = _make_node(
            config,
            network,
            survey,
            info,
            f"{survey.archive.lower()}_s{index}",
            shard_columns,
            hostname=f"{survey.archive.lower()}-shard{index}.skyquery.net",
        )
        transaction_urls[shard_name] = shard.enable_transactions()
        slice_rows = WireRowSet(
            list(rowset.columns), list(partitions[index - 1])
        )
        assignments[shard_name] = slice_rows
        mirrors: List[SkyNode] = []
        for rep in range(1, config.replicas + 1):
            mirror = _make_node(
                config,
                network,
                survey,
                info,
                f"{survey.archive.lower()}_s{index}_r{rep}",
                shard_columns,
                hostname=(
                    f"{survey.archive.lower()}-shard{index}-r{rep}"
                    ".skyquery.net"
                ),
            )
            mirror_key = f"{shard_name}-r{rep}"
            transaction_urls[mirror_key] = mirror.enable_transactions()
            assignments[mirror_key] = slice_rows
            mirrors.append(mirror)
        shard_primaries.append(shard)
        shard_mirrors[shard_name] = mirrors
        members.append(
            ShardMember(
                name=shard_name,
                ownership=ownership,
                endpoints=tuple(
                    node.service_urls() for node in [shard] + mirrors
                ),
            )
        )

    exchange = DataExchange(portal, transaction_urls)
    result = exchange.stage_partitioned(
        assignments,
        target_table=survey.primary_table,
        txn_label=f"shard-{survey.archive.lower()}",
    )
    if not result.committed:
        raise RegistrationError(
            f"shard provisioning for {survey.archive!r} aborted: "
            f"{result.abort_reason}"
        )

    shard_set = ShardSet(members=tuple(members))
    primary.shard_set = shard_set
    for replica in archive_replicas:
        # Archive replicas hold the full table too; if the chain fails
        # over to one, it coordinates the identical fan-out.
        replica.shard_set = shard_set
    primary.register_with_portal(
        portal.service_url("registration"),
        replicas=[replica.service_urls() for replica in archive_replicas],
        shards=shard_set,
    )
    return shard_primaries, shard_mirrors
