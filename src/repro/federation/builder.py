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
from repro.portal.executor import WHOLE_RESULT
from repro.portal.portal import Portal
from repro.portal.scheduler import QueryScheduler, SchedulerConfig
from repro.services.retry import RetryPolicy
from repro.shard import ZONE_KEY
from repro.skynode.node import DEFAULT_PARSER_MEMORY_LIMIT, SkyNode
from repro.skynode.wrapper import ArchiveInfo
from repro.skynode.xmatch_proc import MATCH_ENGINE_ZONE, PROCEDURE_NAME
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
    chunk_budget_bytes: Optional[int] = None
    #: Per-row scan cost charged to the simulated clock (paper Section 5.3
    #: counts processing alongside transmission). 5 microseconds/row by
    #: default — a 2002-era disk-backed scan rate of ~200k rows/s.
    processing_seconds_per_row: float = 5e-6
    #: Retry/timeout/breaker configuration for the Portal and every node's
    #: outbound calls. None keeps single-shot RPCs (the seed's behaviour).
    retry_policy: Optional[RetryPolicy] = None
    #: The spatial index of every node's cross-match: ``zone``
    #: (declination zones with sorted-merge windows) is the only one, and
    #: any other value is refused. HTM matching is an argument of the
    #: stored procedure, installed over ``sp_xmatch`` on a built
    #: federation's databases (see :mod:`repro.skynode.xmatch_proc`). The
    #: field survives only because the ledger's workloads
    #: (``benchmarks/ledger/workloads.py``) pass ``match_engine="zone"``.
    match_engine: str = MATCH_ENGINE_ZONE
    #: Scripted transient faults, installed only AFTER registration
    #: completes so federation construction is never fault-injected.
    fault_plan: Optional[FaultPlan] = None
    #: How the chain's one transport is cut into batches: ``store-forward``
    #: (each hop's whole result is one batch, carried by the
    #: PerformXMatch response — the paper's nested round trips) or
    #: ``pipelined`` (``stream_batch_size`` tuples a batch, pulled
    #: concurrently so transfer overlaps compute). Together the two
    #: fields spell one number, the Portal's ``batch_size``;
    #: :func:`build_federation` is the only reader of either.
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
    #: 1 is a legal single-shard layout that still runs as a partition
    #: chain). Every archive's table is cut on the same declination-zone
    #: boundaries, row-balanced over all archives, and each stripe goes
    #: to its own shard SkyNode together with margin copies of the rows
    #: just past its edges; a query whose reach fits the margin then runs
    #: as one chain per stripe. Each primary keeps its full copy (the
    #: provisioning source and the answer to every other query) and
    #: re-registers advertising the layout. Incompatible with ``ingest``.
    shards: int = 0
    #: The shard key: ``zone`` (declination-zone stripes) is the only one,
    #: and any other value is refused. The field survives only because
    #: the ledger's workloads (``benchmarks/ledger/workloads.py``) pass
    #: ``shard_key="zone"``.
    shard_key: str = ZONE_KEY
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
    if config.match_engine != MATCH_ENGINE_ZONE:
        raise ConfigurationError(
            f"FederationConfig.match_engine={config.match_engine!r} is not "
            f"supported; every node matches with {MATCH_ENGINE_ZONE!r}. "
            "Other engines are an argument of the stored procedure: install "
            f"one over {PROCEDURE_NAME!r} on the built federation's databases"
        )
    if config.shard_key != ZONE_KEY:
        raise ConfigurationError(
            f"FederationConfig.shard_key={config.shard_key!r} is not "
            f"supported; the one shard layout is {ZONE_KEY!r}"
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
        batch_size=(
            config.stream_batch_size
            if config.chain_mode == "pipelined"
            else WHOLE_RESULT
        ),
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
        shard_nodes, shard_replica_nodes = _provision_shards(
            config, network, nodes, portal, replicas
        )

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
    tables: Sequence[str] = (),
) -> SkyNode:
    """One SkyNode on the network over empty, spatially indexed tables —
    the survey's primary table plus any ``tables`` named — primary,
    replica, shard or shard mirror alike. Every execution knob comes from
    the one config, so whichever of them serves a slice computes exactly
    what the primary would over it."""
    db = Database(
        db_name,
        dialect=survey.dialect,
        page_size=config.page_size,
        buffer_pages=config.buffer_pages,
    )
    for table in (survey.primary_table, *tables):
        db.create_table(
            table,
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
        chunk_budget_bytes=config.chunk_budget_bytes,
        processing_seconds_per_row=config.processing_seconds_per_row,
        retry_policy=config.retry_policy,
    )
    node.attach(network)
    return node


def _provision_shards(
    config: FederationConfig,
    network: SimulatedNetwork,
    primaries: Dict[str, SkyNode],
    portal: Portal,
    replicas: Dict[str, List[SkyNode]],
):
    """Cut every archive's table on the same ``config.shards`` stripes.

    Every archive's rows are pulled once over the wire with their scan
    positions appended; the stripes are zone-id quantiles of all of them
    together, so the k-th shard of every archive covers the same sky and
    a query can run as one chain per stripe. Each shard SkyNode (and each
    of its mirrors) gets the rows it owns plus, in a second table, copies
    of its neighbours' rows within ``MARGIN_DEG`` of its stripe — staged
    under ONE 2PC per archive, so the federation never observes a
    half-sharded archive. Each primary keeps its full copy and
    re-registers, advertising the layout.

    Returns ``({archive: shard_primaries}, {archive: {shard_name:
    [mirrors]}})``.
    """
    from repro.shard import (
        MARGIN_DEG,
        SHARD_POS_COLUMN,
        margin_table,
        members_for_tuple,
        plan_zone_ownership,
    )
    from repro.shard.topology import ShardMember, ShardSet
    from repro.soap.encoding import WireRowSet
    from repro.transactions.exchange import DataExchange

    puller = DataExchange(portal, {})
    pulled: Dict[str, WireRowSet] = {}
    decs: Dict[str, List[float]] = {}
    for survey in config.surveys:
        column_names = [column.name for column in survey.columns()]
        pulled[survey.archive] = puller.pull_table_with_positions(
            survey.archive, column_names, position_column=SHARD_POS_COLUMN
        )
        dec_idx = column_names.index(survey.dec_column)
        decs[survey.archive] = [
            float(row[dec_idx]) for row in pulled[survey.archive].rows
        ]
    ownerships = plan_zone_ownership(
        [dec for values in decs.values() for dec in values],
        config.shards,
        htm_depth=config.htm_depth,
    )

    shard_nodes: Dict[str, List[SkyNode]] = {}
    shard_mirrors: Dict[str, Dict[str, List[SkyNode]]] = {}
    for survey in config.surveys:
        archive, lower = survey.archive, survey.archive.lower()
        primary = primaries[archive]
        table = survey.primary_table
        # A shard's tables are the survey's plus a trailing position column
        # recording each row's index in the *primary's* scan order — what
        # lets the partition merges reproduce the monolithic result order.
        shard_columns = list(survey.columns()) + [
            Column(SHARD_POS_COLUMN, ColumnType.INT, nullable=True)
        ]
        members: List[ShardMember] = []
        transaction_urls: Dict[str, str] = {}
        holders: Dict[str, List[str]] = {}
        shard_nodes[archive], shard_mirrors[archive] = [], {}
        for index, ownership in enumerate(ownerships, start=1):
            name = f"{archive}-shard{index}"
            group = [
                _make_node(
                    config, network, survey, primary.info,
                    f"{lower}_s{index}" + (f"_r{rep}" if rep else ""),
                    shard_columns,
                    hostname=(
                        f"{lower}-shard{index}"
                        + (f"-r{rep}" if rep else "")
                        + ".skyquery.net"
                    ),
                    tables=(margin_table(table),),
                )
                for rep in range(config.replicas + 1)
            ]
            keys = [name] + [f"{name}-r{rep}" for rep in range(1, len(group))]
            for key, node in zip(keys, group):
                transaction_urls[key] = node.enable_transactions()
            holders[name] = keys
            shard_nodes[archive].append(group[0])
            shard_mirrors[archive][name] = group[1:]
            members.append(
                ShardMember(
                    name=name,
                    ownership=ownership,
                    endpoints=tuple(node.service_urls() for node in group),
                )
            )

        rowset = pulled[archive]
        owned: Dict[str, List[tuple]] = {m.name: [] for m in members}
        margin: Dict[str, List[tuple]] = {m.name: [] for m in members}
        for row, dec in zip(rowset.rows, decs[archive]):
            for member in members_for_tuple(members, dec, MARGIN_DEG):
                into = owned if member.ownership.owns(dec) else margin
                into[member.name].append(tuple(row))
        assignments = {
            key: {
                table: WireRowSet(list(rowset.columns), owned[name]),
                margin_table(table): WireRowSet(
                    list(rowset.columns), margin[name]
                ),
            }
            for name, keys in holders.items()
            for key in keys
        }
        exchange = DataExchange(portal, transaction_urls)
        result = exchange.stage_partitioned(
            assignments, txn_label=f"shard-{lower}"
        )
        if not result.committed:
            raise RegistrationError(
                f"shard provisioning for {archive!r} aborted: "
                f"{result.abort_reason}"
            )
        primary.register_with_portal(
            portal.service_url("registration"),
            replicas=[
                replica.service_urls() for replica in replicas.get(archive, [])
            ],
            shards=ShardSet(members=tuple(members)),
        )
    return shard_nodes, shard_mirrors
