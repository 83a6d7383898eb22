"""Portal assembly: catalog + Registration + SkyQuery services on one host."""

from __future__ import annotations

import os
from contextlib import nullcontext
from typing import Collection, Dict, List, Optional, Sequence, Tuple

from repro.budget import QueryBudget, use_budget
from repro.errors import (
    DeadlineExceededError,
    SoapFaultError,
    StaleEpochError,
    TransportError,
    ValidationError,
)
from repro.portal.cache import SemanticCache, _ResultEntry
from repro.portal.catalog import FederationCatalog
from repro.portal.decompose import DecomposedQuery, decompose
from repro.portal.executor import ChainExecutor, FederatedResult
from repro.portal.planner import OrderingStrategy, Planner
from repro.portal.registration import RegistrationService
from repro.portal.skyquery_service import SkyQueryService
from repro.services.client import ServiceProxy
from repro.services.framework import ServiceHost
from repro.services.retry import BreakerRegistry, RetryPolicy
from repro.soap.xmlparser import XMLParser
from repro.sql.ast import Query
from repro.sql.parser import parse_query
from repro.sql.printer import to_sql
from repro.sql.validate import validate_query
from repro.transport.network import SimulatedNetwork

PORTAL_PATHS = {"registration": "/registration", "skyquery": "/skyquery"}


class Portal:
    """The mediator of the federation.

    ``retry_policy`` arms every Portal-side proxy with retries/timeouts and
    per-endpoint circuit breakers; ``health_probes`` (on by default) makes
    the Portal ping each involved archive's Information service before
    planning so unreachable drop-out archives are skipped — and a lost
    mandatory archive yields a degraded result instead of an exception.
    """

    def __init__(
        self,
        hostname: str = "portal.skyquery.net",
        *,
        parser_memory_limit: Optional[int] = None,
        parser_overhead_factor: float = 4.0,
        retry_policy: Optional[RetryPolicy] = None,
        health_probes: bool = True,
        chain_mode: str = "store-forward",
        stream_batch_size: int = 200,
        stream_wire_format: str = "columnar",
        match_engine: Optional[str] = None,
    ) -> None:
        self.hostname = hostname
        #: How the executor drives the chain: ``store-forward`` (single
        #: PerformXMatch round trip, the reference oracle) or ``pipelined``
        #: (OpenStream/PullBatch batches pulled concurrently).
        self.chain_mode = chain_mode
        #: Tuples per batch when the chain is pipelined.
        self.stream_batch_size = stream_batch_size
        #: Encoding for streamed partial tuples: ``columnar`` (compact
        #: column-major colset) or ``rows`` (the classic rowset).
        self.stream_wire_format = stream_wire_format
        #: Whether a retried/failed-over chain resumes from hop checkpoints
        #: and stream high-water marks. Off, every recovery is a full
        #: restart — the E18 comparison arm, not a recommended setting.
        self.checkpoint_resume = True
        #: Pipelined-mode flow control: how many batches may be in flight
        #: at once (0 = unbounded, the full-overlap default). A bounded
        #: window acknowledges batches progressively, which is what lets
        #: a mid-stream failover resume at the high-water mark instead of
        #: losing every in-flight batch together.
        self.stream_pull_window = 0
        self.catalog = FederationCatalog()
        self.parser = XMLParser(
            memory_limit_bytes=parser_memory_limit,
            overhead_factor=parser_overhead_factor,
        )
        self.registration = RegistrationService(self)
        self.skyquery = SkyQueryService(self)
        self.host = ServiceHost(hostname)
        self.host.mount(PORTAL_PATHS["registration"], self.registration)
        self.host.mount(PORTAL_PATHS["skyquery"], self.skyquery)
        self.planner = Planner(self)
        self.executor = ChainExecutor(self)
        self.network: Optional[SimulatedNetwork] = None
        self.queries_served = 0
        self.retry_policy = retry_policy
        self.health_probes = health_probes
        #: The node-side match engine this Portal assumes for its archives
        #: (what build_federation configured every SkyNode with). It never
        #: changes node queries or result rows, but like the chain mode
        #: and wire format it is an execution setting a cached entry must
        #: not cross — so it folds into every plan's ``profile`` and
        #: thereby its fingerprint.
        self.match_engine = (
            match_engine
            if match_engine is not None
            else os.environ.get("SKYQUERY_MATCH_ENGINE", "htm")
        )
        #: Whether a deadline-dead chain is cancelled eagerly with a
        #: ``CancelQuery`` fan-down (the default) or left to the nodes'
        #: TTL reapers — the E22 comparison arm, not a recommended
        #: setting: leftover streams, checkpoints, and transfers then sit
        #: in server memory for the whole TTL.
        self.eager_cancel = True
        #: The semantic result cache (None = caching off, the seed's
        #: behaviour; installed via ``FederationConfig(cache=...)``).
        self.cache: Optional[SemanticCache] = None
        #: The admission-controlled run queue (None until installed via
        #: ``FederationConfig(scheduler=...)``).
        self.scheduler = None
        self.breakers = (
            BreakerRegistry(metrics=self._current_metrics)
            if retry_policy is not None
            else None
        )

    def _current_metrics(self):
        return self.network.metrics if self.network is not None else None

    def execution_profile(self) -> Tuple[Tuple[str, str], ...]:
        """Canonical ``(knob, value)`` pairs of every execution setting
        that changes observable result bytes without changing node
        queries. Folded into plan fingerprints (and hence cache keys) so
        two federations differing in any one knob never share an entry.

        Each sharded archive's ownership layout is folded in too (via
        :meth:`~repro.shard.topology.ShardSet.layout_signature`): a
        re-sharded federation partitions the same rows differently, and
        while the merged answer is provably identical, the per-shard
        stats and wire bytes are not — a cached entry must not cross a
        re-shard. The signature is content-based (no endpoint URLs), so
        shard-replica failover stays fingerprint-neutral.
        """
        knobs = {
            "chain_mode": str(self.chain_mode),
            "stream_batch_size": str(self.stream_batch_size),
            "stream_wire_format": str(self.stream_wire_format),
            "match_engine": str(self.match_engine),
        }
        for archive in self.catalog.archives():
            record = self.catalog.node(archive)
            if record.shard_set is not None:
                knobs[f"shard_layout:{archive}"] = (
                    record.shard_set.layout_signature()
                )
        return tuple(sorted(knobs.items()))

    def attach(self, network: SimulatedNetwork) -> None:
        """Put the Portal on the (simulated) Internet."""
        network.add_host(self.hostname, self.host.handle)
        self.network = network

    def require_network(self) -> SimulatedNetwork:
        """The attached network, raising if the Portal is offline."""
        if self.network is None:
            raise TransportError("the Portal is not attached to a network")
        return self.network

    def service_url(self, service: str) -> str:
        """Endpoint URL of 'registration' or 'skyquery'."""
        return self.host.url_for(PORTAL_PATHS[service])

    def proxy(self, url: str) -> ServiceProxy:
        """A caller proxy originating at the Portal."""
        return ServiceProxy(
            self.require_network(),
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

    # -- health probing -----------------------------------------------------------

    def probe_health(self, archives: Sequence[str]) -> Dict[str, bool]:
        """Ping each archive's Information service (``IsAlive``).

        Probes are dispatched concurrently like the performance queries;
        an archive is dead when the probe fails after whatever retries the
        Portal's policy allows. With ``health_probes`` disabled everything
        reports alive (the seed's behaviour).
        """
        unique = sorted(dict.fromkeys(archives))
        if not self.health_probes:
            return {archive: True for archive in unique}
        network = self.require_network()
        health: Dict[str, bool] = {}
        with network.phase("health-probe"), network.parallel():
            for archive in unique:
                health[archive] = self.is_alive(
                    self.catalog.node(archive).services["information"]
                )
        return health

    def is_alive(self, information_url: str) -> bool:
        """One ``IsAlive`` ping against an Information service URL."""
        try:
            return bool(self.proxy(information_url).call("IsAlive"))
        except (TransportError, SoapFaultError):
            return False

    def probe_endpoints(
        self, archives: Sequence[str]
    ) -> Dict[str, Optional[Dict[str, str]]]:
        """Replica-aware health probe: the first live endpoint set per archive.

        Tries each archive's primary first, then its replicas in
        registration order; an archive maps to ``None`` only when every
        endpoint is dead. Archives probe concurrently; within one archive
        the primary-then-replica sequence is a single branch (you only ask
        a replica after the primary failed).
        """
        unique = sorted(dict.fromkeys(archives))
        if not self.health_probes:
            return {
                archive: self.catalog.node(archive).services
                for archive in unique
            }
        network = self.require_network()
        chosen: Dict[str, Optional[Dict[str, str]]] = {}
        with network.phase("health-probe"), network.parallel():
            for archive in unique:
                record = self.catalog.node(archive)
                with network.branch():
                    chosen[archive] = None
                    for services in record.endpoint_candidates():
                        if self.is_alive(services["information"]):
                            chosen[archive] = services
                            break
        return chosen

    def live_endpoints(
        self, archive: str, *, exclude: Collection[str] = ()
    ) -> Optional[Dict[str, str]]:
        """First live endpoint set for one archive, primary first.

        ``exclude`` lists crossmatch URLs already known dead (the executor's
        per-query blacklist), so recovery never fails back onto an endpoint
        it just watched die. Probes run sequentially: a replica is only
        asked once everything before it was excluded or found dead.
        """
        record = self.catalog.node(archive)
        network = self.require_network()
        with network.phase("health-probe"):
            for services in record.endpoint_candidates():
                if services["crossmatch"] in exclude:
                    continue
                if self.is_alive(services["information"]):
                    return services
        return None

    def information_url_for(self, archive: str, crossmatch_url: str) -> str:
        """Information URL of the endpoint set owning a crossmatch URL.

        Lets the executor probe the health of the *specific* endpoint a
        plan step currently targets (which, after a failover, is a replica,
        not the primary). Unknown URLs fall back to the primary set.
        """
        record = self.catalog.node(archive)
        for services in record.endpoint_candidates():
            if services["crossmatch"] == crossmatch_url:
                return services["information"]
        return record.services["information"]

    # -- the full query path ------------------------------------------------------

    def submit(
        self,
        sql: str | Query,
        *,
        strategy: OrderingStrategy = OrderingStrategy.COUNT_DESC,
        random_seed: int = 0,
        pin_epochs: Optional[Dict[str, int]] = None,
        deadline_s: Optional[float] = None,
    ) -> FederatedResult:
        """Figure 3 end to end: decompose, probe, plan, chain, project.

        Resilience: before planning, the Portal health-probes every archive
        the query touches. Dead *drop-out* archives are skipped at plan
        time (with a warning); a dead *mandatory* archive — or one whose
        performance query fails after retries — yields a degraded empty
        result whose warnings name the node, instead of an exception.

        Deadlines: ``deadline_s`` (an *absolute* time on the simulated
        clock) arms an end-to-end :class:`~repro.budget.QueryBudget` that
        rides a ``<sq:QueryBudget>`` SOAP Header on every hop of the
        submission — probes, performance queries, the chain, batch pulls.
        Each hop clamps its retries to the remaining budget and refuses
        budget-expired work with a typed fault; when the budget runs out
        anywhere, the Portal eagerly cancels the chain's server state and
        returns a degraded empty result whose warning names the hop that
        ran dry. A submission never hangs past its deadline.

        Snapshot isolation: the planner pins each archive at the epoch its
        count-star probe answered (returned as ``result.epochs``), so the
        whole chain reads one consistent version even while live ingest
        commits new epochs. ``pin_epochs`` (alias -> epoch) forces older
        committed epochs instead — a repeatable read of a past snapshot,
        valid until the epoch is garbage-collected.

        With a tracer on the network, the whole submission runs under one
        ``SubmitQuery`` root span and the returned result carries the
        assembled :class:`~repro.tracing.Trace` as ``result.trace``.
        """
        self.queries_served += 1
        query = parse_query(sql) if isinstance(sql, str) else sql
        analysis = validate_query(query)
        qid = ""
        budget_scope = nullcontext()
        if deadline_s is not None:
            qid = f"{self.hostname}-q{self.queries_served}"
            budget_scope = use_budget(QueryBudget(float(deadline_s), qid))
        tracer = self.network.tracer if self.network is not None else None

        def run() -> FederatedResult:
            try:
                if analysis.xmatch is None:
                    return self._submit_single_archive(query)
                return self._submit_federated(
                    query, strategy, random_seed, pin_epochs, qid=qid
                )
            except DeadlineExceededError as exc:
                # The budget died before (or outside) the chain — a probe,
                # a performance query, a direct query. No tagged chain
                # state exists yet, so there is nothing to cancel: the
                # TTL reaper covers any untagged leftovers. Degrade.
                return self.executor.degraded(
                    query, [f"query deadline exceeded: {exc}"]
                )

        with budget_scope:
            if tracer is None:
                return run()
            with tracer.span("SubmitQuery", host=self.hostname) as root:
                result = run()
                trace_id = root.trace_id
            result.trace = tracer.trace(trace_id)
            return result

    def _submit_federated(
        self,
        query: Query,
        strategy: OrderingStrategy,
        random_seed: int,
        pin_epochs: Optional[Dict[str, int]] = None,
        qid: str = "",
    ) -> FederatedResult:
        """The cross-match path of :meth:`submit`: probe, plan, chain.

        With a :class:`SemanticCache` installed the Portal consults it at
        three points, cheapest first: the exact key (canonical SQL +
        planner knobs — a hit costs zero wire bytes), AREA containment (a
        cached covering circle re-filtered locally — also zero wire), and
        the plan fingerprint after planning (different SQL text, same
        chain — skips the expensive chain but not the probes). Clean
        results are admitted to the cache on the way out.
        """
        tracer = self.network.tracer if self.network is not None else None
        decomposed = decompose(query, self.catalog)
        cache = self.cache
        exact_key = None
        containment_key = None
        pins = tuple(sorted((pin_epochs or {}).items()))
        if cache is not None:
            profile = self.execution_profile()
            exact_key = cache.exact_key(
                to_sql(query), strategy.value, random_seed, pins, profile
            )
            served = cache.lookup_exact(exact_key)
            if served is not None:
                if tracer is not None:
                    tracer.annotate("cache", outcome="hit", kind="exact")
                return served
            containment_key = cache.containment_key(decomposed, profile)
            if not pins and query.limit is None:
                # LIMIT without the containment path: the cut through a
                # partially ordered row set is plan-order dependent.
                entry = cache.covering_entry(containment_key, decomposed.area)
                if entry is not None:
                    served = self._serve_containment(entry, decomposed)
                    if served is not None:
                        if tracer is not None:
                            tracer.annotate(
                                "cache",
                                outcome="hit",
                                kind="containment",
                                source_fingerprint=entry.fingerprint,
                            )
                        return served
            if tracer is not None:
                tracer.annotate("cache", outcome="miss")
        warnings: List[str] = []
        skip_aliases: List[str] = []
        degraded = False
        failovers = 0
        #: Alias -> snapshot epoch pinned by that archive's probe.
        epochs: Dict[str, int] = {}
        #: Archives whose primary is dead but a replica answered: the plan
        #: is built against the replica's endpoints instead of degrading.
        failover_services: Dict[str, Dict[str, str]] = {}

        def admit(result: FederatedResult) -> FederatedResult:
            if cache is not None and exact_key is not None:
                cache.store_result(
                    exact_key,
                    result,
                    archives_by_alias={
                        alias: sub.archive
                        for alias, sub in decomposed.subqueries.items()
                    },
                    containment_key=containment_key,
                    area=decomposed.area
                    if containment_key is not None
                    else None,
                )
            return result

        plan_scope = (
            tracer.span("plan", host=self.hostname)
            if tracer is not None
            else nullcontext(None)
        )
        with plan_scope:
            # With probes disabled the Portal keeps the seed's strict
            # behaviour: a failed performance query raises, not degrades.
            perf_failures: Optional[Dict[str, str]] = (
                {} if self.health_probes else None
            )
            if self.health_probes:
                # Probes and performance queries are independent round
                # trips to the same archives: dispatch both groups in one
                # parallel block so probing hides entirely under the
                # count-star makespan.
                with self.require_network().parallel():
                    endpoints = self.probe_endpoints(
                        [
                            sub.archive
                            for sub in decomposed.subqueries.values()
                        ]
                    )
                    counts = self.planner.performance_counts(
                        decomposed,
                        failures=perf_failures,
                        epochs=epochs,
                        pin_epochs=pin_epochs,
                    )
                for archive, chosen in sorted(endpoints.items()):
                    record = self.catalog.node(archive)
                    if chosen is None or chosen == record.services:
                        continue
                    failover_services[archive] = chosen
                    failovers += 1
                    self.require_network().metrics.failovers += 1
                    if tracer is not None:
                        tracer.annotate(
                            "failover",
                            archive=archive,
                            from_url=record.services["crossmatch"],
                            to_url=chosen["crossmatch"],
                        )
                    warnings.append(
                        f"archive {archive!r} primary endpoint "
                        f"{record.services['crossmatch']} is unreachable; "
                        f"failing over to replica {chosen['crossmatch']}"
                    )
                dead_mandatory = [
                    alias
                    for alias in decomposed.mandatory_aliases
                    if endpoints[decomposed.subqueries[alias].archive]
                    is None
                ]
                if dead_mandatory:
                    for alias in dead_mandatory:
                        archive = decomposed.subqueries[alias].archive
                        warnings.append(
                            f"mandatory archive {archive!r} (alias "
                            f"{alias!r}) is unreachable; cross-match aborted"
                        )
                    return self.executor.degraded(query, warnings, failovers)
                for alias in decomposed.dropout_aliases:
                    archive = decomposed.subqueries[alias].archive
                    if endpoints[archive] is None:
                        skip_aliases.append(alias)
                        degraded = True
                        warnings.append(
                            f"drop-out archive {archive!r} (alias "
                            f"{alias!r}) is unreachable; skipped"
                        )
            else:
                counts = self.planner.performance_counts(
                    decomposed,
                    failures=perf_failures,
                    epochs=epochs,
                    pin_epochs=pin_epochs,
                )
            if perf_failures:
                # A performance query that died against a dead primary gets
                # a second chance at the replica the probe found alive.
                for alias in sorted(perf_failures):
                    subquery = decomposed.subqueries[alias]
                    chosen = failover_services.get(subquery.archive)
                    if chosen is None:
                        continue
                    try:
                        counts[alias], epochs[alias] = self.planner.count_for(
                            subquery,
                            chosen["query"],
                            pin_epoch=(pin_epochs or {}).get(alias),
                        )
                    except (TransportError, SoapFaultError) as exc:
                        if (
                            isinstance(exc, SoapFaultError)
                            and exc.detail == "StaleEpochError"
                            and alias in (pin_epochs or {})
                        ):
                            raise StaleEpochError(exc.faultstring) from exc
                        perf_failures[alias] = str(exc)
                        continue
                    del perf_failures[alias]
            if perf_failures:
                for alias in sorted(perf_failures):
                    archive = decomposed.subqueries[alias].archive
                    warnings.append(
                        f"mandatory archive {archive!r} (alias {alias!r}) "
                        f"failed its performance query: "
                        f"{perf_failures[alias]}"
                    )
                result = self.executor.degraded(query, warnings, failovers)
                result.counts = counts
                result.epochs = epochs
                return result
            if any(
                counts.get(alias) == 0
                for alias in decomposed.mandatory_aliases
            ):
                # A mandatory archive has nothing in the AREA: no tuple can
                # survive the inner join, so skip the whole chain. The
                # count-star probes pay for themselves here.
                result = FederatedResult(
                    columns=self.executor._output_columns(query.items),
                    rows=[],
                    warnings=warnings,
                    degraded=degraded,
                    failovers=failovers,
                )
                result.counts = counts
                result.epochs = epochs
                return admit(result)
            cost_models = None
            if strategy is OrderingStrategy.BYTES_DESC:
                from repro.portal.calibration import CostCalibrator

                cost_models = CostCalibrator(self).calibrate(decomposed)
            plan = self.planner.build_plan(
                decomposed,
                counts,
                strategy=strategy,
                random_seed=random_seed,
                cost_models=cost_models,
                skip_aliases=skip_aliases,
                services_for=failover_services,
                epochs=epochs,
            )
        if (
            cache is not None
            and not warnings
            and not degraded
            and not failovers
        ):
            # Same chain planned from different query text (or knobs that
            # cancel out): the fingerprint embeds the pinned epochs, so a
            # hit skips the chain — the probes were already paid for.
            served = cache.lookup_fingerprint(plan.fingerprint(0))
            if served is not None:
                if tracer is not None:
                    tracer.annotate(
                        "cache", outcome="hit", kind="fingerprint"
                    )
                return served
        result = self.executor.execute(
            plan,
            decomposed,
            warnings=warnings,
            degraded=degraded,
            failovers=failovers,
            qid=qid,
        )
        result.counts = counts
        result.epochs = epochs
        return admit(result)

    def _serve_containment(
        self, entry: _ResultEntry, decomposed: DecomposedQuery
    ) -> Optional[FederatedResult]:
        """Answer a contained-circle query from a cached covering entry.

        Re-filters the entry's pre-projection partial tuples with the
        *same* per-row predicate every node runs
        (``region.contains(radec_to_vector(ra, dec))``, one test per
        mandatory member), then re-finishes — cross-archive conjuncts,
        projection, DISTINCT/ORDER BY/LIMIT — against the *new* query.
        Zero wire bytes. Returns None (fall back to the federation) when
        the entry is unusable after all; see the module docstring of
        :mod:`repro.portal.cache` for the multiset row contract.
        """
        from repro.sphere.coords import radec_to_vector
        from repro.sql.area import region_for

        if entry.plan is None or entry.raw_tuples is None:
            return None
        assert decomposed.area is not None
        region = region_for(decomposed.area)
        members = [step for step in entry.plan.steps if not step.dropout]
        position_keys = [
            (f"{step.alias}.{step.ra_column}", f"{step.alias}.{step.dec_column}")
            for step in members
        ]
        if entry.raw_tuples and not all(
            ra_key in entry.raw_tuples[0].attributes
            and dec_key in entry.raw_tuples[0].attributes
            for ra_key, dec_key in position_keys
        ):
            # The entry predates position widening: unusable raw material.
            return None
        kept = [
            partial
            for partial in entry.raw_tuples
            if all(
                region.contains(
                    radec_to_vector(
                        partial.attributes[ra_key], partial.attributes[dec_key]
                    )
                )
                for ra_key, dec_key in position_keys
            )
        ]
        result = self.executor._finish(entry.plan, decomposed, kept, stats=[])
        result.cache = "containment"
        result.raw_tuples = None
        result.counts = {}
        result.epochs = dict(entry.result.epochs)
        result.node_stats = [
            {
                "cache": "containment",
                "source_fingerprint": entry.fingerprint,
                "tuples_scanned": len(entry.raw_tuples),
                "tuples_kept": len(kept),
            }
        ]
        return result

    def explain(
        self,
        sql: str | Query,
        *,
        strategy: OrderingStrategy = OrderingStrategy.COUNT_DESC,
        random_seed: int = 0,
    ) -> dict:
        """Decompose, probe, and plan a query WITHOUT running the chain.

        Shows exactly what Figure 3's steps 2-5 would do: the per-archive
        performance queries and their counts, the node queries, the
        cross-archive predicates kept at the Portal, and the ordered plan.
        """
        query = parse_query(sql) if isinstance(sql, str) else sql
        analysis = validate_query(query)
        if analysis.xmatch is None:
            table_ref = query.tables[0]
            if table_ref.archive is None:
                raise ValidationError(
                    "single-archive queries must name their archive"
                )
            record = self.catalog.node(table_ref.archive)
            return {
                "type": "direct",
                "archive": record.archive,
                "query_service": record.services["query"],
                "sql": to_sql(query),
            }
        decomposed = decompose(query, self.catalog)
        epochs: Dict[str, int] = {}
        counts = self.planner.performance_counts(decomposed, epochs=epochs)
        cost_models = None
        calibration = None
        if strategy is OrderingStrategy.BYTES_DESC:
            from repro.portal.calibration import CostCalibrator

            cost_models = CostCalibrator(self).calibrate(decomposed)
            calibration = {
                alias: {
                    "bytes_per_row": model.bytes_per_row,
                    "round_trip_s": model.round_trip_s,
                }
                for alias, model in cost_models.items()
            }
        plan = self.planner.build_plan(
            decomposed,
            counts,
            strategy=strategy,
            random_seed=random_seed,
            cost_models=cost_models,
            epochs=epochs,
        )
        return {
            "type": "chain",
            "strategy": strategy.value,
            "counts": dict(counts),
            "epochs": dict(epochs),
            "would_execute": not any(
                counts[a] == 0 for a in decomposed.mandatory_aliases
            ),
            "performance_queries": {
                alias: subquery.perf_sql
                for alias, subquery in decomposed.subqueries.items()
                if subquery.perf_sql is not None
            },
            "node_queries": {
                alias: subquery.node_sql
                for alias, subquery in decomposed.subqueries.items()
            },
            "cross_conjuncts": [
                to_sql(c) for c in decomposed.analysis.cross_conjuncts
            ],
            "calibration": calibration,
            "plan": plan.to_wire(),
        }

    def _submit_single_archive(self, query: Query) -> FederatedResult:
        """Route a plain single-archive query to that node's Query service."""
        table_ref = query.tables[0]
        if table_ref.archive is None:
            raise ValidationError(
                "single-archive queries must name their archive "
                "(ARCHIVE:Table alias)"
            )
        record = self.catalog.node(table_ref.archive)
        local_query = Query(
            items=query.items,
            tables=(
                type(table_ref)(None, table_ref.table, table_ref.alias),
            ),
            where=query.where,
            group_by=query.group_by,
            having=query.having,
            order_by=query.order_by,
            limit=query.limit,
        )
        proxy = self.proxy(record.services["query"])
        with self.require_network().phase("direct-query"):
            rowset = proxy.call("ExecuteQuery", sql=to_sql(local_query))
        return FederatedResult(
            columns=rowset.column_names,
            rows=list(rowset.rows),
        )
