"""Portal assembly: catalog + Registration + SkyQuery services on one host."""

from __future__ import annotations

import math
from dataclasses import replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.budget import QueryBudget, active_budget, use_budget
from repro.db.finish import output_columns
from repro.errors import (
    DeadlineExceededError,
    SoapFaultError,
    TransportError,
    ValidationError,
)
from repro.portal.cache import SemanticCache, _ResultEntry
from repro.portal.catalog import FederationCatalog, NodeRecord
from repro.portal.decompose import DecomposedQuery, decompose
from repro.portal.executor import WHOLE_RESULT, ChainExecutor, FederatedResult
from repro.portal.planner import OrderingStrategy, Planner
from repro.portal.registration import RegistrationService
from repro.portal.skyquery_service import SkyQueryService
from repro.services.client import ServiceProxy
from repro.services.framework import ServiceHost
from repro.services.retry import BreakerRegistry, RetryPolicy
from repro.soap.encoding import WireRowSet
from repro.soap.xmlparser import XMLParser
from repro.sql.ast import Query
from repro.sql.parser import parse_query
from repro.sql.printer import to_sql
from repro.sql.validate import validate_query
from repro.transport.network import SimulatedNetwork

PORTAL_PATHS = {"registration": "/registration", "skyquery": "/skyquery"}

#: One SkyNode's service URLs, keyed by service name.
Endpoints = Mapping[str, str]


class Portal:
    """The mediator of the federation.

    ``retry_policy`` arms every Portal-side proxy with retries/timeouts and
    per-endpoint circuit breakers. Liveness is learned from the messages a
    query sends anyway: the count-star probes walk each mandatory
    archive's endpoint candidates before planning, and the chain finds a
    dead drop-out archive. Either way a lost archive yields a degraded
    result instead of an exception.

    The Portal ships each SkyNode a plan and nothing else: every node runs
    the one ``sp_xmatch``. Its one execution setting is ``batch_size``,
    how many tuples the chain's streams carry a batch.
    """

    def __init__(
        self,
        hostname: str = "portal.skyquery.net",
        *,
        parser_memory_limit: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = None,
        batch_size: int = WHOLE_RESULT,
    ) -> None:
        self.hostname = hostname
        #: Tuples per batch of the chain's tuple streams. ``WHOLE_RESULT``
        #: (the default) is the paper's store-and-forward chain: one batch,
        #: carried by the PerformXMatch response. Anything smaller
        #: pipelines it: the batches are pulled concurrently.
        self.batch_size = batch_size
        #: Pipelined-mode flow control: how many batches may be in flight
        #: at once (0 = unbounded, the full-overlap default). A bounded
        #: window acknowledges batches progressively, which is what lets
        #: a mid-stream failover resume at the high-water mark instead of
        #: losing every in-flight batch together.
        self.stream_pull_window = 0
        self.catalog = FederationCatalog()
        self.parser = XMLParser(memory_limit_bytes=parser_memory_limit)
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
        re-sharded federation runs a query as different partition chains,
        and while the merged answer is provably identical, the wire bytes
        are not — a cached entry must not cross a re-shard. The signature
        is content-based (no endpoint URLs), so shard-mirror failover
        stays fingerprint-neutral.
        """
        knobs = {"batch_size": str(self.batch_size)}
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

    # -- endpoint routing ---------------------------------------------------------

    def walk(
        self,
        candidates: Iterable[Endpoints],
        dead: Set[str],
        attempt: Callable[[Endpoints], Any],
    ) -> Iterator[Tuple[Endpoints, Any]]:
        """The one failover walk over interchangeable endpoint sets.

        ``candidates`` are ordered endpoint sets serving the same content
        (an archive's primary then replicas; a shard's primary then
        mirrors). ``dead`` is the query's set of endpoint URLs already
        seen dead: planning seeds it, the chain's recovery inherits it,
        so nothing is asked twice whether it is down. A candidate with no
        URL in ``dead`` gets ``attempt(endpoints)``; a
        :class:`TransportError` puts all its URLs (one host serves them)
        into ``dead`` and the walk moves on; anything else — a SOAP fault
        included — is an answer, yielded as ``(endpoints, answer)``.
        Lazy: ``next(walk(...))`` stops at the first live candidate.
        When none answers, the last transport failure is raised.
        """
        failure = TransportError("every endpoint candidate was seen dead")
        answered = False
        for endpoints in candidates:
            if not dead.isdisjoint(endpoints.values()):
                continue
            try:
                answer = attempt(endpoints)
            except TransportError as exc:
                dead.update(endpoints.values())
                failure = exc
                continue
            answered = True
            yield endpoints, answer
        if not answered:
            raise failure

    def ping(self, endpoints: Endpoints) -> None:
        """``IsAlive`` at an endpoint set's Information service: the
        :meth:`walk` attempt of every mid-chain health probe."""
        try:
            self.proxy(endpoints["information"]).call("IsAlive")
        except SoapFaultError as exc:  # it answered, but not "alive"
            raise TransportError(f"health probe refused: {exc}") from exc

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

        Resilience: the count-star probes walk each mandatory archive's
        endpoint candidates, so a dead primary with a live replica fails
        over at plan time, and a dead *mandatory* archive — or one whose
        performance query fails after retries — yields a degraded empty
        result whose warnings name the node, instead of an exception. A
        dead *drop-out* archive is found by the chain: recovery pings the
        chain's hops, prunes it (with a warning) and reruns the rest.

        Deadlines: ``deadline_s`` (an *absolute*, finite time on the
        simulated clock; anything else is a :class:`ValueError`) arms an
        end-to-end :class:`~repro.budget.QueryBudget` that rides a
        ``<sq:QueryBudget>`` SOAP Header on every hop of the
        submission — performance queries, the chain, batch pulls, pings.
        Each hop clamps its retries to the remaining budget and refuses
        budget-expired work with a typed fault; when the budget runs out
        anywhere, the Portal eagerly cancels the query's server state and
        returns a degraded empty result whose warning names the hop that
        ran dry. What that bounds: the deadline bounds every exchange
        whole (request, the callee's handler, response), so a complete
        answer never arrives after it; a degraded answer returns one
        parallel cancel round (one round trip) after the deadline.

        Snapshot isolation: the planner pins each archive at the epoch its
        count-star probe answered (returned as ``result.epochs``), so the
        whole chain reads one consistent version even while live ingest
        commits new epochs. ``pin_epochs`` (alias -> epoch) forces older
        committed epochs instead — a repeatable read of a past snapshot,
        valid until the epoch is garbage-collected.

        The whole submission runs under one ``SubmitQuery`` root span, and
        with tracing on the returned result carries the assembled
        :class:`~repro.tracing.Trace` as ``result.trace``.
        """
        if deadline_s is not None and not math.isfinite(deadline_s):
            raise ValueError(f"deadline_s must be finite, not {deadline_s}")
        self.queries_served += 1
        query = parse_query(sql) if isinstance(sql, str) else sql
        analysis = validate_query(query)
        qid, budget = "", active_budget()
        if deadline_s is not None:
            qid = f"{self.hostname}-q{self.queries_served}"
            budget = QueryBudget(float(deadline_s), qid)
        tracer = self.require_network().tracer

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

        with use_budget(budget), tracer.span(
            "SubmitQuery", host=self.hostname
        ) as root:
            result = run()
        result.trace = tracer.trace(root.trace_id)
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
        tracer = self.require_network().tracer
        decomposed = decompose(query, self.catalog)
        cache = self.cache
        exact_key = None
        finish = None
        containment_key = None
        pins = tuple(sorted((pin_epochs or {}).items()))
        if cache is not None:
            profile = self.execution_profile()
            exact_key = cache.exact_key(
                to_sql(query), strategy.value, random_seed, pins, profile
            )
            served = cache.lookup_exact(exact_key)
            if served is not None:
                tracer.annotate("cache", outcome="hit", kind="exact")
                return served
            finish = cache.finish_key(decomposed)
            containment_key = cache.containment_key(decomposed, profile)
            if not pins and query.limit is None:
                # LIMIT without the containment path: the cut through a
                # partially ordered row set is plan-order dependent.
                entry = cache.covering_entry(containment_key, decomposed.area)
                if entry is not None:
                    served = self._serve_containment(entry, decomposed)
                    if served is not None:
                        tracer.annotate(
                            "cache",
                            outcome="hit",
                            kind="containment",
                            source_fingerprint=entry.fingerprint,
                        )
                        return served
            tracer.annotate("cache", outcome="miss")
        planned = self.planner.plan(
            decomposed,
            strategy=strategy,
            random_seed=random_seed,
            pin_epochs=pin_epochs,
        )
        if planned.plan is None:
            # No chain to run: a mandatory archive is lost (degraded, its
            # warnings name the node) or has nothing inside the AREA.
            result = FederatedResult(
                columns=output_columns(query.items),
                rows=[],
                warnings=planned.warnings,
                degraded=planned.degraded,
                failovers=planned.failovers,
            )
        else:
            if (
                cache is not None
                and not planned.warnings
                and not planned.degraded
                and not planned.failovers
            ):
                # Same chain planned from different query text (or knobs
                # that cancel out): the fingerprint embeds the pinned
                # epochs, so a hit skips the chain — the probes were
                # already paid for.
                served = cache.lookup_fingerprint(
                    planned.plan.fingerprint(0), finish
                )
                if served is not None:
                    tracer.annotate("cache", outcome="hit", kind="fingerprint")
                    return served
            result = self.executor.execute(
                planned.plan,
                decomposed,
                warnings=planned.warnings,
                degraded=planned.degraded,
                failovers=planned.failovers,
                qid=qid,
                dead=planned.dead,
                partitions=planned.partitions,
            )
        result.counts = planned.counts
        result.epochs = planned.epochs
        if cache is not None and exact_key is not None:
            # Only clean answers are admitted (the cache refuses degraded,
            # failed-over and warned results itself).
            cache.store_result(
                exact_key,
                result,
                archives_by_alias={
                    alias: sub.archive
                    for alias, sub in decomposed.subqueries.items()
                },
                finish=finish,
                containment_key=containment_key,
                area=decomposed.area if containment_key is not None else None,
            )
        return result

    def _serve_containment(
        self, entry: _ResultEntry, decomposed: DecomposedQuery
    ) -> Optional[FederatedResult]:
        """Answer a contained-circle query from a cached covering entry.

        Re-filters the entry's pre-projection attribute rows with the
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

        raw = entry.raw_rows
        if entry.plan is None or raw is None:
            return None
        assert decomposed.area is not None
        region = region_for(decomposed.area)
        slot = {name: index for index, name in enumerate(raw.column_names)}
        try:
            positions = [
                (slot[f"{step.alias}.{step.ra_column}"],
                 slot[f"{step.alias}.{step.dec_column}"])
                for step in entry.plan.steps
                if not step.dropout
            ]
        except KeyError:
            # The entry predates position widening: unusable raw material.
            return None
        kept = [
            row
            for row in raw.rows
            if all(
                region.contains(radec_to_vector(row[ra], row[dec]))
                for ra, dec in positions
            )
        ]
        result = self.executor._finish(
            entry.plan, decomposed, WireRowSet(raw.columns, kept), stats=[]
        )
        result.cache = "containment"
        result.raw_rows = None
        result.counts = {}
        result.epochs = dict(entry.result.epochs)
        result.node_stats = [
            {
                "cache": "containment",
                "source_fingerprint": entry.fingerprint,
                "tuples_scanned": len(raw),
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
        pin_epochs: Optional[Dict[str, int]] = None,
    ) -> dict:
        """Decompose, probe, and plan a query WITHOUT running the chain.

        Shows exactly what Figure 3's steps 2-5 would do: the per-archive
        performance queries and their counts, the node queries, the
        cross-archive predicates kept at the Portal, and the ordered plan.
        It is the outcome of the same :meth:`Planner.plan` pass
        :meth:`submit` executes — same count-star probes, same failover
        decisions (``warnings``/``failovers``) — so
        ``plan`` is exactly what would be sent to the first SkyNode, and
        ``None`` (``would_execute`` false) when no chain would run. On
        co-partitioned archives ``partitions`` lists the per-stripe chains
        actually sent in its place (empty when ``plan`` runs as itself).
        Only the chain finds a dead drop-out archive, so ``explain`` does
        not reveal one: its plan still lists the archive.
        """
        query = parse_query(sql) if isinstance(sql, str) else sql
        analysis = validate_query(query)
        if analysis.xmatch is None:
            record = self._direct_target(query)
            return {
                "type": "direct",
                "archive": record.archive,
                "query_service": record.services["query"],
                "sql": to_sql(query),
            }
        decomposed = decompose(query, self.catalog)
        planned = self.planner.plan(
            decomposed,
            strategy=strategy,
            random_seed=random_seed,
            pin_epochs=pin_epochs,
        )
        return {
            "type": "chain",
            "strategy": strategy.value,
            "counts": dict(planned.counts),
            "epochs": dict(planned.epochs),
            "would_execute": planned.plan is not None,
            "warnings": list(planned.warnings),
            "degraded": planned.degraded,
            "failovers": planned.failovers,
            "skipped": list(planned.skipped),
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
            "calibration": None if planned.calibration is None else {
                alias: {
                    "bytes_per_row": model.bytes_per_row,
                    "round_trip_s": model.round_trip_s,
                }
                for alias, model in planned.calibration.items()
            },
            "plan": None if planned.plan is None else planned.plan.to_wire(),
            "partitions": [chain.to_wire() for chain in planned.partitions],
        }

    def _direct_target(self, query: Query) -> NodeRecord:
        """The archive a plain single-archive query names."""
        archive = query.tables[0].archive
        if archive is None:
            raise ValidationError(
                "single-archive queries must name their archive "
                "(ARCHIVE:Table alias)"
            )
        return self.catalog.node(archive)

    def _submit_single_archive(self, query: Query) -> FederatedResult:
        """Route a plain single-archive query to that node's Query service."""
        table_ref = query.tables[0]
        record = self._direct_target(query)
        # Every clause travels; only the archive prefix is dropped.
        local_query = replace(
            query,
            tables=(replace(table_ref, archive=None),),
        )
        proxy = self.proxy(record.services["query"])
        with self.require_network().phase("direct-query"):
            rowset = proxy.call("ExecuteQuery", sql=to_sql(local_query))
        return FederatedResult(
            columns=rowset.column_names,
            rows=list(rowset.rows),
        )
