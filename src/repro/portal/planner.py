"""Plan construction: performance queries + the count-star ordering.

Section 5.3: "These performance queries are passed as asynchronous SOAP
messages to the respective Query services of each SkyNode... The list is
in decreasing order of the count star values returned by the performance
queries, with the drop out archives, if any, at the beginning of the
list." Alternative orderings exist only as benchmark baselines to measure
what the paper's choice buys.
"""

from __future__ import annotations

import math
import numbers
import random
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import (
    TYPE_CHECKING,
    Collection,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import (
    PlanningError,
    ShardUnavailableError,
    SoapFaultError,
    StaleEpochError,
    TransportError,
)
from repro.portal.calibration import ArchiveCostModel, CostCalibrator
from repro.portal.decompose import DecomposedQuery, NodeSubquery
from repro.portal.plan import ExecutionPlan, PlanStep
from repro.shard import MARGIN_DEG, prune_members
from repro.skynode.xmatch_proc import cap_bounds
from repro.soap.encoding import WireRowSet
from repro.units import arcsec_to_rad

if TYPE_CHECKING:
    from repro.portal.catalog import NodeRecord
    from repro.portal.portal import Portal

#: One chain hop as :meth:`Planner.route` sees it:
#: ``(alias, archive, is drop-out, crossmatch URL currently in use)``.
Hop = Tuple[str, str, bool, str]

#: Warning fragments of :meth:`Planner.route`, keyed by ``mid_chain``: a
#: hop's endpoint died / a mandatory archive is gone / a drop-out one is.
_WORDING = {
    False: (
        "primary endpoint {url} is unreachable",
        "is unreachable",
        "is unreachable",
    ),
    True: (
        "endpoint {url} failed mid-chain",
        "is unreachable with no live replica",
        "became unreachable mid-chain with no live replica",
    ),
}


class OrderingStrategy(Enum):
    """How the planner orders the mandatory archives in the plan list."""

    COUNT_DESC = "count_desc"  # the paper's choice
    COUNT_ASC = "count_asc"  # adversarial baseline
    RANDOM = "random"  # naive baseline
    AS_WRITTEN = "as_written"  # query order baseline
    BYTES_DESC = "bytes_desc"  # calibrated extension: count x row width


@dataclass
class PlanPass:
    """What one :meth:`Planner.plan` pass learned and decided."""

    counts: Dict[str, int] = field(default_factory=dict)
    #: Alias -> snapshot epoch pinned by that archive's count probe.
    epochs: Dict[str, int] = field(default_factory=dict)
    warnings: List[str] = field(default_factory=list)
    #: Hops planned against a replica (complete answer, NOT degraded).
    failovers: int = 0
    #: Drop-out aliases left off the plan: their archive is unreachable.
    skipped: List[str] = field(default_factory=list)
    degraded: bool = False
    #: Endpoint URLs seen dead so far; the chain's recovery inherits it.
    dead: Set[str] = field(default_factory=set)
    calibration: Optional[Dict[str, ArchiveCostModel]] = None
    #: None when no chain would run: a mandatory archive is lost
    #: (``degraded``) or has nothing inside the AREA.
    plan: Optional[ExecutionPlan] = None
    #: The chains ``plan`` runs as on co-partitioned archives, one per
    #: shard stripe the AREA can touch (see :meth:`Planner.partitions`);
    #: empty when it runs as itself, on the archives' full copies.
    partitions: List[ExecutionPlan] = field(default_factory=list)


class Planner:
    """Runs performance queries and builds the ordered execution plan."""

    def __init__(self, portal: "Portal") -> None:
        self._portal = portal

    def plan(
        self,
        decomposed: DecomposedQuery,
        *,
        strategy: OrderingStrategy = OrderingStrategy.COUNT_DESC,
        random_seed: int = 0,
        pin_epochs: Optional[Dict[str, int]] = None,
    ) -> PlanPass:
        """The one plan pass: count → decide → calibrate → build.

        ``Portal.submit`` executes its outcome, ``Portal.explain`` renders
        it, and the executor's recovery re-enters :meth:`route` with the
        same dead set. The count-star probes are the only messages sent
        before the chain, and they double as the liveness check: each
        walks its archive's endpoint candidates, so a dead primary is in
        the dead set by the time :meth:`route` decides — without sending
        anything — which endpoint each hop uses. A dead drop-out archive
        (never counted) is found by the chain itself. The pass ends
        without a plan when a mandatory archive is lost or fails its
        count probe (degraded), or has nothing inside the AREA: no tuple
        can survive the inner join — the count-star probes pay for
        themselves here.
        """
        portal = self._portal
        network = portal.require_network()
        done = PlanPass()
        failures: Dict[str, str] = {}
        hops = sorted(
            (
                (s.alias, s.archive, s.dropout,
                 portal.catalog.node(s.archive).services["crossmatch"])
                for s in decomposed.subqueries.values()
            ),
            key=lambda hop: hop[1],
        )
        tracer = network.tracer
        with (
            tracer.span("plan", host=portal.hostname)
            if tracer is not None
            else nullcontext()
        ):
            done.counts = self.performance_counts(
                decomposed,
                failures=failures,
                epochs=done.epochs,
                pin_epochs=pin_epochs,
                dead=done.dead,
            )
            moved, done.skipped, lost = self.route(
                hops, done.dead, done.warnings
            )
            done.failovers = len(moved)
            done.degraded = bool(done.skipped or lost or failures)
            if failures and not lost:
                done.warnings.extend(
                    f"mandatory archive "
                    f"{decomposed.subqueries[alias].archive!r} (alias "
                    f"{alias!r}) failed its performance query: {reason}"
                    for alias, reason in sorted(failures.items())
                )
            if lost or failures or not all(
                done.counts[alias] for alias in decomposed.mandatory_aliases
            ):
                return done
            if strategy is OrderingStrategy.BYTES_DESC:
                done.calibration = CostCalibrator(portal).calibrate(
                    decomposed, services_for=moved
                )
            done.plan = self.build_plan(
                decomposed,
                done.counts,
                strategy=strategy,
                random_seed=random_seed,
                cost_models=done.calibration,
                skip_aliases=done.skipped,
                services_for=moved,
                epochs=done.epochs,
            )
            done.partitions, shard_failovers = self.partitions(
                done.plan, done.dead
            )
            done.failovers += shard_failovers
        return done

    def route(
        self,
        hops: Sequence[Hop],
        dead: Set[str],
        warnings: List[str],
        *,
        mid_chain: bool = False,
        partition: Optional[int] = None,
    ) -> Tuple[Dict[str, Mapping[str, str]], List[str], List[str]]:
        """Find each hop's first live endpoint set and decide what a dead
        one costs — for planning and for mid-chain recovery alike.

        At plan time nothing is sent: the first candidate not in
        ``dead`` is trusted, because the count-star probes have already
        walked every mandatory archive. Mid-chain each candidate is
        pinged (``IsAlive``), archives concurrently; within one archive
        the walk is a single branch (a replica is only asked once
        everything before it is dead). Returns ``(moved, skipped,
        lost)``: alias -> replica endpoint set substituted for a dead one
        (a failover: warned, annotated, counted, the answer stays
        complete); drop-out aliases with no endpoint left (skip them:
        degraded); mandatory aliases with none (no answer possible).

        ``partition`` routes the hops of one partition chain: each
        archive's candidates are then its shard of that stripe, primary
        then mirrors. A shard failover is counted and annotated but not
        warned — the archive stays whole — and a shard with no endpoint
        left raises :class:`~repro.errors.ShardUnavailableError` naming
        it, drop-out or not: no other endpoint holds that stripe.
        """
        portal = self._portal
        network = portal.require_network()
        attempt = portal.ping if mid_chain else (lambda endpoints: None)
        routes: Dict[str, Optional[Mapping[str, str]]] = {}
        with network.phase("health-probe"), (
            network.parallel() if mid_chain else nullcontext()
        ):
            for archive in dict.fromkeys(hop[1] for hop in hops):
                with network.branch():
                    try:
                        routes[archive], _ = next(portal.walk(
                            self.candidates(archive, partition), dead, attempt
                        ))
                    except TransportError:
                        routes[archive] = None
        if partition is not None:
            for archive, chosen in routes.items():
                if chosen is None:
                    name = portal.catalog.node(archive).shard_set.members[
                        partition
                    ].name
                    raise ShardUnavailableError(
                        f"shard {name!r} of archive {archive!r} is "
                        "unreachable on every endpoint candidate",
                        shard=name,
                    )
        died, no_mandatory, no_dropout = _WORDING[mid_chain]
        moved: Dict[str, Mapping[str, str]] = {}
        skipped: List[str] = []
        lost: List[str] = []
        for alias, archive, dropout, url in hops:
            chosen = routes[archive]
            if chosen is None:
                (skipped if dropout else lost).append(alias)
            elif chosen["crossmatch"] != url:
                moved[alias] = chosen
                network.metrics.failovers += 1
                if network.tracer is not None:
                    network.tracer.annotate(
                        "failover",
                        archive=archive,
                        from_url=url,
                        to_url=chosen["crossmatch"],
                    )
                if partition is None:
                    warnings.append(
                        f"archive {archive!r} {died.format(url=url)}; "
                        f"failing over to replica {chosen['crossmatch']}"
                    )
        archive_of = {alias: archive for alias, archive, _, _ in hops}
        warnings.extend(
            f"mandatory archive {archive_of[alias]!r} (alias {alias!r}) "
            f"{no_mandatory}; cross-match aborted"
            for alias in lost
        )
        if not lost:
            warnings.extend(
                f"drop-out archive {archive_of[alias]!r} (alias {alias!r}) "
                f"{no_dropout}; skipped"
                for alias in skipped
            )
        return moved, skipped, lost

    def candidates(
        self, archive: str, partition: Optional[int] = None
    ) -> Sequence[Mapping[str, str]]:
        """The endpoint sets that serve ``archive`` (its shard of stripe
        ``partition``, when given) in failover order: primary first."""
        record = self._portal.catalog.node(archive)
        if partition is None:
            return record.endpoint_candidates()
        return record.shard_set.members[partition].endpoints

    def reroute(
        self,
        plan: ExecutionPlan,
        dead: Set[str],
        warnings: List[str],
        *,
        mid_chain: bool = False,
    ) -> Tuple[ExecutionPlan, int, List[str], List[str]]:
        """:meth:`route` a built plan's hops (a partition chain's at its
        stripe) and apply it: ``(plan with every moved hop on its new
        endpoint, failovers, skipped, lost)``. A moved step keeps its
        content, so stream keys and positions stay valid."""
        moved, skipped, lost = self.route(
            [(s.alias, s.archive, s.dropout, s.url) for s in plan.steps],
            dead,
            warnings,
            mid_chain=mid_chain,
            partition=plan.partition,
        )
        for index, step in enumerate(plan.steps):
            if step.alias in moved:
                plan = plan.replace_url(index, moved[step.alias]["crossmatch"])
        return plan, len(moved), skipped, lost

    def partitions(
        self, plan: ExecutionPlan, dead: Set[str]
    ) -> Tuple[List[ExecutionPlan], int]:
        """The partition chains ``plan`` runs as, and the shard failovers
        routing them took — or none, and ``plan`` runs as itself.

        A plan runs as partition chains when every archive on it is
        sharded on the same stripes and its *reach* fits the margin each
        shard keeps. A tuple seeded in a stripe can only ever examine rows
        within the reach of its seed: the sum, over the non-seed hops, of
        each hop's widest search radius — ``threshold × (σ_hop + σ_seed)``,
        because the seed's weight bounds every later accumulator's width —
        widened through ``cap_bounds`` exactly as the probe widens it.
        Then one chain per stripe the AREA can touch, each hop on that
        stripe's shard, sees every row its tuples can reach, and seeds
        split the answer with no overlap. Otherwise the archives' full
        copies answer, as in an unsharded federation: no query is refused.
        Each chain is routed like the plan itself, against the query's
        dead set, without sending anything: a mandatory archive's shard
        with no live endpoint has already failed its count probe, so only
        a drop-out's can turn up dead — mid-chain, where recovery handles
        it.
        """
        records = [self._portal.catalog.node(s.archive) for s in plan.steps]
        layouts = {
            record.shard_set.layout_signature() if record.shard_set else None
            for record in records
        }
        seed = plan.steps[-1]
        reach = sum(
            cap_bounds([
                plan.threshold
                * arcsec_to_rad(step.sigma_arcsec + seed.sigma_arcsec)
                for step in plan.steps[:-1]
            ])[1].tolist()
        )
        if None in layouts or len(layouts) > 1 or (
            math.degrees(reach) > MARGIN_DEG
        ):
            return [], 0
        members = records[-1].shard_set.members
        chains: List[ExecutionPlan] = []
        failovers = 0
        for member in prune_members(members, plan.area):
            index = members.index(member)
            steps = []
            for step, record in zip(plan.steps, records):
                urls = record.shard_set.members[index].candidate_urls(
                    "crossmatch"
                )
                steps.append(replace(step, url=urls[0], replica_urls=urls[1:]))
            chain, moved, _, _ = self.reroute(
                replace(plan, partition=index, steps=tuple(steps)),
                dead,
                [],
            )
            chains.append(chain)
            failovers += moved
        return chains, failovers

    def performance_counts(
        self,
        decomposed: DecomposedQuery,
        *,
        failures: Optional[Dict[str, str]] = None,
        epochs: Optional[Dict[str, int]] = None,
        pin_epochs: Optional[Dict[str, int]] = None,
        dead: Optional[Set[str]] = None,
    ) -> Dict[str, int]:
        """Run the count-star queries at every mandatory archive.

        "These performance queries are passed as asynchronous SOAP
        messages": the probes are dispatched concurrently, so the elapsed
        simulated time is the slowest archive's round trip, not the sum.

        Each probe runs pinned (``ExecuteQueryPinned``): the archive
        atomically answers the count *and* the committed epoch it counted
        at, recorded into ``epochs`` (keyed by alias) when given — so a
        plan is sized and pinned against the very same snapshot.
        ``pin_epochs`` forces specific epochs per alias instead of
        "whatever is committed now" (time-travel reads; the repeatable-
        reads oracle).

        ``dead`` is the query's set of endpoint URLs already seen dead
        (see :meth:`Portal.walk`): a probe skips those candidates and
        adds the ones it finds dead itself. When ``failures`` is a dict,
        an archive whose probe fails on every candidate (after whatever
        retries its proxies are configured with) is recorded there
        instead of aborting the whole query — the Portal's graceful-
        degradation path. With the default ``None``, failures raise.
        """
        network = self._portal.require_network()
        dead = set() if dead is None else dead
        counts: Dict[str, int] = {}
        with network.phase("performance-query"), network.parallel():
            for alias in decomposed.mandatory_aliases:
                subquery = decomposed.subqueries[alias]
                record = self._portal.catalog.node(subquery.archive)
                assert subquery.perf_sql is not None
                pin = (pin_epochs or {}).get(alias, -1)
                try:
                    # One archive's whole probe — failover walks, shard
                    # fan-out — is one branch of the per-alias dispatch.
                    with network.branch():
                        count, epoch = self._count(
                            record, subquery, pin, decomposed.area, dead
                        )
                except (TransportError, SoapFaultError) as exc:
                    if (
                        isinstance(exc, SoapFaultError)
                        and exc.detail == "StaleEpochError"
                        and alias in (pin_epochs or {})
                    ):
                        # An explicitly pinned epoch the archive no longer
                        # retains is a caller error, not a node outage —
                        # degrading would silently break repeatable reads.
                        raise StaleEpochError(exc.faultstring) from exc
                    if failures is None:
                        raise
                    failures[alias] = str(exc)
                    continue
                counts[alias] = count
                if epochs is not None:
                    epochs[alias] = epoch
        return counts

    def _count(
        self,
        record: "NodeRecord",
        subquery: NodeSubquery,
        pin: int,
        area: object,
        dead: Set[str],
    ) -> Tuple[int, int]:
        """One archive's count-star probe: ``(count, epoch)``.

        Scatters over :meth:`NodeRecord.partitions` — the shards whose
        ownership can intersect the AREA, or the archive itself as the
        one partition of a monolithic layout — each walking its own
        endpoint candidates and failing over on transport faults only (a
        SOAP fault is an *answer* and must surface). Partitions hold
        disjoint rows, so their counts sum to exactly the archive's.
        Every partition must answer at one committed epoch — a split
        answer cannot pin a consistent snapshot and aborts planning.
        """
        network = self._portal.require_network()

        def ask(endpoints: Mapping[str, str]) -> Tuple[int, int]:
            if "query" not in endpoints:  # a shard may advertise gaps
                raise TransportError("no Query endpoint advertised")
            response = self._portal.proxy(endpoints["query"]).call(
                "ExecuteQueryPinned", sql=subquery.perf_sql, epoch=pin
            )
            return self._pinned_count(response, subquery)

        partitions = record.partitions(area)
        answers: List[Tuple[int, int]] = []
        silent: Dict[str, TransportError] = {}
        with network.parallel() if len(partitions) > 1 else nullcontext():
            for label, candidates in partitions:
                with network.branch():
                    try:
                        answers.append(
                            next(self._portal.walk(candidates, dead, ask))[1]
                        )
                    except TransportError as exc:
                        silent[label] = exc
        if silent:
            # Names the partition: operators must see which slice of the
            # sky went dark, not merely which archive.
            label = min(silent)
            raise TransportError(
                f"{label} answered no count probe on any endpoint "
                f"candidate: {silent[label]}"
            )
        epochs = {epoch for _, epoch in answers}
        if len(epochs) != 1:
            raise PlanningError(
                f"shards of archive {record.archive!r} report divergent "
                f"epochs {sorted(epochs)}; cannot pin a consistent "
                "snapshot"
            )
        return sum(count for count, _ in answers), epochs.pop()

    def _pinned_count(
        self, response: object, subquery: NodeSubquery
    ) -> Tuple[int, int]:
        if not isinstance(response, dict) or "epoch" not in response:
            raise PlanningError(
                f"performance query at {subquery.archive!r} returned a "
                "malformed pinned response"
            )
        count = self._scalar_count(response.get("rows"), subquery)
        return count, int(response["epoch"])

    @staticmethod
    def _scalar_count(result: object, subquery: NodeSubquery) -> int:
        if not isinstance(result, WireRowSet) or len(result.rows) != 1:
            raise PlanningError(
                f"performance query at {subquery.archive!r} returned no "
                "scalar count"
            )
        value = result.rows[0][0]
        # bool is an int subclass but never a valid count; integral numpy
        # scalars (a vectorized COUNT(*)'s natural output) are fine.
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise PlanningError(
                f"performance query at {subquery.archive!r} returned "
                f"{value!r}, expected an integer"
            )
        return int(value)

    def build_plan(
        self,
        decomposed: DecomposedQuery,
        counts: Dict[str, int],
        *,
        strategy: OrderingStrategy = OrderingStrategy.COUNT_DESC,
        random_seed: int = 0,
        cost_models: Optional[Dict[str, "ArchiveCostModel"]] = None,
        skip_aliases: Collection[str] = (),
        services_for: Optional[Mapping[str, Mapping[str, str]]] = None,
        epochs: Optional[Dict[str, int]] = None,
    ) -> ExecutionPlan:
        """Assemble the plan list: drop-outs first, then ordered mandatory.

        ``skip_aliases`` removes unreachable *drop-out* archives from the
        plan (graceful degradation); skipping a mandatory archive would
        change the join semantics and is refused. ``services_for``
        overrides the endpoint set per alias (plan-time failover: a dead
        primary is substituted by its live replica before the chain ever
        starts). Every step also carries the archive's remaining crossmatch
        candidates as ``replica_urls`` for mid-chain failover, and pins
        the snapshot epoch its probe answered at (``epochs``, keyed by
        alias) so the whole chain reads one consistent version.
        """
        assert decomposed.xmatch is not None
        mandatory = list(decomposed.mandatory_aliases)
        skipped_mandatory = sorted(set(skip_aliases) & set(mandatory))
        if skipped_mandatory:
            raise PlanningError(
                f"cannot skip mandatory archive alias(es) {skipped_mandatory}"
            )
        missing = [alias for alias in mandatory if alias not in counts]
        if missing:
            raise PlanningError(
                f"missing performance counts for alias(es) {missing}"
            )
        mandatory = self._order(
            mandatory, counts, strategy, random_seed, cost_models
        )
        dropouts = [
            alias
            for alias in decomposed.dropout_aliases
            if alias not in skip_aliases
        ]
        ordered_aliases = dropouts + mandatory
        steps = [
            self._step_for(
                decomposed.subqueries[alias],
                counts.get(alias),
                services_for,
                epoch=(epochs or {}).get(alias),
            )
            for alias in ordered_aliases
        ]
        return ExecutionPlan(
            steps=tuple(steps),
            threshold=decomposed.xmatch.threshold,
            area=decomposed.area,
            profile=self._portal.execution_profile(),
        )

    @staticmethod
    def _order(
        aliases: List[str],
        counts: Dict[str, int],
        strategy: OrderingStrategy,
        random_seed: int,
        cost_models: Optional[Dict[str, "ArchiveCostModel"]] = None,
    ) -> List[str]:
        if strategy is OrderingStrategy.BYTES_DESC:
            if cost_models is None or any(a not in cost_models for a in aliases):
                raise PlanningError(
                    "bytes_desc ordering needs calibrated cost models for "
                    "every mandatory archive"
                )
            return sorted(
                aliases,
                key=lambda a: -cost_models[a].estimated_bytes(counts[a]),
            )
        if strategy is OrderingStrategy.COUNT_DESC:
            # Stable sort keeps query order among equal counts.
            return sorted(aliases, key=lambda a: -counts[a])
        if strategy is OrderingStrategy.COUNT_ASC:
            return sorted(aliases, key=lambda a: counts[a])
        if strategy is OrderingStrategy.RANDOM:
            rng = random.Random(random_seed)
            shuffled = list(aliases)
            rng.shuffle(shuffled)
            return shuffled
        return list(aliases)

    def _step_for(
        self,
        subquery: NodeSubquery,
        count_star: Optional[int],
        services_for: Optional[Mapping[str, Mapping[str, str]]] = None,
        *,
        epoch: Optional[int] = None,
    ) -> PlanStep:
        record = self._portal.catalog.node(subquery.archive)
        info = record.info
        chosen = (services_for or {}).get(subquery.alias, record.services)
        url = chosen["crossmatch"]
        replica_urls = tuple(
            candidate["crossmatch"]
            for candidate in record.endpoint_candidates()
            if candidate["crossmatch"] != url
        )
        attr_select = subquery.attr_select
        cache = self._portal.cache
        if (
            cache is not None
            and cache.config.containment
            and not subquery.dropout
        ):
            # Widen the carried attributes with this member's position
            # columns so the cached partial tuples can be re-filtered for
            # a contained AREA. Changes wire bytes (two extra floats per
            # tuple), never rows or node stats.
            present = {column for column, _, _ in attr_select}
            attr_select = attr_select + tuple(
                (
                    column,
                    f"{subquery.alias}.{column}",
                    record.column_type(subquery.table, column),
                )
                for column in (info.ra_column, info.dec_column)
                if column not in present
            )
        return PlanStep(
            alias=subquery.alias,
            archive=record.archive,
            url=url,
            replica_urls=replica_urls,
            sigma_arcsec=info.sigma_arcsec,
            dropout=subquery.dropout,
            count_star=count_star,
            table=subquery.table,
            id_column=info.object_id_column,
            ra_column=info.ra_column,
            dec_column=info.dec_column,
            residual_sql=subquery.residual_sql,
            attr_select=attr_select,
            sql=subquery.node_sql,
            epoch=epoch,
        )
