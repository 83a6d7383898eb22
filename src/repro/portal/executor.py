"""Plan execution: kick off the daisy chain, finish the query at the Portal.

The Portal sends one ``PerformXMatch`` RPC to the first SkyNode on the
plan list; the chain does the rest (Section 5.3, steps 6-7 of Figure 3).
When the surviving tuples come back, the Portal applies the cross-archive
predicates no single node could evaluate, projects the SELECT list, and
relays the result to the client.

A failed chain is not necessarily a failed query: the executor retries
transient failures, re-plans around drop-out archives that died mid-run,
and — when a *mandatory* node is permanently lost — returns a degraded
:class:`FederatedResult` carrying structured warnings instead of raising.

There is one chain transport, a tuple stream per hop, and the Portal's
``batch_size`` is its only setting. :data:`WHOLE_RESULT` (the default,
the paper's store-and-forward chain) asks for the whole result as one
batch, which the open's own response carries: the classic N nested round
trips, each node waiting for its neighbour's complete tuple set. A
smaller batch size pipelines the chain: the batches are pulled inside one
``parallel()`` block, so each batch's whole chain traversal is one branch
and the clock charges the *makespan* over batches — transfer of one batch
overlaps compute of another, exactly the overlap a real pipelined chain
would enjoy. Every batch size returns identical rows in identical order.

Sharding is a plan, not a hop: on co-partitioned archives the Planner
hands over one chain per shard stripe, and the executor runs them as the
branches of one ``parallel()`` block — each routed, retried and failed
over on its own — then merges their answers into the monolithic order.
"""

from __future__ import annotations

import itertools
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.budget import use_budget
from repro.db.engine import ASTRO_CONSTANTS
from repro.db.expr import compile_predicate, compile_row
from repro.db.finish import finish, output_columns
from repro.errors import (
    DeadlineExceededError,
    ExecutionError,
    RequestTimeoutError,
    ShardUnavailableError,
    SoapFaultError,
    TransportError,
)
from repro.portal.decompose import DecomposedQuery
from repro.portal.plan import ExecutionPlan
from repro.services.chunked import receive_rowset
from repro.shard import merge_seed_rows
from repro.soap.encoding import WireRowSet
from repro.sql.ast import ColumnRef, Query, and_together
from repro.xmatch.wire import Row, attribute_rows, tuple_rows

if TYPE_CHECKING:
    from repro.portal.portal import Portal
    from repro.tracing.tracer import Trace


def _chain_failed(attempts: int, exc: Exception) -> ExecutionError:
    """The error a chain that will not be retried again fails with."""
    return ExecutionError(
        f"cross-match chain failed after {attempts} attempt(s): {exc}"
    )


@dataclass
class FederatedResult:
    """What the Portal relays back to the client.

    ``warnings`` lists the per-node degradation events (unreachable
    drop-out skipped, mandatory archive lost, ...) and ``degraded`` is True
    whenever the answer is incomplete relative to the submitted query —
    the structured alternative to aborting the whole federation run.
    """

    columns: List[str]
    rows: List[Tuple[Any, ...]]
    node_stats: List[Dict[str, Any]] = field(default_factory=list)
    plan: Optional[ExecutionPlan] = None
    counts: Dict[str, int] = field(default_factory=dict)
    #: Snapshot epoch each archive (by alias) was pinned at during
    #: planning — the version every chain hop read. Clients re-submitting
    #: with ``pin_epochs=result.epochs`` get byte-identical rows even
    #: after later ingest commits (until the epochs are GC'd).
    epochs: Dict[str, int] = field(default_factory=dict)
    matched_tuples: int = 0
    warnings: List[str] = field(default_factory=list)
    degraded: bool = False
    #: Endpoint substitutions made while answering (plan-time or
    #: mid-chain). A failed-over answer is complete, NOT degraded: every
    #: archive contributed, just not always through its primary endpoint.
    failovers: int = 0
    #: The assembled distributed trace of this submission, when tracing
    #: is on (see repro.tracing).
    trace: Optional["Trace"] = field(default=None, repr=False, compare=False)
    #: How the Portal's semantic cache answered this submission: None for
    #: a real federation run, else "exact", "fingerprint", or
    #: "containment" (see repro.portal.cache). Excluded from equality so
    #: a cache hit still compares equal to the fresh run it mirrors.
    cache: Optional[str] = field(default=None, repr=False, compare=False)
    #: Pre-cross-conjunct attribute rows (columns named ``alias.column``),
    #: retained only when the Portal has a cache (AREA-containment raw
    #: material). Never part of the wire response or of result equality.
    raw_rows: Optional[WireRowSet] = field(
        default=None, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.rows)

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Rows as dictionaries keyed by output column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]


#: The batch size of a store-forward chain: larger than any result, so
#: every hop's stream has one batch and the open's response carries it.
WHOLE_RESULT = 2**31 - 1

#: Phase label for the per-batch payload traffic of a pipelined chain, so
#: reports separate bulk tuple bytes from chain-control bytes.
BATCH_TRANSFER_PHASE = "batch-transfer"


def _fold_hop(partitions: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """One hop's node stats over every partition chain: counters summed,
    per-batch lists joined in partition order, labels kept."""
    total = dict(partitions[0])
    for stats in partitions[1:]:
        for key, value in stats.items():
            if isinstance(value, list):
                total[key] = total[key] + value
            elif isinstance(value, int) and not isinstance(value, bool):
                total[key] += value
    return total


class ChainExecutor:
    """Runs an :class:`ExecutionPlan` and finishes the query at the Portal."""

    #: Whole-chain retry budget when every plan node still looks healthy
    #: (the failure was transient but outlasted the per-hop retries).
    MAX_CHAIN_ATTEMPTS = 3

    #: Fault details (the error class a hop raised) that a rerun would
    #: raise again: a hostile batch, a bad query, bad geometry, a schema
    #: mismatch. The chain fails at the first such fault; lost leases,
    #: timeouts and every other fault are retried.
    DETERMINISTIC_FAULTS = frozenset(
        {"SoapError", "QueryError", "GeometryError", "SchemaError"}
    )

    def __init__(self, portal: "Portal") -> None:
        self._portal = portal
        self._xid_counter = itertools.count(1)

    def execute(
        self,
        plan: ExecutionPlan,
        decomposed: DecomposedQuery,
        *,
        warnings: Optional[List[str]] = None,
        degraded: bool = False,
        failovers: int = 0,
        qid: str = "",
        dead: Optional[Set[str]] = None,
        partitions: Sequence[ExecutionPlan] = (),
    ) -> FederatedResult:
        """Start the chain at the first plan step and post-process.

        ``partitions`` are the chains ``plan`` runs as on co-partitioned
        archives (:meth:`Planner.partitions`): each is an ordinary chain
        over one shard stripe, run as one branch of a ``parallel()`` block
        with its own recovery and high-water state; their answers are
        merged on the seed's monolithic order key and their node stats
        folded per hop, so the result is the one ``plan`` would give.

        On chain failure the executor re-enters the planner's routing
        decision (:meth:`Planner.route`) for the chain's hops: a dead hop
        with a live replica is re-routed in place (recorded in
        ``failovers``, NOT as degradation — the answer stays complete),
        transient faults retry the chain, dead drop-out archives with no
        replica left are pruned, and a mandatory archive with no live
        endpoint at all yields a degraded empty result whose warnings name
        the lost node; a partition chain's shard with no live endpoint
        degrades with a warning naming the shard. Failing over resets the
        transient-retry budget: a re-routed plan is a fresh chain. ``dead``
        is the query's set of endpoint URLs already seen dead — planning
        hands over what its count probes learned, and a head the Portal
        could not reach at all joins it — so recovery never re-asks (nor
        fails back onto) an endpoint this query already watched die.

        ``qid`` is the Portal-minted query id of a budgeted submission; it
        doubles as the execution id below. When a chain dies on a
        :class:`~repro.errors.DeadlineExceededError`, the executor sends
        one parallel round of ``CancelQuery`` to every endpoint the plan
        names and returns a degraded result whose warning names the hop
        that ran out of budget: the degraded answer comes back one cancel
        round after the chain failed. That is not a bound on the
        deadline itself — the failure surfaces only when the faulting
        request returns, and a complete answer whose last hop was
        dispatched before the deadline can still arrive after it.
        """
        network = self._portal.require_network()
        warnings = list(warnings or [])
        counters = {"failovers": failovers, "degraded": degraded}
        dead = set() if dead is None else dead
        #: One execution id for every attempt of this query. Each hop
        #: leases its stream (and tags transfers) under it, so a retry
        #: finds what earlier attempts finished, a fresh identical query
        #: never does, and one ``CancelQuery`` frees all of it.
        xid = qid or f"{self._portal.hostname}-x{next(self._xid_counter)}"
        #: Each chain's current plan, re-routed in place by its recovery.
        chains = list(partitions) or [plan]
        outcomes: List[Optional[Tuple[List[Row], List[Dict[str, Any]]]]] = []
        try:
            with network.phase("crossmatch-chain"), (
                network.parallel() if len(chains) > 1 else nullcontext()
            ):
                for index in range(len(chains)):
                    with network.branch():
                        outcomes.append(self._complete(
                            chains, index, warnings, counters, dead, xid
                        ))
        except (DeadlineExceededError, ShardUnavailableError) as exc:
            # Two failures no retry can fix. A deadline: the budget ran
            # out somewhere down a chain (the message names the hop). A
            # shard: one stripe's every endpoint is gone, and no other
            # endpoint holds it — the warning names the shard, not the
            # whole archive (every other stripe was reachable). Either way
            # don't wait out server TTLs: cancel every endpoint the plan
            # names, then degrade instead of hanging or raising.
            label = (
                "query deadline exceeded"
                if isinstance(exc, DeadlineExceededError)
                else "shard unavailable"
            )
            warnings.append(f"{label}: {exc}")
            self._cancel_chain(plan, xid)
            return self.degraded(
                decomposed.query, warnings, counters["failovers"],
                plan if partitions else chains[0],
            )
        if None in outcomes:  # a mandatory archive is lost (warned)
            return self.degraded(
                decomposed.query, warnings, counters["failovers"], chains[0]
            )
        if partitions:
            rows = merge_seed_rows([rows for rows, _ in outcomes])
            stats = [_fold_hop(hop) for hop in zip(*(s for _, s in outcomes))]
        else:
            plan = chains[0]
            rows, stats = outcomes[0]
        attributes = attribute_rows(
            rows, plan.member_aliases_after(0), plan.attr_columns_after(0)
        )
        result = self._finish(plan, decomposed, attributes, stats)
        result.warnings = warnings
        result.degraded = bool(counters["degraded"])
        result.failovers = counters["failovers"]
        return result

    def _complete(
        self,
        chains: List[ExecutionPlan],
        index: int,
        warnings: List[str],
        counters: Dict[str, Any],
        dead: Set[str],
        xid: str,
    ) -> Optional[Tuple[List[Row], List[Dict[str, Any]]]]:
        """Run chain ``index`` to its answer, retrying and failing over.

        ``state`` — the batches already acknowledged — serves every
        attempt of this chain, and every attempt runs under the query's
        execution id ``xid``, so a retry resumes at the high-water mark.
        None means the chain's mandatory archive is lost (the warnings
        say so).
        """
        state: Dict[str, Any] = {}
        attempts = 0
        while True:
            try:
                return self._run_chain(chains[index], state, xid)
            except (TransportError, SoapFaultError) as exc:
                attempts += 1
                if (
                    isinstance(exc, SoapFaultError)
                    and exc.detail in self.DETERMINISTIC_FAULTS
                ):
                    raise _chain_failed(attempts, exc) from exc
                if isinstance(exc, TransportError) and not isinstance(
                    exc, RequestTimeoutError
                ):
                    # The Portal's own call to the head failed outright:
                    # the head is dead, exactly as a walk would record it,
                    # so recovery does not ping it again. A timeout proves
                    # nothing — a slow hop downstream times out here too.
                    self._mark_dead(chains[index], dead)
                next_plan, lost = self._recover(
                    chains[index], warnings, exc, attempts, counters, dead
                )
                if lost:
                    return None
                if next_plan is not chains[index]:
                    attempts = 0
                chains[index] = next_plan

    def _mark_dead(self, plan: ExecutionPlan, dead: Set[str]) -> None:
        """Put the endpoint set of ``plan``'s head into ``dead``."""
        head = plan.step(0)
        for endpoints in self._portal.planner.candidates(
            head.archive, plan.partition
        ):
            if endpoints.get("crossmatch") == head.url:
                dead.update(endpoints.values())

    def _run_chain(
        self,
        plan: ExecutionPlan,
        state: Dict[str, Any],
        xid: str,
    ) -> Tuple[List[Row], List[Dict[str, Any]]]:
        """Open the head's stream, pull whatever batches the open did not
        carry, and reassemble their rows, checked against the plan's
        schema (:func:`~repro.xmatch.wire.tuple_rows`) — the one
        conversation with the chain.

        The open cascades once (the last node seeds and partitions). When
        one batch is all there is left, its response carries it and the
        chain is done. Otherwise the pulls are dispatched inside one
        ``parallel()`` block so each batch's full chain traversal —
        transfer and per-hop ``sp_xmatch`` compute alike — is one branch,
        and the clock advances by the slowest batch instead of the sum.
        The final batch's response piggybacks the per-node stats chain, so
        closing costs no extra round trip. On failure the portal
        best-effort aborts the stream (server TTLs are the backstop) and
        lets the caller's recovery logic retry the whole chain.

        ``state`` (shared across retries of one query) keeps every batch
        already acknowledged: a retried or failed-over chain opens the
        stream at the high-water mark — the first unacknowledged batch —
        instead of re-transferring from batch 0. The high-water mark is
        keyed to the plan's content fingerprint, so it survives replica
        substitution (same content, new endpoint) but resets if the plan's
        content changes (a drop-out was pruned).
        """
        network = self._portal.require_network()
        fingerprint = plan.fingerprint(0)
        if state.get("fingerprint") != fingerprint:
            state.update(fingerprint=fingerprint, parts=[], stats=[])
        parts: List[Optional[WireRowSet]] = state["parts"]
        high_water = parts.index(None) if None in parts else len(parts)
        proxy = self._portal.proxy(plan.step(0).url)
        plan_wire = plan.to_wire()
        batch_size = self._portal.batch_size

        def open_at(start_seq: int) -> Dict[str, Any]:
            opened = proxy.call(
                "PerformXMatch",
                plan=plan_wire,
                position=0,
                qid=xid,
                batch_size=batch_size,
                start_seq=start_seq,
            )
            if not isinstance(opened, dict):
                raise ExecutionError(f"malformed chain response: {opened!r}")
            return opened

        def abort(stream_id: str) -> None:
            try:
                proxy.call("AbortStream", stream_id=stream_id)
            except Exception:
                pass  # best effort; the hops' TTLs are the backstop

        def take(seq: int, response: Any) -> None:
            """Acknowledge one batch: its rows (drained, if chunked)."""
            parts[seq] = receive_rowset(response, proxy)
            if response.get("stats"):
                state["stats"] = list(response["stats"])

        opened = open_at(high_water)
        if len(parts) != int(opened["batch_count"]):
            # Nothing usable to resume from (first attempt, or a stale
            # partition that no longer matches): start over from batch 0.
            if high_water:
                abort(str(opened["stream_id"]))
                opened = open_at(0)
            parts[:] = [None] * int(opened["batch_count"])
            high_water = 0
        stream_id = str(opened["stream_id"])
        if len(parts) - high_water == 1:
            take(high_water, opened)
            high_water += 1
        #: Flow control: at most ``stream_pull_window`` batches in flight
        #: at once (0 = unbounded, every batch dispatched together). A
        #: bounded window acknowledges batches wave by wave, so a crash
        #: mid-stream loses only the wave in flight — the completed waves
        #: stay below the high-water mark and are never re-pulled.
        pending = list(range(high_water, len(parts)))
        window = int(self._portal.stream_pull_window or 0) or len(parts)
        try:
            for i in range(0, len(pending), window):
                with network.phase(BATCH_TRANSFER_PHASE), network.parallel():
                    for seq in pending[i:i + window]:
                        with network.branch():  # pull + drain: one branch
                            take(seq, proxy.call(
                                "PullBatch", stream_id=stream_id, seq=seq
                            ))
        except DeadlineExceededError:
            # Budget expiry is a cancellation-subsystem event, not a
            # retry-path failure: the caller's ``CancelQuery`` sweep owns
            # the cleanup of every hop's stream — a lone head abort here
            # would fragment the accounting between the two paths.
            raise
        except Exception:
            abort(stream_id)
            raise
        return tuple_rows(
            WireRowSet.concat(parts),
            plan.member_aliases_after(0),
            plan.attr_columns_after(0),
        ), state["stats"]

    def _cancel_chain(self, plan: ExecutionPlan, qid: str) -> None:
        """Eagerly free every endpoint's state for a dead query (best effort).

        ``CancelQuery(qid)`` goes to every endpoint that could hold the
        query's state: each endpoint candidate and partition member (shard
        primary and mirrors) of every archive in ``plan`` as submitted,
        before rerouting or drop-out pruning — so a replica a failover
        moved to, and a pruned host that came back, are reached too. Each
        URL is cancelled once, in plan order then candidate order, and the
        calls are the branches of one ``parallel()`` round: the degraded
        answer waits one round trip, not a walk. Every call is
        fire-and-forget — a lost cancel leaves that endpoint to its TTL
        reaper — and runs under a masked budget: cleanup must not be
        refused because the deadline that triggered it has passed.
        """
        urls: Dict[str, None] = {}
        for step in plan.steps:
            record = self._portal.catalog.node(step.archive)
            for candidates in [
                record.endpoint_candidates(),
                *(members for _, members in record.partitions()),
            ]:
                for endpoints in candidates:
                    if "crossmatch" in endpoints:
                        urls.setdefault(endpoints["crossmatch"])
        network = self._portal.require_network()
        with network.phase("cancel"), use_budget(None), network.parallel():
            for url in urls:
                with network.branch():
                    try:
                        self._portal.proxy(url).call(
                            "CancelQuery", query_id=qid
                        )
                    except Exception:
                        pass  # the TTL reaper is the backstop

    def _recover(
        self,
        plan: ExecutionPlan,
        warnings: List[str],
        exc: Exception,
        attempts: int,
        counters: Dict[str, Any],
        dead: Set[str],
    ) -> Tuple[ExecutionPlan, bool]:
        """Decide how a failed chain continues: fail over, retry, or degrade.

        Re-enters :meth:`Planner.reroute` with the chain's hops at their
        CURRENT endpoints (a step already failed over is probed at its
        replica, so a second failure of the same archive is still
        diagnosed correctly) and the query's dead set. Per dead hop, in
        order of preference: substitute a live replica endpoint in place
        (same plan content, so stream keys and positions stay valid —
        counted in ``failovers``, not degradation); else prune if the hop
        is a drop-out (degraded); else give up (mandatory archive wholly
        lost: the returned flag). A partition chain's dead shard raises
        :class:`~repro.errors.ShardUnavailableError` from the routing.
        """
        rerouted, moved, skipped, lost = self._portal.planner.reroute(
            plan, dead, warnings, mid_chain=True
        )
        counters["failovers"] += moved
        if lost:
            return plan, True
        if not moved and not skipped:
            if attempts >= self.MAX_CHAIN_ATTEMPTS:
                raise _chain_failed(attempts, exc) from exc
            return plan, False  # transient: retry the same plan
        if skipped:
            # Drop-out archives with no replica left: prune them and
            # restart the chain from the surviving nodes (the paper's !X
            # semantics are advisory filters, so the query can still
            # answer — degraded).
            counters["degraded"] = True
            rerouted = replace(
                rerouted,
                steps=tuple(
                    step for step in rerouted.steps
                    if step.alias not in skipped
                ),
            )
        return rerouted, False

    def degraded(
        self,
        query: Query,
        warnings: List[str],
        failovers: int = 0,
        plan: Optional[ExecutionPlan] = None,
    ) -> FederatedResult:
        """The empty, degraded answer of a query that could not be finished
        (here or at plan time); its warnings name what was lost."""
        return FederatedResult(
            columns=output_columns(query.items),
            rows=[],
            plan=plan,
            warnings=list(warnings),
            degraded=True,
            failovers=failovers,
        )

    def _finish(
        self,
        plan: Optional[ExecutionPlan],
        decomposed: DecomposedQuery,
        attributes: WireRowSet,
        stats: List[Dict[str, Any]],
    ) -> FederatedResult:
        """Cross-archive predicates + SELECT projection, at the Portal.

        ``attributes`` holds one row per answer tuple: its attribute
        values, in columns named ``alias.column`` (the plan's attribute
        columns). Every expression is compiled once per answer against
        those names.
        """
        query = decomposed.query
        slots = [
            ColumnRef(*name.partition(".")[::2])
            for name in attributes.column_names
        ]
        sources = attributes.rows
        cross = decomposed.analysis.cross_conjuncts
        if cross:
            passes = compile_predicate(
                and_together(tuple(cross)), slots, ASTRO_CONSTANTS
            )
            sources = [row for row in sources if passes(row)]
        project = compile_row(
            [item.expr for item in query.items], slots, ASTRO_CONSTANTS
        )
        rows = finish(
            query, list(map(project, sources)), sources, slots, ASTRO_CONSTANTS
        )
        result = FederatedResult(
            columns=output_columns(query.items),
            rows=rows,
            node_stats=stats,
            plan=plan,
            matched_tuples=len(attributes),
        )
        if self._portal.cache is not None:
            # Keep the pre-projection rows: they are the raw material a
            # later contained-AREA query is served from.
            result.raw_rows = attributes
        return result
