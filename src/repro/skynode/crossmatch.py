"""The Cross match service: one link of the daisy chain.

Paper Section 5.3: the Portal sends the execution plan to the first
SkyNode on the list; each Cross match service calls the next one, the last
node executes its query and seeds 1-tuples, and on the way back each node
extends/filters the partial tuples via the ``sp_xmatch`` stored procedure
(temp table, spatial join, chi-squared test), then ships the surviving
tuples to its caller as a serialized rowset — chunked when a monolithic
envelope would blow the caller's XML parser memory budget.

There is exactly one hop (see DESIGN.md, "the one hop")::

    partitions -> probe -> canonical merge -> extend/filter -> stats

*Partitions* are where this archive's rows live: the node's own database
(a monolithic archive is the one-partition layout — no routing, no
staging, no wire) or its spatial shards (pruned by AREA, routed per
tuple, probed in parallel with per-shard endpoint failover). The *probe*
— the node query for a seed hop, temp table + ``sp_xmatch`` for a match or
drop-out hop — is written once and runs wherever the partition's rows
are: in process for the monolithic node, behind ``ShardSeed`` /
``ShardXMatch`` for a shard. The *merge* puts gathered partitions back
into the monolithic emission order (the identity for one partition), and
the extend/filter and stats tails never know how many partitions there
were.

How the hop's tuples travel is a second, independent parameter — and it is
only a number, the stream's ``batch_size``. ``PerformXMatch`` opens this
hop's tuple stream and cascades the open down the chain once (the last
node seeds and partitions its tuples into batches); each batch then flows
up hop by hop on demand through ``PullBatch``, so one batch's transfer
overlaps another's compute under the network's makespan semantics. When
exactly one batch is left to serve, the open's own response carries it:
a batch size larger than the result *is* the paper's store-and-forward
chain — N nested round trips, every node idle until its neighbour has
shipped its entire tuple set — with no code of its own. Batches are
pulled strictly in order; a request for the batch just served is answered
from the cached payload (a lost response must not re-run the step or
duplicate rows), anything else out of order faults deterministically.

A stream is leased under its content — ``(qid, suffix fingerprint,
batch_size)`` — so a retried or failed-over chain that opens it again
finds it: a drained stream asked for its last batch replays the payload
with no downstream call (only the failed hop's bytes travel again), and
anything else is opened afresh under the same key, orphaning nothing.

Everything the service holds between two requests — tuple streams, staged
shard rows, chunked transfers — is a lease in one
:class:`~repro.services.leases.LeaseTable`, so TTL expiry, ``CancelQuery``
release, epoch-floor reaping and ``crash()`` each exist once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.db.schema import Column
from repro.db.types import ColumnType
from repro.errors import (
    ExecutionError,
    GeometryError,
    ShardUnavailableError,
    TransportError,
)
from repro.htm.cover import cover
from repro.portal.plan import ExecutionPlan, PlanStep
from repro.services.chunked import ChunkedSender, receive_rowset
from repro.services.framework import WebService
from repro.services.leases import Lease, LeaseTable
from repro.shard import (
    members_for_tuple,
    merge_match_lists,
    merge_seed_rows,
    prune_members,
)
from repro.shard.topology import ShardMember
from repro.skynode.xmatch_proc import PROCEDURE_NAME, _cap_bounds
from repro.tracing.tracer import active_tracer
from repro.soap.encoding import ColumnarRowSet, WireRowSet
from repro.sphere.coords import radec_to_vector
from repro.sql.area import region_for
from repro.sql.ast import (
    BinaryOp,
    ColumnRef,
    Expr,
    Query,
    SelectItem,
    TableRef,
)
from repro.sql.parser import parse_expression
from repro.transport.chunking import batch_slices
from repro.units import arcsec_to_rad
from repro.xmatch.stream import seed_tuples
from repro.xmatch.tuples import LocalObject, PartialTuple
from repro.xmatch.wire import rowset_to_tuples, tuples_to_payload

if TYPE_CHECKING:
    from repro.services.client import ServiceProxy
    from repro.skynode.node import SkyNode

#: How long (simulated seconds) a stream survives between touches — an
#: open one awaiting its next pull, a drained one awaiting a replay.
STREAM_TTL_S = 600.0

#: How long (simulated seconds) staged shard-fan-out tuple rows survive
#: between touches. Staging persists past the ``ShardXMatch`` that consumes
#: it so a retry after a lost response can deterministically re-run.
STAGING_TTL_S = 600.0

#: The lease kinds this service holds (chunked transfers are the third,
#: held by the sender in the same table).
STREAM = "stream"
STAGING = "staging"

#: Rows per ``ShardStage`` call: keeps every staged request far below the
#: receiving shard's XML-parser memory budget (5 numeric columns per row).
SHARD_STAGE_ROWS = 2048

#: The hidden per-row column carrying a row's position in the monolithic
#: insert order; shard tables gain it at provisioning time so gathered
#: rows can be merged back into exactly the monolithic emission order.
SHARD_POS_COLUMN = "_skyq_pos"

#: What one incoming partial tuple looks like to the match probe: its
#: chain sequence number and cumulative values — the temp table's schema
#: and, typecode for typecode, the ``ShardStage`` rowset's.
_ACC_NAMES = ("a", "ax", "ay", "az")
_TEMP_COLUMNS = [Column("seq", ColumnType.INT, nullable=False)] + [
    Column(name, ColumnType.FLOAT, nullable=False) for name in _ACC_NAMES
]
_STAGE_WIRE_COLUMNS = [("seq", "int")] + [
    (name, "double") for name in _ACC_NAMES
]

#: The per-probe cost counters every hop reports, in wire order.
_COST_KEYS = (
    "rows_examined", "candidates_tested", "logical_reads", "physical_reads",
)

#: One staged/temp-table row: ``(seq, a, ax, ay, az)``.
AccRow = Tuple[int, float, float, float, float]
#: A hop's matches in emission order: ascending seq, each tuple's
#: candidates in ascending row-position order.
Matches = List[Tuple[int, List[LocalObject]]]


@dataclass
class _Stream:
    """Server-side state of one tuple stream (a lease's value; the owning
    query, pinned epoch and drained-or-not live on the lease)."""

    plan: ExecutionPlan
    me: PlanStep
    position: int
    next_seq: int
    batch_count: int = 0
    #: The batch most recently served — its payload and the response
    #: fields that travel with it — so a request for it again (a lost
    #: response, or a re-opened drained stream) is answered without
    #: re-running the step. The payload is cached, not the wrapped
    #: response: under a chunk budget every replay gets a fresh transfer.
    served: Optional[Tuple[ColumnarRowSet, Dict[str, Any]]] = None
    #: This node's stats, accumulated across batches.
    stats: Dict[str, Any] = field(default_factory=dict)
    #: Per-batch tuples shipped upstream (batch-granular accounting).
    batch_rows: List[int] = field(default_factory=list)
    # Last node on the list: the seeded tuples and their batch partition.
    tuples: Optional[List[PartialTuple]] = None
    slices: Optional[List[Tuple[int, int]]] = None
    # Middle/first nodes: where the incoming batches come from.
    downstream_url: Optional[str] = None
    downstream_id: Optional[str] = None
    downstream_stats: Optional[List[Dict[str, Any]]] = None


class CrossMatchService(WebService):
    """The chain operations (``PerformXMatch`` / ``PullBatch``), their
    chunked-transfer companion ``FetchChunk`` and the shard fan-out."""

    def __init__(
        self,
        node: "SkyNode",
        *,
        parser_memory_limit: Optional[int] = None,
        chunk_budget_bytes: Optional[int] = None,
    ) -> None:
        super().__init__(
            f"{node.info.archive}CrossMatch",
            parser_memory_limit=parser_memory_limit,
        )
        self._node = node
        #: Every stream, staging and chunked transfer this service holds.
        #: Leases pinned to a snapshot epoch die when the epoch falls off
        #: the engine's pinnable window.
        self.leases = LeaseTable(lambda: node.wrapper.db.oldest_epoch)
        self.sender = ChunkedSender(
            f"{node.info.archive}-xm", chunk_budget_bytes, leases=self.leases
        )
        self.register(
            "PerformXMatch",
            self._perform,
            params=(
                ("plan", "struct"),
                ("position", "int"),
                ("qid", "string"),
                ("batch_size", "int"),
                ("start_seq", "int"),
            ),
            returns="struct",
            doc="Open the tuple stream of this node's chain step (cascading "
                "the open downstream). ``qid`` identifies one chain "
                "execution, so a retried chain finds the stream it opened "
                "before; ``start_seq`` is the first batch the caller still "
                "lacks. When that is the only batch left, the response "
                "carries it.",
        )
        self.sender.mount(self, "partial-result transfer")
        self.register(
            "PullBatch",
            lambda stream_id, seq: self._batch(
                self.leases.require(STREAM, str(stream_id)), int(seq)
            ),
            params=(("stream_id", "string"), ("seq", "int")),
            returns="struct",
            doc="Pull one batch of an open stream (strictly in order).",
        )
        self.register(
            "AbortStream",
            self._abort_stream,
            params=(("stream_id", "string"),),
            returns="struct",
            doc="Tear down an open stream (cascades downstream).",
        )
        self.register(
            "CancelQuery",
            self._cancel_query,
            params=(
                ("query_id", "string"),
                ("plan", "struct"),
                ("position", "int"),
            ),
            returns="struct",
            doc="Eagerly free every stream, staging, and chunked "
                "transfer this node holds for a query, then fan the "
                "cancel down the chain (best effort — TTL reaping "
                "remains the backstop for a lost cancel). Idempotent.",
        )
        self.register(
            "ShardSeed",
            self._shard_seed,
            params=(
                ("plan", "struct"),
                ("position", "int"),
                ("qid", "string"),
            ),
            returns="struct",
            doc="Scatter-gather seed: run this shard's slice of the seed "
                "query and ship its rows (with their monolithic row "
                "positions) back to the coordinating node.",
        )
        self.register(
            "ShardStage",
            self._shard_stage,
            params=(
                ("xmid", "string"),
                ("rows", "rowset"),
                ("qid", "string"),
            ),
            returns="struct",
            doc="Stage a slice of partial-tuple accumulators ahead of a "
                "ShardXMatch call (idempotent per seq; chunked client-side "
                "so no single request blows the parser memory budget).",
        )
        self.register(
            "ShardXMatch",
            self._shard_xmatch,
            params=(
                ("xmid", "string"),
                ("plan", "struct"),
                ("position", "int"),
                ("qid", "string"),
            ),
            returns="struct",
            doc="Scatter-gather match: run the cross-match stored "
                "procedure over this shard's rows against the staged "
                "tuples, shipping matches tagged with seq and monolithic "
                "row position for the coordinator's canonical merge.",
        )
        self._stream_ids = itertools.count(1)
        self._xmid_counter = itertools.count(1)

    # -- what the service is holding (0 after clean runs) --------------------------

    @property
    def open_streams(self) -> int:
        """Streams still holding undrained server-side state."""
        return self.leases.held(STREAM)

    @property
    def open_stagings(self) -> int:
        """Staged shard fan-out row sets currently held."""
        return self.leases.held(STAGING)

    # -- the chain transport: one stream per hop ----------------------------------

    def _perform(
        self,
        plan: Dict[str, Any],
        position: int,
        batch_size: int,
        qid: str = "",
        start_seq: int = 0,
    ) -> Dict[str, Any]:
        plan_obj, position, me = self._decode_step(plan, position)
        qid, batch_size, start_seq = str(qid), int(batch_size), int(start_seq)
        if batch_size < 1:
            raise ExecutionError(f"batch_size must be >= 1, got {batch_size}")
        if start_seq < 0:
            raise ExecutionError(f"start_seq must be >= 0, got {start_seq}")
        # The fingerprint is URL-independent, so a keyed stream is found
        # again after a replica substitution anywhere in the chain. An
        # execution without an id gets unkeyed streams nothing re-opens.
        stream_id = (
            f"{qid}:{plan_obj.fingerprint(position)}:{batch_size}"
            if qid
            else f"{self._node.info.archive}-s{next(self._stream_ids)}"
        )
        lease = self.leases.find(STREAM, stream_id)
        opened: Optional[Dict[str, Any]] = None
        if (
            lease is None
            or lease.live
            or start_seq != lease.value.batch_count - 1
        ):
            # Anything but a drained stream asked for its last batch again
            # (that one is served below, from the cached payload, with no
            # downstream call) is opened afresh under the same key.
            stream = _Stream(plan_obj, me, position, next_seq=start_seq)
            if position == len(plan_obj.steps) - 1:
                # Last node on the list: seed once, partition into batches.
                # The partition is deterministic, so a resumed stream
                # (start_seq > 0) slices the batches identically and serves
                # exactly the missing suffix.
                stream.tuples, stream.stats = self._seed_step(
                    plan_obj, me, qid=qid
                )
                stream.stats["tuples_out"] = len(stream.tuples)
                stream.slices = batch_slices(len(stream.tuples), batch_size)
                stream.batch_count = len(stream.slices)
            else:
                next_step = plan_obj.step(position + 1)
                opened = self._node.proxy(next_step.url).call(
                    "PerformXMatch",
                    plan=plan,
                    position=position + 1,
                    qid=qid,
                    batch_size=batch_size,
                    start_seq=start_seq,
                )
                if not isinstance(opened, dict):
                    raise ExecutionError(
                        f"malformed PerformXMatch response: {opened!r}"
                    )
                stream.downstream_url = next_step.url
                stream.downstream_id = str(opened["stream_id"])
                stream.batch_count = int(opened["batch_count"])
                stream.stats = self._stats_dict(
                    me,
                    role="dropout" if me.dropout else "match",
                    tuples_in=0,
                )
            if start_seq >= stream.batch_count:
                raise ExecutionError(
                    f"start_seq {start_seq} beyond the stream's "
                    f"{stream.batch_count} batches"
                )
            stream.stats["batches"] = stream.batch_count
            lease = self.leases.grant(
                STREAM,
                stream_id,
                stream,
                ttl_s=STREAM_TTL_S,
                qid=qid,
                epoch=me.epoch,
                abandonable=True,
            )
        batch_count = lease.value.batch_count
        response = {"stream_id": stream_id, "batch_count": batch_count}
        if batch_count - start_seq == 1:
            # One batch left — the same numbers at every hop, so the batch
            # the downstream open delivered is the one to serve here.
            response.update(self._batch(lease, start_seq, opened))
        return response

    def _decode_step(
        self, plan: Dict[str, Any], position: int
    ) -> Tuple[ExecutionPlan, int, PlanStep]:
        """Decode a wire plan and check this node really is its ``position``."""
        plan_obj = ExecutionPlan.from_wire(plan)
        position = int(position)
        me = plan_obj.step(position)
        if me.archive != self._node.info.archive:
            raise ExecutionError(
                f"plan step {position} targets {me.archive!r} but reached "
                f"{self._node.info.archive!r}"
            )
        return plan_obj, position, me

    def _batch(
        self,
        lease: Lease,
        seq: int,
        delivered: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Serve batch ``seq`` of a stream: the one place a hop turns an
        incoming batch into an outgoing one.

        ``delivered`` is the downstream response carrying the incoming
        batch when the caller already has it (the open's own response);
        otherwise it is pulled.
        """
        stream: _Stream = lease.value
        if seq != stream.next_seq - 1 or stream.served is None:
            if seq != stream.next_seq or seq >= stream.batch_count:
                raise ExecutionError(
                    f"batch {seq} out of order for stream {lease.key!r} "
                    f"(expected {stream.next_seq} of {stream.batch_count})"
                )
            plan, position = stream.plan, stream.position
            if stream.tuples is not None and stream.slices is not None:
                start, stop = stream.slices[seq]
                out_tuples = stream.tuples[start:stop]
            else:
                proxy = self._node.proxy(stream.downstream_url)
                if delivered is None:
                    delivered = proxy.call(
                        "PullBatch", stream_id=stream.downstream_id, seq=seq
                    )
                incoming = rowset_to_tuples(
                    receive_rowset(delivered, proxy),
                    plan.member_aliases_after(position + 1),
                    plan.attr_columns_after(position + 1),
                )
                if delivered.get("stats"):
                    stream.downstream_stats = list(delivered["stats"])
                out_tuples, step_stats = self._local_step(
                    plan, stream.me, incoming, position, qid=lease.qid
                )
                stream.stats["tuples_in"] += step_stats["tuples_in"]
                self._fold_costs(stream.stats, step_stats)
                stream.stats["tuples_out"] += len(out_tuples)
            stream.batch_rows.append(len(out_tuples))
            extra: Dict[str, Any] = {}
            stream.next_seq = seq + 1
            if stream.next_seq == stream.batch_count:
                stream.tuples = None  # the batches are out; free the seed set
                stream.stats["batch_rows"] = list(stream.batch_rows)
                extra["stats"] = [
                    *(stream.downstream_stats or []), stream.stats
                ]
                self.leases.settle(lease, checkpoint=True)
            stream.served = (
                tuples_to_payload(
                    out_tuples,
                    plan.member_aliases_after(position),
                    plan.attr_columns_after(position),
                ),
                extra,
            )
        # else: the caller asks again for the batch just served (its
        # response was lost, or a retried chain re-opened the drained
        # stream) — no reprocessing, no duplicated rows, no double-counted
        # stats.
        self.leases.touch(lease)
        payload, extra = stream.served
        return self.sender.respond(payload, extra, query_id=lease.qid)

    def _abort_stream(self, stream_id: str) -> Dict[str, Any]:
        held = self.leases.find(STREAM, str(stream_id))
        if held is None or not held.live:
            # Nothing to reclaim: a drained stream (every hop below it has
            # drained too) stays as the retry cache it now is.
            return {"aborted": False}
        self.leases.abort(STREAM, str(stream_id))
        stream: _Stream = held.value
        if stream.downstream_id is not None and stream.downstream_url:
            try:
                self._node.proxy(stream.downstream_url).call(
                    "AbortStream", stream_id=stream.downstream_id
                )
            except Exception:
                pass  # best effort; the downstream TTL is the backstop
        return {"aborted": True}

    def _cancel_query(
        self,
        query_id: str,
        plan: Optional[Dict[str, Any]] = None,
        position: int = -1,
    ) -> Dict[str, Any]:
        """The ``CancelQuery`` operation body.

        Frees this node's leases for the query *first* (the local reclaim
        must not depend on downstream reachability), then forwards the
        cancel to the next chain hop when a plan is supplied. The
        forward is best effort: a lost or delayed cancel leaves the TTL
        reaper as the backstop, exactly as an abandoned drain does.
        """
        query_id = str(query_id)
        freed = self.leases.release_query(query_id)
        if self._node.network is not None:
            self._node.network.metrics.cancels += 1
        tracer = active_tracer()
        if tracer is not None:
            tracer.annotate("cancel", query_id=query_id, freed=freed)
        shard_set = self._node.shard_set
        if shard_set is not None and query_id:
            # A coordinating node's stagings (and shard-side transfers)
            # live on its shards; eager reclaim there is worth one
            # parallel round of cheap, idempotent cancels. Every failure
            # is swallowed — the shards' TTL reapers remain the backstop.
            self._scatter(
                shard_set.members,
                lambda member, proxy: proxy.call(
                    "CancelQuery", query_id=query_id, plan=None, position=-1
                ),
                Exception,
            )
        forwarded = False
        if plan:
            plan_obj = ExecutionPlan.from_wire(plan)
            position = int(position)
            if 0 <= position < len(plan_obj.steps) - 1:
                next_step = plan_obj.step(position + 1)
                try:
                    self._node.proxy(next_step.url).call(
                        "CancelQuery",
                        query_id=query_id,
                        plan=plan,
                        position=position + 1,
                    )
                    forwarded = True
                except Exception:
                    pass  # best effort; the downstream TTL is the backstop
        return {"cancelled": True, "freed": freed, "forwarded": forwarded}

    # -- the one hop: partitions -> probe -> merge -> extend/filter -> stats --------

    def _seed_step(
        self, plan: ExecutionPlan, me: PlanStep, qid: str = ""
    ) -> Tuple[List[PartialTuple], Dict[str, Any]]:
        """Last node on the list: run the node query, emit 1-tuples."""
        stats = self._stats_dict(me, role="seed", tuples_in=0)
        shard_set = self._node.shard_set
        if shard_set is None:
            result, costs = self._probe_seed(
                self._node_query_ast(plan, me), me.epoch
            )
            self._fold_costs(stats, costs)
            rows: Sequence[Tuple[Any, ...]] = result.rows
        else:
            # Shards whose ownership cannot intersect the AREA are pruned;
            # the rest run their seed slices in parallel and the gathered
            # rows are re-sorted into the monolithic probe order.
            plan_wire = plan.to_wire()
            position = len(plan.steps) - 1
            gathered = self._gather(
                prune_members(shard_set.members, plan.area),
                me,
                stats,
                lambda member, proxy: self._shard_reply(
                    proxy,
                    proxy.call(
                        "ShardSeed", plan=plan_wire, position=position, qid=qid
                    ),
                ),
            )
            db = self._node.wrapper.db
            spec = db.table(me.table).spatial
            if plan.area is not None and spec is not None and db.use_spatial_index:
                rows = merge_seed_rows(
                    gathered,
                    htm_depth=spec.htm_depth,
                    full_ranges=cover(region_for(plan.area), spec.htm_depth).full,
                )
            else:
                rows = merge_seed_rows(gathered, htm_depth=0, full_ranges=None)
        attr_names = [column for column, _, _ in me.attr_select]
        attr_end = 3 + len(attr_names)  # gathered rows trail a position column
        objects = [
            LocalObject(
                object_id=row[0],
                position=radec_to_vector(row[1], row[2]),
                attributes=dict(zip(attr_names, row[3:attr_end])),
            )
            for row in rows
        ]
        tuples = seed_tuples(me.alias, objects, arcsec_to_rad(me.sigma_arcsec))
        return tuples, stats

    def _local_step(
        self,
        plan: ExecutionPlan,
        me: PlanStep,
        incoming: List[PartialTuple],
        position: int,
        qid: str = "",
    ) -> Tuple[List[PartialTuple], Dict[str, Any]]:
        """Middle/first nodes: sp_xmatch over every partition, then
        extend (mandatory archive) or filter (drop-out archive)."""
        stats = self._stats_dict(
            me,
            role="dropout" if me.dropout else "match",
            tuples_in=len(incoming),
        )
        sigma_rad = arcsec_to_rad(me.sigma_arcsec)
        staged: List[AccRow] = [
            (seq, partial.acc.a, partial.acc.ax, partial.acc.ay, partial.acc.az)
            for seq, partial in enumerate(incoming)
        ]
        shard_set = self._node.shard_set
        if shard_set is None:
            # The one in-process partition: the procedure's matches go
            # straight to extend/filter, and sorting them by seq is the
            # whole merge.
            matches, costs = self._probe_match(plan, me, staged)
            self._fold_costs(stats, costs)
            merged: Matches = sorted(matches.items())
        else:
            merged = self._scatter_match(
                plan, me, incoming, staged, position, qid, sigma_rad, stats
            )
        if me.dropout:
            matched = {seq for seq, _ in merged}
            tuples = [
                partial
                for seq, partial in enumerate(incoming)
                if seq not in matched
            ]
        else:
            tuples = [
                incoming[seq].extended(me.alias, obj, sigma_rad)
                for seq, objects in merged
                for obj in objects
            ]
        return tuples, stats

    # -- the probe: one local database, wherever the partition lives ---------------

    def _measured(
        self, run: Callable[[], Tuple[Any, int, int]]
    ) -> Tuple[Any, Dict[str, int]]:
        """Run one local-database probe; returns its payload and its costs.

        ``run`` returns ``(payload, rows_examined, candidates_tested)``;
        the buffer reads are the pool's delta across it. The scan is
        charged to the simulated clock here and nowhere else, so a
        coordinator never charges again for what its shards scanned
        inside their own branches.
        """
        pool = self._node.wrapper.db.buffer
        logical, physical = pool.stats.logical_reads, pool.stats.physical_reads
        payload, rows_examined, candidates_tested = run()
        self._node.charge_processing(rows_examined)
        return payload, {
            "rows_examined": rows_examined,
            "candidates_tested": candidates_tested,
            "logical_reads": pool.stats.logical_reads - logical,
            "physical_reads": pool.stats.physical_reads - physical,
        }

    def _probe_seed(
        self, query: Query, epoch: Optional[int]
    ) -> Tuple[Any, Dict[str, int]]:
        """The seed probe: this partition's slice of the node query."""

        def run() -> Tuple[Any, int, int]:
            result = self._node.wrapper.execute_ast(query, epoch=epoch)
            return result, result.stats.rows_examined, result.stats.rows_returned

        return self._measured(run)

    def _probe_match(
        self,
        plan: ExecutionPlan,
        me: PlanStep,
        staged: Iterable[AccRow],
        extra_columns: Tuple[str, ...] = (),
    ) -> Tuple[Dict[int, List[LocalObject]], Dict[str, int]]:
        """The match probe (paper Section 5.3): load the incoming tuples
        into a temp table, run ``sp_xmatch`` against this partition's
        primary table, drop the temp table."""
        db = self._node.wrapper.db
        attr_columns = [column for column, _, _ in me.attr_select]
        attr_columns += [c for c in extra_columns if c not in attr_columns]

        def run() -> Tuple[Any, int, int]:
            temp = db.create_temp_table("xmatch", _TEMP_COLUMNS)
            try:
                for row in staged:
                    temp.insert(row)
                result = db.call_procedure(
                    PROCEDURE_NAME,
                    temp_table=temp.name,
                    primary_table=me.table,
                    id_column=me.id_column,
                    ra_column=me.ra_column,
                    dec_column=me.dec_column,
                    alias=me.alias,
                    sigma_arcsec=me.sigma_arcsec,
                    threshold=plan.threshold,
                    area=(
                        region_for(plan.area) if plan.area is not None else None
                    ),
                    residual=(
                        parse_expression(me.residual_sql)
                        if me.residual_sql
                        else None
                    ),
                    attr_columns=attr_columns,
                    engine=self._node.match_engine,
                    epoch=me.epoch,
                )
            finally:
                db.drop_table(temp.name)  # "The temporary table is deleted."
            return (
                result.matches,
                result.stats.rows_examined,
                result.stats.candidates_tested,
            )

        return self._measured(run)

    # -- scatter-gather: the coordinating side ------------------------------------

    def _scatter(
        self,
        members: Sequence[ShardMember],
        call: Callable[[ShardMember, "ServiceProxy"], Any],
        errors: Any,
    ) -> Dict[str, Any]:
        """Run ``call`` against every member, in parallel branches.

        Each member is tried on its endpoint candidates in order; a
        failure matching ``errors`` moves on to the next candidate (for a
        stage-then-match sequence that restarts the whole sequence — a
        fresh replica holds no staged rows), anything else propagates. A
        member none of whose candidates answered maps to ``None``.
        """
        network = self._node.network
        if network is None:
            raise ExecutionError(
                "sharded execution requires an attached network"
            )
        outcomes: Dict[str, Any] = {}
        with network.parallel():
            for member in members:
                with network.branch():
                    outcomes[member.name] = None
                    for url in member.candidate_urls("crossmatch"):
                        try:
                            outcomes[member.name] = call(
                                member, self._node.proxy(url)
                            )
                            break
                        except errors:
                            continue
        return outcomes

    def _gather(
        self,
        members: Sequence[ShardMember],
        me: PlanStep,
        stats: Dict[str, Any],
        call: Callable[[ShardMember, "ServiceProxy"], Any],
    ) -> List[Tuple[Any, ...]]:
        """Probe ``members`` remotely; returns their rows, unmerged.

        Stats are summed across shards into ``stats`` — the partition
        makes the sums equal the monolithic counts. A shard unreachable
        on every candidate fails the hop by name: a silent partial
        answer is never acceptable.
        """
        if not members:
            return []
        outcomes = self._scatter(members, call, TransportError)
        dead = sorted(name for name, got in outcomes.items() if got is None)
        if dead:
            raise ShardUnavailableError(
                f"shard {dead[0]!r} of archive {me.archive!r} is "
                "unreachable on every endpoint candidate",
                shard=dead[0],
            )
        rows: List[Tuple[Any, ...]] = []
        for shard_rows, shard_costs in outcomes.values():
            rows.extend(shard_rows)
            self._fold_costs(stats, shard_costs)
        return rows

    @staticmethod
    def _shard_reply(
        proxy: "ServiceProxy", response: Dict[str, Any]
    ) -> Tuple[List[Tuple[Any, ...]], Dict[str, Any]]:
        """A shard probe's answer: its (possibly chunked) rows + costs."""
        rowset = receive_rowset(response, proxy)
        return list(rowset.rows), dict(response.get("stats") or {})

    def _scatter_match(
        self,
        plan: ExecutionPlan,
        me: PlanStep,
        incoming: List[PartialTuple],
        staged: List[AccRow],
        position: int,
        qid: str,
        sigma_rad: float,
        stats: Dict[str, Any],
    ) -> Matches:
        """The match probe over shards: route, stage, match, merge.

        Each incoming tuple is routed to the shards whose ownership its
        search cap can touch (zone key; the HTM key broadcasts), shipped
        in staged slices under the tuple's original chain seq, matched
        shard-locally, and the gathered match rows are merged back into
        the monolithic emission order.
        """
        members = self._node.shard_set.members
        assignments: Dict[str, List[AccRow]] = {m.name: [] for m in members}
        for row, partial in zip(staged, incoming):
            for member in self._route_tuple(
                members, partial, sigma_rad, plan.threshold
            ):
                assignments[member.name].append(row)
        active = [m for m in members if assignments[m.name]]
        plan_wire = plan.to_wire()
        archive = self._node.info.archive
        xmids = {
            m.name: f"{archive}-xm{next(self._xmid_counter)}" for m in active
        }

        def stage_and_match(member: ShardMember, proxy: "ServiceProxy"):
            # Staging and matching must land on the *same* endpoint.
            rows, xmid = assignments[member.name], xmids[member.name]
            for start in range(0, len(rows), SHARD_STAGE_ROWS):
                proxy.call(
                    "ShardStage",
                    xmid=xmid,
                    rows=WireRowSet(
                        _STAGE_WIRE_COLUMNS,
                        rows[start:start + SHARD_STAGE_ROWS],
                    ),
                    qid=qid,
                )
            return self._shard_reply(
                proxy,
                proxy.call(
                    "ShardXMatch",
                    xmid=xmid,
                    plan=plan_wire,
                    position=position,
                    qid=qid,
                ),
            )

        attr_names = [column for column, _, _ in me.attr_select]
        return [
            (
                seq,
                [
                    LocalObject(
                        object_id=row[2],
                        position=radec_to_vector(row[3], row[4]),
                        attributes=dict(zip(attr_names, row[5:])),
                    )
                    for row in seq_rows
                ],
            )
            for seq, seq_rows in merge_match_lists(
                self._gather(active, me, stats, stage_and_match)
            )
        ]

    def _route_tuple(
        self,
        members: Tuple[ShardMember, ...],
        partial: PartialTuple,
        sigma_rad: float,
        threshold: float,
    ) -> List[ShardMember]:
        """The shards one tuple's search cap can touch (superset, exact-safe)."""
        radius = partial.acc.search_radius(sigma_rad, threshold)
        try:
            center = partial.acc.best_position()
        except GeometryError:
            # No prior observations: the search is unbounded — broadcast.
            return [m for m in members if not m.ownership.empty]
        _, r_eff = _cap_bounds(radius)
        dec_c = math.degrees(math.asin(max(-1.0, min(1.0, center[2]))))
        return members_for_tuple(members, dec_c, math.degrees(r_eff))

    # -- scatter-gather: the shard side -------------------------------------------

    def _respond(
        self,
        rowset: WireRowSet,
        stats: Any,
        qid: str = "",
    ) -> Dict[str, Any]:
        return self.sender.respond(rowset, {"stats": stats}, query_id=qid)

    def _shard_seed(
        self, plan: Dict[str, Any], position: int, qid: str = ""
    ) -> Dict[str, Any]:
        plan_obj, _, me = self._decode_step(plan, position)
        query = self._node_query_ast(plan_obj, me, (SHARD_POS_COLUMN,))
        result, costs = self._probe_seed(query, me.epoch)
        return self._respond(
            self._node.wrapper.resultset_to_wire(result, query),
            costs,
            qid=str(qid),
        )

    def _shard_stage(
        self, xmid: str, rows: WireRowSet, qid: str = ""
    ) -> Dict[str, Any]:
        """Stage accumulator rows, deduplicated by ``seq`` so a retried
        ``ShardStage`` (lost response) cannot double-insert. Deliberately
        *not* freed when ``ShardXMatch`` consumes it: the match is
        deterministic, so a retry after a lost response simply re-runs
        against the same staged rows until a cancel, the TTL, or a crash
        frees them."""
        if not isinstance(rows, WireRowSet):
            raise ExecutionError(f"malformed ShardStage rowset: {rows!r}")
        lease = self.leases.find(STAGING, str(xmid)) or self.leases.grant(
            STAGING,
            str(xmid),
            {},
            ttl_s=STAGING_TTL_S,
            qid=str(qid),
            abandonable=False,  # a retry cache: aging out is silent
        )
        for row in rows.rows:
            lease.value[int(row[0])] = (
                int(row[0]), float(row[1]), float(row[2]),
                float(row[3]), float(row[4]),
            )
        self.leases.touch(lease)
        return {"staged": len(lease.value)}

    def _shard_xmatch(
        self,
        xmid: str,
        plan: Dict[str, Any],
        position: int,
        qid: str = "",
    ) -> Dict[str, Any]:
        plan_obj, _, me = self._decode_step(plan, position)
        # The coordinator always stages at least one row first, so a
        # missing staging means this shard *lost* it (crash, cancel, TTL).
        # Faulting makes the chain retry re-stage and recompute; answering
        # "no matches" would silently drop rows from the query.
        lease = self.leases.require(STAGING, str(xmid))
        self.leases.touch(lease)
        matches, costs = self._probe_match(
            plan_obj,
            me,
            [lease.value[seq] for seq in sorted(lease.value)],
            (me.ra_column, me.dec_column, SHARD_POS_COLUMN),
        )
        attr_columns = [column for column, _, _ in me.attr_select]
        columns = [
            ("seq", "int"),
            (SHARD_POS_COLUMN, "int"),
            (me.id_column, "int"),
            (me.ra_column, "double"),
            (me.dec_column, "double"),
        ] + [(column, typecode) for column, _, typecode in me.attr_select]
        out_rows: List[Tuple[Any, ...]] = []
        for seq, objects in sorted(matches.items()):
            for obj in objects:
                attrs = obj.attributes
                values = [
                    seq,
                    int(attrs[SHARD_POS_COLUMN]),
                    obj.object_id,
                    float(attrs[me.ra_column]),
                    float(attrs[me.dec_column]),
                ]
                values.extend(attrs[column] for column in attr_columns)
                out_rows.append(tuple(
                    float(v)
                    if columns[i][1] == "double" and isinstance(v, int)
                    and not isinstance(v, bool) else v
                    for i, v in enumerate(values)
                ))
        return self._respond(
            WireRowSet(columns, out_rows), costs, qid=str(qid)
        )

    def _node_query_ast(
        self,
        plan: ExecutionPlan,
        me: PlanStep,
        extra_columns: Tuple[str, ...] = (),
    ) -> Query:
        items = [
            SelectItem(ColumnRef(me.alias, me.id_column)),
            SelectItem(ColumnRef(me.alias, me.ra_column)),
            SelectItem(ColumnRef(me.alias, me.dec_column)),
        ]
        items.extend(
            SelectItem(ColumnRef(me.alias, column))
            for column, _, _ in me.attr_select
        )
        items.extend(
            SelectItem(ColumnRef(me.alias, column)) for column in extra_columns
        )
        where: Optional[Expr] = None
        if plan.area is not None:
            where = plan.area  # AREA clauses are themselves WHERE conjuncts
        if me.residual_sql:
            residual = parse_expression(me.residual_sql)
            where = residual if where is None else BinaryOp("AND", where, residual)
        return Query(
            items=tuple(items),
            tables=(TableRef(None, me.table, me.alias),),
            where=where,
        )

    @staticmethod
    def _fold_costs(total: Dict[str, Any], costs: Dict[str, Any]) -> None:
        """Add one probe's (or one batch's) cost counters into a hop's stats."""
        for key in _COST_KEYS:
            total[key] += int(costs.get(key, 0))

    @staticmethod
    def _stats_dict(me: PlanStep, *, role: str, tuples_in: int) -> Dict[str, Any]:
        return {
            "archive": me.archive,
            "alias": me.alias,
            "role": role,
            "tuples_in": tuples_in,
            "tuples_out": 0,
            **dict.fromkeys(_COST_KEYS, 0),
            "sql": me.sql,
        }
