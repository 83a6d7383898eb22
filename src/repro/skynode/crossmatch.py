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

*Partitions* are where this node's rows live, as local tables: its own
table (a monolithic archive is the one-partition layout) and — on a shard
of a co-partitioned archive — the margin copies of its neighbours' rows
within ``repro.shard.MARGIN_DEG`` of its stripe. A seed hop reads only the
node's own table, so a seed belongs to exactly one partition chain; a
match or drop-out hop probes both. The *probe* — the node query for a
seed hop, temp table + ``sp_xmatch`` for a match or drop-out hop — is
written once; the *merge* puts the probed tables back into the monolithic
emission order (the identity for one table), and the extend/filter and
stats tails never know how many partitions there were. Sharding itself is
a plan, not a hop: the Planner runs one ordinary chain per shard stripe
and the Portal merges their answers (see DESIGN.md, "sharding is a
plan").

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

Everything the service holds between two requests — tuple streams and
chunked transfers — is a lease in one
:class:`~repro.services.leases.LeaseTable`, so TTL expiry, ``CancelQuery``
release, epoch-floor reaping and ``crash()`` each exist once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
)

import numpy as np

from repro.db.schema import Column
from repro.db.types import ColumnType
from repro.errors import ExecutionError, GeometryError
from repro.portal.plan import ExecutionPlan, PlanStep, node_query
from repro.services.chunked import ChunkedSender, receive_rowset
from repro.services.framework import WebService
from repro.services.leases import Lease, LeaseTable
from repro.shard import (
    SHARD_POS_COLUMN,
    margin_table,
    seed_order_keys,
)
from repro.skynode.xmatch_proc import PROCEDURE_NAME, XMatchProcResult
from repro.tracing.tracer import active_tracer
from repro.soap.encoding import ColumnarRowSet
from repro.sphere.coords import radec_to_vector
from repro.sql.area import region_for
from repro.sql.ast import Query
from repro.sql.parser import parse_expression
from repro.transport.chunking import batch_slices
from repro.units import arcsec_to_rad
from repro.xmatch.wire import Row, tuple_rows, tuples_to_payload

if TYPE_CHECKING:
    from repro.skynode.node import SkyNode

#: How long (simulated seconds) a stream survives between touches — an
#: open one awaiting its next pull, a drained one awaiting a replay.
STREAM_TTL_S = 600.0

#: The lease kind this service holds (chunked transfers are the other,
#: held by the sender in the same table).
STREAM = "stream"

#: What one incoming partial tuple looks like to the match probe: its
#: chain sequence number and cumulative values — the temp table's schema.
_TEMP_COLUMNS = [Column("seq", ColumnType.INT, nullable=False)] + [
    Column(name, ColumnType.FLOAT, nullable=False)
    for name in ("a", "ax", "ay", "az")
]

#: The per-probe cost counters every hop reports, in wire order.
_COST_KEYS = (
    "rows_examined", "candidates_tested", "logical_reads", "physical_reads",
)

#: One temp-table row: ``(seq, a, ax, ay, az)``.
AccRow = Tuple[int, float, float, float, float]


def _weight(me: PlanStep) -> float:
    """The weight ``1/sigma^2`` of one archive's observations."""
    sigma_rad = arcsec_to_rad(me.sigma_arcsec)
    if sigma_rad <= 0.0:
        raise GeometryError(f"sigma must be positive, got {sigma_rad!r}")
    return 1.0 / (sigma_rad * sigma_rad)


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
    # Last node on the list: the seeded rows and their batch partition.
    rows: Optional[List[Row]] = None
    slices: Optional[List[Tuple[int, int]]] = None
    # Middle/first nodes: where the incoming batches come from.
    downstream_url: Optional[str] = None
    downstream_id: Optional[str] = None
    downstream_stats: Optional[List[Dict[str, Any]]] = None


class CrossMatchService(WebService):
    """The chain operations (``PerformXMatch`` / ``PullBatch``), their
    chunked-transfer companion ``FetchChunk``, and stream teardown."""

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
        #: Every stream and chunked transfer this service holds.
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
            doc="Eagerly free every stream and chunked transfer this "
                "node holds for a query, then fan the "
                "cancel down the chain (best effort — TTL reaping "
                "remains the backstop for a lost cancel). Idempotent.",
        )
        self._stream_ids = itertools.count(1)

    # -- what the service is holding (0 after clean runs) --------------------------

    @property
    def open_streams(self) -> int:
        """Streams still holding undrained server-side state."""
        return self.leases.held(STREAM)

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
                stream.rows, stream.stats = self._seed_step(plan_obj, me)
                stream.stats["tuples_out"] = len(stream.rows)
                stream.slices = batch_slices(len(stream.rows), batch_size)
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
            if stream.rows is not None and stream.slices is not None:
                start, stop = stream.slices[seq]
                out_rows = stream.rows[start:stop]
            else:
                proxy = self._node.proxy(stream.downstream_url)
                if delivered is None:
                    delivered = proxy.call(
                        "PullBatch", stream_id=stream.downstream_id, seq=seq
                    )
                incoming = tuple_rows(
                    receive_rowset(delivered, proxy),
                    plan.member_aliases_after(position + 1),
                    plan.attr_columns_after(position + 1),
                )
                if delivered.get("stats"):
                    stream.downstream_stats = list(delivered["stats"])
                out_rows, step_stats = self._local_step(
                    plan, position, incoming
                )
                stream.stats["tuples_in"] += step_stats["tuples_in"]
                self._fold_costs(stream.stats, step_stats)
                stream.stats["tuples_out"] += len(out_rows)
            stream.batch_rows.append(len(out_rows))
            extra: Dict[str, Any] = {}
            stream.next_seq = seq + 1
            if stream.next_seq == stream.batch_count:
                stream.rows = None  # the batches are out; free the seed set
                stream.stats["batch_rows"] = list(stream.batch_rows)
                extra["stats"] = [
                    *(stream.downstream_stats or []), stream.stats
                ]
                self.leases.settle(lease, checkpoint=True)
            stream.served = (
                tuples_to_payload(
                    out_rows,
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
        self, plan: ExecutionPlan, me: PlanStep
    ) -> Tuple[List[Row], Dict[str, Any]]:
        """Last node on the list: run the node query, emit 1-tuple rows.

        A seed row is the empty tuple extended by one observation. The node
        query reads only this node's own table — on a shard, the rows it
        owns, never its margin copies — so every seed starts in exactly one
        partition chain. A partition chain's seeds carry their place in the
        monolithic order (the trailing seed key) for the Portal's merge.
        """
        stats = self._stats_dict(me, role="seed", tuples_in=0)
        tagged = plan.partition is not None
        query = node_query(
            me.alias,
            me.table,
            [
                me.id_column, me.ra_column, me.dec_column,
                *(column for column, _, _ in me.attr_select),
                *((SHARD_POS_COLUMN,) if tagged else ()),
            ],
            plan.area,
            parse_expression(me.residual_sql) if me.residual_sql else None,
        )
        result, costs = self._probe_seed(query, me.epoch)
        self._fold_costs(stats, costs)
        if not result.rows:
            return [], stats
        # On a partition chain, one more column: each seed's key.
        key_column: List[List[int]] = []
        if tagged:
            db = self._node.wrapper.db
            table = db.table(me.table)
            positions = [row[-1] for row in result.rows]
            spec = table.spatial
            if plan.area is None or spec is None or not db.use_spatial_index:
                key_column = [seed_order_keys(positions)]
            else:
                # Shard rows are stored in position order: one searchsorted
                # finds each seed's storage index, and so the trixel id
                # stored with it. The scan emits rows from fully covered
                # trixels first, so "partial" is a result index at or past
                # their count.
                stored = np.searchsorted(
                    table.int_column(SHARD_POS_COLUMN), positions
                )
                key_column = [seed_order_keys(
                    positions,
                    [table.htm_id(index) for index in stored.tolist()],
                    result.stats.rows_from_full_ranges,
                    spec.htm_depth,
                )]
        # The empty tuple's sums are +0.0, so each sum is ``0.0 + w * v``
        # (a -0.0 product is stored as +0.0), elementwise in numpy: the
        # operations, and so the bits, of ``Accumulator.with_observation``.
        ids, ras, decs, *values = zip(*result.rows)
        w = _weight(me)
        vectors = np.array(list(map(radec_to_vector, ras, decs)))
        sums = (0.0 + w * vectors).T.tolist()
        return list(zip(
            ids, repeat(0.0 + w), *sums,
            *values[:len(me.attr_select)], *key_column,
        )), stats

    def _local_step(
        self, plan: ExecutionPlan, position: int, incoming: List[Row]
    ) -> Tuple[List[Row], Dict[str, Any]]:
        """Middle/first nodes: sp_xmatch over every partition of this
        node's rows, then extend (mandatory archive) or filter (drop-out
        archive) the incoming rows.

        The partitions are local tables: the node's own table, plus — on a
        shard — the margin copies of its neighbours' rows, which a tuple
        seeded near the stripe's edge may match. ``sp_xmatch`` returns its
        accepted pairs in (seq, row) order with their extended sums, so the
        outgoing rows are column gathers: the incoming rows by seq, zipped
        with the pairs' ids, sums and attributes. Two partitions are merged
        back into monolithic position order first; one already is in it.
        """
        me = plan.step(position)
        stats = self._stats_dict(
            me,
            role="dropout" if me.dropout else "match",
            tuples_in=len(incoming),
        )
        n_ids = len(plan.member_aliases_after(position + 1))
        staged: List[AccRow] = [
            (seq, *row[n_ids:n_ids + 4]) for seq, row in enumerate(incoming)
        ]
        db = self._node.wrapper.db
        tables = [me.table]
        margin = margin_table(me.table)
        if db.has_table(margin) and len(db.table(margin)):
            tables.append(margin)
        extra = (SHARD_POS_COLUMN,) if len(tables) > 1 else ()
        probed: List[XMatchProcResult] = []
        for table in tables:
            result, costs = self._probe_match(plan, me, staged, table, extra)
            self._fold_costs(stats, costs)
            probed.append(result)
        seqs = np.concatenate([result.seqs for result in probed])
        if me.dropout:
            keep = np.ones(len(incoming), dtype=bool)
            keep[np.unique(seqs)] = False
            return list(compress(incoming, keep.tolist())), stats
        if not len(seqs):
            return [], stats
        names = [column for column, _, _ in me.attr_select]
        a = np.concatenate([result.a for result in probed])
        avec = np.concatenate([result.avec for result in probed])
        columns = [
            list(chain.from_iterable(result.ids for result in probed)),
            *(
                list(chain.from_iterable(
                    result.attributes[name] for result in probed
                ))
                for name in names
            ),
        ]
        if len(probed) > 1:
            # One partition's pairs are in (seq, row) order; the margin
            # copy's rows interleave the owned ones by their monolithic
            # position, so one sort on (seq, position) is the merge.
            order = np.lexsort((
                np.concatenate([
                    result.attributes[SHARD_POS_COLUMN] for result in probed
                ]),
                seqs,
            ))
            seqs, a, avec = seqs[order], a[order], avec[order]
            index = order.tolist()
            columns = [list(map(column.__getitem__, index)) for column in columns]
        # Each outgoing row is its tuple's incoming row with this hop's id,
        # sums and attributes spliced in: ids, sums, carried attributes,
        # new attributes, then (on a partition chain) the seed key.
        heads = list(zip(*map(incoming.__getitem__, seqs.tolist())))
        end = len(heads) - (plan.partition is not None)
        new_id, *new_values = columns
        return list(zip(
            *heads[:n_ids], new_id, a.tolist(), *avec.T.tolist(),
            *heads[n_ids + 4:end], *new_values, *heads[end:],
        )), stats

    # -- the probe: one local table at a time ---------------------------------

    def _measured(
        self, run: Callable[[], Tuple[Any, int, int]]
    ) -> Tuple[Any, Dict[str, int]]:
        """Run one local-database probe; returns its payload and its costs.

        ``run`` returns ``(payload, rows_examined, candidates_tested)``;
        the buffer reads are the pool's delta across it. The scan is
        charged to the simulated clock here and nowhere else.
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
        table: str,
        extra_columns: Tuple[str, ...] = (),
    ) -> Tuple[XMatchProcResult, Dict[str, int]]:
        """The match probe (paper Section 5.3): load the incoming tuples
        into a temp table, run ``sp_xmatch`` against one partition's
        table, drop the temp table."""
        db = self._node.wrapper.db
        attr_columns = [column for column, _, _ in me.attr_select]
        attr_columns += [c for c in extra_columns if c not in attr_columns]

        def run() -> Tuple[Any, int, int]:
            temp = db.create_temp_table("xmatch", _TEMP_COLUMNS)
            try:
                temp.insert_many(staged)
                result = db.call_procedure(
                    PROCEDURE_NAME,
                    temp_table=temp.name,
                    primary_table=table,
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
                    epoch=me.epoch,
                )
            finally:
                db.drop_table(temp.name)  # "The temporary table is deleted."
            return (
                result,
                result.stats.rows_examined,
                result.stats.candidates_tested,
            )

        return self._measured(run)

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
