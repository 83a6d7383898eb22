"""One lease table per SkyNode, for every piece of per-caller state.

A service that holds state on a caller's behalf between two requests —
a Cross match tuple stream, the chunks of a chunked transfer (either
service's), an Ingest upload session — holds it as a *lease* in its
node's one table (``SkyNode.leases``): granted for :data:`LEASE_TTL_S`
on the simulated clock, extended by every touch, tagged with the query
that owns it and (where it matters) the snapshot epoch it was computed
at. A query's tag is its execution id, or ``<execution id>/<attempt>``
when each attempt must compute afresh; whatever is said of a query id
below covers both. Whatever the state is, it ends the same few ways, and
each way is implemented here exactly once:

* the TTL passes without a touch (:meth:`LeaseTable.reap`) — counted in
  ``reclaimed_transfers`` when the expiry means a caller abandoned live
  state, silent when a retry cache simply aged out;
* its pinned epoch falls below the archive's GC floor (also
  :meth:`~LeaseTable.reap`) — counted in ``stale_epoch_reaps``;
* the owning query is cancelled (:meth:`~LeaseTable.release_query`) —
  counted in ``eager_reclaims``, disjoint from the TTL reaper's counter;
* the holder aborts it explicitly (:meth:`~LeaseTable.abort`) — a
  reclaim, like the TTL expiry it pre-empts;
* the holder consumes it (:meth:`~LeaseTable.drop`: a committed upload
  session) — nothing is counted: nothing was abandoned;
* the process crashes (:meth:`~LeaseTable.crash`) — nothing is counted:
  the process died, it did not tidy up.

A lease whose payload has been fully delivered is *settled*: it stays
leased so the caller's retry of the last request can be answered, but
nobody abandoned it, so its TTL expiry or abort moves no counter. What
it still holds decides the rest. A transfer parks on its final chunk:
freeing that reclaims nothing, so it ends silently however it ends. A
drained stream keeps the batch it served last, encoded as it travelled
(about its wire size) — the *checkpoint* a retried chain resumes from —
so a cancel or its epoch's GC frees real state and is counted as for a
live lease. Either way a settled lease is a retry cache and is bounded
like one: a table keeps the :data:`SETTLED_KEPT` most recently settled
leases of each kind and silently drops older ones, whose callers then
recompute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from repro.errors import ExecutionError, SkyQueryError

#: How long (simulated seconds) a lease survives between touches — an
#: open stream awaiting its next pull, a drained one awaiting a replay, a
#: transfer awaiting its next fetch, an upload session awaiting its next
#: batch. Generous relative to any retry budget.
LEASE_TTL_S = 600.0

#: Settled leases a node keeps *per kind*. A chain execution settles one
#: stream per node, so a node replays the last 8 executions that reached
#: it (twice ``SchedulerConfig.max_inflight``'s default) however many
#: transfers their batches were chunked into; a transfer's parked final
#: chunk (the Query service's and the Cross match service's alike) only
#: ever answers the retry that immediately follows it.
SETTLED_KEPT = 8


@dataclass
class Lease:
    """One held piece of state and the terms it is held on."""

    kind: str
    key: str
    value: Any
    #: The owning query's id (empty when untagged); what
    #: :meth:`LeaseTable.release_query` matches on (with its attempts).
    qid: str = ""
    #: The snapshot epoch the state was computed at. Once that epoch is
    #: garbage-collected no other hop could recompute consistently with
    #: it, so the lease is reaped rather than served to a resume.
    epoch: Optional[int] = None
    #: Whether TTL expiry means a caller walked away from live state (an
    #: undrained stream or transfer — a reclaim) rather than a retry
    #: cache aging out (silent).
    abandonable: bool = False
    #: False once settled: still servable, no longer abandonable.
    live: bool = True
    #: Whether ending it early (a cancel, its epoch's GC) frees state
    #: worth counting: always while live; once settled, only a checkpoint
    #: (see :meth:`LeaseTable.settle`).
    reclaimable: bool = True
    deadline: Optional[float] = None


class LeaseTable:
    """TTL'd, query-tagged, epoch-tagged state, keyed by ``(kind, key)``."""

    def __init__(
        self, epoch_floor_fn: Optional[Callable[[], int]] = None
    ) -> None:
        self._leases: Dict[Tuple[str, str], Lease] = {}
        self._epoch_floor_fn = epoch_floor_fn
        self._clock_fn: Optional[Callable[[], float]] = None
        self._on_reclaim: Optional[Callable[[int], None]] = None
        self._on_stale_reap: Optional[Callable[[int], None]] = None
        self._on_eager: Optional[Callable[[int], None]] = None

    def bind_clock(
        self,
        clock_fn: Callable[[], float],
        on_reclaim: Optional[Callable[[int], None]] = None,
        on_stale_reap: Optional[Callable[[int], None]] = None,
        on_eager: Optional[Callable[[int], None]] = None,
    ) -> None:
        """Arm TTL expiry against a clock and name the counters to move.

        Without a clock leases never expire: they live until settled,
        aborted, released, or reaped by the epoch floor.
        """
        self._clock_fn = clock_fn
        self._on_reclaim = on_reclaim
        self._on_stale_reap = on_stale_reap
        self._on_eager = on_eager

    @staticmethod
    def _report(callback: Optional[Callable[[int], None]], count: int) -> None:
        if count and callback is not None:
            callback(count)

    def touch(self, lease: Lease) -> None:
        """Extend a lease by the TTL from now."""
        if self._clock_fn is not None:
            lease.deadline = self._clock_fn() + LEASE_TTL_S

    def grant(
        self,
        kind: str,
        key: str,
        value: Any,
        *,
        qid: str = "",
        epoch: Optional[int] = None,
        abandonable: bool,
    ) -> Lease:
        """Hold ``value`` under ``(kind, key)`` until one of the ends above."""
        lease = Lease(
            kind, key, value, qid=qid, epoch=epoch, abandonable=abandonable
        )
        self.touch(lease)
        self._leases[(kind, key)] = lease
        return lease

    def reap(self) -> int:
        """Free every expired or stale-epoch lease.

        Runs at the top of every operation that reads the table, so an
        expired lease is never served no matter which kind of request
        notices first. Returns how many live abandonable leases the TTL
        reclaimed.
        """
        now = self._clock_fn() if self._clock_fn is not None else None
        floor = (
            self._epoch_floor_fn() if self._epoch_floor_fn is not None else None
        )
        abandoned = stale = 0
        ended = []
        for handle, lease in self._leases.items():
            if (
                now is not None
                and lease.deadline is not None
                and lease.deadline <= now
            ):
                abandoned += lease.live and lease.abandonable
            elif (
                floor is not None
                and lease.epoch is not None
                and lease.epoch < floor
            ):
                stale += lease.reclaimable
            else:
                continue
            ended.append(handle)
        for handle in ended:
            del self._leases[handle]
        self._report(self._on_reclaim, abandoned)
        self._report(self._on_stale_reap, stale)
        return abandoned

    def find(self, kind: str, key: str) -> Optional[Lease]:
        """The lease under ``(kind, key)`` if it is still held."""
        self.reap()
        return self._leases.get((kind, key))

    def require(
        self,
        kind: str,
        key: str,
        error: Type[SkyQueryError] = ExecutionError,
        why: str = "",
    ) -> Lease:
        """Like :meth:`find`, but a missing lease is a typed fault
        (``error``; ``why`` ends its message).

        State a caller refers to by id and the holder no longer has
        (crashed, cancelled, expired) must never read as "empty": the
        fault is what makes the caller's retry logic start over.
        """
        lease = self.find(kind, key)
        if lease is None:
            raise error(f"unknown {kind} {key!r}{why}")
        return lease

    def settle(self, lease: Lease, *, checkpoint: bool = False) -> None:
        """The payload is fully delivered: the lease stays servable for the
        caller's retry of its last request, but is no longer abandonable —
        and only while it is among the newest settled leases of its kind.
        ``checkpoint`` says it still holds that whole payload."""
        lease.live = False
        lease.reclaimable = checkpoint
        self.touch(lease)
        handle = (lease.kind, lease.key)
        if self._leases.get(handle) is lease:
            # Re-file it last, so insertion order among the settled leases
            # is settlement order.
            self._leases[handle] = self._leases.pop(handle)
        settled = [
            h for h, held in self._leases.items()
            if held.kind == lease.kind and not held.live
        ]
        for evicted in settled[:-SETTLED_KEPT]:
            del self._leases[evicted]

    def abort(self, kind: str, key: str) -> Optional[Lease]:
        """Free one lease early; returns it, or None when already gone.

        Aborting live abandonable state is a reclaim (it pre-empts the
        TTL expiry that would have counted it); dropping a settled lease
        is not. Idempotent.
        """
        self.reap()
        lease = self._leases.pop((kind, key), None)
        if lease is not None:
            self._report(
                self._on_reclaim, int(lease.live and lease.abandonable)
            )
        return lease

    def drop(self, lease: Lease) -> None:
        """The holder consumed the lease's state: free it silently."""
        self._leases.pop((lease.kind, lease.key), None)

    def release_query(self, qid: str) -> int:
        """Free everything tagged with ``qid``; returns the reclaimable
        count.

        That count is what eager cancellation saved from the TTL reaper
        and is reported as ``eager_reclaims`` — never as
        ``reclaimed_transfers``. Idempotent: a repeat (or a cancel racing
        the reaper) frees 0.
        """
        self.reap()
        if not qid:
            return 0
        freed = 0
        for kind, key, lease in self.owned_by(qid):
            freed += lease.reclaimable
            del self._leases[(kind, key)]
        self._report(self._on_eager, freed)
        return freed

    def crash(self) -> None:
        """Drop every lease silently, as a process crash would."""
        self._leases.clear()

    def held(self, kind: str) -> int:
        """Live leases of one kind (0 after clean runs)."""
        return sum(
            1
            for (lease_kind, _), lease in self._leases.items()
            if lease_kind == kind and lease.live
        )

    def owned_by(self, qid: str) -> List[Tuple[str, str, Lease]]:
        """``(kind, key, lease)`` of every lease tagged with a query (or
        one of its attempts), live or settled — what a cancel or the TTL
        has yet to free."""
        return [
            (kind, key, lease)
            for (kind, key), lease in self._leases.items()
            if lease.qid == qid or lease.qid.startswith(f"{qid}/")
        ]
