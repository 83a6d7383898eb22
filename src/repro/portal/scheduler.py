"""The Portal's multi-tenant query scheduler.

The paper's portal answers one federated query at a time; the production
service it sketches is a job queue serving many concurrent callers. This
module turns the Portal into that server on the simulated clock:

* **Admission control** — at most ``max_inflight`` queries execute
  concurrently; everything else waits in per-tenant FIFO queues.
* **Fair share** — admission picks jobs by deficit round-robin over the
  tenants (Shreedhar & Varghese): each visit grants a tenant
  ``quantum * weight`` credit, and the tenant admits queued jobs while
  its credit covers their cost. A tenant bursting a hundred queries
  cannot starve a tenant submitting one.
* **Backpressure** — when the total backlog reaches ``max_queue``,
  :meth:`QueryScheduler.enqueue` sheds the query with
  :class:`~repro.errors.SchedulerOverloadError` (the HTTP-503 analogue)
  instead of letting the queue grow without bound.

Execution happens in *waves*: each wave runs its admitted jobs inside one
``network.parallel()`` block, one ``network.branch()`` per query, so the
sim clock charges the true overlapped makespan — the slowest query of
the wave, not the sum — exactly as concurrent chains through disjoint
archives would behave. Every query still pins its plan-time epochs
(PR 6), so interleaving queries with ingest commits never changes any
individual answer; and queries of one wave that hit the Portal's
semantic cache behind an identical in-flight query are effectively
request-coalesced: the first submission fills the entry, the duplicates
ride it for zero wire bytes.

Latency accounting per job: ``wait`` (enqueue → wave start), ``service``
(the job's own in-branch duration), ``latency = wait + service``; a
job's completion instant is its wave's start plus its own service time,
while the *next* wave starts at the wave barrier (the makespan).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional

from repro.errors import (
    DeadlineExceededError,
    QueryCancelledError,
    SchedulerOverloadError,
    SkyQueryError,
)
from repro.portal.planner import OrderingStrategy

#: How many recent per-job service times feed the ``retry_after_s``
#: estimate handed back with every overload rejection.
SERVICE_SAMPLE_WINDOW = 32

if TYPE_CHECKING:
    from repro.portal.executor import FederatedResult
    from repro.portal.portal import Portal


@dataclass(frozen=True)
class SchedulerConfig:
    """Knobs of the run queue (see docs/SCHEDULING.md)."""

    #: Queries executing concurrently per wave (the admission cap).
    max_inflight: int = 4
    #: Credit granted per tenant per round-robin visit. Jobs cost 1.0 by
    #: default, so the default quantum admits one job per tenant per
    #: visit — classic round-robin; larger quanta admit bursts.
    quantum: float = 1.0
    #: Total queued jobs (across tenants) before enqueue sheds load.
    max_queue: int = 64
    #: Per-tenant fair-share weights (missing tenants weigh 1.0).
    weights: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ValueError("scheduler max_inflight must be >= 1")
        if self.quantum <= 0:
            raise ValueError("scheduler quantum must be > 0")
        if self.max_queue < 1:
            raise ValueError("scheduler max_queue must be >= 1")
        for tenant, weight in self.weights.items():
            if weight <= 0:
                raise ValueError(
                    f"scheduler weight for tenant {tenant!r} must be > 0"
                )


@dataclass
class ScheduledQuery:
    """One job in the run queue."""

    seq: int
    tenant: str
    sql: str
    strategy: OrderingStrategy = OrderingStrategy.COUNT_DESC
    random_seed: int = 0
    pin_epochs: Optional[Dict[str, int]] = None
    #: Deficit-round-robin cost (1.0 = one quantum's worth of work).
    cost: float = 1.0
    #: Sim-clock instant the job entered the queue.
    arrival_s: float = 0.0
    #: Absolute sim-clock deadline for the whole job (None = unbounded).
    #: Queued past it, the job is shed at admission without dispatch; the
    #: remaining budget rides the submission as its ``QueryBudget``.
    deadline_s: Optional[float] = None


@dataclass
class QueryOutcome:
    """What happened to one scheduled job."""

    job: ScheduledQuery
    result: Optional["FederatedResult"] = None
    error: Optional[Exception] = None
    #: 1-based wave the job was admitted into.
    wave: int = 0
    wait_s: float = 0.0
    service_s: float = 0.0
    latency_s: float = 0.0
    finished_s: float = 0.0
    #: The cache path the answer took (None = executed the federation).
    cache: Optional[str] = None


@dataclass
class SchedulerStats:
    """Observable counters (reported by E21 and the serve driver)."""

    enqueued: int = 0
    admitted: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    waves: int = 0
    #: Jobs whose deadline died in the queue: shed at admission, never
    #: dispatched (their outcome carries a DeadlineExceededError).
    expired: int = 0
    #: Queued jobs dropped by a cancelling drain (QueryCancelledError).
    cancelled: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(vars(self))


class QueryScheduler:
    """Admission-controlled, fair-share run queue in front of a Portal."""

    def __init__(
        self, portal: "Portal", config: Optional[SchedulerConfig] = None
    ) -> None:
        self._portal = portal
        self.config = config or SchedulerConfig()
        self.stats = SchedulerStats()
        self._seq = itertools.count(1)
        self._queues: Dict[str, Deque[ScheduledQuery]] = {}
        #: Tenants with queued work, in first-arrival order; the DRR
        #: cursor walks this ring.
        self._ring: List[str] = []
        self._cursor = 0
        self._deficits: Dict[str, float] = {}
        #: Recent per-job service times (seconds); the basis of the
        #: ``retry_after_s`` hint and of admission-time deadline triage.
        self._service_samples: Deque[float] = deque(
            maxlen=SERVICE_SAMPLE_WINDOW
        )
        #: Set by a stopping :meth:`drain`: a draining scheduler sheds
        #: every new enqueue so a graceful shutdown converges.
        self._draining = False

    # -- queue state ----------------------------------------------------------

    def pending(self) -> int:
        """Jobs waiting for admission."""
        return sum(len(queue) for queue in self._queues.values())

    @property
    def draining(self) -> bool:
        """True once admission has been stopped for shutdown."""
        return self._draining

    def _weight(self, tenant: str) -> float:
        return self.config.weights.get(tenant, 1.0)

    def avg_service_s(self) -> float:
        """Mean of the recent per-job service times (0.0 with no history)."""
        if not self._service_samples:
            return 0.0
        return sum(self._service_samples) / len(self._service_samples)

    def retry_after_s(self, backlog: Optional[int] = None) -> float:
        """How long a shed caller should wait before retrying.

        Queue-depth-aware: the backlog drains ``max_inflight`` jobs per
        wave and a wave lasts about one recent average service time, so
        the estimate is (waves ahead of the caller) x (average service).
        Zero until at least one job has actually run.
        """
        avg = self.avg_service_s()
        if avg <= 0.0:
            return 0.0
        backlog = self.pending() if backlog is None else backlog
        waves_ahead = backlog // self.config.max_inflight + 1
        return waves_ahead * avg

    # -- admission ------------------------------------------------------------

    def enqueue(
        self,
        sql: str,
        *,
        tenant: str = "default",
        strategy: OrderingStrategy = OrderingStrategy.COUNT_DESC,
        random_seed: int = 0,
        pin_epochs: Optional[Dict[str, int]] = None,
        cost: float = 1.0,
        deadline_s: Optional[float] = None,
    ) -> ScheduledQuery:
        """Queue a query for the next :meth:`drain`.

        Raises :class:`SchedulerOverloadError` when the backlog is at
        ``max_queue`` (or the scheduler is draining for shutdown) —
        backpressure the caller must absorb. The error's
        ``retry_after_s`` scales with the backlog and the recent average
        service time, so a polite client backs off just long enough.
        """
        if cost <= 0:
            raise ValueError("job cost must be > 0")
        backlog = self.pending()
        if self._draining:
            self.stats.rejected += 1
            raise SchedulerOverloadError(
                "scheduler is draining for shutdown; not accepting work",
                queued=backlog,
                limit=self.config.max_queue,
                retry_after_s=self.retry_after_s(backlog),
            )
        if backlog >= self.config.max_queue:
            self.stats.rejected += 1
            raise SchedulerOverloadError(
                f"run queue is full ({backlog}/{self.config.max_queue} "
                "jobs queued); retry later",
                queued=backlog,
                limit=self.config.max_queue,
                retry_after_s=self.retry_after_s(backlog),
            )
        network = self._portal.require_network()
        job = ScheduledQuery(
            seq=next(self._seq),
            tenant=tenant,
            sql=sql,
            strategy=strategy,
            random_seed=random_seed,
            pin_epochs=dict(pin_epochs) if pin_epochs else None,
            cost=cost,
            arrival_s=network.clock.now,
            deadline_s=deadline_s,
        )
        if tenant not in self._queues:
            self._queues[tenant] = deque()
            self._ring.append(tenant)
            self._deficits.setdefault(tenant, 0.0)
        self._queues[tenant].append(job)
        self.stats.enqueued += 1
        return job

    def _next_wave(self) -> List[ScheduledQuery]:
        """Deficit round-robin: fill up to ``max_inflight`` slots."""
        wave: List[ScheduledQuery] = []
        while len(wave) < self.config.max_inflight and self._ring:
            tenant = self._ring[self._cursor % len(self._ring)]
            queue = self._queues[tenant]
            self._deficits[tenant] += self.config.quantum * self._weight(
                tenant
            )
            while (
                queue
                and len(wave) < self.config.max_inflight
                and self._deficits[tenant] >= queue[0].cost
            ):
                job = queue.popleft()
                self._deficits[tenant] -= job.cost
                wave.append(job)
            if not queue:
                # Drained: a tenant leaving the ring forfeits its credit,
                # so an idle tenant cannot hoard deficit for later bursts.
                index = self._cursor % len(self._ring)
                self._ring.pop(index)
                del self._queues[tenant]
                del self._deficits[tenant]
                self._cursor = index % len(self._ring) if self._ring else 0
            else:
                self._cursor = (self._cursor + 1) % len(self._ring)
        return wave

    # -- execution ------------------------------------------------------------

    def _shed_reason(
        self, job: ScheduledQuery, now: float
    ) -> Optional[SkyQueryError]:
        """Why a job must not be dispatched at admission time (or None).

        A job whose deadline already passed in the queue is certainly
        dead; one whose remaining budget cannot cover even the recent
        average service time would only waste a wave slot to produce the
        same deadline-degraded answer — both shed here, undispatched.
        """
        if job.deadline_s is None:
            return None
        remaining = job.deadline_s - now
        if remaining <= 0.0:
            return DeadlineExceededError(
                f"job {job.seq} (tenant {job.tenant!r}) spent its whole "
                f"budget queued ({-remaining:.3f}s past the deadline); "
                "shed without dispatch"
            )
        avg = self.avg_service_s()
        if avg > 0.0 and remaining < avg:
            return DeadlineExceededError(
                f"job {job.seq} (tenant {job.tenant!r}) has {remaining:.3f}s "
                f"of budget left but recent queries averaged {avg:.3f}s; "
                "shed at admission"
            )
        return None

    def drain(
        self, *, stop_admission: bool = False, cancel_queued: bool = False
    ) -> List[QueryOutcome]:
        """Run every queued job, wave by wave; outcomes in enqueue order.

        Each wave is one ``parallel()`` block: the clock advances by the
        wave's slowest job. Per-job errors (including degraded-path
        exceptions) are captured on the outcome, never raised — one
        tenant's bad query must not take down the wave. Jobs whose
        deadline died in the queue are shed before dispatch (outcome
        carries a :class:`DeadlineExceededError`, counted in
        ``stats.expired``).

        Shutdown: ``stop_admission`` permanently closes the queue (every
        later enqueue sheds with an overload error), and ``cancel_queued``
        drops the still-queued jobs as :class:`QueryCancelledError`
        outcomes instead of running them — together they are the graceful
        Ctrl-C path of ``python -m repro serve``: stop taking work, then
        either finish or cancel what is queued, never strand server state.
        """
        portal = self._portal
        network = portal.require_network()
        tracer = network.tracer
        if stop_admission:
            self._draining = True
        outcomes: List[QueryOutcome] = []
        if cancel_queued:
            now = network.clock.now
            for tenant in list(self._ring):
                for job in self._queues[tenant]:
                    outcome = QueryOutcome(
                        job=job, wait_s=now - job.arrival_s,
                        finished_s=now, latency_s=now - job.arrival_s,
                    )
                    outcome.error = QueryCancelledError(
                        f"job {job.seq} (tenant {job.tenant!r}) cancelled "
                        "by scheduler drain before dispatch"
                    )
                    outcomes.append(outcome)
                    self.stats.cancelled += 1
            self._queues.clear()
            self._ring.clear()
            self._deficits.clear()
            self._cursor = 0
            outcomes.sort(key=lambda outcome: outcome.job.seq)
            return outcomes
        while self._ring:
            wave = self._next_wave()
            if not wave:  # pragma: no cover - quantum > 0 guarantees progress
                break
            now = network.clock.now
            runnable: List[ScheduledQuery] = []
            for job in wave:
                reason = self._shed_reason(job, now)
                if reason is None:
                    runnable.append(job)
                    continue
                outcome = QueryOutcome(
                    job=job, wait_s=now - job.arrival_s,
                    finished_s=now, latency_s=now - job.arrival_s,
                )
                outcome.error = reason
                outcomes.append(outcome)
                self.stats.expired += 1
                tracer.annotate(
                    "shed", job=job.seq, tenant=job.tenant, reason="deadline"
                )
            wave = runnable
            if not wave:
                continue
            self.stats.waves += 1
            self.stats.admitted += len(wave)
            wave_no = self.stats.waves
            wave_start = network.clock.now
            with tracer.span("scheduler-wave", host=portal.hostname):
                tracer.annotate(
                    "admission",
                    wave=wave_no,
                    admitted=len(wave),
                    backlog=self.pending(),
                    tenants=sorted({job.tenant for job in wave}),
                )
                wave_outcomes: List[QueryOutcome] = []
                with network.parallel():
                    for job in wave:
                        with network.branch():
                            started = network.clock.now
                            outcome = QueryOutcome(
                                job=job, wave=wave_no,
                                wait_s=wave_start - job.arrival_s,
                            )
                            try:
                                outcome.result = portal.submit(
                                    job.sql,
                                    strategy=job.strategy,
                                    random_seed=job.random_seed,
                                    pin_epochs=job.pin_epochs,
                                    deadline_s=job.deadline_s,
                                )
                                outcome.cache = outcome.result.cache
                                self.stats.completed += 1
                            except SkyQueryError as exc:
                                outcome.error = exc
                                self.stats.failed += 1
                            # Read the branch's own duration before the
                            # parallel block rewinds to pool the makespan.
                            outcome.service_s = network.clock.now - started
                            wave_outcomes.append(outcome)
            for outcome in wave_outcomes:
                outcome.finished_s = wave_start + outcome.service_s
                outcome.latency_s = outcome.wait_s + outcome.service_s
                self._service_samples.append(outcome.service_s)
            outcomes.extend(wave_outcomes)
        outcomes.sort(key=lambda outcome: outcome.job.seq)
        return outcomes

    def run(
        self, jobs: List[Dict[str, Any]]
    ) -> List[QueryOutcome]:
        """Enqueue a batch of job dicts (``sql`` plus enqueue kwargs) and
        drain them — the multi-client driver's entry point. Shed jobs
        surface as outcomes carrying the overload error."""
        shed: List[QueryOutcome] = []
        for spec in jobs:
            spec = dict(spec)
            sql = spec.pop("sql")
            try:
                self.enqueue(sql, **spec)
            except SchedulerOverloadError as exc:
                shed.append(
                    QueryOutcome(
                        job=ScheduledQuery(
                            seq=next(self._seq),
                            tenant=spec.get("tenant", "default"),
                            sql=sql,
                        ),
                        error=exc,
                    )
                )
        outcomes = self.drain() + shed
        outcomes.sort(key=lambda outcome: outcome.job.seq)
        return outcomes
