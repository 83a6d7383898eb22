"""Transmission metrics: who sent how many bytes to whom, and when."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import MISSING, dataclass, field, fields
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True, slots=True)
class MessageRecord:
    """One HTTP message observed on a link (slotted: ``messages`` keeps
    one per message for the life of the network)."""

    src: str
    dst: str
    wire_bytes: int
    kind: str  # "request" | "response"
    phase: str
    operation: str
    sim_time: float


@dataclass(frozen=True)
class BreakerEvent:
    """One circuit-breaker state transition."""

    endpoint: str
    old_state: str
    new_state: str
    sim_time: float


@dataclass
class NetworkMetrics:
    """Accumulates message records plus simulated elapsed time.

    ``simulated_seconds`` sums transfer time (latency + bytes/bandwidth);
    ``processing_seconds`` sums the per-row processing cost the SkyNodes
    charge while scanning — the two halves of the paper's Section 5.3 cost
    model ("processing costs at the individual SkyNodes and transmission
    costs in sending partial results").
    """

    messages: List[MessageRecord] = field(default_factory=list)
    simulated_seconds: float = 0.0
    processing_seconds: float = 0.0
    #: Injected faults by kind ("request-drop", "response-drop",
    #: "latency-spike", "outage", "crash", "crash-drop"); what the
    #: resilience benchmarks report.
    faults: Dict[str, int] = field(default_factory=dict)
    timeouts: int = 0
    retries: int = 0
    backoff_seconds: float = 0.0
    #: Endpoint substitutions: a dead primary (or mid-chain hop) replaced
    #: by a live replica instead of degrading the answer.
    failovers: int = 0
    #: Circuit-breaker state transitions, in recording order.
    breaker_events: List[BreakerEvent] = field(default_factory=list)
    #: Server-side transfers/streams freed without a full drain — an
    #: explicit abort or a sim-clock TTL expiry reclaiming state a crashed
    #: or circuit-opened caller abandoned mid-fetch.
    reclaimed_transfers: int = 0
    #: Checkpoints/streams dropped because the snapshot epoch they were
    #: pinned to fell below the archive's GC floor (see docs/RESILIENCE.md,
    #: epoch lifecycle) — their cached results can never be served again.
    stale_epoch_reaps: int = 0
    #: ``CancelQuery`` operations handled (idempotent repeats included) —
    #: the control-plane cost of eager cancellation.
    cancels: int = 0
    #: Streams/transfers freed *eagerly* by ``CancelQuery``
    #: fan-out instead of lingering until a TTL reap; the payoff eager
    #: cancellation buys over TTL-only reclamation (E22). Disjoint from
    #: ``reclaimed_transfers``, which counts TTL/abort reclamation of
    #: abandoned server state.
    eager_reclaims: int = 0

    def record(self, message: MessageRecord) -> None:
        """Append one message record."""
        self.messages.append(message)

    def record_fault(self, kind: str) -> None:
        """Count one injected fault by kind."""
        self.faults[kind] = self.faults.get(kind, 0) + 1

    def fault_count(self, kind: Optional[str] = None) -> int:
        """Total injected faults, optionally of one kind."""
        if kind is not None:
            return self.faults.get(kind, 0)
        return sum(self.faults.values())

    def record_breaker(
        self, endpoint: str, old_state: str, new_state: str, sim_time: float
    ) -> None:
        """Record one circuit-breaker state transition."""
        self.breaker_events.append(
            BreakerEvent(endpoint, old_state, new_state, sim_time)
        )

    def breaker_transitions(
        self, endpoint: Optional[str] = None
    ) -> List[BreakerEvent]:
        """Breaker transitions, optionally for one endpoint."""
        return [
            event
            for event in self.breaker_events
            if endpoint is None or event.endpoint == endpoint
        ]

    def total_bytes(
        self,
        *,
        phase: Optional[str] = None,
        src: Optional[str] = None,
        dst: Optional[str] = None,
    ) -> int:
        """Sum of wire bytes, optionally filtered."""
        return sum(
            m.wire_bytes
            for m in self.messages
            if (phase is None or m.phase == phase)
            and (src is None or m.src == src)
            and (dst is None or m.dst == dst)
        )

    def message_count(self, *, phase: Optional[str] = None) -> int:
        """Number of messages, optionally filtered by phase."""
        return sum(1 for m in self.messages if phase is None or m.phase == phase)

    def bytes_by_phase(self) -> Dict[str, int]:
        """Total wire bytes per phase label."""
        totals: Dict[str, int] = defaultdict(int)
        for m in self.messages:
            totals[m.phase] += m.wire_bytes
        return dict(totals)

    def bytes_by_link(self) -> Dict[Tuple[str, str], int]:
        """Total wire bytes per directed (src, dst) link."""
        totals: Dict[Tuple[str, str], int] = defaultdict(int)
        for m in self.messages:
            totals[(m.src, m.dst)] += m.wire_bytes
        return dict(totals)

    def reset(self) -> None:
        """Forget all records and zero the accumulators: every field goes
        back to its declared default, so a new counter cannot be missed.
        Containers are emptied in place — callers may hold them."""
        for spec in fields(self):
            if spec.default is MISSING:
                getattr(self, spec.name).clear()
            else:
                setattr(self, spec.name, spec.default)
