"""The simulated Internet between federation hosts.

Hosts register an HTTP handler under a hostname; links between host pairs
have latency and bandwidth. Delivering a message advances a deterministic
clock by ``latency + wire_bytes / bandwidth`` in each direction, and every
message is recorded in :class:`~repro.transport.metrics.NetworkMetrics`
under the currently active *phase* label (registration, performance-query,
cross-match chain, ...), which is what the benchmarks report.

Failures come in two flavours: the binary partition of
:meth:`SimulatedNetwork.fail_host`, and the scripted transient faults of a
:class:`~repro.transport.faults.FaultPlan` (request/response drops, latency
spikes, scheduled outages) — all deterministic, all counted in the metrics.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.errors import RequestTimeoutError, TransportError
from repro.tracing.tracer import NullTracer, Tracer, request_scope
from repro.transport.faults import FaultPlan
from repro.transport.http import HttpRequest, HttpResponse
from repro.transport.metrics import MessageRecord, NetworkMetrics

Handler = Callable[[HttpRequest], HttpResponse]

#: How long a caller without an explicit timeout waits for a lost message.
DEFAULT_TIMEOUT_S = 30.0


class SimClock:
    """A deterministic simulated clock (seconds)."""

    def __init__(self) -> None:
        self.now = 0.0

    def advance(self, seconds: float) -> None:
        """Move time forward; negative advances are rejected."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds!r}")
        self.now += seconds


@dataclass(frozen=True)
class Link:
    """Directed link properties."""

    latency_s: float = 0.05
    bandwidth_bps: float = 1_000_000.0  # bytes per second

    def transfer_time(self, wire_bytes: int) -> float:
        """Seconds to deliver a message of the given size."""
        return self.latency_s + wire_bytes / self.bandwidth_bps


class SimulatedNetwork:
    """Host registry + link model + metrics, with phase tagging."""

    LOCAL_PHASE = "unspecified"

    def __init__(
        self,
        *,
        default_latency_s: float = 0.05,
        default_bandwidth_bps: float = 1_000_000.0,
        default_timeout_s: float = DEFAULT_TIMEOUT_S,
    ) -> None:
        self.clock = SimClock()
        self.metrics = NetworkMetrics()
        self._default_link = Link(default_latency_s, default_bandwidth_bps)
        self.default_timeout_s = default_timeout_s
        self._links: Dict[Tuple[str, str], Link] = {}
        self._hosts: Dict[str, Handler] = {}
        self._phase_stack: list[str] = []
        self._failed_hosts: set[str] = set()
        #: Per-host callbacks fired once when a scheduled crash's time
        #: passes: servers register these to wipe their volatile state.
        self._crash_callbacks: Dict[str, list[Callable[[], None]]] = {}
        #: (entry request-depth, pooled branch durations) per open block.
        self._parallel_stack: list[Tuple[int, list[float]]] = []
        self._request_depth = 0
        self.fault_plan: Optional[FaultPlan] = None
        #: Distributed tracer; a :class:`~repro.tracing.NullTracer` (the
        #: default) is tracing off, with zero wire/behaviour difference.
        #: Install via :meth:`install_tracer`.
        self.tracer: Tracer = NullTracer()

    # -- tracing --------------------------------------------------------------

    def _now(self) -> float:
        return self.clock.now

    def install_tracer(self, tracer: Optional[Tracer]) -> None:
        """Attach a tracer bound to the sim clock and phase (None: off)."""
        self.tracer = tracer or NullTracer()
        self.tracer.clock_fn = self._now
        self.tracer.phase_fn = lambda: self.current_phase

    def _trace_fault(self, kind: str) -> None:
        """Count an injected fault AND annotate the active span with it."""
        self.metrics.record_fault(kind)
        self.tracer.annotate("fault", kind=kind)

    # -- topology -------------------------------------------------------------

    def add_host(self, hostname: str, handler: Handler) -> None:
        """Register an HTTP handler for a hostname."""
        if hostname in self._hosts:
            raise TransportError(f"host {hostname!r} already registered")
        self._hosts[hostname] = handler

    def remove_host(self, hostname: str) -> None:
        """Unregister a host (it becomes unreachable)."""
        if hostname not in self._hosts:
            raise TransportError(f"host {hostname!r} is not registered")
        del self._hosts[hostname]

    def has_host(self, hostname: str) -> bool:
        """True if a handler is registered for the hostname."""
        return hostname in self._hosts

    def hostnames(self) -> list[str]:
        """All registered hostnames."""
        return sorted(self._hosts)

    def set_link(
        self,
        src: str,
        dst: str,
        *,
        latency_s: Optional[float] = None,
        bandwidth_bps: Optional[float] = None,
        symmetric: bool = True,
    ) -> None:
        """Override link properties between two hosts."""
        link = Link(
            latency_s if latency_s is not None else self._default_link.latency_s,
            bandwidth_bps
            if bandwidth_bps is not None
            else self._default_link.bandwidth_bps,
        )
        self._links[(src, dst)] = link
        if symmetric:
            self._links[(dst, src)] = link

    def link(self, src: str, dst: str) -> Link:
        """The link used from src to dst (default if not overridden)."""
        return self._links.get((src, dst), self._default_link)

    # -- failure injection --------------------------------------------------------

    def fail_host(self, hostname: str) -> None:
        """Partition a host off the network (requests to it now fail)."""
        self._failed_hosts.add(hostname)

    def restore_host(self, hostname: str) -> None:
        """Bring a failed host back."""
        self._failed_hosts.discard(hostname)

    def is_failed(self, hostname: str) -> bool:
        """True if the host is currently partitioned off."""
        return hostname in self._failed_hosts

    def set_fault_plan(self, plan: Optional[FaultPlan]) -> None:
        """Install (or clear, with None) the scripted fault plan."""
        self.fault_plan = plan

    def on_crash(self, hostname: str, callback: Callable[[], None]) -> None:
        """Register a volatile-state wipe to run when ``hostname`` crashes.

        A :meth:`FaultPlan.crash <repro.transport.faults.FaultPlan.crash>`
        event fires each host's callbacks exactly once, lazily, the first
        time the network moves a message after the crash instant.
        """
        self._crash_callbacks.setdefault(hostname, []).append(callback)

    def _fire_due_crashes(self) -> None:
        """Deliver the state-wipe side effect of crashes whose time passed."""
        if self.fault_plan is None:
            return
        for host in self.fault_plan.due_crashes(self.clock.now):
            self._trace_fault("crash")
            for callback in self._crash_callbacks.get(host, []):
                callback()

    def _host_down(self, hostname: str) -> Optional[str]:
        """Why the host is unreachable right now, or None if it is fine."""
        if hostname in self._failed_hosts:
            return "host is down"
        if self.fault_plan is not None:
            if self.fault_plan.host_crashed(hostname, self.clock.now):
                return "crashed"
            if self.fault_plan.host_in_outage(hostname, self.clock.now):
                return "scheduled outage"
        return None

    # -- phase tagging ----------------------------------------------------------

    @contextmanager
    def phase(self, label: str) -> Iterator[None]:
        """Tag all messages sent inside the block with a phase label."""
        self._phase_stack.append(label)
        try:
            yield
        finally:
            self._phase_stack.pop()

    @property
    def current_phase(self) -> str:
        """The innermost active phase label."""
        return self._phase_stack[-1] if self._phase_stack else self.LOCAL_PHASE

    @contextmanager
    def parallel(self) -> Iterator[None]:
        """Treat the requests issued inside the block as dispatched together.

        The paper sends performance queries "as asynchronous SOAP messages";
        with concurrent dispatch the elapsed (clock) time is the *makespan*
        — the slowest request — rather than the sum. Byte metrics are
        unaffected. Each request issued directly inside the block (at the
        block's own nesting depth) contributes its duration to a pool; on
        exit the clock advances by max instead of sum.

        Blocks compose: a ``parallel()`` opened inside a service handler
        pools that handler's fan-out, and the whole block then acts as one
        branch of any enclosing block at the same depth.
        """
        start = self.clock.now
        # One internal span for the whole fan-out: every request issued in
        # the block (count-star probes, batch pulls, ...) becomes a child,
        # and the span's interval is the block's makespan.
        enclosing = self.tracer.current_span()
        span = self.tracer.begin(
            "parallel", host=enclosing.host if enclosing is not None else ""
        )
        self._parallel_stack.append((self._request_depth, []))
        try:
            yield
        finally:
            _, durations = self._parallel_stack.pop()
            if durations:
                self.clock.now = start + max(durations)
            # Close at the makespan instant, before any rewind for an
            # enclosing block (which re-pools this block as one branch).
            self.tracer.finish(span)
            if self._in_parallel_block():
                self._parallel_stack[-1][1].append(self.clock.now - start)
                self.clock.now = start  # enclosing block advances by the max

    def _in_parallel_block(self) -> bool:
        """True when work at the current depth pools into a parallel block."""
        return bool(
            self._parallel_stack
            and self._parallel_stack[-1][0] == self._request_depth
        )

    @contextmanager
    def branch(self) -> Iterator[None]:
        """Group sequential work (requests, backoff waits) as ONE parallel branch.

        A retried call is several round trips plus backoff sleeps that must
        serialize *within* their branch of a :meth:`parallel` block while
        still overlapping with sibling branches. Outside a parallel block
        this is a no-op.
        """
        if not self._in_parallel_block():
            yield
            return
        started = self.clock.now
        self._request_depth += 1
        try:
            yield
        finally:
            self._request_depth -= 1
            self._parallel_stack[-1][1].append(self.clock.now - started)
            self.clock.now = started  # rewind; parallel() advances by the max

    # -- time -----------------------------------------------------------------

    def sleep(self, seconds: float) -> None:
        """Advance the clock for a deliberate wait (retry backoff)."""
        if seconds <= 0.0:
            return
        self.clock.advance(seconds)
        self.metrics.backoff_seconds += seconds

    # -- message delivery ---------------------------------------------------------

    def request(
        self,
        src_host: str,
        request: HttpRequest,
        *,
        operation: str = "",
        timeout_s: Optional[float] = None,
        deadline_s: Optional[float] = None,
    ) -> HttpResponse:
        """Deliver an HTTP request from ``src_host`` and return the response.

        Charges both directions to the clock and records both messages.
        Inside a :meth:`parallel` block, top-level requests contribute
        their duration to the block's makespan pool instead of serializing.

        ``timeout_s`` bounds each *transfer direction*: when the fault plan
        drops a message, or a latency spike makes a transfer slower than the
        timeout, the caller waits out the timeout on the sim clock and gets
        a :class:`~repro.errors.RequestTimeoutError`. ``deadline_s`` (an
        absolute sim time) bounds the whole exchange, as an HTTP client's
        total timeout does: each direction may take at most what is left of
        it, so request + handler + response never end past the deadline
        with an answer.
        """
        dst_host = request.host
        self._fire_due_crashes()
        if src_host in self._failed_hosts:
            raise TransportError(f"host {src_host!r} is down")
        if self.fault_plan is not None and self.fault_plan.host_crashed(
            src_host, self.clock.now
        ):
            # The caller's own process died (e.g. mid-cascade): whatever it
            # was about to send never leaves the host.
            raise TransportError(f"host {src_host!r} crashed")
        down = self._host_down(dst_host)
        if down is not None:
            if down == "scheduled outage":
                self._trace_fault("outage")
            raise TransportError(f"no route to host {dst_host!r}: {down}")
        handler = self._hosts.get(dst_host)
        if handler is None:
            raise TransportError(f"no route to host {dst_host!r}")

        pooled = self._in_parallel_block()
        started = self.clock.now
        self._request_depth += 1
        try:
            self._deliver(
                src_host, dst_host, request.wire_bytes, "request", operation,
                self._left(timeout_s, deadline_s),
            )
            if self.fault_plan is not None and self.fault_plan.host_crashed(
                dst_host, self.clock.now
            ):
                # The destination crashed while the request was on the wire.
                self._fire_due_crashes()
                self._trace_fault("crash-drop")
                self._time_out(self._left(timeout_s, deadline_s), "request",
                               src_host, dst_host, operation)
            # Handlers find this network's tracer and "now" (for budget
            # checks) in the request context: no server owns either.
            with request_scope(tracer=self.tracer, clock=self._now):
                response = handler(request)
            self._deliver(
                dst_host, src_host, response.wire_bytes, "response", operation,
                self._left(timeout_s, deadline_s),
            )
        finally:
            self._request_depth -= 1
            if pooled:
                self._parallel_stack[-1][1].append(self.clock.now - started)
                self.clock.now = started  # rewind; parallel() advances by max
        return response

    def _left(
        self, timeout_s: Optional[float], deadline_s: Optional[float]
    ) -> Optional[float]:
        """``timeout_s`` clamped to what is left until ``deadline_s``."""
        if deadline_s is None:
            return timeout_s
        left = max(deadline_s - self.clock.now, 0.0)
        return left if timeout_s is None else min(timeout_s, left)

    def _deliver(
        self,
        src: str,
        dst: str,
        wire_bytes: int,
        kind: str,
        operation: str,
        timeout_s: Optional[float] = None,
    ) -> None:
        extra_latency = 0.0
        if kind == "response":
            # The handler may have advanced the clock past a scheduled
            # crash of the responding host: its process died before the
            # response hit the wire, so the in-flight request is killed
            # (the caller waits out its timeout), not merely future ones.
            self._fire_due_crashes()
            if self.fault_plan is not None and self.fault_plan.host_crashed(
                src, self.clock.now
            ):
                self._trace_fault("crash-drop")
                self._time_out(timeout_s, kind, src, dst, operation)
        if self.fault_plan is not None:
            decision = self.fault_plan.on_message(
                kind, src, dst, self.clock.now
            )
            if decision is not None:
                if decision.drop:
                    self._trace_fault(f"{kind}-drop")
                    self._time_out(timeout_s, kind, src, dst, operation)
                if decision.extra_latency_s > 0.0:
                    self._trace_fault("latency-spike")
                    extra_latency = decision.extra_latency_s
        link = self.link(src, dst)
        elapsed = link.transfer_time(wire_bytes) + extra_latency
        if timeout_s is not None and elapsed > timeout_s:
            self._time_out(timeout_s, kind, src, dst, operation)
        self.clock.advance(elapsed)
        self.metrics.simulated_seconds += elapsed
        self.metrics.record(
            MessageRecord(
                src=src,
                dst=dst,
                wire_bytes=wire_bytes,
                kind=kind,
                phase=self.current_phase,
                operation=operation,
                sim_time=self.clock.now,
            )
        )
        # Mirror the flat byte counters onto the span active on the
        # caller's side of the wire, so the two views reconcile.
        self.tracer.add_wire_bytes(wire_bytes)

    def _time_out(
        self,
        timeout_s: Optional[float],
        kind: str,
        src: str,
        dst: str,
        operation: str,
    ) -> None:
        """Wait out the caller's timeout on the sim clock, then raise."""
        wait = timeout_s if timeout_s is not None else self.default_timeout_s
        self.clock.advance(wait)
        self.metrics.timeouts += 1
        self.tracer.annotate(
            "timeout", kind=kind, operation=operation, waited_s=wait
        )
        label = f" ({operation})" if operation else ""
        raise RequestTimeoutError(
            f"{kind} from {src!r} to {dst!r}{label} timed out "
            f"after {wait:g}s",
            timeout_s=wait,
        )
