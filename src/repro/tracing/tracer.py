"""Federation-wide distributed tracing on the simulated clock.

The paper's cost model (Section 5.3) splits a federated query's cost into
per-SkyNode processing and inter-node transmission — but flat counters
cannot say *which hop* of the daisy chain spent the time. This module adds
Dapper-style span trees to the simulated federation: every SOAP call
becomes a client span at the caller and a server span at the callee,
related by a ``<sq:TraceContext>`` SOAP header block that rides in the
request envelope, and every span records its interval on the **simulated**
clock, so a trace is a deterministic, replayable picture of the whole
query — portal planning, the count-star fan-out, each chain hop, each
pipelined batch pull, each 2PC exchange.

Spans form a tree rooted at the first span opened with no active parent
(the client call, or ``Portal.submit`` when the Portal is driven
directly). The tracer is single-process and synchronous like the
simulation itself: an explicit span stack replaces thread-locals, and the
only cross-host propagation is the SOAP header — exactly the part a real
distributed deployment would need.

Tracing off is a :class:`NullTracer`, which records nothing, so no caller
branches on it. A handler finds its network's tracer with
:func:`active_tracer`, in the one :class:`RequestContext`.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterator, List, NamedTuple, Optional,
    Tuple,
)

if TYPE_CHECKING:
    from repro.budget import QueryBudget


@dataclass(frozen=True)
class TraceContext:
    """What crosses the wire: the trace id and the caller's span id.

    Serialized as ``<sq:TraceContext traceId=".." parentSpanId=".."/>`` in
    the SOAP Header block (see :mod:`repro.soap.envelope`).
    """

    trace_id: str
    parent_span_id: str


@dataclass(slots=True)
class Span:
    """One timed operation in a trace, on the simulated clock.

    Slotted: the tracer keeps every span of every query for the life of
    the federation, so a span's footprint is the telemetry's footprint.
    """

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str  # the SOAP operation, or an internal label ("parallel", ...)
    kind: str  # "client" | "server" | "internal"
    host: str
    start_s: float
    end_s: Optional[float] = None
    #: The network phase label active when the span opened
    #: (crossmatch-chain, performance-query, batch-transfer, ...).
    phase: str = ""
    #: Wire bytes charged to the network while this span was innermost.
    wire_bytes: int = 0
    #: Messages delivered while this span was innermost.
    messages: int = 0
    #: Transport-level retry attempts recorded against this span.
    retries: int = 0
    status: str = "ok"  # "ok" | "error"
    error: str = ""
    #: Timestamped events: faults, backoff waits, batch sequence numbers,
    #: failovers — whatever the instrumented code annotates. A tuple, so
    #: the many spans that never get an event share one empty default.
    annotations: Tuple[Dict[str, Any], ...] = ()

    @property
    def duration_s(self) -> float:
        """Span length in simulated seconds (0 while still open)."""
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def annotate(self, event: str, *, t: Optional[float] = None,
                 **fields: Any) -> None:
        """Attach one timestamped event to the span."""
        record: Dict[str, Any] = {"event": event}
        if t is not None:
            record["t"] = t
        record.update(fields)
        self.annotations += (record,)

    def events(self, event: Optional[str] = None) -> List[Dict[str, Any]]:
        """The span's annotations, optionally filtered by event name."""
        if event is None:
            return list(self.annotations)
        return [a for a in self.annotations if a.get("event") == event]

    def overlaps(self, other: "Span") -> bool:
        """True when the two spans' sim-time intervals intersect."""
        a0, a1 = self.start_s, self.end_s if self.end_s is not None else self.start_s
        b0, b1 = other.start_s, other.end_s if other.end_s is not None else other.start_s
        return a0 < b1 and b0 < a1

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (round-trips through :func:`span_from_dict`)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "host": self.host,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "phase": self.phase,
            "wire_bytes": self.wire_bytes,
            "messages": self.messages,
            "retries": self.retries,
            "status": self.status,
            "error": self.error,
            "annotations": [dict(a) for a in self.annotations],
        }


def span_from_dict(data: Dict[str, Any]) -> Span:
    """Rebuild a :class:`Span` from :meth:`Span.to_dict` output."""
    return Span(
        trace_id=str(data["trace_id"]),
        span_id=str(data["span_id"]),
        parent_id=data.get("parent_id"),
        name=str(data["name"]),
        kind=str(data["kind"]),
        host=str(data["host"]),
        start_s=float(data["start_s"]),
        end_s=None if data.get("end_s") is None else float(data["end_s"]),
        phase=str(data.get("phase", "")),
        wire_bytes=int(data.get("wire_bytes", 0)),
        messages=int(data.get("messages", 0)),
        retries=int(data.get("retries", 0)),
        status=str(data.get("status", "ok")),
        error=str(data.get("error", "")),
        annotations=tuple(dict(a) for a in data.get("annotations", ())),
    )


class Trace:
    """All spans of one trace id, assembled into a navigable tree."""

    def __init__(self, trace_id: str, spans: List[Span]) -> None:
        self.trace_id = trace_id
        #: Spans in recording order (a parent is always recorded before
        #: its children — spans open depth-first).
        self.spans = list(spans)
        self._by_id: Dict[str, Span] = {s.span_id: s for s in self.spans}

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans)

    @property
    def root(self) -> Span:
        """The trace's root span (no parent within the trace)."""
        for span in self.spans:
            if span.parent_id is None or span.parent_id not in self._by_id:
                return span
        raise ValueError(f"trace {self.trace_id!r} has no root span")

    @property
    def roots(self) -> List[Span]:
        """Every parentless span (a well-formed trace has exactly one)."""
        return [
            s
            for s in self.spans
            if s.parent_id is None or s.parent_id not in self._by_id
        ]

    def span(self, span_id: str) -> Optional[Span]:
        """Lookup by span id."""
        return self._by_id.get(span_id)

    def parent(self, span: Span) -> Optional[Span]:
        """The span's parent within this trace, if any."""
        if span.parent_id is None:
            return None
        return self._by_id.get(span.parent_id)

    def children(self, span: Span) -> List[Span]:
        """Direct children, ordered by start time (stable on ties)."""
        kids = [s for s in self.spans if s.parent_id == span.span_id]
        return sorted(kids, key=lambda s: s.start_s)

    def find(
        self,
        name: Optional[str] = None,
        *,
        kind: Optional[str] = None,
        host: Optional[str] = None,
    ) -> List[Span]:
        """Spans matching every given filter, in recording order."""
        return [
            s
            for s in self.spans
            if (name is None or s.name == name)
            and (kind is None or s.kind == kind)
            and (host is None or s.host == host)
        ]

    def walk(self, span: Optional[Span] = None, depth: int = 0):
        """Depth-first (span, depth) pairs from the root (or a subtree)."""
        start = span if span is not None else self.root
        yield start, depth
        for child in self.children(start):
            yield from self.walk(child, depth + 1)

    def total_wire_bytes(self) -> int:
        """Sum of wire bytes charged across every span of the trace."""
        return sum(s.wire_bytes for s in self.spans)

    def duration_s(self) -> float:
        """Root-span duration (the whole traced operation's makespan)."""
        return self.root.duration_s

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (round-trips through :func:`trace_from_dict`)."""
        return {
            "trace_id": self.trace_id,
            "spans": [s.to_dict() for s in self.spans],
        }


def trace_from_dict(data: Dict[str, Any]) -> Trace:
    """Rebuild a :class:`Trace` from :meth:`Trace.to_dict` output."""
    return Trace(
        str(data["trace_id"]),
        [span_from_dict(s) for s in data.get("spans", [])],
    )


class Tracer:
    """Mints trace/span ids and records spans against a clock.

    The clock and phase label come from callables so the tracer stays
    import-independent of the transport layer;
    :meth:`repro.transport.network.SimulatedNetwork.install_tracer` binds
    both to the simulated network.
    """

    def __init__(
        self,
        clock_fn: Optional[Callable[[], float]] = None,
        phase_fn: Optional[Callable[[], str]] = None,
    ) -> None:
        self.clock_fn: Callable[[], float] = clock_fn or (lambda: 0.0)
        self.phase_fn: Callable[[], str] = phase_fn or (lambda: "")
        self.spans: List[Span] = []
        #: trace id -> that trace's spans in recording order (insertion
        #: order = first-seen order), maintained by ``begin``/``reset`` so
        #: the assembled views never rescan ``spans``.
        self._by_trace: Dict[str, List[Span]] = {}
        #: Bytes delivered while no span was active (reconciles span byte
        #: totals with the flat NetworkMetrics counters).
        self.untraced_bytes: int = 0
        self._stack: List[Span] = []
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)

    # -- the active-span stack ----------------------------------------------------

    def current_span(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def context(self) -> Optional[TraceContext]:
        """The wire context of the current span (for header injection)."""
        span = self.current_span()
        if span is None:
            return None
        return TraceContext(span.trace_id, span.span_id)

    # -- span lifecycle -----------------------------------------------------------

    def begin(
        self,
        name: str,
        *,
        host: str,
        kind: str = "internal",
        context: Optional[TraceContext] = None,
    ) -> Span:
        """Open a span and push it on the stack.

        Parentage, in order of preference: the explicit remote ``context``
        (a server span continuing a propagated trace), else the innermost
        open span, else a brand-new root trace.
        """
        if context is not None:
            trace_id, parent_id = context.trace_id, context.parent_span_id
        else:
            parent = self.current_span()
            if parent is not None:
                trace_id, parent_id = parent.trace_id, parent.span_id
            else:
                trace_id, parent_id = f"t{next(self._trace_ids)}", None
        span = Span(
            trace_id=trace_id,
            span_id=f"s{next(self._span_ids)}",
            parent_id=parent_id,
            name=name,
            kind=kind,
            host=host,
            start_s=self.clock_fn(),
            phase=self.phase_fn(),
        )
        self.spans.append(span)
        self._by_trace.setdefault(trace_id, []).append(span)
        self._stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        """Close a span (stamps end time, pops it off the stack)."""
        if span.end_s is None:
            span.end_s = self.clock_fn()
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # defensive: out-of-order finish
            self._stack.remove(span)

    @contextmanager
    def span(
        self,
        name: str,
        *,
        host: str,
        kind: str = "internal",
        context: Optional[TraceContext] = None,
    ) -> Iterator[Span]:
        """Context-managed span; errors mark the span before re-raising."""
        span = self.begin(name, host=host, kind=kind, context=context)
        try:
            yield span
        except BaseException as exc:
            span.status = "error"
            if not span.error:
                span.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            self.finish(span)

    # -- annotation hooks (the network feeds these) ---------------------------------

    def annotate(self, event: str, **fields: Any) -> None:
        """Attach an event to the current span (no-op when none is open)."""
        span = self.current_span()
        if span is not None:
            span.annotate(event, t=self.clock_fn(), **fields)

    def add_wire_bytes(self, wire_bytes: int) -> None:
        """Charge delivered bytes to the current span (or the untraced pool)."""
        span = self.current_span()
        if span is None:
            self.untraced_bytes += wire_bytes
        else:
            span.wire_bytes += wire_bytes
            span.messages += 1

    # -- assembled views ------------------------------------------------------------

    def trace_ids(self) -> List[str]:
        """Distinct trace ids in first-seen order."""
        return list(self._by_trace)

    def trace(self, trace_id: Optional[str] = None) -> Trace:
        """One assembled trace (default: the most recently started)."""
        if not self._by_trace:
            raise ValueError("no spans recorded")
        chosen = trace_id if trace_id is not None else next(
            reversed(self._by_trace)
        )
        spans = self._by_trace.get(chosen)
        if not spans:
            raise ValueError(f"no spans for trace {chosen!r}")
        return Trace(chosen, spans)

    def traces(self) -> List[Trace]:
        """Every recorded trace, in first-seen order."""
        return [self.trace(tid) for tid in self.trace_ids()]

    def reset(self) -> None:
        """Forget all recorded spans (open spans are abandoned too)."""
        self.spans.clear()
        self._by_trace.clear()
        self._stack.clear()
        self.untraced_bytes = 0


class _NoSpan:
    """The span tracing off yields: every write to it is dropped.

    It is its own context manager, so a ``with tracer.span(...)`` that
    records nothing costs no generator.
    """

    __slots__ = ()
    trace_id, start_s, retries, status, error = "", 0.0, 0, "ok", ""
    annotations = ()

    def __setattr__(self, name: str, value: Any) -> None:
        pass

    def annotate(self, *args: Any, **kwargs: Any) -> None:
        pass

    def __enter__(self) -> "_NoSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass


_NO_SPAN = _NoSpan()


class NullTracer(Tracer):
    """Tracing off: :class:`Tracer`'s surface, recording nothing.

    Every span is one inert span, ``context()`` is None (so no
    ``<sq:TraceContext>`` header is written and untraced envelopes stay
    byte-identical), ``trace()`` is None and ``trace_ids()`` is empty.
    """

    def begin(self, *args: Any, **kwargs: Any) -> Any:
        return _NO_SPAN

    span = begin

    def finish(self, *args: Any, **kwargs: Any) -> None:
        pass

    annotate = add_wire_bytes = finish

    def trace(self, trace_id: Optional[str] = None) -> Optional[Trace]:
        return None


# -- the request context: one ContextVar holds the tracer of the network
# delivering the request, that network's clock and the query's budget. A
# scope sets a new record and restores the outer one, so scopes nest and mask.


class RequestContext(NamedTuple):
    """The tracer, clock and budget a request runs under."""

    tracer: Tracer
    clock: Optional[Callable[[], float]] = None
    budget: Optional[QueryBudget] = None


_REQUEST: ContextVar[RequestContext] = ContextVar(
    "request", default=RequestContext(NullTracer())
)


def request_context() -> RequestContext:
    """The context of the request being handled (outside one: tracing off)."""
    return _REQUEST.get()


@contextmanager
def request_scope(**changes: Any) -> Iterator[None]:
    """Replace the named fields of the request context for the block."""
    token = _REQUEST.set(_REQUEST.get()._replace(**changes))
    try:
        yield
    finally:
        _REQUEST.reset(token)


def active_tracer() -> Tracer:
    """The tracer of the network delivering the current request."""
    return _REQUEST.get().tracer
