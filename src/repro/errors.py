"""Exception hierarchy for the SkyQuery reproduction.

Every layer of the system raises subclasses of :class:`SkyQueryError` so that
callers can distinguish user errors (bad query text, unknown archive) from
infrastructure failures (SOAP faults, transport problems, resource limits).
"""

from __future__ import annotations


class SkyQueryError(Exception):
    """Base class for every error raised by this package."""


class GeometryError(SkyQueryError):
    """Invalid spherical-geometry input (zero vector, bad radius, ...)."""


class HTMError(SkyQueryError):
    """Invalid Hierarchical Triangular Mesh operation (bad depth/id/name)."""


class DatabaseError(SkyQueryError):
    """Base class for relational-engine errors."""


class SchemaError(DatabaseError):
    """Schema violation: unknown table/column, duplicate definition, type mismatch."""


class QueryError(DatabaseError):
    """A query could not be evaluated against the engine."""


class StaleEpochError(QueryError):
    """A query pinned an epoch the engine cannot serve.

    Either the epoch has been garbage-collected (older than the oldest
    pinnable snapshot) or it has not been committed at this archive yet
    (a replica lagging behind an in-doubt 2PC decision).
    """


class SQLSyntaxError(SkyQueryError):
    """The SkyQuery SQL dialect parser rejected the query text."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        location = f" (line {line}, column {column})" if line else ""
        super().__init__(f"{message}{location}")


class ValidationError(SkyQueryError):
    """The parsed query is syntactically valid but semantically inconsistent."""


class ConfigurationError(SkyQueryError):
    """A federation/node configuration knob has an unsupported value."""


class SoapError(SkyQueryError):
    """Base class for SOAP / XML wire-format errors."""


class XMLSyntaxError(SoapError):
    """Malformed XML document."""


class XMLMemoryError(SoapError):
    """The (simulated) XML parser exceeded its memory budget.

    Reproduces the failure mode reported in the paper's Section 6: the
    SkyNode XML parser ran out of memory on SOAP messages of about 10 MB.
    """

    def __init__(self, message: str, document_bytes: int, limit_bytes: int) -> None:
        self.document_bytes = document_bytes
        self.limit_bytes = limit_bytes
        super().__init__(message)


class SoapFaultError(SoapError):
    """A SOAP <Fault> was returned by the remote service."""

    def __init__(self, faultcode: str, faultstring: str, detail: str = "") -> None:
        self.faultcode = faultcode
        self.faultstring = faultstring
        self.detail = detail
        super().__init__(f"{faultcode}: {faultstring}")


class TransportError(SkyQueryError):
    """Simulated-HTTP transport failure (unknown host, link down, ...)."""


class RequestTimeoutError(TransportError):
    """A request or response was lost (or too slow) and the caller timed out.

    Raised by the simulated network after advancing the clock by the full
    timeout — the caller really does wait out its deadline, exactly as a
    blocking HTTP client would.
    """

    def __init__(self, message: str, timeout_s: float = 0.0) -> None:
        self.timeout_s = timeout_s
        super().__init__(message)


class CircuitOpenError(TransportError):
    """A circuit breaker is open: the call fails fast without touching the wire."""

    def __init__(self, message: str, endpoint: str = "", retry_at_s: float = 0.0) -> None:
        self.endpoint = endpoint
        self.retry_at_s = retry_at_s
        super().__init__(message)


class ServiceError(SkyQueryError):
    """A web-service framework error (unknown operation, bad arguments)."""


class RegistrationError(SkyQueryError):
    """A SkyNode could not join the federation."""


class PlanningError(SkyQueryError):
    """The Portal could not build an execution plan for a query."""


class ExecutionError(SkyQueryError):
    """A federated query failed during distributed execution."""


class TransactionError(SkyQueryError):
    """An inter-archive transaction protocol violation or failure."""


class IngestError(SkyQueryError):
    """A live-ingest session protocol violation or failure."""


class SchedulerOverloadError(SkyQueryError):
    """The Portal's run queue is full: admission control shed this query.

    Backpressure, not failure — the caller should retry later (a real
    deployment would surface this as HTTP 503 + Retry-After, which is
    what ``retry_after_s`` models: queue depth ahead of the caller times
    the scheduler's recent per-job service time).
    """

    def __init__(
        self,
        message: str,
        queued: int = 0,
        limit: int = 0,
        retry_after_s: float = 0.0,
    ) -> None:
        self.queued = queued
        self.limit = limit
        self.retry_after_s = retry_after_s
        super().__init__(message)


class DeadlineExceededError(SkyQueryError):
    """A query's end-to-end budget ran out before the work completed.

    Deliberately *not* a :class:`TransportError`: retrying cannot help —
    the budget is spent — so the chain executor's recovery loop must let
    it propagate (and trigger cancellation) instead of re-routing. The
    message names the hop (operation + endpoint, or the dispatching
    service) where the budget expired; crossing a SOAP boundary it rides
    the fault ``detail`` and is re-raised typed on the caller side.
    """


class QueryCancelledError(SkyQueryError):
    """A query was cancelled (drain, explicit cancel) before dispatch."""


class ShardUnavailableError(SkyQueryError):
    """Every endpoint candidate of one spatial shard is unreachable.

    Deliberately *not* a :class:`TransportError`: the Portal has already
    walked the shard's whole candidate list (primary and mirrors) for one
    partition chain, and no other endpoint holds that stripe of the
    archive — retrying cannot help. The chain executor degrades the query
    with a warning naming the shard instead of re-routing.
    """

    def __init__(self, message: str, shard: str = "") -> None:
        self.shard = shard
        super().__init__(message)
