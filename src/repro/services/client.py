"""Caller-side proxies for SOAP services."""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.budget import CLEANUP_OPERATIONS, QueryBudget, active_budget
from repro.errors import (
    DeadlineExceededError,
    SoapFaultError,
    TransportError,
)
from repro.services.retry import CircuitBreaker, RetryPolicy
from repro.soap.envelope import build_rpc_request, parse_rpc_response
from repro.soap.wsdl import ServiceDescription, parse_wsdl
from repro.soap.xmlparser import XMLParser
from repro.tracing.tracer import Span, TraceContext
from repro.transport.http import HttpRequest, HttpResponse, soap_request
from repro.transport.network import SimulatedNetwork


class ServiceProxy:
    """Invokes operations on a remote service endpoint.

    The proxy's ``parser`` deserializes responses; give it the *caller's*
    XML parser (with its memory budget) so that a SkyNode receiving a huge
    partial-result rowset from its neighbour hits the same out-of-memory
    wall the paper describes.

    With a :class:`~repro.services.retry.RetryPolicy`, transient transport
    failures (lost messages, timeouts, dead hosts) are retried with
    exponential backoff on the *simulated* clock; an optional
    :class:`~repro.services.retry.CircuitBreaker` fails fast once the
    endpoint has failed repeatedly. Without either, behaviour is the
    seed's single-shot call.
    """

    def __init__(
        self,
        network: SimulatedNetwork,
        src_host: str,
        url: str,
        *,
        parser: Optional[XMLParser] = None,
        description: Optional[ServiceDescription] = None,
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        self.network = network
        self.src_host = src_host
        self.url = url
        self.parser = parser or XMLParser()
        self.description = description
        self.retry_policy = retry_policy
        self.breaker = breaker
        self._rng = (
            retry_policy.rng_for(src_host, url)
            if retry_policy is not None
            else None
        )

    def call(self, operation: str, **params: Any) -> Any:
        """Invoke one operation; raises SoapFaultError on remote faults.

        The call opens a *client* span on the network's tracer and stamps
        its trace context into the envelope's SOAP Header, so the callee's
        server span threads under it; with tracing off there is no context
        and the envelope is byte-identical to the untraced wire format. An
        active :class:`~repro.budget.QueryBudget` rides the same Header
        path and clamps the whole retry loop to the remaining budget —
        except for cleanup operations, which must outlive the deadline
        that killed their query.
        """
        if self.description is not None and self.description.operation(operation) is None:
            raise TransportError(
                f"service {self.description.name!r} does not describe "
                f"operation {operation!r}"
            )
        budget = (
            active_budget() if operation not in CLEANUP_OPERATIONS else None
        )

        def build(context: Optional[TraceContext]) -> HttpRequest:
            envelope = build_rpc_request(
                operation, params, trace_context=context, budget=budget
            )
            return soap_request(
                self.url, f"urn:skyquery#{operation}", envelope
            )

        return self._transact(
            build,
            operation,
            lambda resp: self._decode(operation, resp),
            budget=budget,
        )

    def _transact(
        self,
        build_request: Callable[[Optional[TraceContext]], HttpRequest],
        operation: str,
        decode: Any,
        budget: Optional[QueryBudget] = None,
    ) -> Any:
        """One request through the breaker + retry/backoff/deadline loop."""
        clock = self.network.clock
        if budget is not None and budget.expired(clock.now):
            # Spent before the request even left the host: fail without
            # touching the wire (or the breaker — the endpoint is fine).
            raise DeadlineExceededError(
                f"query budget exhausted at {self.src_host} "
                f"({clock.now - budget.deadline_s:.3f}s past the deadline) "
                f"before calling {operation!r} on {self.url}"
            )
        if self.breaker is not None:
            self.breaker.check(clock.now)
        policy = self.retry_policy
        deadline = (
            clock.now + policy.deadline_s
            if policy is not None and policy.deadline_s is not None
            else None
        )
        if budget is not None:
            deadline = (
                budget.deadline_s
                if deadline is None
                else min(deadline, budget.deadline_s)
            )
        tracer = self.network.tracer
        # The span opens INSIDE the branch block: a branch rewinds the
        # clock on exit (parallel siblings overlap), so the span must
        # close while the branch's own time is still on the clock.
        with self.network.branch(), tracer.span(
            operation, host=self.src_host, kind="client"
        ) as span:
            request = build_request(tracer.context())
            result = self._attempt_loop(
                request, operation, decode, policy, deadline, span,
                budget=budget,
            )
        return result

    def _attempt_loop(
        self,
        request: HttpRequest,
        operation: str,
        decode: Any,
        policy: Optional[RetryPolicy],
        deadline: Optional[float],
        span: Span,
        budget: Optional[QueryBudget] = None,
    ) -> Any:
        clock = self.network.clock
        attempt = 0
        while True:
            try:
                # The policy's timeout bounds each direction; the deadline
                # bounds the whole exchange, the callee's handler included,
                # so no attempt overruns it.
                response = self.network.request(
                    self.src_host,
                    request,
                    operation=operation,
                    timeout_s=policy.timeout_s if policy is not None else None,
                    deadline_s=deadline,
                )
                result = decode(response)
            except TransportError as exc:
                attempt += 1
                retryable = (
                    policy is not None and attempt < policy.max_attempts
                )
                if retryable:
                    backoff = policy.backoff_s(attempt, self._rng)
                    retryable = (
                        deadline is None
                        or clock.now + backoff <= deadline
                    )
                if not retryable:
                    if self.breaker is not None:
                        self.breaker.record_failure(clock.now)
                    if budget is not None and budget.expired(clock.now):
                        # The budget ran out while this attempt waited:
                        # retrying (or failing over) cannot help, so the
                        # typed deadline error supersedes the transport
                        # failure and propagates to cancellation instead
                        # of the chain executor's recovery loop.
                        raise DeadlineExceededError(
                            f"query budget exhausted during {operation!r} "
                            f"from {self.src_host} to {self.url} "
                            f"(attempt {attempt}: {exc})"
                        ) from exc
                    raise
                span.retries += 1
                span.annotate("retry", t=clock.now, attempt=attempt)
                self.network.sleep(backoff)
                self.network.metrics.retries += 1
                continue
            except SoapFaultError as exc:
                # The endpoint answered (with an application fault):
                # it is alive as far as the breaker is concerned.
                if self.breaker is not None:
                    self.breaker.record_success(clock.now)
                if exc.detail == "DeadlineExceededError":
                    # A downstream hop refused budget-expired work; the
                    # faultstring already names that hop.
                    raise DeadlineExceededError(exc.faultstring) from exc
                raise
            if self.breaker is not None:
                self.breaker.record_success(clock.now)
            return result

    def _decode(self, operation: str, response: HttpResponse) -> Any:
        """Deserialize one response, surfacing non-SOAP HTTP errors clearly."""
        if not response.ok and b"Envelope" not in response.body:
            snippet = response.body[:120].decode("utf-8", "replace")
            raise TransportError(
                f"HTTP {response.status} from {self.url} for "
                f"{operation!r}: {snippet}"
            )
        return parse_rpc_response(response.body, self.parser)

    def fetch_wsdl(self) -> ServiceDescription:
        """GET the endpoint's WSDL and remember the parsed description.

        Goes through the same retry/breaker path as :meth:`call`: with a
        :class:`~repro.services.retry.RetryPolicy` configured, a single
        dropped WSDL GET no longer fails the whole federation build.
        """
        def build(context: Optional[TraceContext]) -> HttpRequest:
            # Plain GET: no envelope, so the trace context (if any) rides
            # only on the recording side as the client span.
            del context
            return HttpRequest("GET", f"{self.url}?wsdl")

        def decode(response: HttpResponse) -> ServiceDescription:
            if not response.ok:
                raise TransportError(
                    f"WSDL fetch from {self.url} failed with "
                    f"{response.status}"
                )
            return parse_wsdl(response.body.decode("utf-8"))

        self.description = self._transact(build, "wsdl", decode)
        return self.description
