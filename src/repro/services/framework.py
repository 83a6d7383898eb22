"""Service-side plumbing: operation dispatch and HTTP hosting."""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.budget import (
    CLEANUP_OPERATIONS,
    active_budget,
    request_now,
    use_budget,
)
from repro.errors import (
    DeadlineExceededError,
    ServiceError,
    SkyQueryError,
    SoapError,
    SoapFaultError,
    XMLMemoryError,
)
from repro.soap.envelope import build_fault, build_rpc_response, parse_rpc_call
from repro.soap.wsdl import OperationSpec, ServiceDescription, generate_wsdl
from repro.soap.xmlparser import XMLParser
from repro.tracing.tracer import active_tracer
from repro.transport.http import HttpRequest, HttpResponse

OperationFn = Callable[..., Any]

#: Small scalar request parameters worth stamping onto server spans:
#: enough to tell batches, streams, and transactions apart in a trace
#: without copying query text or row payloads into annotations.
_TRACED_PARAMS = (
    "seq",
    "position",
    "qid",
    "stream_id",
    "transfer_id",
    "txn_id",
    "start_seq",
    "batch_size",
)


@dataclass
class _Operation:
    spec: OperationSpec
    fn: OperationFn


class WebService:
    """A SOAP RPC service: named operations with typed parameter specs.

    Subclasses register operations in ``__init__`` via :meth:`register`.
    Incoming requests are parsed with the service's own :class:`XMLParser`,
    whose memory limit models the per-node parser budget — oversized
    messages fault exactly like the paper's prototype did.
    """

    def __init__(
        self,
        name: str,
        *,
        parser_memory_limit: Optional[int] = None,
    ) -> None:
        self.name = name
        self.parser = XMLParser(memory_limit_bytes=parser_memory_limit)
        self._operations: Dict[str, _Operation] = {}
        self.calls_handled = 0
        self.faults_returned = 0
        self._last_fault = ""

    def register(
        self,
        op_name: str,
        fn: OperationFn,
        *,
        params: Sequence[Tuple[str, str]] = (),
        returns: str = "string",
        doc: str = "",
    ) -> None:
        """Expose a callable as a SOAP operation."""
        if op_name in self._operations:
            raise ServiceError(f"operation {op_name!r} already registered")
        self._operations[op_name] = _Operation(
            OperationSpec(op_name, tuple(params), returns, doc), fn
        )

    def operation_names(self) -> list[str]:
        """Names of all exposed operations."""
        return sorted(self._operations)

    def describe(self, url: str) -> ServiceDescription:
        """The service's WSDL-level description bound to an endpoint URL."""
        return ServiceDescription(
            name=self.name,
            url=url,
            operations=[op.spec for op in self._operations.values()],
        )

    def wsdl(self, url: str) -> str:
        """The service's WSDL document."""
        return generate_wsdl(self.describe(url))

    def handle_soap(
        self, body: bytes, *, hostname: Optional[str] = None
    ) -> Tuple[int, str]:
        """Dispatch one SOAP request; returns (http status, response xml).

        A *server* span on the delivering network's tracer wraps the
        dispatch, parented under the caller's span via the envelope's
        ``<sq:TraceContext>`` header; SOAP faults mark the span as
        errored. The ``<sq:QueryBudget>`` header (or None —
        a request without one models a caller that never saw a budget)
        is scoped around the dispatch, so nested RPCs this handler makes
        inherit the query's remaining budget.
        """
        self.calls_handled += 1
        try:
            operation, params, context, budget = parse_rpc_call(
                body, self.parser
            )
        except XMLMemoryError as exc:
            return self._fault("soap:Server.OutOfMemory", str(exc))
        except (SoapError, SkyQueryError) as exc:
            return self._fault("soap:Client", f"malformed request: {exc}")
        with active_tracer().span(
            operation, host=hostname or self.name, kind="server",
            context=context,
        ) as span:
            marks = {k: params[k] for k in _TRACED_PARAMS if k in params}
            if marks:
                span.annotate("request", t=span.start_s, **marks)
            with use_budget(budget):
                status, xml = self._dispatch(
                    operation, params, hostname=hostname
                )
            if status != 200:
                span.status = "error"
                span.error = self._last_fault
        return status, xml

    def _dispatch(
        self,
        operation: str,
        params: Dict[str, Any],
        *,
        hostname: Optional[str] = None,
    ) -> Tuple[int, str]:
        entry = self._operations.get(operation)
        if entry is None:
            return self._fault(
                "soap:Client.UnknownOperation",
                f"service {self.name!r} has no operation {operation!r}",
            )
        try:
            self._check_budget(operation, hostname)
            result = entry.fn(**params)
        except SoapFaultError as exc:
            # A fault relayed from a service this one called keeps its
            # class, so a caller any number of hops up sees the fault the
            # failing service raised, not this relay.
            return self._fault(exc.faultcode, exc.faultstring, exc.detail)
        except SkyQueryError as exc:
            # The fault detail names the error class so callers can tell a
            # caller mistake (e.g. pinning a garbage-collected epoch) from
            # a genuine server failure without parsing the message text.
            return self._fault("soap:Server", str(exc), type(exc).__name__)
        except TypeError as exc:
            return self._fault(
                "soap:Client.BadArguments",
                f"bad arguments for {operation!r}: {exc}",
            )
        except Exception as exc:  # noqa: BLE001 - faults must not kill the host
            detail = traceback.format_exc(limit=3)
            return self._fault(
                "soap:Server.Internal", f"{type(exc).__name__}: {exc}", detail
            )
        try:
            return 200, build_rpc_response(operation, result)
        except SoapError as exc:
            return self._fault(
                "soap:Server.Serialization",
                f"could not serialize result of {operation!r}: {exc}",
            )

    def _check_budget(self, operation: str, hostname: Optional[str]) -> None:
        """Refuse work whose query budget is already spent.

        A hop that receives a request after the deadline faults instead
        of computing a doomed result — that fault propagates upstream as
        a typed ``DeadlineExceededError`` naming this hop. Cleanup
        operations are exempt: they free the dead query's state.
        """
        budget, now = active_budget(), request_now()
        if operation in CLEANUP_OPERATIONS or budget is None or now is None:
            return
        if budget.expired(now):
            raise DeadlineExceededError(
                f"query budget exhausted at {hostname or self.name} "
                f"({now - budget.deadline_s:.3f}s past the deadline) "
                f"before {operation!r} could run"
            )

    def _fault(self, code: str, message: str, detail: str = "") -> Tuple[int, str]:
        self.faults_returned += 1
        self._last_fault = f"{code}: {message}"
        return 500, build_fault(code, message, detail)


class ServiceHost:
    """Routes HTTP paths on one hostname to services.

    Also answers ``GET <path>?wsdl`` with the service's WSDL document,
    mirroring how real SOAP stacks publish their descriptions.
    """

    def __init__(self, hostname: str) -> None:
        self.hostname = hostname
        self._services: Dict[str, WebService] = {}

    def mount(self, path: str, service: WebService) -> str:
        """Mount a service at a path; returns its full endpoint URL."""
        if not path.startswith("/"):
            path = "/" + path
        if path in self._services:
            raise ServiceError(f"path {path!r} already mounted on {self.hostname}")
        self._services[path] = service
        return self.url_for(path)

    def url_for(self, path: str) -> str:
        """The endpoint URL for a mounted path."""
        if not path.startswith("/"):
            path = "/" + path
        return f"http://{self.hostname}{path}"

    def service_at(self, path: str) -> Optional[WebService]:
        """The service mounted at a path, if any."""
        if not path.startswith("/"):
            path = "/" + path
        return self._services.get(path)

    def handle(self, request: HttpRequest) -> HttpResponse:
        """The host's HTTP handler (register with the network)."""
        from urllib.parse import urlparse

        path = request.path
        wants_wsdl = urlparse(request.url).query == "wsdl"
        service = self._services.get(path)
        if service is None:
            return HttpResponse(
                404, "Not Found", body=f"no service at {path}".encode()
            )
        if wants_wsdl or request.method == "GET":
            wsdl_text = service.wsdl(self.url_for(path))
            return HttpResponse(
                200,
                "OK",
                headers={"Content-Type": "text/xml; charset=utf-8"},
                body=wsdl_text.encode("utf-8"),
            )
        status, xml = service.handle_soap(
            request.body, hostname=self.hostname
        )
        return HttpResponse(
            status,
            "OK" if status == 200 else "Internal Server Error",
            headers={"Content-Type": "text/xml; charset=utf-8"},
            body=xml.encode("utf-8"),
        )
