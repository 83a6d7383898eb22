"""A programmatic SkyQuery client.

"The Clients are web interfaces (or similar applications) that accept user
queries and pass them on to the Portal." This is the 'similar application':
it speaks real SOAP to the Portal's SkyQuery service over the simulated
network.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.errors import ExecutionError
from repro.services.client import ServiceProxy
from repro.services.retry import RetryPolicy
from repro.soap.encoding import WireRowSet
from repro.transport.network import SimulatedNetwork

if TYPE_CHECKING:
    from repro.tracing.tracer import Trace


@dataclass
class ClientResult:
    """A federated query's answer as the client sees it."""

    columns: List[str]
    rows: List[Tuple[Any, ...]]
    node_stats: List[Dict[str, Any]] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)
    #: Snapshot epoch each archive alias was pinned at while planning —
    #: re-submitting against the same epochs repeats the read exactly.
    epochs: Dict[str, int] = field(default_factory=dict)
    matched_tuples: int = 0
    plan: Optional[Dict[str, Any]] = None
    #: Per-node degradation events relayed from the Portal (see
    #: docs/RESILIENCE.md for the degraded-result contract).
    warnings: List[str] = field(default_factory=list)
    degraded: bool = False
    #: Endpoint substitutions the Portal made (plan-time or mid-chain).
    #: A failed-over answer is complete — every archive contributed.
    failovers: int = 0
    #: The query's span tree, rooted at this client's SubmitQuery call
    #: (None when the federation was built with ``tracing=False``).
    trace: Optional["Trace"] = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.rows)

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Rows as dictionaries keyed by output column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]


class SkyQueryClient:
    """Submits cross-match SQL to the Portal and decodes the answer."""

    def __init__(
        self,
        network: SimulatedNetwork,
        skyquery_url: str,
        *,
        hostname: str = "client.skyquery.net",
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.network = network
        self.hostname = hostname
        self._proxy = ServiceProxy(
            network, hostname, skyquery_url, retry_policy=retry_policy
        )

    def explain(self, sql: str, *, strategy: str = "") -> Dict[str, Any]:
        """The Portal's plan for a query, without executing the chain."""
        with self.network.phase("client"):
            response = self._proxy.call("ExplainQuery", sql=sql,
                                        strategy=strategy)
        if not isinstance(response, dict):
            raise ExecutionError(f"malformed Portal response: {response!r}")
        return response

    def federation_info(self) -> Dict[str, Any]:
        """What the federation offers: archives, tables, sigmas, footprints."""
        with self.network.phase("client"):
            response = self._proxy.call("GetFederation")
        if not isinstance(response, dict):
            raise ExecutionError(f"malformed Portal response: {response!r}")
        return response

    def submit(self, sql: str, *, strategy: str = "") -> ClientResult:
        """Run a query; ``strategy`` overrides the plan ordering (benchmarks)."""
        tracer = self.network.tracer
        # With no span open, this call's client span roots a fresh trace,
        # which is then the newest one: hand its tree over.
        fresh = tracer.current_span() is None
        with self.network.phase("client"):
            response = self._proxy.call("SubmitQuery", sql=sql, strategy=strategy)
        trace = tracer.trace() if fresh else None
        if not isinstance(response, dict):
            raise ExecutionError(f"malformed Portal response: {response!r}")
        rowset = response.get("rows")
        if not isinstance(rowset, WireRowSet):
            raise ExecutionError("Portal response carries no rowset")
        return ClientResult(
            columns=[str(c) for c in response.get("columns") or rowset.column_names],
            rows=list(rowset.rows),
            node_stats=list(response.get("stats") or []),
            counts={
                str(k): int(v) for k, v in (response.get("counts") or {}).items()
            },
            epochs={
                str(k): int(v) for k, v in (response.get("epochs") or {}).items()
            },
            matched_tuples=int(response.get("matched_tuples") or 0),
            plan=response.get("plan"),
            warnings=[str(w) for w in (response.get("warnings") or [])],
            degraded=bool(response.get("degraded")),
            failovers=int(response.get("failovers") or 0),
            trace=trace,
        )
