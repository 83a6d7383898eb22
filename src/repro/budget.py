"""Query-lifetime budgets: the deadline that travels with the query.

A :class:`QueryBudget` is an *absolute* deadline on the simulated clock
plus the portal-minted query id, propagated hop to hop in the
``<sq:QueryBudget>`` SOAP header (a sibling of ``<sq:TraceContext>``).
Every layer reads it from the request context
(:class:`repro.tracing.tracer.RequestContext`), not from a parameter:

* the caller side (:class:`~repro.services.client.ServiceProxy`) stamps
  the active budget into outgoing envelopes and clamps its per-call
  retry deadline to the remaining budget;
* the server side (:meth:`~repro.services.framework.WebService.handle_soap`)
  puts the header's budget in the context for the handler, so chain
  forwarding and batch pulls made *from inside* a handler inherit the
  caller's budget, as the TraceContext header threads one span tree.

``use_budget(None)`` deliberately *masks* any outer budget: a handler
dispatching an unbudgeted request models a separate process that never
saw the header, and cleanup RPCs (CancelQuery/AbortStream/AbortTransfer)
run unbudgeted so an expired deadline can never block its own cleanup.
The network delivering a request puts its clock in the same context, so
the server side reads "now" (:func:`request_now`) without owning a clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ContextManager, Optional

from repro.tracing.tracer import request_context, request_scope


@dataclass(frozen=True)
class QueryBudget:
    """One query's absolute sim-clock deadline and identity."""

    deadline_s: float
    query_id: str = ""

    def remaining_s(self, now: float) -> float:
        """Seconds of budget left at sim-time ``now`` (negative if spent)."""
        return self.deadline_s - now

    def expired(self, now: float) -> bool:
        """True once the sim clock has reached the deadline."""
        return now >= self.deadline_s


#: Operations that free state for a dead query. Both the proxy and the
#: dispatcher exempt them from budget enforcement: cancellation issued
#: *because* a deadline expired must never be blocked by that same
#: expired deadline, or cleanup could strand the very state it frees.
CLEANUP_OPERATIONS = frozenset({"CancelQuery", "AbortStream", "AbortTransfer"})


def active_budget() -> Optional[QueryBudget]:
    """The budget of the current call, if any."""
    return request_context().budget


def use_budget(budget: Optional[QueryBudget]) -> ContextManager:
    """Scope a budget (or None, masking any outer one) for nested calls."""
    return request_scope(budget=budget)


def request_now() -> Optional[float]:
    """Sim-time of the network currently delivering a request, if any."""
    clock = request_context().clock
    return None if clock is None else clock()
