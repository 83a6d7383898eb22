"""Deterministic fault injection for the simulated Internet.

The seed's failure model was a single binary partition
(:meth:`~repro.transport.network.SimulatedNetwork.fail_host`). Real
federations of autonomous archives fail in messier ways: a request is
dropped on the floor, a response never comes back, a link stalls long
enough for the caller to time out, a host flaps while it warms up, or a
whole archive goes away for a maintenance window. A :class:`FaultPlan`
scripts all of these against the *simulated* clock with seeded randomness,
so a resilience test or benchmark replays the exact same fault sequence on
every run.

Attach a plan with
:meth:`~repro.transport.network.SimulatedNetwork.set_fault_plan`; every
injected fault is counted in
:class:`~repro.transport.metrics.NetworkMetrics`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class FaultDecision:
    """What the plan wants done to one message."""

    drop: bool = False
    extra_latency_s: float = 0.0
    label: str = ""


@dataclass
class CrashEvent:
    """A scheduled process crash: the host dies at ``at_s`` and loses all
    volatile state (streams, pending transfers, staged rows); it stays
    unreachable until ``recover_s`` (forever by default)."""

    host: str
    at_s: float
    recover_s: float = math.inf
    #: Whether the network has already delivered the state-wipe side effect.
    fired: bool = False

    def covers(self, now: float) -> bool:
        """True while the host is down because of this crash."""
        return self.at_s <= now < self.recover_s


@dataclass
class OutageWindow:
    """A scheduled outage: the host is unreachable on [start_s, end_s)."""

    host: str
    start_s: float
    end_s: float

    def covers(self, now: float) -> bool:
        """True while the sim clock is inside the window."""
        return self.start_s <= now < self.end_s


@dataclass
class _Rule:
    """One fault rule; matching messages consult it in insertion order."""

    direction: str  # "request" | "response"
    src: Optional[str]
    dst: Optional[str]
    rate: float
    first_n: Optional[int]
    extra_latency_s: float  # 0 => drop the message; >0 => delay it
    label: str
    rng: random.Random
    seen: int = 0
    injected: int = 0

    def matches(self, direction: str, src: str, dst: str) -> bool:
        return (
            self.direction == direction
            and (self.src is None or self.src == src)
            and (self.dst is None or self.dst == dst)
        )

    def fires(self) -> bool:
        """Decide (deterministically) whether this rule hits the message."""
        self.seen += 1
        if self.first_n is not None:
            hit = self.seen <= self.first_n
        else:
            hit = self.rng.random() < self.rate
        if hit:
            self.injected += 1
        return hit


class FaultPlan:
    """A seeded, scripted set of fault rules and outage windows.

    Every probabilistic rule owns its own :class:`random.Random` derived
    from ``(seed, rule index)``, so adding a rule never perturbs the draws
    of the others and the same plan replays identically.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rules: List[_Rule] = []
        self._outages: List[OutageWindow] = []
        self._crashes: List[CrashEvent] = []

    # -- scripting ------------------------------------------------------------

    def _add_rule(
        self,
        direction: str,
        src: Optional[str],
        dst: Optional[str],
        rate: float,
        first_n: Optional[int],
        extra_latency_s: float,
        label: str,
    ) -> "FaultPlan":
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"fault rate {rate!r} not in [0, 1]")
        rng = random.Random(f"{self.seed}:{len(self._rules)}")
        self._rules.append(
            _Rule(direction, src, dst, rate, first_n, extra_latency_s,
                  label or f"rule{len(self._rules)}", rng)
        )
        return self

    def drop_requests(
        self,
        *,
        src: Optional[str] = None,
        dst: Optional[str] = None,
        rate: float = 1.0,
        first_n: Optional[int] = None,
        label: str = "",
    ) -> "FaultPlan":
        """Drop requests on a link/host: at ``rate``, or the ``first_n`` seen.

        ``first_n`` models a flaky-first-N schedule (a host that fails while
        warming up); it takes precedence over ``rate``.
        """
        return self._add_rule("request", src, dst, rate, first_n, 0.0, label)

    def drop_responses(
        self,
        *,
        src: Optional[str] = None,
        dst: Optional[str] = None,
        rate: float = 1.0,
        first_n: Optional[int] = None,
        label: str = "",
    ) -> "FaultPlan":
        """Drop responses after the handler ran (the caller still times out).

        Note ``src``/``dst`` are the *response* endpoints: the responding
        host is the source.
        """
        return self._add_rule("response", src, dst, rate, first_n, 0.0, label)

    def latency_spikes(
        self,
        *,
        src: Optional[str] = None,
        dst: Optional[str] = None,
        rate: float = 1.0,
        extra_s: float = 0.0,
        direction: str = "request",
        label: str = "",
    ) -> "FaultPlan":
        """Add ``extra_s`` of latency to matching messages at ``rate``.

        A spike larger than the caller's timeout turns into a
        :class:`~repro.errors.RequestTimeoutError`.
        """
        if extra_s <= 0.0:
            raise ValueError("latency spikes need extra_s > 0")
        if direction not in ("request", "response"):
            raise ValueError(f"unknown direction {direction!r}")
        return self._add_rule(direction, src, dst, rate, None, extra_s, label)

    def outage(self, host: str, start_s: float, end_s: float) -> "FaultPlan":
        """Schedule an outage window for a host on the sim clock."""
        if end_s <= start_s:
            raise ValueError(f"empty outage window [{start_s}, {end_s})")
        self._outages.append(OutageWindow(host, start_s, end_s))
        return self

    def crash(self, host: str, at_s: float) -> "FaultPlan":
        """Schedule a process crash for ``host`` at ``at_s`` (sim seconds).

        Unlike :meth:`outage`, a crash also *kills in-flight work*: the
        response of any request the host is serving when the clock passes
        ``at_s`` is lost (the caller times out), and the host's volatile
        server state — streams (open or drained), pending chunked
        transfers — is wiped via the network's crash callbacks. The host
        stays unreachable until a matching :meth:`recover`.
        """
        if at_s < 0.0:
            raise ValueError(f"crash time {at_s!r} must be >= 0")
        self._crashes.append(CrashEvent(host, at_s))
        return self

    def recover(self, host: str, at_s: float) -> "FaultPlan":
        """Schedule the crashed ``host`` to come back at ``at_s``.

        Recovery restores reachability only: the volatile state lost at
        crash time stays lost (durable tables survive, as a restarted
        process would find them on disk).
        """
        for event in reversed(self._crashes):
            if event.host == host and math.isinf(event.recover_s):
                if at_s <= event.at_s:
                    raise ValueError(
                        f"recover time {at_s!r} must be after the crash "
                        f"at {event.at_s!r}"
                    )
                event.recover_s = at_s
                return self
        raise ValueError(f"no unrecovered crash scheduled for {host!r}")

    # -- consultation (called by the network) --------------------------------------

    def host_in_outage(self, host: str, now: float) -> bool:
        """True if any outage window covers the host right now."""
        return any(
            w.host == host and w.covers(now) for w in self._outages
        )

    def host_crashed(self, host: str, now: float) -> bool:
        """True if the host is down because of a crash right now."""
        return any(
            event.host == host and event.covers(now)
            for event in self._crashes
        )

    def due_crashes(self, now: float) -> List[str]:
        """Hosts whose crash time has passed but whose state-wipe side
        effect has not fired yet; marks them fired (each crash wipes once)."""
        due = []
        for event in self._crashes:
            if not event.fired and event.at_s <= now:
                event.fired = True
                due.append(event.host)
        return due

    def on_message(
        self, direction: str, src: str, dst: str, now: float
    ) -> Optional[FaultDecision]:
        """The plan's verdict for one message (None = leave it alone).

        A drop wins over any delay; otherwise delays accumulate.
        """
        decision: Optional[FaultDecision] = None
        for rule in self._rules:
            if not rule.matches(direction, src, dst):
                continue
            if not rule.fires():
                continue
            if decision is None:
                decision = FaultDecision(label=rule.label)
            if rule.extra_latency_s > 0.0:
                decision.extra_latency_s += rule.extra_latency_s
            else:
                decision.drop = True
        return decision

    # -- reporting ------------------------------------------------------------

    def injection_summary(self) -> Dict[str, int]:
        """Injected-fault counts per rule label (for reports/tests)."""
        summary: Dict[str, int] = {}
        for rule in self._rules:
            summary[rule.label] = summary.get(rule.label, 0) + rule.injected
        for event in self._crashes:
            if event.fired:
                label = f"crash:{event.host}"
                summary[label] = summary.get(label, 0) + 1
        return summary
