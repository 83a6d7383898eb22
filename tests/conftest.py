"""Shared fixtures: federations are expensive, so session-scope them."""

from __future__ import annotations

import pytest

from repro.errors import SoapFaultError
from repro.federation.builder import FederationConfig, build_federation
from repro.portal.executor import WHOLE_RESULT
from repro.services.client import ServiceProxy
from repro.workloads.skysim import SkyField


@pytest.fixture(scope="session")
def small_federation():
    """A three-survey federation over a 0.5-degree field, 600 bodies."""
    return build_federation(
        FederationConfig(
            n_bodies=600,
            seed=77,
            sky_field=SkyField(185.0, -0.5, 1800.0),
        )
    )


@pytest.fixture(scope="session")
def figure2():
    """The exact Figure 2 two-body scenario (federation, ids)."""
    from repro.bench.scenarios import build_figure2_federation

    return build_figure2_federation()


@pytest.fixture()
def fresh_metrics(small_federation):
    """The shared federation with its network metrics reset."""
    small_federation.network.metrics.reset()
    return small_federation


@pytest.fixture()
def reopen_hop():
    """Open one hop's stream the way a retried chain would.

    ``reopen(fed, plan, qid, position=0)`` calls ``PerformXMatch`` on the
    hop at ``position`` of the wire ``plan`` from an outside host and
    returns ``(response, downstream)``: the hop's answer (the
    ``SoapFaultError`` itself when it faulted) and the requests the
    federation's own hosts sent to produce it — none when the hop replayed
    a drained stream's payload, which is what makes it the checkpoint.
    """

    def reopen(
        fed, plan, qid, position=0, *, batch_size=WHOLE_RESULT, start_seq=0
    ):
        proxy = ServiceProxy(
            fed.network, "tester.skyquery.net", plan["steps"][position]["url"]
        )
        messages = fed.network.metrics.messages
        before = len(messages)
        try:
            response = proxy.call(
                "PerformXMatch", plan=plan, position=position, qid=qid,
                batch_size=batch_size, start_seq=start_seq,
            )
        except SoapFaultError as fault:
            response = fault
        downstream = [
            m for m in messages[before:]
            if m.kind == "request" and not m.src.startswith("tester")
        ]
        return response, downstream

    return reopen
