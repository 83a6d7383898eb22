"""The simulated network."""

import pytest

from repro.errors import TransportError
from repro.transport.http import HttpRequest, HttpResponse
from repro.transport.network import Link, SimClock, SimulatedNetwork


def echo_handler(request):
    return HttpResponse(200, body=request.body)


def test_clock_advances_monotonically():
    clock = SimClock()
    clock.advance(1.5)
    clock.advance(0.5)
    assert clock.now == pytest.approx(2.0)
    with pytest.raises(ValueError):
        clock.advance(-1.0)


def test_link_transfer_time():
    link = Link(latency_s=0.1, bandwidth_bps=1000.0)
    assert link.transfer_time(500) == pytest.approx(0.1 + 0.5)


def test_request_response_delivery():
    net = SimulatedNetwork()
    net.add_host("h", echo_handler)
    response = net.request("client", HttpRequest("POST", "http://h/x", body=b"ping"))
    assert response.body == b"ping"


def test_unknown_host_raises():
    net = SimulatedNetwork()
    with pytest.raises(TransportError):
        net.request("client", HttpRequest("POST", "http://nowhere/x"))


def test_duplicate_host_rejected():
    net = SimulatedNetwork()
    net.add_host("h", echo_handler)
    with pytest.raises(TransportError):
        net.add_host("h", echo_handler)


def test_remove_host():
    net = SimulatedNetwork()
    net.add_host("h", echo_handler)
    net.remove_host("h")
    assert not net.has_host("h")


def test_clock_charged_both_directions():
    net = SimulatedNetwork(default_latency_s=0.1, default_bandwidth_bps=1e9)
    net.add_host("h", echo_handler)
    net.request("client", HttpRequest("POST", "http://h/x", body=b"hi"))
    assert net.clock.now == pytest.approx(0.2, abs=0.01)


def test_link_override():
    net = SimulatedNetwork(default_latency_s=0.0, default_bandwidth_bps=1e9)
    net.set_link("client", "h", latency_s=1.0)
    net.add_host("h", echo_handler)
    net.request("client", HttpRequest("POST", "http://h/x"))
    assert net.clock.now >= 2.0  # both directions use the symmetric link


def test_asymmetric_link():
    net = SimulatedNetwork()
    net.set_link("a", "b", latency_s=9.0, symmetric=False)
    assert net.link("a", "b").latency_s == 9.0
    assert net.link("b", "a").latency_s == net._default_link.latency_s


def test_metrics_recorded():
    net = SimulatedNetwork()
    net.add_host("h", echo_handler)
    net.request("client", HttpRequest("POST", "http://h/x", body=b"abc"),
                operation="Op")
    assert net.metrics.message_count() == 2
    kinds = [m.kind for m in net.metrics.messages]
    assert kinds == ["request", "response"]
    assert all(m.operation == "Op" for m in net.metrics.messages)


def test_phase_tagging():
    net = SimulatedNetwork()
    net.add_host("h", echo_handler)
    with net.phase("alpha"):
        net.request("client", HttpRequest("POST", "http://h/x"))
        with net.phase("beta"):
            net.request("client", HttpRequest("POST", "http://h/x"))
    net.request("client", HttpRequest("POST", "http://h/x"))
    by_phase = net.metrics.bytes_by_phase()
    assert set(by_phase) == {"alpha", "beta", "unspecified"}
    assert net.metrics.message_count(phase="alpha") == 2
    assert net.metrics.message_count(phase="beta") == 2


def test_bytes_by_link():
    net = SimulatedNetwork()
    net.add_host("h", echo_handler)
    net.request("client", HttpRequest("POST", "http://h/x", body=b"abc"))
    by_link = net.metrics.bytes_by_link()
    assert ("client", "h") in by_link
    assert ("h", "client") in by_link


def test_total_bytes_filters():
    net = SimulatedNetwork()
    net.add_host("h", echo_handler)
    with net.phase("p"):
        net.request("client", HttpRequest("POST", "http://h/x"))
    assert net.metrics.total_bytes(phase="p") == net.metrics.total_bytes()
    assert net.metrics.total_bytes(phase="other") == 0
    assert net.metrics.total_bytes(src="client") > 0
    assert net.metrics.total_bytes(src="nope") == 0


def test_metrics_reset():
    net = SimulatedNetwork()
    net.add_host("h", echo_handler)
    net.request("client", HttpRequest("POST", "http://h/x"))
    net.metrics.reset()
    assert net.metrics.message_count() == 0
    assert net.metrics.simulated_seconds == 0.0


def test_metrics_reset_returns_every_field_to_its_default():
    """reset() walks the dataclass fields, so no counter can be missed:
    dirty every field, reset, and compare against a fresh instance."""
    import dataclasses

    from repro.transport.metrics import MessageRecord, NetworkMetrics

    metrics = NetworkMetrics()
    for spec in dataclasses.fields(metrics):
        value = getattr(metrics, spec.name)
        if isinstance(value, list):
            value.append(MessageRecord("a", "b", 1, "request", "p", "Op", 0.0))
        elif isinstance(value, dict):
            value["request-drop"] = 3
        else:
            setattr(metrics, spec.name, value + 7)
    assert all(
        getattr(metrics, spec.name) != getattr(NetworkMetrics(), spec.name)
        for spec in dataclasses.fields(metrics)
    )
    metrics.reset()
    assert metrics == NetworkMetrics()


def test_hostnames_sorted():
    net = SimulatedNetwork()
    net.add_host("b", echo_handler)
    net.add_host("a", echo_handler)
    assert net.hostnames() == ["a", "b"]
