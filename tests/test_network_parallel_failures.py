"""Parallel dispatch semantics and failure injection."""

import pytest

from repro.errors import TransportError
from repro.transport.http import HttpRequest, HttpResponse
from repro.transport.network import SimulatedNetwork


def echo(request):
    return HttpResponse(200, body=request.body)


def make_net():
    net = SimulatedNetwork(default_latency_s=0.1, default_bandwidth_bps=1e9)
    net.add_host("a", echo)
    net.add_host("b", echo)
    return net


class TestParallel:
    def test_parallel_clock_is_makespan(self):
        net = make_net()
        with net.parallel():
            net.request("c", HttpRequest("POST", "http://a/x"))
            net.request("c", HttpRequest("POST", "http://b/x"))
        # Each round trip ~0.2s; parallel => ~0.2s total, not 0.4s.
        assert net.clock.now == pytest.approx(0.2, abs=0.02)

    def test_sequential_clock_is_sum(self):
        net = make_net()
        net.request("c", HttpRequest("POST", "http://a/x"))
        net.request("c", HttpRequest("POST", "http://b/x"))
        assert net.clock.now == pytest.approx(0.4, abs=0.02)

    def test_parallel_metrics_unchanged(self):
        net = make_net()
        with net.parallel():
            net.request("c", HttpRequest("POST", "http://a/x", body=b"xy"))
            net.request("c", HttpRequest("POST", "http://b/x", body=b"xy"))
        assert net.metrics.message_count() == 4

    def test_parallel_slowest_link_dominates(self):
        net = make_net()
        net.set_link("c", "b", latency_s=1.0)
        with net.parallel():
            net.request("c", HttpRequest("POST", "http://a/x"))
            net.request("c", HttpRequest("POST", "http://b/x"))
        assert net.clock.now == pytest.approx(2.0, abs=0.02)

    def test_empty_parallel_block(self):
        net = make_net()
        with net.parallel():
            pass
        assert net.clock.now == 0.0

    def test_nested_requests_stay_sequential_inside_one_branch(self):
        # A handler that fans out internally: its sub-requests serialize
        # within the branch even under parallel dispatch.
        net = SimulatedNetwork(default_latency_s=0.1, default_bandwidth_bps=1e9)
        net.add_host("leaf", echo)

        def fanout(request):
            net.request("mid", HttpRequest("POST", "http://leaf/x"))
            net.request("mid", HttpRequest("POST", "http://leaf/x"))
            return HttpResponse(200)

        net.add_host("mid", fanout)
        with net.parallel():
            net.request("c", HttpRequest("POST", "http://mid/x"))
        # Branch cost: c->mid round trip (0.2) + two nested round trips (0.4).
        assert net.clock.now == pytest.approx(0.6, abs=0.05)


class TestFailureInjection:
    def test_failed_host_unreachable(self):
        net = make_net()
        net.fail_host("a")
        with pytest.raises(TransportError):
            net.request("c", HttpRequest("POST", "http://a/x"))

    def test_failed_source_cannot_send(self):
        net = make_net()
        net.fail_host("c")
        with pytest.raises(TransportError):
            net.request("c", HttpRequest("POST", "http://a/x"))

    def test_restore_host(self):
        net = make_net()
        net.fail_host("a")
        net.restore_host("a")
        assert net.request("c", HttpRequest("POST", "http://a/x")).ok
        assert not net.is_failed("a")

    def test_remove_unknown_host_raises(self):
        net = make_net()
        with pytest.raises(TransportError):
            net.remove_host("never-registered")

    def test_remove_then_rereg_roundtrip(self):
        net = make_net()
        net.remove_host("a")
        assert not net.has_host("a")
        net.add_host("a", echo)  # the name is free again
        assert net.request("c", HttpRequest("POST", "http://a/x")).ok


class TestFederationFailures:
    def test_dead_mandatory_node_degrades_instead_of_raising(
        self, small_federation
    ):
        fed = small_federation
        sql = (
            "SELECT O.object_id, T.obj_id "
            "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T "
            "WHERE AREA(185.0, -0.5, 600.0) AND XMATCH(O, T) < 3.5"
        )
        node = fed.node("TWOMASS")
        fed.network.fail_host(node.hostname)
        try:
            result = fed.client().submit(sql)
            assert result.degraded
            assert result.rows == []
            assert any("TWOMASS" in warning for warning in result.warnings)
        finally:
            fed.network.restore_host(node.hostname)
        # Recovery: the same query works once the node is back.
        recovered = fed.client().submit(sql)
        assert len(recovered) > 0
        assert not recovered.degraded

    def test_mid_chain_failure_leaves_no_temp_tables(self, small_federation):
        fed = small_federation
        sql = (
            "SELECT O.object_id, T.obj_id, P.object_id "
            "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T, "
            "FIRST:Primary_Object P "
            "WHERE AREA(185.0, -0.5, 600.0) AND XMATCH(O, T, P) < 3.5"
        )
        # Kill the node that seeds the chain (FIRST has the lowest count).
        node = fed.node("FIRST")
        fed.network.fail_host(node.hostname)
        try:
            result = fed.client().submit(sql)
            assert result.degraded and result.rows == []
        finally:
            fed.network.restore_host(node.hostname)
        for other in fed.nodes.values():
            leftovers = [n for n in other.db._tables if "tmp" in n]
            assert leftovers == []

    def test_registration_of_unreachable_portal_fails(self, small_federation):
        fed = small_federation
        node = fed.node("SDSS")
        fed.network.fail_host(fed.portal.hostname)
        try:
            with pytest.raises(TransportError):
                node.register_with_portal(
                    fed.portal.service_url("registration")
                )
        finally:
            fed.network.restore_host(fed.portal.hostname)
