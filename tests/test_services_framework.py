"""The web-service framework: dispatch, faults, hosting, proxies."""

import pytest

from repro.errors import (
    QueryError,
    ServiceError,
    SoapFaultError,
    TransportError,
)
from repro.services.client import ServiceProxy
from repro.services.framework import ServiceHost, WebService
from repro.soap.envelope import build_rpc_request
from repro.transport.http import HttpRequest
from repro.transport.network import SimulatedNetwork


def make_service():
    service = WebService("Calc")
    service.register(
        "Add", lambda a, b: a + b,
        params=(("a", "int"), ("b", "int")), returns="int",
    )
    service.register("Boom", lambda: 1 / 0)
    def fail_domain():
        raise QueryError("domain problem")
    service.register("Fail", fail_domain)
    return service


def test_dispatch_success():
    status, xml = make_service().handle_soap(
        build_rpc_request("Add", {"a": 2, "b": 3}).encode()
    )
    assert status == 200
    from repro.soap.envelope import parse_rpc_response

    assert parse_rpc_response(xml) == 5


def test_unknown_operation_fault():
    status, xml = make_service().handle_soap(
        build_rpc_request("Nope", {}).encode()
    )
    assert status == 500
    assert "UnknownOperation" in xml


def test_bad_arguments_fault():
    status, xml = make_service().handle_soap(
        build_rpc_request("Add", {"a": 1}).encode()
    )
    assert status == 500
    assert "BadArguments" in xml


def test_domain_error_becomes_server_fault():
    status, xml = make_service().handle_soap(
        build_rpc_request("Fail", {}).encode()
    )
    assert status == 500
    assert "domain problem" in xml


def test_internal_error_becomes_fault_not_crash():
    service = make_service()
    status, xml = service.handle_soap(build_rpc_request("Boom", {}).encode())
    assert status == 500
    assert "Internal" in xml
    assert service.faults_returned == 1


def test_malformed_request_fault():
    status, xml = make_service().handle_soap(b"<garbage")
    assert status == 500
    assert "malformed request" in xml


def test_oversized_request_fault():
    service = WebService("S", parser_memory_limit=100)
    service.register("Op", lambda: True)
    body = build_rpc_request("Op", {"pad": "x" * 500}).encode()
    status, xml = service.handle_soap(body)
    assert status == 500
    assert "OutOfMemory" in xml


def test_duplicate_operation_rejected():
    service = WebService("S")
    service.register("Op", lambda: 1)
    with pytest.raises(ServiceError):
        service.register("Op", lambda: 2)


def test_unserializable_result_fault():
    service = WebService("S")
    service.register("Op", lambda: object())
    status, xml = service.handle_soap(build_rpc_request("Op", {}).encode())
    assert status == 500
    assert "Serialization" in xml


def test_describe_and_wsdl():
    service = make_service()
    description = service.describe("http://h/calc")
    assert description.operation("Add").params == (("a", "int"), ("b", "int"))
    assert "wsdl:definitions" in service.wsdl("http://h/calc")


class TestServiceHost:
    def make_net(self):
        net = SimulatedNetwork()
        host = ServiceHost("calc.net")
        url = host.mount("/calc", make_service())
        net.add_host("calc.net", host.handle)
        return net, host, url

    def test_mount_returns_url(self):
        _, host, url = self.make_net()
        assert url == "http://calc.net/calc"
        assert host.service_at("/calc") is not None
        assert host.service_at("calc") is not None

    def test_duplicate_mount_rejected(self):
        _, host, _ = self.make_net()
        with pytest.raises(ServiceError):
            host.mount("/calc", make_service())

    def test_proxy_call(self):
        net, _, url = self.make_net()
        proxy = ServiceProxy(net, "client", url)
        assert proxy.call("Add", a=20, b=22) == 42

    def test_proxy_fault_propagates(self):
        net, _, url = self.make_net()
        proxy = ServiceProxy(net, "client", url)
        with pytest.raises(SoapFaultError):
            proxy.call("Fail")

    def test_unknown_path_404(self):
        net, _, _ = self.make_net()
        response = net.request(
            "client", HttpRequest("POST", "http://calc.net/nope")
        )
        assert response.status == 404

    def test_wsdl_fetch(self):
        net, _, url = self.make_net()
        proxy = ServiceProxy(net, "client", url)
        description = proxy.fetch_wsdl()
        assert description.name == "Calc"
        assert description.operation("Add") is not None

    def test_proxy_checks_description(self):
        net, _, url = self.make_net()
        proxy = ServiceProxy(net, "client", url)
        proxy.fetch_wsdl()
        with pytest.raises(TransportError):
            proxy.call("NotDescribed")

    def test_get_returns_wsdl(self):
        net, _, _ = self.make_net()
        response = net.request(
            "client", HttpRequest("GET", "http://calc.net/calc?wsdl")
        )
        assert response.ok
        assert b"wsdl:definitions" in response.body

    def test_fault_text_xml_cannot_carry_reaches_the_client_escaped(self):
        # The message and the traceback detail hold U+0008 and a lone
        # surrogate: the fault carries them as escapes, the client gets
        # the fault (not an XML syntax error), and the service serves on.
        net, host, url = self.make_net()

        def garble():
            raise ValueError("bad \x08 \ud800")

        host.service_at("/calc").register("Garble", garble)
        proxy = ServiceProxy(net, "client", url)
        with pytest.raises(SoapFaultError) as fault:
            proxy.call("Garble")
        assert fault.value.faultcode == "soap:Server.Internal"
        assert fault.value.faultstring == "ValueError: bad \\x08 \\ud800"
        assert fault.value.detail.endswith("ValueError: bad \\x08 \\ud800\n")
        assert proxy.call("Add", a=1, b=2) == 3

    def test_calls_handled_counter(self):
        net, host, url = self.make_net()
        proxy = ServiceProxy(net, "client", url)
        proxy.call("Add", a=1, b=2)
        assert host.service_at("/calc").calls_handled == 1
