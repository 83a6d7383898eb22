"""A hop's checkpoint is the batch it shipped, encoded once.

A hop keeps the batch it served last as the colset it travelled as
(:class:`~repro.soap.encoding.EncodedColset`), not as Python rows. A
retried final ``PullBatch`` and a re-opened drained stream are therefore
answered with the very bytes of the first answer, without calling the
colset encoder again, and a settled checkpoint's batch holds no more than
the wire bytes of the responses that carried it.
"""

import sys

import pytest

import repro.soap.encoding as encoding
from repro.federation.builder import FederationConfig, build_federation
from repro.workloads.skysim import SkyField

XMATCH_SQL = (
    "SELECT O.object_id, O.ra, T.obj_id "
    "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T, "
    "FIRST:Primary_Object P "
    "WHERE AREA(185.0, -0.5, 900.0) AND XMATCH(O, T, P) < 3.5"
)


def _run(**config):
    """A clean query; returns (federation, result, every SOAP exchange
    each node's cross-match service answered, as (request, status, xml))."""
    fed = build_federation(FederationConfig(
        n_bodies=500, seed=11, sky_field=SkyField(185.0, -0.5, 1800.0),
        **config,
    ))
    exchanges = {}
    for node in fed.nodes.values():
        service, log = node.crossmatch, []
        exchanges[node.hostname] = log

        def recording(body, *, hostname=None, _handle=service.handle_soap,
                      _log=log):
            status, xml = _handle(body, hostname=hostname)
            _log.append((body, status, xml))
            return status, xml

        service.handle_soap = recording
    result = fed.portal.submit(XMATCH_SQL)
    assert result.rows and not result.degraded
    return fed, result, exchanges


@pytest.fixture
def encoder_calls(monkeypatch):
    """How many colsets are encoded while the test runs."""
    calls = []
    encode = encoding._encode_colset

    def counting(name, rowset):
        calls.append(len(rowset.rows))
        return encode(name, rowset)

    monkeypatch.setattr(encoding, "_encode_colset", counting)
    return calls


def _replay(fed, hostname, operation, exchanges):
    """Send a node's last ``operation`` request again, as a retry would;
    returns (first answer, the answer to the retry)."""
    node = next(n for n in fed.nodes.values() if n.hostname == hostname)
    body, status, xml = [
        exchange for exchange in exchanges[hostname]
        if f"<sky:{operation}>" in exchange[0].decode("utf-8")
    ][-1]
    assert status == 200
    return xml, node.crossmatch.handle_soap(body, hostname=hostname)


def test_retried_final_pull_batch_is_the_same_bytes_encoded_once(
    encoder_calls,
):
    fed, result, exchanges = _run(chain_mode="pipelined", stream_batch_size=8)
    head = result.plan.steps[0].url.split("/")[2]
    del encoder_calls[:]
    first, (status, again) = _replay(fed, head, "PullBatch", exchanges)
    assert status == 200 and again == first
    assert encoder_calls == []


def test_reopened_drained_stream_is_the_same_bytes_encoded_once(
    encoder_calls,
):
    fed, result, exchanges = _run()
    del encoder_calls[:]
    for step in result.plan.steps:
        hostname = step.url.split("/")[2]
        first, (status, again) = _replay(
            fed, hostname, "PerformXMatch", exchanges
        )
        assert status == 200 and again == first
    assert encoder_calls == []


def _retained_bytes(obj, seen):
    """``obj``'s deep size: itself and everything it references."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        size += sum(
            _retained_bytes(key, seen) + _retained_bytes(value, seen)
            for key, value in obj.items()
        )
    elif isinstance(obj, (list, tuple)):
        size += sum(_retained_bytes(item, seen) for item in obj)
    elif hasattr(obj, "__dict__"):
        size += _retained_bytes(vars(obj), seen)
    else:
        size += sum(
            _retained_bytes(getattr(obj, slot), seen)
            for cls in type(obj).__mro__
            for slot in getattr(cls, "__slots__", ())
        )
    return size


@pytest.mark.parametrize("config", [
    {}, {"chunk_budget_bytes": 1024},
], ids=["inline", "chunked"])
def test_settled_checkpoint_holds_no_more_than_its_wire_size(config):
    fed, result, _ = _run(**config)
    qid = f"{fed.portal.hostname}-x1"
    shipped = {}
    for message in fed.network.metrics.messages:
        if message.kind == "response" and message.operation in (
            "PerformXMatch", "FetchChunk",
        ):
            shipped[message.src] = shipped.get(message.src, 0) + (
                message.wire_bytes
            )
    checked = 0
    for node in fed.nodes.values():
        for kind, _, lease in node.leases.owned_by(qid):
            if kind != "stream":
                continue
            assert not lease.live  # drained: the settled checkpoint
            shipment, _ = lease.value.served
            assert _retained_bytes(shipment, set()) <= shipped[node.hostname]
            checked += 1
    assert checked == len(result.plan.steps)
