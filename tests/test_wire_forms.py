"""Every rowset a production service sends travels as a ``colset``.

The row form (``xsi:type="rowset"``, one element per cell) is the paper's
wire format and survives only as the encoder's default for a bare
:class:`WireRowSet` — E7's "paper" arm, the ledger probes and the codec
oracle. Nothing the federation itself sends may carry it: not the Portal's
``SubmitQuery`` answer, not the Query service's replies (count probes,
calibration samples, the chunked relay and its chunks), not the chain's
batches, not a 2PC ``StageRows`` (replica and shard provisioning, ingest
fan-out), not an ``UploadBatch``. Each federation below is recorded from
its first registration message on.
"""

import pytest

from repro.baselines.pull_mediator import PullMediator
from repro.federation.builder import FederationConfig, build_federation
from repro.portal.planner import OrderingStrategy
from repro.transport.network import SimulatedNetwork

SQL = (
    "SELECT O.object_id, O.type, T.obj_id FROM SDSS:Photo_Object O, "
    "TWOMASS:Photo_Primary T WHERE AREA(185.0, -0.5, 1500.0) "
    "AND XMATCH(O, T) < 3.5"
)
ROW_FORM = b'xsi:type="rowset"'
COMMON = dict(n_bodies=500, seed=11, replicas=1, cache=True,
              chunk_budget_bytes=12_000)


@pytest.fixture()
def recorded(monkeypatch):
    """(operation, request body, response body) of every delivered call."""
    log = []
    deliver = SimulatedNetwork.request

    def request(self, src_host, http_request, **kwargs):
        response = deliver(self, src_host, http_request, **kwargs)
        log.append((kwargs.get("operation", ""), http_request.body,
                    response.body))
        return response

    monkeypatch.setattr(SimulatedNetwork, "request", request)
    return log


def _assert_colset_only(log, *operations):
    sent = {operation for operation, _, _ in log}
    assert set(operations) <= sent, set(operations) - sent
    carriers = [
        operation
        for operation, request, response in log
        if ROW_FORM in request or ROW_FORM in response
    ]
    assert carriers == []
    assert any(b'xsi:type="colset"' in response for _, _, response in log)


def test_sharded_queries_and_chunked_relays_ship_no_row_form(recorded):
    fed = build_federation(FederationConfig(shards=2, **COMMON))
    client = fed.client()
    answer = client.submit(SQL)
    assert len(answer) > 0
    assert client.submit(SQL).rows == answer.rows  # the cached answer
    # Calibration samples (ExecuteQuery) run only for a byte-ordered plan,
    # and only on a cache miss: an AREA no cached answer contains.
    assert fed.portal.submit(
        SQL.replace("1500.0", "1600.0"), strategy=OrderingStrategy.BYTES_DESC
    ).rows
    assert sorted(PullMediator(fed.portal).execute(SQL).rows) == sorted(
        answer.rows
    )
    _assert_colset_only(
        recorded, "SubmitQuery", "ExecuteQueryPinned", "ExecuteQuery",
        "ExecuteQueryChunked", "FetchChunk", "PerformXMatch", "StageRows",
    )


def test_ingest_commit_ships_no_row_form(recorded):
    fed = build_federation(FederationConfig(ingest=True, **COMMON))
    node = fed.node("SDSS")
    table = node.db.table(node.info.primary_table)
    columns = [column.name for column in table.schema.columns]
    rows = [table.row(pos) for pos in range(40)]
    id_index = columns.index(node.info.object_id_column)
    fresh = [
        tuple(v + 10_000_000 if i == id_index else v for i, v in enumerate(r))
        for r in rows
    ]
    result = fed.ingest_client("SDSS").ingest_rows(
        node.info.primary_table, columns, fresh, batch_size=25
    )
    assert result.committed
    assert len(fed.client().submit(SQL)) > 0
    _assert_colset_only(
        recorded, "UploadBatch", "CommitEpoch", "StageRows", "SubmitQuery",
    )
