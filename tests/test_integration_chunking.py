"""Chunked transfers and the parser-memory failure mode, end to end."""

import pytest

from repro.errors import SoapFaultError
from repro.federation.builder import FederationConfig, build_federation
from repro.workloads.skysim import SkyField
from repro.services.chunked import TRANSFER

SQL = (
    "SELECT O.object_id, T.obj_id "
    "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T "
    "WHERE AREA(185.0, -0.5, 1800.0) AND XMATCH(O, T) < 3.5"
)


def make_fed(parser_memory_limit, chunk_budget_bytes, n_bodies=1200, **config):
    return build_federation(
        FederationConfig(
            n_bodies=n_bodies,
            seed=5,
            sky_field=SkyField(185.0, -0.5, 1800.0),
            parser_memory_limit=parser_memory_limit,
            chunk_budget_bytes=chunk_budget_bytes,
            **config,
        )
    )


#: The parser budget every test here shares. The parser charges 4x a
#: document's bytes, so this refuses documents above 50,000 bytes: the
#: monolithic partial result of SQL (about 60,000 bytes since doubles
#: travel as base64 float64, 90,600 as decimal text) does not fit, and a
#: chunk of at most 32,768 bytes does.
PARSER_LIMIT = 200_000


@pytest.fixture(scope="module")
def reference_rows():
    fed = make_fed(parser_memory_limit=None, chunk_budget_bytes=None)
    return sorted(fed.client().submit(SQL).rows)


def test_monolithic_oom_faults(reference_rows):
    fed = make_fed(parser_memory_limit=PARSER_LIMIT, chunk_budget_bytes=None)
    with pytest.raises(SoapFaultError) as err:
        fed.client().submit(SQL)
    assert "memory" in str(err.value).lower()


def test_chunked_succeeds_under_same_limit(reference_rows):
    fed = make_fed(parser_memory_limit=PARSER_LIMIT, chunk_budget_bytes=32_768)
    result = fed.client().submit(SQL)
    assert sorted(result.rows) == reference_rows


#: The chunk budget applies to every batch, however the result is cut: as
#: one batch in the pipelined mode's spelling (monolithic, it outgrows the
#: parser exactly like store-forward) or as several batches that each
#: still exceed the budget.
BATCHED = {
    "one-batch": dict(chain_mode="pipelined", stream_batch_size=10**6),
    "big-batches": dict(chain_mode="pipelined", stream_batch_size=700),
}


def test_one_pipelined_batch_ooms_like_store_forward(reference_rows):
    fed = make_fed(
        parser_memory_limit=PARSER_LIMIT, chunk_budget_bytes=None,
        **BATCHED["one-batch"],
    )
    with pytest.raises(SoapFaultError) as err:
        fed.client().submit(SQL)
    assert "memory" in str(err.value).lower()


@pytest.mark.parametrize("batching", sorted(BATCHED))
def test_pulled_batches_are_chunked_under_the_same_limit(
    reference_rows, batching
):
    fed = make_fed(
        parser_memory_limit=PARSER_LIMIT, chunk_budget_bytes=32_768,
        **BATCHED[batching],
    )
    fed.network.metrics.reset()
    result = fed.client().submit(SQL)
    assert sorted(result.rows) == reference_rows
    assert fed.network.metrics.message_count(phase="chunk-transfer") > 0
    for node in fed.nodes.values():
        assert node.crossmatch.open_streams == 0
        assert node.leases.held(TRANSFER) == 0


def test_chunk_messages_respect_budget(reference_rows):
    budget = 32_768
    fed = make_fed(parser_memory_limit=PARSER_LIMIT, chunk_budget_bytes=budget)
    fed.network.metrics.reset()
    fed.client().submit(SQL)
    # Chunk drains carry their own phase label, separate from chain control.
    chain = [
        m
        for m in fed.network.metrics.messages
        if m.phase == "chunk-transfer" and m.operation == "FetchChunk"
        and m.kind == "response"
    ]
    assert chain, "expected chunked FetchChunk traffic"
    # HTTP headers add a little on top of the SOAP envelope budget.
    assert all(m.wire_bytes <= budget + 512 for m in chain)


def test_smaller_chunks_mean_more_messages(reference_rows):
    def chain_messages(budget):
        fed = make_fed(parser_memory_limit=None, chunk_budget_bytes=budget)
        fed.network.metrics.reset()
        fed.client().submit(SQL)
        metrics = fed.network.metrics
        return metrics.message_count(
            phase="crossmatch-chain"
        ) + metrics.message_count(phase="chunk-transfer")

    assert chain_messages(16_384) > chain_messages(65_536)


def test_chunking_preserves_results_exactly(reference_rows):
    fed = make_fed(parser_memory_limit=None, chunk_budget_bytes=16_384)
    assert sorted(fed.client().submit(SQL).rows) == reference_rows


def test_transfers_cleaned_up_after_fetch(reference_rows):
    fed = make_fed(parser_memory_limit=None, chunk_budget_bytes=16_384)
    fed.client().submit(SQL)
    for node in fed.nodes.values():
        assert node.leases.held(TRANSFER) == 0
