"""A partial tuple is its wire row.

The chain's hops and the Portal work on the rows of the partial-tuple
rowset (member ids, the four running sums ``(a, ax, ay, az)``, the carried
attributes) and never build :class:`PartialTuple` objects. This file holds
that row form to the in-memory oracle bit for bit, and checks that a
hostile batch is refused with a typed fault wherever it arrives.
"""

import pytest

from repro.errors import ExecutionError, SoapError
from repro.federation.builder import FederationConfig, build_federation
from repro.portal import executor as executor_module
from repro.skynode import crossmatch as crossmatch_module
from repro.soap.encoding import WireRowSet
from repro.units import arcsec_to_rad
from repro.workloads.skysim import SkyField
from repro.xmatch.tuples import LocalObject, PartialTuple
from repro.xmatch.wire import rowset_to_tuples, tuple_rows, tuple_schema

ALIASES = ["A", "B"]
ATTRS = [("A.flux", "double"), ("B.name", "string")]

DROPOUT_SQL = (
    "SELECT O.object_id, O.ra, T.obj_id, O.i_flux - T.i_flux AS color "
    "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T, "
    "FIRST:Primary_Object P "
    "WHERE AREA(185.0, -0.5, 900.0) AND XMATCH(O, T, !P) < 3.5"
)

PAIR_SQL = (
    "SELECT O.object_id, T.obj_id, O.type "
    "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T "
    "WHERE AREA(185.0, -0.5, 900.0) AND XMATCH(O, T) < 3.5"
)


def _config(**kw):
    config = dict(n_bodies=300, seed=11, sky_field=SkyField(185.0, -0.5, 1800.0))
    config.update(kw)
    return FederationConfig(**config)


# -- the one check: schema, and no NULL id or accumulator cell ---------------


def _rowset(rows, columns=None):
    return WireRowSet(columns or tuple_schema(ALIASES, ATTRS), rows)


GOOD = (1, 2, 8.0, 1.0, 2.0, 3.0, 10.5, "x")


def test_well_formed_rows_pass_unchanged():
    rows = [GOOD, (3, 4, 8.0, -0.0, 0.0, 1.0, None, None)]
    assert tuple_rows(_rowset(rows), ALIASES, ATTRS) is rows


@pytest.mark.parametrize(
    "row, column",
    [
        ((1, None) + GOOD[2:], "id_B"),
        ((None,) + GOOD[1:], "id_A"),
        (GOOD[:2] + (None,) + GOOD[3:], "acc_a"),
        (GOOD[:5] + (None,) + GOOD[6:], "acc_az"),
    ],
)
def test_null_id_or_accumulator_is_a_soap_error(row, column):
    for decode in (tuple_rows, rowset_to_tuples):
        with pytest.raises(SoapError, match=f"row 1 has a NULL {column} cell"):
            decode(_rowset([GOOD, row]), ALIASES, ATTRS)


def test_null_attribute_cells_are_allowed():
    row = GOOD[:6] + (None, None)
    (decoded,) = rowset_to_tuples(_rowset([row]), ALIASES, ATTRS)
    assert decoded.attributes == {"A.flux": None, "B.name": None}


def test_wrong_schema_is_a_soap_error():
    wrong = tuple_schema(["B", "A"], ATTRS)
    for decode in (tuple_rows, rowset_to_tuples):
        with pytest.raises(SoapError, match="does not match expected"):
            decode(_rowset([GOOD], wrong), ALIASES, ATTRS)
        with pytest.raises(SoapError, match="does not match expected"):
            decode(_rowset([GOOD]), ALIASES, ATTRS[:1])


def _null_first_id(width):
    """A ``tuples_to_payload`` that NULLs the first id of every non-empty
    batch with ``width`` members."""
    encode = crossmatch_module.tuples_to_payload

    def hostile(rows, member_aliases, attr_columns):
        rows = list(rows)
        if rows and len(member_aliases) == width:
            rows[0] = (None,) + tuple(rows[0][1:])
        return encode(rows, member_aliases, attr_columns)

    return hostile


def test_a_hop_refuses_a_null_id_with_a_typed_fault(monkeypatch):
    fed = build_federation(_config())
    # The seed hop ships a NULL id; the next hop faults with the SoapError
    # (not a TypeError dressed as bad arguments), and the chain gives up.
    monkeypatch.setattr(crossmatch_module, "tuples_to_payload", _null_first_id(1))
    with pytest.raises(
        ExecutionError, match="soap:Server: row 0 has a NULL id_T cell"
    ):
        fed.portal.submit(PAIR_SQL)


def test_a_deterministic_chain_fault_is_not_retried(monkeypatch):
    """A hop's SoapError would recur on every rerun (the drained seed
    stream replays the same bad payload), so the Portal opens the chain
    once and gives up, in the retry budget's own words."""
    fed = build_federation(_config())
    monkeypatch.setattr(crossmatch_module, "tuples_to_payload", _null_first_id(1))
    before = len(fed.network.metrics.messages)
    with pytest.raises(
        ExecutionError,
        match=r"chain failed after 1 attempt\(s\): soap:Server: row 0 has a NULL",
    ):
        fed.portal.submit(PAIR_SQL)
    opens = [
        m for m in fed.network.metrics.messages[before:]
        if m.operation == "PerformXMatch" and m.kind == "request"
        and m.src == fed.portal.hostname
    ]
    assert len(opens) == 1


def test_the_portal_refuses_a_null_id(monkeypatch):
    fed = build_federation(_config())
    # Only the head's answer (both members) carries the NULL.
    monkeypatch.setattr(crossmatch_module, "tuples_to_payload", _null_first_id(2))
    with pytest.raises(SoapError, match="row 0 has a NULL id_"):
        fed.portal.submit(PAIR_SQL)


# -- the bitwise accumulator oracle ------------------------------------------


def _answers(monkeypatch, fed, sql):
    """Submit ``sql``; return its plan and every chain answer the Portal
    checked, as ``(member aliases, rows)``."""
    seen = []
    check = executor_module.tuple_rows

    def recording(rowset, member_aliases, attr_columns):
        rows = check(rowset, member_aliases, attr_columns)
        seen.append((list(member_aliases), rows))
        return rows

    monkeypatch.setattr(executor_module, "tuple_rows", recording)
    result = fed.portal.submit(sql)
    assert not result.degraded and len(result) > 0
    return result, seen


def _stored_positions(fed, archive):
    """object id -> the stored position of that object (the full archive)."""
    node = fed.node(archive)
    table = node.db.table(node.info.primary_table)
    names = [column.name for column in table.schema.columns]
    id_at = names.index(node.info.object_id_column)
    return {
        table.row(pos)[id_at]: table.position_of(pos) for pos in range(len(table))
    }


def _assert_bitwise(fed, result, answers):
    steps = {step.alias: step for step in result.plan.steps}
    positions = {
        alias: _stored_positions(fed, step.archive) for alias, step in steps.items()
    }
    checked = 0
    for aliases, rows in answers:
        n = len(aliases)
        for row in rows:
            members = [
                (alias, LocalObject(object_id, positions[alias][object_id]))
                for alias, object_id in zip(aliases, row[:n])
            ]
            (alias, first), rest = members[0], members[1:]
            oracle = PartialTuple.seed(
                alias, first, arcsec_to_rad(steps[alias].sigma_arcsec)
            )
            for alias, obj in rest:
                oracle = oracle.extended(
                    alias, obj, arcsec_to_rad(steps[alias].sigma_arcsec)
                )
            acc = oracle.acc
            assert [v.hex() for v in row[n:n + 4]] == [
                v.hex() for v in (acc.a, acc.ax, acc.ay, acc.az)
            ]
            checked += 1
    assert checked == result.matched_tuples > 0


def test_accumulators_bitwise_three_archives_with_a_dropout(monkeypatch):
    fed = build_federation(_config())
    result, answers = _answers(monkeypatch, fed, DROPOUT_SQL)
    (dropout,) = [s for s in result.node_stats if s["role"] == "dropout"]
    assert dropout["tuples_out"] < dropout["tuples_in"]
    (aliases, _), = answers
    assert len(aliases) == 2
    _assert_bitwise(fed, result, answers)


def test_accumulators_bitwise_on_a_two_shard_partition_chain(monkeypatch):
    fed = build_federation(_config(shards=2))
    assert len(fed.portal.explain(PAIR_SQL)["partitions"]) == 2
    result, answers = _answers(monkeypatch, fed, PAIR_SQL)
    assert len(answers) == 2
    _assert_bitwise(fed, result, answers)


def test_accumulators_bitwise_pipelined(monkeypatch):
    fed = build_federation(
        _config(chain_mode="pipelined", stream_batch_size=16)
    )
    result, answers = _answers(monkeypatch, fed, DROPOUT_SQL)
    assert result.node_stats[-1]["batches"] > 1
    _assert_bitwise(fed, result, answers)
