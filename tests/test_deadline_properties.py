"""Property-based tests: deadlines and cancellation leave no trace.

The contract, stated as a property: for ANY deadline placed anywhere in a
query's lifetime, across both chain modes and both match engines, the
outcome is one of exactly two shapes — a complete answer byte-identical
to an unbudgeted oracle twin, or a degraded empty answer carrying a
"deadline exceeded" warning — and in the degraded case the federation
holds ZERO residual state for the cancelled query (no streams, no
stagings, no chunked transfers, on primaries or replicas), and a
follow-up query on the same federation returns exactly what the oracle
twin returns. Cancellation never perturbs a neighbour.

Overrun-completed queries (budget spent, but no budget-checked operation
dispatched after expiry) legitimately keep their drained streams: that
is a bounded retry cache of a *finished* query, not a leak.

Seeded via ``SKYQUERY_CHAOS_SEED`` like the other property suites so the
CI chaos matrix explores different bodies and deadline placements.
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.federation.builder import FederationConfig, build_federation
from repro.workloads.skysim import SkyField

CHAOS_SEED = int(os.environ.get("SKYQUERY_CHAOS_SEED", "0"))
N_BODIES = 100

SQL = (
    "SELECT O.object_id, O.ra, T.obj_id "
    "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T, "
    "FIRST:Primary_Object P "
    "WHERE AREA(185.0, -0.5, 900.0) AND XMATCH(O, T, P) < 3.5"
)

COMBOS = [
    ("store-forward", "htm"),
    ("store-forward", "zone"),
    ("pipelined", "htm"),
    ("pipelined", "zone"),
]


def _build(chain_mode, match_engine):
    config = FederationConfig(
        n_bodies=N_BODIES,
        seed=37 + CHAOS_SEED,
        sky_field=SkyField(185.0, -0.5, 1800.0),
        chain_mode=chain_mode,
        chunk_budget_bytes=1024,
        replicas=1,
    )
    config.match_engine = match_engine
    federation = build_federation(config)
    # A bounded pull window makes pipelined chains re-check the budget at
    # every batch wave instead of only at stream open.
    federation.portal.stream_pull_window = 2
    return federation


def _all_nodes(federation):
    nodes = list(federation.nodes.values())
    for group in federation.replicas.values():
        nodes.extend(group)
    return nodes


def _residuals(federation, qid):
    return [
        (node.hostname, kind, key)
        for node in _all_nodes(federation)
        for leases in (node.crossmatch.leases, node.query.sender.leases)
        for kind, key, _ in leases.owned_by(qid)
    ]


_oracles = {}


def _oracle(chain_mode, match_engine):
    """One oracle run per combo: the full answer and its wall duration."""
    key = (chain_mode, match_engine)
    if key not in _oracles:
        federation = _build(chain_mode, match_engine)
        t0 = federation.network.clock.now
        result = federation.portal.submit(SQL)
        _oracles[key] = (result, federation.network.clock.now - t0)
    return _oracles[key]


@pytest.mark.parametrize("chain_mode,match_engine", COMBOS)
@given(fraction=st.floats(min_value=0.0, max_value=1.5))
@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_deadline_leaves_zero_residual_state(
    chain_mode, match_engine, fraction
):
    oracle_result, duration = _oracle(chain_mode, match_engine)
    federation = _build(chain_mode, match_engine)
    portal = federation.portal
    qid = f"{portal.hostname}-q{portal.queries_served + 1}"
    deadline = federation.network.clock.now + fraction * duration
    result = portal.submit(SQL, deadline_s=deadline)

    expired = result.degraded and any(
        "deadline exceeded" in w for w in result.warnings
    )
    if expired:
        # Shape one: a typed degraded answer, never a partial row set —
        # and nothing left behind anywhere in the federation.
        assert result.rows == []
        assert _residuals(federation, qid) == []
    else:
        # Shape two: the complete oracle answer (possibly a cooperative
        # overrun, but never a truncated one).
        assert result.rows == oracle_result.rows
        assert result.columns == oracle_result.columns
        assert result.counts == oracle_result.counts
        assert not result.warnings

    # Non-perturbation: the same federation still answers a fresh
    # unbudgeted query exactly like the oracle twin did.
    follow_up = portal.submit(SQL)
    assert follow_up.rows == oracle_result.rows
    assert follow_up.counts == oracle_result.counts
    assert not follow_up.degraded and not follow_up.warnings


@pytest.mark.parametrize("chain_mode,match_engine", COMBOS)
def test_generous_deadline_identical_to_oracle(chain_mode, match_engine):
    oracle_result, _ = _oracle(chain_mode, match_engine)
    federation = _build(chain_mode, match_engine)
    result = federation.portal.submit(
        SQL, deadline_s=federation.network.clock.now + 1e9
    )
    assert result.rows == oracle_result.rows
    assert result.columns == oracle_result.columns
    assert result.counts == oracle_result.counts
    assert result.epochs == oracle_result.epochs
    assert result.warnings == oracle_result.warnings
    assert not result.degraded
