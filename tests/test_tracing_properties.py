"""Property-based tests for distributed tracing (hypothesis).

Two layers: randomly driven tracers (any open/close/annotate interleaving
yields a well-formed, serializable trace) and randomly configured
federations (any chain mode x chaos seed x batch size still produces a
trace satisfying the span invariants, with per-span bytes reconciling
exactly against the flat network counters).
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SkyQueryError
from repro.federation.builder import FederationConfig, build_federation
from repro.services.retry import RetryPolicy
from repro.tracing import (
    Tracer,
    chain_hop_spans,
    find_spans,
    span_invariants,
    trace_from_dict,
)
from repro.transport.faults import FaultPlan
from repro.workloads.skysim import SkyField

XMATCH_SQL = (
    "SELECT O.object_id, T.obj_id "
    "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T "
    "WHERE AREA(185.0, -0.5, 900.0) AND XMATCH(O, T) < 3.5"
)


# -- randomly driven tracers ----------------------------------------------------

ACTIONS = st.lists(
    st.one_of(
        st.tuples(st.just("open"), st.sampled_from(["Call", "Pull", "work"])),
        st.tuples(st.just("close"), st.none()),
        st.tuples(st.just("advance"), st.floats(0.0, 2.0)),
        st.tuples(st.just("bytes"), st.integers(1, 10_000)),
        st.tuples(st.just("annotate"), st.sampled_from(["fault", "retry"])),
    ),
    max_size=60,
)


@settings(max_examples=100, deadline=None)
@given(actions=ACTIONS)
def test_any_action_interleaving_yields_well_formed_trace(actions):
    state = {"now": 0.0}
    tracer = Tracer(clock_fn=lambda: state["now"])
    root = tracer.begin("root", host="h")
    open_count = 1
    total_bytes = 0
    for action, value in actions:
        if action == "open":
            tracer.begin(value, host="h", kind="client")
            open_count += 1
        elif action == "close" and open_count > 1:
            tracer.finish(tracer.current_span())
            open_count -= 1
        elif action == "advance":
            state["now"] += value
        elif action == "bytes":
            tracer.add_wire_bytes(value)
            total_bytes += value
        elif action == "annotate":
            tracer.annotate(value, kind="chaos")
    while tracer.current_span() is not None:
        tracer.finish(tracer.current_span())

    trace = tracer.trace()
    assert span_invariants(trace) == []
    assert trace.root is tracer.spans[0] is root
    assert trace.total_wire_bytes() == total_bytes
    assert tracer.untraced_bytes == 0


@settings(max_examples=100, deadline=None)
@given(actions=ACTIONS)
def test_trace_serialization_round_trips(actions):
    state = {"now": 0.0}
    tracer = Tracer(clock_fn=lambda: state["now"])
    tracer.begin("root", host="h")
    open_count = 1
    for action, value in actions:
        if action == "open":
            tracer.begin(value, host="h")
            open_count += 1
        elif action == "close" and open_count > 1:
            tracer.finish(tracer.current_span())
            open_count -= 1
        elif action == "advance":
            state["now"] += value
        elif action == "bytes":
            tracer.add_wire_bytes(value)
        elif action == "annotate":
            tracer.annotate(value, kind="chaos", attempt=1)
    while tracer.current_span() is not None:
        tracer.finish(tracer.current_span())

    trace = tracer.trace()
    rebuilt = trace_from_dict(json.loads(json.dumps(trace.to_dict())))
    assert [s.to_dict() for s in rebuilt.spans] == [
        s.to_dict() for s in trace.spans
    ]


# -- randomly configured federations --------------------------------------------


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(1, 500),
    chain_mode=st.sampled_from(["store-forward", "pipelined"]),
    batch_size=st.sampled_from([16, 64, 200]),
    chaos_seed=st.integers(0, 50),
    drop_rate=st.sampled_from([0.0, 0.05]),
)
def test_random_federations_emit_invariant_satisfying_traces(
    seed, chain_mode, batch_size, chaos_seed, drop_rate
):
    fed = build_federation(
        FederationConfig(
            n_bodies=150,
            seed=seed,
            sky_field=SkyField(185.0, -0.5, 1800.0),
            chain_mode=chain_mode,
            stream_batch_size=batch_size,
            retry_policy=(
                RetryPolicy(
                    max_attempts=4, timeout_s=5.0, base_backoff_s=0.05,
                    jitter=0.0, seed=chaos_seed,
                )
                if drop_rate
                else None
            ),
        )
    )
    if drop_rate:
        fed.network.set_fault_plan(
            FaultPlan(seed=chaos_seed).drop_requests(rate=drop_rate)
        )
    try:
        result = fed.portal.submit(XMATCH_SQL)
    except SkyQueryError:
        result = None  # chaos won; the trace must still be well-formed

    tracer = fed.tracer
    for trace in tracer.traces():
        assert span_invariants(trace) == []
    spanned = sum(s.wire_bytes for s in tracer.spans)
    assert spanned + tracer.untraced_bytes == fed.network.metrics.total_bytes()

    if result is not None and not result.degraded and result.trace is not None:
        trace = result.trace
        rebuilt = trace_from_dict(trace.to_dict())
        assert [s.span_id for s in rebuilt.spans] == [
            s.span_id for s in trace.spans
        ]
        # The open cascade nests hop inside hop whatever the batch size;
        # batches are pulled only when the open's response could not
        # carry the whole result.
        hops = chain_hop_spans(trace)
        for outer, inner in zip(hops, hops[1:]):
            assert inner.start_s >= outer.start_s
            assert inner.end_s <= outer.end_s
        pulled = bool(find_spans(trace, "PullBatch", kind="server"))
        assert pulled == (result.node_stats[0]["batches"] > 1)
        assert chain_mode == "pipelined" or not pulled
