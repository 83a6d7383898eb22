"""Distributed tracing: span trees as a first-class test oracle.

Beyond "the rows match", these tests pin the *shape* of federated
executions: trace-context propagation across every SOAP hop, client/server
span nesting, chain order, pipelined overlap, retry/fault tagging, and the
exact reconciliation of per-span wire bytes against the flat
``NetworkMetrics`` counters.
"""

import json

import pytest

from repro.budget import QueryBudget, active_budget, request_now, use_budget
from repro.errors import SoapFaultError
from repro.federation.builder import FederationConfig, build_federation
from repro.services.client import ServiceProxy
from repro.services.framework import ServiceHost, WebService
from repro.services.retry import RetryPolicy
from repro.soap.envelope import (
    build_rpc_request,
    parse_rpc_call,
    parse_trace_context,
)
from repro.soap.xmlparser import XMLParser
from repro.sql.ast import AreaClause
from repro.tracing import (
    NullTracer,
    TraceContext,
    Tracer,
    active_tracer,
    assert_overlapping,
    assert_serial,
    assert_span_tree,
    chain_hop_spans,
    check_span_invariants,
    find_spans,
    render_flamegraph,
    span_invariants,
    to_chrome_trace,
    to_chrome_trace_json,
    trace_from_dict,
)
from repro.transactions.exchange import DataExchange
from repro.transport.faults import FaultPlan
from repro.transport.network import SimulatedNetwork
from repro.workloads.skysim import SkyField, generate_bodies, observe_survey

XMATCH_SQL = (
    "SELECT O.object_id, O.ra, T.obj_id "
    "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T, "
    "FIRST:Primary_Object P "
    "WHERE AREA(185.0, -0.5, 900.0) AND XMATCH(O, T, P) < 3.5"
)


def make_fed(**kw):
    config = dict(
        n_bodies=400,
        seed=11,
        sky_field=SkyField(185.0, -0.5, 1800.0),
    )
    config.update(kw)
    return build_federation(FederationConfig(**config))


def make_clock():
    """A fake clock the unit tests can advance by hand."""
    state = {"now": 0.0}

    def advance(dt):
        state["now"] += dt

    return (lambda: state["now"]), advance


# -- Tracer unit behaviour ------------------------------------------------------


class TestTracer:
    def test_root_span_mints_fresh_trace(self):
        tracer = Tracer()
        first = tracer.begin("a", host="h")
        tracer.finish(first)
        second = tracer.begin("b", host="h")
        tracer.finish(second)
        assert first.trace_id != second.trace_id
        assert first.parent_id is None and second.parent_id is None

    def test_nested_spans_link_to_innermost_parent(self):
        tracer = Tracer()
        with tracer.span("outer", host="h") as outer:
            with tracer.span("inner", host="h") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id

    def test_explicit_context_overrides_local_stack(self):
        # A server span continues the *caller's* trace even if the local
        # tracer has its own unrelated span open.
        tracer = Tracer()
        remote = TraceContext("t-remote", "s-remote")
        with tracer.span("local", host="h"):
            with tracer.span("served", host="h", kind="server",
                             context=remote) as span:
                assert span.trace_id == "t-remote"
                assert span.parent_id == "s-remote"

    def test_span_interval_tracks_clock(self):
        clock, advance = make_clock()
        tracer = Tracer(clock_fn=clock)
        with tracer.span("work", host="h") as span:
            advance(1.5)
        assert span.start_s == 0.0
        assert span.end_s == pytest.approx(1.5)
        assert span.duration_s == pytest.approx(1.5)

    def test_exception_marks_span_errored(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom", host="h"):
                raise ValueError("no")
        span = tracer.spans[0]
        assert span.status == "error"
        assert "ValueError" in span.error
        assert span.end_s is not None

    def test_bytes_charge_to_current_span_or_untraced_pool(self):
        tracer = Tracer()
        tracer.add_wire_bytes(100)  # nothing open
        with tracer.span("call", host="h") as span:
            tracer.add_wire_bytes(250)
        assert tracer.untraced_bytes == 100
        assert span.wire_bytes == 250
        assert span.messages == 1

    def test_trace_serialization_round_trips(self):
        clock, advance = make_clock()
        tracer = Tracer(clock_fn=clock)
        with tracer.span("root", host="a") as root:
            root.annotate("fault", t=clock(), kind="request-drop")
            advance(0.2)
            with tracer.span("child", host="b", kind="client") as child:
                child.retries = 2
                tracer.add_wire_bytes(512)
                advance(0.1)
        trace = tracer.trace()
        rebuilt = trace_from_dict(json.loads(json.dumps(trace.to_dict())))
        assert rebuilt.trace_id == trace.trace_id
        assert [s.to_dict() for s in rebuilt.spans] == [
            s.to_dict() for s in trace.spans
        ]


# -- SOAP header propagation ----------------------------------------------------


class TestTraceHeader:
    def test_header_rides_in_envelope_and_parses_back(self):
        envelope = build_rpc_request(
            "Echo", {"x": 1}, trace_context=TraceContext("t9", "s42")
        )
        assert "TraceContext" in envelope
        operation, params, context, _budget = parse_rpc_call(envelope)
        assert operation == "Echo"
        assert params == {"x": 1}
        assert context == TraceContext("t9", "s42")

    def test_untraced_envelope_is_byte_identical_to_headerless_form(self):
        plain = build_rpc_request("Echo", {"x": 1})
        assert "Header" not in plain
        assert plain == build_rpc_request("Echo", {"x": 1}, trace_context=None)

    def test_missing_header_parses_as_no_context(self):
        document = XMLParser().parse(build_rpc_request("Echo", {"x": 1}))
        assert parse_trace_context(document) is None


# -- propagation through the simulated network ----------------------------------


def calc_net(**proxy_kw):
    net = SimulatedNetwork(default_latency_s=0.01, default_bandwidth_bps=1e9)
    net.install_tracer(Tracer())
    service = WebService("Calc")
    service.register(
        "Add", lambda a, b: a + b,
        params=(("a", "int"), ("b", "int")), returns="int",
    )
    host = ServiceHost("svc")
    url = host.mount("/calc", service)
    net.add_host("svc", host.handle)
    return net, ServiceProxy(net, "cli", url, **proxy_kw)


class TestNetworkPropagation:
    def test_client_and_server_spans_pair_up(self):
        net, proxy = calc_net()
        assert proxy.call("Add", a=1, b=2) == 3
        trace = net.tracer.trace()
        check_span_invariants(trace)
        client = trace.root
        assert (client.name, client.kind, client.host) == ("Add", "client", "cli")
        (server,) = trace.children(client)
        assert (server.name, server.kind, server.host) == ("Add", "server", "svc")

    def test_retry_span_carries_fault_and_retry_annotations(self):
        net, proxy = calc_net(
            retry_policy=RetryPolicy(
                max_attempts=3, timeout_s=1.0, base_backoff_s=0.1,
                jitter=0.0, seed=7,
            )
        )
        net.set_fault_plan(FaultPlan().drop_requests(rate=0.0, first_n=1))
        assert proxy.call("Add", a=20, b=22) == 42
        client = net.tracer.trace().root
        assert client.retries == 1
        assert client.events("retry")
        fault_kinds = {a.get("kind") for a in client.events("fault")}
        assert "request-drop" in fault_kinds
        assert net.metrics.retries == 1

    def test_soap_fault_marks_server_span_errored(self):
        net, proxy = calc_net()
        with pytest.raises(SoapFaultError):
            proxy.call("Add", a="x", b=2)
        trace = net.tracer.trace()
        (server,) = find_spans(trace, "Add", kind="server")
        assert server.status == "error"
        assert server.error


# -- federated query span trees -------------------------------------------------


class TestFederatedTrace:
    @pytest.fixture(scope="class")
    def traced(self):
        fed = make_fed()
        result = fed.portal.submit(XMATCH_SQL)
        return fed, result

    def test_result_carries_well_formed_trace(self, traced):
        _, result = traced
        assert result.trace is not None
        assert span_invariants(result.trace) == []
        assert result.trace.root.name == "SubmitQuery"

    def test_every_soap_operation_appears_once_per_call(self, traced):
        fed, result = traced
        trace = result.trace
        archives = len(fed.nodes)
        hops = len(result.plan.steps)
        # One server span per count-star query and per hop; a fault-free
        # query pings no archive.
        assert find_spans(trace, "IsAlive", kind="server") == []
        assert len(find_spans(trace, "ExecuteQueryPinned", kind="server")) == archives
        assert len(find_spans(trace, "PerformXMatch", kind="server")) == hops
        # Every server span continues a client span on the expected hosts.
        for span in trace.spans:
            if span.kind != "server":
                continue
            parent = trace.parent(span)
            assert parent is not None and parent.kind == "client"
            assert parent.name == span.name

    def test_count_star_fanout_groups_under_parallel_span(self, traced):
        _, result = traced
        trace = result.trace
        queries = find_spans(trace, "ExecuteQueryPinned", kind="client")
        parents = {trace.parent(span).span_id for span in queries}
        assert len(parents) == 1
        (parent_id,) = parents
        assert trace.span(parent_id).name == "parallel"

    def test_declarative_span_tree_shape(self, traced):
        _, result = traced
        assert_span_tree(
            result.trace,
            (
                "SubmitQuery@portal.*",
                [
                    ("plan", [("parallel", ["ExecuteQuery*"])]),
                    ("PerformXMatch", ["PerformXMatch@*"]),
                ],
            ),
        )

    def test_chain_hop_order_matches_plan_order(self, traced):
        _, result = traced
        hop_hosts = [span.host for span in chain_hop_spans(result.trace)]
        plan_hosts = [step.url.split("/")[2] for step in result.plan.steps]
        assert hop_hosts == plan_hosts

    def test_store_forward_hops_nest_not_overlap_siblings(self, traced):
        _, result = traced
        hops = chain_hop_spans(result.trace)
        # Store-and-forward: hop k runs INSIDE hop k-1's span.
        for outer, inner in zip(hops, hops[1:]):
            assert inner.start_s >= outer.start_s
            assert inner.end_s <= outer.end_s
        # And the serial-order oracle holds for any one host's work: its
        # count probe ends before its hop starts.
        probes = find_spans(result.trace, "ExecuteQueryPinned", kind="server")
        for hop in hops:
            assert_serial(
                [hop] + [span for span in probes if span.host == hop.host]
            )

    def test_span_bytes_reconcile_with_network_metrics(self, traced):
        fed, _ = traced
        tracer = fed.tracer
        spanned = sum(s.wire_bytes for s in tracer.spans)
        assert spanned + tracer.untraced_bytes == fed.network.metrics.total_bytes()
        # Every delivered byte lands on some span: registration, WSDL
        # fetches, and the query all run under client spans.
        assert spanned > 0
        assert tracer.untraced_bytes == 0

    def test_processing_time_annotated_on_chain_spans(self, traced):
        _, result = traced
        processing = [
            event
            for span in find_spans(result.trace, "PerformXMatch", kind="server")
            for event in span.events("processing")
        ]
        assert processing
        assert all(event["elapsed_s"] > 0 for event in processing)


class TestPipelinedTrace:
    def test_pullbatch_spans_overlap_across_hops(self):
        fed = make_fed(chain_mode="pipelined", stream_batch_size=16)
        result = fed.portal.submit(XMATCH_SQL)
        trace = result.trace
        check_span_invariants(trace)
        by_host = {}
        for span in find_spans(trace, "PullBatch", kind="server"):
            by_host.setdefault(span.host, []).append(span)
        assert len(by_host) >= 2  # the pull cascades down the chain
        hosts = sorted(by_host)
        # Hop k's batch pulls overlap hop k-1's: the batches traverse the
        # chain concurrently inside one parallel block.
        for left, right in zip(hosts, hosts[1:]):
            assert_overlapping(by_host[left] + by_host[right])
        # And the portal-side pulls of distinct batches overlap each other.
        assert_overlapping(find_spans(trace, "PullBatch", kind="client"))

    def test_pipelined_trace_carries_batch_sequence_numbers(self):
        fed = make_fed(chain_mode="pipelined", stream_batch_size=16)
        result = fed.portal.submit(XMATCH_SQL)
        seqs = set()
        for span in find_spans(result.trace, "PullBatch", kind="server"):
            for event in span.events("request"):
                seqs.add(event.get("seq"))
        assert seqs  # every server span was stamped with its batch seq
        assert 0 in seqs


class TestTracingToggle:
    def test_tracing_off_means_no_tracer_and_no_headers(self):
        fed = make_fed(tracing=False)
        assert fed.tracer is None
        result = fed.portal.submit(XMATCH_SQL)
        assert result.trace is None
        assert result.rows  # the query itself still works

    def test_rows_identical_with_and_without_tracing(self):
        plain = make_fed(tracing=False)
        traced = make_fed(tracing=True)
        assert plain.portal.submit(XMATCH_SQL).rows == (
            traced.portal.submit(XMATCH_SQL).rows
        )

    def test_client_result_carries_its_own_trace(self):
        fed = make_fed()
        result = fed.client().submit(XMATCH_SQL)
        trace = result.trace
        assert trace is not None
        assert trace.root.name == "SubmitQuery"
        assert trace.root.kind == "client"
        assert trace.root.host == "client.skyquery.net"
        check_span_invariants(trace)
        assert fed.client().submit(XMATCH_SQL).trace is not None

    def test_client_result_trace_is_none_when_tracing_off(self):
        fed = make_fed(tracing=False)
        assert fed.client().submit(XMATCH_SQL).trace is None


#: Two archives, no drop-out: the cache's exact and containment routes.
PAIR_SQL = (
    "SELECT O.object_id, O.ra, T.obj_id "
    "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T "
    "WHERE AREA(185.0, -0.5, {radius}) AND XMATCH(O, T) < 3.5"
)
#: A drop-out archive keeps containment out of the way: a reordered
#: WHERE is then a fingerprint hit.
DROPOUT_SQL = (
    "SELECT O.object_id, T.obj_id "
    "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T, "
    "FIRST:Primary_Object P "
    "WHERE AREA(185.0, -0.5, 900.0) AND XMATCH(O, T, !P) < 3.5"
)
REORDERED_SQL = DROPOUT_SQL.replace(
    "AREA(185.0, -0.5, 900.0) AND XMATCH(O, T, !P) < 3.5",
    "XMATCH(O, T, !P) < 3.5 AND AREA(185.0, -0.5, 900.0)",
)


def _every_tracer_site(fed):
    """Drive each place that instruments a span or an annotation: returns
    the answers, and checks along the way that each place was reached."""
    portal, network = fed.portal, fed.network
    metrics = network.metrics
    answers = []

    def answer(result):
        answers.append((result.columns, result.rows, result.degraded,
                        result.failovers, result.cache))
        return result

    # The cache: a miss, an exact hit, a containment hit, a fingerprint hit.
    wide, narrow = PAIR_SQL.format(radius=900.0), PAIR_SQL.format(radius=600.0)
    assert answer(portal.submit(wide)).cache is None
    assert answer(portal.submit(wide)).cache == "exact"
    assert answer(portal.submit(narrow)).cache == "containment"
    assert answer(portal.submit(DROPOUT_SQL)).cache is None
    assert answer(portal.submit(REORDERED_SQL)).cache == "fingerprint"

    # A scheduler wave, and a job it sheds because its deadline is gone.
    scheduler = fed.scheduler
    scheduler.enqueue(PAIR_SQL.format(radius=700.0), tenant="a")
    scheduler.enqueue(PAIR_SQL.format(radius=800.0), tenant="b",
                      deadline_s=network.clock.now - 1.0)
    outcomes = scheduler.drain()
    assert scheduler.stats.expired == 1
    answers.append([
        (type(o.error).__name__, None) if o.error else (None, o.result.rows)
        for o in outcomes
    ])

    # A replicated ingest commit (2PC decision), its recovery pass, and a
    # 2PC region copy through the exchange.
    survey = next(s for s in fed.config.surveys if s.archive == "SDSS")
    observed = observe_survey(
        survey, generate_bodies(fed.config.sky_field, 40, 99), 99
    )
    columns = list(observed.rows[0])
    committed = fed.ingest_client("SDSS").ingest_rows(
        survey.primary_table, columns,
        [tuple(row[c] for c in columns) for row in observed.rows],
    )
    assert committed.committed
    answers.append(committed.epoch)
    fed.ingest_client("SDSS").recover()
    exchange = DataExchange(portal, {
        name: node.enable_transactions() for name, node in fed.nodes.items()
    })
    copied = exchange.replicate_region(
        "SDSS", ["TWOMASS"], AreaClause(185.0, -0.5, 600.0)
    )
    answers.append((copied.committed, copied.rows_copied))

    # The chain itself, uncached from here on: one clean run times it.
    portal.cache = None
    started = network.clock.now
    clean = answer(portal.submit(XMATCH_SQL))
    chain_s = network.clock.now - started
    # A dropped request: the caller times out and retries.
    network.set_fault_plan(FaultPlan().drop_requests(rate=0.0, first_n=1))
    answer(portal.submit(XMATCH_SQL))
    network.set_fault_plan(None)
    assert metrics.retries >= 1 and metrics.timeouts >= 1
    # A deadline that runs out mid-chain: the Portal sends CancelQuery.
    answer(portal.submit(XMATCH_SQL,
                         deadline_s=network.clock.now + 0.5 * chain_s))
    assert metrics.cancels >= 1
    # A primary that crashes mid-chain: the chain fails over to its replica.
    victim = clean.plan.steps[0].url.split("/")[2]
    network.set_fault_plan(
        FaultPlan().crash(victim, at_s=network.clock.now + 0.6 * chain_s)
    )
    failed_over = answer(portal.submit(XMATCH_SQL))
    assert failed_over.failovers >= 1 and not failed_over.degraded
    assert failed_over.rows == clean.rows
    return answers


class TestTracingOffReachesEverySite:
    """Tracing off is a tracer that records nothing, on every path a
    traced federation instruments."""

    def test_tracing_off_sends_no_trace_and_answers_like_tracing_on(
        self, monkeypatch
    ):
        bodies = {}
        deliver = SimulatedNetwork.request

        def request(network, src_host, http_request, **kwargs):
            bodies.setdefault(id(network), []).append(http_request.body)
            return deliver(network, src_host, http_request, **kwargs)

        monkeypatch.setattr(SimulatedNetwork, "request", request)
        config = dict(
            n_bodies=240, replicas=1, ingest=True, cache=True, scheduler=True,
            retry_policy=RetryPolicy(max_attempts=3, timeout_s=2.0,
                                     base_backoff_s=0.1, jitter=0.0, seed=5),
        )
        off, on = make_fed(tracing=False, **config), make_fed(**config)
        assert off.tracer is None
        assert isinstance(off.network.tracer, NullTracer)
        assert _every_tracer_site(off) == _every_tracer_site(on)
        assert not any(b"TraceContext" in b for b in bodies[id(off.network)])
        assert any(b"TraceContext" in b for b in bodies[id(on.network)])
        assert on.tracer.traces()


class TestRequestContext:
    """One request context: the tracer, clock and budget a handler sees."""

    @staticmethod
    def probe_net(tracer):
        net = SimulatedNetwork()
        net.install_tracer(tracer)
        seen = []
        service = WebService("Probe")
        service.register(
            "Look",
            lambda: seen.append((active_tracer(), request_now(),
                                 net.clock.now, active_budget())) or 0,
            params=(), returns="int",
        )
        host = ServiceHost("svc")
        url = host.mount("/probe", service)
        net.add_host("svc", host.handle)
        return net, ServiceProxy(net, "cli", url), seen

    @pytest.mark.parametrize("tracer", [Tracer(), None])
    def test_handler_sees_the_network_and_the_header(self, tracer):
        net, proxy, seen = self.probe_net(tracer)
        budget = QueryBudget(60.0, "q1")
        proxy.call("Look")
        with use_budget(budget):
            proxy.call("Look")
        (tracer_1, now_1, clock_1, budget_1), (_, _, _, budget_2) = seen
        assert tracer_1 is net.tracer
        assert now_1 == clock_1 > 0.0
        assert budget_1 is None and budget_2 == budget

    def test_outside_any_request_tracing_is_off(self):
        assert isinstance(active_tracer(), NullTracer)
        assert request_now() is None and active_budget() is None
        with active_tracer().span("x", host="h") as span:
            span.annotate("ignored")
            span.retries += 1
            span.status = "error"
        assert (span.retries, span.status, span.annotations) == (0, "ok", ())
        assert active_tracer().context() is None
        assert active_tracer().trace() is None
        assert active_tracer().trace_ids() == []


# -- exporters ------------------------------------------------------------------


class TestExporters:
    @pytest.fixture(scope="class")
    def trace(self):
        fed = make_fed()
        return fed.portal.submit(XMATCH_SQL).trace

    def test_chrome_trace_is_valid_trace_event_json(self, trace):
        payload = json.loads(to_chrome_trace_json(trace))
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        metadata = [e for e in events if e["ph"] == "M"]
        assert len(complete) == len(trace.spans)
        hosts = {s.host for s in trace.spans}
        assert {e["args"]["name"] for e in metadata} == hosts
        for event in complete:
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert {"name", "cat", "pid", "tid", "args"} <= set(event)

    def test_chrome_trace_timestamps_are_microseconds(self, trace):
        events = {
            e["args"]["span_id"]: e
            for e in to_chrome_trace(trace)["traceEvents"]
            if e["ph"] == "X"
        }
        for span in trace.spans:
            assert events[span.span_id]["ts"] == pytest.approx(
                span.start_s * 1e6, abs=0.01
            )

    def test_flamegraph_lists_every_span(self, trace):
        art = render_flamegraph(trace)
        lines = art.splitlines()
        assert len(lines) == len(trace.spans) + 1  # header + one per span
        assert "SubmitQuery" in lines[0]
        assert all("|" in line for line in lines[1:])
