"""End-to-end query deadlines and cooperative cancellation.

The robustness contract (docs/RESILIENCE.md, deadline lifecycle): a
``QueryBudget`` stamped on a submission rides every hop's SOAP Header;
budget-expired work is refused with a typed fault naming the hop; the
Portal then sends one parallel round of ``CancelQuery`` to every endpoint
the plan names, so streams, checkpoints, and chunked transfers are freed
eagerly instead of waiting out their TTLs — and a cancel that is lost
leaves that endpoint's TTL reaper as the backstop. Cancellation and aborts are idempotent against the reaper in
every interleaving.
"""

import math
from types import SimpleNamespace

import pytest

from repro.bench.experiments.e18_failover import RestartExecutor
from repro.budget import (
    CLEANUP_OPERATIONS,
    QueryBudget,
    active_budget,
    use_budget,
)
from repro.errors import DeadlineExceededError, SoapFaultError
from repro.federation.builder import FederationConfig, build_federation
from repro.portal.executor import ChainExecutor
from repro.portal.plan import ExecutionPlan
from repro.services.chunked import ChunkedSender
from repro.soap.encoding import WireRowSet
from repro.soap.envelope import build_rpc_request, parse_rpc_call
from repro.transport.faults import FaultPlan
from repro.workloads.skysim import SkyField

XMATCH_SQL = (
    "SELECT O.object_id, O.ra, T.obj_id "
    "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T, "
    "FIRST:Primary_Object P "
    "WHERE AREA(185.0, -0.5, 900.0) AND XMATCH(O, T, P) < 3.5"
)


def small_federation(**overrides):
    defaults = dict(
        n_bodies=120,
        seed=11,
        sky_field=SkyField(185.0, -0.5, 1800.0),
    )
    defaults.update(overrides)
    return build_federation(FederationConfig(**defaults))


def qid_of_next_submit(portal) -> str:
    """The query id the Portal will mint for its next budgeted submit."""
    return f"{portal.hostname}-q{portal.queries_served + 1}"


def all_nodes(federation):
    nodes = list(federation.nodes.values())
    for group in federation.replicas.values():
        nodes.extend(group)
    return nodes


def residual_state_for(federation, qid: str):
    """Every piece of server state still owned by ``qid``, across nodes."""
    return [
        (node.hostname, kind, key)
        for node in all_nodes(federation)
        for leases in (node.crossmatch.leases, node.query.sender.leases)
        for kind, key, _ in leases.owned_by(qid)
    ]


# -- the QueryBudget SOAP header ------------------------------------------------


class TestBudgetHeader:
    def test_budget_header_round_trips(self):
        budget = QueryBudget(12.5, "portal-q7")
        envelope = build_rpc_request("Ping", {"x": 1}, budget=budget)
        assert "QueryBudget" in envelope and "urn:skyquery:budget" in envelope
        _, _, _, parsed = parse_rpc_call(envelope)
        assert parsed == budget

    def test_unbudgeted_envelope_has_no_header(self):
        envelope = build_rpc_request("Ping", {"x": 1})
        assert "Header" not in envelope
        _, _, _, parsed = parse_rpc_call(envelope)
        assert parsed is None

    def test_budget_without_query_id(self):
        envelope = build_rpc_request("Ping", {}, budget=QueryBudget(3.0))
        _, _, _, parsed = parse_rpc_call(envelope)
        assert parsed == QueryBudget(3.0, "")

    @pytest.mark.parametrize("deadline", ["nan", "NaN", "inf", "-inf", "soon"])
    def test_unusable_deadline_is_dropped(self, deadline):
        # A NaN budget never expires and would reach every clamped
        # timeout; it is dropped exactly like an unparsable one.
        envelope = build_rpc_request("Ping", {}, budget=QueryBudget(3.0, "q"))
        assert 'deadlineS="3.0"' in envelope
        envelope = envelope.replace('"3.0"', f'"{deadline}"')
        _, _, _, parsed = parse_rpc_call(envelope)
        assert parsed is None

    def test_remaining_and_expired(self):
        budget = QueryBudget(10.0, "q")
        assert budget.remaining_s(4.0) == pytest.approx(6.0)
        assert not budget.expired(9.999)
        assert budget.expired(10.0) and budget.expired(11.0)

    def test_active_budget_stack_masks_with_none(self):
        outer = QueryBudget(5.0, "outer")
        with use_budget(outer):
            assert active_budget() == outer
            with use_budget(None):
                assert active_budget() is None
            assert active_budget() == outer
        assert active_budget() is None

    def test_cleanup_operations_are_the_cancel_set(self):
        assert CLEANUP_OPERATIONS == {
            "CancelQuery", "AbortStream", "AbortTransfer",
        }


# -- deadlines through the federation -------------------------------------------


class TestDeadlines:
    @pytest.mark.parametrize("chain_mode", ["store-forward", "pipelined"])
    def test_generous_deadline_is_byte_identical_to_oracle(self, chain_mode):
        oracle = small_federation(chain_mode=chain_mode)
        budgeted = small_federation(chain_mode=chain_mode)
        want = oracle.portal.submit(XMATCH_SQL)
        deadline = budgeted.network.clock.now + 1e6
        got = budgeted.portal.submit(XMATCH_SQL, deadline_s=deadline)
        assert got.rows == want.rows
        assert got.columns == want.columns
        assert got.warnings == want.warnings
        assert not got.degraded
        assert got.counts == want.counts
        assert got.epochs == want.epochs

    @pytest.mark.parametrize("deadline", [math.nan, math.inf, -math.inf])
    def test_non_finite_deadline_is_refused(self, deadline):
        federation = small_federation()
        sent = len(federation.network.metrics.messages)
        with pytest.raises(ValueError, match="finite"):
            federation.portal.submit(XMATCH_SQL, deadline_s=deadline)
        assert len(federation.network.metrics.messages) == sent

    def test_already_expired_deadline_degrades_without_dispatch(self):
        federation = small_federation()
        portal = federation.portal
        qid = qid_of_next_submit(portal)
        before = len(federation.network.metrics.messages)
        result = portal.submit(
            XMATCH_SQL, deadline_s=federation.network.clock.now - 1.0
        )
        assert result.degraded and result.rows == []
        assert any("deadline exceeded" in w for w in result.warnings)
        # Refused at the Portal before the first probe left the host.
        assert len(federation.network.metrics.messages) == before
        assert residual_state_for(federation, qid) == []

    @staticmethod
    def expire_mid_chain(*, resume: bool) -> None:
        # Small chunk budget => chunked chain responses => budget-checked
        # FetchChunk ops spread through the whole chain timeline, so a
        # deadline near the end of the chain deterministically faults at a
        # drain while every hop already holds a checkpoint.
        oracle = small_federation(chunk_budget_bytes=1024)
        t0 = oracle.network.clock.now
        oracle.portal.submit(XMATCH_SQL)
        duration = oracle.network.clock.now - t0

        federation = small_federation(chunk_budget_bytes=1024)
        portal = federation.portal
        if not resume:
            portal.executor = RestartExecutor(portal)
        qid = qid_of_next_submit(portal)
        metrics = federation.network.metrics
        result = portal.submit(
            XMATCH_SQL,
            deadline_s=federation.network.clock.now + 0.95 * duration,
        )
        assert result.degraded and result.rows == []
        assert any("deadline exceeded" in w for w in result.warnings)
        assert any("query budget exhausted" in w for w in result.warnings)
        assert metrics.cancels >= 1
        assert metrics.eager_reclaims >= 1
        assert residual_state_for(federation, qid) == []

    def test_mid_chain_expiry_names_the_hop_and_cancels(self):
        self.expire_mid_chain(resume=True)

    def test_mid_chain_expiry_names_the_hop_and_cancels_resume_off(self):
        """The same expiry under E18's restart arm: every attempt runs
        under its own id within the query's, so the one cancel still
        reaches — and frees — every hop's state."""
        self.expire_mid_chain(resume=False)

    def test_pipelined_mid_stream_expiry_cancels_cleanly(self):
        # A bounded pull window re-checks the budget at every wave, so a
        # mid-stream deadline faults between waves while streams are open
        # down the whole chain.
        oracle = small_federation(chain_mode="pipelined")
        oracle.portal.stream_pull_window = 2
        t0 = oracle.network.clock.now
        oracle.portal.submit(XMATCH_SQL)
        duration = oracle.network.clock.now - t0

        federation = small_federation(chain_mode="pipelined")
        federation.portal.stream_pull_window = 2
        qid = qid_of_next_submit(federation.portal)
        result = federation.portal.submit(
            XMATCH_SQL,
            deadline_s=federation.network.clock.now + 0.5 * duration,
        )
        assert result.degraded and result.rows == []
        assert any("deadline exceeded" in w for w in result.warnings)
        assert federation.network.metrics.cancels >= 1
        assert residual_state_for(federation, qid) == []
        for node in all_nodes(federation):
            assert node.crossmatch.open_streams == 0

    def test_deadline_fault_is_not_retried(self):
        # DeadlineExceededError is deliberately not a TransportError:
        # the chain executor's recovery loop must not probe/fail over or
        # burn retries on a budget that can only keep shrinking.
        federation = small_federation(chunk_budget_bytes=1024)
        oracle = small_federation(chunk_budget_bytes=1024)
        t0 = oracle.network.clock.now
        oracle.portal.submit(XMATCH_SQL)
        duration = oracle.network.clock.now - t0
        metrics = federation.network.metrics
        federation.portal.submit(
            XMATCH_SQL,
            deadline_s=federation.network.clock.now + 0.95 * duration,
        )
        assert metrics.retries == 0
        assert metrics.failovers == 0

    def test_cancel_annotated_in_trace(self):
        oracle = small_federation(chunk_budget_bytes=1024)
        t0 = oracle.network.clock.now
        oracle.portal.submit(XMATCH_SQL)
        duration = oracle.network.clock.now - t0

        federation = small_federation(chunk_budget_bytes=1024)
        result = federation.portal.submit(
            XMATCH_SQL,
            deadline_s=federation.network.clock.now + 0.95 * duration,
        )
        assert result.degraded
        assert result.trace is not None
        cancel_notes = [
            a
            for span in result.trace.spans
            for a in span.annotations
            if a.get("event") == "cancel"
        ]
        assert cancel_notes, "CancelQuery must annotate the trace"

    def test_concurrent_query_unperturbed_by_cancelled_neighbour(self):
        oracle = small_federation(chunk_budget_bytes=1024)
        t0 = oracle.network.clock.now
        want = oracle.portal.submit(XMATCH_SQL)
        duration = oracle.network.clock.now - t0

        federation = small_federation(chunk_budget_bytes=1024)
        doomed = federation.portal.submit(
            XMATCH_SQL,
            deadline_s=federation.network.clock.now + 0.95 * duration,
        )
        assert doomed.degraded
        follow_up = federation.portal.submit(XMATCH_SQL)
        assert follow_up.rows == want.rows
        assert follow_up.counts == want.counts
        assert not follow_up.degraded and not follow_up.warnings


# -- CancelQuery: idempotency and fault injection -------------------------------


class TestCancelQuery:
    def open_chain_stream(self, federation, qid):
        """Open a stream down the whole chain, tagged with ``qid``.

        Returns the plan (to hand to ``_cancel_chain``) and its wire form.
        """
        portal = federation.portal
        plan_wire = portal.explain(XMATCH_SQL)["plan"]
        url = plan_wire["steps"][0]["url"]
        opened = portal.proxy(url).call(
            "PerformXMatch",
            plan=plan_wire,
            position=0,
            qid=qid,
            batch_size=5,
            start_seq=0,
        )
        assert opened["batch_count"] >= 2  # or the open would carry it all
        return ExecutionPlan.from_wire(plan_wire), plan_wire

    def streams_holding(self, federation, qid):
        return [
            node.hostname
            for node in all_nodes(federation)
            if any(
                kind == "stream"
                for kind, _, _ in node.crossmatch.leases.owned_by(qid)
            )
        ]

    @staticmethod
    def hop_host(plan_wire, position):
        return plan_wire["steps"][position]["url"].split("/")[2]

    def test_cancel_fans_down_the_whole_chain(self):
        federation = small_federation()
        qid = "portal.skyquery.net-q99"
        plan, _ = self.open_chain_stream(federation, qid)
        assert len(self.streams_holding(federation, qid)) == 3
        federation.portal.executor._cancel_chain(plan, qid)
        assert self.streams_holding(federation, qid) == []
        metrics = federation.network.metrics
        assert metrics.cancels == 3  # one per hop
        assert metrics.eager_reclaims == 3  # one stream per hop
        assert metrics.reclaimed_transfers == 0  # eager, not TTL

    def test_cancel_is_idempotent(self):
        federation = small_federation()
        qid = "portal.skyquery.net-q42"
        plan, plan_wire = self.open_chain_stream(federation, qid)
        executor = federation.portal.executor
        executor._cancel_chain(plan, qid)
        reclaims = federation.network.metrics.eager_reclaims
        again = federation.portal.proxy(plan_wire["steps"][0]["url"]).call(
            "CancelQuery", query_id=qid
        )
        assert again["cancelled"] and again["freed"] == 0
        executor._cancel_chain(plan, qid)
        assert federation.network.metrics.eager_reclaims == reclaims

    def test_cancel_after_ttl_reap_is_a_noop(self):
        from repro.skynode.crossmatch import STREAM_TTL_S

        federation = small_federation()
        qid = "portal.skyquery.net-q7"
        plan, _ = self.open_chain_stream(federation, qid)
        federation.network.clock.advance(STREAM_TTL_S + 1.0)
        federation.portal.executor._cancel_chain(plan, qid)
        # The reaper won the race at every hop: the cancel frees nothing
        # and the reclaim stays accounted to the TTL, not to eagerness.
        metrics = federation.network.metrics
        assert metrics.eager_reclaims == 0
        assert metrics.reclaimed_transfers >= 1
        assert self.streams_holding(federation, qid) == []

    def test_lost_cancel_leaves_ttl_backstop(self):
        from repro.skynode.crossmatch import STREAM_TTL_S

        federation = small_federation()
        qid = "portal.skyquery.net-q13"
        plan, plan_wire = self.open_chain_stream(federation, qid)
        hop2 = self.hop_host(plan_wire, 1)
        # The Portal's CancelQuery to hop2 is lost in flight.
        federation.network.set_fault_plan(
            FaultPlan(seed=3).drop_requests(
                src=federation.portal.hostname, dst=hop2
            )
        )
        federation.portal.executor._cancel_chain(plan, qid)
        federation.network.set_fault_plan(None)
        metrics = federation.network.metrics
        assert metrics.eager_reclaims == 2  # hop1 and hop3 freed theirs
        survivors = self.streams_holding(federation, qid)
        assert survivors == [hop2]  # only hop2 never heard the cancel
        # ... until its TTL reaper catches up.
        federation.network.clock.advance(STREAM_TTL_S + 1.0)
        for node in all_nodes(federation):
            node.crossmatch.leases.reap()
        assert self.streams_holding(federation, qid) == []
        assert metrics.reclaimed_transfers == 1
        assert metrics.eager_reclaims == 2  # TTL reaps never count as eager

    def test_delayed_cancel_still_frees_everything(self):
        federation = small_federation()
        qid = "portal.skyquery.net-q14"
        plan, plan_wire = self.open_chain_stream(federation, qid)
        federation.network.set_fault_plan(
            FaultPlan(seed=3).latency_spikes(
                src=federation.portal.hostname,
                dst=self.hop_host(plan_wire, 1),
                rate=1.0,
                extra_s=5.0,
            )
        )
        federation.portal.executor._cancel_chain(plan, qid)
        federation.network.set_fault_plan(None)
        assert self.streams_holding(federation, qid) == []
        assert federation.network.metrics.eager_reclaims == 3

    def test_cancel_frees_checkpoints_by_prefix(self, reopen_hop):
        """A finished hop's drained stream — the chain's checkpoint — is
        tagged with the execution id like everything else: one cancel
        frees it at every hop, and the same execution then recomputes."""
        federation = small_federation()
        plan_wire = federation.portal.explain(XMATCH_SQL)["plan"]

        def downstream_requests():
            return reopen_hop(federation, plan_wire, "cx-1")[1]

        assert len(downstream_requests()) == 2  # the whole chain ran
        assert downstream_requests() == []  # the head replays
        assert len(residual_state_for(federation, "cx-1")) == 3  # one per hop
        federation.portal.executor._cancel_chain(
            ExecutionPlan.from_wire(plan_wire), "cx-1"
        )
        assert residual_state_for(federation, "cx-1") == []
        assert federation.network.metrics.eager_reclaims == 3
        assert len(downstream_requests()) == 2


class CancelClockExecutor(ChainExecutor):
    """Records the sim clock on either side of the cancel round."""

    def _cancel_chain(self, plan: ExecutionPlan, qid: str) -> None:
        clock = self._portal.require_network().clock
        self.cancel_started = clock.now
        super()._cancel_chain(plan, qid)
        self.cancel_finished = clock.now


class TestOneCancelRound:
    """A deadline-dead query is cancelled in one parallel round.

    240 bodies with one replica per archive, deadline at half the clean
    sim time: the chain dies mid-run, and every endpoint the plan names
    (three primaries, three replicas) gets one ``CancelQuery`` that
    carries the query id alone.
    """

    @pytest.fixture(scope="class")
    def run(self):
        def build():
            return small_federation(n_bodies=240, replicas=1, tracing=False)

        oracle = build()
        t0 = oracle.network.clock.now
        oracle.portal.submit(XMATCH_SQL)
        clean = oracle.network.clock.now - t0

        federation = build()
        network = federation.network
        executor = CancelClockExecutor(federation.portal)
        federation.portal.executor = executor
        requests = []
        deliver = network.request

        def request(src_host, http_request, **kwargs):
            if kwargs.get("operation") == "CancelQuery":
                requests.append(http_request.body)
            return deliver(src_host, http_request, **kwargs)

        network.request = request
        qid = qid_of_next_submit(federation.portal)
        deadline = network.clock.now + 0.5 * clean
        result = federation.portal.submit(XMATCH_SQL, deadline_s=deadline)
        return SimpleNamespace(
            federation=federation, executor=executor, requests=requests,
            qid=qid, deadline=deadline, returned=network.clock.now,
            result=result,
        )

    def test_degrades_and_returns_one_round_after_the_chain(self, run):
        assert run.result.degraded and run.result.rows == []
        assert run.returned - run.deadline <= 0.25
        assert residual_state_for(run.federation, run.qid) == []

    def test_cancels_are_one_parallel_round(self, run):
        federation, executor = run.federation, run.executor
        cancel = [
            m for m in federation.network.metrics.messages
            if m.phase == "cancel"
        ]
        assert len(cancel) == 12  # six endpoints, request + response each
        sent = [m for m in cancel if m.kind == "request"]
        answered = [m for m in cancel if m.kind == "response"]
        # Every request lands before the first response: no cancel waits
        # for another's answer.
        assert max(m.sim_time for m in sent) < min(
            m.sim_time for m in answered
        )
        link = federation.network.link(
            federation.portal.hostname, sent[0].dst
        )
        one_round_trip = link.transfer_time(
            max(m.wire_bytes for m in sent)
        ) + link.transfer_time(max(m.wire_bytes for m in answered))
        span = executor.cancel_finished - executor.cancel_started
        assert span <= one_round_trip + 1e-9

    def test_cancel_requests_carry_the_query_id_alone(self, run):
        assert len(run.requests) == 6
        for body in run.requests:
            operation, params, _, _ = parse_rpc_call(body)
            assert operation == "CancelQuery"
            assert set(params) == {"query_id"}


# -- ChunkedSender: abort racing the reaper -------------------------------------


class TestChunkedSenderIdempotency:
    def make_sender(self):
        state = {"now": 0.0}
        sender = ChunkedSender("svc", 700, ttl_s=10.0)
        reclaims = []
        sender.leases.bind_clock(lambda: state["now"], reclaims.append)
        rowset = WireRowSet(
            [("a", "int"), ("b", "int")],
            [(i, i * 2) for i in range(100)],
        )
        response = sender.respond(sender.prepare(rowset), query_id="q-1")
        assert response["chunked"]
        return sender, state, reclaims, response["transfer_id"]

    def test_abort_after_reap_is_noop(self):
        sender, state, reclaims, tid = self.make_sender()
        state["now"] = 11.0
        assert sender.leases.reap() == 1
        assert reclaims == [1]
        assert sender.abort(tid) is False
        assert reclaims == [1]  # no double count
        assert sender.leases.release_query("q-1") == 0

    def test_reap_after_abort_is_noop(self):
        sender, state, reclaims, tid = self.make_sender()
        assert sender.abort(tid) is True
        assert reclaims == [1]
        state["now"] = 11.0
        assert sender.leases.reap() == 0
        assert reclaims == [1]

    def test_cancel_query_then_abort_then_reap(self):
        sender, state, reclaims, tid = self.make_sender()
        assert sender.leases.release_query("q-1") == 1
        # Eager cancellation is the *caller's* metric (eager_reclaims);
        # the sender's own reclaim callback stays TTL/abort-only.
        assert reclaims == []
        assert sender.abort(tid) is False
        state["now"] = 11.0
        assert sender.leases.reap() == 0
        assert reclaims == []
        assert sender.pending_transfers == 0

    def test_double_cancel_query_is_stable(self):
        sender, _, reclaims, _ = self.make_sender()
        assert sender.leases.release_query("q-1") == 1
        assert sender.leases.release_query("q-1") == 0
        assert sender.leases.release_query("") == 0
        assert reclaims == []

    def test_cancel_does_not_touch_other_queries(self):
        sender, _, _, _ = self.make_sender()
        rowset = WireRowSet(
            [("a", "int")], [(i,) for i in range(100)]
        )
        other = sender.respond(sender.prepare(rowset), query_id="q-2")
        assert sender.leases.release_query("q-1") == 1
        assert sender.pending_transfers == 1
        chunk = sender.fetch_chunk(other["transfer_id"], 0)
        assert chunk.rows  # q-2 still drains normally

    def test_fully_drained_transfer_cancels_silently(self):
        sender, _, reclaims, tid = self.make_sender()
        count = None
        for seq in range(100):
            chunk = sender.fetch_chunk(tid, seq)
            if not chunk.rows:
                break
            if sender.pending_transfers == 0:
                count = seq + 1
                break
        assert count is not None
        # Delivered payloads are not reclaimable state: nothing to free.
        assert sender.leases.release_query("q-1") == 0
        assert reclaims == []


# -- servers refuse budget-expired work -----------------------------------------


class TestServerSideBudget:
    def test_expired_budget_faults_with_typed_detail(self):
        federation = small_federation()
        node = next(iter(federation.nodes.values()))
        url = node.service_url("information")
        deadline = federation.network.clock.now  # expires immediately
        import repro.services.client as client_mod

        proxy = federation.portal.proxy(url)
        # Bypass the proxy's own pre-flight check to prove the *server*
        # refuses: stamp the header manually at the envelope layer.
        from repro.soap.envelope import build_rpc_request
        from repro.transport.http import soap_request

        envelope = build_rpc_request(
            "IsAlive", {}, budget=QueryBudget(deadline, "q-x")
        )
        request = soap_request(url, "urn:skyquery#IsAlive", envelope)
        response = federation.network.request(
            federation.portal.hostname, request, operation="IsAlive"
        )
        with pytest.raises(SoapFaultError) as err:
            client_mod.parse_rpc_response(response.body)
        assert err.value.detail == "DeadlineExceededError"
        assert "query budget exhausted" in err.value.faultstring
        assert node.hostname in err.value.faultstring

    def test_cleanup_operations_exempt_from_expired_budget(self):
        federation = small_federation()
        plan_wire = federation.portal.explain(XMATCH_SQL)["plan"]
        url = plan_wire["steps"][0]["url"]
        expired = QueryBudget(
            federation.network.clock.now - 5.0, "portal.skyquery.net-q1"
        )
        with use_budget(expired):
            # A dead budget must never block its own cleanup.
            answer = federation.portal.proxy(url).call(
                "CancelQuery", query_id="portal.skyquery.net-q1"
            )
        assert answer["cancelled"]
