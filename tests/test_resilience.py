"""Fault injection, retries, circuit breakers, graceful degradation.

The resilience contract (docs/RESILIENCE.md): seeded fault plans replay
identically, transient faults are survived by retries with backoff on the
simulated clock, repeatedly-dead endpoints trip a breaker, and a federation
that loses a node degrades (warnings + partial results) instead of raising.
"""

import pytest

from repro.errors import (
    CircuitOpenError,
    RequestTimeoutError,
    SoapFaultError,
    TransportError,
)
from repro.federation.builder import FederationConfig, build_federation
from repro.services.client import ServiceProxy
from repro.services.framework import ServiceHost, WebService
from repro.services.retry import BreakerRegistry, CircuitBreaker, RetryPolicy
from repro.transport.faults import FaultPlan
from repro.transport.http import HttpResponse
from repro.transport.network import SimulatedNetwork
from repro.workloads.skysim import SkyField

XMATCH_SQL = (
    "SELECT O.object_id, O.ra, T.obj_id "
    "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T, "
    "FIRST:Primary_Object P "
    "WHERE AREA(185.0, -0.5, 900.0) AND XMATCH(O, T, P) < 3.5"
)

DROPOUT_SQL = (
    "SELECT O.object_id, O.ra, T.obj_id "
    "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T, "
    "FIRST:Primary_Object P "
    "WHERE AREA(185.0, -0.5, 900.0) AND XMATCH(O, T, !P) < 3.5"
)


def echo_service_net():
    """A network with one Calc service and a client host name 'cli'."""
    net = SimulatedNetwork(default_latency_s=0.01,
                           default_bandwidth_bps=1e9)
    service = WebService("Calc")
    service.register(
        "Add", lambda a, b: a + b,
        params=(("a", "int"), ("b", "int")), returns="int",
    )

    host = ServiceHost("svc")
    url = host.mount("/calc", service)
    net.add_host("svc", host.handle)
    return net, url


def quick_policy(**overrides):
    defaults = dict(
        max_attempts=4, timeout_s=1.0, base_backoff_s=0.1,
        backoff_multiplier=2.0, max_backoff_s=2.0, jitter=0.0, seed=7,
    )
    defaults.update(overrides)
    return RetryPolicy(**defaults)


# -- FaultPlan -----------------------------------------------------------------


class TestFaultPlan:
    def synthetic_stream(self, plan, n=200):
        decisions = []
        for i in range(n):
            verdict = plan.on_message("request", "a", "b", float(i))
            decisions.append(
                None if verdict is None
                else (verdict.drop, verdict.extra_latency_s)
            )
        return decisions

    def test_same_seed_replays_identically(self):
        def build():
            return (
                FaultPlan(seed=5)
                .drop_requests(rate=0.2, label="drops")
                .latency_spikes(rate=0.1, extra_s=3.0, label="spikes")
            )

        assert self.synthetic_stream(build()) == self.synthetic_stream(build())

    def test_different_seeds_differ(self):
        one = FaultPlan(seed=1).drop_requests(rate=0.3)
        two = FaultPlan(seed=2).drop_requests(rate=0.3)
        assert self.synthetic_stream(one) != self.synthetic_stream(two)

    def test_adding_a_rule_keeps_earlier_draws(self):
        # Per-rule RNGs: scripting an extra rule must not perturb rule 0.
        lone = FaultPlan(seed=5).drop_requests(rate=0.2)
        paired = FaultPlan(seed=5).drop_requests(rate=0.2).drop_responses(
            rate=0.5
        )
        lone_hits = [lone._rules[0].fires() for _ in range(100)]
        paired_hits = [paired._rules[0].fires() for _ in range(100)]
        assert lone_hits == paired_hits

    def test_first_n_takes_precedence_over_rate(self):
        plan = FaultPlan().drop_requests(rate=0.0, first_n=3)
        hits = [
            plan.on_message("request", "a", "b", 0.0) is not None
            for _ in range(5)
        ]
        assert hits == [True, True, True, False, False]

    def test_rules_scope_to_link(self):
        plan = FaultPlan().drop_requests(src="a", dst="b")
        assert plan.on_message("request", "a", "b", 0.0).drop
        assert plan.on_message("request", "b", "a", 0.0) is None
        assert plan.on_message("response", "a", "b", 0.0) is None

    def test_drop_wins_over_delay(self):
        plan = (
            FaultPlan()
            .latency_spikes(rate=1.0, extra_s=2.0)
            .drop_requests(rate=1.0)
        )
        verdict = plan.on_message("request", "a", "b", 0.0)
        assert verdict.drop

    def test_outage_windows_on_sim_clock(self):
        plan = FaultPlan().outage("svc", 10.0, 20.0)
        assert not plan.host_in_outage("svc", 9.9)
        assert plan.host_in_outage("svc", 10.0)
        assert plan.host_in_outage("svc", 19.9)
        assert not plan.host_in_outage("svc", 20.0)
        assert not plan.host_in_outage("other", 15.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan().drop_requests(rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan().latency_spikes(extra_s=0.0)
        with pytest.raises(ValueError):
            FaultPlan().outage("svc", 5.0, 5.0)

    def test_injection_summary_counts(self):
        plan = FaultPlan().drop_requests(first_n=2, label="warmup")
        for _ in range(5):
            plan.on_message("request", "a", "b", 0.0)
        assert plan.injection_summary() == {"warmup": 2}


# -- transport-level faults --------------------------------------------------------


class TestNetworkFaults:
    def test_dropped_request_times_out(self):
        net, url = echo_service_net()
        net.set_fault_plan(FaultPlan().drop_requests(dst="svc"))
        proxy = ServiceProxy(net, "cli", url)
        before = net.clock.now
        with pytest.raises(RequestTimeoutError):
            proxy.call("Add", a=1, b=2)
        # The caller waited out the default timeout on the sim clock.
        assert net.clock.now - before >= net.default_timeout_s
        assert net.metrics.timeouts == 1
        assert net.metrics.fault_count("request-drop") == 1

    def test_dropped_response_times_out_after_handler_ran(self):
        net, url = echo_service_net()
        net.set_fault_plan(FaultPlan().drop_responses(src="svc"))
        proxy = ServiceProxy(net, "cli", url)
        with pytest.raises(RequestTimeoutError):
            proxy.call("Add", a=1, b=2)
        assert net.metrics.fault_count("response-drop") == 1

    def test_latency_spike_below_timeout_just_slows(self):
        net, url = echo_service_net()
        net.set_fault_plan(
            FaultPlan().latency_spikes(dst="svc", rate=1.0, extra_s=0.5)
        )
        proxy = ServiceProxy(net, "cli", url,
                             retry_policy=quick_policy(timeout_s=5.0))
        before = net.clock.now
        assert proxy.call("Add", a=20, b=22) == 42
        assert net.clock.now - before >= 0.5
        assert net.metrics.fault_count("latency-spike") == 1
        assert net.metrics.timeouts == 0

    def test_latency_spike_above_timeout_raises(self):
        net, url = echo_service_net()
        net.set_fault_plan(
            FaultPlan().latency_spikes(dst="svc", rate=1.0, extra_s=10.0)
        )
        proxy = ServiceProxy(
            net, "cli", url,
            retry_policy=quick_policy(max_attempts=1, timeout_s=1.0),
        )
        with pytest.raises(RequestTimeoutError):
            proxy.call("Add", a=1, b=2)
        # A single attempt, a single timeout.
        assert net.metrics.timeouts == 1

    def test_outage_window_refuses_then_recovers(self):
        net, url = echo_service_net()
        net.set_fault_plan(FaultPlan().outage("svc", 0.0, 50.0))
        proxy = ServiceProxy(net, "cli", url)
        with pytest.raises(TransportError):
            proxy.call("Add", a=1, b=2)
        assert net.metrics.fault_count("outage") == 1
        net.sleep(60.0)
        assert proxy.call("Add", a=20, b=22) == 42

    def test_non_soap_http_error_raises_transport_error(self):
        # Satellite: a plain HTTP error (no SOAP envelope) must surface as
        # a TransportError naming the status, not a parse failure.
        net = SimulatedNetwork()
        net.add_host(
            "svc", lambda request: HttpResponse(
                503, body=b"Service Unavailable"
            )
        )
        proxy = ServiceProxy(net, "cli", "http://svc/x")
        with pytest.raises(TransportError) as excinfo:
            proxy.call("Ping")
        assert "503" in str(excinfo.value)
        assert not isinstance(excinfo.value, RequestTimeoutError)


# -- retries --------------------------------------------------------------------


class TestRetries:
    def test_backoff_schedule_grows_and_caps(self):
        policy = quick_policy()
        rng = policy.rng_for("cli", "http://svc/x")
        schedule = [policy.backoff_s(n, rng) for n in range(1, 7)]
        assert schedule == pytest.approx([0.1, 0.2, 0.4, 0.8, 1.6, 2.0])

    def test_jitter_is_seeded(self):
        policy = quick_policy(jitter=0.5)
        one = policy.backoff_s(1, policy.rng_for("cli", "http://svc/x"))
        two = policy.backoff_s(1, policy.rng_for("cli", "http://svc/x"))
        assert one == two
        assert 0.1 <= one <= 0.15

    def test_flaky_first_n_recovers(self):
        net, url = echo_service_net()
        net.set_fault_plan(
            FaultPlan().drop_requests(dst="svc", first_n=2, label="warmup")
        )
        proxy = ServiceProxy(net, "cli", url, retry_policy=quick_policy())
        assert proxy.call("Add", a=20, b=22) == 42
        assert net.metrics.retries == 2
        assert net.metrics.timeouts == 2
        assert net.metrics.fault_count("request-drop") == 2
        assert net.metrics.backoff_seconds > 0

    def test_attempts_are_bounded(self):
        net, url = echo_service_net()
        net.set_fault_plan(FaultPlan().drop_requests(dst="svc"))
        proxy = ServiceProxy(
            net, "cli", url, retry_policy=quick_policy(max_attempts=3)
        )
        with pytest.raises(RequestTimeoutError):
            proxy.call("Add", a=1, b=2)
        assert net.metrics.timeouts == 3
        assert net.metrics.retries == 2

    def test_deadline_stops_retrying_early(self):
        net, url = echo_service_net()
        net.set_fault_plan(FaultPlan().drop_requests(dst="svc"))
        proxy = ServiceProxy(
            net, "cli", url,
            retry_policy=quick_policy(max_attempts=10, deadline_s=2.5),
        )
        with pytest.raises(RequestTimeoutError):
            proxy.call("Add", a=1, b=2)
        # timeout_s=1.0 per attempt: only a couple of attempts fit.
        assert net.metrics.timeouts < 10

    def test_retry_waits_ride_the_sim_clock(self):
        net, url = echo_service_net()
        net.set_fault_plan(
            FaultPlan().drop_requests(dst="svc", first_n=1)
        )
        proxy = ServiceProxy(net, "cli", url, retry_policy=quick_policy())
        before = net.clock.now
        proxy.call("Add", a=1, b=2)
        # 1 timeout (1.0s) + first backoff (0.1s) + the real round trip.
        assert net.clock.now - before >= 1.1

    def test_retried_parallel_branches_overlap(self):
        # Retries inside a parallel block serialize within their branch but
        # still overlap with sibling branches.
        net, url = echo_service_net()
        net.set_fault_plan(
            FaultPlan()
            .drop_requests(src="cli-a", dst="svc", first_n=1)
            .drop_requests(src="cli-b", dst="svc", first_n=1)
        )
        slow = ServiceProxy(net, "cli-a", url, retry_policy=quick_policy())
        also = ServiceProxy(net, "cli-b", url, retry_policy=quick_policy())
        start = net.clock.now
        with net.parallel():
            slow.call("Add", a=1, b=1)
            also.call("Add", a=2, b=2)
        elapsed = net.clock.now - start
        # Each branch pays ~1.1s (timeout + backoff); overlapped, not summed.
        assert elapsed < 1.6


# -- circuit breakers ---------------------------------------------------------------


class TestCircuitBreaker:
    def test_trips_after_threshold_and_half_opens(self):
        breaker = CircuitBreaker("u", failure_threshold=2, cooldown_s=10.0)
        breaker.record_failure(0.0)
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure(1.0)
        assert breaker.state == CircuitBreaker.OPEN
        with pytest.raises(CircuitOpenError) as excinfo:
            breaker.check(5.0)
        assert excinfo.value.retry_at_s == pytest.approx(11.0)
        breaker.check(11.0)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_success(11.5)
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker("u", failure_threshold=2, cooldown_s=10.0)
        breaker.record_failure(0.0)
        breaker.record_failure(1.0)
        breaker.check(11.0)
        breaker.record_failure(11.5)
        assert breaker.state == CircuitBreaker.OPEN
        with pytest.raises(CircuitOpenError):
            breaker.check(12.0)

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker("u", failure_threshold=3)
        breaker.record_failure(0.0)
        breaker.record_failure(0.0)
        breaker.record_success(0.0)
        breaker.record_failure(0.0)
        breaker.record_failure(0.0)
        assert breaker.state == CircuitBreaker.CLOSED

    def test_breaker_fails_fast_through_proxy(self):
        net, url = echo_service_net()
        breaker = CircuitBreaker(
            url, failure_threshold=2, cooldown_s=10.0,
            metrics=lambda: net.metrics,
        )
        proxy = ServiceProxy(
            net, "cli", url,
            retry_policy=quick_policy(max_attempts=1),
            breaker=breaker,
        )
        net.fail_host("svc")
        for _ in range(2):
            with pytest.raises(TransportError):
                proxy.call("Add", a=1, b=2)
        # Open: the next call fails fast with no wire traffic or clock cost.
        before_clock = net.clock.now
        before_msgs = net.metrics.message_count()
        with pytest.raises(CircuitOpenError):
            proxy.call("Add", a=1, b=2)
        assert net.clock.now == before_clock
        assert net.metrics.message_count() == before_msgs

        # Cooldown, recovery, half-open probe, close.
        net.restore_host("svc")
        net.sleep(10.0)
        assert proxy.call("Add", a=20, b=22) == 42
        states = [
            (event.old_state, event.new_state)
            for event in net.metrics.breaker_transitions()
        ]
        assert states == [
            ("closed", "open"), ("open", "half-open"), ("half-open", "closed")
        ]

    def test_soap_fault_counts_as_breaker_success(self):
        # An application-level fault proves the endpoint is alive.
        net, url = echo_service_net()
        breaker = CircuitBreaker(url, failure_threshold=1)
        proxy = ServiceProxy(net, "cli", url, breaker=breaker)
        with pytest.raises(SoapFaultError):
            proxy.call("NoSuchOperation")
        assert breaker.state == CircuitBreaker.CLOSED

    def test_registry_shares_breakers_per_endpoint(self):
        registry = BreakerRegistry(failure_threshold=2)
        one = registry.breaker_for("http://a/x")
        assert registry.breaker_for("http://a/x") is one
        assert registry.breaker_for("http://b/x") is not one
        one.record_failure(0.0)
        one.record_failure(0.0)
        assert registry.states() == {
            "http://a/x": "open", "http://b/x": "closed"
        }


# -- federation-level resilience -------------------------------------------------


def _resilient_config(fault_plan=None):
    return FederationConfig(
        n_bodies=250,
        seed=9,
        sky_field=SkyField(185.0, -0.5, 1800.0),
        retry_policy=RetryPolicy(
            max_attempts=4, timeout_s=8.0, base_backoff_s=0.2,
            max_backoff_s=2.0, seed=9,
        ),
        fault_plan=fault_plan,
    )


def _drop_plan():
    # 10% of all requests vanish, federation-wide. (A whole cross-match is
    # only ~10 request messages, so the seed is chosen to actually fire.)
    return FaultPlan(seed=2).drop_requests(rate=0.10, label="drops")


@pytest.fixture(scope="module")
def baseline_federation():
    """Fault-free reference run (same sky as the faulty federations)."""
    return build_federation(_resilient_config())


@pytest.fixture(scope="module")
def faulty_federation():
    return build_federation(_resilient_config(fault_plan=_drop_plan()))


class TestFederationResilience:
    def test_ten_percent_drops_complete_with_identical_rows(
        self, baseline_federation, faulty_federation
    ):
        clean = baseline_federation.client().submit(XMATCH_SQL)
        assert len(clean) > 0

        faulty = faulty_federation.client().submit(XMATCH_SQL)
        metrics = faulty_federation.network.metrics
        assert sorted(faulty.rows) == sorted(clean.rows)
        assert not faulty.degraded
        # The faults really happened and really were retried.
        assert metrics.fault_count("request-drop") > 0
        assert metrics.retries > 0
        assert metrics.timeouts > 0

    def test_fault_runs_replay_identically(self, faulty_federation):
        replay = build_federation(_resilient_config(fault_plan=_drop_plan()))
        first = faulty_federation
        # Both federations saw the same scripted faults... (the fixture
        # already ran one query; replay it to align the rule streams)
        first_rows = first.client().submit(XMATCH_SQL).rows
        replay.client().submit(XMATCH_SQL)
        replay_rows = replay.client().submit(XMATCH_SQL).rows
        assert sorted(first_rows) == sorted(replay_rows)

    def test_health_probe_traffic_is_phased(self, baseline_federation):
        """Liveness comes from the count probes and the chain: a fault-free
        query pings nobody, and only a chain failure's recovery sends
        ``IsAlive`` — all of it under the ``health-probe`` phase."""
        fed = baseline_federation
        messages = fed.network.metrics.messages

        def pings(sql):
            before = len(messages)
            fed.client().submit(sql)
            return [m for m in messages[before:] if m.operation == "IsAlive"]

        assert pings(XMATCH_SQL) == []
        node = fed.node("FIRST")
        fed.network.fail_host(node.hostname)
        try:
            recovery = pings(DROPOUT_SQL)
        finally:
            fed.network.restore_host(node.hostname)
        assert recovery
        assert {m.phase for m in recovery} == {"health-probe"}

    def test_dead_dropout_head_is_not_pinged(self, baseline_federation):
        """The Portal's own open of a dead head already proved it dead:
        recovery prunes it without asking its Information service, so
        the only retries are the open's."""
        fed = baseline_federation
        first = fed.node("FIRST")
        information = first.service_urls()["information"]
        asked = []
        ping = fed.portal.ping

        def recording_ping(endpoints):
            asked.append(endpoints["information"])
            return ping(endpoints)

        fed.portal.ping = recording_ping
        fed.network.fail_host(first.hostname)
        retries = fed.network.metrics.retries
        try:
            result = fed.client().submit(DROPOUT_SQL)
        finally:
            fed.network.restore_host(first.hostname)
            del fed.portal.ping
        assert result.degraded and len(result) > 0
        assert asked and information not in asked
        policy = fed.config.retry_policy
        assert fed.network.metrics.retries - retries == policy.max_attempts - 1

    def test_dead_dropout_archive_degrades_with_partial_result(
        self, baseline_federation
    ):
        fed = baseline_federation
        node = fed.node("FIRST")
        fed.network.fail_host(node.hostname)
        try:
            result = fed.client().submit(DROPOUT_SQL)
        finally:
            fed.network.restore_host(node.hostname)
        # The !P drop-out archive is gone: the match completes without it.
        assert result.degraded
        assert len(result) > 0
        assert any("FIRST" in warning for warning in result.warnings)

    def test_dead_mandatory_archive_degrades_empty(self, baseline_federation):
        fed = baseline_federation
        node = fed.node("TWOMASS")
        fed.network.fail_host(node.hostname)
        try:
            result = fed.client().submit(XMATCH_SQL)
        finally:
            fed.network.restore_host(node.hostname)
        assert result.degraded
        assert result.rows == []
        assert any("TWOMASS" in warning for warning in result.warnings)


# -- deadline clamping (regression) ---------------------------------------------


class TestDeadlineClamp:
    def test_last_attempt_timeout_is_clamped_to_deadline(self):
        # Regression: the final attempt used to run with the full
        # per-attempt timeout even when the deadline budget had less left,
        # overrunning the caller's deadline by up to one whole timeout.
        net, url = echo_service_net()
        net.set_fault_plan(FaultPlan().drop_requests(dst="svc"))
        policy = quick_policy(max_attempts=10, timeout_s=1.0, deadline_s=2.5)
        proxy = ServiceProxy(net, "cli", url, retry_policy=policy)
        before = net.clock.now
        with pytest.raises(RequestTimeoutError):
            proxy.call("Add", a=1, b=2)
        elapsed = net.clock.now - before
        # attempt(1.0) + backoff(0.1) + attempt(1.0) + backoff(0.2) +
        # clamped final attempt(0.2) = 2.5 exactly; never a full extra 1.0.
        assert elapsed <= policy.deadline_s + 1e-9
        assert net.metrics.timeouts == 3

    def test_deadline_without_timeout_bounds_each_attempt(self):
        # With no per-attempt timeout at all, the deadline alone must bound
        # every attempt instead of falling back to the network default.
        net, url = echo_service_net()
        net.set_fault_plan(FaultPlan().drop_requests(dst="svc"))
        policy = quick_policy(
            max_attempts=10, timeout_s=None, deadline_s=1.5
        )
        proxy = ServiceProxy(net, "cli", url, retry_policy=policy)
        before = net.clock.now
        with pytest.raises(RequestTimeoutError):
            proxy.call("Add", a=1, b=2)
        assert net.clock.now - before <= 1.5 + 1e-9


# -- WSDL fetch resilience ------------------------------------------------------


class TestWsdlFetchResilience:
    def test_fetch_wsdl_retries_transient_drops(self):
        net, url = echo_service_net()
        net.set_fault_plan(
            FaultPlan().drop_requests(dst="svc", first_n=2, label="warmup")
        )
        proxy = ServiceProxy(net, "cli", url, retry_policy=quick_policy())
        description = proxy.fetch_wsdl()
        assert description.operation("Add") is not None
        assert net.metrics.retries == 2
        assert net.metrics.fault_count("request-drop") == 2

    def test_fetch_wsdl_counts_against_the_breaker(self):
        net, url = echo_service_net()
        breaker = CircuitBreaker(url, failure_threshold=2, cooldown_s=10.0)
        proxy = ServiceProxy(
            net, "cli", url,
            retry_policy=quick_policy(max_attempts=1),
            breaker=breaker,
        )
        net.fail_host("svc")
        for _ in range(2):
            with pytest.raises(TransportError):
                proxy.fetch_wsdl()
        assert breaker.state == CircuitBreaker.OPEN
        with pytest.raises(CircuitOpenError):
            proxy.fetch_wsdl()

    def test_fetch_wsdl_without_policy_stays_single_shot(self):
        net, url = echo_service_net()
        net.set_fault_plan(FaultPlan().drop_requests(dst="svc", first_n=1))
        proxy = ServiceProxy(net, "cli", url)
        with pytest.raises(TransportError):
            proxy.fetch_wsdl()
        assert net.metrics.retries == 0
