"""Tests for the resilience layer: fault injection, retry/backoff,
circuit breakers, forwarder durability and graceful degradation."""

import random

import pytest

from repro.audit import AuditEvent, AuditLog, Outcome
from repro.broker import Role
from repro.clock import SimClock
from repro.core import build_isambard
from repro.errors import (
    AuthorizationError,
    CircuitOpen,
    ConfigurationError,
    FaultInjected,
    ReproError,
    ServiceUnavailable,
    TokenRevoked,
)
from repro.net import (
    HttpRequest,
    HttpResponse,
    Network,
    OperatingDomain,
    Service,
    Zone,
    route,
)
from repro.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    FaultInjector,
    Resilience,
    ResilienceRuntime,
    RetryPolicy,
)
from repro.siem import LogForwarder


# ---------------------------------------------------------------------------
# scaffolding: a tiny two-endpoint network with chaos attached
# ---------------------------------------------------------------------------
class Echo(Service):
    @route("GET", "/ping")
    def ping(self, request):
        return HttpResponse.json({"pong": True})


@pytest.fixture()
def chaos_net():
    clock = SimClock()
    faults = FaultInjector(clock, random.Random(7))
    network = Network(clock, audit=AuditLog("net"), faults=faults)
    network.firewall.allow(
        "e-to-f", src_domain=OperatingDomain.EXTERNAL,
        dst_domain=OperatingDomain.FDS, port=443,
    )
    client = Echo("laptop")
    network.attach(client, OperatingDomain.EXTERNAL, Zone.INTERNET)
    network.attach(Echo("broker"), OperatingDomain.FDS, Zone.ACCESS)
    return network, client, faults, clock


def ping(network):
    return network.request("laptop", "broker", HttpRequest("GET", "/ping"))


# ---------------------------------------------------------------------------
# FaultInjector
# ---------------------------------------------------------------------------
def test_no_faults_is_a_no_op(chaos_net):
    network, _, faults, _ = chaos_net
    assert ping(network).ok
    assert faults.injected_failures == 0
    assert network.messages_faulted == 0


def test_outage_fails_every_message_and_is_audited(chaos_net):
    network, _, faults, clock = chaos_net
    faults.outage("broker", duration=10.0)
    before = clock.now()
    with pytest.raises(FaultInjected):
        ping(network)
    # a FaultInjected is a ServiceUnavailable: clients need no new handling
    with pytest.raises(ServiceUnavailable):
        ping(network)
    assert faults.injected_failures == 2
    assert faults.failures_by_endpoint["broker"] == 2
    assert network.messages_faulted == 2
    # a failed connect burns the caller's timeout on the simulated clock
    assert clock.now() == pytest.approx(before + 2 * faults.fail_cost)
    assert network.audit.query(action="fault.injected")
    # the window ends: service restored
    clock.advance(10.0)
    assert ping(network).ok


def test_brownout_is_probabilistic_and_deterministic(chaos_net):
    network, _, faults, _ = chaos_net
    faults.brownout("broker", 0.5)
    outcomes = []
    for _ in range(40):
        try:
            ping(network)
            outcomes.append(True)
        except FaultInjected:
            outcomes.append(False)
    assert 0 < sum(outcomes) < 40  # some pass, some fail
    # same seed, same world -> bit-for-bit identical outcome sequence
    clock2 = SimClock()
    faults2 = FaultInjector(clock2, random.Random(7))
    network2 = Network(clock2, audit=AuditLog("net"), faults=faults2)
    network2.firewall.allow(
        "e-to-f", src_domain=OperatingDomain.EXTERNAL,
        dst_domain=OperatingDomain.FDS, port=443)
    network2.attach(Echo("laptop"), OperatingDomain.EXTERNAL, Zone.INTERNET)
    network2.attach(Echo("broker"), OperatingDomain.FDS, Zone.ACCESS)
    faults2.brownout("broker", 0.5)
    outcomes2 = []
    for _ in range(40):
        try:
            ping(network2)
            outcomes2.append(True)
        except FaultInjected:
            outcomes2.append(False)
    assert outcomes == outcomes2


def test_brownout_probability_validated(chaos_net):
    _, _, faults, _ = chaos_net
    with pytest.raises(ConfigurationError):
        faults.brownout("broker", 1.5)


def test_clear_single_fault(chaos_net):
    network, _, faults, _ = chaos_net
    f1 = faults.outage("broker")
    assert len(faults.active_faults()) == 1
    faults.clear(f1)
    assert faults.active_faults() == []
    assert ping(network).ok


# ---------------------------------------------------------------------------
# RetryPolicy / Resilience.call
# ---------------------------------------------------------------------------
def test_backoff_is_exponential_and_capped():
    # doubling (BACKOFF_MULTIPLIER) from 0.1 s up to the 2 s MAX_BACKOFF
    policy = RetryPolicy(base_delay=0.1, jitter=0.0)
    rng = random.Random(0)
    assert [policy.backoff(n, rng) for n in (1, 2, 3, 4, 5, 6)] == \
        [0.1, 0.2, 0.4, 0.8, 1.6, 2.0]


def test_jitter_shrinks_backoff_deterministically():
    policy = RetryPolicy(base_delay=1.0, jitter=0.5)
    a = policy.backoff(1, random.Random(3))
    b = policy.backoff(1, random.Random(3))
    assert a == b and 0.5 <= a <= 1.0


def test_retry_succeeds_after_transient_failures():
    clock = SimClock()
    calls = {"n": 0}

    def flaky():
        calls["n"] += 1
        if calls["n"] < 3:
            raise ServiceUnavailable("transient")
        return "ok"

    kit = Resilience("c", clock, random.Random(1),
                     policy=RetryPolicy(max_attempts=4, jitter=0.0))
    assert kit.call(flaky, dst="svc") == "ok"
    assert calls["n"] == 3
    assert kit.metrics.retries == 2 and kit.metrics.successes == 1
    assert clock.now() > 0  # the waits consumed simulated time


def test_retry_exhausts_budget_and_reraises():
    clock = SimClock()

    def always_down():
        raise ServiceUnavailable("down")

    kit = Resilience("c", clock, random.Random(1),
                     policy=RetryPolicy(max_attempts=3, jitter=0.0))
    with pytest.raises(ServiceUnavailable):
        kit.call(always_down, dst="svc")
    assert kit.metrics.attempts == 3 and kit.metrics.failures == 1


def test_retry_respects_deadline():
    clock = SimClock()
    policy = RetryPolicy(max_attempts=100, base_delay=2.0, jitter=0.0)

    def always_down():
        raise ServiceUnavailable("down")

    kit = Resilience("c", clock, random.Random(1), policy=policy)
    with pytest.raises(ServiceUnavailable):
        kit.call(always_down, deadline=5.0)
    # every wait is capped at MAX_BACKOFF (2 s):
    # attempts at t=0, 2, 4; the wait to t=6 would overrun the deadline
    assert clock.now() == pytest.approx(4.0)
    assert kit.metrics.deadline_abandons == 1


def test_non_transient_errors_propagate_immediately():
    clock = SimClock()
    calls = {"n": 0}

    def wrong():
        calls["n"] += 1
        raise AuthorizationError("denied")

    kit = Resilience("c", clock, random.Random(1))
    with pytest.raises(AuthorizationError):
        kit.call(wrong, dst="svc")
    assert calls["n"] == 1  # an authz denial is not retried


# ---------------------------------------------------------------------------
# CircuitBreaker
# ---------------------------------------------------------------------------
def test_breaker_opens_at_threshold_and_recovers():
    clock = SimClock()
    b = CircuitBreaker(clock, failure_threshold=3, recovery_time=10.0)
    assert b.state == CLOSED
    for _ in range(3):
        assert b.allow()
        b.record_failure()
    assert b.state == OPEN and b.opens == 1
    assert not b.allow() and b.short_circuits == 1
    clock.advance(10.0)
    assert b.state == HALF_OPEN
    assert b.allow()
    b.record_success()
    assert b.state == CLOSED
    assert b.time_in_open() == pytest.approx(10.0)


def test_breaker_half_open_probe_failure_reopens():
    clock = SimClock()
    b = CircuitBreaker(clock, failure_threshold=1, recovery_time=5.0)
    b.record_failure()
    assert b.state == OPEN
    clock.advance(5.0)
    assert b.state == HALF_OPEN
    b.record_failure()
    assert b.state == OPEN and b.opens == 2


def test_breaker_success_resets_consecutive_count():
    clock = SimClock()
    b = CircuitBreaker(clock, failure_threshold=2)
    b.record_failure()
    b.record_success()
    b.record_failure()
    assert b.state == CLOSED  # never two *consecutive* failures


def test_open_breaker_sheds_without_calling():
    clock = SimClock()
    calls = {"n": 0}

    def down():
        calls["n"] += 1
        raise ServiceUnavailable("down")

    kit = Resilience(
        "c", clock, random.Random(1),
        policy=RetryPolicy(max_attempts=1),
        breaker_factory=lambda label: CircuitBreaker(
            clock, name=label, failure_threshold=2, recovery_time=30.0),
    )
    for _ in range(2):
        with pytest.raises(ServiceUnavailable):
            kit.call(down, dst="svc")
    with pytest.raises(CircuitOpen):
        kit.call(down, dst="svc")
    assert calls["n"] == 2  # the shed call never reached the function
    assert kit.metrics.short_circuits == 1
    # CircuitOpen is itself a ServiceUnavailable for upstream handlers
    assert issubclass(CircuitOpen, ServiceUnavailable)


def test_runtime_aggregates_and_caches_kits():
    clock = SimClock()
    runtime = ResilienceRuntime(clock, random.Random(1))
    assert runtime.for_client("a") is runtime.for_client("a")
    kit = runtime.for_client("a")
    kit.call(lambda: "ok", dst="svc")
    totals = runtime.totals()
    assert totals["calls"] == 1 and totals["successes"] == 1
    assert totals["breaker_opens"] == 0


# ---------------------------------------------------------------------------
# Service.call integration: retries ride through injected faults
# ---------------------------------------------------------------------------
def test_service_call_retries_through_brownout(chaos_net):
    network, client, faults, clock = chaos_net
    runtime = ResilienceRuntime(
        clock, random.Random(11),
        policy=RetryPolicy(max_attempts=8, jitter=0.0), failure_threshold=20,
    )
    client.resilience = runtime.for_client("laptop")
    faults.brownout("broker", 0.5)
    for _ in range(10):
        assert client.call("broker", HttpRequest("GET", "/ping")).ok
    assert client.resilience.metrics.retries > 0
    assert faults.injected_failures > 0


def test_service_call_fail_fast_without_kit(chaos_net):
    network, client, faults, _ = chaos_net
    faults.outage("broker")
    with pytest.raises(FaultInjected):
        client.call("broker", HttpRequest("GET", "/ping"))


# ---------------------------------------------------------------------------
# LogForwarder durability (satellite: batch-loss fix)
# ---------------------------------------------------------------------------
def flap_sink(down):
    shipped = []

    def sink(records):
        if down["down"]:
            raise ServiceUnavailable("soc endpoint is down")
        shipped.extend(records)

    return sink, shipped


def ev(t, action):
    return AuditEvent(time=t, source="svc", actor="a", action=action,
                      resource="r", outcome=Outcome.INFO)


def test_forwarder_retains_batch_across_sink_outage():
    clock = SimClock()
    down = {"down": True}
    sink, shipped = flap_sink(down)
    fw = LogForwarder("fw", clock, sink, interval=5)
    log = AuditLog("svc")
    fw.watch(log)
    log.emit(ev(0.0, "ssh.connect"))
    log.emit(ev(1.0, "ssh.connect"))
    assert fw.flush() == 0
    assert fw.sink_failures == 1 and fw.buffered() == 2 and fw.lost == 0
    # more records arrive during the outage; order must be preserved
    log.emit(ev(2.0, "ssh.connect"))
    down["down"] = False
    assert fw.flush() == 3
    assert [r["time"] for r in shipped] == [0.0, 1.0, 2.0]
    assert fw.shipped == 3 and fw.lost == 0


def test_forwarder_overflow_is_counted_not_silent():
    clock = SimClock()
    down = {"down": True}
    sink, _ = flap_sink(down)
    fw = LogForwarder("fw", clock, sink, interval=5, max_buffer=3)
    log = AuditLog("svc")
    fw.watch(log)
    for i in range(5):
        log.emit(ev(float(i), "ssh.connect"))
    assert fw.buffered() == 3 and fw.lost == 2  # oldest evicted, counted


def test_forwarder_legacy_mode_drops_batch():
    clock = SimClock()
    down = {"down": True}
    sink, shipped = flap_sink(down)
    fw = LogForwarder("fw", clock, sink, interval=5, retain_on_failure=False)
    log = AuditLog("svc")
    fw.watch(log)
    log.emit(ev(0.0, "ssh.connect"))
    fw.flush()
    assert fw.lost == 1 and fw.buffered() == 0
    down["down"] = False
    fw.flush()
    assert shipped == []  # the batch is gone — what durability buys


# ---------------------------------------------------------------------------
# graceful degradation: Jupyter introspection cache
# ---------------------------------------------------------------------------
class StubBroker(Service):
    def __init__(self):
        super().__init__("broker")
        self.active = True

    @route("POST", "/introspect")
    def introspect(self, request):
        return HttpResponse.json({"active": self.active})


@pytest.fixture()
def degraded_world():
    from repro.cluster.jupyter import JupyterService

    clock = SimClock()
    network = Network(clock, audit=AuditLog("net"))
    network.firewall.allow(
        "m-to-f", src_domain=OperatingDomain.MDC,
        dst_domain=OperatingDomain.FDS, port=443)
    broker = StubBroker()
    network.attach(broker, OperatingDomain.FDS, Zone.ACCESS)
    jupyter = JupyterService(
        "jupyter", clock, None, None, None, staleness_window=60.0)
    network.attach(jupyter, OperatingDomain.MDC, Zone.HPC)
    return clock, network, broker, jupyter


def test_degraded_accepts_only_fresh_cached_verdict(degraded_world):
    clock, network, broker, jupyter = degraded_world
    jupyter._introspect("tok", "jti-1", "uma")   # live verdict cached
    network.endpoint("broker").up = False
    clock.advance(30.0)
    jupyter._introspect("tok", "jti-1", "uma")   # within the window: ok
    assert jupyter.degraded_validations == 1
    clock.advance(60.0)
    with pytest.raises(ServiceUnavailable):      # stale: fail closed
        jupyter._introspect("tok", "jti-1", "uma")
    assert jupyter.degraded_rejections == 1


def test_degraded_rejects_never_introspected_token(degraded_world):
    clock, network, broker, jupyter = degraded_world
    network.endpoint("broker").up = False
    with pytest.raises(ServiceUnavailable):
        jupyter._introspect("tok", "jti-new", "uma")
    assert jupyter.degraded_validations == 0


def test_degraded_never_accepts_post_revocation_verdict(degraded_world):
    clock, network, broker, jupyter = degraded_world
    jupyter._introspect("tok", "jti-1", "uma")
    broker.active = False                        # token revoked at the broker
    with pytest.raises(TokenRevoked):
        jupyter._introspect("tok", "jti-1", "uma")
    # the revocation verdict overwrote the cache: degraded mode now
    # refuses this token no matter how fresh the cache is
    network.endpoint("broker").up = False
    with pytest.raises(ServiceUnavailable):
        jupyter._introspect("tok", "jti-1", "uma")


# ---------------------------------------------------------------------------
# graceful degradation: tunnel re-enrollment after drops
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def dri():
    return build_isambard(seed=99)


def test_zenith_tunnel_reenrols_after_expiry(dri):
    record = dri.zenith.tunnels["jupyter"]
    dri.clock.advance(dri.zenith.heartbeat_ttl + 1.0)
    assert not record.usable(dri.clock.now())    # the tunnel dropped
    before = dri.zenith_client.reenrollments
    dri.refresh_tunnels()                        # heartbeat mints fresh token
    assert dri.zenith_client.reenrollments == before + 1
    assert dri.zenith.tunnels["jupyter"].usable(dri.clock.now())


def test_tailnet_node_reenrols_after_key_expiry(dri):
    token, _ = dri.broker.tokens.mint("ops1", "tailnet", Role.ADMIN_INFRA)
    agent = Echo("ops1-device")
    dri.network.attach(agent, OperatingDomain.EXTERNAL, Zone.INTERNET)
    enrol = agent.call("tailnet", HttpRequest(
        "POST", "/enrol", headers={"Authorization": f"Bearer {token}"},
        body={"hostname": "ops1-laptop"},
    ))
    assert enrol.ok
    node_id = str(enrol.body["node_id"])
    dri.clock.advance(dri.tailnet.key_ttl + 1.0)
    assert not dri.tailnet.node(node_id).usable(dri.clock.now())
    # re-enrolment needs a *fresh* admin authentication
    token2, _ = dri.broker.tokens.mint("ops1", "tailnet", Role.ADMIN_INFRA)
    resp = agent.call("tailnet", HttpRequest(
        "POST", "/reenrol", headers={"Authorization": f"Bearer {token2}"},
        body={"node_id": node_id},
    ))
    assert resp.ok
    assert dri.tailnet.node(node_id).usable(dri.clock.now())
    assert dri.tailnet.reenrolments == 1
    # a different subject cannot rotate someone else's node key
    token3, _ = dri.broker.tokens.mint("mallory", "tailnet", Role.ADMIN_INFRA)
    resp = agent.call("tailnet", HttpRequest(
        "POST", "/reenrol", headers={"Authorization": f"Bearer {token3}"},
        body={"node_id": node_id},
    ))
    assert resp.status == 403


def test_disabled_node_cannot_reenrol(dri):
    token, _ = dri.broker.tokens.mint("ops2", "tailnet", Role.ADMIN_INFRA)
    agent = Echo("ops2-device")
    dri.network.attach(agent, OperatingDomain.EXTERNAL, Zone.INTERNET)
    enrol = agent.call("tailnet", HttpRequest(
        "POST", "/enrol", headers={"Authorization": f"Bearer {token}"},
        body={"hostname": "ops2-laptop"},
    ))
    node_id = str(enrol.body["node_id"])
    dri.tailnet.disable_node(node_id)
    resp = agent.call("tailnet", HttpRequest(
        "POST", "/reenrol", headers={"Authorization": f"Bearer {token}"},
        body={"node_id": node_id},
    ))
    assert resp.status == 403 and "disabled" in str(resp.body)


# ---------------------------------------------------------------------------
# graceful degradation: RelyingParty cached JWKS
# ---------------------------------------------------------------------------
def test_rp_falls_back_to_cached_jwks_when_provider_down():
    dri = build_isambard(seed=101)
    rp = dri.zenith._rp
    rp._discover()                               # warm the cache
    issuer = rp._issuer
    dri.network.endpoint("broker").up = False
    rp._discover(force=True)                     # degraded: cache survives
    assert rp.degraded_discoveries == 1
    assert rp._issuer == issuer
    # with a max age, a *fresh-enough* cache short-circuits entirely
    rp.jwks_max_age = 3600.0
    rp._discover()
    assert rp.degraded_discoveries == 1          # no network attempt made


def test_resilient_deployment_attaches_kits_everywhere():
    dri = build_isambard(seed=102, resilience=True)
    assert dri.resilience is not None
    for svc in (dri.broker, dri.zenith, dri.jupyter, dri.zenith_client,
                dri.bastion, dri.tailnet):
        assert svc.resilience is not None
    # workflow-created user agents get kits too
    persona = dri.workflows.create_researcher("uma")
    assert persona.agent.resilience is not None
    # and a fail-fast build attaches none
    dri2 = build_isambard(seed=102)
    assert dri2.resilience is None and dri2.broker.resilience is None


# ---------------------------------------------------------------------------
# deadline-aware retry (PR 6 satellite): backoff/retry_after waits are
# capped by the request's remaining absolute deadline
# ---------------------------------------------------------------------------
def test_retry_abandons_wait_that_would_overrun_request_deadline():
    clock = SimClock()
    policy = RetryPolicy(max_attempts=5, base_delay=2.0, jitter=0.0)
    kit = Resilience("c", clock, random.Random(1), policy=policy)

    calls = []

    def flaky():
        calls.append(clock.now())
        raise ServiceUnavailable("down")

    # first backoff would be 2.0s but only 0.5s of deadline remains:
    # the wait is never taken and the real error re-raises immediately
    with pytest.raises(ServiceUnavailable):
        kit.call(flaky, dst="svc", deadline=clock.now() + 0.5)
    assert len(calls) == 1           # no second attempt
    assert clock.now() == calls[0]   # and no pointless sleep
    assert kit.metrics.deadline_abandons == 1
    assert kit.metrics.failures == 1
    assert kit.metrics.retries == 0


def test_retry_after_hint_is_also_capped_by_deadline():
    from repro.errors import RateLimited

    clock = SimClock()
    policy = RetryPolicy(max_attempts=5, base_delay=0.01, jitter=0.0)
    kit = Resilience("c", clock, random.Random(1), policy=policy)

    def shed():
        raise RateLimited("busy", retry_after=10.0)

    with pytest.raises(RateLimited):
        kit.call(shed, dst="svc", deadline=clock.now() + 1.0)
    assert kit.metrics.deadline_abandons == 1
    assert kit.metrics.honoured_retry_afters == 0
    assert clock.now() == 0.0


def test_generous_deadline_still_permits_retries():
    clock = SimClock()
    policy = RetryPolicy(max_attempts=3, base_delay=0.1, jitter=0.0)
    kit = Resilience("c", clock, random.Random(1), policy=policy)
    attempts = []

    def flaky():
        attempts.append(1)
        if len(attempts) < 3:
            raise ServiceUnavailable("down")
        return "ok"

    assert kit.call(flaky, dst="svc", deadline=clock.now() + 60.0) == "ok"
    assert len(attempts) == 3
    assert kit.metrics.deadline_abandons == 0
    assert kit.metrics.retries == 2


def test_service_call_threads_request_deadline_into_retry(chaos_net):
    # a networked call carrying an HttpRequest deadline must not sleep
    # through it in backoff: the client sees the transport error at a
    # simulated time strictly before the deadline
    network, client, faults, clock = chaos_net
    client.resilience = Resilience(
        "laptop", clock, random.Random(3),
        policy=RetryPolicy(max_attempts=6, base_delay=5.0, jitter=0.0))
    faults.outage("broker", duration=100.0)
    deadline = clock.now() + 2.0
    with pytest.raises(FaultInjected):
        client.call("broker", HttpRequest("GET", "/ping", deadline=deadline))
    assert clock.now() < deadline
    assert client.resilience.metrics.deadline_abandons == 1
