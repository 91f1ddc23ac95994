"""Tests for the overload-protection layer: admission control, priority
shedding, deadline propagation, AIMD pacing, retry_after honouring, the
bounded Slurm queue and the audit trail under shedding."""

import random

import pytest

from repro.audit import AuditLog, Outcome
from repro.clock import SimClock
from repro.cluster import NodePool, SlurmScheduler
from repro.core import build_isambard
from repro.errors import (
    ConfigurationError,
    DeadlineExceeded,
    NetworkError,
    RateLimited,
    ServiceUnavailable,
)
from repro.ids import IdFactory
from repro.net import (
    HttpRequest,
    HttpResponse,
    Network,
    OperatingDomain,
    Service,
    Zone,
    route,
)
from repro.oidc import UserAgent, make_url
from repro.resilience import (
    AdmissionController,
    AdmissionPolicy,
    AimdLimiter,
    CircuitBreaker,
    OverloadConfig,
    Priority,
    Resilience,
    ResilienceRuntime,
    RetryPolicy,
)
from repro.siem.timeline import IncidentTimeline, TimelineEntry, build_timeline
from repro.tunnels import CloudflareEdge


# ---------------------------------------------------------------------------
# exception taxonomy: overload signals are not outages and not denials
# ---------------------------------------------------------------------------
def test_overload_exceptions_are_network_errors_not_unavailability():
    # RateLimited must NOT be a ServiceUnavailable: the Jupyter degraded
    # path (accept cached verdicts while the broker is *down*) must never
    # open up because the broker merely shed a request
    assert issubclass(RateLimited, NetworkError)
    assert not issubclass(RateLimited, ServiceUnavailable)
    assert issubclass(DeadlineExceeded, NetworkError)
    assert not issubclass(DeadlineExceeded, ServiceUnavailable)
    exc = RateLimited("shed", retry_after=1.5, service="broker",
                      priority=Priority.BATCH)
    assert exc.retry_after == 1.5
    assert exc.service == "broker"
    assert exc.priority == "batch"


# ---------------------------------------------------------------------------
# AdmissionController: token bucket, two-level shedding, bulkhead
# ---------------------------------------------------------------------------
def make_controller(**overrides):
    clock = SimClock()
    defaults = dict(rate=10.0, burst=5.0, batch_headroom=0.4, max_concurrent=3)
    defaults.update(overrides)
    return AdmissionController("svc", clock, AdmissionPolicy(**defaults)), clock


def test_token_bucket_admits_burst_then_sheds_with_retry_after():
    ctrl, _ = make_controller()
    for _ in range(5):
        assert ctrl.admit("/x", Priority.INTERACTIVE)
        ctrl.release()
    with pytest.raises(RateLimited) as err:
        ctrl.admit("/x", Priority.INTERACTIVE)
    assert err.value.retry_after is not None and err.value.retry_after > 0
    assert err.value.service == "svc"
    assert err.value.priority == Priority.INTERACTIVE
    assert ctrl.shed[Priority.INTERACTIVE] == 1


def test_bucket_refills_with_simulated_time():
    ctrl, clock = make_controller()
    for _ in range(5):
        ctrl.admit("/x", Priority.INTERACTIVE)
        ctrl.release()
    with pytest.raises(RateLimited) as err:
        ctrl.admit("/x", Priority.INTERACTIVE)
    clock.advance(err.value.retry_after)
    assert ctrl.admit("/x", Priority.INTERACTIVE)  # hint was honest


def test_two_level_shedding_drops_batch_before_interactive():
    # burst=5, headroom=0.4 -> batch needs tokens > 2; drain to 2 tokens
    ctrl, _ = make_controller()
    for _ in range(3):
        ctrl.admit("/x", Priority.INTERACTIVE)
        ctrl.release()
    with pytest.raises(RateLimited):
        ctrl.admit("/x", Priority.BATCH)      # batch already shed ...
    assert ctrl.admit("/x", Priority.INTERACTIVE)  # ... interactive not
    ctrl.release()
    assert ctrl.shed[Priority.BATCH] == 1
    assert ctrl.shed[Priority.INTERACTIVE] == 0


def test_admin_is_never_shed_and_consumes_no_tokens():
    ctrl, _ = make_controller()
    for _ in range(5):
        ctrl.admit("/x", Priority.INTERACTIVE)
        ctrl.release()
    # bucket empty and bulkhead irrelevant: admin still goes through
    for _ in range(20):
        assert ctrl.admit("/x", Priority.ADMIN) is False  # no bulkhead slot
    assert ctrl.shed[Priority.ADMIN] == 0
    assert ctrl.admitted[Priority.ADMIN] == 20


def test_bulkhead_limits_concurrent_sheddable_requests():
    ctrl, _ = make_controller(burst=50.0)
    for _ in range(3):
        assert ctrl.admit("/x", Priority.INTERACTIVE)  # held, not released
    with pytest.raises(RateLimited):
        ctrl.admit("/x", Priority.INTERACTIVE)
    assert ctrl.bulkhead_rejections == 1
    assert ctrl.admit("/x", Priority.ADMIN) is False  # admin bypasses
    ctrl.release()
    assert ctrl.admit("/x", Priority.INTERACTIVE)


def test_path_scoping_only_guards_declared_prefixes():
    ctrl, _ = make_controller(paths=("/tokens", "/login"))
    assert ctrl.guards("/tokens") and ctrl.guards("/login/callback")
    assert not ctrl.guards("/jwks")
    # unguarded paths are free: no tokens consumed, no bulkhead entry
    before = ctrl.tokens()
    assert ctrl.admit("/jwks", Priority.INTERACTIVE) is False
    assert ctrl.tokens() == before


def test_admission_policy_validation():
    with pytest.raises(ConfigurationError):
        AdmissionPolicy(rate=0.0)
    with pytest.raises(ConfigurationError):
        AdmissionPolicy(batch_headroom=1.0)
    with pytest.raises(ConfigurationError):
        AdmissionPolicy(max_concurrent=0)


# ---------------------------------------------------------------------------
# AimdLimiter: the congestion-control sawtooth
# ---------------------------------------------------------------------------
def test_aimd_paces_additively_up_and_multiplicatively_down():
    lim = AimdLimiter("c->s", initial_rate=10.0, additive=2.0, beta=0.5,
                      min_rate=1.0, max_rate=20.0)
    assert lim.reserve(0.0) == 0.0
    # second send in the same instant must wait one slot at 10 rps
    assert lim.reserve(0.0) == pytest.approx(0.1)
    for _ in range(10):
        lim.on_success()
    assert lim.rate == 20.0  # capped at max_rate
    lim.on_overload()
    assert lim.rate == 10.0
    for _ in range(10):
        lim.on_overload()
    assert lim.rate == 1.0  # floored at min_rate
    assert lim.backoffs == 11


def test_aimd_server_hint_caps_the_probe_rate():
    lim = AimdLimiter("c->s", initial_rate=100.0, beta=0.9, min_rate=0.5)
    lim.on_overload(retry_after=2.0)  # server invites one try per 2 s
    assert lim.rate == pytest.approx(0.5)  # 1/2 hits the min_rate floor
    lim2 = AimdLimiter("c->s", initial_rate=100.0, beta=0.9, min_rate=0.1)
    lim2.on_overload(retry_after=2.0)
    assert lim2.rate == pytest.approx(0.5)


def test_aimd_validation():
    with pytest.raises(ConfigurationError):
        AimdLimiter("x", beta=1.0)
    with pytest.raises(ConfigurationError):
        AimdLimiter("x", initial_rate=0.1, min_rate=0.5)


# ---------------------------------------------------------------------------
# scaffolding: a two-service chain for deadline/priority propagation
# ---------------------------------------------------------------------------
class Origin(Service):
    @route("GET", "/echo")
    def echo(self, request):
        return HttpResponse.json(
            {"deadline": request.deadline, "priority": request.priority})


class Frontend(Service):
    """Calls the origin with a *fresh* request — propagation must be
    automatic, not something every call site remembers to do."""

    @route("GET", "/via")
    def via(self, request):
        return self.call("origin", HttpRequest("GET", "/echo"))

    @route("GET", "/via-tight")
    def via_tight(self, request):
        return self.call(
            "origin", HttpRequest("GET", "/echo", deadline=request.deadline))


@pytest.fixture()
def chain():
    clock = SimClock()
    network = Network(clock, audit=AuditLog("net"))
    network.firewall.allow(
        "e-any", src_domain=OperatingDomain.EXTERNAL,
        dst_domain=OperatingDomain.FDS, port=443)
    network.firewall.allow(
        "f-f", src_domain=OperatingDomain.FDS,
        dst_domain=OperatingDomain.FDS, port=443)
    client = Service("laptop")
    network.attach(client, OperatingDomain.EXTERNAL, Zone.INTERNET)
    network.attach(Frontend("frontend"), OperatingDomain.FDS, Zone.ACCESS)
    network.attach(Origin("origin"), OperatingDomain.FDS, Zone.ACCESS)
    return network, client, clock


def test_deadline_and_priority_propagate_across_hops(chain):
    network, client, clock = chain
    resp = client.call("frontend", HttpRequest(
        "GET", "/via", priority=Priority.BATCH, deadline=clock.now() + 5.0))
    assert resp.ok
    assert resp.body["priority"] == Priority.BATCH
    assert resp.body["deadline"] == pytest.approx(5.0, abs=0.01)


def test_tighter_deadline_wins_on_nested_calls(chain):
    network, client, clock = chain
    # the frontend forwards its inbound deadline explicitly; the
    # inherited value must be min(outbound, inbound) — here equal
    resp = client.call("frontend", HttpRequest(
        "GET", "/via-tight", deadline=clock.now() + 2.0))
    assert resp.body["deadline"] == pytest.approx(2.0, abs=0.01)


def test_expired_request_is_rejected_at_the_transport_and_audited(chain):
    network, client, clock = chain
    clock.advance(10.0)
    with pytest.raises(DeadlineExceeded) as err:
        client.call("frontend", HttpRequest(
            "GET", "/via", priority=Priority.BATCH, deadline=1.0))
    assert err.value.deadline == 1.0
    assert network.messages_expired == 1
    events = network.audit.query(action="deadline.expired",
                                 outcome=Outcome.EXPIRED)
    assert len(events) == 1
    assert events[0].attrs["priority"] == Priority.BATCH
    assert events[0].attrs["deadline"] == 1.0


def test_deadline_expiring_mid_flight_sheds_the_nested_hop(chain):
    network, client, clock = chain
    # the budget covers the first hop but not the nested one
    deadline = clock.now() + network.hop_latency * 0.5
    with pytest.raises(DeadlineExceeded):
        client.call("frontend", HttpRequest("GET", "/via", deadline=deadline))
    # expired at the inner hop, observed again at the outer hop
    assert network.messages_expired == 2


# ---------------------------------------------------------------------------
# service-side admission: shed requests are audited, not 403'd
# ---------------------------------------------------------------------------
def test_shed_request_raises_and_is_audited_with_priority(chain):
    network, client, clock = chain
    origin = network.endpoint("origin").service
    origin.admission = AdmissionController(
        "origin", clock, AdmissionPolicy(rate=5.0, burst=2.0))
    seen = 0
    for _ in range(5):
        try:
            client.call("origin", HttpRequest("GET", "/echo",
                                              priority=Priority.BATCH))
        except RateLimited as exc:
            seen += 1
            assert exc.retry_after is not None
    assert seen > 0
    sheds = network.audit.query(action="admission.shed", outcome=Outcome.SHED)
    # every shed raised to the caller appears in the transport audit
    assert len(sheds) == seen == network.messages_shed
    assert all(e.attrs["priority"] == Priority.BATCH for e in sheds)
    assert all(e.attrs["service"] == "origin" for e in sheds)
    # shedding is not denial: nothing landed in the DENIED stream
    assert not network.audit.query(action="admission.shed",
                                   outcome=Outcome.DENIED)


# ---------------------------------------------------------------------------
# retry integration: honour retry_after, never retry expired work
# ---------------------------------------------------------------------------
def _failing(sequence):
    calls = {"n": 0}

    def fn():
        i = calls["n"]
        calls["n"] += 1
        step = sequence[i] if i < len(sequence) else "ok"
        if step == "ok":
            return "done"
        raise step

    return fn


def test_retry_honours_server_retry_after_exactly():
    clock = SimClock()
    breaker = CircuitBreaker(clock, failure_threshold=1)
    fn = _failing([RateLimited("shed", retry_after=0.7),
                   RateLimited("shed", retry_after=0.7)])
    kit = Resilience("c", clock, random.Random(1),
                     policy=RetryPolicy(max_attempts=4, jitter=0.5),
                     breaker_factory=lambda label: breaker)
    metrics = kit.metrics
    assert kit.call(fn) == "done"
    # exact waits, no jitter: 2 * 0.7 on the clock
    assert clock.now() == pytest.approx(1.4)
    assert metrics.honoured_retry_afters == 2
    assert metrics.rate_limited == 2
    # being shed is not a server fault: a hair-trigger breaker stays closed
    assert breaker.allow()


def test_honoured_waits_do_not_advance_the_backoff_schedule():
    clock = SimClock()
    fn = _failing([RateLimited("shed", retry_after=1.0),
                   ServiceUnavailable("down")])
    policy = RetryPolicy(max_attempts=4, base_delay=0.05, jitter=0.0)
    Resilience("c", clock, random.Random(1), policy=policy).call(fn)
    # the outage backoff is the FIRST exponential step (base_delay), not
    # the second — the honoured wait consumed no schedule position
    assert clock.now() == pytest.approx(1.0 + 0.05)


def test_rate_limited_without_hint_falls_back_to_backoff():
    clock = SimClock()
    fn = _failing([RateLimited("shed")])
    policy = RetryPolicy(max_attempts=2, base_delay=0.05, jitter=0.0)
    kit = Resilience("c", clock, random.Random(1), policy=policy)
    kit.call(fn)
    assert clock.now() == pytest.approx(0.05)
    assert kit.metrics.honoured_retry_afters == 0


def test_deadline_exceeded_is_never_retried():
    kit = Resilience("c", SimClock(), random.Random(1),
                     policy=RetryPolicy(max_attempts=5))
    fn = _failing([DeadlineExceeded("expired", deadline=1.0)])
    with pytest.raises(DeadlineExceeded):
        kit.call(fn)
    assert kit.metrics.attempts == 1
    assert kit.metrics.expired == 1


def test_aimd_limiter_paces_resilience_calls_and_learns_from_sheds():
    clock = SimClock()
    runtime = ResilienceRuntime(
        clock, random.Random(3), overload=OverloadConfig(
            aimd_initial_rate=10.0, aimd_min_rate=0.5,
            aimd_max_rate=100.0, aimd_additive=1.0, aimd_beta=0.5))
    kit = runtime.for_client("laptop")
    for _ in range(5):
        kit.call(lambda: "ok", dst="broker")
    lim = kit.limiter_for("broker")
    assert lim.rate == 15.0          # 5 successes, +1 each
    assert lim.waits > 0             # same-instant sends were paced
    with pytest.raises(RateLimited):
        kit.call(_failing([RateLimited("shed", retry_after=10.0)] * 10),
                 dst="broker")
    assert lim.backoffs > 0
    assert lim.rate <= 1.0           # capped by the 10 s server hint
    totals = runtime.totals()
    assert totals["aimd_waits"] >= lim.waits
    assert totals["rate_limited"] > 0


# ---------------------------------------------------------------------------
# CloudflareEdge: retry_after always populated; admin exempt from the
# rate limiter but never from threat intel
# ---------------------------------------------------------------------------
def test_edge_rate_limit_always_carries_retry_after():
    clock = SimClock()
    edge = CloudflareEdge("edge", clock, window=10.0, rate_limit=3,
                          block_threshold=99)
    for _ in range(3):
        edge.enforce("laptop", "/broker/x", clock.now())
    with pytest.raises(RateLimited) as err:
        edge.enforce("laptop", "/broker/x", clock.now())
    assert err.value.retry_after is not None
    assert 0.0 < err.value.retry_after <= edge.window
    # a blocked source gets the full window as its hint
    edge.block_source("mallory")
    with pytest.raises(RateLimited) as err2:
        edge.enforce("mallory", "/broker/x", clock.now())
    assert err2.value.retry_after == edge.window


def test_edge_admin_bypasses_rate_limit_but_never_threat_intel():
    clock = SimClock()
    edge = CloudflareEdge("edge", clock, window=10.0, rate_limit=2,
                          block_threshold=99)
    for _ in range(2):
        edge.enforce("soc-runbook", "/broker/revoke", clock.now())
    # over the limit: interactive is refused, admin still lands
    with pytest.raises(RateLimited):
        edge.enforce("soc-runbook", "/broker/revoke", clock.now())
    edge.enforce("soc-runbook", "/broker/revoke", clock.now(),
                 priority=Priority.ADMIN)
    # but threat intel is absolute: a blocked source stays blocked
    edge.block_source("soc-runbook")
    with pytest.raises(RateLimited):
        edge.enforce("soc-runbook", "/broker/revoke", clock.now(),
                     priority=Priority.ADMIN)


def test_edge_429_response_carries_the_hint_in_the_body():
    clock = SimClock()
    edge = CloudflareEdge("edge", clock, window=10.0, rate_limit=1,
                          block_threshold=99)
    edge.register_origin("origin", Origin("origin"))
    assert edge.handle(HttpRequest("GET", "/origin/echo", source="laptop")).ok
    resp = edge.handle(HttpRequest("GET", "/origin/echo", source="laptop"))
    assert resp.status == 429
    assert resp.body["retry_after"] > 0


def test_edge_forwards_priority_and_deadline_over_the_tunnel():
    clock = SimClock()
    edge = CloudflareEdge("edge", clock, rate_limit=50)
    edge.register_origin("origin", Origin("origin"))
    resp = edge.handle(HttpRequest(
        "GET", "/origin/echo", source="laptop",
        priority=Priority.ADMIN, deadline=7.5))
    assert resp.body == {"deadline": 7.5, "priority": Priority.ADMIN}
    # the direct-dispatch path re-checks deadlines service-side when the
    # origin is guarded
    origin = edge._origins["origin"]
    origin.admission = AdmissionController("origin", clock, AdmissionPolicy())
    clock.advance(10.0)
    with pytest.raises(DeadlineExceeded):
        edge.handle(HttpRequest("GET", "/origin/echo", source="laptop",
                                deadline=7.5))


# ---------------------------------------------------------------------------
# bounded Slurm queue (regression for the unbounded-queue amplifier)
# ---------------------------------------------------------------------------
def test_slurm_queue_overflow_sheds_with_honest_retry_after():
    clock = SimClock()
    slurm = SlurmScheduler(
        clock, IdFactory(seed=9), NodePool("gh", "grace-hopper", 1),
        lambda project, hours: None, max_pending=2)
    running = slurm.submit("u1", "proj", nodes=1, walltime=100.0)
    slurm.submit("u1", "proj", nodes=1, walltime=100.0)
    slurm.submit("u1", "proj", nodes=1, walltime=100.0)
    assert slurm.queue_length() == 2
    with pytest.raises(RateLimited) as err:
        slurm.submit("u1", "proj", nodes=1, walltime=100.0)
    assert err.value.service == "slurm"
    # the hint is the earliest running-job completion
    assert err.value.retry_after == pytest.approx(100.0)
    assert slurm.submissions_shed == 1
    shed = slurm.audit.query(action="job.submit", outcome=Outcome.SHED)
    assert len(shed) == 1 and shed[0].attrs["retry_after"] == pytest.approx(100.0)
    # the hint is honest: wait it out and the queue accepts again
    clock.advance(100.0)
    assert running.finished_at is not None
    slurm.submit("u1", "proj", nodes=1, walltime=100.0)


def test_slurm_rejects_nonpositive_queue_bound():
    from repro.errors import SchedulerError
    with pytest.raises(SchedulerError):
        SlurmScheduler(SimClock(), IdFactory(seed=9),
                       NodePool("gh", "grace-hopper", 1),
                       lambda p, h: None, max_pending=0)


# ---------------------------------------------------------------------------
# SIEM legibility: shed/expired are their own timeline category
# ---------------------------------------------------------------------------
def test_timeline_separates_sheds_from_denials():
    entries = [
        TimelineEntry(1.0, "fds", "broker", "token.mint", "denied", "u -> t"),
        TimelineEntry(2.0, "network", "net", "admission.shed", "shed", "u -> broker"),
        TimelineEntry(3.0, "network", "net", "deadline.expired", "expired", "u -> broker"),
    ]
    tl = IncidentTimeline(subject="u", correlated_ids={"u"}, entries=entries)
    assert len(tl.denials()) == 1
    assert len(tl.shed()) == 2
    rendered = tl.render()
    assert "1 denials, 2 shed/expired" in rendered
    assert "[~]" in rendered and "[x]" in rendered and "[!]" in rendered
    assert "[?]" not in rendered


def test_deployment_audit_trail_covers_every_shed_and_expired_request():
    tight = OverloadConfig(broker=AdmissionPolicy(
        rate=5.0, burst=2.0, paths=("/tokens", "/login")))
    dri = build_isambard(overload=tight)
    laptop = UserAgent("laptop")
    dri.network.attach(laptop, OperatingDomain.EXTERNAL, Zone.INTERNET)
    sheds = 0
    for _ in range(6):
        try:
            laptop.call("broker", HttpRequest("POST", "/tokens"))
        except RateLimited:
            sheds += 1
    with pytest.raises(DeadlineExceeded):
        laptop.call("broker", HttpRequest("POST", "/tokens", deadline=0.0))
    assert sheds > 0
    net = dri.logs["network"]
    shed_events = net.query(action="admission.shed", outcome=Outcome.SHED)
    expired_events = net.query(action="deadline.expired",
                               outcome=Outcome.EXPIRED)
    assert len(shed_events) == sheds
    assert len(expired_events) == 1
    assert all("priority" in e.attrs for e in shed_events + expired_events)
    # the incident timeline keeps the categories apart
    tl = build_timeline(dri, "laptop")
    assert len(tl.shed()) == sheds + 1
    assert all(e not in tl.denials() for e in tl.shed())
    # and the tamper-evident chain still verifies with the new outcomes
    assert net.verify_chain() == (True, None)
