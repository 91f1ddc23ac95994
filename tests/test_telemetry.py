"""Tier-1 tests for the observability layer (`repro.telemetry`).

Covers the acceptance criteria of the tracing/metrics/SLO PR:

* trace context propagates across redirects, retries and the reverse
  tunnel — a single RSECon-style login yields one connected span tree
  (edge → broker/OIDC → Jupyter) with no orphan spans;
* retry attempts land as sibling server spans under one client span;
* shed and expired requests keep the originating request's trace
  attribution (the zenith inner-request regression);
* a trace survives crash → recover → replay, and failover promotions
  become retroactive spans;
* histogram bucket math, burn-rate arithmetic, and the OpenMetrics-style
  exposition (golden output, exemplar trace ids on tail buckets);
* the SIEM side: trace-id stamped audit events reconstruct the request,
  unknown trace ids and firewall-bypassing spans raise SOC alerts.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import AuditLog, Outcome
from repro.clock import SimClock
from repro.core import build_isambard
from repro.core.metrics import format_table, latency_stats
from repro.errors import (ConnectionBlocked, DeadlineExceeded, RateLimited,
                          ServiceUnavailable)
from repro.net import (
    HttpRequest,
    HttpResponse,
    Network,
    OperatingDomain,
    Service,
    Zone,
    route,
)
from repro.oidc import UserAgent
from repro.resilience import (
    AdmissionPolicy,
    FaultInjector,
    OverloadConfig,
    Resilience,
    RetryPolicy,
)
from repro.siem import TraceAnomalyScanner, TraceIntegrityRule, build_trace_timeline
from repro.telemetry import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    SloMonitor,
    SpanStatus,
    Telemetry,
    TraceContext,
    TRACEPARENT_HEADER,
    burn_rate,
    critical_path,
    critical_path_breakdown,
    render_tree,
)
from tests.conftest import Wiring


# ---------------------------------------------------------------------------
# trace context encoding
# ---------------------------------------------------------------------------
def test_traceparent_roundtrip_with_baggage():
    ctx = TraceContext(trace_id="ab" * 16, span_id="cd" * 8,
                       baggage={"story": "s6", "actor": "alice"})
    headers = {}
    ctx.inject(headers)
    assert headers[TRACEPARENT_HEADER] == f"00-{'ab' * 16}-{'cd' * 8}-01"
    assert headers["baggage"] == "actor=alice,story=s6"  # sorted keys
    back = TraceContext.extract(headers)
    assert back is not None
    assert back.trace_id == ctx.trace_id
    assert back.span_id == ctx.span_id
    assert back.baggage == ctx.baggage


@pytest.mark.parametrize("header", [
    "",
    "not-a-traceparent",
    "00-short-cdcdcdcdcdcdcdcd-01",                      # bad trace id
    f"00-{'ab' * 16}-nothex!!nothex!!-01",                # bad span id
    f"01-{'ab' * 16}-{'cd' * 8}-01",                      # unknown version
    f"00-{'0' * 32}-{'cd' * 8}-01",                       # all-zero trace id
    f"00-{'ab' * 16}-{'0' * 16}-01",                      # all-zero span id
    f"00-{'ab' * 16}-{'cd' * 8}",                         # missing flags
])
def test_malformed_traceparent_degrades_to_untraced(header):
    assert TraceContext.from_traceparent(header) is None
    assert TraceContext.extract({TRACEPARENT_HEADER: header}) is None


@given(st.dictionaries(st.text(min_size=1), st.text(), max_size=4))
def test_baggage_survives_the_wire_whatever_it_contains(baggage):
    """A ``,`` or ``=`` inside a key or value must not forge a second
    member (``{"cohort": "rsecon, day=2"}`` used to come back as two)."""
    ctx = TraceContext(trace_id="ab" * 16, span_id="cd" * 8, baggage=baggage)
    headers = {}
    ctx.inject(headers)
    assert TraceContext.extract(headers).baggage == baggage


def test_malformed_baggage_members_are_dropped_not_raised():
    ctx = TraceContext.extract({
        TRACEPARENT_HEADER: f"00-{'ab' * 16}-{'cd' * 8}-01",
        "baggage": "ok=1, =nokey, novalue, bad=%FF%FE, also%20ok=a%3Db",
    })
    assert ctx.baggage == {"ok": "1", "also ok": "a=b"}


def test_child_context_names_current_span_as_parent():
    ctx = TraceContext(trace_id="ab" * 16, span_id="11" * 8,
                       baggage={"k": "v"})
    child = ctx.child_of("22" * 8)
    assert child.trace_id == ctx.trace_id
    assert child.span_id == "22" * 8
    assert child.parent_id == ctx.span_id
    assert child.baggage == ctx.baggage


# ---------------------------------------------------------------------------
# histogram bucket math
# ---------------------------------------------------------------------------
def test_histogram_bucket_index_and_cumulative_counts():
    h = Histogram("h", buckets=(1.0, 2.0, 4.0))
    assert h.bucket_index(1.0) == 0       # bounds are inclusive
    assert h.bucket_index(1.0001) == 1
    assert h.bucket_index(4.0) == 2
    assert h.bucket_index(99.0) == 3      # +Inf overflow
    for v in (0.5, 1.5, 1.5, 3.0, 99.0):
        h.observe(v)
    assert h.count() == 5
    # cumulative counts and the sum, as the exposition renders them
    assert h.expose()[2:] == [
        'h_bucket{le="1"} 1', 'h_bucket{le="2"} 3', 'h_bucket{le="4"} 4',
        'h_bucket{le="+Inf"} 5', "h_sum 105.5", "h_count 5"]


def test_histogram_quantile_interpolates_within_bucket():
    h = Histogram("h", buckets=(1.0, 2.0, 4.0))
    for v in (0.5, 1.5, 1.5, 3.0):
        h.observe(v)
    # rank 2 falls in the (1, 2] bucket holding 2 samples -> halfway
    assert h.quantile(0.5) == pytest.approx(1.5)
    assert h.quantile(1.0) == pytest.approx(4.0)
    assert Histogram("empty", buckets=(1.0,)).quantile(0.5) == 0.0


def test_histogram_keeps_exemplar_per_bucket_latest_wins():
    h = Histogram("h", buckets=(1.0, 2.0))
    h.observe(0.5, trace_id="t-early", time=1.0)
    h.observe(0.7, trace_id="t-late", time=2.0)
    h.observe(5.0, trace_id="t-tail", time=3.0)
    buckets = [line for line in h.expose() if "_bucket" in line]
    assert buckets[0].endswith('# {trace_id="t-late"} 0.7 2')
    assert buckets[-1].endswith('# {trace_id="t-tail"} 5 3')
    assert "t-early" not in "".join(buckets)


def test_counter_is_monotonic():
    reg = MetricsRegistry()
    c = reg.counter("c_total")
    with pytest.raises(ValueError):
        c.inc(-1.0)
    c.inc(dst="a")
    c.inc(2.0, dst="a")
    c.inc(dst="b")
    assert c.value(dst="a") == 3.0
    assert c.total() == 4.0
    # re-registration returns the same instance; kind clashes are errors
    assert reg.counter("c_total") is c
    with pytest.raises(ValueError):
        reg.gauge("c_total")


# ---------------------------------------------------------------------------
# exposition golden output
# ---------------------------------------------------------------------------
def test_registry_exposition_golden():
    reg = MetricsRegistry()
    c = reg.counter("demo_requests_total", "Demo requests")
    c.inc(dst="broker", outcome="ok")
    c.inc(2.0, dst="broker", outcome="ok")
    h = reg.histogram("demo_latency_seconds", "Demo latency",
                      buckets=(0.1, 1.0))
    h.observe(0.05, trace_id="ab" * 16, time=12.5)
    h.observe(2.0)
    expected = (
        "# HELP demo_latency_seconds Demo latency\n"
        "# TYPE demo_latency_seconds histogram\n"
        'demo_latency_seconds_bucket{le="0.1"} 1 '
        f'# {{trace_id="{"ab" * 16}"}} 0.05 12.5\n'
        'demo_latency_seconds_bucket{le="1"} 1\n'
        'demo_latency_seconds_bucket{le="+Inf"} 2\n'
        "demo_latency_seconds_sum 2.05\n"
        "demo_latency_seconds_count 2\n"
        "# HELP demo_requests_total Demo requests\n"
        "# TYPE demo_requests_total counter\n"
        'demo_requests_total{dst="broker",outcome="ok"} 3\n'
        "# EOF\n"
    )
    assert reg.expose() == expected


# ---------------------------------------------------------------------------
# burn-rate SLOs
# ---------------------------------------------------------------------------
def test_burn_rate_arithmetic():
    assert burn_rate(0.0, 0.99) == 0.0
    assert burn_rate(0.01, 0.99) == pytest.approx(1.0)   # exactly on budget
    assert burn_rate(0.05, 0.99) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        burn_rate(0.5, 1.0)  # no error budget left to burn


def test_slo_monitor_pages_when_both_windows_burn():
    m = SloMonitor("demo", service="svc", objective=0.9, fast_window=10.0,
                   slow_window=100.0, threshold=2.0, min_events=5,
                   cooldown=30.0)
    pages = []
    m.subscribe(pages.append)
    for t in range(8):
        assert m.record(float(t), True) is None
    assert m.record(8.0, False) is None          # burn 1.11x < 2x
    alert = m.record(9.0, False)                 # 2/10 errors -> burn 2.0x
    assert alert is not None and pages == [alert]
    assert alert.fast_burn == pytest.approx(2.0)
    assert alert.slow_burn == pytest.approx(2.0)
    assert alert.events_in_slow_window == 10
    assert "burning 2.0x budget" in alert.summary()
    # cooldown suppresses an immediate repeat page
    assert m.record(10.0, False) is None
    # …but a sustained burn pages again once the cooldown lapses
    assert m.record(45.0, False) is not None
    assert len(m.alerts) == 2


def test_slo_monitor_fast_window_alone_does_not_page():
    m = SloMonitor("demo", objective=0.9, fast_window=10.0,
                   slow_window=100.0, threshold=2.0, min_events=5)
    for t in range(30):
        m.record(float(t), True)
    # two failures: the fast window is 100% errors, but over the slow
    # window the budget burn stays low -> no page (blip, not an outage)
    assert m.record(95.0, False) is None
    assert m.record(96.0, False) is None
    assert m.burn(96.0, 10.0) >= 2.0
    assert m.burn(96.0, 100.0) < 2.0
    assert m.alerts == []


def test_slo_monitor_min_events_gate():
    m = SloMonitor("demo", objective=0.9, fast_window=10.0,
                   slow_window=100.0, threshold=2.0, min_events=5)
    for t in range(4):
        assert m.record(float(t), False) is None  # under min_events
    assert m.record(4.0, False) is not None


# ---------------------------------------------------------------------------
# end-to-end: one login is one connected span tree
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def traced_workshop():
    dri = build_isambard(seed=42)
    result = dri.workflows.rsecon_workshop(1)
    assert result.ok, result.steps
    return dri, result


def test_rsecon_login_yields_connected_span_tree(traced_workshop):
    dri, result = traced_workshop
    trace_id = result.data["trace_ids"][0]
    assert trace_id
    spans = dri.telemetry.store.trace(trace_id)
    assert len(spans) >= 10
    assert all(s.trace_id == trace_id for s in spans)
    assert dri.telemetry.store.orphans(trace_id) == []
    assert dri.telemetry.store.unfinished() == []
    services = {s.service for s in spans}
    assert {"edge", "broker", "zenith", "jupyter"} <= services
    # the reverse tunnel and the inner origin dispatch stay in-trace
    # (the zenith inner-request attribution fix)
    assert any(s.kind == "tunnel" for s in spans)
    assert any(s.kind == "server" and s.service == "jupyter" for s in spans)
    # exactly one root, and the critical path starts at it (each read
    # builds its own views of the stored records)
    roots = [s for s in spans if s.parent_id is None]
    assert len(roots) == 1
    path = critical_path(dri.telemetry.store, trace_id)
    assert path and path[0] == roots[0] and path[0] is not roots[0]
    steps = critical_path_breakdown(dri.telemetry.store, trace_id)
    assert steps[0].duration > 0
    assert sum(s.share for s in steps) <= 1.0 + 1e-9
    rendered = render_tree(dri.telemetry.store, trace_id)
    assert "story6" in rendered and "jupyter" in rendered


def test_trace_id_stamps_audit_events_and_rebuilds_timeline(traced_workshop):
    dri, result = traced_workshop
    trace_id = result.data["trace_ids"][0]
    stamped = [e for e in dri.audit.events()
               if e.attrs.get("trace_id") == trace_id]
    assert stamped
    assert any(e.action == "message.delivered" for e in stamped)
    tl = build_trace_timeline(dri, trace_id)
    assert tl.subject == trace_id
    assert len(tl.entries) == len(stamped)
    assert trace_id in tl.render()


def test_red_exposition_carries_exemplar_trace_ids(traced_workshop):
    dri, result = traced_workshop
    trace_id = result.data["trace_ids"][0]
    tele = dri.telemetry
    assert tele.hop_requests.value(dst="broker", outcome="ok") > 0
    assert tele.tokens_issued.total() > 0
    text = tele.exposition()
    assert text.endswith("# EOF\n")
    assert 'repro_http_request_duration_seconds_bucket' in text
    assert '# {trace_id="' in text
    assert trace_id in text  # the login's trace is scrape-visible


# ---------------------------------------------------------------------------
# retries: sibling attempt spans under one client span
# ---------------------------------------------------------------------------
class _Echo(Service):
    @route("GET", "/ping")
    def ping(self, request):
        return HttpResponse.json({"pong": True})


def test_retry_attempts_become_sibling_spans_under_one_client_span():
    clock = SimClock()
    faults = FaultInjector(clock, random.Random(7))
    network = Network(clock, audit=AuditLog("net"), faults=faults)
    tele = Telemetry(clock)
    network.telemetry = tele
    network.firewall.allow(
        "e-to-f", src_domain=OperatingDomain.EXTERNAL,
        dst_domain=OperatingDomain.FDS, port=443)
    client = _Echo("laptop")
    network.attach(client, OperatingDomain.EXTERNAL, Zone.INTERNET)
    network.attach(_Echo("broker"), OperatingDomain.FDS, Zone.ACCESS)
    client.resilience = Resilience(
        "laptop", clock, random.Random(1),
        policy=RetryPolicy(max_attempts=4, base_delay=1.0, jitter=0.0))

    faults.outage("broker", duration=0.5)  # first attempt fails, retry wins
    root = tele.tracer.start_trace("retry probe", service="laptop")
    request = HttpRequest("GET", "/ping")
    root.context().inject(request.headers)
    response = client.call("broker", request)
    tele.tracer.end(root)

    assert response.status == 200
    spans = tele.store.trace(root.trace_id)
    client_spans = [s for s in spans if s.kind == "client"]
    servers = [s for s in spans if s.kind == "server"]
    assert len(client_spans) == 1
    assert client_spans[0].attrs["attempts"] == 2
    assert len(servers) == 2
    # each attempt is a sibling under the one client span — a failed
    # attempt never becomes the parent of its own retry
    assert {s.parent_id for s in servers} == {client_spans[0].span_id}
    assert [s.status for s in servers] == [SpanStatus.ERROR, SpanStatus.OK]
    assert tele.store.orphans(root.trace_id) == []
    # the caller's headers were restored after the call
    assert TraceContext.extract(request.headers).span_id == root.span_id


def _traced_pair(*, faults_seed=7):
    """A traced two-endpoint network: ``client`` → ``srv``."""
    clock = SimClock()
    faults = FaultInjector(clock, random.Random(faults_seed))
    network = Network(clock, audit=AuditLog("net"), faults=faults)
    network.telemetry = Telemetry(clock)
    client = _Echo("client")
    network.attach(client, OperatingDomain.FDS, Zone.ACCESS)
    network.attach(_Echo("srv"), OperatingDomain.FDS, Zone.ACCESS)
    return clock, faults, network, client


def test_the_caller_gets_its_own_context_back_after_retry_hedge_and_timeout():
    """Every hop swaps its child context onto the request for as long as
    it runs; a retry or hedge re-enters with the caller's, and the caller
    reads its own again afterwards — whatever happened in between."""
    from repro.errors import AttemptTimeout
    from repro.resilience.tail import MIN_SAMPLES, TailConfig, TailController

    # retried: the first attempt dies in an outage
    clock, faults, network, client = _traced_pair()
    tele = network.telemetry
    client.resilience = Resilience(
        "client", clock, random.Random(1),
        policy=RetryPolicy(max_attempts=4, base_delay=1.0, jitter=0.0))
    ctx = tele.tracer.start_trace("retry", service="client").context()
    request = HttpRequest("GET", "/ping", trace=ctx)
    faults.outage("srv", duration=0.5)
    assert client.call("srv", request).ok
    assert client.resilience.metrics.retries == 1
    assert request.trace is ctx
    assert tele.store.orphans() == []

    # hedged: the first attempt is abandoned at the hedge delay
    clock, faults, network, client = _traced_pair(faults_seed=5)
    tele = network.telemetry
    kit = Resilience("client", clock, random.Random(7),
                     policy=RetryPolicy(max_attempts=3, base_delay=0.01,
                                        jitter=0.0))
    kit.tail = TailController(clock, TailConfig(
        adaptive_deadlines=False, ejection=False, retry_budget=False),
        **Wiring(clock))
    client.resilience = kit
    ctx = tele.tracer.start_trace("hedge", service="client").context()
    for _ in range(MIN_SAMPLES):
        assert client.call("srv", HttpRequest("GET", "/ping", trace=ctx)).ok
    faults.slow_replica("srv", 0.5)
    request = HttpRequest("GET", "/ping", trace=ctx)
    assert client.call("srv", request).ok
    assert kit.metrics.hedges == 1
    assert request.trace is ctx
    hedged = [s for s in tele.store.trace(ctx.trace_id)
              if s.kind == "client"][-1]
    attempts = [s for s in tele.store.trace(ctx.trace_id)
                if s.parent_id == hedged.span_id]
    assert [s.attrs.get("hedge") for s in attempts] == ["loser", None]

    # a bare timeout: the exception carries the abandoned attempt's span,
    # ended (the store holds its record), and the tracer to annotate it
    clock, faults, network, client = _traced_pair()
    tele = network.telemetry
    ctx = tele.tracer.start_trace("timeout", service="client").context()
    faults.slow_replica("srv", 0.5)
    request = HttpRequest("GET", "/ping", trace=ctx,
                          attempt_deadline=clock.now() + 0.05)
    with pytest.raises(AttemptTimeout) as abandoned:
        client.call("srv", request)
    assert request.trace is ctx
    call_span, attempt = tele.store.trace(ctx.trace_id)[1:]
    assert abandoned.value.span == attempt
    assert abandoned.value.tracer is tele.tracer
    assert (attempt.kind, attempt.status) == ("server", SpanStatus.EXPIRED)
    assert attempt.parent_id == call_span.span_id


def test_a_header_from_outside_is_read_once_and_a_malformed_one_ignored(
        hop_counts):
    """``Service.call`` is the process edge: a request that arrives with
    a ``traceparent`` header and no context object joins that trace for
    the cost of one parse, however many hops follow."""
    class Front(Service):
        @route("GET", "/front")
        def front(self, request):
            return self.call("srv", HttpRequest("GET", "/ping"))

    clock, _, network, client = _traced_pair()
    network.attach(Front("front"), OperatingDomain.FDS, Zone.ACCESS)
    tele = network.telemetry
    outside = TraceContext(trace_id="ab" * 16, span_id="cd" * 8,
                           baggage={"cohort": "rsecon, day=2"})
    request = HttpRequest("GET", "/front")
    outside.inject(request.headers)
    hop_counts.clear()
    assert client.call("front", request).ok
    assert (hop_counts["from_traceparent"], hop_counts["inject"]) == (1, 0)
    assert request.trace is None  # the caller handed over a header only
    spans = tele.store.trace(outside.trace_id)
    assert [s.kind for s in spans] == ["client", "server"] * 2
    assert spans[0].parent_id == outside.span_id
    assert all(s.attrs["baggage"] == outside.baggage for s in spans)
    assert [e.attrs["trace_id"] for e in network.audit.events()] \
        == [outside.trace_id] * 2

    before = len(tele.store)
    bad = HttpRequest("GET", "/front", headers={TRACEPARENT_HEADER: "00-xyz"})
    assert client.call("front", bad).ok
    assert len(tele.store) == before and bad.trace is None
    assert "trace_id" not in network.audit.events()[-1].attrs


def test_root_baggage_reaches_the_last_hop_of_a_login_unchanged():
    dri = build_isambard(seed=46)
    wf = dri.workflows
    persona = wf.create_researcher("dana")
    baggage = {"cohort": "rsecon, day=2", "a=b": "c,d"}
    with persona.agent.trace("login", **baggage) as ctx:
        wf.login(persona)
    servers = [s for s in dri.telemetry.store.trace(ctx.trace_id)
               if s.kind == "server"]
    assert len(servers) >= 4
    assert all(s.attrs["baggage"] == baggage for s in servers)


def test_an_slo_created_after_a_services_first_hop_is_still_fed():
    clock, _, network, client = _traced_pair()
    tele = network.telemetry
    assert client.call("srv", HttpRequest("GET", "/ping")).ok
    monitor = tele.slo("srv-availability", service="srv")
    now = clock.now
    assert monitor.error_rate(now(), 300.0) == 0.0   # nothing seen yet
    network.endpoint("srv").up = False
    with pytest.raises(ServiceUnavailable):
        client.call("srv", HttpRequest("GET", "/ping"))
    assert monitor.error_rate(now(), 300.0) == 1.0   # a new outcome: fed
    network.endpoint("srv").up = True
    assert client.call("srv", HttpRequest("GET", "/ping")).ok
    assert monitor.error_rate(now(), 300.0) == 0.5   # the one seen before it
    assert tele.hop_requests.value(dst="srv", outcome="ok") == 2


# ---------------------------------------------------------------------------
# overload: shed/expired keep the originating trace attribution
# ---------------------------------------------------------------------------
def test_shed_and_expired_requests_keep_trace_attribution():
    tight = OverloadConfig(broker=AdmissionPolicy(
        rate=5.0, burst=2.0, paths=("/tokens", "/login")))
    dri = build_isambard(seed=43, overload=tight)
    # a raw agent with no AIMD limiter: workflow personas self-pace off
    # retry_after and never get shed, so a greedy client is needed here
    agent = UserAgent("greedy-laptop")
    dri.network.attach(agent, OperatingDomain.EXTERNAL, Zone.INTERNET)
    agent.tracer = dri.telemetry.tracer

    sheds = 0
    with agent.trace("token burst") as ctx:
        for _ in range(6):
            try:
                agent.call("broker", HttpRequest("POST", "/tokens"))
            except RateLimited:
                sheds += 1
        with pytest.raises(DeadlineExceeded):
            agent.call("broker",
                       HttpRequest("POST", "/tokens", deadline=0.0))
    assert sheds > 0

    shed_events = dri.logs["network"].query(
        action="admission.shed", outcome=Outcome.SHED)
    expired_events = dri.logs["network"].query(
        action="deadline.expired", outcome=Outcome.EXPIRED)
    assert shed_events and expired_events
    assert all(e.attrs.get("trace_id") == ctx.trace_id for e in shed_events)
    assert all(e.attrs.get("trace_id") == ctx.trace_id
               for e in expired_events)

    spans = dri.telemetry.store.trace(ctx.trace_id)
    statuses = {s.status for s in spans}
    assert SpanStatus.SHED in statuses and SpanStatus.EXPIRED in statuses
    assert dri.telemetry.store.orphans(ctx.trace_id) == []
    assert dri.telemetry.sheds.total() == sheds
    assert dri.telemetry.deadline_expired.total() >= 1


# ---------------------------------------------------------------------------
# crash-fault tolerance: traces survive recover/replay; failover is a span
# ---------------------------------------------------------------------------
@pytest.mark.durability
def test_trace_survives_crash_recover_replay_and_failover_is_a_span():
    dri = build_isambard(seed=89, failover=True)
    wf = dri.workflows
    s1 = wf.story1_pi_onboarding("pi", project_name="obs-ha")
    assert s1.ok
    pre_crash_traces = {s.trace_id for s in dri.telemetry.store.spans()}
    assert pre_crash_traces  # onboarding navigations were traced

    dri.crash("broker")
    dri.clock.advance(dri.failover.budget + 0.5)
    assert dri.failover.pairs["broker"].promoted

    tele = dri.telemetry
    names = [s.name for s in tele.store.spans()]
    assert "failover.promote broker" in names
    assert any(n.startswith("recover ") for n in names)
    assert tele.failovers.value(service="broker") == 1.0
    assert tele.journal_replays.total() >= 1.0
    promote = next(s for s in tele.store.spans()
                   if s.name == "failover.promote broker")
    assert promote.finished and promote.duration >= 0
    assert promote.attrs["entries_replayed"] >= 0

    # every pre-crash trace is still in the store, and a post-failover
    # login traces cleanly end to end against the promoted standby
    for trace_id in pre_crash_traces:
        assert tele.store.has_trace(trace_id)
    assert wf.story3_researcher_setup(
        str(s1.data["project_id"]), "pi", "res-ha").ok
    s6 = wf.story6_jupyter("res-ha")
    assert s6.ok
    trace_id = s6.data["trace_id"]
    assert trace_id and trace_id not in pre_crash_traces
    spans = tele.store.trace(trace_id)
    assert {s.service for s in spans} >= {"broker", "jupyter"}
    assert tele.store.orphans(trace_id) == []


# ---------------------------------------------------------------------------
# SIEM: trace-anomaly detections and the SLO page path
# ---------------------------------------------------------------------------
def test_trace_integrity_rule_fires_only_on_unknown_trace_ids(traced_workshop):
    dri, result = traced_workshop
    known = result.data["trace_ids"][0]
    # the deployment installs the rule in the SOC pack, and an entire
    # workshop of genuine records raised no integrity alert
    assert any(isinstance(r, TraceIntegrityRule) for r in dri.soc.rules)
    assert not any(a.rule == "trace-unknown" for a in dri.soc.alerts)

    rule = TraceIntegrityRule(dri.telemetry.store)
    record = {"time": 1.0, "source": "fw-net", "actor": "x",
              "attrs": {"trace_id": known}}
    assert rule.observe(record) is None
    forged = {"time": 2.0, "source": "fw-net", "actor": "x",
              "attrs": {"trace_id": "f" * 32}}
    alert = rule.observe(forged)
    assert alert is not None and alert.rule == "trace-unknown"
    assert "forged or replayed" in alert.summary
    assert rule.observe(forged) is None      # one page per forged id
    assert rule.observe({"time": 3.0, "attrs": {}}) is None


def test_trace_anomaly_scanner_flags_firewall_bypass():
    dri = build_isambard(seed=44)
    assert dri.workflows.rsecon_workshop(1).ok
    scanner = TraceAnomalyScanner(
        dri.network, telemetry=dri.telemetry, audit=dri.logs["sec"])
    # all genuine traffic (including the reverse tunnel) is clean
    assert scanner.scan() == []

    src, dst = "trainee00-laptop", "soc"
    assert dri.network.has_endpoint(src) and dri.network.has_endpoint(dst)
    assert not dri.network.reachable(src, dst, 443)
    now = dri.clock.now()
    forged = dri.telemetry.tracer.record(
        "GET soc/alerts", start=now - 0.01, end=now, service=dst,
        kind="server", src=src, port=443,
        src_zone="external/internet", dst_zone="sec/security")
    alerts = scanner.scan()
    assert len(alerts) == 1
    assert alerts[0].rule == "trace-zone-anomaly"
    assert forged.trace_id in alerts[0].summary
    assert scanner.scan() == []              # idempotent per span

    # a span that *is* the firewall refusing the flow is exempt: that is
    # the policy working, not being bypassed
    tracer = dri.telemetry.tracer
    refusal = tracer.start_trace(
        "GET soc/alerts", service=dst, kind="server", src=src, port=443,
        src_zone="external/internet", dst_zone="sec/security")
    tracer.end(refusal, error=ConnectionBlocked("denied by segmentation"))
    assert (refusal.status, refusal.error) == (SpanStatus.ERROR,
                                               "ConnectionBlocked")
    assert scanner.scan() == []

    # raise_into hands anomalies to the SOC
    fresh = TraceAnomalyScanner(
        dri.network, telemetry=dri.telemetry, audit=dri.logs["sec"])
    raised = fresh.raise_into(dri.soc)
    assert len(raised) == 1
    assert any(a.rule == "trace-zone-anomaly" for a in dri.soc.alerts)


def test_slo_burn_pages_the_soc():
    dri = build_isambard(seed=45)
    monitor = dri.telemetry.slo("broker-availability", service="broker")
    now = dri.clock.now()
    for i in range(25):
        monitor.record(now + i * 0.1, False)
    assert len(monitor.alerts) == 1          # cooldown bounds repeat pages
    paged = [a for a in dri.soc.alerts
             if a.rule == "slo-burn-broker-availability"]
    assert len(paged) == 1
    assert paged[0].severity == "high"
    assert "burning" in paged[0].summary


# ---------------------------------------------------------------------------
# bench harness: latency_stats exemplars
# ---------------------------------------------------------------------------
def test_latency_stats_exemplars_link_percentiles_to_traces():
    stats = latency_stats([0.1, 0.5, 0.9], ["t1", "t2", "t3"])
    assert stats["exemplars"]["p50"] == "t2"
    assert stats["exemplars"]["max"] == "t3"
    assert stats["exemplars"]["p99"] == "t3"
    # untraced samples (None) are simply skipped
    partial = latency_stats([0.1, 0.9], [None, "t9"])
    assert partial["exemplars"]["max"] == "t9"
    assert latency_stats([], [])["exemplars"] == {}
    assert "exemplars" not in latency_stats([0.1])  # opt-in field
    with pytest.raises(ValueError):
        latency_stats([0.1, 0.2], ["only-one"])


# (samples, numpy's (p50, p95, p99), 1-based ``argmin`` exemplars of
# p50/p95/p99/max, numpy's mean), recorded with numpy 2 so the check
# runs where numpy is not installed
NUMPY_RECORDED = [
    ([0.25], (0.25, 0.25, 0.25), (1, 1, 1, 1), 0.25),
    ([0.1, 0.1, 0.25], (0.1, 0.235, 0.247), (1, 3, 3, 3), 0.15),
    ([0.3, 0.1, 0.2, 0.1, 0.7, 0.7, 0.0], (0.2, 0.7, 0.7), (3, 5, 5, 5),
     0.29999999999999993),
    ([0.0, 0.0, 0.25, 0.0, 0.1, 0.1, 0.0, 0.25, 0.0, 0.25, 0.1, 0.25, 0.25],
     (0.1, 0.25, 0.25), (5, 3, 3, 3), 0.11923076923076924),
    ([3.238, 1.508, 6.509, 0.724, 5.359, 3.657, 0.58, 5.074, 0.375, 4.336,
      0.699, 0.907, 4.245, 8.269, 1.238, 2.232, 6.274, 9.477, 5.771, 3.967],
     (3.8120000000000003, 8.329400000000001, 9.24748), (20, 14, 18, 18),
     3.7219500000000005),
]


@pytest.mark.parametrize("samples,percentiles,exemplars,mean", NUMPY_RECORDED)
def test_latency_stats_matches_recorded_numpy_values(samples, percentiles,
                                                     exemplars, mean):
    stats = latency_stats(samples, list(range(1, len(samples) + 1)))
    assert (stats["p50"], stats["p95"], stats["p99"]) == percentiles
    assert tuple(stats["exemplars"][k]
                 for k in ("p50", "p95", "p99", "max")) == exemplars
    # a sequential sum, where numpy sums eight lanes pairwise from n = 8:
    # the 20-sample mean is 3.7219499999999996 here, one ulp off
    assert stats["mean"] == pytest.approx(mean, rel=1e-15)


@settings(deadline=None)  # the first example imports numpy
@given(st.lists(st.floats(0.0, 10.0) | st.sampled_from([0.0, 0.1, 0.25]),
                min_size=1, max_size=60))
def test_latency_stats_percentiles_are_numpys_bit_for_bit(samples):
    """The result tables were written with ``numpy.percentile``; the plain
    Python percentiles must give the same floats and the same exemplars
    (first index on ties, as ``argmin``).  The mean is not numpy's bit
    for bit (see the recorded cases above)."""
    np = pytest.importorskip("numpy")
    arr = np.asarray(samples, dtype=float)
    stats = latency_stats(samples, list(range(1, len(samples) + 1)))
    for q in (50, 95, 99):
        assert stats[f"p{q}"] == float(np.percentile(arr, q))
    for key in ("p50", "p95", "p99", "max"):
        at = int(np.abs(arr - stats[key]).argmin())
        assert stats["exemplars"][key] == at + 1


def test_latency_stats_empty_and_filled():
    empty = latency_stats([])
    assert empty["n"] == 0 and empty["p95"] == 0.0
    stats = latency_stats([1.0, 2.0, 3.0, 4.0])
    assert stats["n"] == 4
    assert stats["min"] == 1.0 and stats["max"] == 4.0
    assert stats["p50"] == pytest.approx(2.5)


def test_format_table_alignment():
    out = format_table(["a", "long-header"], [["xx", 1], ["y", 22]],
                       title="t")
    lines = out.splitlines()
    assert lines[0] == "t"
    assert all(len(line) == len(lines[1]) for line in lines[1:])
