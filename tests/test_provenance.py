"""Decision provenance + bounded telemetry pipeline (PR 9).

Covers the tentpole and its satellites:

* the :class:`ProvenanceLedger` — record / explain / explain_trace,
  pinned retention (latest grant per identity+surface, every denial),
  the enricher, and the policy pack version stamp;
* deterministic tail-based trace sampling and the
  budgeted :class:`SpanStore` retention classes (protected, slowest-k,
  hash-sampled, RED rollups of the rest; unfinished traces untouchable);
* per-family metric cardinality budgets (``__overflow__`` folding and
  the dropped-labels meter);
* the audit bridge — decision-bearing events become ledger records,
  revocation-linked traces get pinned;
* satellite regressions: ``classify_error`` maps ``AttemptTimeout`` to
  EXPIRED, hedge losers carry ``cancelled``, and the incremental orphan
  index survives trace drops;
* the SIEM side: the SOC scoreboard/explain views, the
  unexplained-decision rule, and the timeline ↔ ledger join — all over
  a real ``build_isambard(pipeline=True, authz=True)`` deployment.
"""

from collections import defaultdict

import pytest

from repro.audit import AuditLog, Outcome
from repro.broker import Role
from repro.clock import SimClock
from repro.core import build_isambard
from repro.errors import (
    AttemptTimeout,
    DeadlineExceeded,
    RateLimited,
    ServiceUnavailable,
)
from repro.net import HttpRequest, Network, OperatingDomain, Service, Zone
from repro.policy import PolicyEngine, standard_zero_trust_rules
from repro.resilience import (
    FaultInjector,
    Resilience,
    RetryPolicy,
    TailConfig,
    TailController,
)
from repro.resilience.tail import MIN_SAMPLES
from repro.siem import UnexplainedDecisionRule, build_timeline, join_provenance
from repro.telemetry import (
    Decision,
    DecisionRecord,
    MetricsRegistry,
    PipelineConfig,
    ProvenanceLedger,
    SpanStatus,
    Telemetry,
    Tracer,
    trace_sampled,
)
from repro.telemetry.metrics import DROPPED_LABELS_METRIC, OVERFLOW_LABEL
from repro.telemetry.pipeline import SAMPLE_RATE, SLOWEST_K
from repro.telemetry.tracing import _ROW, SpanStore, classify_error
from tests.conftest import Wiring

pytestmark = pytest.mark.pipeline


# ---------------------------------------------------------------------------
# the ledger: record / query
# ---------------------------------------------------------------------------
class TestProvenanceLedger:
    def test_record_and_explain_by_identity_and_trace(self):
        led = ProvenanceLedger()
        led.record(1.0, "tokens", Decision.ALLOW, "alice",
                   spiffe_id="spiffe://x/user/alice", trace_id="t1",
                   rule="researcher-mint", pack_version="pack-3-abc")
        led.record(2.0, "ssh", Decision.ALLOW, "alice", trace_id="t1")
        led.record(3.0, "tokens", Decision.DENY, "mallory", trace_id="t2",
                   reason="no such role")

        assert [r.surface for r in led.explain("alice")] == ["tokens", "ssh"]
        r1 = led.explain("alice")[0]
        # records are views built on read: equal, never the same object
        assert led.explain("alice")[0] == r1 is not led.explain("alice")[0]
        # the SPIFFE id is an equally good key for the same records
        assert led.explain("spiffe://x/user/alice") == [r1]
        assert [r.subject for r in led.explain_trace("t1")] == ["alice", "alice"]
        assert led.latest("alice").surface == "ssh"
        assert led.latest("alice", surface="tokens") == r1
        assert led.grant_record("alice", "tokens") == r1
        assert led.grant_record("alice", "tunnels") is None
        assert [r.subject for r in led.denials()] == ["mallory"]
        assert led.denials("alice") == []
        assert len(led) == 3
        assert "researcher-mint" in r1.describe()
        assert r1.is_grant() and not led.denials("mallory")[0].is_grant()

    def test_unknown_decision_rejected(self):
        led = ProvenanceLedger()
        with pytest.raises(ValueError):
            led.record(0.0, "tokens", "maybe", "alice")

    def test_retention_pins_latest_grant_and_every_denial(self):
        led = ProvenanceLedger(max_records=10)
        led.record(0.0, "tokens", Decision.DENY, "eve", reason="bad cert")
        # 40 successive allows for the same identity+surface: each one
        # supersedes the previous, so compaction may evict all but the last
        for i in range(40):
            led.record(1.0 + i, "tokens", Decision.ALLOW, "alice",
                       rule="researcher-mint")
        assert len(led) <= 10
        assert led.compactions >= 1
        # the latest grant and the old denial both survived
        grant = led.grant_record("alice", "tokens")
        assert grant is not None and grant.time == 40.0
        assert [r.subject for r in led.denials()] == ["eve"]
        stats = led.stats()
        assert stats["recorded"] == 41
        assert stats["evicted"] > 0
        assert stats["retained"] == len(led)
        assert stats["decisions"]["tokens"][Decision.ALLOW] == 40
        # evictions roll up by (surface, decision)
        assert led.evicted[("tokens", Decision.ALLOW)] == stats["evicted"]

    def test_all_pinned_overshoots_budget_honestly(self):
        led = ProvenanceLedger(max_records=5)
        for i in range(9):
            led.record(float(i), "ssh", Decision.DENY, f"u{i}")
        # denials are never evicted, even past the budget
        assert len(led) == 9
        assert len(led.denials()) == 9
        assert led.stats()["over_budget"] == 4

    def test_distinct_live_grants_all_survive(self):
        led = ProvenanceLedger(max_records=8)
        for i in range(12):
            led.record(float(i), "tunnels", Decision.CACHED, f"svc{i}")
        # one live grant per identity: every record is pinned
        for i in range(12):
            assert led.grant_record(f"svc{i}", "tunnels") is not None

    def test_enricher_fills_only_unset_fields_and_never_raises(self):
        led = ProvenanceLedger()
        led.enricher = lambda subject: {
            "pack_version": "pack-5-beef", "loa": 3, "threat_score": 0.25}
        led.record(1.0, "tokens", Decision.ALLOW, "alice", loa=1)
        rec = led.latest("alice")
        assert rec.loa == 1                      # caller's value wins
        assert rec.pack_version == "pack-5-beef"  # sentinel got filled
        assert rec.threat_score == 0.25

        led.enricher = lambda subject: 1 / 0
        led.record(2.0, "tokens", Decision.ALLOW, "bob")
        assert led.latest("bob").pack_version == ""  # failure swallowed


def test_policy_pack_version_is_deterministic_and_content_addressed():
    e1 = standard_zero_trust_rules(PolicyEngine())
    e2 = standard_zero_trust_rules(PolicyEngine())
    assert e1.pack_version == e2.pack_version
    assert e1.pack_version.startswith(f"pack-{len(e1.rules())}-")
    e2.deny("extra-deny", lambda ctx: False)
    assert e1.pack_version != e2.pack_version


# ---------------------------------------------------------------------------
# tail sampling + the bounded span store
# ---------------------------------------------------------------------------
def test_trace_sampled_is_deterministic_and_rate_shaped():
    tids = [f"{n:032x}" for n in range(1, 2001)]
    verdicts = [trace_sampled(t, 0.05) for t in tids]
    assert verdicts == [trace_sampled(t, 0.05) for t in tids]  # stable
    kept = sum(verdicts)
    assert 40 <= kept <= 160           # ~5% of 2000, hash-uniform
    assert all(trace_sampled(t, 1.0) for t in tids[:10])
    assert not any(trace_sampled(t, 0.0) for t in tids[:10])
    # a kept trace stays kept at any higher rate (rates nest)
    for t in tids[:200]:
        if trace_sampled(t, 0.05):
            assert trace_sampled(t, 0.5)


class TestBoundedSpanStore:
    CFG = PipelineConfig(max_spans=20, window=100.0)

    def _world(self, cfg=None):
        clock = SimClock(start=0.0)
        store = SpanStore(cfg or self.CFG)
        return clock, store, Tracer(clock, store)

    def _ok_trace(self, clock, tracer, duration=0.01):
        span = tracer.start_trace("op", service="svc")
        clock.advance(duration)
        tracer.end(span)
        return span.trace_id

    def test_retention_classes_and_red_rollups(self):
        clock, store, tracer = self._world()

        err = tracer.start_trace("login", service="edge")
        clock.advance(0.01)
        tracer.end(err, error=ValueError("boom"))

        shed = tracer.start_trace("login", service="edge")
        clock.advance(0.01)
        tracer.end(shed, status=SpanStatus.SHED)

        pinned = self._ok_trace(clock, tracer)
        store.protect(pinned)

        hung = tracer.start_trace("wedged", service="svc")  # never ends

        slow = self._ok_trace(clock, tracer, duration=5.0)

        victims = [self._ok_trace(clock, tracer) for _ in range(30)]

        # the budget held and compaction ran
        assert len(store) <= self.CFG.max_spans
        assert store.compactions >= 1
        # class 1: error/shed statuses and explicit pins survive
        for tid in (err.trace_id, shed.trace_id, pinned):
            assert store.trace(tid)
        # unfinished traces are untouchable
        assert store.trace(hung.trace_id)
        # class 2: the slowest OK trace of the window survives
        assert store.trace(slow)
        # class 3: so does every hash-sampled one
        assert all(store.trace(t) for t in victims
                   if trace_sampled(t, SAMPLE_RATE))
        # the rest was evicted — into rollups, not into nothing
        gone = [t for t in victims if not store.trace(t)]
        assert gone
        # ...but the store still vouches for the ids it admitted, so a
        # late-shipped audit record of an evicted trace is not "forged"
        assert all(store.has_trace(t) for t in gone)
        assert not store.has_trace("never-admitted")
        agg = store.rollups[("svc", SpanStatus.OK)]
        assert agg.count == store.evicted_spans == len(gone)
        assert agg.duration_sum == pytest.approx(0.01 * len(gone))
        assert agg.max_duration == pytest.approx(0.01)
        stats = store.stats()
        assert stats["evicted_traces"] == len(gone)
        assert stats["rolled_up"] == agg.count
        assert stats["retained_spans"] == len(store)

    def test_hash_sampled_traces_survive_compaction(self):
        # a one-span budget: every compaction evicts all it may
        clock, store, tracer = self._world(
            PipelineConfig(max_spans=1, window=100.0))
        # the window's slowest traces come first, so no ordinary one is
        # kept as one of its slowest-k
        slow = [self._ok_trace(clock, tracer, duration=1.0)
                for _ in range(SLOWEST_K)]
        ordinary = [self._ok_trace(clock, tracer) for _ in range(200)]
        tracer.start_trace("in flight", service="svc")  # a last compaction
        assert not any(trace_sampled(t, SAMPLE_RATE) for t in slow)
        sampled = {t for t in ordinary if trace_sampled(t, SAMPLE_RATE)}
        assert sampled
        assert {t for t in ordinary if store.trace(t)} == sampled
        # with every trace pinned nothing is evictable, and the store
        # reports the overshoot rather than lying
        clock, store, tracer = self._world()
        tids = []
        for _ in range(30):
            tids.append(self._ok_trace(clock, tracer))
            store.protect(tids[-1])
        assert all(store.trace(t) for t in tids)
        assert store.evicted_spans == 0
        assert len(store) == 30 > self.CFG.max_spans

    def test_compaction_keeps_the_count_and_the_admitted_ids(
            self, monkeypatch):
        """After every ``compact()`` on a deployment under a small
        budget, ``len(store)`` is what the store holds, and every trace
        it ever admitted, evicted or not, is one it vouches for."""
        admitted, checked = set(), []
        add, compact = SpanStore.add, SpanStore.compact

        def adding(store, span):
            admitted.add(span.trace_id)
            return add(store, span)

        def compacting(store):
            compact(store)
            checked.append(_held_spans(store))
            assert len(store) == checked[-1]

        monkeypatch.setattr(SpanStore, "add", adding)
        monkeypatch.setattr(SpanStore, "compact", compacting)
        dri = build_isambard(seed=5, pipeline=PipelineConfig(max_spans=60))
        wf = dri.workflows
        s1 = wf.story1_pi_onboarding("pi")
        assert s1.ok, s1.steps
        assert wf.story3_researcher_setup(s1.data["project_id"], "pi",
                                          "bob").ok
        for _ in range(5):
            assert wf.relogin(wf.personas["bob"]).ok
        store = dri.telemetry.store
        assert checked and store.evicted_traces
        assert admitted - {s.trace_id for s in store.spans()}
        assert all(map(store.has_trace, admitted))
        assert not store.has_trace("f" * 32)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(max_spans=0)
        with pytest.raises(ValueError):
            PipelineConfig(window=0.0)


def _held_spans(store):
    """Every span the store holds: its rows and its open spans."""
    rows = sum(map(len, store._by_trace.values()))
    assert rows % _ROW.size == 0
    return rows // _ROW.size + len(store._open)


# ---------------------------------------------------------------------------
# satellite: orphans() stays right across trace drops
# ---------------------------------------------------------------------------
def test_orphan_index_stays_consistent_across_drops():
    """No per-trace id index is kept to fall out of step: ``orphans()``
    builds a trace's id set when it reads that trace, so a dropped and
    re-ingested trace id is judged on the spans it holds now."""
    # the same case with and without a retention budget
    for config in (None, PipelineConfig(max_spans=20)):
        _orphan_index_case(SpanStore(config))


def _orphan_index_case(store):
    clock = SimClock()
    tracer = Tracer(clock, store)
    root = tracer.start_trace("root", service="a")
    child = tracer.start_span("child", root.context(), service="b")
    tracer.end(child)
    tracer.end(root)
    assert store.orphans() == []

    lost = tracer.start_trace("other", service="a")
    stray = tracer.start_span("stray", lost.context(), service="b")
    tracer.end(stray)
    tracer.end(lost)
    # simulate the parent never reaching the store
    store._drop_traces([])  # no-op drop leaves everything intact
    assert store.has_trace(lost.trace_id)

    dropped = store._drop_traces([root.trace_id])
    assert dropped == 2
    assert not store.has_trace(root.trace_id)
    assert store.orphans(root.trace_id) == []
    assert len(store) == 2

    # re-ingesting into a dropped trace id: only the new span is held,
    # and its parent really is gone
    revived = tracer.start_span("late", root.context(), service="c")
    assert store.orphans(root.trace_id) == [revived]  # open: itself
    tracer.end(revived)
    assert store.has_trace(root.trace_id)
    [orphan] = store.orphans(root.trace_id)           # ended: a view
    assert orphan == revived and orphan is not revived
    assert store.orphans(lost.trace_id) == []


# ---------------------------------------------------------------------------
# satellite: error taxonomy -> span status
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("exc,status", [
    (RateLimited("busy"), SpanStatus.SHED),
    (DeadlineExceeded("late"), SpanStatus.EXPIRED),
    (AttemptTimeout("attempt abandoned"), SpanStatus.EXPIRED),
    (ServiceUnavailable("down"), SpanStatus.ERROR),
    (ValueError("bug"), SpanStatus.ERROR),
])
def test_classify_error_maps_attempt_timeout_to_expired(exc, status):
    assert classify_error(exc) == status


def test_hedge_loser_span_is_marked_cancelled():
    """The abandoned first attempt of a hedged call must read as a
    deliberate cancellation (EXPIRED + cancelled attr), not a failure."""
    import random

    from repro.net import HttpResponse, route

    class Responder(Service):
        @route("GET", "/ping")
        def ping(self, request):
            return HttpResponse.json({"pong": True})

    clock = SimClock()
    faults = FaultInjector(clock, random.Random(5))
    network = Network(clock, faults=faults, **Wiring())
    network.telemetry = Telemetry(clock)
    srv, client = Responder("srv"), Service("client")
    for s in (srv, client):
        network.attach(s, OperatingDomain.FDS, Zone.ACCESS)
    kit = Resilience("client", clock, random.Random(7),
                     policy=RetryPolicy(max_attempts=3, base_delay=0.01,
                                        jitter=0.0))
    kit.tail = TailController(clock, TailConfig(
        adaptive_deadlines=False, ejection=False, retry_budget=False),
        **Wiring(clock))
    client.resilience = kit

    tele = network.telemetry
    root = tele.tracer.start_trace("hedge probe", service="client")

    def traced(req):
        root.context().inject(req.headers)
        return client.call("srv", req)

    for _ in range(MIN_SAMPLES):
        assert traced(HttpRequest("GET", "/ping")).ok
    faults.slow_replica("srv", 0.5)
    assert traced(HttpRequest("GET", "/ping")).ok
    tele.tracer.end(root)
    assert kit.metrics.hedges == 1

    # the mark was written after the attempt ended (Tracer.annotate), and
    # the stored record carries it
    spans = tele.store.trace(root.trace_id)
    losers = [s for s in spans if s.attrs.get("hedge") == "loser"]
    assert len(losers) == 1
    loser = losers[0]
    assert loser.attrs.get("cancelled") is True
    assert loser.status == SpanStatus.EXPIRED
    assert loser.error == "AttemptTimeout"
    # the winning re-issue is a sibling, and it is NOT marked cancelled
    winners = [s for s in spans
               if s.kind == "server" and s.span_id != loser.span_id]
    assert winners and all("cancelled" not in s.attrs for s in winners)
    assert {s.parent_id for s in winners} >= {loser.parent_id}


# ---------------------------------------------------------------------------
# metric cardinality budgets
# ---------------------------------------------------------------------------
class TestCardinalityBudgets:
    def test_counter_folds_new_series_into_overflow(self):
        r = MetricsRegistry()
        c = r.counter("repro_demo_total", "d", max_series=2)
        c.inc(dst="a")
        c.inc(dst="b")
        c.inc(dst="c")          # third label set: over budget
        c.inc(dst="d")
        c.inc(dst="a")          # existing series stay exact
        assert c.value(dst="a") == 2
        assert c.value(dst="b") == 1
        assert c.value(dst="c") == 0          # folded, not stored
        assert c.value(dst=OVERFLOW_LABEL) == 2
        assert c.dropped_labels == 2
        assert r.dropped_labels() == 2
        exposed = r.expose()
        assert f'dst="{OVERFLOW_LABEL}"' in exposed
        assert f'{DROPPED_LABELS_METRIC}{{family="repro_demo_total"}} 2' \
            in exposed

    def test_unlabelled_series_and_unbudgeted_families_unaffected(self):
        r = MetricsRegistry()
        c = r.counter("repro_plain_total", "d", max_series=1)
        c.inc()                 # the empty label set never folds
        c.inc(x="1")
        c.inc(x="2")            # folds: ("x", overflow)
        assert c.value() == 1
        free = r.counter("repro_free_total", "d")
        for i in range(100):
            free.inc(x=str(i))
        assert len(free.series()) == 100
        # a registry that never overflows exposes no dropped-labels meter
        r2 = MetricsRegistry()
        r2.counter("repro_quiet_total", "d").inc(x="1")
        assert DROPPED_LABELS_METRIC not in r2.expose()

    def test_histogram_and_gauge_route_through_the_budget(self):
        r = MetricsRegistry()
        h = r.histogram("repro_lat_seconds", "d", buckets=(1.0,),
                        max_series=1)
        h.observe(0.5, dst="a")
        h.observe(0.5, dst="b")
        assert h.count(dst="a") == 1
        assert h.count(dst=OVERFLOW_LABEL) == 1
        g = r.gauge("repro_level", "d", max_series=1)
        g.set(1.0, pool="x")
        g.set(9.0, pool="y")
        assert g.value(pool="x") == 1.0
        assert g.value(pool=OVERFLOW_LABEL) == 9.0

    def test_a_bound_handle_meets_the_budget_on_every_tick(self):
        """``Telemetry.observe_hop`` keeps its series handles; a handle
        built while the family had room must still fold once it has
        none, and a series that exists keeps its exact labels."""
        tele = Telemetry(SimClock(), PipelineConfig())
        tele.hop_requests.max_series = tele.hop_duration.max_series = 2
        for dst in ("a", "b", "a"):
            tele.observe_hop(dst=dst, outcome="ok", duration=0.01)
        late = tele.hop_requests.bound(dst="z", outcome="ok")  # not ticked
        tele.observe_hop(dst="c", outcome="ok", duration=0.01)  # new: folds
        tele.observe_hop(dst="c", outcome="ok", duration=0.01)
        late()
        tele.observe_hop(dst="a", outcome="ok", duration=0.01)
        requests, duration = tele.hop_requests, tele.hop_duration
        assert requests.value(dst="a", outcome="ok") == 3
        assert requests.value(dst="c", outcome="ok") == 0
        assert requests.value(dst=OVERFLOW_LABEL, outcome=OVERFLOW_LABEL) == 3
        assert duration.count(dst="a") == 3
        assert duration.count(dst=OVERFLOW_LABEL) == 2
        dropped = tele.registry.counter(DROPPED_LABELS_METRIC)
        assert dropped.value(family=requests.name) == 3
        assert dropped.value(family=duration.name) == 2

    def test_registry_wide_budget_spares_the_meter_itself(self):
        r = MetricsRegistry()
        a = r.counter("repro_a_total", "d")
        r.set_series_budget(1)
        a.inc(k="1")
        a.inc(k="2")            # folds; lazily creates the dropped meter
        assert f"# TYPE {DROPPED_LABELS_METRIC} counter" in r.expose()
        meter = r.counter(DROPPED_LABELS_METRIC)
        assert meter.max_series is None
        r.set_series_budget(1)  # re-applying still exempts the meter
        assert meter.max_series is None
        for fam in ("f1", "f2", "f3"):
            meter.inc(family=fam)
        assert len(meter.series()) >= 3   # never folds


# ---------------------------------------------------------------------------
# the audit bridge: events -> ledger records + trace pinning
# ---------------------------------------------------------------------------
class TestAuditBridge:
    def _tele(self):
        clock = SimClock(start=100.0)
        tele = Telemetry(clock, pipeline=PipelineConfig())
        log = AuditLog("audit")
        tele.watch_audit(log)
        return clock, tele, log

    def test_decision_bearing_events_become_records(self):
        clock, tele, log = self._tele()
        log.record(1.0, "broker", "alice", "rbac.mint", "jupyter",
                   Outcome.SUCCESS, trace_id="t1", jti="j1", role="researcher")
        log.record(2.0, "jupyter", "alice", "jupyter.auth", "j1",
                   Outcome.CACHED, jti="j1")
        log.record(3.0, "broker", "mallory", "rbac.denied", "portal",
                   Outcome.DENIED, role="pi")
        log.record(4.0, "edge", "edge", "admission.shed", "broker",
                   Outcome.SHED, reason="queue full")
        log.record(5.0, "broker", "bob", "authz.fail_closed", "tokens",
                   Outcome.DENIED, age=12.5, reason="pdp unreachable")
        log.record(6.0, "broker", "x", "message.delivered", "y",
                   Outcome.SUCCESS)  # not decision-bearing

        led = tele.provenance
        assert led.recorded == 5
        mint = led.explain("alice")[0]
        assert (mint.surface, mint.decision) == ("tokens", Decision.ALLOW)
        assert mint.trace_id == "t1" and mint.attrs["jti"] == "j1"
        cached = led.explain("alice")[1]
        assert (cached.surface, cached.decision, cached.cached) == \
            ("compute", Decision.CACHED, True)
        deny = led.denials("mallory")[0]
        assert deny.attrs["role"] == "pi"
        shed = led.latest("edge")
        assert (shed.surface, shed.decision) == ("admission", Decision.SHED)
        fc = led.denials("bob")[0]
        assert fc.decision == Decision.FAIL_CLOSED
        assert fc.surface == "tokens"           # carried in event.resource
        assert fc.pdp_staleness == 12.5
        assert tele.bridge_errors == 0

    def test_revocation_linked_traces_get_pinned(self):
        clock, tele, log = self._tele()
        log.record(1.0, "broker", "ops", "rbac.revoke", "j9",
                   Outcome.SUCCESS, trace_id="trev")
        log.record(2.0, "authz", "ops", "authz.revocation", "alice",
                   Outcome.INFO, trace_id="tauthz")
        assert tele.store.protected_ids() == {"trev", "tauthz"}

    def test_info_and_error_outcomes_are_not_decisions(self):
        clock, tele, log = self._tele()
        log.record(1.0, "zenith", "svc", "zenith.route", "jupyter",
                   Outcome.ERROR, reason="origin down")
        log.record(2.0, "oidc", "alice", "oidc.session", "idp",
                   Outcome.INFO)
        assert len(tele.provenance) == 0


# ---------------------------------------------------------------------------
# the unexplained-decision rule (unit)
# ---------------------------------------------------------------------------
def _record(action, actor, outcome="success", trace_id=""):
    return {"time": 1.0, "source": "broker", "actor": actor,
            "action": action, "resource": "jupyter", "outcome": outcome,
            "domain": "fds", "zone": "access",
            "attrs": {"trace_id": trace_id} if trace_id else {}}


class TestUnexplainedDecisionRule:
    def test_forged_decision_alerts_once_per_actor_action(self):
        led = ProvenanceLedger()
        rule = UnexplainedDecisionRule(led)
        alert = rule.observe(_record("rbac.mint", "ghost"))
        assert alert is not None and alert.rule == "unexplained-decision"
        assert alert.severity == "medium"       # never auto-containment
        assert rule.observe(_record("rbac.mint", "ghost")) is None  # deduped
        assert rule.unexplained == 2 and rule.checked == 2

    def test_ledger_backed_decisions_pass(self):
        led = ProvenanceLedger()
        led.record(1.0, "tokens", Decision.ALLOW, "alice", trace_id="ta")
        rule = UnexplainedDecisionRule(led)
        assert rule.observe(_record("rbac.mint", "alice")) is None
        # actor unknown but the trace is in the ledger -> still explained
        assert rule.observe(
            _record("jupyter.auth", "alias-of-alice", trace_id="ta")) is None
        assert rule.observe(_record("message.delivered", "ghost")) is None
        assert rule.observe(
            _record("rbac.mint", "ghost", outcome="error")) is None
        assert rule.unexplained == 0


# ---------------------------------------------------------------------------
# integration: the full deployment with the pipeline on
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def pipeline_world():
    dri = build_isambard(seed=77, authz=True, pipeline=True)
    s1 = dri.workflows.story1_pi_onboarding("alice")
    assert s1.ok, s1.steps
    s3 = dri.workflows.story3_researcher_setup(
        s1.data["project_id"], "alice", "bob")
    assert s3.ok, s3.steps
    s4 = dri.workflows.story4_ssh_session("bob")
    assert s4.ok, s4.steps
    s6 = dri.workflows.story6_jupyter("bob")
    assert s6.ok, s6.steps
    # a batch job puts a decision on the compute surface
    account = dri.portal.unix_accounts.resolve(
        dri.workflows.personas["bob"].broker_sub)[1][0]
    dri.slurm.submit(account, s1.data["project_id"], nodes=1, walltime=60)
    # one denial for the ledger: bob asks for a PI role he does not hold
    denied = dri.workflows.mint(dri.workflows.personas["bob"], "portal", "pi")
    assert not denied.ok
    # a traced workshop login so trace-keyed queries have material
    workshop = dri.workflows.rsecon_workshop(1)
    assert workshop.ok, workshop.steps
    dri.workshop_trace = workshop.data["trace_ids"][0]
    dri.ship_logs()
    return dri


def _sec_token(dri):
    token, _ = dri.broker.tokens.mint("idp-admin:sec1", "soc",
                                      Role.ADMIN_SECURITY)
    return {"Authorization": f"Bearer {token}"}


def test_pipeline_deployment_uses_bounded_store_and_ledger(pipeline_world):
    dri = pipeline_world
    assert dri.telemetry.store.config is dri.pipeline_config is not None
    assert dri.telemetry.provenance.max_records == \
        dri.pipeline_config.max_decisions


def test_every_live_grant_and_denial_is_explained(pipeline_world):
    dri = pipeline_world
    led = dri.telemetry.provenance
    uid = dri.workflows.personas["bob"].broker_sub
    records = led.explain(uid)
    assert records, "no provenance for an onboarded researcher"
    surfaces = {r.surface for r in records}
    assert {"tokens", "ssh", "tunnels"} <= surfaces
    # the batch job landed on the compute surface under the unix account
    account = dri.portal.unix_accounts.resolve(uid)[1][0]
    job = led.grant_record(account, "compute")
    assert job is not None and job.rule == ""  # slurm grants role-lessly
    # grants carry the matched role and the policy pack version (via the
    # authz enricher)
    grant = led.grant_record(uid, "tokens")
    assert grant is not None
    assert grant.rule.startswith("role:")
    assert grant.pack_version == dri.policy_engine.pack_version
    assert grant.loa >= 0 and grant.pdp_staleness >= 0.0
    # the PI-role refusal is in the ledger with its grounds and inputs
    denials = led.denials(uid)
    assert denials and denials[-1].attrs.get("role") == "pi"
    assert "not held" in denials[-1].reason
    # every live session-registry grant has a ledger explanation
    reg = dri.authz.registry
    for grant_ in reg.live_grants():
        identity = reg.graph.uid_of(grant_.spiffe_id) or grant_.spiffe_id
        assert led.explain(identity) or led.explain(grant_.spiffe_id)


def test_pdp_reevaluations_carry_matched_rule(pipeline_world):
    dri = pipeline_world
    led = dri.telemetry.provenance
    uid = dri.workflows.personas["bob"].broker_sub
    before = len(led.explain(uid))
    revoked = dri.authz.authorizer.reevaluate_all()
    assert revoked == 0                      # nothing is revocable here
    fresh = led.explain(uid)[before:]
    assert fresh, "the continuous sweep recorded no PDP decisions"
    assert all(r.decision == Decision.ALLOW and r.rule and r.pack_version
               for r in fresh)
    assert all(r.surface == "pdp" for r in fresh)


def test_soc_scoreboard_and_explain_views(pipeline_world):
    dri = pipeline_world
    headers = _sec_token(dri)
    board = dri.soc.handle(HttpRequest("GET", "/scoreboard",
                                       headers=headers))
    assert board.ok
    prov = board.body["provenance"]
    assert prov["recorded"] > 0 and prov["retained"] > 0
    assert "tokens" in prov["decisions"]
    assert board.body["spans"]["budget"] == dri.pipeline_config.max_spans

    uid = dri.workflows.personas["bob"].broker_sub
    resp = dri.soc.handle(HttpRequest("GET", "/explain", headers=headers,
                                      query={"identity": uid}))
    assert resp.ok and resp.body["decisions"]
    assert any(d["decision"] == Decision.DENY for d in resp.body["decisions"])
    missing = dri.soc.handle(HttpRequest("GET", "/explain", headers=headers))
    assert missing.status == 400
    anon = dri.soc.handle(HttpRequest("GET", "/scoreboard"))
    assert anon.status == 403


def test_legitimate_traffic_raises_no_unexplained_alerts(pipeline_world):
    dri = pipeline_world
    rules = [r for r in dri.soc.rules
             if isinstance(r, UnexplainedDecisionRule)]
    assert len(rules) == 1
    assert rules[0].checked > 0          # the rule really ran
    assert rules[0].unexplained == 0
    assert not [a for a in dri.soc.alerts
                if a.rule == "unexplained-decision"]


def test_join_provenance_annotates_matching_entries():
    from repro.siem import IncidentTimeline, TimelineEntry

    led = ProvenanceLedger()
    led.record(1.0, "tokens", Decision.ALLOW, "alice", trace_id="t1",
               rule="role:researcher")
    led.record(3.0, "tokens", Decision.DENY, "alice", trace_id="t1",
               reason="role 'pi' not held")
    timeline = IncidentTimeline(subject="alice", correlated_ids={"alice"},
                                entries=[
        TimelineEntry(1.0, "fds", "broker", "rbac.mint", "success",
                      "alice -> jupyter", trace_id="t1"),
        TimelineEntry(2.0, "fds", "edge", "message.delivered", "success",
                      "laptop -> broker"),           # untraced: untouched
        TimelineEntry(3.0, "fds", "broker", "rbac.denied", "denied",
                      "alice -> portal", trace_id="t1"),
    ])
    assert join_provenance(timeline, led) == 2
    # time disambiguates when one trace carries several decisions
    assert timeline.entries[0].rule == "role:researcher"
    assert timeline.entries[1].rule == ""
    assert timeline.entries[2].rule == "role 'pi' not held"
    assert timeline.render().count("<rule:") == 2


def test_trace_timeline_joins_ledger_over_the_deployment(pipeline_world):
    dri = pipeline_world
    from repro.siem import build_trace_timeline

    timeline = build_trace_timeline(dri, dri.workshop_trace)
    assert timeline.entries
    annotated = join_provenance(timeline, dri.telemetry.provenance)
    assert annotated >= 1
    assert "<rule: tunnel:jupyter>" in timeline.render()


# ---------------------------------------------------------------------------
# the ledger against the trail: one record per decision-bearing event
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def default_world():
    dri = build_isambard(seed=77)
    wf = dri.workflows
    s1 = wf.story1_pi_onboarding("alice")
    assert s1.ok, s1.steps
    assert wf.story3_researcher_setup(s1.data["project_id"], "alice", "bob").ok
    assert wf.story4_ssh_session("bob").ok
    assert wf.story6_jupyter("bob").ok
    assert wf.relogin(wf.personas["bob"]).ok
    assert not wf.mint(wf.personas["bob"], "portal", "pi").ok
    dri.ship_logs()
    return dri


_OUTCOME_DECISIONS = {"success": Decision.ALLOW, "cached": Decision.CACHED,
                      "denied": Decision.DENY, "shed": Decision.SHED}
_DECISION_ATTRS = ("jti", "audience", "role", "serial", "key_id", "project",
                   "capability")
# filled from the enricher wherever the event leaves them at these
_ENRICHED = {"pack_version": "", "loa": -1, "threat_score": -1.0,
             "pdp_staleness": -1.0}


def _derived(event):
    """The decision one audit event carries, as the bridge must record
    it, or None when the event bears no decision."""
    surface = Telemetry._AUDIT_DECISIONS.get(event.action)
    if surface is None:
        return None
    if event.action == "authz.fail_closed":
        decision, surface = Decision.FAIL_CLOSED, event.resource or "pdp"
    else:
        decision = _OUTCOME_DECISIONS.get(event.outcome)
        if decision is None:
            return None
    attrs = event.attrs
    rule = str(attrs.get("rule", ""))
    if not rule and decision in Decision.GRANTS:
        if attrs.get("role"):
            rule = f"role:{attrs['role']}"
        elif attrs.get("capability"):
            rule = f"capability:{attrs['capability']}"
    epoch, age = attrs.get("epoch", -1), attrs.get("age", -1.0)
    return DecisionRecord(
        event.time, surface, decision, event.actor,
        spiffe_id=str(attrs.get("spiffe_id", "")),
        trace_id=str(attrs.get("trace_id", "")),
        resource=event.resource, rule=rule,
        reason=str(attrs.get("reason", "")),
        cached=decision == Decision.CACHED,
        region=str(attrs.get("region", "")),
        epoch=epoch if isinstance(epoch, int) else -1,
        pdp_staleness=float(age) if isinstance(age, (int, float)) else -1.0,
        attrs={k: attrs[k] for k in _DECISION_ATTRS if k in attrs})


def _key(rec):
    """Every field the event decides (the enricher's left out)."""
    return (rec.time, rec.surface, rec.decision, rec.subject, rec.spiffe_id,
            rec.trace_id, rec.resource, rec.rule, rec.reason, rec.cached,
            rec.region, rec.epoch, tuple(sorted(rec.attrs.items())))


def test_the_ledger_explains_exactly_the_trails_decisions(
        default_world, pipeline_world):
    # a continuous-authorization sweep: PDP decisions, no audit events
    assert pipeline_world.authz.authorizer.reevaluate_all() == 0
    for dri in (default_world, pipeline_world):
        led = dri.telemetry.provenance
        owed = [rec for log in dri.logs.values()
                for rec in map(_derived, log.events()) if rec is not None]
        assert len(owed) > 10
        pool = defaultdict(list)
        for subject in {rec.subject for rec in owed}:
            for rec in led.explain(subject):
                if rec.subject == subject:
                    pool[_key(rec)].append(rec)
        for want in owed:
            held = pool[_key(want)]
            assert held, f"no ledger record for {want}"
            got = held.pop(0)
            for name, unset in _ENRICHED.items():
                if getattr(want, name) != unset:
                    assert getattr(got, name) == getattr(want, name), name
            assert got.pack_version == dri.policy_engine.pack_version
        # the rest is what no audit event carries: the PDP's evaluations
        # and the guard's stale allows
        authz = getattr(dri, "authz", None)
        extra = (authz.pdp.decisions + authz.guard.stale_allows
                 if authz is not None else 0)
        assert (extra > 0) == (authz is not None)
        assert led.stats()["evicted"] == 0
        assert len(led) == len(owed) + extra


@pytest.mark.parametrize("journaled", [False, True], ids=["cold", "journaled"])
def test_a_log_restart_leaves_the_ledger_explaining_what_the_trail_holds(
        journaled):
    """A decision is a position in its log.  A cold restart wipes the
    records behind some: they stay in the indexes and the counters, and
    the queries that build records skip them.  A journaled log recovers
    the same positions, so nothing is skipped."""
    dri = build_isambard(seed=87, durability=journaled)
    assert dri.workflows.story1_pi_onboarding("pi").ok
    assert dri.workflows.rsecon_workshop(1).ok  # traced decisions
    led = dri.telemetry.provenance
    owed = [rec for log in dri.logs.values()
            for rec in map(_derived, log.events()) if rec is not None]
    wiped = {_key(rec) for rec in map(_derived, dri.logs["fds"].events())
             if rec is not None}
    assert wiped
    identities = sorted({r.subject for r in owed}
                        | {r.spiffe_id for r in owed} - {""})
    traces = sorted({r.trace_id for r in owed} - {""})
    assert identities and traces
    explained = {i: led.explain(i) for i in identities}
    by_trace = {t: led.explain_trace(t) for t in traces}
    stats = led.stats()

    dri.crash("audit-fds")
    assert (dri.restart("audit-fds") is not None) is journaled

    assert led.stats() == stats
    assert all(led.knows(identity=i) for i in identities)
    assert all(led.knows(trace_id=t) for t in traces)
    for query, before in ((led.explain, explained),
                          (led.explain_trace, by_trace)):
        for key, records in before.items():
            kept = [r for r in records if journaled or _key(r) not in wiped]
            assert query(key) == kept, key
    lost = sum(map(len, explained.values())) - sum(
        len(led.explain(i)) for i in identities)
    assert lost == (0 if journaled else len(wiped))
