"""Unit tests for the tail-tolerance layer (repro.resilience.tail).

Covers the config validation and the four defences — adaptive
per-attempt deadlines (transport-level ``AttemptTimeout`` with honest
clock accounting and no delivered side effects), hedged requests (in
both the client resilience kit and the load balancer, with budget caps
and loser cancellation), latency-outlier ejection (probation, strike
back-off, never-the-last-candidate), and the retry-storm guard (token
budget, audit trail, SOC ``RetryStormRule``) — plus the PR's satellite
fixes: ``Fault.offers`` accounting, ``ResilienceMetrics.snapshot()``
destination attribution, balancer policy hygiene, and the geo-router's
gray-region detour.
"""

from __future__ import annotations

import random

import pytest

from repro.clock import SimClock
from repro.errors import (
    AttemptTimeout,
    ConfigurationError,
    ServiceUnavailable,
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
from repro.region.router import GeoRouter
from repro.resilience import (
    FaultInjector,
    HedgeBudget,
    OutlierEjector,
    Resilience,
    RetryBudget,
    RetryPolicy,
    TailConfig,
    TailController,
    hedgeable_request,
)
from repro.resilience.tail import (
    EJECT_DURATION,
    EJECT_MIN_SAMPLES,
    HEDGE_BUDGET_RATIO,
    HEDGE_MIN,
    MIN_SAMPLES,
    RETRY_BUDGET_CAP,
    TIMEOUT_MAX,
    TIMEOUT_MIN,
    clamp_timeout,
    hedge_delay_from,
)
from repro.scale import LoadBalancer, ReplicaPool
from repro.siem import RetryStormRule
from tests.conftest import Wiring

pytestmark = pytest.mark.tail


# ======================================================================
# config + primitives
# ======================================================================
class TestTailConfig:
    def test_defaults_are_valid(self):
        cfg = TailConfig()
        assert cfg.adaptive_deadlines and cfg.hedging
        assert cfg.ejection and cfg.retry_budget

    def test_clamp_timeout_clamps_both_ends(self):
        assert clamp_timeout(0.001) == TIMEOUT_MIN      # floor
        assert clamp_timeout(10.0) == TIMEOUT_MAX       # ceiling
        assert clamp_timeout(0.1) == pytest.approx(0.3)

    def test_hedge_delay_floors_at_min(self):
        assert hedge_delay_from(0.001) == HEDGE_MIN
        assert hedge_delay_from(0.1) == pytest.approx(0.2)

    def test_hedgeable_requests_are_read_shaped(self):
        assert hedgeable_request(HttpRequest("GET", "/userinfo"))
        assert hedgeable_request(HttpRequest("HEAD", "/jwks.json"))
        assert hedgeable_request(HttpRequest("POST", "/introspect"))
        assert not hedgeable_request(HttpRequest("POST", "/token"))
        assert not hedgeable_request(HttpRequest("POST", "/revoke"))


class TestLatencyTracker:
    """The controller's per-key latency histogram (what the tracker
    class became)."""

    def test_quantiles_deterministic_across_instances(self):
        clock = SimClock()
        a, b = (TailController(clock, TailConfig(), **Wiring(clock))
                for _ in range(2))
        rng = random.Random(3)
        samples = [rng.uniform(0.001, 0.3) for _ in range(200)]
        for s in samples:
            a.observe("k", s)
            b.observe("k", s)
        for q in (0.5, 0.95, 0.99):
            assert a.latency.quantile(q, key="k") == \
                b.latency.quantile(q, key="k")
        assert a.latency.count(key="k") == 200
        assert a.attempt_timeout("k") == b.attempt_timeout("k")


class TestBoundFor:
    """``TailController.bound_for`` is the one derivation of an
    attempt's transport bound."""

    READ, WRITE = HttpRequest("GET", "/ping"), HttpRequest("POST", "/token")

    def _controller(self, samples):
        clock = SimClock()
        tc = TailController(clock, TailConfig(), **Wiring(clock))
        for _ in range(samples):
            tc.observe("k", 0.004)
        return tc

    def test_cold_start_is_unbounded(self):
        tc = self._controller(samples=MIN_SAMPLES - 1)
        assert tc.bound_for("k", self.READ, first=True) == (None, False)
        assert tc.bound_for("k", self.WRITE, first=False) == (None, False)

    def test_hedge_delay_for_a_first_hedgeable_attempt_else_the_timeout(self):
        tc = self._controller(samples=MIN_SAMPLES)
        hedge = (tc.hedge_delay("k"), True)
        timeout = (tc.attempt_timeout("k"), False)
        assert None not in hedge + timeout and hedge[0] < timeout[0]
        asked = []

        def target():
            asked.append(len(asked))
            return len(asked) == 1

        assert tc.bound_for("k", self.READ, first=True) == hedge
        assert tc.bound_for("k", self.READ, first=True,
                            hedge_target=target) == hedge
        assert tc.bound_for("k", self.READ, first=True,
                            hedge_target=target) == timeout  # nowhere to go
        assert asked == [0, 1]
        # not hedgeable, not first, budget spent: the target is never asked
        assert tc.bound_for("k", self.WRITE, first=True,
                            hedge_target=target) == timeout
        assert tc.bound_for("k", self.READ, first=False,
                            hedge_target=target) == timeout
        tc.hedge_fired(AttemptTimeout("the grace hedge"))
        assert tc.bound_for("k", self.READ, first=True,
                            hedge_target=target) == timeout
        assert asked == [0, 1]
        tc.on_call("k")  # a fresh call buys the budget back
        assert tc.bound_for("k", self.READ, first=True) == hedge


class TestHedgeBudget:
    def test_grace_hedge_then_ratio_enforced(self):
        hb = HedgeBudget(0.1)
        assert hb.allowed()          # the +1 grace hedge
        hb.consume()
        assert not hb.allowed()      # 1 < 0.1*0 + 1 is now false
        for _ in range(10):
            hb.record_call()
        assert hb.allowed()          # 1 < 0.1*10 + 1

    def test_zero_ratio_disables_hedging(self):
        hb = HedgeBudget(0.0)
        hb.record_call()
        assert not hb.allowed()


class TestRetryBudget:
    def test_starts_full_and_drains(self):
        rb = RetryBudget(0.5, 2.0)
        assert rb.tokens("k") == 2.0
        assert rb.try_retry("k") and rb.try_retry("k")
        assert not rb.try_retry("k")
        assert rb.exhausted == 1
        assert rb.exhausted_by_key["k"] == 1

    def test_calls_deposit_up_to_cap(self):
        rb = RetryBudget(0.5, 2.0)
        for _ in range(2):
            assert rb.try_retry("k")
        rb.on_call("k")              # 0.0 -> 0.5: still under a token
        assert not rb.try_retry("k")
        rb.on_call("k")              # 1.0: one retry affordable again
        assert rb.try_retry("k")
        for _ in range(10):
            rb.on_call("k")
        assert rb.tokens("k") == 2.0  # capped


class TestOutlierEjector:
    def test_latency_outlier_ejected_but_fraction_capped(self):
        clock = SimClock()
        ej = OutlierEjector(clock)
        for m, lat in (("a", 0.5), ("b", 0.01), ("c", 0.01)):
            for _ in range(EJECT_MIN_SAMPLES):
                ej.record(m, lat, True)
        fleet = ["a", "b", "c"]
        assert ej.should_eject("a", fleet)
        ej.eject("a")
        assert ej.is_ejected("a", fleet)
        # MAX_EJECT_FRACTION=0.5 of 3 -> only one may sit out
        for _ in range(EJECT_MIN_SAMPLES):
            ej.record("b", 0.5, True)
        assert not ej.should_eject("b", fleet)

    def test_never_ejects_last_candidate(self):
        clock = SimClock()
        ej = OutlierEjector(clock)
        for _ in range(EJECT_MIN_SAMPLES):
            ej.record("only", 9.0, False)
        assert not ej.should_eject("only", ["only"])
        # fleet of two with the peer already out: the survivor is safe
        ej2 = OutlierEjector(clock)
        ej2.eject("b")
        for _ in range(EJECT_MIN_SAMPLES):
            ej2.record("a", 9.0, False)
        assert not ej2.should_eject("a", ["a", "b"])

    def test_probation_wipes_stats_and_fires_callback(self):
        clock = SimClock()
        ej = OutlierEjector(clock)
        reinstated = []
        ej.on_reinstate = reinstated.append
        for _ in range(3):
            ej.record("a", 0.5, True)
            ej.record("b", 0.01, True)
        ej.eject("a")
        clock.advance(EJECT_DURATION + 0.5)
        assert not ej.is_ejected("a", ["a", "b"])
        assert reinstated == ["a"]
        assert ej.reinstates == 1
        assert ej.latency_ewma("a") is None  # fresh evidence required

    def test_repeat_offender_backoff_doubles(self):
        clock = SimClock()
        ej = OutlierEjector(clock)
        # failures (ok=False) never clear the strike ladder
        for _ in range(3):
            ej.record("a", 0.5, False)
        first = ej.eject("a") - clock.now()
        clock.advance(EJECT_DURATION + 1.0)
        ej.is_ejected("a", ["a", "b"])  # serve probation
        for _ in range(3):
            ej.record("a", 0.5, False)
        second = ej.eject("a") - clock.now()
        assert second == pytest.approx(2 * first)

    def test_success_clears_strikes(self):
        clock = SimClock()
        ej = OutlierEjector(clock)
        for _ in range(3):
            ej.record("a", 0.5, False)
        ej.eject("a")
        ej.record("a", 0.01, True)  # behaving again
        assert ej.eject("a") - clock.now() == pytest.approx(EJECT_DURATION)


# ======================================================================
# transport: the attempt deadline
# ======================================================================
class Pong(Service):
    def __init__(self, name):
        super().__init__(name)
        self.calls = 0

    @route("GET", "/ping")
    def ping(self, request: HttpRequest) -> HttpResponse:
        self.calls += 1
        return HttpResponse.json({"pong": True})


class Front(Service):
    """Fans out one nested hop, to prove attempt bounds stay hop-local."""

    @route("GET", "/front")
    def front(self, request: HttpRequest) -> HttpResponse:
        return self.call("back", HttpRequest("GET", "/ping"))


def _pong_fabric():
    """A chaos-wired network with one ``srv`` and one ``client``."""
    clock = SimClock()
    faults = FaultInjector(clock, random.Random(5))
    network = Network(clock, faults=faults, **Wiring())
    srv, client = Pong("srv"), Service("client")
    for s in (srv, client):
        network.attach(s, OperatingDomain.FDS, Zone.ACCESS)
    return clock, faults, network, srv, client


class TestTransportAttemptDeadline:
    def test_attempt_abandoned_before_delivery(self):
        clock, _, network, srv, client = _pong_fabric()
        req = HttpRequest("GET", "/ping")
        req.attempt_deadline = clock.now() + 0.0005  # hop costs 0.001
        with pytest.raises(AttemptTimeout):
            client.call("srv", req)
        # honest accounting: the caller paid exactly the bound it set,
        # and the request was never delivered (no side effect to replay)
        assert clock.now() == pytest.approx(0.0005)
        assert srv.calls == 0
        assert network.messages_attempt_timeouts == 1
        assert any(e.action == "attempt.timeout"
                   for e in network.audit.events())

    def test_bound_covers_one_hop_not_nested_calls(self):
        clock = SimClock()
        network = Network(clock, **Wiring())
        front, back, client = Front("front"), Pong("back"), Service("client")
        for s in (front, back, client):
            network.attach(s, OperatingDomain.FDS, Zone.ACCESS)
        req = HttpRequest("GET", "/front")
        # tight enough that front->back would trip it if it leaked down
        req.attempt_deadline = clock.now() + 0.0015
        assert client.call("front", req).ok
        assert back.calls == 1
        assert req.attempt_deadline is None  # parked, never restored


# ======================================================================
# client resilience kit: adaptive deadlines, hedging, retry budget
# ======================================================================
def _kit_fabric(cfg, *, max_attempts=3):
    clock, faults, _, srv, client = _pong_fabric()
    kit = Resilience("client", clock, random.Random(7),
                     policy=RetryPolicy(max_attempts=max_attempts,
                                        base_delay=0.01, jitter=0.0))
    kit.tail = TailController(clock, cfg, **Wiring(clock))
    client.resilience = kit
    return clock, faults, srv, client, kit


class TestResilienceKitTail:
    def _warm(self, client, n=MIN_SAMPLES):
        for _ in range(n):
            assert client.call("srv", HttpRequest("GET", "/ping")).ok

    def test_adaptive_deadline_bounds_gray_attempts(self):
        cfg = TailConfig(hedging=False, ejection=False, retry_budget=False)
        clock, faults, srv, client, kit = _kit_fabric(cfg)
        self._warm(client)
        faults.slow_replica("srv", 0.5)
        before = clock.now()
        with pytest.raises(AttemptTimeout):
            client.call("srv", HttpRequest("GET", "/ping"))
        # three attempts at clamp(3 x p99) ~= 0.02 each plus backoffs —
        # nowhere near the 1.5s three unbounded gray attempts would cost
        assert clock.now() - before < 0.2
        assert kit.metrics.attempt_timeouts == 3
        assert kit.metrics.failures == 1

    def test_hedge_fires_without_breaker_penalty_or_backoff(self):
        cfg = TailConfig(adaptive_deadlines=False, ejection=False,
                         retry_budget=False)
        clock, faults, srv, client, kit = _kit_fabric(cfg)
        self._warm(client)
        faults.slow_replica("srv", 0.5)
        before = clock.now()
        assert client.call("srv", HttpRequest("GET", "/ping")).ok
        # first attempt abandoned at the hedge delay (0.01), the re-issue
        # rode the slow path to success — one hedge, zero retries
        assert kit.metrics.hedges == 1
        assert kit.metrics.retries == 0
        assert kit.metrics.attempts == MIN_SAMPLES + 2
        assert kit.metrics.successes == MIN_SAMPLES + 1
        # no backoff was taken between the loser and the hedge
        assert clock.now() - before == pytest.approx(0.01 + 0.501)

    def test_unhedgeable_mutation_is_never_hedged(self):
        cfg = TailConfig(adaptive_deadlines=False, ejection=False,
                         retry_budget=False)
        clock, faults, srv, client, kit = _kit_fabric(cfg)
        self._warm(client)
        faults.slow_replica("srv", 0.5)
        resp = client.call("srv", HttpRequest("POST", "/ping"))
        assert resp.status == 404  # no POST route, but it was delivered
        assert kit.metrics.hedges == 0

    def test_retry_budget_fails_fast_and_audits(self):
        cfg = TailConfig(adaptive_deadlines=False, hedging=False,
                         ejection=False)
        clock, faults, srv, client, kit = _kit_fabric(cfg, max_attempts=10)
        faults.outage("srv")
        with pytest.raises(ServiceUnavailable):
            client.call("srv", HttpRequest("GET", "/ping"))
        # the full bucket bought RETRY_BUDGET_CAP retries; the next one
        # was refused outright
        assert kit.metrics.attempts == 1 + RETRY_BUDGET_CAP
        assert kit.metrics.budget_exhausted == 1
        events = [e for e in kit.tail.audit.events()
                  if e.action == "retry.budget_exhausted"]
        assert len(events) == 1
        assert events[0].resource == "srv"

    def test_snapshot_exposes_destinations_and_tail_counters(self):
        kit = Resilience("c", SimClock(), random.Random(1))
        kit.call(lambda: 1, dst="a")
        kit.call(lambda: 2, dst="b")
        kit.call(lambda: 3, dst="a")
        snap = kit.metrics.snapshot()
        assert snap["by_destination"] == {"a": 2, "b": 1}
        for key in ("hedges", "attempt_timeouts", "budget_exhausted"):
            assert key in snap


# ======================================================================
# load balancer: hedging + ejection
# ======================================================================
def _lb_fabric(cfg, *, replicas=3, **lb_kw):
    clock, faults, network, origin, client = _pong_fabric()
    pool = ReplicaPool("svc", network, OperatingDomain.FDS, Zone.ACCESS,
                       origin)
    pool.scale_to(replicas)
    lb = LoadBalancer("svc-lb", clock, pool, tail=cfg, **Wiring(clock),
                      **lb_kw)
    network.attach(lb, OperatingDomain.FDS, Zone.ACCESS)
    return clock, faults, origin, client, pool, lb


class TestLoadBalancerHedging:
    def test_hedge_wins_without_failover_or_duplicate_side_effects(self):
        cfg = TailConfig(ejection=False, retry_budget=False)
        clock, faults, origin, client, pool, lb = _lb_fabric(cfg)
        warm = MIN_SAMPLES + 1  # a multiple of the three replicas
        for _ in range(warm):
            assert client.call("svc-lb", HttpRequest("GET", "/ping")).ok
        faults.slow_replica("svc-r1", 0.3)
        for _ in range(6):
            assert client.call("svc-lb", HttpRequest("GET", "/ping")).ok
        # the abandoned loser counts as an attempt too, so the gray
        # replica is tried first on every second call: each of those
        # three hedged to a fast peer, within the hedge budget, and the
        # hedge won
        assert lb.hedges == 3
        assert lb.hedge_wins == 3
        assert lb.failovers == 0          # speculation, not failover
        assert lb.attempt_timeouts == 0   # tight bound only on attempt 1
        # exactly-once: abandoned losers were never delivered
        assert origin.calls == warm + 6
        assert lb.routed == warm + 6
        # loser cancellation: no ghost in-flight bookkeeping
        assert all(v == 0 for v in lb.outstanding.values())

    def test_hedge_budget_caps_speculation(self):
        cfg = TailConfig(ejection=False, retry_budget=False)
        clock, faults, origin, client, pool, lb = _lb_fabric(cfg)
        warm = MIN_SAMPLES + 1
        for _ in range(warm):
            assert client.call("svc-lb", HttpRequest("GET", "/ping")).ok
        faults.slow_replica("svc-r1", 0.3)
        for _ in range(12):
            assert client.call("svc-lb", HttpRequest("GET", "/ping")).ok
        # six calls try the gray replica first.  A hedge fires while the
        # hedges so far are under HEDGE_BUDGET_RATIO x calls + 1, so the
        # first three are hedged; the other three fall back to the
        # adaptive timeout: counted, breaker-penalised, failed over
        assert lb.hedges == 3
        assert lb.hedges >= HEDGE_BUDGET_RATIO * lb.hedge_budget.calls + 1
        assert lb.attempt_timeouts == 3
        assert lb.failovers == 3
        assert origin.calls == warm + 12

    def test_hedge_releases_ring_load(self):
        cfg = TailConfig(ejection=False, retry_budget=False)
        clock, faults, origin, client, pool, lb = _lb_fabric(cfg)
        for _ in range(MIN_SAMPLES + 1):
            assert client.call("svc-lb", HttpRequest("GET", "/ping")).ok
        faults.slow_replica("svc-r1", 0.3)
        for _ in range(12):
            assert client.call("svc-lb", HttpRequest("GET", "/ping")).ok
        assert lb.hedges > 0  # the gray replica's attempts were hedged
        # every abandoned hedge loser released its outstanding slot
        assert lb.outstanding == {r: 0 for r in pool.replicas()}


class TestLoadBalancerEjection:
    def _cfg(self):
        return TailConfig(adaptive_deadlines=False, hedging=False,
                          retry_budget=False)

    def test_slow_successes_eject_then_probation_reinstates(self):
        clock, faults, origin, client, pool, lb = _lb_fabric(self._cfg())
        faults.slow_replica("svc-r1", 0.3)
        for _ in range(3 * EJECT_MIN_SAMPLES):
            assert client.call("svc-lb", HttpRequest("GET", "/ping")).ok
        # with deadlines and hedging ablated away, the gray replica's
        # attempts complete — slowly.  The latency EWMA alone ejects it
        assert lb.ejector.ejections == 1
        assert lb.ejector.is_ejected("svc-r1", pool.replicas())
        served_while_out = pool.worker("svc-r1").served
        for _ in range(6):
            assert client.call("svc-lb", HttpRequest("GET", "/ping")).ok
        assert pool.worker("svc-r1").served == served_while_out
        # probation: after the sentence the replica is re-probed
        clock.advance(EJECT_DURATION + 0.5)
        for _ in range(3):
            assert client.call("svc-lb", HttpRequest("GET", "/ping")).ok
        assert lb.ejector.reinstates == 1
        assert pool.worker("svc-r1").served > served_while_out

    def test_fleet_never_ejects_itself_to_death(self):
        def explode(request):
            raise ServiceUnavailable("wedged")

        clock, faults, origin, client, pool, lb = _lb_fabric(
            self._cfg(), failure_threshold=50)
        pool.worker("svc-r1").handle = explode
        pool.worker("svc-r2").handle = explode
        for _ in range(3 * EJECT_MIN_SAMPLES):
            assert client.call("svc-lb", HttpRequest("GET", "/ping")).ok
        replicas = pool.replicas()
        # both wedged replicas are error-outliers, but MAX_EJECT_FRACTION
        # (half of three) lets only one of them sit out…
        out = lb.ejector.ejected(replicas)
        assert len(out) == 1 and out[0] in ("svc-r1", "svc-r2")
        # …and even if the survivor goes bad, it is never ejected
        pool.worker("svc-r3").handle = explode
        for _ in range(6):
            with pytest.raises(ServiceUnavailable):
                client.call("svc-lb", HttpRequest("GET", "/ping"))
        assert not lb.ejector.is_ejected("svc-r3", replicas)


class TestOneDerivation:
    def test_kit_and_balancer_put_the_same_bounds_on_the_same_attempts(self):
        """Same config, same evidence → the same ``attempt_deadline`` on
        a first hedgeable attempt and on the attempt after it, whether
        the client kit or the balancer armed it."""
        cfg = TailConfig(ejection=False, retry_budget=False)
        _, _, _, _, kit = _kit_fabric(cfg)
        _, _, _, _, pool, lb = _lb_fabric(cfg)
        for tc, key in ((kit.tail, "client->srv"),
                        (lb.controller, pool.name)):
            for n in range(MIN_SAMPLES):
                tc.observe(key, 0.002 + 0.0005 * n)
        expected = [kit.tail.hedge_delay("client->srv"),
                    kit.tail.attempt_timeout("client->srv")]
        assert None not in expected and expected[0] < expected[1]

        def deadlines(request, issue):
            """Issue ``request`` over a transport that abandons the first
            attempt; the deadline each attempt carried (clocks at 0)."""
            seen = []

            def transport(*_):
                seen.append(request.attempt_deadline)
                if len(seen) == 1:
                    raise AttemptTimeout("abandoned")
                return HttpResponse.json({})

            issue(transport)
            return seen

        via_kit = HttpRequest("GET", "/ping")
        from_kit = deadlines(
            via_kit, lambda t: kit.call(t, dst="srv", request=via_kit))
        via_lb = HttpRequest("GET", "/ping")

        def balance(transport):
            lb.call = transport
            lb.handle(via_lb)

        assert from_kit == deadlines(via_lb, balance) == expected
        assert (kit.metrics.hedges, lb.hedges) == (1, 1)


# ======================================================================
# satellite: membership hygiene
# ======================================================================
class TestBalancerHygiene:
    def test_least_outstanding_forget_purges_served(self):
        # a re-joined name starts from zero instead of inheriting its
        # predecessor's count, which would skew the tie-break against it
        clock, faults, origin, client, pool, lb = _lb_fabric(TailConfig())
        for _ in range(6):
            assert client.call("svc-lb", HttpRequest("GET", "/ping")).ok
        assert lb._served["svc-r3"] == 2
        pool.remove_replica()
        assert pool.add_replica() == "svc-r4"
        pool.remove_replica()
        assert "svc-r3" not in lb._served and "svc-r4" not in lb._served

    def test_membership_leave_purges_balancer_state(self):
        cfg = TailConfig()
        clock, faults, origin, client, pool, lb = _lb_fabric(cfg)
        for _ in range(6):
            assert client.call("svc-lb", HttpRequest("GET", "/ping")).ok
        lb._breaker("svc-r3")
        departed = pool.remove_replica()
        assert departed == "svc-r3"
        assert departed not in lb.outstanding
        assert departed not in lb._breakers
        assert departed not in lb._served
        assert lb.ejector.latency_ewma(departed) is None


# ======================================================================
# satellite: fault offer accounting
# ======================================================================
class TestFaultOffers:
    def test_brownout_counts_offers_beyond_hits(self):
        clock, faults, network, srv, client = _pong_fabric()
        fault = faults.brownout("srv", 0.5)
        failures = 0
        for _ in range(20):
            try:
                client.call("srv", HttpRequest("GET", "/ping"))
            except ServiceUnavailable:
                failures += 1
        assert fault.offers == 20
        assert fault.hits == failures
        assert 0 < fault.hits < fault.offers

    def test_slow_replica_touches_every_offer(self):
        clock, faults, network, srv, client = _pong_fabric()
        fault = faults.slow_replica("srv", 0.05)
        for _ in range(5):
            assert client.call("srv", HttpRequest("GET", "/ping")).ok
        assert fault.offers == 5 and fault.hits == 5
        assert faults.injected_latency == pytest.approx(0.25)
        with pytest.raises(ConfigurationError):
            faults.slow_replica("srv", 0.0)


# ======================================================================
# SOC: the retry-storm rule
# ======================================================================
class TestRetryStormRule:
    def _record(self, t, dst="broker"):
        return {"action": "retry.budget_exhausted", "resource": dst,
                "time": t}

    def test_burst_alerts_once_per_window(self):
        rule = RetryStormRule()
        alerts = [rule.observe(self._record(float(i))) for i in range(9)]
        assert all(a is None for a in alerts)
        alert = rule.observe(self._record(9.0))
        assert alert is not None
        assert alert.rule == "retry-storm"
        assert alert.severity == "high"
        assert "broker" in alert.summary
        # dedup inside the window
        assert rule.observe(self._record(10.0)) is None
        # a fresh burst after the window alerts again
        assert any(rule.observe(self._record(50.0 + i)) is not None
                   for i in range(10))

    def test_destinations_are_independent(self):
        rule = RetryStormRule()
        for i in range(9):
            rule.observe(self._record(float(i), "broker"))
            assert rule.observe(self._record(float(i), "oidc")) is None
        assert rule.observe(self._record(9.0, "broker")) is not None
        assert rule.observe(self._record(9.5, "oidc")) is not None

    def test_ignores_other_actions(self):
        rule = RetryStormRule()
        for i in range(20):
            assert rule.observe({"action": "retry.backoff",
                                 "resource": "broker",
                                 "time": float(i)}) is None


# ======================================================================
# geo-router: gray-region detour
# ======================================================================
class RegionFront(Service):
    def __init__(self, name, clock, delay=0.0):
        super().__init__(name)
        self.clock = clock
        self.delay = delay
        self.calls = 0

    @route("GET", "/introspect")
    def introspect(self, request: HttpRequest) -> HttpResponse:
        if self.delay:
            self.clock.advance(self.delay)
        self.calls += 1
        return HttpResponse.json({"served_by": self.name})


class FakeRegion:
    def __init__(self, endpoint_name):
        self.endpoint_name = endpoint_name
        self.serving = True


class FakeDirectory:
    def __init__(self, regions):
        self._regions = regions

    def names(self):
        return list(self._regions)

    def region(self, name):
        return self._regions[name]

    def linked(self, a, b):
        return True


class TestGeoRouterGrayDetour:
    def _fabric(self):
        clock = SimClock()
        network = Network(clock, **Wiring())
        eu = RegionFront("eu-front", clock, delay=0.2)
        us = RegionFront("us-front", clock)
        directory = FakeDirectory({"eu": FakeRegion("eu-front"),
                                   "us": FakeRegion("us-front")})
        cfg = TailConfig(adaptive_deadlines=False, hedging=False,
                         retry_budget=False)
        router = GeoRouter("geo", clock, directory, tail=cfg, **Wiring(clock))
        router.pin("client-eu", "eu")
        router.pin("client-us", "us")
        client_eu, client_us = Service("client-eu"), Service("client-us")
        for s in (eu, us, router, client_eu, client_us):
            network.attach(s, OperatingDomain.FDS, Zone.ACCESS)
        return clock, directory, router, eu, us, client_eu, client_us

    def test_gray_home_region_is_detoured_then_reinstated(self):
        clock, directory, router, eu, us, client_eu, client_us = \
            self._fabric()
        req = lambda: HttpRequest("GET", "/introspect")
        for _ in range(EJECT_MIN_SAMPLES):
            assert client_eu.call("geo", req()).ok
            assert client_us.call("geo", req()).ok
        # EJECT_MIN_SAMPLES slow-but-successful samples score the home
        # region gray
        assert router.ejector.is_ejected("eu", ["eu", "us"])
        us_before = us.calls
        resp = client_eu.call("geo", req())
        assert resp.body["served_by"] == "us-front"
        assert us.calls == us_before + 1
        assert router.gray_detours == 1
        assert router.reroutes >= 1  # honest inter-region latency charged
        # last resort: a detoured region still serves when peers cannot
        directory.region("us").serving = False
        assert client_eu.call("geo", req()).body["served_by"] == \
            "eu-front"
        directory.region("us").serving = True
        # probation after the sentence
        clock.advance(EJECT_DURATION + 1.0)
        assert client_eu.call("geo", req()).ok
        assert router.ejector.reinstates == 1
