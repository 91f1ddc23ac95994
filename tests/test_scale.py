"""Unit tests for the scale-out subsystem (repro.scale) and for the
directory's placement ring (repro.federation.directory.ring).

Covers the ring (deterministic placement, minimal movement on a join),
the TTL cache (expiry, negative caching, single-flight stampede
protection, tag and bus invalidation), the replica pool + load balancer
and failover, and the metric-driven autoscaler.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import AuditLog
from repro.clock import SimClock
from repro.errors import ServiceUnavailable, SignatureInvalid
from repro.federation.directory.ring import HashRing
from repro.net import (
    HttpRequest,
    HttpResponse,
    Network,
    OperatingDomain,
    Service,
    Zone,
    route,
)
from repro.scale import (
    MAX_REPLICAS,
    Autoscaler,
    InvalidationBus,
    LoadBalancer,
    LoadInFlight,
    ReplicaPool,
    TtlCache,
)
from tests.conftest import Wiring

_member = st.sampled_from([f"m{i}" for i in range(8)])


def _position(text: str) -> int:
    """A ring position from hashlib alone: sha256's first eight bytes."""
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


# ======================================================================
# the directory's consistent-hash ring
# ======================================================================
@pytest.mark.directory
class TestBoundedLoadRing:
    def test_deterministic_placement_across_runs_and_orders(self):
        # placement depends only on sha256, never on insertion order or
        # Python hash randomisation — two rings built differently agree
        members = [f"replica-{i}" for i in range(5)]
        shuffled = list(members)
        random.Random(7).shuffle(shuffled)
        ring_a = HashRing(members)
        ring_b = HashRing(shuffled)
        rng = random.Random(42)
        keys = [f"session-{rng.randrange(10**9)}" for _ in range(300)]
        for key in keys:
            assert ring_a.locate(key) == ring_b.locate(key)

    def test_placement_spreads_across_members(self):
        ring = HashRing([f"r{i}" for i in range(4)], vnodes=64)
        rng = random.Random(1)
        owners = {ring.locate(f"k{rng.randrange(10**9)}") for _ in range(500)}
        assert owners == {"r0", "r1", "r2", "r3"}

    def test_minimal_movement_on_join(self):
        members = [f"r{i}" for i in range(4)]
        ring = HashRing(members)
        rng = random.Random(9)
        keys = [f"k{rng.randrange(10**9)}" for _ in range(600)]
        before = {k: ring.locate(k) for k in keys}
        ring.add("r4")
        after = {k: ring.locate(k) for k in keys}
        moved = [k for k in keys if before[k] != after[k]]
        # expected fraction is 1/5; allow generous slack, but far below
        # the ~4/5 a mod-N hash would reshuffle
        assert len(moved) / len(keys) < 0.40
        # every moved key moved *to* the joining node, nowhere else
        assert all(after[k] == "r4" for k in moved)

    @settings(max_examples=60, deadline=None)
    @given(
        start=st.lists(_member, min_size=1, max_size=5, unique=True),
        joins=st.lists(_member, max_size=8),
        keys=st.lists(st.text(max_size=8), min_size=1, max_size=20),
        vnodes=st.integers(1, 16),
    )
    def test_locate_is_the_first_vnode_clockwise(self, start, joins, keys,
                                                 vnodes):
        """Pure placement against a reference written out here: sort the
        vnodes, take the first one past the key's position (a vnode
        exactly on it is behind it — what ``bisect_right`` on
        ``(pos, "\uffff")`` gives), wrap at the end."""
        ring = HashRing(start, vnodes=vnodes)
        members = list(start)
        # start[0] is a member already: the first pass checks the ring
        # as built, each later one the ring after a join
        for member in [start[0]] + joins:
            if member not in members:
                ring.add(member)
                members.append(member)
            vnode_ring = sorted((_position(f"{m}#{v}"), m)
                                for m in members for v in range(vnodes))
            for key in keys:
                at = bisect_right(vnode_ring, (_position(key), "\uffff"))
                assert ring.locate(key) == vnode_ring[at % len(vnode_ring)][1]


# ======================================================================
# TTL cache + invalidation bus
# ======================================================================
class Loader:
    """Counting loader with a programmable outcome."""

    def __init__(self, value="v"):
        self.calls = 0
        self.value = value
        self.exc = None

    def __call__(self):
        self.calls += 1
        if self.exc is not None:
            raise self.exc
        return self.value


class TestTtlCache:
    def test_hit_then_ttl_expiry(self):
        clock = SimClock()
        cache = TtlCache("t", clock, ttl=10.0,
                         telemetry=Wiring(clock).telemetry)
        loader = Loader()
        assert cache.get_or_load("k", loader) == "v"
        assert cache.get_or_load("k", loader) == "v"
        assert loader.calls == 1
        assert cache.last_hit is True
        clock.advance(10.0)
        assert cache.get_or_load("k", loader) == "v"
        assert loader.calls == 2
        assert cache.stats.expirations == 1

    def test_stampede_protection_one_loader_call(self):
        # the CI cache-stampede regression: N concurrent (same-instant)
        # misses on one key resolve to exactly one upstream load
        clock = SimClock()
        cache = TtlCache("t", clock, ttl=60.0,
                         telemetry=Wiring(clock).telemetry)
        loader = Loader()
        results = [cache.get_or_load("hot", loader) for _ in range(10)]
        assert results == ["v"] * 10
        assert loader.calls == 1
        assert cache.stats.loads == 1
        assert cache.stats.requests() == 10

    def test_force_refresh_coalesces_to_one_fetch(self):
        # N callers demanding min_fresh_at=now at the same instant (the
        # JWKS-rotation storm) produce exactly one upstream fetch
        clock = SimClock()
        cache = TtlCache("t", clock, ttl=600.0,
                         telemetry=Wiring(clock).telemetry)
        loader = Loader()
        cache.get_or_load("jwks", loader)
        clock.advance(5.0)
        now = clock.now()
        for _ in range(5):
            cache.get_or_load("jwks", loader, min_fresh_at=now)
        assert loader.calls == 2  # the priming load + one refresh
        # followers are satisfied without another upstream fetch (either
        # joining the flight or hitting the just-refreshed entry)
        assert cache.stats.hits + cache.stats.coalesced == 4

    def test_negative_caching(self):
        clock = SimClock()
        cache = TtlCache("t", clock, ttl=60.0, negative_ttl=5.0,
                         negative_errors=(SignatureInvalid,),
                         telemetry=Wiring(clock).telemetry)
        loader = Loader()
        loader.exc = SignatureInvalid("forged")
        with pytest.raises(SignatureInvalid):
            cache.get_or_load("bad", loader)
        with pytest.raises(SignatureInvalid):
            cache.get_or_load("bad", loader)
        assert loader.calls == 1
        assert cache.stats.negative_hits == 1
        clock.advance(5.0)
        with pytest.raises(SignatureInvalid):
            cache.get_or_load("bad", loader)
        assert loader.calls == 2

    def test_unexpected_errors_never_cached(self):
        clock = SimClock()
        cache = TtlCache("t", clock, ttl=60.0,
                         negative_errors=(SignatureInvalid,),
                         telemetry=Wiring(clock).telemetry)
        loader = Loader()
        loader.exc = ServiceUnavailable("upstream down")
        with pytest.raises(ServiceUnavailable):
            cache.get_or_load("k", loader)
        with pytest.raises(ServiceUnavailable):
            cache.get_or_load("k", loader)
        assert loader.calls == 2  # retried, not served from a poison entry

    def test_reentrant_load_raises_in_flight(self):
        clock = SimClock()
        cache = TtlCache("t", clock, ttl=60.0,
                         telemetry=Wiring(clock).telemetry)

        def recursive():
            return cache.get_or_load("k", recursive_loader)

        def recursive_loader():
            return cache.get_or_load("k", lambda: "inner")

        with pytest.raises(LoadInFlight):
            recursive()

    def test_ttl_of_bounds_entry_lifetime(self):
        clock = SimClock()
        cache = TtlCache("t", clock, ttl=600.0,
                         telemetry=Wiring(clock).telemetry)
        cache.get_or_load("k", lambda: "v", ttl_of=lambda v: 3.0)
        clock.advance(3.0)
        assert cache.peek("k") is None

    def test_tag_invalidation(self):
        clock = SimClock()
        cache = TtlCache("t", clock, ttl=60.0,
                         telemetry=Wiring(clock).telemetry)
        cache.get_or_load("tok1", lambda: "a", tags_of=lambda v: ("jti-1",))
        cache.get_or_load("tok2", lambda: "b", tags_of=lambda v: ("jti-2",))
        assert cache.invalidate_tag("jti-1") == 1
        assert cache.peek("tok1") is None
        assert cache.peek("tok2") == "b"
        assert cache.stats.invalidations == 1

    def test_bus_binding_by_tag_key_and_clear(self):
        clock = SimClock()
        bus = InvalidationBus()
        heard = []
        for topic in ("token.revoked", "jwks.rotated"):
            bus.subscribe(topic, lambda key, topic=topic: heard.append(topic))
        tagged = TtlCache("tokens", clock, ttl=60.0,
                          telemetry=Wiring(clock).telemetry)
        keyed = TtlCache("jwks", clock, ttl=600.0,
                         telemetry=Wiring(clock).telemetry)
        tagged.bind(bus, "token.revoked", by_tag=True)
        keyed.bind(bus, "jwks.rotated", by_tag=False)
        tagged.get_or_load("tok", lambda: "v", tags_of=lambda v: ("jti-9",))
        keyed.get_or_load("broker", lambda: "doc")

        bus.publish("token.revoked", key="jti-9")
        assert tagged.peek("tok") is None
        assert keyed.peek("broker") == "doc"

        bus.publish("jwks.rotated", key="broker")
        assert keyed.peek("broker") is None

        tagged.get_or_load("tok", lambda: "v2")
        bus.publish("token.revoked")  # bare event flushes the cache
        assert tagged.peek("tok") is None
        assert bus.published == 3
        assert heard == ["token.revoked", "jwks.rotated", "token.revoked"]

    def test_deterministic_eviction_at_capacity(self):
        clock = SimClock()
        cache = TtlCache("t", clock, ttl=100.0, max_entries=2,
                         telemetry=Wiring(clock).telemetry)
        cache.get_or_load("soon", lambda: 1, ttl=5.0)
        cache.get_or_load("late", lambda: 2, ttl=50.0)
        cache.get_or_load("new", lambda: 3)
        assert cache.peek("soon") is None  # soonest-expiring was evicted
        assert cache.peek("late") == 2
        assert cache.peek("new") == 3


# ======================================================================
# replica pool + load balancer
# ======================================================================
class Origin(Service):
    """Shared state backend the workers front."""

    def __init__(self, name, clock):
        super().__init__(name)
        self.clock = clock
        self.audit = AuditLog(f"{name}-audit")
        self.calls = 0

    @route("GET", "/ping")
    def ping(self, request: HttpRequest) -> HttpResponse:
        self.calls += 1
        return HttpResponse.json({"pong": True})


class Client(Service):
    pass


def _fabric():
    clock = SimClock()
    network = Network(clock, **Wiring())
    origin = Origin("origin", clock)
    network.attach(origin, OperatingDomain.FDS, Zone.ACCESS)
    client = Client("client")
    network.attach(client, OperatingDomain.FDS, Zone.ACCESS)
    pool = ReplicaPool("svc", network, OperatingDomain.FDS, Zone.ACCESS,
                       origin)
    return clock, network, origin, client, pool


class TestReplicaPoolAndBalancer:
    def test_scale_to_attaches_and_detaches_endpoints(self):
        clock, network, origin, client, pool = _fabric()
        events = []
        pool.on_membership(lambda ev, r: events.append((ev, r)))
        pool.scale_to(3)
        assert pool.replicas() == ["svc-r1", "svc-r2", "svc-r3"]
        assert all(network.has_endpoint(r) for r in pool.replicas())
        pool.scale_to(1)
        assert pool.replicas() == ["svc-r1"]
        assert not network.has_endpoint("svc-r2")
        assert events == [("join", "svc-r1"), ("join", "svc-r2"),
                          ("join", "svc-r3"), ("leave", "svc-r3"),
                          ("leave", "svc-r2")]
        assert pool.scale_to(99) == MAX_REPLICAS

    def _balanced(self, pool, network, clock):
        lb = LoadBalancer("svc-lb", clock, pool, **Wiring(clock))
        network.attach(lb, OperatingDomain.FDS, Zone.ACCESS)
        return lb

    def test_least_outstanding_spreads_evenly(self):
        clock, network, origin, client, pool = _fabric()
        pool.scale_to(4)
        lb = self._balanced(pool, network, clock)
        for _ in range(8):
            assert client.call("svc-lb", HttpRequest("GET", "/ping")).ok
        assert [pool.worker(r).served for r in pool.replicas()] == [2, 2, 2, 2]
        assert origin.calls == lb.routed == 8

    def test_down_replica_is_skipped(self):
        clock, network, origin, client, pool = _fabric()
        pool.scale_to(3)
        lb = self._balanced(pool, network, clock)
        network.endpoint("svc-r2").up = False
        for _ in range(6):
            assert client.call("svc-lb", HttpRequest("GET", "/ping")).ok
        assert pool.worker("svc-r2").served == 0
        assert origin.calls == 6

    def test_all_replicas_down_exhausts(self):
        clock, network, origin, client, pool = _fabric()
        pool.scale_to(2)
        lb = self._balanced(pool, network, clock)
        for r in pool.replicas():
            network.endpoint(r).up = False
        with pytest.raises(ServiceUnavailable):
            client.call("svc-lb", HttpRequest("GET", "/ping"))
        assert lb.exhausted == 1

    def test_failing_replica_trips_breaker_and_fails_over(self):
        clock, network, origin, client, pool = _fabric()
        pool.scale_to(2)
        lb = self._balanced(pool, network, clock)
        bad = pool.worker("svc-r1")

        def explode(request):
            raise ServiceUnavailable("svc-r1 wedged")

        bad.handle = explode
        for _ in range(12):
            assert client.call("svc-lb", HttpRequest("GET", "/ping")).ok
        assert lb.failovers > 0
        assert lb._breaker("svc-r1").state == "open"
        # once open, the wedged replica is skipped without an attempt
        failovers_when_open = lb.failovers
        for _ in range(4):
            assert client.call("svc-lb", HttpRequest("GET", "/ping")).ok
        assert lb.failovers == failovers_when_open


# ======================================================================
# autoscaler
# ======================================================================
class TestAutoscaler:
    def _setup(self, **kwargs):
        clock, network, origin, client, pool = _fabric()
        pool.scale_to(1)
        wired = Wiring(clock)
        tele = wired.telemetry
        scaler = Autoscaler(clock, pool, tele, audit=wired.audit,
                            loss_up=0.02, loss_down=0.002, down_after=2,
                            **kwargs)
        return clock, pool, tele, scaler

    def test_grows_on_loss_and_shrinks_when_quiet(self):
        clock, pool, tele, scaler = self._setup()
        tele.hop_requests.inc(10, dst="svc-r1", outcome="success")
        tele.hop_requests.inc(5, dst="svc-r1", outcome="shed")
        decision = scaler.evaluate()
        assert decision.direction == "grow"
        assert pool.size() == 2
        assert tele.pool_size.value(pool="svc") == 2.0
        # two quiet windows with real traffic -> shrink by one
        for _ in range(2):
            tele.hop_requests.inc(20, dst="svc-r1", outcome="success")
            decision = scaler.evaluate()
        assert decision.direction == "shrink"
        assert pool.size() == 1
        assert [d.direction for d in scaler.decisions] == [
            "grow", "hold", "shrink"]

    def test_idle_windows_do_not_shrink(self):
        clock, pool, tele, scaler = self._setup()
        pool.scale_to(2)
        for _ in range(5):
            assert scaler.evaluate().direction == "hold"
        assert pool.size() == 2  # no traffic is not evidence of headroom

    def test_slo_page_forces_grow(self):
        clock, pool, tele, scaler = self._setup(watch_services=("svc",))

        class Page:
            service = "svc"

        scaler._on_page(Page())
        decision = scaler.evaluate()
        assert decision.direction == "grow"
        assert decision.reason == "slo burn-rate page"
        assert pool.size() == 2

    def test_ticker_runs_on_sim_clock(self):
        clock, pool, tele, scaler = self._setup(interval=5.0)
        scaler.start()
        tele.hop_requests.inc(50, dst="svc-r1", outcome="shed")
        clock.run_until(6.0)
        assert pool.size() == 2
        scaler.stop()
        assert clock.pending_events() in (0, 1)  # ticker cancelled


# ======================================================================
# cache invalidation hygiene (PR 6 satellite): negative entries and
# bus subscriptions must not outlive the entries/caches they serve
# ======================================================================
class TestCacheInvalidationHygiene:
    def test_invalidate_tag_purges_negative_entry_via_inherited_tags(self):
        # an ALLOW cached under a tag expires; the re-load fails and is
        # negative-cached.  The negative entry inherits the dead ALLOW's
        # tags, so a revocation for that tag still evicts it.
        clock = SimClock()
        cache = TtlCache("t", clock, ttl=5.0, negative_ttl=60.0,
                         negative_errors=(SignatureInvalid,),
                         telemetry=Wiring(clock).telemetry)
        cache.get_or_load("tok", lambda: "ok", tags_of=lambda v: ("jti-1",))
        clock.advance(6.0)  # ALLOW expired

        def bad():
            raise SignatureInvalid("revoked upstream")

        with pytest.raises(SignatureInvalid):
            cache.get_or_load("tok", bad)
        # negative verdict now cached; it still carries jti-1
        with pytest.raises(SignatureInvalid):
            cache.get_or_load("tok", bad)
        assert cache.stats.negative_hits == 1

        assert cache.invalidate_tag("jti-1") == 1
        assert cache.stats.negative_purged == 1
        # flight window died with the entry: next caller goes upstream
        cache.get_or_load("tok", lambda: "fresh")
        assert cache.peek("tok") == "fresh"

    def test_negative_tags_of_tags_a_first_load_failure(self):
        clock = SimClock()
        cache = TtlCache("t", clock, ttl=60.0,
                         negative_errors=(SignatureInvalid,),
                         telemetry=Wiring(clock).telemetry)

        def bad():
            raise SignatureInvalid("forged: jti-9")

        with pytest.raises(SignatureInvalid):
            cache.get_or_load(
                "tok", bad, negative_tags_of=lambda exc: ("jti-9",))
        assert cache.invalidate_tag("jti-9") == 1
        assert cache.stats.negative_purged == 1

    def test_clear_counts_negative_purges(self):
        clock = SimClock()
        cache = TtlCache("t", clock, ttl=60.0,
                         negative_errors=(SignatureInvalid,),
                         telemetry=Wiring(clock).telemetry)
        cache.get_or_load("a", lambda: 1)

        def bad():
            raise SignatureInvalid("nope")

        with pytest.raises(SignatureInvalid):
            cache.get_or_load("b", bad)
        assert cache.clear() == 2
        assert cache.stats.negative_purged == 1

    def test_rebind_keeps_subscriber_count_flat(self):
        # rebuilding a cache under the same name (flush + recreate, a
        # region restart) must replace the old subscription, not stack
        # a new one: the dead instance stops hearing events
        clock = SimClock()
        bus = InvalidationBus()
        old = TtlCache("introspection", clock, ttl=60.0,
                       telemetry=Wiring(clock).telemetry)
        old.bind(bus, "token.revoked", by_tag=True)
        old.get_or_load("tok", lambda: "stale", tags_of=lambda v: ("j1",))
        assert bus.subscriber_count("token.revoked") == 1

        for _ in range(3):
            rebuilt = TtlCache("introspection", clock, ttl=60.0,
                               telemetry=Wiring(clock).telemetry)
            rebuilt.bind(bus, "token.revoked", by_tag=True)
        assert bus.subscriber_count("token.revoked") == 1

        rebuilt.get_or_load("tok", lambda: "fresh", tags_of=lambda v: ("j1",))
        bus.publish("token.revoked", key="j1")
        assert rebuilt.peek("tok") is None       # live cache evicted
        assert old.peek("tok") == "stale"        # dead instance untouched
        assert old.stats.invalidations == 0

    def test_rebind_same_cache_is_idempotent(self):
        clock = SimClock()
        bus = InvalidationBus()
        cache = TtlCache("jwks", clock, ttl=60.0,
                         telemetry=Wiring(clock).telemetry)
        cache.bind(bus, "jwks.rotated", by_tag=False)
        cache.bind(bus, "jwks.rotated", by_tag=False)
        assert bus.subscriber_count("jwks.rotated") == 1

    def test_unbind_removes_every_subscription(self):
        clock = SimClock()
        bus = InvalidationBus()
        cache = TtlCache("c", clock, ttl=60.0,
                         telemetry=Wiring(clock).telemetry)
        cache.bind(bus, "token.revoked", by_tag=True)
        cache.bind(bus, "jwks.rotated", by_tag=False)
        assert cache.unbind() == 2
        assert bus.subscriber_count("token.revoked") == 0
        assert bus.subscriber_count("jwks.rotated") == 0
        cache.get_or_load("k", lambda: "v")
        bus.publish("token.revoked")  # nobody listens; nothing breaks
        assert cache.peek("k") == "v"

    def test_unsubscribe_unknown_subscription_is_false(self):
        clock = SimClock()
        bus = InvalidationBus()
        sub = bus.subscribe("t", lambda key, **a: None)
        assert bus.unsubscribe(sub) is True
        assert bus.unsubscribe(sub) is False


# ======================================================================
# the balancer's in-flight bookkeeping — `outstanding` — must be released
# on every exit path (the hedge-loser path and the never-eject-the-last-
# replica rule are in test_tail.py)
# ======================================================================
class TestBalancerBookkeepingUnderTail:
    def test_ring_load_released_on_breaker_guarded_failure(self):
        clock, network, origin, client, pool = _fabric()
        pool.scale_to(3)
        lb = LoadBalancer("svc-lb", clock, pool, **Wiring(clock))
        network.attach(lb, OperatingDomain.FDS, Zone.ACCESS)

        def explode(request):
            raise ServiceUnavailable("wedged")

        pool.worker("svc-r1").handle = explode
        for _ in range(20):
            assert client.call("svc-lb", HttpRequest("GET", "/ping")).ok
        # every failed attempt — including those that tripped the
        # breaker — released its outstanding count
        assert lb.outstanding == {r: 0 for r in pool.replicas()}
        assert lb._breaker("svc-r1").state == "open"
