"""Multi-region active-active tier (repro.region, PR 6).

The acceptance invariants:

* a publish stays **synchronous in-region** (the PR 5 contract) and
  replicates to peers after ``replication_delay``; a severed link parks
  events and healing flushes the backlog in publish order, losing
  nothing — revocations are monotone facts;
* **bounded revocation staleness**: no region serves a revoked token
  from cache more than ``staleness_bound`` seconds after the revocation
  instant, partition or not (region cache TTLs are clamped to the
  bound, and the lag watchdog fails regions closed as defence in
  depth);
* **no split-brain issuance**: region generations are fenced by journal
  epochs under an intent/commit mint protocol, and a worker deposed
  mid-mint compensates by revoking the token it just obtained;
* the **geo-router** pins each caller to a home region and re-routes to
  the next serving region on loss or partition, never across a severed
  link, and never retrying expired work.
"""

from __future__ import annotations

import pytest

from repro.audit import AuditLog, Outcome
from repro.clock import SimClock
from repro.core import build_isambard
from repro.errors import (
    ConfigurationError,
    DeadlineExceeded,
    EpochFenced,
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
from repro.region import (
    ACTIVE,
    DOWN,
    REGION_NAMES,
    STALE,
    STALENESS_BOUND,
    GeoRouter,
    Region,
    RegionBusAdapter,
    RegionDirectory,
    ReplicatedInvalidationBus,
)
from repro.resilience.durability import DurabilityStore
from repro.scale import ScaleConfig
from tests.conftest import Wiring

pytestmark = pytest.mark.region


# ======================================================================
# the tier's constants
# ======================================================================
class TestRegionConfig:
    def test_home_is_first_region(self):
        # the home shard of the replicated bus is the deployment's own
        # bus, which the shared caches were bound to before the tier
        dri = build_isambard(seed=600, regions=True)
        home, peer = REGION_NAMES
        assert dri.region_bus.local[home] is dri.invalidation_bus
        assert dri.region_bus.local[peer] is not dri.invalidation_bus


# ======================================================================
# ReplicatedInvalidationBus
# ======================================================================
class TestReplicatedBus:
    def _bus(self, **kw):
        clock = SimClock()
        rbus = ReplicatedInvalidationBus(
            clock, ["eu", "us"], replication_delay=kw.pop("delay", 0.5),
            telemetry=Wiring(clock).telemetry, **kw)
        return clock, rbus

    def test_local_delivery_is_synchronous_peer_is_delayed(self):
        clock, rbus = self._bus()
        heard = {"eu": [], "us": []}
        for name in ("eu", "us"):
            rbus.local[name].subscribe(
                "token.revoked", lambda key, _n=name, **a: heard[_n].append(key))
        rbus.publish("eu", "token.revoked", key="j1")
        assert heard["eu"] == ["j1"]    # inside the publishing call
        assert heard["us"] == []
        clock.advance(0.5)
        assert heard["us"] == ["j1"]
        assert rbus.replicated == 1

    def test_sever_parks_heal_flushes_in_publish_order(self):
        clock, rbus = self._bus()
        heard = []
        rbus.local["us"].subscribe("token.revoked",
                                   lambda key, **a: heard.append(key))
        rbus.sever("eu", "us")
        for i in range(3):
            rbus.publish("eu", "token.revoked", key=f"j{i}")
            clock.advance(0.2)
        clock.advance(2.0)
        assert heard == []
        assert rbus.parked == 3
        assert rbus.heal("eu", "us") == 3
        assert heard == ["j0", "j1", "j2"]  # original publish order
        assert rbus.flushed == 3

    def test_partition_is_bidirectional(self):
        clock, rbus = self._bus()
        assert rbus.linked("eu", "us")
        rbus.sever("eu", "us")
        assert not rbus.linked("eu", "us")
        assert not rbus.linked("us", "eu")

    def test_epoch_fences_heartbeats_not_revocations(self):
        clock, rbus = self._bus()
        heard = []
        rbus.local["us"].subscribe("region.heartbeat",
                                   lambda key, **a: heard.append(("hb", key)))
        rbus.local["us"].subscribe("token.revoked",
                                   lambda key, **a: heard.append(("rv", key)))
        # a heartbeat and a revocation leave eu, then eu's generation dies
        rbus.publish("eu", "region.heartbeat", key="eu", epoch=0)
        rbus.publish("eu", "token.revoked", key="j1")   # no epoch: a fact
        rbus.bump_epoch("eu")
        clock.advance(0.5)
        assert ("rv", "j1") in heard      # the fact always lands
        assert ("hb", "eu") not in heard  # the dead generation's liveness
        assert rbus.fenced == 1

    def test_lag_grows_from_boot_and_resets_on_apply(self):
        clock, rbus = self._bus()
        clock.advance(3.0)
        # nothing ever applied: boot counts as the last sync point
        assert rbus.lag("us") == pytest.approx(3.0)
        rbus.publish("eu", "region.heartbeat", key="eu")
        clock.advance(0.5)  # delivery
        assert rbus.lag("us") == pytest.approx(0.5)  # age of newest applied
        clock.advance(2.0)
        assert rbus.lag("us") == pytest.approx(2.5)

    def test_adapter_routes_publish_to_serving_region(self):
        clock, rbus = self._bus()
        adapter = RegionBusAdapter(rbus, "eu")
        heard = {"eu": [], "us": []}
        for name in ("eu", "us"):
            rbus.local[name].subscribe(
                "token.revoked", lambda key, _n=name, **a: heard[_n].append(key))
        adapter.publish("token.revoked", key="home")
        assert heard["eu"] == ["home"]  # default origin: home, synchronous
        rbus.origin_stack.append("us")  # a us worker is on the stack
        adapter.publish("token.revoked", key="served-in-us")
        rbus.origin_stack.pop()
        assert heard["us"] == ["served-in-us"]
        clock.advance(0.5)
        assert heard["us"] == ["served-in-us", "home"]
        assert heard["eu"] == ["home", "served-in-us"]

    def test_rejects_unknown_and_duplicate_regions(self):
        clock = SimClock()
        telemetry = Wiring(clock).telemetry
        with pytest.raises(ConfigurationError):
            ReplicatedInvalidationBus(clock, ["only"], telemetry=telemetry)
        with pytest.raises(ConfigurationError):
            ReplicatedInvalidationBus(clock, ["a", "a"], telemetry=telemetry)
        _, rbus = self._bus()
        with pytest.raises(ConfigurationError):
            rbus.publish("mars", "t")


# ======================================================================
# Region + RegionWorker: mint fencing and bounded-staleness introspection
# ======================================================================
class StubBroker(Service):
    """A minimal origin with the two routes the region worker intercepts."""

    def __init__(self, name: str, clock: SimClock) -> None:
        super().__init__(name)
        self.clock = clock
        self.minted = 0
        self.revoked: set = set()
        self.tokens = self  # duck-types .revoke_jti for compensation

    def revoke_jti(self, jti: str) -> None:
        self.revoked.add(jti)

    @route("POST", "/tokens")
    def mint(self, request: HttpRequest) -> HttpResponse:
        self.minted += 1
        return HttpResponse.json(
            {"token": f"tok-{self.minted}", "jti": f"jti-{self.minted}"})

    @route("POST", "/introspect")
    def introspect(self, request: HttpRequest) -> HttpResponse:
        token = str(request.body.get("token", ""))
        jti = token.replace("tok-", "jti-")
        return HttpResponse.json(
            {"active": jti not in self.revoked, "jti": jti, "sub": "alice"})


def _region_fixture(staleness_bound: float = 5.0,
                    introspection_ttl: float = 30.0):
    clock = SimClock()
    network = Network(clock, audit=AuditLog("net"))
    origin = StubBroker("broker-origin", clock)
    network.attach(origin, OperatingDomain.FDS, Zone.ACCESS)
    wired = Wiring(clock)
    rbus = ReplicatedInvalidationBus(clock, ["eu", "us"],
                                     replication_delay=0.5,
                                     telemetry=wired.telemetry)
    store = DurabilityStore(clock, wired.telemetry)
    region = Region(
        "eu", clock, network, OperatingDomain.FDS, Zone.ACCESS,
        origin, rbus, store.stream("region-eu"),
        replicas=2, staleness_bound=staleness_bound,
        introspection_ttl=introspection_ttl, **wired,
    )
    return clock, network, origin, rbus, region


class TestRegionWorker:
    def test_mint_journals_intent_and_commit_under_region_epoch(self):
        clock, network, origin, rbus, region = _region_fixture()
        worker = region.pool.worker(region.pool.replicas()[0])
        resp = worker.handle(HttpRequest("POST", "/tokens"))
        assert resp.ok and resp.body["jti"] == "jti-1"
        kinds = [e.kind for e in region.journal.load()[1]]
        assert kinds == ["region.mint.intent", "region.mint"]
        assert all(e.epoch == region.epoch for e in region.journal.load()[1])
        assert region.minted == 1

    def test_deposed_region_cannot_mint(self):
        clock, network, origin, rbus, region = _region_fixture()
        region.journal.acquire_epoch()  # a new generation took over
        worker = region.pool.worker(region.pool.replicas()[0])
        with pytest.raises(ServiceUnavailable):
            worker.handle(HttpRequest("POST", "/tokens"))
        assert origin.minted == 0  # fenced at intent: origin never asked
        assert region.journal.load()[1] == []

    def test_deposed_mid_mint_compensates_the_token(self):
        clock, network, origin, rbus, region = _region_fixture()
        worker = region.pool.worker(region.pool.replicas()[0])

        real_handle = origin.handle

        def depose_mid_mint(request):
            resp = real_handle(request)
            region.journal.acquire_epoch()  # zombie: deposed mid-flight
            return resp

        origin.handle = depose_mid_mint
        with pytest.raises(ServiceUnavailable):
            worker.handle(HttpRequest("POST", "/tokens"))
        # the origin minted, but the zombie's token did not survive
        assert origin.minted == 1
        assert "jti-1" in origin.revoked
        assert region.compensated_mints == 1
        kinds = [e.kind for e in region.journal.load()[1]]
        assert kinds == ["region.mint.intent"]  # commit never landed

    def test_stale_or_down_region_fails_closed(self):
        clock, network, origin, rbus, region = _region_fixture()
        worker = region.pool.worker(region.pool.replicas()[0])
        for state in (STALE, DOWN):
            region.state = state
            with pytest.raises(ServiceUnavailable):
                worker.handle(HttpRequest("POST", "/introspect",
                                          body={"token": "tok-1"}))
        assert region.refusals == 2

    def test_introspection_ttl_is_clamped_to_staleness_bound(self):
        _, _, _, _, region = _region_fixture(staleness_bound=5.0,
                                             introspection_ttl=30.0)
        assert region.introspection_cache.ttl == 5.0
        _, _, _, _, tight = _region_fixture(staleness_bound=8.0,
                                            introspection_ttl=3.0)
        assert tight.introspection_cache.ttl == 3.0

    def test_introspection_caches_and_local_revocation_evicts(self):
        clock, network, origin, rbus, region = _region_fixture()
        worker = region.pool.worker(region.pool.replicas()[0])
        req = lambda: HttpRequest("POST", "/introspect",
                                  body={"token": "tok-1"})
        worker.handle(HttpRequest("POST", "/tokens"))
        assert worker.handle(req()).body["active"] is True
        assert worker.handle(req()).body["active"] is True
        assert region.introspection_cache.stats.hits == 1

        # in-region revocation: synchronous eviction, next read is fresh
        origin.revoke_jti("jti-1")
        rbus.publish("eu", "token.revoked", key="jti-1")
        assert worker.handle(req()).body["active"] is False

    def test_revocation_view_overrides_cached_allow(self):
        clock, network, origin, rbus, region = _region_fixture()
        worker = region.pool.worker(region.pool.replicas()[0])
        req = lambda: HttpRequest("POST", "/introspect",
                                  body={"token": "tok-1"})
        worker.handle(HttpRequest("POST", "/tokens"))
        assert worker.handle(req()).body["active"] is True
        # the region *hears* the revocation but the cache kept the entry
        # (e.g. it arrived while the entry key was a different token
        # string): the view's verdict wins over the cache
        region.revocations._revoked.add("jti-1")
        assert worker.handle(req()).body["active"] is False
        assert region.view_overrides == 1

    def test_replicated_revocation_arrives_after_delay(self):
        clock, network, origin, rbus, region = _region_fixture()
        rbus.publish("us", "token.revoked", key="jti-7")
        assert not region.revocations.is_revoked("jti-7")
        clock.advance(0.5)
        assert region.revocations.is_revoked("jti-7")
        assert region.revocations.heard == 1

    def test_view_resync_adopts_authoritative_set(self):
        clock, network, origin, rbus, region = _region_fixture()
        assert region.revocations.resync(["a", "b"]) == 2
        assert region.revocations.is_revoked("a")
        assert region.revocations.is_revoked("b")
        assert region.revocations.resyncs == 1


# ======================================================================
# GeoRouter
# ======================================================================
def _router_fixture(pins=None):
    clock = SimClock()
    network = Network(clock, audit=AuditLog("net"))
    origin = StubBroker("broker-origin", clock)
    network.attach(origin, OperatingDomain.FDS, Zone.ACCESS)
    wired = Wiring(clock)
    rbus = ReplicatedInvalidationBus(clock, ["eu", "us"],
                                     replication_delay=0.5,
                                     telemetry=wired.telemetry)
    store = DurabilityStore(clock, wired.telemetry)
    directory = RegionDirectory(clock, rbus, **wired)
    for name in ("eu", "us"):
        directory.add(Region(
            name, clock, network, OperatingDomain.FDS, Zone.ACCESS,
            origin, rbus, store.stream(f"region-{name}"), replicas=1,
            **wired,
        ))
    router = GeoRouter("broker", clock, directory, **wired)
    for source, region in (pins or {}).items():
        router.pin(source, region)
    network.attach(router, OperatingDomain.FDS, Zone.ACCESS, name="broker")
    return clock, network, directory, router


class TestGeoRouter:
    def test_pinned_caller_lands_in_its_region(self):
        clock, network, directory, router = _router_fixture(
            pins={"client": "us"})
        us = directory.region("us")
        resp = router.handle(HttpRequest("POST", "/tokens", source="client"))
        assert resp.ok
        assert us.minted == 1
        assert router.routed == 1 and router.reroutes == 0

    def test_unpinned_caller_hashes_to_a_stable_home(self):
        clock, network, directory, router = _router_fixture()
        first = router.home_region("some-laptop")
        assert all(router.home_region("some-laptop") == first
                   for _ in range(10))
        assert first in ("eu", "us")

    def test_reroute_on_region_loss_charges_latency_and_counts(self):
        clock, network, directory, router = _router_fixture(
            pins={"client": "eu"})
        directory.region_down("eu")
        t0 = clock.now()
        resp = router.handle(HttpRequest("POST", "/tokens", source="client"))
        assert resp.ok
        assert directory.region("us").minted == 1
        assert router.reroutes == 1
        assert clock.now() >= t0 + 0.06  # the detour cost simulated time

    def test_partition_blocks_cross_region_detour(self):
        # the home region is down AND the link to the survivor is cut:
        # the client's traffic cannot cross a partition
        clock, network, directory, router = _router_fixture(
            pins={"client": "eu"})
        directory.region_down("eu")
        directory.sever("eu", "us")
        with pytest.raises(ServiceUnavailable):
            router.handle(HttpRequest("POST", "/tokens", source="client"))
        assert router.exhausted == 1
        directory.heal("eu", "us")
        assert router.handle(
            HttpRequest("POST", "/tokens", source="client")).ok

    def test_stale_region_is_skipped(self):
        clock, network, directory, router = _router_fixture(
            pins={"client": "eu"})
        directory.region("eu").state = STALE
        resp = router.handle(HttpRequest("POST", "/tokens", source="client"))
        assert resp.ok
        assert directory.region("us").minted == 1

    def test_deadline_exceeded_is_never_rerouted(self):
        clock, network, directory, router = _router_fixture(
            pins={"client": "eu"})
        eu = directory.region("eu")
        worker = eu.pool.worker(eu.pool.replicas()[0])
        worker.handle = lambda req: (_ for _ in ()).throw(
            DeadlineExceeded("expired"))
        with pytest.raises(DeadlineExceeded):
            router.handle(HttpRequest("POST", "/tokens", source="client"))
        assert directory.region("us").minted == 0
        assert router.reroutes == 0


# ======================================================================
# RegionDirectory: lifecycle, heartbeats, the lag watchdog
# ======================================================================
class TestRegionDirectory:
    def _world(self, **cfg_kw):
        clock = SimClock()
        network = Network(clock, audit=AuditLog("net"))
        origin = StubBroker("broker-origin", clock)
        network.attach(origin, OperatingDomain.FDS, Zone.ACCESS)
        wired = Wiring(clock)
        rbus = ReplicatedInvalidationBus(clock, ["eu", "us"],
                                         replication_delay=0.5,
                                         telemetry=wired.telemetry)
        store = DurabilityStore(clock, wired.telemetry)
        directory = RegionDirectory(clock, rbus, **wired, **cfg_kw)
        for name in ("eu", "us"):
            directory.add(Region(
                name, clock, network, OperatingDomain.FDS, Zone.ACCESS,
                origin, rbus, store.stream(f"region-{name}"), replicas=1,
                staleness_bound=5.0, **wired,
            ))
        return clock, network, directory, rbus

    def test_region_down_fences_epoch_and_downs_endpoints(self):
        clock, network, directory, rbus = self._world()
        eu = directory.region("eu")
        old_epoch = eu.epoch
        directory.region_down("eu")
        assert eu.state == DOWN
        assert all(not ep.up for ep in eu.endpoints())
        # the dead generation can no longer journal an issuance
        with pytest.raises(EpochFenced):
            eu.journal.append("region.mint.intent", {}, epoch=old_epoch)

    def test_region_up_recovers_under_fresh_epoch_with_resync(self):
        revoked = {"jti-gone"}
        clock, network, directory, rbus = self._world(
            revoked_source=lambda: set(revoked))
        eu = directory.region("eu")
        directory.region_down("eu")
        deposed = eu.epoch
        directory.region_up("eu")
        assert eu.state == ACTIVE
        assert all(ep.up for ep in eu.endpoints())
        assert eu.epoch > deposed
        assert eu.revocations.is_revoked("jti-gone")  # resynced
        # the fresh epoch can write again
        eu.journal.append("region.mint.intent", {}, epoch=eu.epoch)

    def test_heartbeats_keep_lag_bounded_on_a_quiet_bus(self):
        clock, network, directory, rbus = self._world(
            heartbeat_interval=1.0, lag_check_interval=1.0)
        directory.start()
        clock.advance(10.0)
        measured = directory.check_lag()
        # steady state: newest heartbeat is replication_delay..+interval old
        assert all(lag <= 1.5 + 1e-9 for lag in measured.values())
        assert directory.lag_breaches == 0
        directory.stop()

    def test_partition_breaches_bound_and_fails_closed_then_recovers(self):
        clock, network, directory, rbus = self._world(
            heartbeat_interval=1.0, lag_check_interval=1.0)
        directory.start()
        clock.advance(2.0)
        directory.sever("eu", "us")
        clock.advance(7.0)  # > staleness_bound of 5s
        assert directory.region("eu").state == STALE
        assert directory.region("us").state == STALE
        assert directory.lag_breaches > 0
        directory.heal("eu", "us")
        clock.advance(3.0)  # heartbeats flow again; watchdog recovers both
        assert directory.region("eu").state == ACTIVE
        assert directory.region("us").state == ACTIVE
        directory.stop()

    def test_down_region_is_excluded_from_peer_lag(self):
        # the survivor must NOT fail closed because a dead peer is silent
        clock, network, directory, rbus = self._world(
            heartbeat_interval=1.0, lag_check_interval=1.0)
        directory.start()
        clock.advance(2.0)
        directory.region_down("eu")
        clock.advance(20.0)
        assert directory.region("us").state == ACTIVE
        directory.stop()

    def test_fault_injector_hooks_drive_lifecycle(self):
        clock, network, directory, rbus = self._world()
        from repro.resilience import FaultInjector
        import random as _random
        faults = FaultInjector(clock, _random.Random(1))
        directory.register_fault_hooks(faults)

        faults.region_down("eu", restore_after=5.0)
        assert directory.region("eu").state == DOWN
        clock.advance(5.0)
        assert directory.region("eu").state == ACTIVE

        faults.region_partition("eu", "us", duration=3.0)
        assert not rbus.linked("eu", "us")
        clock.advance(3.0)
        assert rbus.linked("eu", "us")


# ======================================================================
# full deployment: build_isambard(regions=...)
# ======================================================================
class TestMultiRegionDeployment:
    def test_topology(self):
        dri = build_isambard(seed=601, regions=True)
        assert dri.region_directory.names() == list(REGION_NAMES)
        assert dri.geo_router is dri.network.endpoint("broker").service
        assert dri.network.endpoint("broker-origin").service is dri.broker
        for name in ("eu", "us"):
            region = dri.region_directory.region(name)
            assert region.pool.size() == 2
            assert f"introspection-{name}" in dri.caches
            # TTL clamp: the load-bearing staleness guarantee
            assert region.introspection_cache.ttl <= STALENESS_BOUND

    def test_autoscale_is_refused_not_ignored(self):
        # each region sizes its own pool; nothing would run a per-region
        # autoscaler, so asking for one is a configuration error
        with pytest.raises(ConfigurationError, match="autoscale"):
            build_isambard(seed=601, regions=True,
                           scale=ScaleConfig(autoscale=True))

    def test_user_story_passes_under_regions(self):
        dri = build_isambard(seed=602, regions=True)
        s1 = dri.workflows.story1_pi_onboarding()
        assert s1.ok
        total_minted = sum(r.minted for r in dri.region_directory.regions())
        assert total_minted > 0
        assert dri.geo_router.routed > 0

    def test_revocation_is_synchronous_in_origin_region(self):
        dri = build_isambard(seed=603, regions=True)
        token, rec = dri.broker.tokens.mint("alice", "jupyter", "researcher",
                                            ttl=600)
        home = dri.region_directory.region(REGION_NAMES[0])
        req = HttpRequest("POST", "/introspect", body={"token": token},
                          source="client-eu")
        dri.geo_router.pin("client-eu", REGION_NAMES[0])
        assert dri.geo_router.handle(req).body["active"] is True
        dri.broker.tokens.revoke_jti(rec.jti)
        # same simulated instant, zero staleness in the revoking region
        assert dri.geo_router.handle(req).body["active"] is False

    def test_staleness_bound_holds_across_a_partition(self):
        dri = build_isambard(seed=604, regions=True)
        clock = dri.clock
        bound = STALENESS_BOUND
        token, rec = dri.broker.tokens.mint("alice", "jupyter", "researcher",
                                            ttl=600)
        dri.geo_router.pin("client-us", "us")
        req = lambda: HttpRequest("POST", "/introspect",
                                  body={"token": token}, source="client-us")
        assert dri.geo_router.handle(req()).body["active"] is True

        dri.faults.region_partition("eu", "us")
        t_revoked = clock.now()
        dri.broker.tokens.revoke_jti(rec.jti)  # publishes from home (eu)

        # inside the advertised window the stale serve is permitted...
        clock.advance(bound / 2)
        us = dri.region_directory.region("us")
        within = dri.geo_router.handle(req()).body
        assert not us.revocations.is_revoked(rec.jti)  # genuinely deaf

        # ...past the window it is impossible: the TTL clamp expired the
        # pre-revocation entry and the reload hits the origin's truth
        clock.advance(bound / 2 + 0.1)
        after = dri.geo_router.handle(req()).body
        assert after["active"] is False
        assert clock.now() - t_revoked > bound

    def test_heal_flushes_revocation_to_the_deaf_region(self):
        dri = build_isambard(seed=605, regions=True)
        token, rec = dri.broker.tokens.mint("alice", "jupyter", "researcher",
                                            ttl=600)
        dri.faults.region_partition("eu", "us")
        dri.broker.tokens.revoke_jti(rec.jti)
        # past the replication delay: the event parks at the severed link
        dri.clock.advance(1.0)
        us = dri.region_directory.region("us")
        assert not us.revocations.is_revoked(rec.jti)
        assert dri.region_bus.parked >= 1
        dri.region_directory.heal("eu", "us")
        assert us.revocations.is_revoked(rec.jti)

    def test_region_loss_reroutes_and_restores(self):
        dri = build_isambard(seed=606, regions=True)
        dri.geo_router.pin("client", "eu")
        req = lambda: HttpRequest("POST", "/introspect",
                                  body={"token": "x"}, source="client")
        dri.faults.region_down("eu", restore_after=10.0)
        assert dri.region_directory.region("eu").state == DOWN
        resp = dri.geo_router.handle(req())
        assert resp.ok and dri.geo_router.reroutes == 1
        dri.clock.advance(10.0)
        assert dri.region_directory.region("eu").state == ACTIVE
        assert dri.geo_router.handle(req()).ok

    def test_no_split_brain_issuance_after_region_bounce(self):
        dri = build_isambard(seed=607, regions=True)
        eu = dri.region_directory.region("eu")
        worker = eu.pool.worker(eu.pool.replicas()[0])
        zombie_epoch = eu.epoch

        dri.region_directory.region_down("eu")
        dri.region_directory.region_up("eu")
        assert eu.epoch > zombie_epoch

        # a zombie worker that never heard about the bounce: state says
        # serving, but its generation's epoch is fenced at the journal
        with pytest.raises(EpochFenced):
            eu.journal.append("region.mint.intent", {}, epoch=zombie_epoch)
        # the live generation mints fine through the public endpoint
        resp = dri.geo_router.handle(
            HttpRequest("POST", "/introspect", body={"token": "x"},
                        source="anyone"))
        assert resp.ok

        # journal diff: every committed mint is unique across regions
        jtis = []
        for name in ("eu", "us"):
            journal = dri.durability.stream(f"region-{name}")
            jtis += [e.data["jti"] for e in journal.load()[1]
                     if e.kind == "region.mint"]
        assert len(jtis) == len(set(jtis))

    def test_lag_rule_alerts_and_staleness_rule_tolerates_in_window(self):
        from repro.siem import CacheStalenessRule, RegionLagRule

        dri = build_isambard(seed=608, regions=True)
        clock = dri.clock
        staleness = [r for r in dri.soc.rules
                     if isinstance(r, CacheStalenessRule)]
        assert staleness and all(
            r.tolerance == STALENESS_BOUND for r in staleness)
        assert any(isinstance(r, RegionLagRule) for r in dri.soc.rules)

        token, rec = dri.broker.tokens.mint("alice", "jupyter", "researcher",
                                            ttl=600)
        dri.geo_router.pin("client-us", "us")
        req = lambda: HttpRequest("POST", "/introspect",
                                  body={"token": token}, source="client-us")
        dri.geo_router.handle(req())          # warm the us cache
        dri.faults.region_partition("eu", "us")
        dri.broker.tokens.revoke_jti(rec.jti)
        clock.advance(1.0)
        dri.geo_router.handle(req())          # stale serve inside the window
        clock.advance(STALENESS_BOUND + 2.0)  # watchdog breaches
        for fw in dri.forwarders:
            fw.flush()
        rules_fired = {a.rule for a in dri.soc.alerts}
        assert "region-lag" in rules_fired
        assert "cache-staleness" not in rules_fired  # tolerated, not alerted
        assert sum(r.tolerated for r in staleness) >= 1

    def test_failover_composes_with_regions(self):
        dri = build_isambard(seed=609, regions=True, failover=True)
        old_broker = dri.broker
        dri.crash("broker")
        dri.clock.advance(dri.failover.budget + 0.5)
        assert dri.failover.pairs["broker-origin"].promoted
        assert dri.broker is not old_broker
        # every region worker re-pointed at the promoted state backend
        for region in dri.region_directory.regions():
            assert region.pool.origin is dri.broker
            for replica in region.pool.replicas():
                assert region.pool.worker(replica).origin is dri.broker

    def test_region_tagged_audit_records(self):
        dri = build_isambard(seed=610, regions=True)
        dri.geo_router.pin("client-us", "us")
        dri.geo_router.handle(
            HttpRequest("POST", "/introspect", body={"token": "x"},
                        source="client-us"))
        tagged = [e for e in dri.logs["fds"].query()
                  if e.action == "region.introspect"]
        assert tagged and all(e.attrs.get("region") == "us" for e in tagged)

    def test_determinism_same_seed_same_world(self):
        def fingerprint():
            dri = build_isambard(seed=611, regions=True)
            dri.geo_router.pin("c", "us")
            dri.workflows.story1_pi_onboarding()
            dri.faults.region_partition("eu", "us", duration=4.0)
            dri.clock.advance(6.0)
            dri.region_directory.check_lag()
            return (
                dri.clock.now(),
                dri.region_bus.replicated, dri.region_bus.parked,
                dri.region_bus.flushed,
                tuple(r.minted for r in dri.region_directory.regions()),
                tuple(r.state for r in dri.region_directory.regions()),
                dri.geo_router.routed, dri.geo_router.reroutes,
                len(list(dri.logs["fds"].query())),
            )

        assert fingerprint() == fingerprint()
