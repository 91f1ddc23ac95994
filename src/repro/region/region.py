"""One deployment region: replica pool, balancer, caches, journal, epoch.

A :class:`Region` bundles what one geographic site runs in an
active-active broker deployment:

* a :class:`~repro.scale.ReplicaPool` of :class:`RegionWorker` fronts
  behind the region's own :class:`~repro.scale.LoadBalancer` (public
  endpoint ``broker-<region>``);
* the region's local invalidation bus (one shard of the
  :class:`~repro.region.bus.ReplicatedInvalidationBus`), an
  introspection-verdict :class:`~repro.scale.TtlCache` bound to it, and
  a :class:`RegionRevocationView` accumulating every revocation the
  region has heard;
* a :class:`~repro.resilience.durability.ServiceJournal` whose fencing
  epoch arbitrates which region generation may issue tokens.

**The staleness contract.**  The region's cache TTL is clamped to the
advertised ``staleness_bound``: a cached ALLOW was necessarily loaded
*before* the revocation (the authoritative origin refuses afterwards),
so even a fully partitioned region stops serving it within
``revoked_at + bound`` — TTL expiry enforces the bound mechanically,
bus replication merely tightens it to ``replication_delay`` in the
common case.  Lag-triggered fail-closed (see
:class:`~repro.region.directory.RegionDirectory`) is defence in depth
on top, not the load-bearing guarantee.

**Mint fencing.**  Issuance follows an intent/commit protocol against
the region journal: a worker appends ``region.mint.intent`` under its
region's epoch *before* dispatching to the origin and ``region.mint``
with the jti after.  A deposed region (its journal epoch was
re-acquired by :meth:`RegionDirectory.region_down` or a promotion)
fails the intent append and issues nothing; a region deposed *mid-mint*
fails the commit append and compensates by revoking the just-minted
token — so the journals of two region generations can never both claim
the same jti, and a zombie's tokens never survive (the split-brain
oracle of ABL10 diffs exactly this).
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from ..audit import Outcome
from ..errors import EpochFenced, ServiceUnavailable
from ..net.http import HttpRequest, HttpResponse, Service
from ..resilience.durability import ServiceJournal
from ..scale.balancer import LoadBalancer, ReplicaPool, ReplicaWorker
from ..scale.cache import TtlCache

__all__ = ["Region", "RegionWorker", "RegionRevocationView",
           "ACTIVE", "STALE", "DOWN"]

# region serving states
ACTIVE = "active"   # serving, lag within the advertised bound
STALE = "stale"     # fail-closed: alive but refusing (lag breached bound)
DOWN = "down"       # dead: endpoints down, journal epoch fenced


class RegionRevocationView:
    """Every revocation this region has *heard* (bus + resyncs).

    The view is the region's belief, not the truth — under a partition
    it lags the origin by up to the staleness bound.  A region rejoining
    after downtime missed the bus traffic entirely, so recovery resyncs
    the full set from the authoritative token store.
    """

    def __init__(self, region_name: str, bus) -> None:
        self.region_name = region_name
        self._revoked: set = set()
        self.heard = 0
        self.resyncs = 0
        bus.subscribe("token.revoked", self._on_revoked,
                      owner=f"region-view:{region_name}")

    def _on_revoked(self, key: Optional[str], **_attrs: object) -> None:
        if key:
            self._revoked.add(str(key))
            self.heard += 1

    def is_revoked(self, jti: str) -> bool:
        return jti in self._revoked

    def resync(self, jtis: Iterable[str]) -> int:
        """Adopt the authoritative revocation set; returns its new size."""
        self._revoked |= {str(j) for j in jtis}
        self.resyncs += 1
        return len(self._revoked)


class RegionWorker(ReplicaWorker):
    """A replica worker that enforces its region's serving contract.

    On top of the plain re-dispatch to the shared origin it adds:

    * **fail-closed**: a region that is stale or down refuses with
      :class:`ServiceUnavailable` (the geo-router moves the caller on);
    * **origin context**: the serving region is pushed onto the
      replicated bus's origin stack, so revocations triggered while
      handling this request publish from *this* region;
    * **mint fencing** on ``POST /tokens`` and **bounded-staleness
      introspection caching** on ``POST /introspect`` (see module doc).
    """

    def __init__(self, name: str, origin: Service) -> None:
        super().__init__(name, origin)
        self.region: Optional["Region"] = None  # wired by Region

    def handle(self, request: HttpRequest) -> HttpResponse:
        region = self.region
        if region is not None and not region.serving:
            region.refusals += 1
            raise ServiceUnavailable(
                f"region {region.name} is {region.state}: failing closed")
        return self._serve(request, self._dispatch)

    def _dispatch(self, request: HttpRequest) -> HttpResponse:
        region = self.region
        if region is None:  # not yet wired: behave like a plain worker
            return super()._dispatch(request)
        region.rbus.origin_stack.append(region.name)
        try:
            self.served += 1
            method, path = request.method.upper(), request.path
            if method == "POST" and path == "/tokens":
                return self._mint_fenced(request)
            if method == "POST" and path == "/introspect":
                return self._introspect_cached(request)
            return self.origin.handle(request)
        finally:
            region.rbus.origin_stack.pop()

    # ------------------------------------------------------------------
    def _mint_fenced(self, request: HttpRequest) -> HttpResponse:
        region = self.region
        epoch = region.epoch
        try:
            region.journal.append(
                "region.mint.intent", {"region": region.name}, epoch=epoch)
        except EpochFenced as exc:
            raise ServiceUnavailable(
                f"region {region.name}: issuance fenced "
                f"(deposed epoch {epoch})") from exc
        response = self.origin.handle(request)
        if not response.ok:
            return response
        jti = str(response.body.get("jti", ""))
        try:
            region.journal.append(
                "region.mint", {"jti": jti, "region": region.name},
                epoch=epoch)
        except EpochFenced as exc:
            # deposed between intent and commit: the origin already
            # minted, so compensate — the zombie's token must not live
            tokens = getattr(self.origin, "tokens", None)
            if tokens is not None and jti:
                tokens.revoke_jti(jti)
            region.compensated_mints += 1
            raise ServiceUnavailable(
                f"region {region.name}: fenced mid-mint, "
                f"token {jti} compensated") from exc
        region.minted += 1
        return response

    def _introspect_cached(self, request: HttpRequest) -> HttpResponse:
        region = self.region
        token = str(request.body.get("token", ""))
        if not token:
            return self.origin.handle(request)

        def load() -> dict:
            return dict(self.origin.handle(request).body)

        body = region.introspection_cache.get_or_load(
            token, load,
            tags_of=lambda b: ((str(b.get("jti")),)
                               if b.get("active") and b.get("jti") else ()),
        )
        cached = region.introspection_cache.last_hit
        body = dict(body)
        jti = str(body.get("jti", "") or "")
        if body.get("active") and jti and region.revocations.is_revoked(jti):
            # the region has heard this revocation; its verdict wins
            # over whatever the cache still holds
            body = {"active": False}
            region.view_overrides += 1
            cached = False
        self.log_event(
            str(body.get("sub", "") or "system"), "region.introspect",
            jti or "-", Outcome.CACHED if cached else Outcome.SUCCESS,
            jti=jti, active=bool(body.get("active")),
        )
        return HttpResponse.json(body)


class Region:
    """Everything one region runs; built by ``build_isambard(regions=…)``."""

    def __init__(
        self,
        name: str,
        clock,
        network,
        domain,
        zone,
        origin: Service,
        rbus,
        journal: ServiceJournal,
        *,
        audit,
        telemetry,
        replicas: int = 2,
        min_replicas: int = 1,
        introspection_ttl: float = 30.0,
        staleness_bound: float = 5.0,
        admission_factory: Optional[Callable[[str], object]] = None,
        tail=None,
    ) -> None:
        self.name = name
        self.clock = clock
        self.network = network
        self.rbus = rbus
        self.journal = journal
        self.telemetry = telemetry
        self.audit = audit
        self.staleness_bound = float(staleness_bound)
        self.state = ACTIVE
        # the region generation's fencing epoch; region_down re-acquires
        # the journal epoch, deposing every worker still holding this one
        self.epoch = journal.acquire_epoch()
        self.minted = 0
        self.compensated_mints = 0
        self.refusals = 0
        self.view_overrides = 0

        self.bus = rbus.local[name]
        self.revocations = RegionRevocationView(name, self.bus)
        # TTL clamped to the advertised bound: expiry mechanically caps
        # how long a pre-revocation verdict can outlive the revocation
        self.introspection_cache = TtlCache(
            f"introspection-{name}", clock,
            ttl=min(float(introspection_ttl), self.staleness_bound),
            telemetry=telemetry,
        )
        self.introspection_cache.bind(self.bus, "token.revoked", by_tag=True)

        def _factory(worker_name: str, origin_svc: Service) -> RegionWorker:
            worker = RegionWorker(worker_name, origin_svc)
            worker.region = self
            worker.audit = audit
            worker.clock = clock
            worker.region_name = name
            return worker

        self.pool = ReplicaPool(
            f"broker-{name}", network, domain, zone, origin,
            min_replicas=min_replicas,
            admission_factory=admission_factory, worker_factory=_factory,
        )
        self.pool.scale_to(replicas)
        self.lb = LoadBalancer(
            f"broker-{name}", clock, self.pool, audit=audit,
            telemetry=telemetry, tail=tail,
        )
        self.lb.region_name = name
        network.attach(self.lb, domain, zone, name=f"broker-{name}")

    # ------------------------------------------------------------------
    @property
    def serving(self) -> bool:
        return self.state == ACTIVE

    @property
    def endpoint_name(self) -> str:
        return f"broker-{self.name}"

    def endpoints(self):
        """Every network endpoint this region owns (replicas + LB)."""
        for replica in self.pool.replicas():
            yield self.network.endpoint(replica)
        yield self.network.endpoint(self.endpoint_name)
