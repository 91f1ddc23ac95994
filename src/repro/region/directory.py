"""Region membership, health, heartbeats and the lag watchdog.

The :class:`RegionDirectory` is the multi-region control loop — the
piece a production deployment would run as a tiny strongly-consistent
membership service (etcd, a cloud control plane).  It owns:

* **lifecycle** — :meth:`region_down` kills a whole region (every
  replica endpoint + the balancer down, journal epoch re-acquired so
  the dead generation is fenced, bus epoch bumped so its in-flight
  heartbeats are dropped); :meth:`region_up` recovers it under a fresh
  epoch with caches flushed and the revocation view resynced from the
  authoritative token store — a region that was deaf while down must
  not resume serving on its stale beliefs;
* **partitions** — :meth:`sever`/:meth:`heal` cut and restore one
  inter-region link (bus replication and geo-routing together, both
  directions); heal flushes the parked replication backlog in publish
  order;
* **heartbeats** — every ``heartbeat_interval`` each live region
  publishes a ``region.heartbeat`` carrying its bus epoch, so
  replication lag is measurable even on a quiet bus and a dead
  generation's heartbeats are fenced on delivery;
* **the lag watchdog** — every ``lag_check_interval`` each region's
  measured replication lag is gauged into telemetry and checked
  against the advertised staleness bound.  A breach is audited as a
  ``region.lag`` record (the SOC's
  :class:`~repro.siem.RegionLagRule` alerts on it) and the region
  **fails closed**: caches flushed, workers refuse, the router skips
  it.  When lag drops back under the bound the region resyncs and
  resumes.

Steady-state lag observed by the watchdog is about
``replication_delay + heartbeat_interval`` (the age of the newest
applied heartbeat just before the next one lands), which is why
``repro.region.STALENESS_BOUND`` sits comfortably above it — detection
must fire on partitions, not on the bus working as designed.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from ..audit import Outcome
from ..errors import ConfigurationError
from .region import ACTIVE, DOWN, STALE, Region

__all__ = ["RegionDirectory", "LAG_CHECK_INTERVAL"]

# simulated seconds between lag-watchdog sweeps
LAG_CHECK_INTERVAL = 1.0


class RegionDirectory:
    """Membership + health for every :class:`~repro.region.Region`."""

    def __init__(
        self,
        clock,
        rbus,
        *,
        audit,
        telemetry,
        heartbeat_interval: float = 1.0,
        lag_check_interval: float = LAG_CHECK_INTERVAL,
        audit_source: str = "region-directory",
        revoked_source: Optional[Callable[[], Iterable[str]]] = None,
    ) -> None:
        self.clock = clock
        self.rbus = rbus
        self.heartbeat_interval = float(heartbeat_interval)
        self.lag_check_interval = float(lag_check_interval)
        self.audit = audit
        self.audit_source = audit_source
        self.telemetry = telemetry
        # authoritative revocation set, consulted on region recovery
        self.revoked_source = revoked_source
        self._regions: Dict[str, Region] = {}
        self._hb_ticker = None
        self._lag_ticker = None
        self.lag_breaches = 0
        self.heartbeats = 0

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def add(self, region: Region) -> None:
        if region.name in self._regions:
            raise ConfigurationError(f"region {region.name!r} already registered")
        self._regions[region.name] = region
        self._gauge_state(region)

    def names(self) -> List[str]:
        return list(self._regions)

    def region(self, name: str) -> Region:
        if name not in self._regions:
            raise ConfigurationError(f"unknown region {name!r}")
        return self._regions[name]

    def regions(self) -> List[Region]:
        return list(self._regions.values())

    def linked(self, a: str, b: str) -> bool:
        return self.rbus.linked(a, b)

    # ------------------------------------------------------------------
    # periodic ticks
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._hb_ticker is None:
            self._hb_ticker = self.clock.call_later(
                self.heartbeat_interval, self._heartbeat_tick)
        if self._lag_ticker is None:
            self._lag_ticker = self.clock.call_later(
                self.lag_check_interval, self._lag_tick)

    def stop(self) -> None:
        for ticker in (self._hb_ticker, self._lag_ticker):
            if ticker is not None:
                ticker.cancel()
        self._hb_ticker = self._lag_ticker = None

    def _heartbeat_tick(self) -> None:
        self.heartbeat()
        self._hb_ticker = self.clock.call_later(
            self.heartbeat_interval, self._heartbeat_tick)

    def _lag_tick(self) -> None:
        self.check_lag()
        self._lag_ticker = self.clock.call_later(
            self.lag_check_interval, self._lag_tick)

    def heartbeat(self) -> None:
        """One heartbeat round: every live region announces itself."""
        for region in self._regions.values():
            if region.state == DOWN:
                continue
            self.heartbeats += 1
            self.rbus.publish(
                region.name, "region.heartbeat", key=region.name,
                epoch=self.rbus.epochs[region.name])

    def check_lag(self) -> Dict[str, float]:
        """One watchdog round; returns the lag measured per live region."""
        alive = [r.name for r in self._regions.values() if r.state != DOWN]
        measured: Dict[str, float] = {}
        for region in self._regions.values():
            if region.state == DOWN:
                continue
            origins = [n for n in alive if n != region.name]
            lag = self.rbus.lag(region.name, origins=origins)
            measured[region.name] = lag
            self.telemetry.region_lag.set(lag, region=region.name)
            if lag > region.staleness_bound:
                self.lag_breaches += 1
                self._record("region.lag", region.name, Outcome.ERROR,
                             region=region.name, lag=round(lag, 6),
                             bound=region.staleness_bound)
                if region.state == ACTIVE:
                    self._fail_closed(region, lag)
            elif region.state == STALE:
                self._recover_stale(region, lag)
        return measured

    # ------------------------------------------------------------------
    # state transitions
    # ------------------------------------------------------------------
    def _fail_closed(self, region: Region, lag: float) -> None:
        region.state = STALE
        flushed = region.introspection_cache.clear()
        self._gauge_state(region)
        self._record("region.stale", region.name, Outcome.INFO,
                     region=region.name, lag=round(lag, 6), flushed=flushed)

    def _recover_stale(self, region: Region, lag: float) -> None:
        region.introspection_cache.clear()
        if self.revoked_source is not None:
            region.revocations.resync(self.revoked_source())
        region.state = ACTIVE
        self._gauge_state(region)
        self._record("region.fresh", region.name, Outcome.INFO,
                     region=region.name, lag=round(lag, 6))

    def region_down(self, name: str) -> None:
        """Kill a region: endpoints down, generation fenced."""
        region = self.region(name)
        if region.state == DOWN:
            return
        for endpoint in region.endpoints():
            endpoint.up = False
        # depose the generation: workers still holding region.epoch can
        # no longer journal an issuance, and in-flight heartbeats from
        # this generation are dropped on delivery
        region.journal.acquire_epoch()
        self.rbus.bump_epoch(name)
        region.state = DOWN
        self._gauge_state(region)
        self._record("region.down", name, Outcome.ERROR, region=name)

    def region_up(self, name: str) -> None:
        """Recover a dead region under a fresh fencing epoch."""
        region = self.region(name)
        if region.state != DOWN:
            return
        for endpoint in region.endpoints():
            endpoint.up = True
        region.epoch = region.journal.acquire_epoch()
        region.introspection_cache.clear()
        if self.revoked_source is not None:
            region.revocations.resync(self.revoked_source())
        region.state = ACTIVE
        self._gauge_state(region)
        self._record("region.up", name, Outcome.SUCCESS,
                     region=name, epoch=region.epoch)

    def sever(self, a: str, b: str) -> None:
        """Partition two regions: replication parked, routing severed."""
        self.region(a)
        self.region(b)
        self.rbus.sever(a, b)
        self._record("region.sever", f"{a}<->{b}", Outcome.ERROR,
                     region_a=a, region_b=b)

    def heal(self, a: str, b: str) -> int:
        """Heal a partition; the parked backlog flushes deterministically."""
        self.region(a)
        self.region(b)
        flushed = self.rbus.heal(a, b)
        self._record("region.heal", f"{a}<->{b}", Outcome.SUCCESS,
                     region_a=a, region_b=b, flushed=flushed)
        return flushed

    # ------------------------------------------------------------------
    # the regions as one fleet (what a crash or a failover of the shared
    # state backend does to them)
    # ------------------------------------------------------------------
    def repoint(self, origin) -> None:
        """Every region's workers serve from ``origin`` (the promoted
        state backend) from now on."""
        for region in self._regions.values():
            region.pool.repoint(origin)

    def set_serving(self, up: bool) -> None:
        """Total outage and recovery: every region down, or every dead
        region back under a fresh epoch."""
        for name in self.names():
            (self.region_up if up else self.region_down)(name)

    # ------------------------------------------------------------------
    # chaos wiring
    # ------------------------------------------------------------------
    def register_fault_hooks(self, faults) -> None:
        """Teach the chaos harness the region-scale fault kinds."""
        for name in self.names():
            faults.register_region_hooks(
                name,
                lambda n=name: self.region_down(n),
                lambda n=name: self.region_up(n),
            )
            # gray-region support: gray_region() fans a slow_replica
            # fault over whatever the region's fleet is at that moment
            faults.register_region_endpoints(
                name,
                lambda n=name: list(self.region(n).pool.replicas()),
            )
        faults.register_region_link_hooks(self.sever, self.heal)

    # ------------------------------------------------------------------
    def _gauge_state(self, region: Region) -> None:
        value = {ACTIVE: 1.0, STALE: 0.5, DOWN: 0.0}[region.state]
        self.telemetry.region_state.set(value, region=region.name)

    def _record(self, action: str, resource: str, outcome: str,
                **attrs: object) -> None:
        self.audit.record(
            self.clock.now(), self.audit_source, "", action, resource,
            outcome, **attrs)
