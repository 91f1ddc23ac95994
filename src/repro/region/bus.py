"""Cross-region invalidation: async replication with bounded staleness.

A single-region deployment gets its zero-trust cache guarantee from the
synchronous :class:`~repro.scale.cache.InvalidationBus` — a revocation
evicts every subscribed cache *inside* the revoking call.  Geography
breaks that: a revocation published in one region cannot synchronously
reach another region's caches, only replicate with delay (and fail to
replicate under a partition).  :class:`ReplicatedInvalidationBus` models
exactly that contract:

* each region keeps its own local :class:`InvalidationBus`, and a
  publish from a region delivers to that region's subscribers
  synchronously — the in-region guarantee of PR 5 is preserved;
* the same event is scheduled onto every peer region's bus after
  ``replication_delay`` simulated seconds (one scheduled callback per
  peer, fired in deterministic clock order);
* a severed link parks in-flight and future events; healing the link
  flushes the parked backlog in original publish order, so recovery is
  deterministic and loses nothing — revocations are monotone facts and
  must *never* be dropped, only delayed;
* per-origin **bus epochs** fence stale control events (heartbeats)
  from a deposed region generation.  Revocations deliberately carry no
  epoch: a duplicate revocation is idempotent, a lost one is a security
  hole, so fencing applies only to events that would otherwise make a
  dead region look alive.

``lag(dest)`` is the measured replication staleness into a region: the
age of the newest event applied from each active peer.  The directory
publishes periodic heartbeats precisely so this measurement exists even
on a quiet bus, and alarms when it exceeds the advertised bound.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..clock import SimClock
from ..errors import ConfigurationError
from ..scale.cache import InvalidationBus

__all__ = ["ReplicatedInvalidationBus", "RegionBusAdapter"]


class ReplicatedInvalidationBus:
    """Per-region local buses glued by delayed, partition-aware replication."""

    def __init__(
        self,
        clock: SimClock,
        regions: Sequence[str],
        *,
        telemetry,
        replication_delay: float = 0.5,
        local_buses: Optional[Dict[str, InvalidationBus]] = None,
    ) -> None:
        if len(regions) < 2:
            raise ConfigurationError("a replicated bus needs >= 2 regions")
        if len(set(regions)) != len(regions):
            raise ConfigurationError(f"duplicate region names in {regions!r}")
        self.clock = clock
        self.regions: List[str] = list(regions)
        self.replication_delay = float(replication_delay)
        self.telemetry = telemetry
        self.local: Dict[str, InvalidationBus] = {}
        for region in self.regions:
            pre = (local_buses or {}).get(region)
            self.local[region] = pre if pre is not None else InvalidationBus()
        self._severed: set = set()  # frozenset({a, b}) per cut link
        self._pending: Dict[FrozenSet[str], List[tuple]] = {}
        self._seq = 0
        # (origin, dest) -> publish time of the newest event applied
        # there.  Seeded with the construction instant: regions boot in
        # sync (identical empty revocation sets), so lag grows from boot
        # and a link partitioned before the first heartbeat still reads
        # as stale — "never heard from" must not look like "fresh".
        now = clock.now()
        self.last_applied: Dict[Tuple[str, str], float] = {
            (a, b): now for a in self.regions for b in self.regions}
        # per-origin generation counter; delivery drops epoch-carrying
        # events from a fenced generation (heartbeats of a dead region)
        self.epochs: Dict[str, int] = {r: 0 for r in self.regions}
        # the serving-region context: region workers push their region
        # name while dispatching, so a revocation triggered mid-request
        # publishes from the region that actually served it
        self.origin_stack: List[str] = []
        self.replicated = 0
        self.parked = 0
        self.flushed = 0
        self.fenced = 0

    # ------------------------------------------------------------------
    def current_origin(self, default: str) -> str:
        return self.origin_stack[-1] if self.origin_stack else default

    def _check_region(self, region: str) -> None:
        if region not in self.local:
            raise ConfigurationError(f"unknown region {region!r}")

    # ------------------------------------------------------------------
    # publish + replication
    # ------------------------------------------------------------------
    def publish(self, origin: str, topic: str, key: Optional[str] = None,
                *, epoch: Optional[int] = None, **attrs: object) -> int:
        """Publish from ``origin``: synchronous local delivery, then one
        delayed replication per peer.  Returns the local delivery count
        (the number the synchronous in-region contract is about)."""
        self._check_region(origin)
        delivered = self.local[origin].publish(topic, key, **attrs)
        published_at = self.clock.now()
        self.last_applied[(origin, origin)] = published_at
        for dest in self.regions:
            if dest == origin:
                continue
            self._seq += 1
            event = (published_at, self._seq, origin, dest, topic, key,
                     epoch, dict(attrs))
            self.clock.call_later(
                self.replication_delay, lambda ev=event: self._arrive(ev))
        return delivered

    def _arrive(self, event: tuple) -> None:
        origin, dest = event[2], event[3]
        link = frozenset((origin, dest))
        if link in self._severed:
            self._pending.setdefault(link, []).append(event)
            self.parked += 1
            self._observe(origin, dest, "parked")
            return
        self._deliver(event)

    def _deliver(self, event: tuple) -> None:
        published_at, _seq, origin, dest, topic, key, epoch, attrs = event
        if epoch is not None and epoch < self.epochs[origin]:
            # a fenced generation's control event; the region it vouches
            # for is deposed, so applying it would fake liveness
            self.fenced += 1
            self._observe(origin, dest, "fenced")
            return
        self.local[dest].publish(topic, key, **attrs)
        prev = self.last_applied.get((origin, dest))
        if prev is None or published_at > prev:
            self.last_applied[(origin, dest)] = published_at
        self.replicated += 1
        self._observe(origin, dest, "replicated")

    def _observe(self, origin: str, dest: str, event: str) -> None:
        self.telemetry.region_bus_events.inc(
            origin=origin, dest=dest, event=event)

    # ------------------------------------------------------------------
    # partitions
    # ------------------------------------------------------------------
    def sever(self, a: str, b: str) -> None:
        """Cut replication between two regions, both directions."""
        self._check_region(a)
        self._check_region(b)
        self._severed.add(frozenset((a, b)))

    def heal(self, a: str, b: str) -> int:
        """Restore the link and flush the parked backlog in original
        publish order; returns how many events were flushed."""
        self._check_region(a)
        self._check_region(b)
        link = frozenset((a, b))
        self._severed.discard(link)
        backlog = sorted(self._pending.pop(link, []),
                         key=lambda ev: (ev[0], ev[1]))
        for event in backlog:
            self._deliver(event)
        self.flushed += len(backlog)
        for origin, dest in ((a, b), (b, a)):
            if backlog:
                self._observe(origin, dest, "flushed")
        return len(backlog)

    def linked(self, a: str, b: str) -> bool:
        return frozenset((a, b)) not in self._severed

    # ------------------------------------------------------------------
    # epochs + lag
    # ------------------------------------------------------------------
    def bump_epoch(self, origin: str) -> int:
        """Fence ``origin``'s current generation (the region died or was
        deposed); its in-flight epoch-carrying events will be dropped."""
        self._check_region(origin)
        self.epochs[origin] += 1
        return self.epochs[origin]

    def lag(self, dest: str, *, origins: Optional[Sequence[str]] = None) -> float:
        """Worst replication staleness into ``dest`` across ``origins``
        (default: every other region): the age of the newest applied
        event per origin, counting boot as the first sync point."""
        self._check_region(dest)
        now = self.clock.now()
        worst = 0.0
        for origin in (origins if origins is not None else self.regions):
            if origin == dest:
                continue
            applied = self.last_applied.get((origin, dest))
            if applied is None:
                continue
            worst = max(worst, now - applied)
        return worst


class RegionBusAdapter:
    """Duck-types a local bus ``publish`` for region-unaware publishers.

    :class:`~repro.broker.tokens.TokenService` and the OIDC providers
    publish invalidations with ``bus.publish(topic, key=..., **attrs)``
    and neither know nor care about geography.  This adapter routes that
    publish to the *serving* region (the region whose worker is on the
    dispatch stack, falling back to the deployment's home region), so
    the local synchronous guarantee lands where the revocation actually
    happened and every other region gets the replicated copy.
    """

    def __init__(self, rbus: ReplicatedInvalidationBus, default_origin: str) -> None:
        self.rbus = rbus
        self.default_origin = default_origin

    def publish(self, topic: str, key: Optional[str] = None,
                **attrs: object) -> int:
        origin = self.rbus.current_origin(self.default_origin)
        return self.rbus.publish(origin, topic, key=key, **attrs)
