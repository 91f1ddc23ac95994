"""Latency-aware geo-routing onto the nearest healthy region.

The :class:`GeoRouter` owns the public ``broker`` endpoint name in a
multi-region deployment: every URL-based caller (the edge, Jupyter's
introspection, the portal's authz queries) lands here untouched, is
assigned a **home region** (an explicit :meth:`~GeoRouter.pin`, else a
stable hash of the calling endpoint) and
is forwarded to that region's balancer.  When the home region is down,
fail-closed, or unreachable across a partition, the router *re-routes*
to the next serving region — charging the cross-region latency so the
re-routed p99 is honest — and audits the detour.

Partition semantics mirror the replication bus: a severed link between
the client's home region and a peer severs routing too (the client's
traffic cannot magically cross a partition the revocations cannot), so
a partitioned minority keeps serving its own clients within the
staleness bound and fails closed past it, rather than silently serving
them from the other side.

Failover rules match the :class:`~repro.scale.LoadBalancer`: move on
``ServiceUnavailable`` (region refusals, dead replicas, injected
faults) and ``RateLimited`` (a shedding region spreads its surge), but
never on ``DeadlineExceeded`` — expired work is expired in every
region.

With a :class:`~repro.resilience.tail.TailConfig` the router also
defends against *gray regions*: per-region latency/error EWMAs feed an
:class:`~repro.resilience.tail.OutlierEjector` keyed by region name,
and a home region that has gone slow-but-alive is **detoured** (moved
to the back of the candidate order, cross-region latency charged
honestly) before the replication-lag watchdog would ever fail it closed
— a browning-out region keeps replicating on time, so the watchdog is
structurally blind to it.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional

from ..audit import Outcome
from ..errors import DeadlineExceeded, RateLimited, ServiceUnavailable
from ..net.http import HttpRequest, HttpResponse, Service
from ..resilience.tail import OutlierEjector, TailConfig

__all__ = ["GeoRouter", "INTER_REGION_LATENCY"]

# extra simulated seconds the geo-router charges a cross-region detour
INTER_REGION_LATENCY = 0.06


class GeoRouter(Service):
    """The multi-region front door (public endpoint name ``broker``)."""

    def __init__(
        self,
        name: str,
        clock,
        directory,
        *,
        audit,
        telemetry,
        tail: Optional[TailConfig] = None,
    ) -> None:
        super().__init__(name)
        self.clock = clock
        self.directory = directory
        # endpoint name -> region pin; unpinned callers hash
        self.pins: Dict[str, str] = {}
        self.audit = audit
        self.telemetry = telemetry
        self.routed = 0
        self.reroutes = 0
        self.exhausted = 0
        # gray-region scoring: same ejector as the balancer's, keyed by
        # region name.  "Ejected" here means *detoured*, not skipped —
        # a gray region still serves as the candidate of last resort
        self.ejector = (OutlierEjector(clock)
                        if tail is not None and tail.ejection else None)
        if self.ejector is not None:
            self.ejector.on_reinstate = self._on_reinstate
        self.gray_detours = 0

    def _on_reinstate(self, region: str) -> None:
        self.telemetry.tail_reinstatements.inc(pool="regions")
        self.telemetry.tail_ejected.set(0.0, member=region)
        self.log_event("system", "region.ungray", region, Outcome.INFO)

    # ------------------------------------------------------------------
    def home_region(self, source: str) -> str:
        """The caller's nearest region: explicit pin, else stable hash."""
        pinned = self.pins.get(source)
        if pinned is not None:
            return pinned
        names = self.directory.names()
        digest = hashlib.sha256(source.encode("utf-8")).digest()
        return names[digest[0] % len(names)]

    def pin(self, source: str, region: str) -> None:
        self.pins[source] = region

    # ------------------------------------------------------------------
    def handle(self, request: HttpRequest) -> HttpResponse:
        return self._serve(request, self._route)

    def _order(self, home: str, request: HttpRequest) -> List[str]:
        """Candidate regions, home first — unless the home region is
        currently scored gray, in which case it drops to the *back* of
        the order (detoured, never excluded: if every peer is down or
        unreachable, a slow answer still beats no answer)."""
        order = [home] + sorted(
            n for n in self.directory.names() if n != home)
        if self.ejector is not None and \
                self.ejector.is_ejected(home, order):
            order = order[1:] + [home]
            self.gray_detours += 1
            self.telemetry.gray_detours.inc(home=home)
            self.log_event(
                request.source or "system", "region.gray_detour", home,
                Outcome.INFO, path=request.path)
        return order

    def _score(self, rname: str, elapsed: float, ok: bool,
               fleet: List[str]) -> None:
        """Feed one routed call's outcome to the gray-region scorer."""
        if self.ejector is None:
            return
        until = self.ejector.score(rname, elapsed, ok, fleet)
        if until is not None:
            self.telemetry.tail_ejections.inc(pool="regions", replica=rname)
            self.telemetry.tail_ejected.set(1.0, member=rname)
            lat = self.ejector.latency_ewma(rname)
            self.log_event(
                "system", "region.gray", rname, Outcome.INFO,
                until=round(until, 6),
                latency_ewma=round(lat if lat is not None else 0.0, 6),
                error_ewma=round(self.ejector.error_ewma(rname), 6))

    def _route(self, request: HttpRequest) -> HttpResponse:
        home = self.home_region(request.source or "")
        order = self._order(home, request)
        last_exc: Optional[Exception] = None
        for rname in order:
            region = self.directory.region(rname)
            if not region.serving:
                continue
            if rname != home and not self.directory.linked(home, rname):
                # routing is severed with replication: the home side of
                # a partition cannot reach the far side's brokers
                continue
            if rname != home:
                # honest latency: a detour crosses the inter-region link
                self.clock.advance(INTER_REGION_LATENCY)
                self.reroutes += 1
                self.telemetry.region_reroutes.inc(home=home, served_by=rname)
                self.log_event(
                    request.source or "system", "region.reroute", rname,
                    Outcome.INFO, home=home, path=request.path)
            started = self.clock.now()
            try:
                response = self.call(region.endpoint_name, request)
            except DeadlineExceeded:
                raise
            except RateLimited as exc:
                # shed is self-protection, not gray evidence
                last_exc = exc
                continue
            except ServiceUnavailable as exc:
                self._score(rname, self.clock.now() - started, False, order)
                last_exc = exc
                continue
            self._score(rname, self.clock.now() - started, True, order)
            self.routed += 1
            return response
        self.exhausted += 1
        if last_exc is not None:
            raise last_exc
        raise ServiceUnavailable(
            f"{self.name}: no serving region reachable from {home!r}")
