"""Zero-trust edge in front of the Access zone (Cloudflare-tunnel model).

§III.C: FDS services "are exposed via Cloudflare zero-trust reverse
tunnels ... mitigating distributed denial of service (DDoS) attacks and
automatically blocking access that Cloudflare has determined to be a
threat."

The edge terminates all public traffic:

* **origins register via reverse tunnel** — the FDS origin dials out, so
  the VPC needs no inbound opening;
* **rate limiting / DDoS mitigation** — a sliding-window request counter
  per source; exceeding the limit throttles, and sustained abuse gets
  the source blocked;
* **threat intelligence** — a block list that can be fed externally
  (the simulated "Cloudflare has determined it is a threat").
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Deque, Dict, Set

from repro.audit import AuditLog, Outcome
from repro.clock import SimClock
from repro.errors import RateLimited
from repro.net.http import HttpRequest, HttpResponse, Service
from repro.resilience.overload import Priority
from repro.telemetry.tracing import SpanStatus

__all__ = ["CloudflareEdge"]


class CloudflareEdge(Service):
    """The public entry point; everything else hides behind it.

    Request paths are ``/<origin>/<inner-path>``: the first segment picks
    the registered origin, the rest is forwarded over the tunnel.

    Parameters
    ----------
    window, rate_limit:
        Sliding-window size (seconds) and max requests per source within
        it.  ``block_threshold`` consecutive limit hits block the source.
    """

    def __init__(
        self,
        name: str,
        clock: SimClock,
        *,
        audit: AuditLog,
        window: float = 10.0,
        rate_limit: int = 50,
        block_threshold: int = 3,
    ) -> None:
        super().__init__(name)
        self.clock = clock
        self.audit = audit
        self.window = window
        self.rate_limit = rate_limit
        self.block_threshold = block_threshold
        self._origins: Dict[str, Service] = {}
        self._hits: Dict[str, Deque[float]] = defaultdict(deque)
        self._violations: Dict[str, int] = defaultdict(int)
        self.blocked_sources: Set[str] = set()
        self.requests_passed = 0
        self.requests_blocked = 0

    # ------------------------------------------------------------------
    def register_origin(self, name: str, origin: Service) -> None:
        """The origin's outbound tunnel registration (deployment step)."""
        self._origins[name] = origin

    def block_source(self, source: str) -> None:
        """External threat-intel block (or manual kill of a client)."""
        self.blocked_sources.add(source)
        self.log_event("threat-intel", "edge.block", source,
            Outcome.INFO,
        )

    def unblock_source(self, source: str) -> None:
        self.blocked_sources.discard(source)
        self._violations.pop(source, None)

    # ------------------------------------------------------------------
    def _rate_ok(self, source: str, now: float) -> bool:
        hits = self._hits[source]
        while hits and hits[0] <= now - self.window:
            hits.popleft()
        hits.append(now)
        if len(hits) <= self.rate_limit:
            return False if source in self.blocked_sources else True
        self._violations[source] += 1
        if self._violations[source] >= self.block_threshold:
            self.block_source(source)
        return False

    def _retry_after(self, source: str, now: float) -> float:
        """When the oldest in-window hit will age out (the earliest a
        retry can possibly be admitted); blocked sources get the full
        window — there is nothing useful to retry sooner."""
        hits = self._hits.get(source)
        if source in self.blocked_sources or not hits:
            return self.window
        return max(hits[0] + self.window - now, 0.0)

    def enforce(self, source: str, path: str, now: float,
                *, priority: str = Priority.INTERACTIVE) -> None:
        """Apply threat-intel blocks and the rate limiter; raises
        :class:`RateLimited` (always carrying ``retry_after``) when the
        source must be refused.  Admin/security traffic is exempt from
        the rate limiter — revocation must land during a surge — but
        never from the threat-intel block list.
        """
        blocked = source in self.blocked_sources
        rate_exempt = priority == Priority.ADMIN and not blocked
        if not rate_exempt and (blocked or not self._rate_ok(source, now)):
            self.requests_blocked += 1
            self.log_event(source, "edge.deny", path, Outcome.DENIED,
                blocked=blocked,
            )
            raise RateLimited(
                "request blocked by the zero-trust edge",
                retry_after=self._retry_after(source, now),
                service=self.name, priority=priority,
            )

    def handle(self, request: HttpRequest) -> HttpResponse:
        """Edge processing happens before any routing.  The overload
        layer (when wired) sits ahead of the per-source DDoS limiter:
        its sheds raise to the transport."""
        return self._serve(request, self._tunnel)

    def _tunnel(self, request: HttpRequest) -> HttpResponse:
        now = self.clock.now()
        source = request.source or "unknown"
        try:
            self.enforce(source, request.path, now,
                         priority=request.priority)
        except RateLimited as exc:
            # edges answer 429, not the 403 the generic handler would
            # use; the hint travels in both body and header
            return HttpResponse.error(
                429, str(exc), error_type=RateLimited.__name__,
                retry_after=exc.retry_after,
            )

        parts = request.path.lstrip("/").split("/", 1)
        origin_name = parts[0] if parts else ""
        origin = self._origins.get(origin_name)
        if origin is None:
            return HttpResponse.error(404, f"no origin {origin_name!r} behind this edge")
        inner_path = "/" + (parts[1] if len(parts) > 1 else "")
        inner = HttpRequest(
            method=request.method,
            path=inner_path,
            headers=dict(request.headers),
            query=dict(request.query),
            body=dict(request.body),
            source=request.source,
            priority=request.priority,
            deadline=request.deadline,
            trace=request.trace,
        )
        inner.headers["CF-Connecting-IP"] = source
        self.requests_passed += 1
        # delivery over the origin's reverse tunnel (client-initiated,
        # so no inbound firewall opening is involved); the dispatch
        # bypasses Network.request, so it records its own span — the
        # via tag is what exempts this boundary crossing from the
        # SIEM's no-matching-firewall-edge anomaly rule
        tele = getattr(self.network, "telemetry", None) \
            if self.network is not None else None
        span = None
        if tele is not None and request.trace is not None:
            span = tele.tracer.start_span(
                f"tunnel {origin_name}", request.trace, service=self.name,
                kind="tunnel", via="reverse-tunnel",
                origin=origin_name, path=inner_path,
            )
            inner.trace = request.trace.child_of(span.span_id)
        try:
            response = origin.handle(inner)
        except BaseException as exc:
            if span is not None:
                tele.tracer.end(span, error=exc)
            raise
        if span is not None:
            status = (SpanStatus.ERROR if response.status >= 500
                      else SpanStatus.OK)
            tele.tracer.end(span, status=status,
                            http_status=response.status)
        return response
