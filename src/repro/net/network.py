"""The simulated network: endpoints, segmentation and encrypted transport.

Every message between components goes through :meth:`Network.request`,
which enforces, in order:

1. the destination exists and is up (``ServiceUnavailable`` otherwise);
2. the firewall permits the (domain, zone, port) flow
   (``ConnectionBlocked`` — this is what segmentation *is* here);
3. the channel is encrypted whenever traffic leaves a zone or domain
   (``EncryptionRequired`` — zero-trust tenet 2);

then delivers to the destination service and advances the simulated clock
by the link latency, so end-to-end workflow latency is measurable in the
benchmarks.  Allowed and denied flows are both recorded in the network's
audit log (tenet 7).

A :class:`~repro.resilience.faults.FaultInjector` may be attached; it is
consulted after the policy checks and may fail the message
(``FaultInjected``, a ``ServiceUnavailable``) or slow its delivery.
Injected failures happen *before* the destination service runs, so a
failed message was never partially applied — client retries are safe.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.audit import AuditLog, Outcome
from repro.clock import SimClock
from repro.errors import (
    AttemptTimeout,
    ConfigurationError,
    ConnectionBlocked,
    DeadlineExceeded,
    EncryptionRequired,
    RateLimited,
    ServiceUnavailable,
)
from repro.net.firewall import Firewall
from repro.net.http import HttpRequest, HttpResponse, Service
from repro.net.zones import OperatingDomain, Zone
from repro.telemetry.tracing import SpanStatus

__all__ = ["Endpoint", "Network"]


def _hop_outcome(exc: BaseException) -> str:
    """Transport outcome label for a failed hop (RED metrics taxonomy)."""
    if isinstance(exc, (ConnectionBlocked, EncryptionRequired)):
        return "blocked"
    if isinstance(exc, RateLimited):
        return "shed"
    if isinstance(exc, DeadlineExceeded):
        return "expired"
    if isinstance(exc, ServiceUnavailable):
        return "unavailable"
    return "error"


@dataclass
class Endpoint:
    """A network presence: a service bound to a domain and zone.

    Where an endpoint sits never changes once it is attached, so the
    plain-``str`` forms every audit record and span of a message carries
    are rendered here, once: ``domain_label``/``zone_label`` and
    ``location`` (``"fds/access"``).
    """

    name: str
    domain: OperatingDomain
    zone: Zone
    service: Service
    up: bool = True
    tags: Dict[str, str] = field(default_factory=dict)
    domain_label: str = field(init=False)
    zone_label: str = field(init=False)
    location: str = field(init=False)

    def __post_init__(self) -> None:
        self.domain_label = str(self.domain)
        self.zone_label = str(self.zone)
        self.location = f"{self.domain_label}/{self.zone_label}"


class Network:
    """Registry of endpoints plus the segmentation and transport policy.

    Parameters
    ----------
    clock:
        Shared simulated clock; each delivered hop advances it.
    firewall:
        The segmentation policy (default: a fresh default-deny firewall).
    audit:
        Where network-level events land.
    hop_latency:
        Simulated seconds consumed per delivered message.
    faults:
        Optional chaos harness (``repro.resilience.FaultInjector``);
        consulted per message once policy checks pass.
    """

    def __init__(
        self,
        clock: SimClock,
        firewall: Optional[Firewall] = None,
        audit: Optional[AuditLog] = None,
        *,
        hop_latency: float = 0.001,
        faults=None,
    ) -> None:
        self.clock = clock
        self.firewall = firewall if firewall is not None else Firewall()
        self.audit = audit if audit is not None else AuditLog("network")
        self.hop_latency = hop_latency
        self.faults = faults
        # optional repro.telemetry.Telemetry: when set, every hop becomes
        # a server span (if the request carries a trace context) and an
        # observation in the RED metrics — pure observation, no timing or
        # id stream is touched
        self.telemetry = None
        self._endpoints: Dict[str, Endpoint] = {}
        self.messages_delivered = 0
        self.messages_blocked = 0
        self.messages_faulted = 0
        self.messages_expired = 0
        self.messages_shed = 0
        self.messages_attempt_timeouts = 0

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def attach(
        self,
        service: Service,
        domain: OperatingDomain,
        zone: Zone,
        *,
        name: Optional[str] = None,
        **tags: str,
    ) -> Endpoint:
        """Bind ``service`` to the network at (domain, zone)."""
        ep_name = name or service.name
        if ep_name in self._endpoints:
            raise ConfigurationError(f"endpoint {ep_name!r} already attached")
        endpoint = Endpoint(
            name=ep_name, domain=domain, zone=zone, service=service, tags=dict(tags)
        )
        self._endpoints[ep_name] = endpoint
        service.network = self
        service.endpoint = endpoint
        return endpoint

    def detach(self, name: str) -> None:
        ep = self._endpoints.pop(name, None)
        if ep is not None:
            ep.service.network = None
            ep.service.endpoint = None

    def endpoint(self, name: str) -> Endpoint:
        try:
            return self._endpoints[name]
        except KeyError:
            raise ConfigurationError(f"no endpoint named {name!r}") from None

    def endpoints(self) -> List[Endpoint]:
        return list(self._endpoints.values())

    def has_endpoint(self, name: str) -> bool:
        return name in self._endpoints

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def reachable(self, src: str, dst: str, port: int = 443) -> bool:
        """Would the firewall permit a flow from ``src`` to ``dst``?

        Pure segmentation query — no message is sent, nothing is audited.
        Used by the Fig. 1 architecture bench and the threat model.
        """
        s, d = self.endpoint(src), self.endpoint(dst)
        return bool(
            self.firewall.evaluate(s.domain, s.zone, d.domain, d.zone, port)
        )

    def request(
        self,
        src: str,
        dst: str,
        request: HttpRequest,
        *,
        port: int = 443,
        encrypted: bool = True,
    ) -> HttpResponse:
        """Deliver ``request`` from endpoint ``src`` to endpoint ``dst``.

        Raises the segmentation/transport exceptions documented in the
        module docstring; on success returns the service's response.
        """
        s = self.endpoint(src)
        d = self.endpoint(dst)

        # tracing: when the request carries a trace context, this hop is
        # a server span.  The request carries the span's child context
        # while it is delivered, so nested calls the handler makes parent
        # under this hop; the caller's context is put back on exit because
        # resilience retries reuse the same request object — each retry
        # must re-enter with the caller's context so attempt spans land
        # as siblings under one client span, never nested in a failed
        # attempt.
        tele = self.telemetry
        span = None
        trace_attrs: Dict[str, object] = {}
        ctx = request.trace
        if tele is not None and ctx is not None:
            # one name object per (method, dst, path), not one per hop
            span = tele.tracer.start_span(
                sys.intern(f"{request.method} {dst}{request.path}"), ctx,
                service=dst, kind="server", src=src, port=port,
                path=request.path, src_zone=s.location, dst_zone=d.location,
            )
            request.trace = ctx.child_of(span.span_id)
            trace_attrs["trace_id"] = ctx.trace_id
        t_start = self.clock.now()
        try:
            response = self._deliver(
                s, d, src, dst, request, port=port, encrypted=encrypted,
                trace_attrs=trace_attrs,
            )
        except BaseException as exc:
            if tele is not None:
                tele.observe_hop(
                    dst=dst, outcome=_hop_outcome(exc),
                    duration=self.clock.now() - t_start,
                    trace_id=trace_attrs.get("trace_id"),
                )
                if span is not None:
                    tele.tracer.end(span, error=exc)
                    if isinstance(exc, AttemptTimeout):
                        # hand the abandoned attempt's span, and the
                        # tracer holding its record, to the hedge
                        # machinery: if this timeout fires a hedge, the
                        # winner's layer annotates this span cancelled so
                        # trace analysis can tell a cancelled loser from
                        # a genuinely expired attempt
                        exc.span, exc.tracer = span, tele.tracer
            raise
        else:
            if tele is not None:
                outcome = ("ok" if response.status < 400
                           else "denied" if response.status < 500
                           else "error")
                tele.observe_hop(
                    dst=dst, outcome=outcome,
                    duration=self.clock.now() - t_start,
                    trace_id=trace_attrs.get("trace_id"),
                )
                if span is not None:
                    status = (SpanStatus.ERROR if response.status >= 500
                              else SpanStatus.OK)
                    tele.tracer.end(
                        span, status=status, http_status=response.status)
            return response
        finally:
            request.trace = ctx

    def _deliver(
        self,
        s: Endpoint,
        d: Endpoint,
        src: str,
        dst: str,
        request: HttpRequest,
        *,
        port: int,
        encrypted: bool,
        trace_attrs: Dict[str, object],
    ) -> HttpResponse:
        """Policy checks + delivery; every audit record carries the
        request's trace id (when traced) so the SIEM can pivot between
        the audit trail and the span store."""
        decision = self.firewall.evaluate(s.domain, s.zone, d.domain, d.zone, port)
        if not decision:
            self.messages_blocked += 1
            self.audit.record(
                self.clock.now(), "network", src, "firewall.deny", dst,
                Outcome.DENIED, domain=d.domain_label, zone=d.zone_label,
                port=port, rule=decision.rule, **trace_attrs,
            )
            raise ConnectionBlocked(
                f"{src} ({s.location}) -> {dst} ({d.location}) "
                f"port {port}: denied by segmentation policy"
            )

        crosses_boundary = s.domain != d.domain or s.zone != d.zone
        if crosses_boundary and not encrypted:
            self.messages_blocked += 1
            self.audit.record(
                self.clock.now(), "network", src, "transport.plaintext_rejected",
                dst, Outcome.DENIED, domain=d.domain_label, zone=d.zone_label,
                **trace_attrs,
            )
            raise EncryptionRequired(
                f"plaintext flow {src} -> {dst} crosses a zone/domain boundary"
            )

        if not d.up:
            self.audit.record(
                self.clock.now(), "network", src, "endpoint.unavailable", dst,
                Outcome.ERROR, domain=d.domain_label, zone=d.zone_label,
                **trace_attrs,
            )
            raise ServiceUnavailable(f"endpoint {dst} is down")

        # overload protection: queued work whose deadline already passed
        # is shed here, before the destination burns any capacity on it
        if request.deadline is not None and self.clock.now() > request.deadline:
            self.messages_expired += 1
            self.audit.record(
                self.clock.now(), "network", src, "deadline.expired", dst,
                Outcome.EXPIRED, domain=d.domain_label, zone=d.zone_label,
                path=request.path, priority=request.priority,
                deadline=request.deadline,
                overrun=round(self.clock.now() - request.deadline, 6),
                **trace_attrs,
            )
            raise DeadlineExceeded(
                f"{src} -> {dst} {request.path}: deadline "
                f"t={request.deadline:.3f} passed before delivery",
                deadline=request.deadline, priority=request.priority,
            )

        extra_latency = 0.0
        if self.faults is not None:
            try:
                extra_latency = self.faults.perturb(d)
            except ServiceUnavailable as exc:
                self.messages_faulted += 1
                # a failed connect still burns the caller's timeout
                self.clock.advance(self.faults.fail_cost)
                self.audit.record(
                    self.clock.now(), "network", src, "fault.injected", dst,
                    Outcome.ERROR, domain=d.domain_label, zone=d.zone_label,
                    reason=str(exc), **trace_attrs,
                )
                raise

        request.source = src
        delivery_cost = self.hop_latency + extra_latency
        att = request.attempt_deadline
        if att is not None and self.clock.now() + delivery_cost > att:
            # the tail-tolerance layer bounded this single attempt: the
            # caller abandons at the deadline instant — it pays exactly
            # the wait it sat through, and the request was never
            # delivered, so a retry or hedge cannot replay side effects
            self.clock.advance(max(0.0, att - self.clock.now()))
            self.messages_attempt_timeouts += 1
            self.audit.record(
                self.clock.now(), "network", src, "attempt.timeout", dst,
                Outcome.ERROR, domain=d.domain_label, zone=d.zone_label,
                path=request.path, would_cost=round(delivery_cost, 6),
                **trace_attrs,
            )
            raise AttemptTimeout(
                f"{src} -> {dst} {request.path}: attempt abandoned at its "
                f"adaptive deadline (delivery would cost "
                f"{delivery_cost:.3f}s)")
        self.clock.advance(delivery_cost)
        if not d.up:
            # a crash fault landed while this request was in flight: the
            # connection drops and the caller sees an unavailable service
            self.messages_faulted += 1
            self.audit.record(
                self.clock.now(), "network", src, "endpoint.crashed_inflight",
                dst, Outcome.ERROR, domain=d.domain_label, zone=d.zone_label,
                path=request.path, **trace_attrs,
            )
            raise ServiceUnavailable(
                f"endpoint {dst} crashed while {request.path} was in flight")
        self.messages_delivered += 1
        self.audit.record(
            self.clock.now(), "network", src, "message.delivered", dst,
            Outcome.SUCCESS, domain=d.domain_label, zone=d.zone_label,
            port=port, path=request.path, encrypted=encrypted,
            rule=decision.rule, **trace_attrs,
        )
        # the attempt bound covered *this* hop's delivery; nested calls
        # the handler makes must not inherit it (their own callers arm
        # their own bounds), so it is parked for the duration of handling
        request.attempt_deadline = None
        try:
            return d.service.handle(request)
        except RateLimited as exc:
            # shed by admission control somewhere downstream of this hop
            # (the destination itself, or a service it fanned out to);
            # audited as SHED — deliberately not DENIED — with the class
            # of traffic that was dropped and the server's retry hint
            self.messages_shed += 1
            self.audit.record(
                self.clock.now(), "network", src, "admission.shed", dst,
                Outcome.SHED, domain=d.domain_label, zone=d.zone_label,
                path=request.path, priority=exc.priority or request.priority,
                service=exc.service or dst, retry_after=exc.retry_after,
                **trace_attrs,
            )
            raise
        except DeadlineExceeded as exc:
            # expired while being served (or at a nested hop): the
            # transport observed it, so the trail records it here too
            self.messages_expired += 1
            self.audit.record(
                self.clock.now(), "network", src, "deadline.expired", dst,
                Outcome.EXPIRED, domain=d.domain_label, zone=d.zone_label,
                path=request.path, priority=exc.priority or request.priority,
                deadline=exc.deadline, **trace_attrs,
            )
            raise
