"""Simulated HTTP layer: requests, responses and routable services.

The control plane of the reproduction speaks this miniature HTTP: the
identity broker, portal, OIDC endpoints, SSH CA, Zenith, Jupyter and the
SOC are all :class:`Service` subclasses that register routes.  Every
message travels through :class:`~repro.net.network.Network`, so firewall
and encryption policy apply uniformly.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import DeadlineExceeded, RateLimited, ReproError
from repro.resilience.overload import Priority
from repro.telemetry.context import TRACEPARENT_HEADER, TraceContext
from repro.telemetry.tracing import SpanStatus

__all__ = ["HttpRequest", "HttpResponse", "Service", "route"]


@dataclass
class HttpRequest:
    """A structured request.  ``body`` and ``query`` are plain dicts —
    serialization fidelity is not what this simulation studies.

    ``priority`` tags the traffic class for overload protection (see
    :class:`repro.resilience.overload.Priority`) and ``deadline`` is the
    absolute simulated time after which the caller no longer wants the
    answer; both propagate automatically onto downstream calls a service
    makes while handling this request.  So does ``trace``, the request's
    position in its trace: between the hops of one process it is this
    object, never a header.
    """

    method: str
    path: str
    headers: Dict[str, str] = field(default_factory=dict)
    query: Dict[str, str] = field(default_factory=dict)
    body: Dict[str, object] = field(default_factory=dict)
    source: str = ""  # endpoint name of the caller, filled in by the network
    priority: str = Priority.INTERACTIVE
    deadline: Optional[float] = None
    # adaptive per-attempt deadline (absolute simulated time) set by the
    # tail-tolerance layer for ONE transport hop: the network abandons
    # the attempt (AttemptTimeout, pre-delivery) rather than riding a
    # gray hop's latency.  Deliberately hop-local — unlike ``deadline``
    # it never propagates to nested calls, so only the hop whose caller
    # armed it can trip it
    attempt_deadline: Optional[float] = None
    # the span downstream work parents under; each hop swaps in its own
    # child for the duration of the hop and puts the caller's back
    trace: Optional[TraceContext] = None

    def bearer_token(self) -> Optional[str]:
        """Extract a ``Authorization: Bearer ...`` token if present."""
        auth = self.headers.get("Authorization", "")
        if auth.startswith("Bearer "):
            return auth[len("Bearer "):]
        return None


@dataclass
class HttpResponse:
    status: int
    body: Dict[str, object] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @classmethod
    def json(cls, body: Dict[str, object], status: int = 200) -> "HttpResponse":
        return cls(status=status, body=body)

    @classmethod
    def error(cls, status: int, message: str, **extra: object) -> "HttpResponse":
        body: Dict[str, object] = {"error": message}
        body.update(extra)
        return cls(status=status, body=body)

    @classmethod
    def redirect(cls, location: str) -> "HttpResponse":
        return cls(status=302, headers={"Location": location})


def route(method: str, path: str):
    """Decorator marking a :class:`Service` method as a route handler."""

    def mark(fn: Callable) -> Callable:
        fn._route = (method.upper(), path)  # type: ignore[attr-defined]
        return fn

    return mark


class Service:
    """Base class for everything that serves requests in the simulation.

    Subclasses declare handlers with the :func:`route` decorator; the
    metaclass-free registration happens at construction by scanning the
    class.  A service knows its ``name`` (which doubles as its endpoint
    name once attached to the network) and can issue outbound requests
    through the network with :meth:`call`.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.network = None  # set by Network.attach
        self.endpoint = None
        # optional repro.resilience.Resilience kit wrapping outbound calls
        self.resilience = None
        # optional repro.resilience.overload.AdmissionController guarding
        # inbound dispatch (token bucket + bulkhead + priority shedding)
        self.admission = None
        # requests currently being served (a stack: nested dispatch via
        # the edge or re-entrant calls) — outbound calls inherit the top
        # request's deadline and priority, which is what makes deadline
        # propagation work without touching every call site
        self._serving: List[HttpRequest] = []
        self._routes: Dict[Tuple[str, str], Callable[[HttpRequest], HttpResponse]] = {}
        for attr in dir(type(self)):
            fn = getattr(type(self), attr)
            r = getattr(fn, "_route", None)
            if r is not None:
                self._routes[r] = getattr(self, attr)

    # ------------------------------------------------------------------
    def handle(self, request: HttpRequest) -> HttpResponse:
        """Dispatch to the registered route; 404 if none matches.

        A handler that raises :class:`ReproError` becomes a 403 denial
        (the error message travels in the body — these are simulated
        services, leaking reasons aids the benchmarks' legibility).
        Unexpected exceptions propagate: they are bugs, not denials.

        Overload signals are different: an attached admission controller
        may shed the request (:class:`RateLimited`), and both that and
        :class:`DeadlineExceeded` re-raise to the transport instead of
        becoming 403s — the network audits them distinctly and the
        caller's retry machinery must see the real exception (with its
        ``retry_after`` hint), not a denial response.
        """
        handler = self._routes.get((request.method.upper(), request.path))
        if handler is None:
            return HttpResponse.error(404, f"no route {request.method} {request.path}")
        try:
            return self._serve(request, handler)
        except (RateLimited, DeadlineExceeded):
            raise
        except ReproError as exc:
            return HttpResponse.error(
                403, str(exc), error_type=type(exc).__name__
            )

    def _serve(self, request: HttpRequest,
               handler: Callable[[HttpRequest], HttpResponse]) -> HttpResponse:
        """Run ``handler`` as a served request — the one place that
        admits, marks the request as being served, and releases.

        Every ``handle`` (this class's and each override) goes through
        here.  The admission controller (if any) is consulted first;
        already-expired work is rejected here too: the tunnel-forwarded
        path (edge → origin) dispatches directly without a network hop,
        so a guarded service re-checks the deadline itself.
        """
        admission = self.admission
        admitted = False
        if admission is not None:
            if (request.deadline is not None
                    and admission.clock.now() > request.deadline):
                raise DeadlineExceeded(
                    f"{self.name}: deadline passed before dispatch",
                    deadline=request.deadline, priority=request.priority,
                )
            admitted = admission.admit(request.path, request.priority)
        self._serving.append(request)
        try:
            return handler(request)
        finally:
            self._serving.pop()
            if admitted:
                admission.release()

    # ------------------------------------------------------------------
    def call(
        self,
        dst: str,
        request: HttpRequest,
        *,
        port: int = 443,
        encrypted: bool = True,
    ) -> HttpResponse:
        """Make an outbound request through the attached network.

        With a resilience kit attached, transient transport failures
        (``ServiceUnavailable`` and its injected-fault subclasses) are
        retried with backoff and circuit-broken per destination; the
        network fails faulted messages before delivery, so these retries
        never replay a partially applied request.

        Deadline and priority propagate: while this service is handling
        a request, outbound calls inherit that request's deadline (the
        tighter of the two if both are set) and its priority when the
        outbound request carries only the default tag.  A broker hop
        made on behalf of an expiring login therefore expires with it.
        The trace context propagates the same way: an outbound request
        with no context of its own inherits the served request's, and —
        when the network carries a telemetry runtime — the whole outbound
        call (including every retry attempt and any breaker short-circuit)
        is recorded as one client span.  A request that arrives here with
        a ``traceparent`` header and no context object came from outside
        the process's own hops: this is the one place the header is read.
        """
        if self.network is None or self.endpoint is None:
            raise RuntimeError(f"service {self.name} is not attached to a network")
        if self._serving:
            inbound = self._serving[-1]
            if request.deadline is None:
                request.deadline = inbound.deadline
            elif inbound.deadline is not None:
                request.deadline = min(request.deadline, inbound.deadline)
            if (request.priority == Priority.INTERACTIVE
                    and inbound.priority != Priority.INTERACTIVE):
                request.priority = inbound.priority
            if (request.trace is None
                    and TRACEPARENT_HEADER not in request.headers):
                request.trace = inbound.trace

        tele = getattr(self.network, "telemetry", None)
        span = None
        ctx = caller_ctx = request.trace
        attempts_before = 0
        if tele is not None:
            if ctx is None and TRACEPARENT_HEADER in request.headers:
                ctx = TraceContext.extract(request.headers)
            if ctx is not None:
                # one name object per destination, not one per call
                span = tele.tracer.start_span(
                    sys.intern(f"call {dst}"), ctx, service=self.name,
                    kind="client", dst=dst, path=request.path,
                )
                request.trace = ctx.child_of(span.span_id)
                if self.resilience is not None:
                    attempts_before = self.resilience.metrics.attempts
        try:
            if self.resilience is not None:
                # the request's absolute deadline caps retry waits: the
                # kit abandons rather than sleeping past it (satellite
                # fix — a backoff that outlives the deadline is pure
                # wasted simulated time)
                response = self.resilience.call(
                    lambda: self.network.request(
                        self.endpoint.name, dst, request, port=port,
                        encrypted=encrypted,
                    ),
                    dst=dst,
                    deadline=request.deadline,
                    request=request,
                )
            else:
                response = self.network.request(
                    self.endpoint.name, dst, request, port=port,
                    encrypted=encrypted,
                )
        except BaseException as exc:
            if span is not None:
                self._end_call_span(tele, span, attempts_before, error=exc)
            raise
        else:
            if span is not None:
                status = (SpanStatus.ERROR if response.status >= 500
                          else SpanStatus.OK)
                self._end_call_span(tele, span, attempts_before,
                                    status=status,
                                    http_status=response.status)
            return response
        finally:
            request.trace = caller_ctx

    def _end_call_span(self, tele, span, attempts_before: int,
                       **end_kwargs) -> None:
        """Close a client span, annotating how many transport attempts the
        resilience kit spent inside it (1 means no retry happened)."""
        if self.resilience is not None:
            attempts = self.resilience.metrics.attempts - attempts_before
            if attempts:
                span.attrs["attempts"] = attempts
        tele.tracer.end(span, **end_kwargs)

    # ------------------------------------------------------------------
    def log_event(self, actor: str, action: str, resource: str,
                  outcome: str, **attrs: object):
        """Emit an audit event stamped with this service's location.

        Requires the subclass to hold ``self.audit`` and ``self.clock``
        (every auditing service in this library does); the domain/zone
        labels come from the attached endpoint so cross-domain incident
        correlation works.  Events emitted while serving a traced request
        are stamped with its ``trace_id``, which is what lets the SIEM
        reconstruct a request tree starting from either the span store or
        the audit trail.
        """
        domain = zone = ""
        if self.endpoint is not None:
            domain = self.endpoint.domain_label
            zone = self.endpoint.zone_label
        region = getattr(self, "region_name", "")
        if region and "region" not in attrs:
            attrs["region"] = region
        if "trace_id" not in attrs:
            for inbound in reversed(self._serving):
                if inbound.trace is not None:
                    attrs["trace_id"] = inbound.trace.trace_id
                    break
        return self.audit.record(  # type: ignore[attr-defined]
            self.clock.now(), self.name, actor, action, resource,  # type: ignore[attr-defined]
            outcome, domain=domain, zone=zone, **attrs,
        )
