"""Replica pools and the deterministic load balancer.

A :class:`ReplicaPool` runs N stateless :class:`ReplicaWorker` fronts
for one origin service — the Deployment-of-pods model: each worker has
its own network endpoint, its own admission-control bucket and its own
circuit-breaker target, while the application state stays in the shared
origin (the way replicated token validators share one token store in
systems like Gafaelfawr).  A :class:`LoadBalancer` owns the pool's
public endpoint name, sends each request to the worker with the fewest
attempts in flight and fails over to the next candidate when a worker is
down, circuit-broken or shedding.

Every balanced hop goes through :meth:`Service.call`, so client/server
spans, deadline propagation and priority inheritance compose unchanged.
Worker and balancer both serve through :meth:`Service._serve`; with the
tail layer on, the balancer asks its own
:class:`~repro.resilience.tail.TailController` what bounds each replica
attempt and its :class:`~repro.resilience.tail.OutlierEjector` whom to
sit out — it derives neither itself.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..audit import Outcome
from ..clock import SimClock
from ..errors import (
    AttemptTimeout,
    ConfigurationError,
    DeadlineExceeded,
    RateLimited,
    ServiceUnavailable,
)
from ..net.http import HttpRequest, HttpResponse, Service
from ..resilience.breaker import CircuitBreaker
from ..resilience.overload import AdmissionController
from ..resilience.tail import OutlierEjector, TailConfig, TailController

__all__ = [
    "ReplicaWorker",
    "ReplicaPool",
    "LoadBalancer",
    "pod_admission",
]


class ReplicaWorker(Service):
    """One stateless worker terminating requests for a shared origin.

    The worker re-dispatches to the origin's route table in-process
    (same pod, shared state backend); what it adds is *capacity
    isolation*: its own admission bucket, endpoint and breaker target.
    """

    def __init__(self, name: str, origin: Service) -> None:
        super().__init__(name)
        self.origin = origin
        self.served = 0

    def handle(self, request: HttpRequest) -> HttpResponse:
        return self._serve(request, self._dispatch)

    def _dispatch(self, request: HttpRequest) -> HttpResponse:
        self.served += 1
        return self.origin.handle(request)


class ReplicaPool:
    """Manage the worker fleet for one origin service.

    Workers attach to the network as ``<name>-r1 … -rN`` in the same
    domain/zone as the pool.  ``scale_to`` adds or retires workers; the
    balancer and the hash ring observe membership through
    :meth:`replicas` so placement follows the fleet.
    """

    def __init__(
        self,
        name: str,
        network,
        domain,
        zone,
        origin: Service,
        *,
        min_replicas: int = 1,
        max_replicas: int = 8,
        admission_factory: Optional[Callable[[str], object]] = None,
        worker_factory: Optional[Callable[[str, Service], ReplicaWorker]] = None,
    ) -> None:
        self.name = name
        self.network = network
        self.domain = domain
        self.zone = zone
        self.origin = origin
        self.min_replicas = min_replicas
        self.max_replicas = max_replicas
        self.admission_factory = admission_factory
        self.worker_factory = worker_factory
        self._workers: Dict[str, ReplicaWorker] = {}
        self._next_index = 0
        self._listeners: List[Callable[[str, str], None]] = []

    # ------------------------------------------------------------------
    def replicas(self) -> List[str]:
        return list(self._workers)

    def worker(self, name: str) -> ReplicaWorker:
        return self._workers[name]

    def size(self) -> int:
        return len(self._workers)

    def on_membership(self, cb: Callable[[str, str], None]) -> None:
        """Register ``cb(event, replica)`` for join/leave notifications."""
        self._listeners.append(cb)

    # ------------------------------------------------------------------
    def add_replica(self) -> str:
        if self.size() >= self.max_replicas:
            raise ValueError(f"pool {self.name} already at max "
                             f"({self.max_replicas}) replicas")
        self._next_index += 1
        name = f"{self.name}-r{self._next_index}"
        factory = self.worker_factory or ReplicaWorker
        worker = factory(name, self.origin)
        if self.admission_factory is not None:
            worker.admission = self.admission_factory(name)
        self.network.attach(worker, self.domain, self.zone, name=name)
        self._workers[name] = worker
        for cb in self._listeners:
            cb("join", name)
        return name

    def remove_replica(self) -> str:
        if self.size() <= self.min_replicas:
            raise ValueError(f"pool {self.name} already at min "
                             f"({self.min_replicas}) replicas")
        # newest-first retirement keeps the survivors' ring arcs stable
        name = list(self._workers)[-1]
        del self._workers[name]
        self.network.detach(name)
        for cb in self._listeners:
            cb("leave", name)
        return name

    def scale_to(self, n: int) -> int:
        n = max(self.min_replicas, min(self.max_replicas, n))
        while self.size() < n:
            self.add_replica()
        while self.size() > n:
            self.remove_replica()
        return self.size()

    # ------------------------------------------------------------------
    # the fleet as a whole (what a crash or a failover of the shared
    # state backend does to it)
    def repoint(self, origin: Service) -> None:
        """Serve from ``origin`` (the promoted state backend) from now on."""
        self.origin = origin
        for worker in self._workers.values():
            worker.origin = origin

    def set_serving(self, up: bool) -> None:
        """Every pod dark (its backend died) or serving again."""
        for name in self._workers:
            self.network.endpoint(name).up = up


def pod_admission(clock, overload):
    """Per-worker admission factory for a broker fleet: each pod gets its
    own broker-sized bucket.  ``None`` without an overload config."""
    if overload is None:
        return None
    return lambda worker: AdmissionController(worker, clock, overload.broker)


# ----------------------------------------------------------------------
class LoadBalancer(Service):
    """The pool's public endpoint: route, breaker-guard, fail over.

    Candidates are tried join-shortest-queue: fewest attempts in flight
    (``outstanding``) first, then fewest attempts so far, then fleet
    order.  Owns a per-replica :class:`CircuitBreaker`; a replica that keeps
    failing is skipped for ``recovery_time`` the same way outbound
    resilience kits short-circuit a dead dependency.  Failover moves to
    the next candidate on transport failure (``ServiceUnavailable``,
    including injected faults and open breakers) and on shed
    (``RateLimited``) — spreading a surge across the pool is exactly
    the point — but never on ``DeadlineExceeded``: expired work is
    expired everywhere.

    With a :class:`~repro.resilience.tail.TailConfig` attached the
    balancer also defends the latency tail:

    * each replica attempt carries an adaptive per-attempt deadline
      sized from the pool's observed successful latency (``k × p99``),
      so one gray replica cannot hold a request hostage — the bound
      comes from the balancer's own
      :class:`~repro.resilience.tail.TailController`, the same code the
      client kits ask;
    * read-shaped requests are *hedged*: the first attempt is bounded
      at the much tighter hedge delay, and tripping it is not a fault —
      the immediate failover to the next replica IS the hedge, with
      the abandoned attempt's ``outstanding`` slot released by
      the same ``finally`` that serves ordinary failover (that *is*
      the loser cancellation);
    * per-replica latency/error EWMAs feed an
      :class:`~repro.resilience.tail.OutlierEjector`: a replica that is
      slow-but-alive is temporarily ejected (probation re-probes it),
      never more than ``max_eject_fraction`` of the fleet and never the
      last candidate.
    """

    def __init__(
        self,
        name: str,
        clock: SimClock,
        pool: ReplicaPool,
        *,
        audit=None,
        failure_threshold: int = 5,
        recovery_time: float = 30.0,
        breaker_listener: Optional[Callable] = None,
        tail: Optional[TailConfig] = None,
        telemetry=None,
    ) -> None:
        super().__init__(name)
        self.clock = clock
        self.pool = pool
        self.audit = audit
        self.failure_threshold = failure_threshold
        self.recovery_time = recovery_time
        self.breaker_listener = breaker_listener
        self.outstanding: Dict[str, int] = {}
        self._served: Dict[str, int] = {}   # attempts so far, the tie-break
        self.routed = 0
        self.failovers = 0
        self.exhausted = 0
        self._breakers: Dict[str, CircuitBreaker] = {}
        # tail-tolerance state (all None when the tail layer is off).
        # The controller's latency evidence is POOL-wide (one key, the
        # pool's name): the balancer observes successes across the whole
        # fleet, so its timeout/hedge quantiles describe what a healthy
        # replica looks like, not what the gray one does; per-replica
        # scoring lives in the ejector's EWMAs instead
        self.tail = tail
        self.telemetry = telemetry
        self.controller = \
            TailController(clock, tail) if tail is not None else None
        self.ejector = OutlierEjector(clock, tail) if tail is not None else None
        self.hedge_budget = \
            self.controller.hedge_budget if tail is not None else None
        self.hedges = 0
        self.hedge_wins = 0
        self.attempt_timeouts = 0
        if self.ejector is not None:
            self.ejector.on_reinstate = self._on_reinstate
        pool.on_membership(self._on_membership)

    def _on_reinstate(self, replica: str) -> None:
        if self.telemetry is not None:
            self.telemetry.tail_reinstatements.inc(pool=self.pool.name)
            self.telemetry.tail_ejected.set(0.0, member=replica)
        if self.audit is not None:
            self.log_event("system", "lb.reinstate", replica, Outcome.INFO,
                           pool=self.pool.name)

    def _on_membership(self, event: str, replica: str) -> None:
        """Membership hygiene: a departed replica must not leave counters,
        a breaker or ejection state behind to haunt its name's re-use."""
        if event != "leave":
            return
        self.outstanding.pop(replica, None)
        self._breakers.pop(replica, None)
        self._served.pop(replica, None)
        if self.ejector is not None:
            self.ejector.forget(replica)

    # ------------------------------------------------------------------
    def _breaker(self, replica: str) -> CircuitBreaker:
        br = self._breakers.get(replica)
        if br is None:
            br = CircuitBreaker(
                self.clock,
                name=f"{self.name}->{replica}",
                failure_threshold=self.failure_threshold,
                recovery_time=self.recovery_time,
                listener=self.breaker_listener,
            )
            self._breakers[replica] = br
        return br

    def _healthy(self, replica: str) -> bool:
        try:
            ep = self.network.endpoint(replica)
        except ConfigurationError:
            return False
        return bool(ep.up)

    # ------------------------------------------------------------------
    def handle(self, request: HttpRequest) -> HttpResponse:
        return self._serve(request, self._forward)

    def _forward(self, request: HttpRequest) -> HttpResponse:
        outstanding, served = self.outstanding, self._served
        candidates = sorted(self.pool.replicas(), key=lambda r: (
            outstanding.get(r, 0), served.get(r, 0)))
        if self.hedge_budget is not None:
            self.hedge_budget.record_call()
        last_exc: Optional[Exception] = None
        tried = 0
        hedged = False          # a hedge fired somewhere in this call
        hedge_is_next = False   # the NEXT attempt is the hedge duplicate
        for replica in candidates:
            if self.ejector is not None and \
                    self.ejector.is_ejected(replica, candidates):
                continue
            breaker = self._breaker(replica)
            if not self._healthy(replica) or not breaker.allow():
                continue
            if tried:
                if hedge_is_next:
                    # the hedge re-issue is speculation, not failover
                    hedge_is_next = False
                else:
                    self.failovers += 1
                    if self.audit is not None:
                        self.log_event("system", "lb.failover", replica,
                                       Outcome.INFO, pool=self.pool.name,
                                       attempt=tried + 1)
            tried += 1
            # arm this attempt's transport bound, sized from the POOL's
            # successful latencies; a hedge only makes sense when
            # another replica could win it
            bound, hedge_armed = None, False
            if self.controller is not None:
                bound, hedge_armed = self.controller.bound_for(
                    self.pool.name, request, first=tried == 1,
                    hedge_target=lambda: self._has_hedge_target(
                        candidates, replica))
            outstanding[replica] = outstanding.get(replica, 0) + 1
            served[replica] = served.get(replica, 0) + 1
            attempt_started = self.clock.now()
            if bound is not None:
                request.attempt_deadline = attempt_started + bound
            try:
                response = self.call(replica, request)
            except DeadlineExceeded:
                # not the replica's fault; don't trip its breaker
                raise
            except AttemptTimeout as exc:
                elapsed = self.clock.now() - attempt_started
                if hedge_armed:
                    # hedge fired: this bounded attempt is the abandoned
                    # loser; the next candidate serves the speculative
                    # duplicate.  Deliberately NO breaker penalty — a
                    # natural tail latency is not a fault
                    hedged = True
                    hedge_is_next = True
                    self._record_hedge(request, replica, attempt_started)
                    self.controller.hedge_fired(exc)
                else:
                    self.attempt_timeouts += 1
                    if self.telemetry is not None:
                        self.telemetry.tail_attempt_timeouts.inc(
                            pool=self.pool.name)
                    breaker.record_failure()
                self._score(replica, elapsed, ok=False, fleet=candidates)
                last_exc = exc
                continue
            except RateLimited as exc:
                # shed is the replica protecting itself, not gray
                # behaviour: no breaker penalty and no ejection evidence
                last_exc = exc
                continue
            except ServiceUnavailable as exc:
                breaker.record_failure()
                self._score(replica, self.clock.now() - attempt_started,
                            ok=False, fleet=candidates)
                last_exc = exc
                continue
            finally:
                # releases the loser's bookkeeping too: cancelling a
                # hedged attempt must free its outstanding slot, or the
                # pool slowly chokes on ghosts
                request.attempt_deadline = None
                outstanding[replica] -= 1
            breaker.record_success()
            elapsed = self.clock.now() - attempt_started
            if self.controller is not None:
                # only successful attempts feed the pool quantiles
                self.controller.observe(self.pool.name, elapsed)
            self._score(replica, elapsed, ok=True, fleet=candidates)
            if hedged:
                self.hedge_wins += 1
                if self.telemetry is not None:
                    self.telemetry.tail_hedge_wins.inc(pool=self.pool.name)
            self.routed += 1
            return response
        self.exhausted += 1
        if last_exc is not None:
            raise last_exc
        raise ServiceUnavailable(
            f"{self.name}: no healthy replica in pool {self.pool.name}")

    # ------------------------------------------------------------------
    # tail-tolerance internals
    # ------------------------------------------------------------------
    def _has_hedge_target(self, candidates: List[str], first: str) -> bool:
        """A hedge only makes sense when another replica could win it."""
        for other in candidates:
            if other == first:
                continue
            if not self._healthy(other):
                continue
            if self.ejector is not None and \
                    self.ejector.is_ejected(other, candidates):
                continue
            return True
        return False

    def _record_hedge(self, request: HttpRequest, abandoned: str,
                      attempt_started: float) -> None:
        self.hedges += 1
        if self.telemetry is not None:
            self.telemetry.tail_hedges.inc(pool=self.pool.name)
            self.telemetry.tracer.record(
                "lb.hedge", start=attempt_started, end=self.clock.now(),
                service=self.name, kind="internal",
                ctx=request.trace,
                pool=self.pool.name, abandoned=abandoned)
        if self.audit is not None:
            self.log_event("system", "lb.hedge", abandoned, Outcome.INFO,
                           pool=self.pool.name)

    def _score(self, replica: str, elapsed: float, *, ok: bool,
               fleet: List[str]) -> None:
        """Feed one attempt's outcome to the ejector; eject when both
        justified and safe (never the last usable candidate)."""
        if self.ejector is None or not self.tail.ejection:
            return
        until = self.ejector.score(replica, elapsed, ok, fleet)
        if until is not None:
            if self.telemetry is not None:
                self.telemetry.tail_ejections.inc(
                    pool=self.pool.name, replica=replica)
                self.telemetry.tail_ejected.set(1.0, member=replica)
                self.telemetry.tracer.record(
                    "lb.eject", start=self.clock.now(), end=until,
                    service=self.name, kind="internal",
                    pool=self.pool.name, replica=replica)
            if self.audit is not None:
                lat = self.ejector.latency_ewma(replica)
                self.log_event(
                    "system", "lb.eject", replica, Outcome.INFO,
                    pool=self.pool.name, until=round(until, 6),
                    latency_ewma=round(lat if lat is not None else 0.0, 6),
                    error_ewma=round(self.ejector.error_ewma(replica), 6))
