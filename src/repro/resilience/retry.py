"""Retry with exponential backoff, and the per-client resilience wrapper.

``RetryPolicy`` describes *how* to retry: attempt budget, exponential
backoff with deterministic jitter (an injected ``random.Random``) and
an optional total-time deadline.  Backoff advances the shared :class:`~repro.clock.SimClock`
instead of sleeping, so retries cost measurable simulated time and fire
any scheduled events (forwarder flushes, detection timers) that fall
inside the wait — exactly as a real wait would.

``Resilience`` bundles a policy with per-destination circuit breakers
and shared metrics; :class:`~repro.net.http.Service` consults it on
every outbound call when the deployment enables resilience.  Retrying a
transport-level failure is always safe here: the network fails faulted
messages *before* delivery, so a retried request was never partially
applied (see :mod:`repro.resilience.faults`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.clock import SimClock
from repro.errors import (
    AttemptTimeout,
    CircuitOpen,
    DeadlineExceeded,
    RateLimited,
    ServiceUnavailable,
)
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.overload import AimdLimiter, OverloadConfig
from repro.resilience.tail import TailConfig, TailController, hedgeable_request

__all__ = [
    "RetryPolicy",
    "ResilienceMetrics",
    "call_with_resilience",
    "Resilience",
    "ResilienceRuntime",
]


# the exception classes a client treats as transient
RETRY_ON = (ServiceUnavailable, RateLimited)


@dataclass(frozen=True)
class RetryPolicy:
    """How a client retries transient failures.

    Attributes
    ----------
    max_attempts:
        Total tries (first call included).  1 disables retrying.
    base_delay, multiplier, max_delay:
        Exponential backoff: attempt *n* waits
        ``min(base_delay * multiplier**(n-1), max_delay)`` seconds.
    jitter:
        Fraction of each backoff randomised away (0 = none, 0.5 = the
        wait is 50-100% of the computed backoff).  Drawn from the
        injected rng, so jitter is deterministic per seed.
    deadline:
        Optional cap on *total* simulated time spent (including waits);
        a retry that would overrun it is abandoned and the last error
        re-raised.

    What is retried is fixed (:data:`RETRY_ON`).  :class:`RateLimited`
    is handled specially: when the server supplied a ``retry_after``
    hint, the client waits exactly that long — no jitter, and the wait
    does not advance the exponential backoff schedule (being shed is not
    evidence the next backoff step should double).
    :class:`DeadlineExceeded` is never retried — expired work cannot
    succeed.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    deadline: Optional[float] = None

    def backoff(self, attempt: int, rng) -> float:
        """Wait before attempt ``attempt + 1`` (``attempt`` is 1-based)."""
        raw = min(self.base_delay * self.multiplier ** (attempt - 1),
                  self.max_delay)
        if self.jitter > 0:
            raw *= 1.0 - self.jitter * rng.random()
        return raw


@dataclass
class ResilienceMetrics:
    """Per-client counters the chaos ablation reads out."""

    calls: int = 0
    attempts: int = 0
    retries: int = 0
    successes: int = 0
    failures: int = 0              # calls that exhausted their budget
    short_circuits: int = 0        # calls refused by an open breaker
    rate_limited: int = 0          # attempts shed by admission control
    honoured_retry_afters: int = 0  # waits taken from a server hint
    expired: int = 0               # calls abandoned on DeadlineExceeded
    deadline_abandons: int = 0     # retries skipped: wait would overrun
                                   # the request's remaining deadline
    hedges: int = 0                # speculative attempts issued after the
                                   # quantile-derived hedge delay
    attempt_timeouts: int = 0      # attempts abandoned at their adaptive
                                   # per-attempt deadline
    budget_exhausted: int = 0      # retries refused by the retry budget
                                   # (storm guard: failed fast instead)
    by_destination: Dict[str, int] = field(default_factory=dict)

    def snapshot(self) -> Dict[str, object]:
        return {
            "calls": self.calls, "attempts": self.attempts,
            "retries": self.retries, "successes": self.successes,
            "failures": self.failures, "short_circuits": self.short_circuits,
            "rate_limited": self.rate_limited,
            "honoured_retry_afters": self.honoured_retry_afters,
            "expired": self.expired,
            "deadline_abandons": self.deadline_abandons,
            "hedges": self.hedges,
            "attempt_timeouts": self.attempt_timeouts,
            "budget_exhausted": self.budget_exhausted,
            # satellite fix: the per-endpoint attribution used to be
            # dropped here, blinding the chaos/bench readouts
            "by_destination": dict(sorted(self.by_destination.items())),
        }


def call_with_resilience(
    fn: Callable[[], object],
    *,
    clock: SimClock,
    policy: RetryPolicy,
    rng,
    breaker: Optional[CircuitBreaker] = None,
    metrics: Optional[ResilienceMetrics] = None,
    limiter: Optional[AimdLimiter] = None,
    label: str = "",
    deadline: Optional[float] = None,
    tail: Optional[TailController] = None,
    tail_key: str = "",
    request=None,
):
    """Run ``fn`` under ``policy``, consulting ``breaker`` before each try.

    Raises :class:`CircuitOpen` without calling ``fn`` when the breaker is
    shedding; otherwise re-raises the last transient error once the
    attempt/deadline budget is spent.  Non-transient exceptions propagate
    immediately.

    Overload signals get distinct treatment:

    * being shed (:class:`RateLimited`) is the *server protecting
      itself*, not a server fault — it never counts against the circuit
      breaker, and a supplied ``retry_after`` is honoured verbatim in
      place of the exponential backoff (which does not advance);
    * :class:`DeadlineExceeded` is terminal — the answer is already
      worthless, so no retry regardless of budget;
    * an attached :class:`AimdLimiter` paces each attempt (its wait
      advances the clock like any backoff) and is fed every outcome so
      the client's send rate converges on what the server admits.

    ``deadline`` is the *request's* absolute deadline (simulated time),
    distinct from ``policy.deadline`` (a per-call elapsed-time budget).
    A backoff or ``retry_after`` wait that would run at or past it is
    never taken: the last transient error re-raises immediately instead
    of the client sleeping through the deadline only to fail with
    :class:`DeadlineExceeded` after a pointless wait.

    With a :class:`~repro.resilience.tail.TailController` attached (and
    ``request`` supplied so the attempt bound can ride it), three tail
    defences activate:

    * *adaptive deadlines* — each attempt carries an absolute
      ``attempt_deadline`` sized ``clamp(k × p99)`` of the destination's
      observed latency; the transport abandons the attempt pre-delivery
      (:class:`AttemptTimeout`) instead of riding a gray hop's tail;
    * *hedging* — for read-shaped requests the *first* attempt is
      bounded at the much tighter hedge delay; tripping that bound is
      not treated as a failure (no breaker penalty, no backoff): the
      immediate re-issue *is* the hedge, landing on another replica
      when the destination is balanced.  Hedges are capped by the
      controller's :class:`~repro.resilience.tail.HedgeBudget`;
    * *retry budget* — every retry not invited by a server
      ``retry_after`` hint charges a per-``tail_key`` token bucket;
      an empty bucket means this client is already amplifying the
      outage, so the retry is refused and the call fails fast.
    """
    if metrics is not None:
        metrics.calls += 1
    if tail is not None:
        tail.on_call(tail_key or label)
    start = clock.now()
    attempt = 0
    backoff_step = 0  # position in the exponential schedule
    hedge_armed = False
    tkey = tail_key or label
    try:
        while True:
            if breaker is not None and not breaker.allow():
                if metrics is not None:
                    metrics.short_circuits += 1
                raise CircuitOpen(
                    f"circuit open for {label or 'destination'}; shedding load")
            if limiter is not None:
                pace = limiter.reserve(clock.now())
                if pace > 0:
                    clock.advance(pace)
            attempt += 1
            if metrics is not None:
                metrics.attempts += 1
            hedge_armed = False
            if tail is not None and request is not None:
                bound = None
                if (attempt == 1 and tail.cfg.hedging
                        and hedgeable_request(request)
                        and tail.hedge_budget.allowed()):
                    bound = tail.hedge_delay(tkey)
                    hedge_armed = bound is not None
                if bound is None:
                    bound = tail.attempt_timeout(tkey)
                request.attempt_deadline = \
                    (clock.now() + bound) if bound is not None else None
            attempt_started = clock.now()
            try:
                result = fn()
            except DeadlineExceeded:
                if limiter is not None:
                    limiter.on_overload()
                if metrics is not None:
                    metrics.expired += 1
                    metrics.failures += 1
                raise
            except RETRY_ON as exc:
                if isinstance(exc, AttemptTimeout) and hedge_armed:
                    # the tightly bounded first attempt tripped its hedge
                    # delay: abandon the straggler and immediately issue
                    # the speculative duplicate.  Deliberately NO breaker
                    # penalty and NO backoff — a natural p95 tail is not
                    # a fault, and the hedge must fire *now* to win
                    tail.hedge_budget.consume()
                    if metrics is not None:
                        metrics.hedges += 1
                    loser = getattr(exc, "span", None)
                    if loser is not None:
                        loser.attrs["cancelled"] = True
                        loser.attrs["hedge"] = "loser"
                    continue
                shed = isinstance(exc, RateLimited)
                retry_after = exc.retry_after if shed else None
                if shed:
                    if metrics is not None:
                        metrics.rate_limited += 1
                    if limiter is not None:
                        limiter.on_overload(retry_after)
                else:
                    if isinstance(exc, AttemptTimeout) and metrics is not None:
                        metrics.attempt_timeouts += 1
                    if breaker is not None:
                        breaker.record_failure()
                if attempt >= policy.max_attempts:
                    if metrics is not None:
                        metrics.failures += 1
                    raise
                if retry_after is None and tail is not None \
                        and not tail.allow_retry(tkey):
                    # retry-storm guard: the budget is spent, so another
                    # retry would only amplify the outage — fail fast
                    # with the real error (a server-invited retry_after
                    # wait is never charged: the server asked for it)
                    if metrics is not None:
                        metrics.failures += 1
                        metrics.budget_exhausted += 1
                    raise
                if retry_after is not None:
                    # honoured server hint: exact wait, no jitter, and the
                    # exponential schedule stays where it was
                    delay = retry_after
                else:
                    backoff_step += 1
                    delay = policy.backoff(backoff_step, rng)
                if deadline is not None and \
                        clock.now() + delay >= deadline:
                    # the wait itself would consume the request's remaining
                    # deadline; abandon now with the real error instead of
                    # sleeping into a guaranteed DeadlineExceeded
                    if metrics is not None:
                        metrics.failures += 1
                        metrics.deadline_abandons += 1
                    raise
                if policy.deadline is not None and \
                        clock.now() - start + delay > policy.deadline:
                    if metrics is not None:
                        metrics.failures += 1
                    raise
                if metrics is not None:
                    metrics.retries += 1
                    if retry_after is not None:
                        metrics.honoured_retry_afters += 1
                clock.advance(delay)
            except RateLimited as exc:
                # shed, but this policy does not retry shedding: still tell
                # the pacer before propagating
                if limiter is not None:
                    limiter.on_overload(exc.retry_after)
                if metrics is not None:
                    metrics.rate_limited += 1
                    metrics.failures += 1
                raise
            else:
                if breaker is not None:
                    breaker.record_success()
                if limiter is not None:
                    limiter.on_success()
                if metrics is not None:
                    metrics.successes += 1
                if tail is not None:
                    # only successful attempts feed the tracker: a sick
                    # destination must not drag its own timeout upward
                    tail.observe(tkey, clock.now() - attempt_started)
                return result
    finally:
        if request is not None:
            # the bound is strictly per-attempt; never let a stale one
            # leak into whatever this request object does next
            request.attempt_deadline = None


class Resilience:
    """One client's resilience kit: policy + per-destination breakers.

    Attach an instance to a :class:`~repro.net.http.Service` (its
    ``resilience`` attribute) and every outbound ``call`` is wrapped.
    """

    def __init__(
        self,
        name: str,
        clock: SimClock,
        rng,
        *,
        policy: Optional[RetryPolicy] = None,
        breaker_factory: Optional[Callable[[str], CircuitBreaker]] = None,
        limiter_factory: Optional[Callable[[str], AimdLimiter]] = None,
        metrics: Optional[ResilienceMetrics] = None,
    ) -> None:
        self.name = name
        self.clock = clock
        self.rng = rng
        self.policy = policy if policy is not None else RetryPolicy()
        self.metrics = metrics if metrics is not None else ResilienceMetrics()
        self._breaker_factory = breaker_factory
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._limiter_factory = limiter_factory
        self._limiters: Dict[str, AimdLimiter] = {}
        # shared TailController (set by ResilienceRuntime.for_client when
        # the deployment enables the tail layer); None = tail defences off
        self.tail: Optional[TailController] = None

    def breaker_for(self, dst: str) -> Optional[CircuitBreaker]:
        if self._breaker_factory is None:
            return None
        breaker = self._breakers.get(dst)
        if breaker is None:
            breaker = self._breaker_factory(f"{self.name}->{dst}")
            self._breakers[dst] = breaker
        return breaker

    def breakers(self) -> Dict[str, CircuitBreaker]:
        return dict(self._breakers)

    def limiter_for(self, dst: str) -> Optional[AimdLimiter]:
        """The AIMD pacer for one destination (None when pacing is off)."""
        if self._limiter_factory is None:
            return None
        limiter = self._limiters.get(dst)
        if limiter is None:
            limiter = self._limiter_factory(f"{self.name}->{dst}")
            self._limiters[dst] = limiter
        return limiter

    def limiters(self) -> Dict[str, AimdLimiter]:
        return dict(self._limiters)

    def call(self, fn: Callable[[], object], dst: str = "",
             deadline: Optional[float] = None, request=None):
        self.metrics.by_destination[dst] = \
            self.metrics.by_destination.get(dst, 0) + 1
        return call_with_resilience(
            fn, clock=self.clock, policy=self.policy, rng=self.rng,
            breaker=self.breaker_for(dst), metrics=self.metrics,
            limiter=self.limiter_for(dst),
            label=f"{self.name}->{dst}",
            deadline=deadline,
            tail=self.tail, tail_key=f"{self.name}->{dst}",
            request=request,
        )


class ResilienceRuntime:
    """Deployment-wide resilience: one policy, shared rng, per-client kits.

    ``build_isambard(resilience=True)`` creates one and hands a
    :class:`Resilience` to each control-plane client (and to every user
    agent the workflows create), so the whole deployment retries, breaks
    and degrades consistently — and so the chaos bench can read one
    aggregated metrics view.
    """

    def __init__(
        self,
        clock: SimClock,
        rng,
        *,
        policy: Optional[RetryPolicy] = None,
        failure_threshold: int = 8,
        recovery_time: float = 5.0,
        half_open_probes: int = 1,
        overload: Optional[OverloadConfig] = None,
        tail: Optional[TailConfig] = None,
    ) -> None:
        self.clock = clock
        self.rng = rng
        self.policy = policy if policy is not None else RetryPolicy()
        self.failure_threshold = failure_threshold
        self.recovery_time = recovery_time
        self.half_open_probes = half_open_probes
        # with an OverloadConfig, every kit paces its destinations with
        # an AIMD limiter sized from the config
        self.overload = overload
        # with a TailConfig, every kit shares one TailController: the
        # latency tracker, hedge budget and retry budget are deployment
        # state, not per-client state
        self.tail_controller = \
            TailController(clock, tail) if tail is not None else None
        # optional (name, from_state, to_state, now) callback wired onto
        # every breaker this runtime creates; read lazily at breaker
        # construction, so setting it after kits exist still works (the
        # breakers themselves are created per-destination on first use)
        self.breaker_listener = None
        self._clients: Dict[str, Resilience] = {}

    def _limiter_factory(self) -> Optional[Callable[[str], AimdLimiter]]:
        cfg = self.overload
        if cfg is None:
            return None
        return lambda label: AimdLimiter(
            label,
            initial_rate=cfg.aimd_initial_rate,
            min_rate=cfg.aimd_min_rate,
            max_rate=cfg.aimd_max_rate,
            additive=cfg.aimd_additive,
            beta=cfg.aimd_beta,
        )

    def for_client(self, name: str) -> Resilience:
        """The (cached) resilience kit for one named client."""
        kit = self._clients.get(name)
        if kit is None:
            kit = Resilience(
                name, self.clock, self.rng, policy=self.policy,
                breaker_factory=lambda label: CircuitBreaker(
                    self.clock, name=label,
                    failure_threshold=self.failure_threshold,
                    recovery_time=self.recovery_time,
                    half_open_probes=self.half_open_probes,
                    listener=self.breaker_listener,
                ),
                limiter_factory=self._limiter_factory(),
            )
            kit.tail = self.tail_controller
            self._clients[name] = kit
        return kit

    def limiter_for(self, client: str, dst: str) -> Optional[AimdLimiter]:
        """The AIMD pacer of one (client, destination) pair."""
        return self.for_client(client).limiter_for(dst)

    def clients(self) -> Dict[str, Resilience]:
        return dict(self._clients)

    def totals(self) -> Dict[str, object]:
        """Aggregate metrics across every client (for the bench table)."""
        total = ResilienceMetrics()
        opens = 0
        time_open = 0.0
        aimd_waits = 0
        aimd_wait_time = 0.0
        aimd_backoffs = 0
        for kit in self._clients.values():
            m = kit.metrics
            total.calls += m.calls
            total.attempts += m.attempts
            total.retries += m.retries
            total.successes += m.successes
            total.failures += m.failures
            total.short_circuits += m.short_circuits
            total.rate_limited += m.rate_limited
            total.honoured_retry_afters += m.honoured_retry_afters
            total.expired += m.expired
            total.deadline_abandons += m.deadline_abandons
            total.hedges += m.hedges
            total.attempt_timeouts += m.attempt_timeouts
            total.budget_exhausted += m.budget_exhausted
            for dst, n in m.by_destination.items():
                total.by_destination[dst] = \
                    total.by_destination.get(dst, 0) + n
            for b in kit.breakers().values():
                opens += b.opens
                time_open += b.time_in_open()
            for lim in kit.limiters().values():
                aimd_waits += lim.waits
                aimd_wait_time += lim.wait_time
                aimd_backoffs += lim.backoffs
        out = total.snapshot()
        out["breaker_opens"] = opens
        out["breaker_time_in_open"] = round(time_open, 6)
        out["aimd_waits"] = aimd_waits
        out["aimd_wait_time"] = round(aimd_wait_time, 6)
        out["aimd_backoffs"] = aimd_backoffs
        tc = self.tail_controller
        if tc is not None:
            out["hedge_budget_denied"] = tc.hedge_budget.denied
            out["retry_budget_exhausted"] = tc.budget.exhausted
        return out
