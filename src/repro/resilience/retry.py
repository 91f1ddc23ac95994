"""Retry with exponential backoff, and the per-client resilience wrapper.

``RetryPolicy`` describes *how* to retry: attempt budget, exponential
backoff with deterministic jitter (an injected ``random.Random``) and
an optional total-time deadline.  Backoff advances the shared :class:`~repro.clock.SimClock`
instead of sleeping, so retries cost measurable simulated time and fire
any scheduled events (forwarder flushes, detection timers) that fall
inside the wait — exactly as a real wait would.

``Resilience`` bundles a policy with per-destination circuit breakers,
AIMD pacers and metrics, and :meth:`Resilience.call` is the one retry
loop: :class:`~repro.net.http.Service` runs every outbound call through
it when the deployment enables resilience.  What bounds each attempt
(adaptive timeout or hedge delay) is not decided here but asked of the
kit's :class:`~repro.resilience.tail.TailController`.  Retrying a
transport-level failure is always safe here: the network fails faulted
messages *before* delivery, so a retried request was never partially
applied (see :mod:`repro.resilience.faults`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
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
from repro.resilience.tail import TailConfig, TailController

__all__ = [
    "RetryPolicy",
    "ResilienceMetrics",
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
        """Every field, in declaration order (so a new counter cannot be
        added to the dataclass and forgotten here)."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["by_destination"] = dict(sorted(self.by_destination.items()))
        return out


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
        """Run ``fn`` under the kit's policy — the one retry loop.

        The destination's breaker is consulted before each try: an open
        one raises :class:`CircuitOpen` without calling ``fn``.
        Otherwise the last transient error re-raises once the
        attempt/deadline budget is spent; non-transient exceptions
        propagate immediately.

        Overload signals get distinct treatment:

        * being shed (:class:`RateLimited`) is the *server protecting
          itself*, not a server fault — it never counts against the
          circuit breaker, and a supplied ``retry_after`` is honoured
          verbatim in place of the exponential backoff (which does not
          advance);
        * :class:`DeadlineExceeded` is terminal — the answer is already
          worthless, so no retry regardless of budget;
        * the destination's :class:`AimdLimiter` (kits built with an
          overload config) paces each attempt (its wait advances the
          clock like any backoff) and is fed every outcome so the
          client's send rate converges on what the server admits.

        ``deadline`` is the *request's* absolute deadline (simulated
        time), distinct from ``policy.deadline`` (a per-call
        elapsed-time budget).  A backoff or ``retry_after`` wait that
        would run at or past it is never taken: the last transient error
        re-raises immediately instead of the client sleeping through the
        deadline only to fail with :class:`DeadlineExceeded` after a
        pointless wait.

        With a :class:`~repro.resilience.tail.TailController` attached
        (and ``request`` supplied so the attempt bound can ride it),
        three tail defences activate, keyed ``client->destination``:

        * *adaptive deadlines* — each attempt carries an absolute
          ``attempt_deadline`` sized ``clamp(k × p99)`` of the
          destination's observed latency; the transport abandons the
          attempt pre-delivery (:class:`AttemptTimeout`) instead of
          riding a gray hop's tail;
        * *hedging* — for read-shaped requests the *first* attempt is
          bounded at the much tighter hedge delay; tripping that bound
          is not treated as a failure (no breaker penalty, no backoff):
          the immediate re-issue *is* the hedge, landing on another
          replica when the destination is balanced.  Hedges are capped
          by the controller's :class:`~repro.resilience.tail.HedgeBudget`;
        * *retry budget* — every retry not invited by a server
          ``retry_after`` hint charges a per-key token bucket; an empty
          bucket means this client is already amplifying the outage, so
          the retry is refused and the call fails fast.
        """
        clock, policy, metrics, tail = \
            self.clock, self.policy, self.metrics, self.tail
        key = f"{self.name}->{dst}"
        breaker = self.breaker_for(dst)
        limiter = self.limiter_for(dst)
        metrics.by_destination[dst] = metrics.by_destination.get(dst, 0) + 1
        metrics.calls += 1
        if tail is not None:
            tail.on_call(key)
        start = clock.now()
        attempt = 0
        backoff_step = 0  # position in the exponential schedule
        hedge_armed = False
        try:
            while True:
                if breaker is not None and not breaker.allow():
                    metrics.short_circuits += 1
                    raise CircuitOpen(
                        f"circuit open for {key}; shedding load")
                if limiter is not None:
                    pace = limiter.reserve(clock.now())
                    if pace > 0:
                        clock.advance(pace)
                attempt += 1
                metrics.attempts += 1
                if tail is not None and request is not None:
                    bound, hedge_armed = tail.bound_for(
                        key, request, first=attempt == 1)
                    request.attempt_deadline = \
                        (clock.now() + bound) if bound is not None else None
                attempt_started = clock.now()
                try:
                    result = fn()
                except DeadlineExceeded:
                    if limiter is not None:
                        limiter.on_overload()
                    metrics.expired += 1
                    metrics.failures += 1
                    raise
                except RETRY_ON as exc:
                    if isinstance(exc, AttemptTimeout) and hedge_armed:
                        # the tightly bounded first attempt tripped its
                        # hedge delay: abandon the straggler and
                        # immediately issue the speculative duplicate.
                        # Deliberately NO breaker penalty and NO backoff
                        # — a natural p95 tail is not a fault, and the
                        # hedge must fire *now* to win
                        tail.hedge_fired(exc)
                        metrics.hedges += 1
                        continue
                    shed = isinstance(exc, RateLimited)
                    retry_after = exc.retry_after if shed else None
                    if shed:
                        metrics.rate_limited += 1
                        if limiter is not None:
                            limiter.on_overload(retry_after)
                    else:
                        if isinstance(exc, AttemptTimeout):
                            metrics.attempt_timeouts += 1
                        if breaker is not None:
                            breaker.record_failure()
                    if attempt >= policy.max_attempts:
                        metrics.failures += 1
                        raise
                    if retry_after is None and tail is not None \
                            and not tail.allow_retry(key):
                        # retry-storm guard: the budget is spent, so
                        # another retry would only amplify the outage —
                        # fail fast with the real error (a server-invited
                        # retry_after wait is never charged: the server
                        # asked for it)
                        metrics.failures += 1
                        metrics.budget_exhausted += 1
                        raise
                    if retry_after is not None:
                        # honoured server hint: exact wait, no jitter, and
                        # the exponential schedule stays where it was
                        delay = retry_after
                    else:
                        backoff_step += 1
                        delay = policy.backoff(backoff_step, self.rng)
                    if deadline is not None and \
                            clock.now() + delay >= deadline:
                        # the wait itself would consume the request's
                        # remaining deadline; abandon now with the real
                        # error instead of sleeping into a guaranteed
                        # DeadlineExceeded
                        metrics.failures += 1
                        metrics.deadline_abandons += 1
                        raise
                    if policy.deadline is not None and \
                            clock.now() - start + delay > policy.deadline:
                        metrics.failures += 1
                        raise
                    metrics.retries += 1
                    if retry_after is not None:
                        metrics.honoured_retry_afters += 1
                    clock.advance(delay)
                else:
                    if breaker is not None:
                        breaker.record_success()
                    if limiter is not None:
                        limiter.on_success()
                    metrics.successes += 1
                    if tail is not None:
                        # only successful attempts feed the controller: a
                        # sick destination must not drag its own timeout
                        # upward
                        tail.observe(key, clock.now() - attempt_started)
                    return result
        finally:
            if request is not None:
                # the bound is strictly per-attempt; never let a stale one
                # leak into whatever this request object does next
                request.attempt_deadline = None


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
        # latency histogram, hedge budget and retry budget are deployment
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

    def totals(self) -> Dict[str, object]:
        """Aggregate metrics across every client (for the bench table)."""
        total = ResilienceMetrics()
        opens = 0
        time_open = 0.0
        aimd_waits = 0
        aimd_wait_time = 0.0
        aimd_backoffs = 0
        for kit in self._clients.values():
            for f in fields(total):
                if f.name != "by_destination":
                    setattr(total, f.name, getattr(total, f.name)
                            + getattr(kit.metrics, f.name))
            for dst, n in kit.metrics.by_destination.items():
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
        if self.tail_controller is not None:
            out["retry_budget_exhausted"] = \
                self.tail_controller.budget.exhausted
        return out
