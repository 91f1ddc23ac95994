"""Tail tolerance under gray failure: the latency-defence toolkit.

The stack before this module only reacts to *hard* failures: breakers
trip on errors, the balancer policies ignore latency, and the geo-router
detours only on outright loss.  A replica (or a whole region) that is
slow-but-alive — the canonical *gray failure* — degrades every login and
introspection while tripping nothing.  This module supplies the four
deterministic defences the balancer, retry layer and geo-router compose:

* :class:`TailController` — the one owner of the *attempt bound*: a
  per-key latency :class:`~repro.telemetry.metrics.Histogram` fed only
  from *successful* attempts (a sick destination cannot drag its own
  timeout up), from which :meth:`TailController.bound_for` derives
  either the hedge delay of a first hedgeable attempt or the adaptive
  ``clamp(k × p99)`` timeout (the bound rides
  :attr:`~repro.net.http.HttpRequest.attempt_deadline` and the network
  abandons the attempt *before delivery*, so retrying it is as safe as
  retrying an injected fault).  The client kits share one controller
  keyed by ``client->destination``; each load balancer owns one keyed
  by its pool;
* :class:`HedgeBudget` — caps speculative hedged attempts at a
  configured fraction of calls, deterministically (no coin flips);
* :class:`RetryBudget` — a per-(client×destination) token bucket that
  deposits a fraction of a token per fresh call and charges one per
  retry, so a brownout cannot metastasize into a retry storm: past the
  budget, retries fail fast with the real error;
* :class:`OutlierEjector` — per-member latency+error EWMAs with
  temporary ejection of outliers (probation re-probes on expiry,
  exponential back-off for repeat offenders, and a max-eject fraction so
  the fleet can never eject itself to death).

Everything here is arithmetic on the injected clock's timestamps — no
wall-clock reads, no randomness — so enabling the tail layer keeps every
run bit-for-bit reproducible from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.telemetry.metrics import Histogram

__all__ = [
    "TailConfig",
    "HedgeBudget",
    "RetryBudget",
    "OutlierEjector",
    "TailController",
    "hedgeable_request",
]

# finer low-end bounds than the telemetry default: attempt latencies in
# the simulation start at one hop (1 ms), and the quantile interpolation
# is only as sharp as the buckets around the mass
TAIL_BUCKETS = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2,
                0.5, 1.0, 2.5, 5.0, 10.0, 30.0)

# the observed-latency quantiles the attempt timeout and the hedge delay
# are derived from
TIMEOUT_QUANTILE = 0.99
HEDGE_QUANTILE = 0.95

# adaptive per-attempt deadlines: no quantile-derived bound is trusted
# before MIN_SAMPLES observations (until then attempts run unbounded, the
# cold-start safety), and the attempt timeout is TIMEOUT_MULTIPLIER ×
# p(TIMEOUT_QUANTILE), clamped into [TIMEOUT_MIN, TIMEOUT_MAX]
MIN_SAMPLES = 20
TIMEOUT_MULTIPLIER = 3.0
TIMEOUT_MIN = 0.02
TIMEOUT_MAX = 2.0
# the hedge fires after max(HEDGE_MIN, HEDGE_MULTIPLIER × p(HEDGE_QUANTILE))
# — deliberately tighter than the attempt timeout, that is the point of
# hedging — and hedges are capped at HEDGE_BUDGET_RATIO of balanced calls
HEDGE_MULTIPLIER = 2.0
HEDGE_MIN = 0.01
HEDGE_BUDGET_RATIO = 0.05
# retry-storm guard: tokens deposited per fresh call, and the bucket
# ceiling (buckets start full, so cold-start retries still work)
RETRY_BUDGET_RATIO = 0.1
RETRY_BUDGET_CAP = 5.0


@dataclass(frozen=True)
class TailConfig:
    """Knobs for the tail-tolerance layer; each defence toggles
    independently so the ABL11 arms can ablate them one at a time.

    Attributes
    ----------
    adaptive_deadlines / hedging / ejection / retry_budget:
        Per-defence switches.
    """

    adaptive_deadlines: bool = True
    hedging: bool = True
    ejection: bool = True
    retry_budget: bool = True


def clamp_timeout(p: float) -> float:
    """The adaptive attempt timeout for an observed ``p(TIMEOUT_QUANTILE)``
    of the destination's successful-attempt latency."""
    return max(TIMEOUT_MIN, min(TIMEOUT_MAX, TIMEOUT_MULTIPLIER * p))


def hedge_delay_from(p: float) -> float:
    """The hedge-fire delay for an observed ``p(HEDGE_QUANTILE)``."""
    return max(HEDGE_MIN, HEDGE_MULTIPLIER * p)


def hedgeable_request(request) -> bool:
    """May a speculative duplicate of ``request`` be issued?

    The transport abandons a bounded attempt *before delivery*, so even
    a duplicated mint could never double-apply — but hedging is still
    restricted to read-shaped traffic (safe methods plus the
    introspection read) as defence in depth: mutation paths stay
    unhedged-or-idempotent by construction, never by argument.
    """
    return request.method.upper() in ("GET", "HEAD") \
        or request.path in ("/introspect", "/jwks.json")


class HedgeBudget:
    """Deterministic cap: hedges ≤ ``ratio`` of calls (plus one grace
    hedge so the very first exceedance can still fire)."""

    def __init__(self, ratio: float) -> None:
        self.ratio = ratio
        self.calls = 0
        self.hedges = 0

    def record_call(self) -> None:
        self.calls += 1

    def allowed(self) -> bool:
        """May one more hedge fire right now?"""
        if self.ratio <= 0.0:
            return False
        return self.hedges < self.ratio * self.calls + 1

    def consume(self) -> None:
        self.hedges += 1


class RetryBudget:
    """Token-bucket retry budget per key (``client->destination``).

    Every fresh call deposits ``ratio`` tokens (ceiling ``cap``); every
    retry withdraws one.  An empty bucket means the destination is
    already saturated with our retries — further ones amplify the
    outage — so the caller must fail fast instead.  Buckets start full:
    a cold client may still ride through a transient blip.
    """

    def __init__(self, ratio: float, cap: float) -> None:
        self.ratio = ratio
        self.cap = cap
        self._tokens: Dict[str, float] = {}
        self.exhausted = 0
        self.exhausted_by_key: Dict[str, int] = {}

    def tokens(self, key: str) -> float:
        return self._tokens.get(key, self.cap)

    def on_call(self, key: str) -> None:
        self._tokens[key] = min(self.cap, self.tokens(key) + self.ratio)

    def try_retry(self, key: str) -> bool:
        tokens = self.tokens(key)
        if tokens >= 1.0:
            self._tokens[key] = tokens - 1.0
            return True
        self.exhausted += 1
        self.exhausted_by_key[key] = self.exhausted_by_key.get(key, 0) + 1
        return False


# outlier ejection: the evidence floor, the base ejection length
# (seconds) and the fraction of the fleet that may sit out at once
EJECT_MIN_SAMPLES = 8
EJECT_DURATION = 10.0
MAX_EJECT_FRACTION = 0.5
# the error EWMA (fraction of failed attempts) past which a member is an
# outlier whatever its latency
EJECT_ERROR_THRESHOLD = 0.5
# ...and the multiple of the pool's median latency EWMA past which it is
# one on latency alone; re-ejections double in length up to this cap
EJECT_LATENCY_RATIO = 4.0
EJECT_MAX_BACKOFF_MULT = 8.0


class OutlierEjector:
    """Latency/error-outlier ejection with probation, for any string-keyed
    fleet (pool replicas, or regions under the geo-router).

    A member is *ejected* when, with at least ``EJECT_MIN_SAMPLES`` of
    evidence, its latency EWMA exceeds ``EJECT_LATENCY_RATIO`` × the
    median member EWMA, or its error EWMA exceeds
    ``EJECT_ERROR_THRESHOLD``.  Ejection is temporary: after
    ``EJECT_DURATION`` (doubling per consecutive re-ejection, capped at
    ``EJECT_MAX_BACKOFF_MULT``×) the member re-enters on *probation* —
    its stats reset so the next few requests re-probe it with fresh
    evidence instead of the stale EWMA instantly re-ejecting it.  At
    most ``MAX_EJECT_FRACTION`` of the fleet may be out at once, and
    never the last remaining candidate.
    """

    def __init__(self, clock, *, alpha: float = 0.3) -> None:
        self.clock = clock
        self.alpha = alpha
        self._latency: Dict[str, float] = {}
        self._errors: Dict[str, float] = {}
        self._samples: Dict[str, int] = {}
        self._ejected_until: Dict[str, float] = {}
        self._strikes: Dict[str, int] = {}  # consecutive ejections
        self.ejections = 0
        self.reinstates = 0
        # optional callable(member) fired when an expired ejection flips
        # to probation — the owner (balancer/router) bridges it to
        # telemetry, since the ejector itself stays observation-free
        self.on_reinstate = None

    # ------------------------------------------------------------------
    def record(self, member: str, latency: float, ok: bool) -> None:
        """Feed one attempt's outcome and re-score the member."""
        prev = self._latency.get(member)
        self._latency[member] = latency if prev is None else \
            prev + self.alpha * (latency - prev)
        err = 0.0 if ok else 1.0
        prev_err = self._errors.get(member)
        self._errors[member] = err if prev_err is None else \
            prev_err + self.alpha * (err - prev_err)
        self._samples[member] = self._samples.get(member, 0) + 1
        if ok:
            # good evidence clears the strike ladder: the member is
            # behaving again, so the next ejection starts at base length
            self._strikes.pop(member, None)

    def latency_ewma(self, member: str) -> Optional[float]:
        return self._latency.get(member)

    def error_ewma(self, member: str) -> float:
        return self._errors.get(member, 0.0)

    def forget(self, member: str) -> None:
        """Purge a departed member entirely (membership churn hygiene)."""
        for store in (self._latency, self._errors, self._samples,
                      self._ejected_until, self._strikes):
            store.pop(member, None)

    # ------------------------------------------------------------------
    def _max_ejectable(self, fleet_size: int) -> int:
        if fleet_size <= 1:
            return 0
        allowed = int(MAX_EJECT_FRACTION * fleet_size)
        return min(fleet_size - 1, max(0, allowed))

    def ejected(self, fleet: Sequence[str]) -> List[str]:
        now = self.clock.now()
        return [m for m in fleet
                if self._ejected_until.get(m, 0.0) > now]

    def is_ejected(self, member: str, fleet: Sequence[str]) -> bool:
        """True while ``member`` sits out.  An expired ejection flips the
        member to probation: stats reset so re-probing starts fresh."""
        until = self._ejected_until.get(member)
        if until is None:
            return False
        if self.clock.now() < until:
            return True
        # probation: the sentence is served; wipe the stale EWMAs so the
        # next requests re-probe with current evidence
        del self._ejected_until[member]
        self._latency.pop(member, None)
        self._errors.pop(member, None)
        self._samples.pop(member, None)
        self.reinstates += 1
        if self.on_reinstate is not None:
            self.on_reinstate(member)
        return False

    def should_eject(self, member: str, fleet: Sequence[str]) -> bool:
        """Would ejecting ``member`` now be justified *and* safe?"""
        if self._samples.get(member, 0) < EJECT_MIN_SAMPLES:
            return False
        peers = [m for m in fleet if m != member
                 and self._latency.get(m) is not None]
        outlier = False
        if self._errors.get(member, 0.0) > EJECT_ERROR_THRESHOLD:
            outlier = True
        elif peers:
            lat = self._latency.get(member)
            ewmas = sorted(self._latency[m] for m in peers)
            median = ewmas[len(ewmas) // 2]
            if lat is not None and median > 0 and \
                    lat > EJECT_LATENCY_RATIO * median:
                outlier = True
        if not outlier:
            return False
        active = len(self.ejected(fleet))
        return active + 1 <= self._max_ejectable(len(fleet))

    def eject(self, member: str) -> float:
        """Eject ``member`` (the caller has checked :meth:`should_eject`);
        returns the reinstatement time."""
        strikes = self._strikes.get(member, 0)
        mult = min(2.0 ** strikes, EJECT_MAX_BACKOFF_MULT)
        until = self.clock.now() + EJECT_DURATION * mult
        self._ejected_until[member] = until
        self._strikes[member] = strikes + 1
        self.ejections += 1
        return until

    def score(self, member: str, latency: float, ok: bool,
              fleet: Sequence[str]) -> Optional[float]:
        """Feed one attempt's outcome and eject ``member`` when that is
        both justified and safe; returns the reinstatement time when it
        was ejected, else ``None``.  A slow *success* is evidence too:
        with adaptive deadlines ablated away a gray member's attempts
        complete (slowly), and the latency EWMA is all there is to go on.
        """
        self.record(member, latency, ok)
        if self.should_eject(member, fleet):
            return self.eject(member)
        return None


class TailController:
    """The one owner of the attempt bound, plus the retry-storm budget.

    Holds a per-key latency histogram (fed only from successful
    attempts), the hedge budget and the retry budget.  One
    :class:`ResilienceRuntime` shares a controller across its kits,
    keyed ``client->destination``; each
    :class:`~repro.scale.LoadBalancer` owns one keyed by its pool.

    ``audit`` (an :class:`~repro.audit.AuditLog`) receives a
    ``retry.budget_exhausted`` record per refused retry — the raw
    material for the SOC's ``RetryStormRule`` — and ``telemetry``
    counts it.
    """

    def __init__(self, clock, cfg: TailConfig, *, audit, telemetry) -> None:
        self.clock = clock
        self.cfg = cfg
        self.latency = Histogram("tail_latency_seconds",
                                 "per-key attempt latency",
                                 buckets=TAIL_BUCKETS)
        self.budget = RetryBudget(RETRY_BUDGET_RATIO, RETRY_BUDGET_CAP)
        self.hedge_budget = HedgeBudget(HEDGE_BUDGET_RATIO)
        self.audit = audit
        self.telemetry = telemetry

    # ------------------------------------------------------------------
    def hedge_delay(self, key: str) -> Optional[float]:
        """How long a hedge-armed first attempt runs before the hedge
        fires, or ``None`` while ``key`` lacks evidence (cold start runs
        unhedged)."""
        if self.latency.count(key=key) < MIN_SAMPLES:
            return None
        return hedge_delay_from(
            self.latency.quantile(HEDGE_QUANTILE, key=key))

    def attempt_timeout(self, key: str) -> Optional[float]:
        """The adaptive per-attempt timeout for ``key`` (seconds), or
        ``None`` while evidence or the feature is lacking."""
        if not self.cfg.adaptive_deadlines:
            return None
        if self.latency.count(key=key) < MIN_SAMPLES:
            return None
        return clamp_timeout(self.latency.quantile(TIMEOUT_QUANTILE, key=key))

    def bound_for(self, key: str, request, *, first: bool,
                  hedge_target: Optional[Callable[[], bool]] = None,
                  ) -> Tuple[Optional[float], bool]:
        """The transport bound for one attempt: ``(seconds, hedge_armed)``.

        The first attempt of a hedgeable request gets the tight hedge
        delay (abandoning it fires the hedge) while the budget allows
        and ``hedge_target()`` — asked last, because answering may
        re-probe an ejected member — says a duplicate has somewhere to
        go; any other attempt gets the adaptive ``clamp(k × p99)``
        timeout, or ``None`` while ``key`` lacks evidence.
        """
        if (first and self.cfg.hedging and hedgeable_request(request)
                and self.hedge_budget.allowed()
                and (hedge_target is None or hedge_target())):
            bound = self.hedge_delay(key)
            if bound is not None:
                return bound, True
        return self.attempt_timeout(key), False

    def hedge_fired(self, exc) -> None:
        """A hedge-armed attempt tripped its bound: charge the budget
        and mark the abandoned attempt's span (ended by the transport) as
        the cancelled loser."""
        self.hedge_budget.consume()
        if getattr(exc, "span", None) is not None:
            exc.tracer.annotate(exc.span, cancelled=True, hedge="loser")

    def observe(self, key: str, latency: float) -> None:
        """Feed one *successful* attempt's latency."""
        self.latency.observe(latency, key=key)

    def on_call(self, key: str) -> None:
        if self.cfg.retry_budget:
            self.budget.on_call(key)
        if self.cfg.hedging:
            self.hedge_budget.record_call()

    def allow_retry(self, key: str) -> bool:
        """Charge the retry budget; on refusal, audit + count the storm
        evidence and tell the caller to fail fast."""
        if not self.cfg.retry_budget:
            return True
        if self.budget.try_retry(key):
            return True
        self.telemetry.retry_budget_exhausted.inc(key=key)
        client, _, dst = key.partition("->")
        self.audit.record(
            self.clock.now(), "resilience", client,
            "retry.budget_exhausted", dst or key, "error",
            key=key, refused=self.budget.exhausted_by_key.get(key, 0),
        )
        return False
