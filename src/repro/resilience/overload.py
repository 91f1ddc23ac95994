"""Overload protection: admission control, priority shedding, AIMD pacing.

PR 1 made the control plane survive component *failures*; this module
makes it survive *success* — a login surge (the paper's §IV.B workshop
scaled up, or the ROADMAP's millions of users) in which every component
is healthy but demand exceeds capacity.  Prout et al. observed federated
authentication becoming the scalability choke point of an HPC site;
Avirneni's identity-control-plane argument is that the identity layer
must be engineered like a serving system, admission control and graceful
brownout included.  Three mechanisms, composed:

* **Priority taxonomy** — every :class:`~repro.net.http.HttpRequest`
  carries a priority tag: ``batch`` (automation, pre-staging),
  ``interactive`` (humans waiting at a browser) or ``admin`` (security
  operations: revocation, kill switch, containment).  The invariant the
  whole layer is built around: **admin traffic is never shed** — an
  overloaded control plane that drops its own revocation traffic has
  turned a capacity incident into a security incident.

* **Admission control** — :class:`AdmissionController` wraps a service
  with a token-bucket rate limiter plus a concurrency bulkhead.  The
  bucket implements *two-level shedding*: batch traffic is admitted only
  while the bucket holds more than :data:`BATCH_HEADROOM` of its capacity,
  so as load rises batch is shed first, interactive second, admin never.
  Rejections raise :class:`~repro.errors.RateLimited` carrying a
  ``retry_after`` hint computed from the refill rate.

* **Adaptive concurrency** — :class:`AimdLimiter` paces one (client,
  destination) pair TCP-style: additive increase of the allowed request
  rate on success, multiplicative decrease on ``RateLimited`` or
  ``DeadlineExceeded``.  Clients converge on the service's admission
  rate instead of hammering it, so goodput is spent on requests that
  will be admitted.

Deadline propagation lives in the transport (`repro.net`): requests
carry an absolute deadline, every hop rejects already-expired work with
:class:`~repro.errors.DeadlineExceeded`, and services stamp the inbound
deadline onto their downstream calls.

Everything advances the shared :class:`~repro.clock.SimClock`, so a
surge run is deterministic and the ABL7 bench can compare the layer
on/off bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.clock import SimClock
from repro.errors import ConfigurationError, RateLimited

__all__ = [
    "Priority",
    "AdmissionPolicy",
    "AdmissionController",
    "AimdLimiter",
    "OverloadConfig",
]

# fraction of a bucket's burst reserved for interactive traffic: batch
# requests are admitted only while the bucket holds more than this share
# of its capacity — the two-level shedder, batch refused first
BATCH_HEADROOM = 0.3
# AIMD pacing (every resilience kit's limiter): the ceiling, the
# additive step per success and the multiplicative cut per shed
AIMD_MAX_RATE = 1000.0
AIMD_ADDITIVE = 5.0
AIMD_BETA = 0.5


class Priority:
    """The traffic classes of the control plane, least to most important."""

    BATCH = "batch"              # automation: pre-staging, bulk API use
    INTERACTIVE = "interactive"  # a human is waiting (login, notebook)
    ADMIN = "admin"              # security operations — never shed

    ALL = (BATCH, INTERACTIVE, ADMIN)
    #: classes an admission controller may refuse (ADMIN is exempt)
    SHEDDABLE = (BATCH, INTERACTIVE)


@dataclass(frozen=True)
class AdmissionPolicy:
    """Sizing of one service's admission controller.

    Attributes
    ----------
    rate:
        Token-bucket refill, requests per simulated second.  This is the
        service's declared sustainable throughput.
    burst:
        Bucket capacity — how many requests above the sustained rate a
        short spike may land before shedding starts; batch traffic may
        not drain the last :data:`BATCH_HEADROOM` of it.
    max_concurrent:
        Bulkhead: requests of any sheddable class in flight at once
        (nested/re-entrant delivery counts).  Admin traffic bypasses
        the bulkhead too — a full house must not block a revocation.
    paths:
        Path prefixes the controller guards; empty means every route.
        Lets the broker throttle ``/tokens`` and ``/login`` without
        touching its JWKS endpoint.
    """

    rate: float = 50.0
    burst: float = 20.0
    max_concurrent: int = 64
    paths: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.rate <= 0 or self.burst <= 0:
            raise ConfigurationError("admission rate and burst must be positive")
        if self.max_concurrent < 1:
            raise ConfigurationError("max_concurrent must be at least 1")


class AdmissionController:
    """Token bucket + bulkhead guarding one service.

    Attach to a :class:`~repro.net.http.Service` (its ``admission``
    attribute); :meth:`Service.handle` consults it before dispatching and
    releases the bulkhead afterwards.  All counters are by priority so
    the surge bench can report shed rate per traffic class.
    """

    def __init__(self, name: str, clock: SimClock,
                 policy: Optional[AdmissionPolicy] = None) -> None:
        self.name = name
        self.clock = clock
        self.policy = policy if policy is not None else AdmissionPolicy()
        self._tokens = self.policy.burst
        self._refilled_at = clock.now()
        self.in_flight = 0
        self.admitted: Dict[str, int] = {p: 0 for p in Priority.ALL}
        self.shed: Dict[str, int] = {p: 0 for p in Priority.ALL}
        self.bulkhead_rejections = 0

    # ------------------------------------------------------------------
    def _refill(self, now: float) -> None:
        elapsed = now - self._refilled_at
        if elapsed > 0:
            self._tokens = min(self.policy.burst,
                               self._tokens + elapsed * self.policy.rate)
        self._refilled_at = now

    def guards(self, path: str) -> bool:
        """Does this controller cover ``path``?"""
        pol = self.policy
        return not pol.paths or any(path.startswith(p) for p in pol.paths)

    def tokens(self) -> float:
        self._refill(self.clock.now())
        return self._tokens

    def _retry_after(self, needed: float) -> float:
        """Seconds until the bucket will hold ``needed`` tokens."""
        return max(needed - self._tokens, 0.0) / self.policy.rate

    # ------------------------------------------------------------------
    def admit(self, path: str, priority: str) -> bool:
        """Admit or shed one request; returns whether the bulkhead was
        entered (the caller must :meth:`release` exactly when it was).

        Raises :class:`RateLimited` with a ``retry_after`` hint when the
        request must be shed.  Admin traffic is never shed and never
        blocked by the bulkhead — the fail-safe for security operations.
        """
        if not self.guards(path):
            return False
        now = self.clock.now()
        self._refill(now)
        if priority == Priority.ADMIN:
            # free of charge: security traffic must not compete for tokens
            self.admitted[priority] += 1
            return False
        if self.in_flight >= self.policy.max_concurrent:
            self.bulkhead_rejections += 1
            self.shed[priority] = self.shed.get(priority, 0) + 1
            raise RateLimited(
                f"{self.name}: concurrency bulkhead full "
                f"({self.in_flight}/{self.policy.max_concurrent})",
                retry_after=1.0 / self.policy.rate,
                service=self.name, priority=priority,
            )
        floor = (BATCH_HEADROOM * self.policy.burst
                 if priority == Priority.BATCH else 0.0)
        if self._tokens < floor + 1.0:
            self.shed[priority] = self.shed.get(priority, 0) + 1
            raise RateLimited(
                f"{self.name}: admission control shedding {priority} traffic",
                retry_after=self._retry_after(floor + 1.0),
                service=self.name, priority=priority,
            )
        self._tokens -= 1.0
        self.admitted[priority] = self.admitted.get(priority, 0) + 1
        self.in_flight += 1
        return True

    def release(self) -> None:
        """Leave the bulkhead (paired with an ``admit`` that returned True)."""
        if self.in_flight > 0:
            self.in_flight -= 1

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        return {
            "admitted": dict(self.admitted),
            "shed": dict(self.shed),
            "bulkhead_rejections": self.bulkhead_rejections,
            "tokens": round(self.tokens(), 6),
        }


class AimdLimiter:
    """Client-side adaptive pacing for one (client, destination) pair.

    Models the allowed request rate as an AIMD-controlled token clock:
    :meth:`reserve` returns how long the caller must wait before its
    next send (0 when under the limit).  Successes raise the rate
    additively; ``RateLimited``/``DeadlineExceeded`` halve it — the
    classic congestion-control sawtooth, converging on the destination's
    admission rate without coordination.
    """

    def __init__(
        self,
        name: str,
        *,
        initial_rate: float = 10.0,
        min_rate: float = 0.5,
        max_rate: float = AIMD_MAX_RATE,
        additive: float = AIMD_ADDITIVE,
        beta: float = AIMD_BETA,
    ) -> None:
        if not 0.0 < beta < 1.0:
            raise ConfigurationError("beta must be in (0, 1)")
        if not 0.0 < min_rate <= initial_rate <= max_rate:
            raise ConfigurationError(
                "need 0 < min_rate <= initial_rate <= max_rate")
        self.name = name
        self.rate = initial_rate
        self.min_rate = min_rate
        self.max_rate = max_rate
        self.additive = additive
        self.beta = beta
        self._next_slot = 0.0
        self.waits = 0
        self.wait_time = 0.0
        self.increases = 0
        self.backoffs = 0

    def reserve(self, now: float) -> float:
        """Claim the next send slot; returns the wait before sending."""
        wait = max(self._next_slot - now, 0.0)
        self._next_slot = max(self._next_slot, now) + 1.0 / self.rate
        if wait > 0:
            self.waits += 1
            self.wait_time += wait
        return wait

    def on_success(self) -> None:
        if self.rate < self.max_rate:
            self.rate = min(self.max_rate, self.rate + self.additive)
            self.increases += 1

    def on_overload(self, retry_after: Optional[float] = None) -> None:
        """Multiplicative decrease; a server ``retry_after`` hint caps the
        implied rate so the client never probes faster than invited."""
        self.rate = max(self.min_rate, self.rate * self.beta)
        if retry_after and retry_after > 0:
            self.rate = max(self.min_rate, min(self.rate, 1.0 / retry_after))
        self.backoffs += 1


@dataclass(frozen=True)
class OverloadConfig:
    """Deployment-wide sizing of the overload-protection layer.

    The defaults are tuned to the simulator's cost model (1 ms per
    delivered hop): a federated login needs ~6 broker round-trips, so a
    broker admission rate of ``r`` sustains roughly ``r / 6`` logins per
    simulated second.  ABL7 sweeps offered load far beyond that.
    """

    broker: AdmissionPolicy = field(default_factory=lambda: AdmissionPolicy(
        rate=400.0, burst=120.0, max_concurrent=64,
        paths=("/tokens", "/login", "/introspect", "/authorize", "/token"),
    ))
    # where every resilience kit's AIMD pacing starts and how low it may
    # fall (the rest of the sawtooth is the AIMD_* constants)
    aimd_initial_rate: float = 50.0
    aimd_min_rate: float = 0.5


# admission sizing of the other hot services (same cost model as above)
JUPYTER_ADMISSION = AdmissionPolicy(rate=60.0, burst=30.0, max_concurrent=64)
SSH_CA_ADMISSION = AdmissionPolicy(
    rate=40.0, burst=20.0, max_concurrent=32, paths=("/sign",))
EDGE_ADMISSION = AdmissionPolicy(rate=600.0, burst=200.0, max_concurrent=256)
