"""Three-state circuit breaker for control-plane clients.

A breaker guards one (client, destination) pair.  CLOSED passes traffic
and counts consecutive failures; at ``failure_threshold`` it OPENs and
sheds load (callers get :class:`~repro.errors.CircuitOpen` without a
message ever being sent).  After ``recovery_time`` on the simulated
clock the breaker moves to HALF_OPEN and admits ``half_open_probes``
trial calls: one failure re-opens it, enough successes close it.

All timing uses the shared :class:`~repro.clock.SimClock`, so breaker
behaviour is deterministic and measurable in the chaos ablation.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.clock import SimClock

__all__ = ["CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """One breaker protecting calls to one destination.

    Parameters
    ----------
    failure_threshold:
        Consecutive failures (in CLOSED) that trip the breaker.
    recovery_time:
        Simulated seconds to stay OPEN before probing.
    half_open_probes:
        Successful probe calls required in HALF_OPEN to close again.
    listener:
        Optional ``(name, from_state, to_state, now)`` callback invoked
        on every state transition (telemetry counts and gauges these).
    """

    def __init__(
        self,
        clock: SimClock,
        *,
        name: str = "",
        failure_threshold: int = 5,
        recovery_time: float = 30.0,
        half_open_probes: int = 1,
        listener=None,
    ) -> None:
        self.clock = clock
        self.name = name
        self.failure_threshold = failure_threshold
        self.recovery_time = recovery_time
        self.half_open_probes = half_open_probes
        self.listener = listener
        self._state = CLOSED
        self._consecutive_failures = 0
        self._probe_successes = 0
        self._opened_at: Optional[float] = None
        # metrics
        self.opens = 0
        self.short_circuits = 0
        self._time_in_open = 0.0
        self.transitions: List[Tuple[float, str, str]] = []

    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """Current state, applying the OPEN -> HALF_OPEN timeout lazily."""
        if self._state == OPEN and self._opened_at is not None \
                and self.clock.now() - self._opened_at >= self.recovery_time:
            self._transition(HALF_OPEN)
        return self._state

    def allow(self) -> bool:
        """May the caller attempt a call right now?"""
        state = self.state
        if state == OPEN:
            self.short_circuits += 1
            return False
        return True

    # ------------------------------------------------------------------
    def record_success(self) -> None:
        if self.state == HALF_OPEN:
            self._probe_successes += 1
            if self._probe_successes >= self.half_open_probes:
                self._transition(CLOSED)
        else:
            self._consecutive_failures = 0

    def record_failure(self) -> None:
        state = self.state
        if state == HALF_OPEN:
            self._transition(OPEN)
            return
        self._consecutive_failures += 1
        if state == CLOSED and self._consecutive_failures >= self.failure_threshold:
            self._transition(OPEN)

    # ------------------------------------------------------------------
    def _transition(self, to: str) -> None:
        now = self.clock.now()
        if self._state == OPEN and self._opened_at is not None:
            self._time_in_open += now - self._opened_at
        self.transitions.append((now, self._state, to))
        if self.listener is not None:
            self.listener(self.name, self._state, to, now)
        self._state = to
        if to == OPEN:
            self.opens += 1
            self._opened_at = now
        else:
            self._opened_at = None
        if to == HALF_OPEN:
            self._probe_successes = 0
        if to == CLOSED:
            self._consecutive_failures = 0

    def time_in_open(self) -> float:
        """Total simulated seconds spent OPEN (including a current spell)."""
        total = self._time_in_open
        if self._state == OPEN and self._opened_at is not None:
            total += self.clock.now() - self._opened_at
        return total
