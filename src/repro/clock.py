"""Simulated time source for the whole infrastructure.

Every component in the reproduction takes a :class:`SimClock` instead of
reading the wall clock.  This keeps the entire system deterministic: token
expiry, certificate validity windows, kill-switch reaction times and the
concurrency benchmarks all advance the same simulated clock explicitly.

The clock also carries a tiny discrete-event scheduler.  Components may
register callbacks to fire at a future simulated time (e.g. the SOC's
detection pipeline firing some seconds after a log line arrives); the
callbacks run when :meth:`SimClock.advance` or :meth:`SimClock.run_until`
crosses their deadline.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

__all__ = ["SimClock", "ScheduledEvent"]


@dataclass(order=True)
class ScheduledEvent:
    """A callback registered to fire at simulated time ``when``.

    Events are ordered by ``(when, seq)`` so that two events scheduled for
    the same instant fire in registration order — important for
    reproducibility of the audit stream.
    """

    when: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Prevent the callback from running when its deadline is reached."""
        self.cancelled = True


class SimClock:
    """A monotonic simulated clock measured in seconds.

    Parameters
    ----------
    start:
        Initial simulated timestamp (seconds).  Defaults to ``0.0`` but a
        realistic epoch may be injected for nicer audit output.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._queue: List[ScheduledEvent] = []
        self._seq = itertools.count()

    # ------------------------------------------------------------------
    # reading time
    # ------------------------------------------------------------------
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def call_at(self, when: float, callback: Callable[[], None]) -> ScheduledEvent:
        """Schedule ``callback`` to run when simulated time reaches ``when``.

        Scheduling in the past raises ``ValueError`` — a component that
        wants "now" should just call the function.
        """
        if when < self._now:
            raise ValueError(
                f"cannot schedule event at t={when} before current t={self._now}"
            )
        event = ScheduledEvent(when=when, seq=next(self._seq), callback=callback)
        heapq.heappush(self._queue, event)
        return event

    def call_later(self, delay: float, callback: Callable[[], None]) -> ScheduledEvent:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.call_at(self._now + delay, callback)

    def pending_events(self) -> int:
        """Number of scheduled events that have not yet fired or been cancelled."""
        return sum(1 for e in self._queue if not e.cancelled)

    # ------------------------------------------------------------------
    # advancing time
    # ------------------------------------------------------------------
    def advance(self, dt: float) -> None:
        """Move time forward by ``dt`` seconds, firing due events in order."""
        if dt < 0:
            raise ValueError(f"cannot move time backwards (dt={dt})")
        self.run_until(self._now + dt)

    def run_until(self, deadline: float) -> None:
        """Advance to ``deadline``, firing every due event at its own timestamp.

        Callbacks observe ``now()`` equal to their scheduled time, so an
        event may itself schedule follow-up events inside the window.
        """
        if deadline < self._now:
            raise ValueError(
                f"cannot run to t={deadline} before current t={self._now}"
            )
        while self._queue and self._queue[0].when <= deadline:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._now = event.when
            event.callback()
        self._now = deadline

    def run_all(self, limit: int = 100_000) -> None:
        """Fire every scheduled event, however far in the future.

        ``limit`` guards against callback chains that reschedule forever.
        """
        fired = 0
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._now = event.when
            event.callback()
            fired += 1
            if fired > limit:
                raise RuntimeError("run_all exceeded event limit; runaway reschedule?")
