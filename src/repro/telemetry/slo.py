"""Multi-window burn-rate SLO monitors.

The classic SRE-workbook construction: an SLO declares an objective
(e.g. 99% of broker requests succeed); its *error budget* is
``1 - objective``.  The burn rate over a window is

    burn = error_rate(window) / (1 - objective)

i.e. how many times faster than "exactly on budget" we are spending.
A page fires only when **both** a fast and a slow window exceed the
threshold — the fast window gives low detection latency, the slow
window stops a brief blip from paging.  With the default threshold of
14.4 and a 1-hour slow window, a page means ~2% of a 30-day budget
burned in one hour.

Monitors are fed per-event by the telemetry runtime; time comes from
the shared simulated clock value stamped on each event.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Deque, List, Optional, Tuple

__all__ = ["SloMonitor", "BurnRateAlert", "burn_rate"]


def burn_rate(error_rate: float, objective: float) -> float:
    """How fast the error budget is being spent (1.0 = exactly on budget)."""
    budget = 1.0 - objective
    if budget <= 0:
        raise ValueError("objective must leave a non-zero error budget")
    return error_rate / budget


@dataclass(frozen=True)
class BurnRateAlert:
    """One SLO page: both windows over threshold at ``time``."""

    time: float
    slo: str
    service: str
    fast_burn: float
    slow_burn: float
    threshold: float
    fast_window: float
    slow_window: float
    events_in_slow_window: int

    def summary(self) -> str:
        return (f"SLO {self.slo} burning {self.fast_burn:.1f}x budget "
                f"over {self.fast_window:.0f}s "
                f"({self.slow_burn:.1f}x over {self.slow_window:.0f}s) "
                f"on {self.service}")


class SloMonitor:
    """Event-fed availability SLO with multi-window burn-rate alerting.

    ``record(time, ok)`` is called once per qualifying request; when the
    burn condition trips, every subscribed callback receives a
    :class:`BurnRateAlert`.  ``min_events`` avoids paging off a handful
    of early samples, ``cooldown`` rate-limits repeat pages.
    """

    def __init__(self, name: str, *, service: str = "", objective: float = 0.99,
                 fast_window: float = 300.0, slow_window: float = 3600.0,
                 threshold: float = 14.4, min_events: int = 20,
                 cooldown: float = 600.0) -> None:
        if not 0.0 < objective < 1.0:
            raise ValueError("objective must be in (0, 1)")
        if not 0.0 < fast_window < slow_window:
            raise ValueError(
                "fast window must be positive and shorter than slow window")
        self.name = name
        self.service = service
        self.objective = objective
        self.fast_window = fast_window
        self.slow_window = slow_window
        self.threshold = threshold
        self.min_events = min_events
        self.cooldown = cooldown
        # (time, ok) events of the slow window, split where the fast
        # window starts: an event enters ``_recent``, ages into ``_older``
        # and is dropped once, so the per-window totals below are kept
        # by counting at those three moments instead of rescanning.
        # Times must be non-decreasing (the simulated clock's are).
        self._recent: Deque[Tuple[float, bool]] = deque()
        self._older: Deque[Tuple[float, bool]] = deque()
        self._recent_errors = 0
        self._older_errors = 0
        self._subscribers: List[Callable[[BurnRateAlert], None]] = []
        self._last_alert: Optional[float] = None
        self.alerts: List[BurnRateAlert] = []

    # --------------------------------------------------------------- feed
    def subscribe(self, callback: Callable[[BurnRateAlert], None]) -> None:
        self._subscribers.append(callback)

    def record(self, time: float, ok: bool) -> Optional[BurnRateAlert]:
        self._recent.append((time, ok))
        if not ok:
            self._recent_errors += 1
        self._trim(time)
        alert = self._evaluate(time)
        if alert is not None:
            self.alerts.append(alert)
            for callback in list(self._subscribers):
                callback(alert)
        return alert

    # ---------------------------------------------------------- internals
    def _trim(self, now: float) -> None:
        recent, older = self._recent, self._older
        horizon = now - self.fast_window
        while recent[0][0] < horizon:  # never empties: the newest is `now`
            event = recent.popleft()
            older.append(event)
            if not event[1]:
                self._recent_errors -= 1
                self._older_errors += 1
        horizon = now - self.slow_window
        while older and older[0][0] < horizon:
            if not older.popleft()[1]:
                self._older_errors -= 1

    def error_rate(self, now: float, window: float) -> float:
        """Share of retained events at or after ``now - window`` that
        failed — any window, any ``now``; a scan, so not for the feed."""
        horizon = now - window
        total = errors = 0
        for when, ok in chain(self._older, self._recent):
            if when >= horizon:
                total += 1
                if not ok:
                    errors += 1
        return errors / total if total else 0.0

    def burn(self, now: float, window: float) -> float:
        return burn_rate(self.error_rate(now, window), self.objective)

    def _evaluate(self, now: float) -> Optional[BurnRateAlert]:
        recent = len(self._recent)
        total = recent + len(self._older)
        if total < self.min_events:
            return None
        if self._last_alert is not None and now - self._last_alert < self.cooldown:
            return None
        # after _trim(now) the two deques are exactly the two windows
        fast = burn_rate(self._recent_errors / recent, self.objective)
        slow = burn_rate(
            (self._recent_errors + self._older_errors) / total, self.objective)
        if fast < self.threshold or slow < self.threshold:
            return None
        self._last_alert = now
        return BurnRateAlert(
            time=now, slo=self.name, service=self.service,
            fast_burn=fast, slow_burn=slow, threshold=self.threshold,
            fast_window=self.fast_window, slow_window=self.slow_window,
            events_in_slow_window=total,
        )
