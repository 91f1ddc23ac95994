"""Metric-driven autoscaling for replica pools.

The :class:`Autoscaler` closes the loop between the telemetry the
deployment already emits and the fleet size: every ``interval`` of
simulated time it reads the RED counters for the pool's replicas
(requests by outcome, from :class:`repro.telemetry.Telemetry`), computes
the window's shed/expired fraction, and grows the pool when overload
protection is visibly discarding work — or shrinks it after a run of
quiet windows.  SLO burn-rate pages short-circuit the maths: a page for
a watched service forces a grow decision at the next tick.

Everything is driven by :class:`~repro.clock.SimClock` callbacks, so
scaling decisions are fully deterministic and replayable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..audit import Outcome
from ..clock import SimClock
from .balancer import MAX_REPLICAS

__all__ = ["Autoscaler", "ScaleDecision"]

_LOSS_OUTCOMES = ("shed", "expired", "unavailable", "error")


@dataclass(frozen=True)
class ScaleDecision:
    time: float
    pool: str
    direction: str  # "grow" | "shrink" | "hold"
    from_replicas: int
    to_replicas: int
    loss_rate: float
    reason: str


class Autoscaler:
    """Grow/shrink one :class:`~repro.scale.balancer.ReplicaPool`.

    Parameters
    ----------
    loss_up / loss_down:
        Window loss-fraction thresholds: above ``loss_up`` the pool
        grows by ``step``; below ``loss_down`` for ``down_after``
        consecutive windows it shrinks by one.
    watch_services:
        SLO monitor ``service`` labels whose burn-rate pages force a
        grow at the next evaluation.
    """

    def __init__(
        self,
        clock: SimClock,
        pool,
        telemetry,
        *,
        audit,
        interval: float = 5.0,
        loss_up: float = 0.02,
        loss_down: float = 0.002,
        down_after: int = 3,
        step: int = 1,
        watch_services: Tuple[str, ...] = (),
    ) -> None:
        self.clock = clock
        self.pool = pool
        self.telemetry = telemetry
        self.interval = interval
        self.loss_up = loss_up
        self.loss_down = loss_down
        self.down_after = down_after
        self.step = step
        self.watch_services = tuple(watch_services)
        self.audit = audit
        self.decisions: List[ScaleDecision] = []
        self._snapshot: Dict[Tuple[str, str], float] = {}
        self._quiet_windows = 0
        self._paged = False
        self._ticker = None
        if self.watch_services:
            telemetry.on_slo_alert(self._on_page)
        telemetry.pool_size.set(float(pool.size()), pool=pool.name)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin the periodic evaluation chain."""
        if self._ticker is None:
            self._ticker = self.clock.call_later(self.interval, self._tick)

    def stop(self) -> None:
        if self._ticker is not None:
            self._ticker.cancel()
            self._ticker = None

    def _tick(self) -> None:
        self.evaluate()
        self._ticker = self.clock.call_later(self.interval, self._tick)

    def _on_page(self, alert) -> None:
        if alert.service in self.watch_services:
            self._paged = True

    # ------------------------------------------------------------------
    def window_loss(self) -> Tuple[float, float]:
        """(loss fraction, total requests) for the pool since last tick."""
        counter = self.telemetry.hop_requests
        series = counter.series()
        replicas = set(self.pool.replicas())
        total = 0.0
        lost = 0.0
        fresh: Dict[Tuple[str, str], float] = {}
        for label_key, value in series.items():
            labels = dict(label_key)
            dst, outcome = labels.get("dst", ""), labels.get("outcome", "")
            if dst not in replicas:
                continue
            key = (dst, outcome)
            fresh[key] = value
            delta = value - self._snapshot.get(key, 0.0)
            total += delta
            if outcome in _LOSS_OUTCOMES:
                lost += delta
        self._snapshot = fresh
        return (lost / total if total else 0.0), total

    def evaluate(self) -> ScaleDecision:
        """One scaling decision from the current window's signals."""
        loss, total = self.window_loss()
        size = self.pool.size()
        direction, to_n, reason = "hold", size, "within thresholds"

        if self._paged and size < MAX_REPLICAS:
            direction = "grow"
            to_n = min(size + self.step, MAX_REPLICAS)
            reason = "slo burn-rate page"
        elif loss > self.loss_up and size < MAX_REPLICAS:
            direction = "grow"
            to_n = min(size + self.step, MAX_REPLICAS)
            reason = f"loss {loss:.1%} above {self.loss_up:.1%}"
        elif loss < self.loss_down and total > 0:
            self._quiet_windows += 1
            if (self._quiet_windows >= self.down_after
                    and size > self.pool.min_replicas):
                direction = "shrink"
                to_n = size - 1
                reason = (f"loss {loss:.1%} below {self.loss_down:.1%} for "
                          f"{self._quiet_windows} windows")
        if direction != "shrink" and loss >= self.loss_down:
            self._quiet_windows = 0
        self._paged = False

        if to_n != size:
            self.pool.scale_to(to_n)
            self._quiet_windows = 0
            self.telemetry.pool_size.set(float(self.pool.size()),
                                         pool=self.pool.name)
            self.telemetry.autoscale_decisions.inc(
                pool=self.pool.name, direction=direction)
            self.audit.record(
                self.clock.now(), "autoscaler", "system",
                f"autoscale.{direction}", self.pool.name, Outcome.INFO,
                from_replicas=size, to_replicas=to_n,
                loss_rate=round(loss, 4), reason=reason,
            )
        decision = ScaleDecision(
            time=self.clock.now(), pool=self.pool.name, direction=direction,
            from_replicas=size, to_replicas=to_n, loss_rate=loss,
            reason=reason,
        )
        self.decisions.append(decision)
        return decision
