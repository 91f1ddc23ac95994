"""Active-standby failover for the stateful control plane.

Isambard-AI's IAM services run as replicated managed services; the paper
assumes the broker and CA stay available through node loss.  This module
supplies the simulated equivalent: a :class:`FailoverController` that
health-checks each registered primary on the simulated clock and, after
``failure_threshold`` consecutive failed probes, promotes the standby:

1. the standby replays the primary's journal (``recover()``), which also
   **acquires a fresh fencing epoch** — from that instant the deposed
   primary's journal appends raise :class:`~repro.errors.EpochFenced`,
   so a zombie primary cannot mint tokens or sign certificates;
2. the standby takes over the primary's *network endpoint name*, so every
   client, pinned URL and firewall rule keeps working unchanged;
3. the deployment's ``on_promote`` hook re-points the remaining direct
   references (edge origins, revocation fan-outs, ``dri.broker``).

The promotion budget is ``check_interval * failure_threshold`` plus the
deterministic replay cost — the ABL8 bench asserts promotions land inside
it.  A recovered ex-primary can :meth:`rejoin` as the new standby; it
replays the journal *without* acquiring an epoch, so it stays fenced
until a future promotion makes it legitimate again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.clock import SimClock
from repro.errors import ConfigurationError
from repro.resilience.durability import RecoveryReport

__all__ = ["FailoverController", "FailoverPair"]


@dataclass
class FailoverPair:
    """One primary/standby pairing under health supervision."""

    name: str                 # the primary's network endpoint name
    primary: object
    standby: object
    standby_name: str         # the standby's (parked) endpoint name
    domain: object
    zone: object
    on_promote: Callable[[object], None]
    failures: int = 0         # consecutive failed probes
    down_since: Optional[float] = None
    promoted: bool = False
    promoted_at: Optional[float] = None
    report: Optional[RecoveryReport] = None

    @property
    def active(self) -> object:
        return self.standby if self.promoted else self.primary


class FailoverController:
    """Clock-driven health checker + promoter for registered pairs."""

    def __init__(
        self,
        clock: SimClock,
        network,
        *,
        audit,
        telemetry,
        check_interval: float = 2.0,
        failure_threshold: int = 2,
    ) -> None:
        if check_interval <= 0 or failure_threshold < 1:
            raise ConfigurationError(
                "failover needs check_interval > 0 and failure_threshold >= 1")
        self.clock = clock
        self.network = network
        self.check_interval = check_interval
        self.failure_threshold = failure_threshold
        self.audit = audit
        # a repro.telemetry.Telemetry (duck-typed): promotions are
        # counted and back-filled as spans covering the outage window
        self.telemetry = telemetry
        self.pairs: Dict[str, FailoverPair] = {}
        self.promotions = 0
        self.probes = 0
        self._running = False

    @property
    def budget(self) -> float:
        """Worst-case crash-to-promotion window the bench holds us to
        (detection probes plus a margin for the journal replay cost)."""
        return self.check_interval * (self.failure_threshold + 1)

    # ------------------------------------------------------------------
    def register(self, name: str, primary, standby, *, standby_name: str,
                 domain, zone, on_promote: Callable[[object], None]) -> FailoverPair:
        if name in self.pairs:
            raise ConfigurationError(f"failover pair {name!r} already registered")
        pair = FailoverPair(
            name=name, primary=primary, standby=standby,
            standby_name=standby_name, domain=domain, zone=zone,
            on_promote=on_promote,
        )
        self.pairs[name] = pair
        return pair

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.clock.call_later(self.check_interval, self._tick)

    def _tick(self) -> None:
        if not self._running:
            return
        for pair in list(self.pairs.values()):
            if pair.promoted:
                continue
            self.probes += 1
            healthy = (self.network.has_endpoint(pair.name)
                       and self.network.endpoint(pair.name).up)
            if healthy:
                pair.failures = 0
                pair.down_since = None
                continue
            pair.failures += 1
            if pair.down_since is None:
                pair.down_since = self.clock.now()
            if pair.failures >= self.failure_threshold:
                self.promote(pair.name)
        if self._running:
            self.clock.call_later(self.check_interval, self._tick)

    # ------------------------------------------------------------------
    def promote(self, name: str) -> RecoveryReport:
        """Promote ``name``'s standby: replay journal, fence the deposed
        primary, take over its endpoint, re-point direct references."""
        pair = self.pairs.get(name)
        if pair is None:
            raise ConfigurationError(f"no failover pair registered for {name!r}")
        if pair.promoted:
            raise ConfigurationError(f"{name!r} standby was already promoted")
        # journal replay + epoch acquisition: the split-brain fence drops
        # the moment this returns — the old primary can no longer commit
        report = pair.standby.recover()
        if self.network.has_endpoint(pair.name):
            self.network.detach(pair.name)
        if self.network.has_endpoint(pair.standby_name):
            self.network.detach(pair.standby_name)
        self.network.attach(pair.standby, pair.domain, pair.zone, name=pair.name)
        pair.promoted = True
        pair.promoted_at = self.clock.now()
        pair.report = report
        self.promotions += 1
        pair.on_promote(pair.standby)
        self.telemetry.record_failover(
            pair.name, report, down_since=pair.down_since)
        from repro.audit import Outcome  # lazy: avoids an import cycle

        self.audit.record(
            self.clock.now(), "failover", "failover-controller",
            "failover.promote", pair.name, Outcome.INFO,
            standby=pair.standby_name, epoch=report.epoch,
            entries_replayed=report.entries_replayed,
            down_since=pair.down_since,
        )
        return report

    def rejoin(self, name: str, instance) -> RecoveryReport:
        """Bring a recovered ex-primary back as the new standby.

        It replays the journal *without* acquiring an epoch — it serves
        no traffic and stays fenced until a future promotion."""
        pair = self.pairs.get(name)
        if pair is None:
            raise ConfigurationError(f"no failover pair registered for {name!r}")
        report = instance.recover(acquire_epoch=False)
        if not self.network.has_endpoint(pair.standby_name):
            self.network.attach(instance, pair.domain, pair.zone,
                                name=pair.standby_name)
        # the promoted instance becomes the supervised primary; the
        # rejoining ex-primary parks as the new standby, so supervision
        # (and a future promotion) resumes normally
        pair.primary = pair.active
        pair.standby = instance
        pair.promoted = False
        pair.failures = 0
        pair.down_since = None
        from repro.audit import Outcome  # lazy: avoids an import cycle

        self.audit.record(
            self.clock.now(), "failover", "failover-controller",
            "failover.rejoin", pair.name, Outcome.INFO,
            standby=pair.standby_name,
        )
        return report
