"""The externally managed kill switch.

§III.B: the design "makes implementation of an externally managed 'kill
switch' easier in case of a threat and attack, without waiting for a
direct intervention from the Isambard team".  The controller aggregates
every containment lever in the deployment behind two verbs:

* :meth:`contain_user` — sever one principal everywhere: flag at the
  bastions, revoke broker tokens/sessions, close SSH/Jupyter sessions,
  cancel jobs;
* :meth:`emergency_stop` — shut the whole front door: bastion service
  down, tailnet down, Zenith tunnels killed.

Actions are registered by the deployment; the controller records what it
did and when, so time-to-containment is measurable (ablation ABL3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.audit import AuditLog, Outcome
from repro.clock import SimClock

__all__ = ["ContainmentAction", "KillSwitchController"]


@dataclass(frozen=True)
class ContainmentRecord:
    time: float
    verb: str        # "contain_user" | "emergency_stop" | "restore"
    target: str
    actions_run: int
    details: Dict[str, object]


class KillSwitchController:
    """Registry of containment levers, operable by the external SOC."""

    def __init__(self, clock: SimClock, *, audit: AuditLog) -> None:
        self.clock = clock
        self.audit = audit
        # name -> callable(principal) -> summary (per-user levers)
        self._user_actions: Dict[str, Callable[[str], object]] = {}
        # name -> callable() (whole-service levers), plus its restore
        self._stop_actions: Dict[str, Callable[[], None]] = {}
        self._restore_actions: Dict[str, Callable[[], None]] = {}
        self.history: List[ContainmentRecord] = []
        self.engaged = False
        # continuous authorization: when a RevocationPipeline is wired,
        # contain_user delegates to it — one journaled, retried, fenced
        # teardown instead of a best-effort lever sweep.  on_contain lets
        # the continuous authorizer pin the principal's risk score so
        # re-admission stays denied after the teardown.
        self.pipeline = None
        self.on_contain: Optional[Callable[[str], None]] = None

    # ------------------------------------------------------------------
    def register_user_action(self, name: str, action: Callable[[str], object]) -> None:
        self._user_actions[name] = action

    def register_stop_action(
        self, name: str, stop: Callable[[], None], restore: Callable[[], None]
    ) -> None:
        self._stop_actions[name] = stop
        self._restore_actions[name] = restore

    def user_levers(self) -> List[str]:
        return sorted(self._user_actions)

    def stop_levers(self) -> List[str]:
        return sorted(self._stop_actions)

    # ------------------------------------------------------------------
    def contain_user(self, principal: str) -> ContainmentRecord:
        """Sever one principal across every registered lever.

        With the revocation pipeline wired, the severing is one journaled
        intent fanned across the enforcement surfaces (crash-safe,
        retried, idempotent); without it, the legacy per-lever sweep runs.
        """
        if self.on_contain is not None:
            self.on_contain(principal)
        details: Dict[str, object] = {}
        if self.pipeline is not None:
            intent = self.pipeline.revoke(
                uid=principal, reason="killswitch.contain_user", by="soc")
            details["pipeline"] = intent.intent_id
            details.update(intent.done)
            if not intent.complete:
                details["pending"] = list(intent.pending)
            actions_run = len(intent.done)
        else:
            for name, action in self._user_actions.items():
                details[name] = action(principal)
            actions_run = len(details)
        record = ContainmentRecord(
            time=self.clock.now(),
            verb="contain_user",
            target=principal,
            actions_run=actions_run,
            details=details,
        )
        self.history.append(record)
        self.audit.record(
            self.clock.now(), "killswitch", "soc", "killswitch.contain_user",
            principal, Outcome.INFO, actions=actions_run,
        )
        return record

    def emergency_stop(self) -> ContainmentRecord:
        """Shut every registered front-door service down."""
        for action in self._stop_actions.values():
            action()
        self.engaged = True
        record = ContainmentRecord(
            time=self.clock.now(),
            verb="emergency_stop",
            target="*",
            actions_run=len(self._stop_actions),
            details={"services": sorted(self._stop_actions)},
        )
        self.history.append(record)
        self.audit.record(
            self.clock.now(), "killswitch", "soc", "killswitch.emergency_stop",
            "*", Outcome.INFO, services=len(self._stop_actions),
        )
        return record

    def restore(self) -> ContainmentRecord:
        for action in self._restore_actions.values():
            action()
        self.engaged = False
        record = ContainmentRecord(
            time=self.clock.now(),
            verb="restore",
            target="*",
            actions_run=len(self._restore_actions),
            details={},
        )
        self.history.append(record)
        return record
