"""The externally managed kill switch.

§III.B: the design "makes implementation of an externally managed 'kill
switch' easier in case of a threat and attack, without waiting for a
direct intervention from the Isambard team".  The controller puts the
deployment's containment behind two verbs:

* :meth:`contain_user` — sever one principal everywhere: flag it (and
  every UNIX account of its uid) at the bastions, then run the one
  sever the deployment hands it — the walk over every enforcement
  surface (``IsambardDeployment.sever``), or with continuous
  authorization the journaled revocation pipeline, which drives the
  same walk one surface at a time;
* :meth:`emergency_stop` — shut the whole front door: bastion service
  down, tailnet down, Zenith tunnels killed.

The controller records what it did and when, so time-to-containment is
measurable (ablation ABL3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional

from repro.audit import AuditLog, Outcome
from repro.clock import SimClock

__all__ = ["ContainmentRecord", "KillSwitchController"]


@dataclass(frozen=True)
class ContainmentRecord:
    time: float
    verb: str        # "contain_user" | "emergency_stop" | "restore"
    target: str
    actions_run: int
    details: Dict[str, object]


class KillSwitchController:
    """The containment verbs the external SOC operates.

    ``flag(principal)`` refuses a principal at the bastions and returns
    the subjects it flagged; ``sever(principal)`` ends its grants and
    returns ``{surface: count}`` for each surface it severed.  A
    containment's ``actions_run`` counts the flag and those surfaces.
    ``on_contain`` (continuous authorization) pins the principal's risk
    score so re-admission stays denied after the teardown.
    """

    def __init__(self, clock: SimClock, *, audit: AuditLog,
                 flag: Callable[[str], List[str]],
                 sever: Callable[[str], Mapping[str, object]]) -> None:
        self.clock = clock
        self.audit = audit
        self.flag = flag
        self.sever = sever
        # name -> callable() (whole-service levers), plus its restore
        self._stop_actions: Dict[str, Callable[[], None]] = {}
        self._restore_actions: Dict[str, Callable[[], None]] = {}
        self.history: List[ContainmentRecord] = []
        self.engaged = False
        self.on_contain: Optional[Callable[[str], None]] = None

    # ------------------------------------------------------------------
    def register_stop_action(
        self, name: str, stop: Callable[[], None], restore: Callable[[], None]
    ) -> None:
        self._stop_actions[name] = stop
        self._restore_actions[name] = restore

    def stop_levers(self) -> List[str]:
        return sorted(self._stop_actions)

    # ------------------------------------------------------------------
    def contain_user(self, principal: str) -> ContainmentRecord:
        """Flag one principal at the bastions, then sever it everywhere."""
        if self.on_contain is not None:
            self.on_contain(principal)
        details: Dict[str, object] = {"bastion-flag": self.flag(principal),
                                      **self.sever(principal)}
        record = ContainmentRecord(
            time=self.clock.now(),
            verb="contain_user",
            target=principal,
            actions_run=len(details),
            details=details,
        )
        self.history.append(record)
        self.audit.record(
            self.clock.now(), "killswitch", "soc", "killswitch.contain_user",
            principal, Outcome.INFO, actions=len(details),
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
