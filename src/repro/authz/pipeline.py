"""The revocation pipeline: one journaled outbox over the one sever.

A principal is severed by one walk, ``IsambardDeployment.sever``: every
holder in ``dri.surfaces()`` (the list the session registry reads) is
called for the uid and each of its UNIX accounts.  The portal, the kill
switch and this pipeline all run that walk; the pipeline adds only what
a crash-safe teardown needs on top of it:

* ``revoke(uid=..., reason=...)`` (or by spiffe id) resolves the
  canonical SPIFFE id, journals a :class:`RevocationIntent` into a
  write-ahead outbox, *then* drives the registered enforcement points in
  :data:`~repro.authz.config.SURFACES` order — each point is the walk
  restricted to one surface, whole-user (``project`` is audit metadata);
* each surface's sever is idempotent, so retries and replays are
  harmless;
* a surface that fails (or is stuck — see the ``teardown_stuck`` fault)
  leaves the intent pending; a retry timer re-drives it until every
  surface confirms;
* a crash between journal publish and enforcement is exactly the outage
  the outbox exists for: ``recover()`` replays the intent and
  ``verify_recovery`` re-drives everything still pending.

Time-to-revoke (TTR) is measured from intent creation to the last
surface confirming, and exported as the ``repro_authz_ttr_seconds``
histogram so benches can hold the p99 against the configured bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from repro.audit import AuditLog, Outcome
from repro.clock import SimClock
from repro.errors import ConfigurationError, ReproError
from repro.resilience.durability import Durable

from repro.authz.config import RETRY_INTERVAL, SURFACES
from repro.authz.registry import SessionRegistry

__all__ = ["RevocationIntent", "RevocationPipeline"]


@dataclass
class RevocationIntent:
    """One journaled revocation: who, why, and how far teardown got."""

    intent_id: str
    spiffe_id: str
    uid: str
    project: str = ""
    credential: str = ""
    reason: str = ""
    by: str = "pipeline"
    requested_at: float = 0.0
    # surface -> number of grants/artefacts torn down there
    done: Dict[str, int] = field(default_factory=dict)
    completed_at: Optional[float] = None

    @property
    def pending(self) -> List[str]:
        return [s for s in SURFACES if s not in self.done]

    @property
    def complete(self) -> bool:
        return not self.pending

    def ttr(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.requested_at


class RevocationPipeline(Durable):
    """Fans revocation intents out to every enforcement surface.

    When the deployment runs with ``durability=True`` the pipeline is
    attached to a journal and its outbox survives crashes; without one,
    ``commit`` only applies and the outbox is in-memory only.

    Parameters
    ----------
    clock, registry, audit, telemetry:
        The usual simulation plumbing; registry resolves identities and
        names the ones a storm hits (a grant a surface severs is gone
        from it at once).
    retry_interval:
        How long to wait before re-driving intents left pending by a
        failed or stuck surface.
    """

    name = "authz-pipeline"

    def __init__(self, clock: SimClock, *,
                 registry: SessionRegistry,
                 audit: AuditLog,
                 telemetry,
                 retry_interval: float = RETRY_INTERVAL) -> None:
        self.clock = clock
        self.registry = registry
        self.audit = audit
        self.telemetry = telemetry
        self.retry_interval = retry_interval
        # surface -> enforcement action(intent) -> count torn down
        self._points: Dict[str, Callable[[RevocationIntent], int]] = {}
        self._stuck: Set[str] = set()
        self.wipe_state()
        # counters for benches / invariants
        self.revocations = 0
        self.enforcements = 0
        self.retries = 0
        self.resumed = 0
        self.storms_coalesced = 0

    # ---------------------------------------------------------- wiring
    def register_point(self, surface: str,
                       action: Callable[[RevocationIntent], int]) -> None:
        """Register the teardown action for one enforcement surface."""
        if surface not in SURFACES:
            raise ConfigurationError(
                f"unknown enforcement surface {surface!r}; "
                f"expected one of {SURFACES}")
        self._points[surface] = action

    # ---------------------------------------------------------- revoke
    def revoke(self, *, uid: str = "", spiffe_id: str = "",
               credential: str = "", project: str = "",
               reason: str, by: str = "pipeline") -> RevocationIntent:
        """Journal and drive one revocation intent.

        Exactly one of ``uid`` / ``spiffe_id`` identifies the subject
        (``credential`` / ``project`` narrow the scope).  Identical
        still-pending intents are coalesced, so a revocation storm
        against one identity does one teardown, not N.
        """
        if spiffe_id and not uid:
            uid = self.registry.graph.uid_of(spiffe_id)
        if uid and not spiffe_id:
            spiffe_id = self.registry.graph.identity_of(uid)
        if not spiffe_id:
            raise ConfigurationError("revoke() needs a uid or spiffe_id")
        # coalesce: an identical teardown already in flight absorbs this one
        for intent in self._iter_intents():
            if (not intent.complete and intent.spiffe_id == spiffe_id
                    and intent.project == project
                    and intent.credential == credential):
                self.storms_coalesced += 1
                self._drive(intent)
                return intent
        # write-ahead: the intent hits the outbox BEFORE any enforcement,
        # so a crash mid-teardown resumes instead of orphaning sessions
        intent = self.commit("authz.intent", {
            "intent_id": f"rev-{self._next_intent + 1}", "spiffe_id": spiffe_id,
            "uid": uid, "project": project, "credential": credential,
            "reason": reason, "by": by, "requested_at": self.clock.now(),
        })
        self.revocations += 1
        self.telemetry.authz_revocations.inc(reason=reason)
        self._drive(intent)
        return intent

    # ----------------------------------------------------------- drive
    def _drive(self, intent: RevocationIntent) -> None:
        for surface in SURFACES:
            if surface in intent.done:
                continue  # idempotent: already confirmed
            if surface in self._stuck:
                continue  # chaos: teardown wedged, retry later
            action = self._points.get(surface)
            if action is None:
                continue  # surface not wired in this deployment shape
            try:
                count = int(action(intent))
            except ReproError:
                continue  # enforcement failed; stays pending for retry
            self.commit("authz.enforced", {
                "intent_id": intent.intent_id, "surface": surface,
                "count": count})
            self.enforcements += 1
        if intent.complete and intent.completed_at is None:
            now = self.clock.now()
            self.commit("authz.complete",
                        {"intent_id": intent.intent_id, "completed_at": now})
            ttr = intent.ttr() or 0.0
            self.telemetry.authz_ttr.observe(ttr, time=now)
            self._audit(intent, Outcome.SUCCESS, ttr=round(ttr, 6))
        elif not intent.complete:
            self._audit(intent, Outcome.INFO,
                        pending=",".join(intent.pending))
            self._schedule_retry()

    def drive_pending(self) -> int:
        """Re-drive every pending intent (retry tick, unstick, heal)."""
        pending = [i for i in self._iter_intents() if not i.complete]
        for intent in pending:
            self._drive(intent)
        return len(pending)

    def pending_intents(self) -> List[RevocationIntent]:
        return [i for i in self._iter_intents() if not i.complete]

    def _iter_intents(self) -> List[RevocationIntent]:
        """Intents in deterministic (creation) order."""
        return [self._intents[k] for k in
                sorted(self._intents, key=lambda i: int(i.split("-")[1]))]

    def _schedule_retry(self) -> None:
        if self._retry_armed:
            return
        self._retry_armed = True
        self.clock.call_later(self.retry_interval, self._retry_tick)

    def _retry_tick(self) -> None:
        self._retry_armed = False
        self.retries += 1
        if self.drive_pending() and self.pending_intents():
            self._schedule_retry()

    # ----------------------------------------------------------- chaos
    def stick(self, surface: str) -> None:
        """Wedge one surface's teardown (the ``teardown_stuck`` fault)."""
        self._stuck.add(surface)

    def unstick(self, surface: str) -> None:
        self._stuck.discard(surface)
        if self.pending_intents():
            self.drive_pending()

    def inject_storm(self, count: int) -> int:
        """Fire ``count`` revocations across identities with live grants
        (the ``revocation_storm`` fault); duplicates coalesce."""
        identities = self.registry.identities_with_live_grants()
        if not identities:
            return 0
        fired = 0
        for i in range(count):
            spiffe = identities[i % len(identities)]
            self.revoke(spiffe_id=spiffe, reason="chaos-storm", by="chaos")
            fired += 1
        return fired

    # ------------------------------------------------- durable contract
    def durable_state(self) -> Dict[str, object]:
        return {
            "next_intent": self._next_intent,
            "intents": [
                {
                    "intent_id": i.intent_id, "spiffe_id": i.spiffe_id,
                    "uid": i.uid, "project": i.project,
                    "credential": i.credential, "reason": i.reason,
                    "by": i.by, "requested_at": i.requested_at,
                    "done": dict(i.done), "completed_at": i.completed_at,
                }
                for i in self._iter_intents()
            ],
        }

    def load_state(self, state: Dict[str, object]) -> None:
        self._next_intent = int(state.get("next_intent", 0))  # type: ignore[arg-type]
        for rec in state.get("intents", []):  # type: ignore[union-attr]
            intent = RevocationIntent(
                intent_id=str(rec["intent_id"]),
                spiffe_id=str(rec["spiffe_id"]),
                uid=str(rec["uid"]), project=str(rec.get("project", "")),
                credential=str(rec.get("credential", "")),
                reason=str(rec.get("reason", "")),
                by=str(rec.get("by", "pipeline")),
                requested_at=float(rec.get("requested_at", 0.0)),
                done={str(k): int(v) for k, v in rec.get("done", {}).items()},
                completed_at=rec.get("completed_at"),
            )
            self._intents[intent.intent_id] = intent

    def apply_entry(self, kind: str, data: Dict[str, object]) -> object:
        """Returns the new intent for ``authz.intent``."""
        if kind == "authz.intent":
            intent = RevocationIntent(**data)
            self._intents[intent.intent_id] = intent
            seq = int(intent.intent_id.split("-")[1])
            self._next_intent = max(self._next_intent, seq)
            return intent
        intent = self._intents.get(data["intent_id"])
        if intent is None:
            return None
        if kind == "authz.enforced":
            intent.done[data["surface"]] = data["count"]
        elif kind == "authz.complete":
            intent.completed_at = data["completed_at"]
        return None

    def wipe_state(self) -> None:
        self._intents: Dict[str, RevocationIntent] = {}
        self._next_intent = 0
        self._retry_armed = False

    def verify_recovery(self, report) -> None:
        """The outbox guarantee: anything journaled but not confirmed on
        every surface is re-driven now, on restart."""
        pending = self.pending_intents()
        self.resumed += len(pending)
        if pending:
            self.drive_pending()

    # ------------------------------------------------------------ audit
    def _audit(self, intent: RevocationIntent, outcome: str, **attrs) -> None:
        self.audit.record(
            self.clock.now(), self.name, intent.by, "authz.revoked",
            intent.spiffe_id, outcome,
            intent=intent.intent_id, reason=intent.reason,
            spiffe_id=intent.spiffe_id, **attrs,
        )
