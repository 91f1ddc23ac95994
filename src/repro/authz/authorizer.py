"""Continuous re-evaluation: access is a loop, not a gate.

Classic SSO checks policy once, at issuance; zero trust demands the
check never stops.  Three pieces implement that here:

* :class:`PolicyDecisionPoint` — the PDP facade over the deployment's
  :class:`~repro.policy.engine.PolicyEngine`.  It can be taken down by
  the ``pdp_down`` chaos fault, at which point enforcement surfaces
  must decide what to do without fresh decisions.
* :class:`AuthzGuard` — the per-surface PEP-side check.  While the PDP
  answers, admissions refresh the heartbeat; when it is unreachable,
  admissions ride the last good heartbeat for at most
  ``staleness_bound`` seconds and then **fail closed**
  (:class:`~repro.errors.ServiceUnavailable`), never serving a stale
  ALLOW — mirroring the multi-region lag watchdog's contract.
* :class:`ContinuousAuthorizer` — the re-evaluation loop.  Every
  ``reeval_interval`` it replays each identity with live grants through
  the policy engine; an assurance drop, a SOC containment, a
  threat-score jump or a kill-switch activation flips the decision to
  deny and the loop hands the identity to the revocation pipeline.
"""

from __future__ import annotations

from typing import Dict

from repro.audit import AuditLog, Outcome
from repro.clock import SimClock
from repro.errors import ServiceUnavailable
from repro.policy.engine import AccessContext, PolicyEngine

from repro.authz.config import MIN_LOA, REEVAL_INTERVAL, STALENESS_BOUND
from repro.authz.pipeline import RevocationPipeline
from repro.authz.registry import SessionRegistry

__all__ = ["PolicyDecisionPoint", "AuthzGuard", "ContinuousAuthorizer"]


class PolicyDecisionPoint:
    """The PDP: one place every continuous-authorization query lands.

    Every evaluation — allow or deny — is recorded in the provenance
    ledger with the matched rule, the policy pack version and the
    decision inputs (assurance, threat score), so ``explain(identity)``
    can answer *why* afterwards.
    """

    def __init__(self, clock: SimClock, engine: PolicyEngine, *,
                 provenance) -> None:
        self.clock = clock
        self.engine = engine
        self.provenance = provenance
        self.up = True
        self.decisions = 0

    def decide(self, ctx: AccessContext):
        if not self.up:
            raise ServiceUnavailable("policy decision point unreachable")
        self.decisions += 1
        decision = self.engine.evaluate(ctx)
        self.provenance.record(
            self.clock.now(),
            str(ctx.attrs.get("surface", "pdp")),
            "allow" if decision.allowed else "deny",
            ctx.subject,
            spiffe_id=str(ctx.attrs.get("spiffe_id", "")),
            resource=ctx.resource,
            rule=decision.rule or "default-deny",
            reason=decision.reason,
            pack_version=self.engine.pack_version,
            loa=ctx.loa,
            threat_score=ctx.risk_score,
        )
        return decision

    def down(self) -> None:
        self.up = False

    def restore(self) -> None:
        self.up = True


class AuthzGuard:
    """PEP-side staleness watchdog shared by every enforcement surface.

    ``check(surface)`` is called on every admission (token mint, SSH
    session open, tunnel route, notebook spawn, job submit):

    * PDP up      → refresh the heartbeat, admit;
    * PDP down, heartbeat younger than ``staleness_bound`` → admit on
      the cached posture (counted as a stale allow);
    * PDP down past the bound → **fail closed**: raise
      :class:`~repro.errors.ServiceUnavailable` so the surface denies
      rather than admitting on arbitrarily old policy.
    """

    def __init__(self, clock: SimClock, pdp: PolicyDecisionPoint, *,
                 audit: AuditLog, telemetry,
                 staleness_bound: float = STALENESS_BOUND) -> None:
        self.clock = clock
        self.pdp = pdp
        self.staleness_bound = staleness_bound
        self.audit = audit
        self.telemetry = telemetry
        self.last_ok = clock.now()
        self.stale_allows = 0
        self.fail_closed_denials = 0

    def heartbeat(self) -> None:
        if self.pdp.up:
            self.last_ok = self.clock.now()

    def age(self) -> float:
        return self.clock.now() - self.last_ok

    def check(self, surface: str, *, actor: str = "") -> None:
        now = self.clock.now()
        if self.pdp.up:
            self.last_ok = now
            return
        if now - self.last_ok <= self.staleness_bound:
            self.stale_allows += 1
            # a stale allow leaves no audit event (the admission itself
            # is audited by the surface), but the provenance ledger must
            # still show the PDP heartbeat age this admission rode on
            self.telemetry.provenance.record(
                now, surface, "allow", actor or "?",
                reason="stale-allow-within-bound",
                pdp_staleness=now - self.last_ok,
            )
            return
        self.fail_closed_denials += 1
        self.telemetry.authz_fail_closed.inc(surface=surface)
        self.audit.record(
            now, "authz-guard", actor or "?", "authz.fail_closed",
            surface, Outcome.DENIED,
            reason="pdp-unreachable-past-staleness-bound",
            age=round(now - self.last_ok, 6),
            bound=self.staleness_bound,
        )
        raise ServiceUnavailable(
            f"{surface}: policy decision point unreachable for "
            f"{now - self.last_ok:.1f}s (> {self.staleness_bound:.1f}s "
            "staleness bound); failing closed"
        )


class ContinuousAuthorizer:
    """Re-checks every live grant against policy, continuously.

    Signals that trigger (or feed) re-evaluation:

    * the periodic tick (``reeval_interval``);
    * :meth:`set_threat_score` — SOC page / threat-score jump;
    * :meth:`assurance_changed` — IdP assurance (LoA) change;
    * :meth:`note_containment` — the kill switch marking a principal
      contained (risk 1.0), so re-admission stays denied after teardown;
    * :meth:`on_alert` — wired as a SIEM alert subscriber.
    """

    def __init__(self, clock: SimClock, *,
                 registry: SessionRegistry,
                 pipeline: RevocationPipeline,
                 pdp: PolicyDecisionPoint,
                 guard: AuthzGuard,
                 audit: AuditLog) -> None:
        self.clock = clock
        self.registry = registry
        self.pipeline = pipeline
        self.pdp = pdp
        self.guard = guard
        self.audit = audit
        self._risk: Dict[str, float] = {}    # uid -> SOC risk score
        self._loa: Dict[str, int] = {}       # uid -> current assurance
        self._started = False
        self.ticks = 0
        self.reevaluations = 0
        self.revocations_triggered = 0

    # ------------------------------------------------------------- loop
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.clock.call_later(REEVAL_INTERVAL, self._tick)

    def _tick(self) -> None:
        self.ticks += 1
        if self.pdp.up:
            self.guard.heartbeat()
            self.pipeline.drive_pending()
            self.reevaluate_all()
        self.clock.call_later(REEVAL_INTERVAL, self._tick)

    def reevaluate_all(self) -> int:
        """One sweep over every identity with live grants."""
        revoked = 0
        for spiffe in self.registry.identities_with_live_grants():
            if self._reevaluate_identity(spiffe):
                revoked += 1
        return revoked

    def _reevaluate_identity(self, spiffe_id: str) -> bool:
        uid = self.registry.graph.uid_of(spiffe_id)
        ctx = AccessContext(
            subject=uid, role="user", capability="session.continue",
            resource="live-session",
            loa=self._loa.get(uid, MIN_LOA),
            risk_score=self._risk.get(uid, 0.0),
            time=self.clock.now(),
            attrs={"continuous": True, "spiffe_id": spiffe_id},
        )
        try:
            decision = self.pdp.decide(ctx)
        except ServiceUnavailable:
            return False  # picked up again once the PDP heals
        self.reevaluations += 1
        if decision.allowed:
            return False
        self.revocations_triggered += 1
        self.audit.record(
            self.clock.now(), "continuous-authorizer", uid,
            "authz.reevaluation", spiffe_id, Outcome.DENIED,
            rule=decision.rule or "default-deny",
            reason=decision.reason, spiffe_id=spiffe_id,
        )
        self.pipeline.revoke(
            spiffe_id=spiffe_id,
            reason=f"policy:{decision.rule or 'default-deny'}",
            by="continuous-authorizer",
        )
        return True

    # ---------------------------------------------------------- signals
    def set_threat_score(self, uid: str, score: float) -> None:
        """SOC page / threat-score jump: re-evaluate immediately."""
        self._risk[uid] = score
        self._maybe_reevaluate(uid)

    def assurance_changed(self, uid: str, loa: int) -> None:
        """IdP assurance change (step-down, credential expiry)."""
        self._loa[uid] = loa
        self._maybe_reevaluate(uid)

    def note_containment(self, uid: str) -> None:
        """Kill-switch hook: pin the risk score at contained WITHOUT an
        immediate re-evaluation (the kill switch already drove the
        pipeline); keeps the deny sticky for later re-admissions."""
        self._risk[uid] = 1.0

    def on_alert(self, alert) -> None:
        """SIEM alert subscriber: an alert about an actor maxes their
        threat score, which the policy pack's containment rule denies."""
        actor = getattr(alert, "actor", "") or ""
        if actor and actor != "?":
            self.set_threat_score(actor, 1.0)

    def _maybe_reevaluate(self, uid: str) -> None:
        if not self.pdp.up:
            return  # the tick after heal converges this identity
        spiffe = self.registry.graph.identity_of(uid)
        if self.registry.live_grants(spiffe):
            self._reevaluate_identity(spiffe)
