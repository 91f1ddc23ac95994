"""Wire continuous authorization into a built deployment.

``build_isambard`` calls :func:`add_assurance_floor` while it assembles
the policy pack and :func:`install` once the Fig. 1 base (and the
durability tier, if on) exists.  See ``docs/architecture.md``,
"Continuous authorization".
"""

from __future__ import annotations

from typing import Dict

from repro.authz import AuthzRuntime
from repro.authz.authorizer import (
    AuthzGuard,
    ContinuousAuthorizer,
    PolicyDecisionPoint,
)
from repro.authz.config import MIN_LOA, SURFACES, TRUST_DOMAIN
from repro.authz.identity import IdentityGraph
from repro.authz.pipeline import RevocationPipeline
from repro.authz.registry import SessionRegistry

__all__ = ["add_assurance_floor", "install"]


def add_assurance_floor(engine) -> None:
    """The one rule that must sit *ahead of* the standard pack's
    capability allow: a live session whose identity's LoA stepped below
    the floor is denied on re-evaluation and handed to the revocation
    pipeline."""
    engine.deny(
        "assurance-below-floor",
        lambda c: bool(c.attrs.get("continuous")) and c.loa < MIN_LOA,
        reason="identity assurance below the continuous-session floor",
    )


def install(dri) -> None:
    """Identity graph, session registry, journaled revocation pipeline,
    fail-closed PDP guard and the re-evaluation loop — attached to every
    admission path and every revocation source of the deployment."""
    clock, tele, logs = dri.clock, dri.telemetry, dri.logs
    graph = IdentityGraph(TRUST_DOMAIN, authority=dri.spire)
    registry = SessionRegistry(dri, graph)
    pdp = PolicyDecisionPoint(clock, dri.policy_engine,
                              provenance=tele.provenance)
    guard = AuthzGuard(clock, pdp, audit=logs["fds"], telemetry=tele)
    pipeline = RevocationPipeline(
        clock, registry=registry, audit=logs["sec"], telemetry=tele)
    authorizer = ContinuousAuthorizer(
        clock, registry=registry, pipeline=pipeline, pdp=pdp,
        guard=guard, audit=logs["sec"],
    )

    # provenance enricher: fields the audit bridge cannot see at the
    # emitting surface — assurance tier, SOC threat score, PDP heartbeat
    # age, policy pack version — resolved at record time from the
    # continuous-authorization state
    def enrich_decision(subject: str) -> Dict[str, object]:
        return {
            "pack_version": dri.policy_engine.pack_version,
            "loa": authorizer._loa.get(subject, MIN_LOA),
            "threat_score": authorizer._risk.get(subject, 0.0),
            "pdp_staleness": round(guard.age(), 6),
        }

    tele.provenance.enricher = enrich_decision

    # each enforcement point is the deployment's walk restricted to one
    # surface, whole-user: intent.project stays audit metadata only
    for surface in SURFACES:
        pipeline.register_point(
            surface, lambda intent, surface=surface: dri.sever(
                intent.uid, by="revocation-pipeline",
                surface=surface)[surface])

    # the surfaces that stamp a canonical identity into what they grant
    # or audit read it off the graph; every admission path fails closed
    # when the PDP is unreachable past the staleness bound.  The registry
    # reads the grants themselves off the surfaces when asked
    for surface in (dri.broker.tokens, dri.ssh_ca, dri.jupyter,
                    *dri.login_nodes, dri.portal):
        surface.identity_graph = graph
    for surface in (dri.broker.tokens, dri.zenith, dri.jupyter,
                    *dri.login_nodes, *dri.schedulers):
        surface.authz_guard = guard
    # without durability the sshds have no issuance registry wired;
    # the CA-side revocation set must still bite on live certs
    for sshd in dri.login_nodes:
        if sshd.cert_registry is None:
            sshd.cert_registry = (
                lambda serial, key_id:
                dri.ssh_ca.cert_registered(serial, key_id))

    # portal: principals get canonical ids at onboarding, revocations
    # ride the pipeline (one intent, four surfaces, crash-safe), and its
    # recovery resync re-drives any teardown a crash interrupted
    dri.portal.on_revoke = (
        lambda uid, project, account: pipeline.revoke(
            uid=uid, project=project, reason="portal-revocation",
            by="portal"))
    dri.portal.authz_resync = (
        lambda uid, project, account: pipeline.revoke(
            uid=uid, project=project,
            reason="portal-recovery-resync", by="portal-recovery"))

    # the kill switch severs through the pipeline (a surface it has not
    # reached yet stays pending there); SOC alerts feed the threat score
    # the containment policy rule denies on
    dri.killswitch.sever = lambda principal: dict(pipeline.revoke(
        uid=principal, reason="killswitch.contain_user", by="soc").done)
    dri.killswitch.on_contain = authorizer.note_containment
    dri.soc.escalate = authorizer.on_alert

    # chaos: pdp_down / teardown_stuck / revocation_storm faults
    def pdp_restore() -> None:
        pdp.restore()
        guard.heartbeat()
        pipeline.drive_pending()
        authorizer.reevaluate_all()

    dri.faults.register_pdp_hooks(pdp.down, pdp_restore)
    dri.faults.register_teardown_hooks(pipeline.stick, pipeline.unstick)
    dri.faults.register_storm_hook(pipeline.inject_storm)

    if dri.durability is not None:
        # the outbox is the durable piece: journal it so a crash
        # between intent publish and enforcement resumes on recover —
        # the journal replays the intents and verify_recovery re-drives
        # everything still pending
        pipeline.attach_journal(dri.durability.stream("authz-pipeline"))
        dri.add_crash_target("authz", lambda: pipeline, lambda up: None)
    authorizer.start()
    dri.authz = AuthzRuntime(
        graph=graph, registry=registry,
        pipeline=pipeline, pdp=pdp, guard=guard, authorizer=authorizer,
    )
