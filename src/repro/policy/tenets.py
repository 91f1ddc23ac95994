"""NIST SP 800-207 tenet compliance checker.

§II.C lists the seven zero-trust tenets the Isambard design adopts.  The
checker inspects a *live, exercised* deployment — its wiring plus the
audit trails produced by real workflow runs — and produces per-tenet
evidence.  It is the engine behind the ZTA bench (experiment ZTA in
DESIGN.md): run the user stories, then ask "does the running system
exhibit each tenet?".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

__all__ = ["TenetReport", "TENET_TITLES", "check_tenets"]

TENET_TITLES = {
    1: "All data sources and computing services are considered resources",
    2: "All communication is secured regardless of network location",
    3: "Access to individual resources is granted on a per-session basis",
    4: "Access is determined by dynamic policy",
    5: "The enterprise monitors the integrity and posture of all assets",
    6: "All authentication and authorization are dynamic and strictly enforced",
    7: "The enterprise collects as much information as possible and uses it",
}


@dataclass(frozen=True)
class TenetReport:
    tenet: int
    title: str
    passed: bool
    evidence: str


def check_tenets(dri) -> List[TenetReport]:
    """Evaluate all seven tenets against an IsambardDeployment.

    The deployment should have been *used* (workflows run) before
    checking — several tenets are judged on observed behaviour, not just
    configuration.
    """
    reports: List[TenetReport] = []
    audit = dri.audit

    # T1 — resources enumerated: every service is an addressable,
    # policy-labelled endpoint (domain + zone).
    endpoints = dri.network.endpoints()
    unlabelled = [e.name for e in endpoints if not e.domain or not e.zone]
    reports.append(TenetReport(
        1, TENET_TITLES[1],
        passed=len(endpoints) > 0 and not unlabelled,
        evidence=f"{len(endpoints)} endpoints registered, all labelled "
                 f"with domain+zone" if not unlabelled
                 else f"unlabelled endpoints: {unlabelled}",
    ))

    # T2 — all communication secured: the transport layer rejected every
    # plaintext boundary crossing, and delivered messages were encrypted.
    delivered = audit.query(action="message.delivered")
    plaintext = [e for e in delivered if not e.attrs.get("encrypted", False)
                 and (e.domain or e.zone)]
    reports.append(TenetReport(
        2, TENET_TITLES[2],
        passed=len(delivered) > 0 and not plaintext,
        evidence=f"{len(delivered)} messages delivered encrypted; "
                 f"{audit.count(action='transport.plaintext_rejected')} plaintext "
                 f"attempts rejected" if not plaintext
                 else f"{len(plaintext)} plaintext deliveries observed",
    ))

    # T3 — per-session access: every token and session is time-limited.
    max_ttl = dri.broker.tokens.max_ttl
    session_ttls = [dri.broker.sessions.ttl, dri.myaccessid.sessions.ttl]
    bounded = max_ttl <= 24 * 3600 and all(t <= 24 * 3600 for t in session_ttls)
    minted = audit.count(action="rbac.mint")
    reports.append(TenetReport(
        3, TENET_TITLES[3],
        passed=bounded and minted > 0,
        evidence=f"{minted} short-lived tokens minted, max TTL {max_ttl:.0f}s; "
                 f"session TTLs {[f'{t:.0f}s' for t in session_ttls]}",
    ))

    # T4 — dynamic policy: the broker consulted the portal's live ACLs
    # during logins and mints (observable as authz traffic), and the
    # policy engine holds posture rules.
    authz_queries = len([
        e for e in audit.query(action="message.delivered")
        if e.attrs.get("path") == "/authz"
    ])
    rules = len(dri.policy_engine.rules())
    reports.append(TenetReport(
        4, TENET_TITLES[4],
        passed=authz_queries > 0 and rules > 0,
        evidence=f"{authz_queries} live authorisation queries observed; "
                 f"{rules} dynamic policy rules active",
    ))

    # T5 — posture monitoring: inventory covers cloud/SWS assets and a
    # configuration assessment exists and scores.
    assets = len(dri.soc.inventory.assets())
    checks = len(dri.soc.assessment)
    reports.append(TenetReport(
        5, TENET_TITLES[5],
        passed=assets > 0 and checks > 0,
        evidence=f"{assets} assets inventoried; {checks} configuration "
                 f"checks, score {dri.soc.assessment.score():.0%}",
    ))

    # T6 — dynamic, strictly-enforced authn/authz: denials actually
    # happen (default-deny is live), and issuance is audited.
    denials = audit.count(outcome="denied")
    issuance = audit.count(action="rbac.mint") + audit.count(action="token.issued")
    reports.append(TenetReport(
        6, TENET_TITLES[6],
        passed=denials > 0 and issuance > 0,
        evidence=f"{denials} denials and {issuance} audited issuances observed",
    ))

    # T7 — telemetry collected and used: the SOC ingested records from
    # multiple domains and rules run over them.
    ingested = dri.soc.records_ingested
    domains = dri.soc.domains - {""}
    reports.append(TenetReport(
        7, TENET_TITLES[7],
        passed=ingested > 0 and len(domains) >= 2,
        evidence=f"{ingested} records ingested from domains {sorted(domains)}; "
                 f"{len(dri.soc.alerts)} alerts raised",
    ))
    return reports
