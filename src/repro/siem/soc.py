"""The Security Operations Centre in the Security Services domain.

§III.D: a "virtual central Security Operations Centre" in public cloud,
in a different account from FDS, following the AWS Security Reference
Architecture.  Its three tasks — log aggregation/detection, VM
inventory/vulnerability tracking, and configuration assessment — each
have a module; this service ties them together and adds:

* an ingest endpoint the log forwarders ship batches to;
* alert storage with an escalation hook (the external NCC 24/7
  monitoring service);
* optional auto-containment: critical alerts trigger the kill switch
  without waiting for a human.
"""

from __future__ import annotations

from operator import is_not
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.audit import AuditLog, Outcome
from repro.broker.rbac import require_capability
from repro.broker.tokens import RbacTokenValidator
from repro.clock import SimClock
from repro.errors import AuthenticationError
from repro.net.http import HttpRequest, HttpResponse, Service, route
from repro.siem.configassess import ConfigAssessment
from repro.siem.detections import Alert, DetectionRule, standard_rules
from repro.siem.inventory import AssetInventory
from repro.siem.killswitch import KillSwitchController

__all__ = ["SecurityOperationsCentre"]


class SecurityOperationsCentre(Service):
    """The SOC service (endpoint in SEC / Security zone).

    Parameters
    ----------
    validator:
        RBAC validator for audience ``"soc"`` — ingest uses service
        tokens, the alert view requires ``soc.view``.
    escalate:
        Hook called with each alert (the external 24/7 monitoring
        service).  Must not raise.
    killswitch:
        When set with ``auto_contain=True``, critical alerts trigger
        :meth:`KillSwitchController.contain_user` on the alert's actor.
    """

    def __init__(
        self,
        name: str,
        clock: SimClock,
        validator: RbacTokenValidator,
        *,
        audit: AuditLog,
        rules: Optional[List[DetectionRule]] = None,
        escalate: Optional[Callable[[Alert], None]] = None,
        killswitch: Optional[KillSwitchController] = None,
        auto_contain: bool = False,
        contain_severities: frozenset = frozenset({"critical", "high"}),
    ) -> None:
        super().__init__(name)
        self.clock = clock
        self.validator = validator
        self.audit = audit
        self.rules = rules if rules is not None else standard_rules()
        # the rules each (action, outcome) pair is routed to, for the pack
        # they were read off (ingest_batch re-reads them when rules change)
        self._rule_pack: Tuple[DetectionRule, ...] = ()
        self._rule_routes: Dict[Tuple[str, str], Tuple[DetectionRule, ...]] = {}
        self.escalate = escalate
        self.killswitch = killswitch
        self.auto_contain = auto_contain
        self.contain_severities = frozenset(contain_severities)
        # optional SPIFFE-style workload authentication for ingest: when
        # set, shippers must present a valid SVID under allowed paths
        self.trust_authority = None
        self.allowed_svid_prefixes: tuple = ()
        self.inventory = AssetInventory()
        self.assessment = ConfigAssessment()
        self.records_ingested = 0
        # the domains records arrived from (the T7 tenet check); the SOC
        # keeps no copy of the records themselves
        self.domains: Set[str] = set()
        self.alerts: List[Alert] = []
        self.contained: List[str] = []
        # decision provenance (attached by the deployment when telemetry
        # is on): feeds the scoreboard and the post-mortem explain views
        self.provenance = None
        self.span_pipeline = None

    def attach_provenance(self, ledger, span_store=None) -> None:
        """Give the SOC the provenance ledger (and, when it runs under a
        pipeline budget, the span store) its scoreboard reads."""
        self.provenance = ledger
        if span_store is not None and span_store.config is not None:
            self.span_pipeline = span_store

    # ------------------------------------------------------------------
    # ingest (called by forwarders, over the network or directly)
    # ------------------------------------------------------------------
    def ingest_batch(self, records: List[Dict[str, object]]) -> List[Alert]:
        """Show every record to the rules that read it, in pack order;
        handle new alerts.

        A record is routed on its ``(str(action), str(outcome))`` pair
        (:meth:`DetectionRule.reads`); the route of each pair is worked
        out once and cached, and the cache starts over whenever
        ``self.rules`` no longer holds the very rules it was read off."""
        rules, pack = self.rules, self._rule_pack
        if len(rules) != len(pack) or any(map(is_not, rules, pack)):
            pack = self._rule_pack = tuple(rules)
            self._rule_routes = {}
        routes = self._rule_routes
        new_alerts: List[Alert] = []
        for record in records:
            self.domains.add(str(record.get("domain", "")))
            pair = (str(record.get("action", "")),
                    str(record.get("outcome", "")))
            route = routes.get(pair)
            if route is None:
                route = routes[pair] = tuple(
                    rule for rule in pack if rule.reads(*pair))
            for rule in route:
                alert = rule.see(record)
                if alert is not None:
                    new_alerts.append(alert)
        self.records_ingested += len(records)
        for alert in new_alerts:
            self._handle_alert(alert)
        return new_alerts

    def require_workload_identity(self, authority, *prefixes: str) -> None:
        """Demand a valid SVID (under one of ``prefixes``) on ingest, in
        addition to the service RBAC token — defence in depth for the
        pipeline that feeds every detection."""
        self.trust_authority = authority
        self.allowed_svid_prefixes = tuple(prefixes)

    @route("POST", "/ingest")
    def ingest_endpoint(self, request: HttpRequest) -> HttpResponse:
        token = request.bearer_token()
        if token is None:
            raise AuthenticationError("SOC ingest requires a service token")
        claims = self.validator.validate(token)
        require_capability(claims, "authz.query")  # service-role tokens
        if self.trust_authority is not None:
            svid = request.headers.get("X-Workload-SVID", "")
            identity = self.trust_authority.validate_svid(svid)  # raises
            if self.allowed_svid_prefixes and not any(
                identity.matches(p) for p in self.allowed_svid_prefixes
            ):
                raise AuthenticationError(
                    f"workload {identity.spiffe_id} may not ship logs"
                )
        records = request.body.get("records", [])
        if not isinstance(records, list):
            return HttpResponse.error(400, "records must be a list")
        alerts = self.ingest_batch(records)
        return HttpResponse.json({"ingested": len(records), "alerts": len(alerts)})

    def raise_alert(self, alert: Alert) -> None:
        """Accept an alert originated outside the rule pack (burn-rate
        SLO monitors, the trace anomaly scanner): stored, audited,
        escalated and — severity permitting — auto-contained exactly
        like a rule hit."""
        self._handle_alert(alert)

    def _handle_alert(self, alert: Alert) -> None:
        self.alerts.append(alert)
        self.audit.record(
            alert.time, self.name, alert.actor, f"alert.{alert.rule}",
            alert.summary, Outcome.INFO, severity=alert.severity,
        )
        if self.escalate is not None:
            try:
                self.escalate(alert)
            except Exception:
                pass  # the external service must never break ingestion
        if (
            self.auto_contain
            and self.killswitch is not None
            and alert.severity in self.contain_severities
            and alert.actor
            and alert.actor not in self.contained
        ):
            self.killswitch.contain_user(alert.actor)
            self.contained.append(alert.actor)

    # ------------------------------------------------------------------
    # views (admin-security role)
    # ------------------------------------------------------------------
    @route("GET", "/alerts")
    def alerts_view(self, request: HttpRequest) -> HttpResponse:
        token = request.bearer_token()
        if token is None:
            raise AuthenticationError("viewing alerts requires an RBAC token")
        claims = self.validator.validate(token)
        require_capability(claims, "soc.view")
        return HttpResponse.json(
            {
                "alerts": [
                    {
                        "time": a.time, "rule": a.rule, "severity": a.severity,
                        "actor": a.actor, "summary": a.summary,
                    }
                    for a in self.alerts
                ],
                "records_ingested": self.records_ingested,
            }
        )

    @route("GET", "/posture")
    def posture_view(self, request: HttpRequest) -> HttpResponse:
        """Inventory scan + configuration assessment in one report."""
        token = request.bearer_token()
        if token is None:
            raise AuthenticationError("viewing posture requires an RBAC token")
        claims = self.validator.validate(token)
        require_capability(claims, "soc.view")
        findings = self.inventory.scan()
        results = self.assessment.run()
        return HttpResponse.json(
            {
                "assets": len(self.inventory.assets()),
                "vulnerability_findings": [
                    {"asset": f.asset, "advisory": f.advisory_id,
                     "severity": f.severity}
                    for f in findings
                ],
                "config_checks": [
                    {"id": r.check_id, "title": r.title, "passed": r.passed,
                     "evidence": r.evidence}
                    for r in results
                ],
                "config_score": self.assessment.score(),
            }
        )

    # ------------------------------------------------------------------
    # decision scoreboard (provenance + pipeline health in one view)
    # ------------------------------------------------------------------
    def scoreboard(self) -> Dict[str, object]:
        """Decisions by surface × outcome, fail-closed count, alert
        totals, and — when the bounded pipeline is on — span retention
        health.  The at-a-glance answer to "is enforcement healthy and
        is observation keeping up?"."""
        board: Dict[str, object] = {
            "alerts": len(self.alerts),
            "contained": list(self.contained),
            "records_ingested": self.records_ingested,
        }
        if self.provenance is not None:
            board["provenance"] = self.provenance.stats()
        if self.span_pipeline is not None:
            board["spans"] = self.span_pipeline.stats()
        return board

    @route("GET", "/scoreboard")
    def scoreboard_view(self, request: HttpRequest) -> HttpResponse:
        token = request.bearer_token()
        if token is None:
            raise AuthenticationError(
                "viewing the scoreboard requires an RBAC token")
        claims = self.validator.validate(token)
        require_capability(claims, "soc.view")
        return HttpResponse.json(self.scoreboard())

    @route("GET", "/explain")
    def explain_view(self, request: HttpRequest) -> HttpResponse:
        """Post-mortem query: every decision about one identity (query
        ``identity=``) or one traced request (query ``trace_id=``)."""
        token = request.bearer_token()
        if token is None:
            raise AuthenticationError(
                "explain queries require an RBAC token")
        claims = self.validator.validate(token)
        require_capability(claims, "soc.view")
        if self.provenance is None:
            return HttpResponse.error(503, "no provenance ledger attached")
        identity = str(request.query.get("identity", ""))
        trace_id = str(request.query.get("trace_id", ""))
        if identity:
            records = self.provenance.explain(identity)
        elif trace_id:
            records = self.provenance.explain_trace(trace_id)
        else:
            return HttpResponse.error(400, "identity or trace_id required")
        return HttpResponse.json({
            "decisions": [
                {
                    "time": r.time, "surface": r.surface,
                    "decision": r.decision, "subject": r.subject,
                    "rule": r.rule, "reason": r.reason,
                    "pack_version": r.pack_version, "cached": r.cached,
                    "pdp_staleness": r.pdp_staleness,
                }
                for r in records
            ],
        })
