"""Detection rules the SOC runs over the forwarded log stream.

The SOC's task 1 is to "aggregate and scan logs from across MDCs, SWS
and FDS to identify potential attacks and raise alerts".  Rules here are
windowed counters over the limited record format; each produces an
:class:`Alert` with a severity and the principal to contain.

Every rule says which records it reads, on their action and outcome
alone (:meth:`DetectionRule.reads`): the SOC routes each record to the
rules that read it, so a record costs only the rules that can fire on it.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

__all__ = [
    "Alert",
    "DetectionRule",
    "ThresholdRule",
    "DistinctTargetsRule",
    "CacheStalenessRule",
    "RegionLagRule",
    "RetryStormRule",
    "UnexplainedDecisionRule",
    "standard_rules",
]


@dataclass(frozen=True)
class Alert:
    time: float
    rule: str
    severity: str          # "low" | "medium" | "high" | "critical"
    actor: str             # principal to contain (may be a source host)
    summary: str
    evidence_count: int


class DetectionRule:
    """Base class: feed records, maybe emit alerts.  Subclasses define a
    ``name`` attribute identifying the rule in alerts, say which records
    they read (:meth:`reads`) and handle one they read (:meth:`see`)."""

    def reads(self, action: str, outcome: str) -> bool:
        """Does the rule read a record with this action and outcome (each
        as ``str``)?  The answer may depend on nothing else: the SOC asks
        once per pair and routes every such record by it.  By default a
        rule reads every record."""
        return True

    def see(self, record: Dict[str, object]) -> Optional[Alert]:  # pragma: no cover
        """Handle one record the rule reads; maybe alert."""
        raise NotImplementedError

    def observe(self, record: Dict[str, object]) -> Optional[Alert]:
        """Feed any one record: the rule sees it if it reads it."""
        return (self.see(record) if self.reads(
            str(record.get("action", "")), str(record.get("outcome", "")))
            else None)


def _quiet(last_alert: Dict[str, float], key: str, t: float,
           window: float) -> bool:
    """May ``key`` alert at ``t``: has it gone ``window`` seconds without
    one (no alert storms)?  If so, ``t`` is its last alert from now on."""
    if key in last_alert and t - last_alert[key] < window:
        return False
    last_alert[key] = t
    return True


@dataclass
class ThresholdRule(DetectionRule):
    """Alert when ``count`` matching records with one key (the actor, by
    default) land within ``window`` seconds.  One alert per key per
    window (no alert storms).  ``predicate(action, outcome)`` says which
    records match: it is the rule's :meth:`reads`.
    """

    name: str
    severity: str
    window: float
    count: int
    summary: str
    predicate: Callable[[str, str], bool]
    key: Callable[[Dict[str, object]], str] = field(
        default=lambda r: str(r.get("actor", "")))
    # key -> the (time, resource) of its matching records in the window
    _hits: Dict[str, Deque[Tuple[float, str]]] = field(
        default_factory=lambda: defaultdict(deque))
    _last_alert: Dict[str, float] = field(default_factory=dict)

    def reads(self, action: str, outcome: str) -> bool:
        return self.predicate(action, outcome)

    def evidence(self, hits: Deque[Tuple[float, str]]) -> int:
        """What the hits in the window count for: one each."""
        return len(hits)

    def culprit(self, key: str) -> str:
        """The principal an alert names for containment: the key."""
        return key

    def see(self, record: Dict[str, object]) -> Optional[Alert]:
        key = self.key(record)
        t = float(record.get("time", 0.0))
        hits = self._hits[key]
        hits.append((t, str(record.get("resource", ""))))
        while hits and hits[0][0] <= t - self.window:
            hits.popleft()
        count = self.evidence(hits)
        if count < self.count or not _quiet(self._last_alert, key, t,
                                            self.window):
            return None
        return Alert(
            time=t,
            rule=self.name,
            severity=self.severity,
            actor=self.culprit(key),
            summary=self.summary.format(actor=key, count=count),
            evidence_count=count,
        )


@dataclass
class DistinctTargetsRule(ThresholdRule):
    """Alert when one actor touches ``count`` *distinct* resources
    matching the predicate within ``window`` seconds — the signature of
    scanning/lateral probing rather than repeated failures at one place.
    """

    def evidence(self, hits: Deque[Tuple[float, str]]) -> int:
        return len({resource for _, resource in hits})


@dataclass
class CacheStalenessRule(DetectionRule):
    """The staleness oracle for the replica cache layer.

    The scale subsystem promises that a cached ALLOW never outlives a
    revocation: the invalidation bus evicts the jti from every
    subscribed cache synchronously, *inside* the revocation call.  This
    rule watches the forwarded stream for the promise being broken — a
    ``cached`` decision that names a jti *after* a revocation event for
    that jti was observed.  Any hit is a critical alert: it means some
    replica served a revoked credential from cache, which is a
    zero-trust correctness failure, not a performance bug.

    Revocations are learned from records whose action is one of
    ``rbac.revoke``/``token.revoke`` (jti in the resource or the ``jti``
    attribute).  Cache-served decisions are records with outcome
    ``cached``; their jti rides the ``jti`` attribute stamped by the
    serving service.

    Multi-region deployments advertise a staleness bound: revocations
    replicate to peer regions asynchronously, so a remote cache may
    legitimately serve the old decision for up to ``tolerance`` seconds
    after the revocation instant.  Within the window the serve is
    *counted* (``tolerated``) but not alerted; past the window the
    original critical alert fires.  ``tolerance=0`` keeps the strict
    single-region contract: any post-revocation cached serve alerts.
    """

    name: str = "cache-staleness"
    severity: str = "critical"
    summary: str = "cached decision served revoked token {jti} for {actor}"
    tolerance: float = 0.0
    tolerated: int = 0
    _revoked_at: Dict[str, float] = field(default_factory=dict)
    _alerted: Dict[str, float] = field(default_factory=dict)

    REVOCATION_ACTIONS = ("rbac.revoke", "token.revoke")

    def reads(self, action: str, outcome: str) -> bool:
        return action.startswith(self.REVOCATION_ACTIONS) or outcome == "cached"

    def see(self, record: Dict[str, object]) -> Optional[Alert]:
        t = float(record.get("time", 0.0))
        attrs = record.get("attrs") or {}
        jti = str(attrs.get("jti", "") if isinstance(attrs, dict) else "")
        if str(record.get("action", "")).startswith(self.REVOCATION_ACTIONS):
            revoked = jti or str(record.get("resource", ""))
            if revoked and revoked not in self._revoked_at:
                self._revoked_at[revoked] = t
            return None
        if not jti:             # a cached serve that names no token
            return None
        revoked_at = self._revoked_at.get(jti)
        if revoked_at is None or t < revoked_at:
            return None
        if self.tolerance > 0.0 and t - revoked_at <= self.tolerance:
            self.tolerated += 1
            return None
        if jti in self._alerted:
            return None          # one alert per stale jti, not per serve
        self._alerted[jti] = t
        actor = str(record.get("actor", ""))
        return Alert(
            time=t,
            rule=self.name,
            severity=self.severity,
            actor=actor,
            summary=self.summary.format(jti=jti, actor=actor),
            evidence_count=1,
        )


@dataclass
class RegionLagRule(DetectionRule):
    """Alert when a region's advertised replication staleness bound is
    breached.

    The multi-region directory periodically audits every region's
    measured revocation-replication lag as ``region.lag`` records
    carrying ``region``/``lag``/``bound`` attributes.  A lag past the
    bound means the region can no longer honour the advertised staleness
    contract — the deployment's response is to fail that region closed
    (flush caches, stop serving), and this rule is the SOC-side view of
    the same breach.  Alerts carry an empty actor: there is no principal
    to contain, a region is degraded.

    One alert per region per ``window`` seconds to avoid alert storms
    while a partition persists.
    """

    name: str = "region-lag"
    severity: str = "high"
    window: float = 30.0
    summary: str = "region {region} replication lag {lag:.1f}s exceeds bound {bound:.1f}s"
    _last_alert: Dict[str, float] = field(default_factory=dict)

    def reads(self, action: str, outcome: str) -> bool:
        return action == "region.lag"

    def see(self, record: Dict[str, object]) -> Optional[Alert]:
        attrs = record.get("attrs") or {}
        if not isinstance(attrs, dict):
            return None
        region = str(attrs.get("region", record.get("resource", "")))
        try:
            lag = float(attrs.get("lag", 0.0))
            bound = float(attrs.get("bound", 0.0))
        except (TypeError, ValueError):
            return None
        if bound <= 0.0 or lag <= bound:
            return None
        t = float(record.get("time", 0.0))
        if not _quiet(self._last_alert, region, t, self.window):
            return None
        return Alert(
            time=t,
            rule=self.name,
            severity=self.severity,
            actor="",   # region degradation: nothing to contain
            summary=self.summary.format(region=region, lag=lag, bound=bound),
            evidence_count=1,
        )


@dataclass
class RetryStormRule(ThresholdRule):
    """Alert when the retry-storm guard keeps refusing retries toward one
    destination.

    The tail-tolerance layer audits every budget-refused retry as a
    ``retry.budget_exhausted`` record (source ``resilience``, resource =
    destination).  Scattered refusals are the budget doing routine
    shaping; a *burst* of them against a single destination means the
    fleet's clients are collectively amplifying an outage — a retry
    storm in progress that only the budgets are containing.  Keyed by
    destination (not actor): the storm is a property of the dependency,
    contributed to by many clients.  One alert per destination per
    ``window`` seconds: a :class:`ThresholdRule` keyed by the resource,
    whose alerts name no principal.
    """

    name: str = "retry-storm"
    severity: str = "high"
    window: float = 30.0
    count: int = 10
    summary: str = ("retry storm toward {actor}: {count} retries refused "
                    "by budget in 30s")
    predicate: Callable[[str, str], bool] = (
        lambda action, _: action == "retry.budget_exhausted")
    key: Callable[[Dict[str, object]], str] = (
        lambda r: str(r.get("resource", "")))

    def culprit(self, key: str) -> str:
        return ""   # dependency saturation: no principal to contain


class UnexplainedDecisionRule(DetectionRule):
    """A decision-bearing record the provenance ledger cannot explain.

    Every admission decision on the four enforcement surfaces must have
    a matching entry in the provenance ledger — the audit bridge indexes
    it synchronously at emit time, strictly before the forwarders ship
    the record here.  The rule asks the ledger's identity and trace
    indexes, and builds no record.  A shipped decision
    whose actor *and* trace are both unknown to the ledger is therefore
    a forged or replayed log entry (the provenance-side sibling of the
    span-side ``TraceIntegrityRule``).  Severity is medium, not high:
    an integrity signal for an analyst, never an auto-containment
    trigger — the actor named in a forged record is the forgery's
    victim, not its author.  One alert per (actor, action).
    """

    name = "unexplained-decision"
    severity = "medium"
    DECISION_ACTIONS = frozenset({
        "rbac.mint", "rbac.denied", "ssh.session", "zenith.register",
        "jupyter.auth", "job.submit", "authz.fail_closed",
    })
    DECISION_OUTCOMES = frozenset({"success", "denied", "cached", "shed"})

    def __init__(self, ledger) -> None:
        self.ledger = ledger
        self.checked = 0
        self.unexplained = 0
        self._alerted: set = set()

    def reads(self, action: str, outcome: str) -> bool:
        return (action in self.DECISION_ACTIONS
                and outcome in self.DECISION_OUTCOMES)

    def see(self, record: Dict[str, object]) -> Optional[Alert]:
        action = str(record.get("action", ""))
        self.checked += 1
        actor = str(record.get("actor", "") or "")
        attrs = record.get("attrs", {}) or {}
        trace_id = str(attrs.get("trace_id", "") or "")
        if self.ledger.knows(actor, trace_id):
            return None
        self.unexplained += 1
        key = (actor, action)
        if key in self._alerted:
            return None
        self._alerted.add(key)
        return Alert(
            time=float(record.get("time", 0.0)),
            rule=self.name,
            severity=self.severity,
            actor=actor,
            summary=(f"decision {action}/{record.get('outcome')} for "
                     f"{actor or '?'} has no provenance record"),
            evidence_count=1,
        )


def _denied(action_prefix: str) -> Callable[[str, str], bool]:
    return lambda action, outcome: (action.startswith(action_prefix)
                                    and outcome == "denied")


def standard_rules() -> List[DetectionRule]:
    """The default SOC rule pack."""
    return [
        ThresholdRule(
            name="auth-bruteforce",
            severity="high",
            window=60.0,
            count=5,
            summary="{count} failed authentications for {actor} in 60s",
            predicate=lambda action, outcome: (
                action.endswith(".login") and outcome == "denied"),
        ),
        ThresholdRule(
            name="segmentation-probe",
            severity="high",
            window=30.0,
            count=3,
            summary="{actor} probed blocked network paths {count} times in 30s",
            predicate=_denied("firewall."),
        ),
        ThresholdRule(
            name="token-abuse",
            severity="critical",
            window=300.0,
            count=1,
            summary="authorization-code replay detected for {actor}",
            predicate=lambda action, _: action == "token.code_replayed",
        ),
        ThresholdRule(
            name="mgmt-access-denied",
            severity="critical",
            window=60.0,
            count=2,
            summary="{count} denied management-plane accesses by {actor}",
            predicate=lambda action, outcome: outcome == "denied" and (
                action.startswith("mgmt.") or action == "tailnet.relay"),
        ),
        DistinctTargetsRule(
            name="lateral-probe",
            severity="high",
            window=120.0,
            count=3,
            summary="{actor} probed {count} distinct blocked targets in 2 min",
            predicate=_denied("firewall."),
        ),
        ThresholdRule(
            name="environment-critical",
            severity="medium",
            window=600.0,
            count=1,
            summary="DCIM threshold breach: {actor}",
            predicate=lambda action, _: action == "dcim.threshold",
            key=lambda r: str(r.get("resource", r.get("actor", ""))),
        ),
        ThresholdRule(
            name="ssh-cert-failures",
            severity="medium",
            window=120.0,
            count=4,
            summary="{count} rejected SSH sessions for {actor} in 2 min",
            predicate=lambda action, outcome: (
                action == "ssh.session" and outcome == "denied"),
        ),
        # inert without the scale subsystem (seed mode never emits a
        # "cached" outcome), so it ships in the default pack
        CacheStalenessRule(),
        # likewise inert without the region tier ("region.lag" records
        # only exist in multi-region deployments)
        RegionLagRule(),
        # and inert without the tail layer ("retry.budget_exhausted"
        # records only exist when a TailConfig enables the retry budget)
        RetryStormRule(),
    ]
