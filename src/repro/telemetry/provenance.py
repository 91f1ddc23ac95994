"""Decision provenance: the *why* behind every admission decision.

The telemetry layer (PR 4) records *that* things happened; the SIEM
records *what* was allowed or denied.  Neither answers the federation
operator's question — "why did this principal get in?" — after the
fact.  This module does: every ALLOW / DENY / CACHED / SHED /
fail-closed decision on the four enforcement surfaces (broker
RBAC/OIDC tokens, sshd, Zenith tunnels, Jupyter/Slurm compute) reads
as one :class:`DecisionRecord` carrying the matched policy rule and
pack version, the assurance tier and threat score that fed the
decision, whether it was served from cache or freshly validated, the
region and fencing epoch that served it, and how stale the PDP
heartbeat was at decision time.

A decision is its audit record.  The :class:`ProvenanceLedger` holds,
per decision the audit bridge saw, a *position* in the domain log that
holds the event — plus the four values only the enricher knows — and
builds the record from that event when a query reads it.  Only the
decisions no audit event carries (a PDP evaluation, a stale allow, a
direct :meth:`ProvenanceLedger.record`) keep their own fields.  Entries
are keyed by identity (SPIFFE id *and* plain subject) and by trace id,
with the two queries the SOC and kill-switch post-mortems consume:

* :meth:`ProvenanceLedger.explain` — everything we ever decided about
  one identity, in decision order;
* :meth:`ProvenanceLedger.explain_trace` — every decision taken while
  serving one traced request.

The ledger explains what the trail holds: a journaled log recovers the
same positions, while a cold restart wipes the records behind its
decisions — those stay in the indexes and the counters, and the queries
that build records skip them.

Retention is bounded but *never* loses the entries that matter: the
latest ALLOW/CACHED per (identity, surface) — the entry that explains
a currently-live grant — and every DENY / fail-closed / SHED entry
are pinned; only superseded plain allows are evicted (into per-surface
rollup counters) when the ledger exceeds its budget.

Determinism: the ledger never reads a clock or draws randomness —
timestamps come from the caller, sequence numbers from a counter.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = ["Decision", "DecisionRecord", "ProvenanceLedger"]


class Decision:
    """The five ways an admission decision can go."""

    ALLOW = "allow"
    DENY = "deny"
    CACHED = "cached"          # allow served from a replica cache
    SHED = "shed"              # dropped by overload protection, not policy
    FAIL_CLOSED = "fail_closed"  # denied because the PDP was unreachable

    ALL = (ALLOW, DENY, CACHED, SHED, FAIL_CLOSED)
    # decisions that explain a live grant (pinned per identity+surface)
    GRANTS = (ALLOW, CACHED)
    # decisions that must survive retention for post-mortems
    PINNED = (DENY, SHED, FAIL_CLOSED)
    # the decision a decision-bearing audit event's outcome carries (an
    # ``authz.fail_closed`` event carries FAIL_CLOSED whatever it says)
    OF_OUTCOME = {"success": ALLOW, "cached": CACHED, "denied": DENY,
                  "shed": SHED}


# sentinel defaults meaning "not observed" — the enricher only fills
# fields still holding these, never overwrites what the caller supplied
_UNSET_INT = -1
_UNSET_FLOAT = -1.0


@dataclass(frozen=True)
class DecisionRecord:
    """One admission decision, with everything that fed it.

    A view: the ledger builds a fresh one from its stored entry (and, for
    a decision the audit bridge saw, from the audit event behind it) on
    every read, so compare records with ``==``, never ``is``."""

    time: float
    surface: str          # tokens | ssh | tunnels | compute | pdp | admission
    decision: str         # one of Decision.ALL
    subject: str          # principal / actor the decision is about
    spiffe_id: str = ""   # canonical workload/user identity, when known
    trace_id: str = ""    # the request that carried the decision
    resource: str = ""    # what was being accessed
    rule: str = ""        # matched policy rule name ("" = not rule-driven)
    reason: str = ""      # human-readable grounds for the decision
    pack_version: str = ""  # policy pack version the rule came from
    loa: int = _UNSET_INT        # assurance tier at decision time
    threat_score: float = _UNSET_FLOAT  # SOC risk score at decision time
    cached: bool = False         # served from cache vs fresh validation
    region: str = ""             # region that served the decision
    epoch: int = _UNSET_INT      # fencing epoch of that region/journal
    pdp_staleness: float = _UNSET_FLOAT  # PDP heartbeat age at decision
    attrs: Mapping[str, object] = field(default_factory=dict)

    def is_grant(self) -> bool:
        return self.decision in Decision.GRANTS

    def describe(self) -> str:
        """One post-mortem line: who, what, why."""
        why = self.rule or self.reason or "unattributed"
        extra = f" [{self.pack_version}]" if self.pack_version else ""
        return (f"t={self.time:.3f} {self.surface}/{self.decision} "
                f"{self.subject} -> {self.resource or '-'}: {why}{extra}")


# the fields the enricher fills, and the sentinel that marks them unset
_ENRICHED = {"pack_version": "", "loa": _UNSET_INT,
             "threat_score": _UNSET_FLOAT, "pdp_staleness": _UNSET_FLOAT}

# extra event attributes worth preserving as decision inputs
_DECISION_ATTRS = ("jti", "audience", "role", "serial", "key_id",
                   "project", "capability")

# A stored entry is one flat tuple of atoms: surface and decision at the
# same indices, the enricher's four values (``_ENRICHED``) last.  A
# decision taken off an audit event is ``(log, surface, decision,
# position, pack_version, loa, threat_score, pdp_staleness)`` — the rest
# is read off the event.  Any other holds its own fields, ``(time,
# surface, decision, subject, *_OWN)``, and no attrs.
_SURFACE, _DECISION = 1, 2
_POSITIONED = 4 + len(_ENRICHED)
_OWN = ("spiffe_id", "trace_id", "resource", "rule", "reason", "cached",
        "region", "epoch", *_ENRICHED)


def _from_event(event, surface: str, decision: str, pack_version: str,
                loa: int, threat_score: float,
                staleness: float) -> DecisionRecord:
    """The record one decision-bearing audit event carries, the
    enricher's values filling the fields the event leaves unset."""
    attrs = event.attrs
    epoch, age = attrs.get("epoch", _UNSET_INT), attrs.get("age")
    # the one enriched field an event can set: a fail-closed's PDP age
    if isinstance(age, (int, float)) and age != _UNSET_FLOAT:
        staleness = float(age)
    # rule attribution: an explicit rule attr wins; otherwise, for
    # grants, the surface-native grant basis (the RBAC role, the
    # capability) IS the matched rule on that surface.  Denials keep
    # their reason instead — a role that failed to match is not a
    # matched rule.
    rule = str(attrs.get("rule", ""))
    if not rule and decision in Decision.GRANTS:
        if attrs.get("role"):
            rule = f"role:{attrs['role']}"
        elif attrs.get("capability"):
            rule = f"capability:{attrs['capability']}"
    return DecisionRecord(
        event.time, surface, decision, event.actor,
        spiffe_id=str(attrs.get("spiffe_id", "")),
        trace_id=str(attrs.get("trace_id", "")),
        resource=event.resource,
        rule=rule,
        reason=str(attrs.get("reason", "")),
        pack_version=pack_version,
        loa=loa,
        threat_score=threat_score,
        cached=decision == Decision.CACHED,
        region=str(attrs.get("region", "")),
        epoch=epoch if isinstance(epoch, int) else _UNSET_INT,
        pdp_staleness=staleness,
        attrs={k: attrs[k] for k in _DECISION_ATTRS if k in attrs},
    )


class ProvenanceLedger:
    """Bounded, queryable index of every admission decision.

    Parameters
    ----------
    max_records:
        Retention budget.  Past it, superseded plain allows are evicted
        oldest-first into :attr:`evicted` rollup counters; pinned
        entries (latest grant per identity+surface, every deny /
        fail-closed / shed) are kept even if that means exceeding the
        budget — losing the explanation for a live grant or a refusal
        would defeat the ledger's purpose, and the overshoot is
        reported honestly via :meth:`stats`.
    """

    def __init__(self, max_records: int = 8192) -> None:
        if max_records < 1:
            raise ValueError("max_records must be at least 1")
        self.max_records = max_records
        # called with the subject; returns field defaults (loa, threat
        # score, pack version, PDP staleness) applied to fields the
        # decision left unset.  Set by the deployment wiring.
        self.enricher: Optional[Callable[[str], Dict[str, object]]] = None
        # the AuditLogs positioned entries point into, by name
        # (Telemetry.watch_audit registers each)
        self.logs: Dict[str, object] = {}
        self._entries: "OrderedDict[int, Tuple[object, ...]]" = OrderedDict()
        self._seq = 0
        self._by_identity: Dict[str, List[int]] = {}
        self._by_trace: Dict[str, List[int]] = {}
        # (identity key, surface) -> seq of the latest grant entry
        self._latest_grant: Dict[Tuple[str, str], int] = {}
        self.recorded = 0
        self.counts: Dict[Tuple[str, str], int] = {}   # (surface, decision)
        self.evicted: Dict[Tuple[str, str], int] = {}  # rollup of drops
        self.compactions = 0

    # ------------------------------------------------------------ record
    def record(self, time: float, surface: str, decision: str, subject: str,
               *, spiffe_id: str = "", trace_id: str = "", resource: str = "",
               rule: str = "", reason: str = "", cached: bool = False,
               region: str = "", epoch: int = _UNSET_INT,
               pack_version: str = "", loa: int = _UNSET_INT,
               threat_score: float = _UNSET_FLOAT,
               pdp_staleness: float = _UNSET_FLOAT, log: str = "",
               position: int = -1) -> None:
        """Append one decision.

        The audit bridge names the ``log`` and ``position`` of the event
        behind the decision and passes only what the indexes need; the
        record is read off that event.  Any other caller passes the
        record's fields.  Unset context fields (policy pack version,
        assurance, threat score, PDP staleness) are filled by the
        enricher, so call sites only pass what they directly know."""
        if decision not in Decision.ALL:
            raise ValueError(f"unknown decision {decision!r}")
        enriched: Mapping[str, object] = {}
        if self.enricher is not None:
            try:
                enriched = self.enricher(subject)
            except Exception:
                pass
        filled = [enriched.get(key, value) if value == unset else value
                  for (key, unset), value in zip(
                      _ENRICHED.items(),
                      (pack_version, loa, threat_score, pdp_staleness))]
        entry = ((log, surface, decision, position, *filled) if log else
                 (time, surface, decision, subject, spiffe_id, trace_id,
                  resource, rule, reason, cached, region, epoch, *filled))
        seq = self._seq
        self._seq += 1
        self._entries[seq] = entry
        for identity in {subject, spiffe_id} - {""}:
            self._by_identity.setdefault(identity, []).append(seq)
            if decision in Decision.GRANTS:
                self._latest_grant[(identity, surface)] = seq
        if trace_id:
            self._by_trace.setdefault(trace_id, []).append(seq)
        self.recorded += 1
        key = (surface, decision)
        self.counts[key] = self.counts.get(key, 0) + 1
        if len(self._entries) > self.max_records:
            self._compact()

    # ----------------------------------------------------------- queries
    def _view(self, seq: int) -> Optional[DecisionRecord]:
        """A fresh record of one entry; None when a cold restart wiped
        the audit record behind it."""
        entry = self._entries[seq]
        if len(entry) != _POSITIONED:
            return DecisionRecord(*entry[:4], **dict(zip(_OWN, entry[4:])))
        name, surface, decision, position, *enriched = entry
        event = self.logs[name].at(position)
        return (_from_event(event, surface, decision, *enriched)
                if event is not None else None)

    def _views(self, seqs: Iterable[int]) -> List[DecisionRecord]:
        return [rec for rec in map(self._view, seqs) if rec is not None]

    def explain(self, identity: str) -> List[DecisionRecord]:
        """Every decision about one identity (SPIFFE id or plain
        subject), oldest first — the post-mortem's first question."""
        return self._views(self._by_identity.get(identity, ()))

    def explain_trace(self, trace_id: str) -> List[DecisionRecord]:
        """Every decision taken while serving one traced request."""
        return self._views(self._by_trace.get(trace_id, ()))

    def knows(self, identity: str = "", trace_id: str = "") -> bool:
        """Whether a retained decision is about ``identity`` or was taken
        serving ``trace_id`` — asked of the indexes, no record built."""
        return identity in self._by_identity or trace_id in self._by_trace

    def latest(self, identity: str,
               surface: Optional[str] = None) -> Optional[DecisionRecord]:
        """The most recent decision about an identity (optionally on one
        surface)."""
        for seq in reversed(self._by_identity.get(identity, ())):
            if surface is None or self._entries[seq][_SURFACE] == surface:
                rec = self._view(seq)
                if rec is not None:
                    return rec
        return None

    def grant_record(self, identity: str,
                     surface: str) -> Optional[DecisionRecord]:
        """The pinned record explaining the identity's current grant on
        ``surface`` (None when it never held one)."""
        seq = self._latest_grant.get((identity, surface))
        return self._view(seq) if seq is not None else None

    def denials(self, identity: Optional[str] = None) -> List[DecisionRecord]:
        """All DENY / fail-closed records, optionally for one identity."""
        pool = (self._by_identity.get(identity, ()) if identity is not None
                else self._entries)
        return self._views(
            s for s in pool
            if self._entries[s][_DECISION] in (Decision.DENY,
                                               Decision.FAIL_CLOSED))

    def __len__(self) -> int:
        return len(self._entries)

    # --------------------------------------------------------- retention
    def _pinned(self) -> set:
        pinned = set(self._latest_grant.values())
        for seq, entry in self._entries.items():
            if entry[_DECISION] in Decision.PINNED:
                pinned.add(seq)
        return pinned

    def _compact(self) -> None:
        """Evict superseded plain grants, oldest first, down to 90% of
        budget (hysteresis so one entry over the line does not trigger
        a compaction per insert)."""
        target = max(1, int(self.max_records * 0.9))
        pinned = self._pinned()
        doomed: List[int] = []
        for seq in self._entries:              # OrderedDict: oldest first
            if len(self._entries) - len(doomed) <= target:
                break
            if seq in pinned:
                continue
            doomed.append(seq)
        if not doomed:
            return                             # everything left is pinned
        for seq in doomed:
            entry = self._entries.pop(seq)
            key = (entry[_SURFACE], entry[_DECISION])
            self.evicted[key] = self.evicted.get(key, 0) + 1
        dead = set(doomed)
        for index in (self._by_identity, self._by_trace):
            for key in list(index):
                kept = [s for s in index[key] if s not in dead]
                if kept:
                    index[key] = kept
                else:
                    del index[key]
        self.compactions += 1

    # ------------------------------------------------------------- stats
    def stats(self) -> Dict[str, object]:
        """Retention and decision totals for the SOC scoreboard."""
        by_surface: Dict[str, Dict[str, int]] = {}
        for (surface, decision), n in sorted(self.counts.items()):
            by_surface.setdefault(surface, {})[decision] = n
        return {
            "recorded": self.recorded,
            "retained": len(self._entries),
            "evicted": sum(self.evicted.values()),
            "over_budget": max(0, len(self._entries) - self.max_records),
            "compactions": self.compactions,
            "decisions": by_surface,
            "fail_closed": sum(
                n for (_, d), n in self.counts.items()
                if d == Decision.FAIL_CLOSED),
        }
