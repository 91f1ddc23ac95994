"""Incident timeline reconstruction — the SOC analyst's first tool.

Given a principal (or any identifier that appears in events), pull every
related record from the combined audit trail into one chronological
narrative: which identities map to it, what succeeded, what was denied,
when detections fired and when containment landed.  The cross-domain
correlation works because identifiers are threaded through the system
deliberately: the broker subject appears in token mints, the unix
account in SSH/bastion events, the jti links a mint to later denials.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, List, Optional, Set

from repro.audit import AuditEvent

__all__ = ["TimelineEntry", "IncidentTimeline", "build_timeline",
           "build_trace_timeline", "join_provenance"]


@dataclass(frozen=True)
class TimelineEntry:
    time: float
    domain: str
    source: str
    action: str
    outcome: str
    detail: str
    trace_id: str = ""   # request the event was emitted under, if any
    rule: str = ""       # matched policy rule (joined from provenance)


@dataclass
class IncidentTimeline:
    subject: str
    correlated_ids: Set[str]
    entries: List[TimelineEntry]

    def denials(self) -> List[TimelineEntry]:
        return [e for e in self.entries if e.outcome == "denied"]

    def shed(self) -> List[TimelineEntry]:
        """Overload drops — NOT policy denials; an analyst reading the
        timeline must not mistake load shedding for access refusals."""
        return [e for e in self.entries if e.outcome in ("shed", "expired")]

    def containment(self) -> Optional[TimelineEntry]:
        for e in self.entries:
            if e.action.startswith("killswitch.") or e.action.endswith(".flag"):
                return e
        return None

    def render(self) -> str:
        lines = [
            f"INCIDENT TIMELINE for {self.subject}",
            f"correlated identifiers: {sorted(self.correlated_ids)}",
            f"{len(self.entries)} events, {len(self.denials())} denials, "
            f"{len(self.shed())} shed/expired",
            "",
        ]
        for e in self.entries:
            # shed (~) and expired (x) get their own marks so overload
            # drops never read as denials (!); cache-served decisions (c)
            # are flagged because they rest on earlier validation work
            mark = {"denied": "!", "error": "E", "success": " ",
                    "info": " ", "shed": "~", "expired": "x",
                    "cached": "c"}.get(e.outcome, "?")
            line = (
                f"  t={e.time:10.3f} [{mark}] {e.domain or '-':<8} "
                f"{e.source:<14} {e.action:<26} {e.detail}"
            )
            if e.rule:
                line += f" <rule: {e.rule}>"
            lines.append(line)
        return "\n".join(lines)


def _related(event: AuditEvent, ids: Set[str]) -> bool:
    if event.actor in ids or event.resource in ids:
        return True
    return any(
        isinstance(v, str) and v in ids for v in event.attrs.values()
    )


def build_timeline(dri, subject: str, *, max_passes: int = 3) -> IncidentTimeline:
    """Correlate everything about ``subject`` across the audit trail.

    Correlation expands transitively (bounded by ``max_passes``): the
    subject's token jtis, unix accounts, session ids and tailnet node
    ids found in pass *n* pull in the events that reference them in
    pass *n+1*.
    """
    events = dri.audit.events()
    # identifiers must be specific to the incident: infrastructure names
    # (endpoints), system actors and prose (alert summaries) are excluded
    # or correlation would snowball through shared services like the SOC
    infrastructure = {ep.name for ep in dri.network.endpoints()}
    infrastructure |= {"system", "network", "killswitch", "operator",
                       "dcim", "soc", "ops", "*", ""}

    def usable(candidate: str) -> bool:
        return (bool(candidate) and candidate not in infrastructure
                and " " not in candidate)

    ids: Set[str] = {subject}
    matched: List[AuditEvent] = []
    for _pass in range(max_passes):
        matched = [e for e in events if _related(e, ids)]
        expanded = set(ids)
        for e in matched:
            # when one side of an event is a known identifier, the other
            # side joins the correlation (actor <-> resource pivot)
            if e.actor in ids and usable(e.resource):
                expanded.add(e.resource)
            if e.resource in ids and usable(e.actor):
                expanded.add(e.actor)
        if expanded == ids:
            break
        ids = expanded

    entries = [
        TimelineEntry(
            time=e.time,
            domain=e.domain,
            source=e.source,
            action=e.action,
            outcome=e.outcome,
            detail=(f"{e.actor} -> {e.resource}"
                    + (f" ({e.attrs.get('reason')})"
                       if e.attrs.get("reason") else "")),
            trace_id=str(e.attrs.get("trace_id", "")),
        )
        for e in sorted(matched, key=lambda e: (e.time, e.source))
    ]
    return IncidentTimeline(subject=subject, correlated_ids=ids,
                            entries=entries)


def build_trace_timeline(dri, trace_id: str) -> IncidentTimeline:
    """Reconstruct one traced request from the audit trail alone.

    Every audit event emitted while serving a traced request carries its
    ``trace_id`` attribute (stamped by the transport and by
    ``Service.log_event``), so the full request tree — every delivered
    hop, denial, shed and expiry across all domains — can be rebuilt
    without touching the span store.  This is the audit-side half of the
    trace↔audit correlation; the span-side half is
    ``repro.telemetry.analysis``.
    """
    matched = [
        e for e in dri.audit.events()
        if e.attrs.get("trace_id") == trace_id
    ]
    actors = {e.actor for e in matched if e.actor}
    entries = [
        TimelineEntry(
            time=e.time,
            domain=e.domain,
            source=e.source,
            action=e.action,
            outcome=e.outcome,
            detail=(f"{e.actor} -> {e.resource}"
                    + (f" ({e.attrs.get('reason')})"
                       if e.attrs.get("reason") else "")),
            trace_id=trace_id,
        )
        for e in sorted(matched, key=lambda e: (e.time, e.source))
    ]
    return IncidentTimeline(subject=trace_id,
                            correlated_ids={trace_id} | actors,
                            entries=entries)


def join_provenance(timeline: IncidentTimeline, ledger) -> int:
    """Annotate timeline entries with the policy rule that produced
    their decision, joined from the provenance ledger by trace id (and
    decision time, to pick the right record when one trace carries
    several decisions).  Returns the number of entries annotated —
    the analyst's check that the audit trail and the ledger agree."""
    annotated = 0
    entries: List[TimelineEntry] = []
    for entry in timeline.entries:
        rule = ""
        if entry.trace_id and not entry.rule:
            records = ledger.explain_trace(entry.trace_id)
            same_time = [r for r in records if r.time == entry.time]
            for rec in same_time or records:
                if rec.rule or rec.reason:
                    rule = rec.rule or rec.reason
                    break
        if rule:
            entry = replace(entry, rule=rule)
            annotated += 1
        entries.append(entry)
    timeline.entries = entries
    return annotated
