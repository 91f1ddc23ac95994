"""Trace-anomaly detections: the security half of the telemetry layer.

Two detectors prove the trace↔audit correlation is usable for security,
not just performance:

* :class:`TraceIntegrityRule` — an ordinary SOC detection rule that
  fires when a forwarded audit record references a ``trace_id`` the
  span store has never seen.  Every trace id in the trail is minted by
  the in-process tracer, so an unknown one means a forged or replayed
  record in the log pipeline (or a tampered store).
* :class:`TraceAnomalyScanner` — an on-demand sweep over recorded server
  spans looking for a hop that crossed a zone boundary with **no
  matching firewall-allowed edge**.  Delivered traffic the segmentation
  policy would refuse is the signature of a bypass; legitimate
  boundary-bypassing paths (the reverse tunnels) are recorded as
  ``kind="tunnel"`` spans and are exempt by construction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.audit import Outcome
from repro.siem.detections import Alert, DetectionRule

__all__ = ["TraceIntegrityRule", "TraceAnomalyScanner"]


class TraceIntegrityRule(DetectionRule):
    """Fires on an audit record whose trace id the span store never saw.
    A trace id can ride any record, so the rule reads every one."""

    name = "trace-unknown"

    def __init__(self, store, *, severity: str = "medium") -> None:
        self.store = store
        self.severity = severity
        self._alerted: Set[str] = set()

    def see(self, record: Dict[str, object]) -> Optional[Alert]:
        attrs = record.get("attrs")
        if not isinstance(attrs, dict):
            return None
        trace_id = attrs.get("trace_id")
        if not trace_id:
            return None
        trace_id = str(trace_id)
        if trace_id in self._alerted or self.store.has_trace(trace_id):
            return None
        self._alerted.add(trace_id)
        return Alert(
            time=float(record.get("time", 0.0)),
            rule=self.name,
            severity=self.severity,
            actor=str(record.get("actor", "")),
            summary=(f"audit record from {record.get('source', '?')} "
                     f"references trace {trace_id} the span store never "
                     f"saw — forged or replayed log entry"),
            evidence_count=1,
        )


class TraceAnomalyScanner:
    """Sweep server spans for boundary crossings the firewall would deny.

    A server span records its source endpoint, destination, and port.
    If the hop crossed a zone/domain boundary but the segmentation
    policy — queried fresh at scan time — refuses that flow, and the
    span was not itself a firewall rejection, then traffic moved where
    no allowed edge exists.  ``scan()`` is idempotent per span: re-runs
    only report spans recorded since the previous sweep.
    """

    name = "trace-zone-anomaly"

    # a span that *is* the firewall/transport refusing the flow is the
    # policy working, not being bypassed
    _POLICY_ERRORS = ("ConnectionBlocked", "EncryptionRequired")

    def __init__(self, network, *, telemetry, audit,
                 severity: str = "high") -> None:
        self.network = network
        self.store = telemetry.store
        self.severity = severity
        self.telemetry = telemetry
        self.audit = audit
        self._scanned: Set[str] = set()
        self.skipped_spans = 0

    def scan(self) -> List[Alert]:
        alerts: List[Alert] = []
        for span in self.store.spans():
            if span.span_id in self._scanned or not span.finished:
                continue
            self._scanned.add(span.span_id)
            if span.kind != "server":
                continue
            if span.error in self._POLICY_ERRORS:
                continue
            src = str(span.attrs.get("src", ""))
            dst = span.service
            src_zone = span.attrs.get("src_zone")
            dst_zone = span.attrs.get("dst_zone")
            if not src or src_zone is None or src_zone == dst_zone:
                continue
            if (not self.network.has_endpoint(src)
                    or not self.network.has_endpoint(dst)):
                # topology changed (failover); cannot re-evaluate the
                # flow against current policy.  This used to be an
                # invisible skip — an attacker crossing a boundary just
                # before a failover simply vanished from the sweep.  Now
                # every such span is counted and audited so the SOC can
                # see how much of the window went unchecked.
                self.skipped_spans += 1
                self.telemetry.tracewatch_skips.inc()
                self.audit.record(
                    span.end if span.end is not None else span.start,
                    "tracewatch", src or "?", "tracewatch.skip",
                    span.span_id, Outcome.INFO,
                    reason="topology-changed", dst=dst,
                )
                continue
            port = int(span.attrs.get("port", 443))
            if self.network.reachable(src, dst, port):
                continue
            alerts.append(Alert(
                time=span.end if span.end is not None else span.start,
                rule=self.name,
                severity=self.severity,
                actor=src,
                summary=(f"span {span.span_id} (trace {span.trace_id}) "
                         f"crossed {src_zone} -> {dst_zone} to {dst}:{port} "
                         f"but the segmentation policy allows no such "
                         f"edge — possible firewall bypass"),
                evidence_count=1,
            ))
        return alerts

    def raise_into(self, soc) -> List[Alert]:
        """Run a sweep and hand every anomaly to the SOC."""
        alerts = self.scan()
        for alert in alerts:
            soc.raise_alert(alert)
        return alerts
