"""Log forwarders: domain audit streams → the SOC in the Security zone.

§III.B: SWS gathers logs from all resources in the MDCs and forwards
them, together with bastion and login-node logs, to SEC for ingestion by
the 24/7 monitoring service.  "They ingest a limited amount of data that
has been agreed with the University's security team" — hence the
*filter*: a forwarder ships only the fields/actions on its agreed list,
never raw payloads.

Forwarders batch and flush on a timer (simulated-clock events), so the
SOC's detection latency is the forwarding interval plus rule evaluation
— measurable in the kill-switch ablation bench.

The buffer is durable across sink outages: if the sink raises (SOC
endpoint down, network partition), the batch is retained and replayed on
a later flush, so an audit record is only ever lost when the bounded
buffer overflows — and then it is *counted* (``lost``), never silently
discarded.  The chaos ablation (ABL6) rides a SIEM sink outage on this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.audit import AuditEvent, AuditLog
from repro.clock import SimClock
from repro.errors import ReproError
from repro.resilience.durability import Durable

__all__ = ["event_to_record", "LogForwarder"]

# the attrs the security team agreed to receive; nothing else is shipped
SHIPPED_ATTRS = frozenset({
    "reason", "rule", "port", "via", "node", "trace_id", "jti", "region",
    "lag", "bound", "spiffe_id"})


def event_to_record(event: AuditEvent) -> Dict[str, object]:
    """The agreed, limited wire format (no free-form payload fields)."""
    return {
        "time": event.time,
        "source": event.source,
        "actor": event.actor,
        "action": event.action,
        "resource": event.resource,
        "outcome": event.outcome,
        "domain": event.domain,
        "zone": event.zone,
        "attrs": {k: v for k, v in event.attrs.items()
                  if k in SHIPPED_ATTRS},
    }


class LogForwarder(Durable):
    """Subscribes to audit logs and ships batches to a sink on a timer.

    With a journal attached the buffer is durable across *forwarder
    crashes* too: every accepted record is committed (journaled, then
    buffered), and a successful flush snapshots the (now smaller) buffer,
    truncating the journal.  A restarted forwarder therefore resumes with
    every pre-crash record still queued — nothing the emitting services
    logged before the crash is lost on its way to the SOC.

    Parameters
    ----------
    sink:
        Callable receiving a list of records (the SOC's ingest, possibly
        via the network).  May raise :class:`ReproError` when the SOC is
        unreachable; the batch is then retained for replay.
    interval:
        Flush period in seconds.
    actions_filter:
        If given, only events whose action starts with one of these
        prefixes are shipped (the "limited amount of data" agreement).
    max_buffer:
        Bound on retained records; the oldest are evicted (and counted in
        ``lost``) when a sink outage outlasts the buffer.
    retain_on_failure:
        ``False`` restores the legacy fail-and-forget behaviour where a
        batch whose sink call raises is gone — kept only so the chaos
        ablation can show what durability buys.
    """

    def __init__(
        self,
        name: str,
        clock: SimClock,
        sink: Callable[[List[Dict[str, object]]], None],
        *,
        interval: float = 5.0,
        actions_filter: Optional[Sequence[str]] = None,
        max_buffer: int = 10_000,
        retain_on_failure: bool = True,
    ) -> None:
        self.name = name
        self.clock = clock
        self.sink = sink
        self.interval = interval
        self.actions_filter = tuple(actions_filter) if actions_filter else None
        # action -> shipped?  decided once per distinct action string
        self._accepts: Dict[str, bool] = {}
        self.max_buffer = max_buffer
        self.retain_on_failure = retain_on_failure
        self._buffer: List[Dict[str, object]] = []
        self.shipped = 0
        self.dropped = 0        # filtered out by the agreed-actions list
        self.lost = 0           # lost to buffer overflow / legacy mode
        self.sink_failures = 0
        self.last_sink_error: Optional[str] = None
        self._running = False

    # ------------------------------------------------------------------
    def watch(self, log: AuditLog) -> None:
        """Subscribe to a domain's audit stream."""
        log.subscribe(self._on_event)

    def _on_event(self, event: AuditEvent) -> None:
        accepted = self._accepts.get(event.action)
        if accepted is None:
            accepted = self._accepts[event.action] = (
                self.actions_filter is None
                or event.action.startswith(self.actions_filter))
        if not accepted:
            self.dropped += 1
            return
        self.commit("fw.accept", event_to_record(event))

    def _enforce_cap(self) -> None:
        overflow = len(self._buffer) - self.max_buffer
        if overflow > 0:
            del self._buffer[:overflow]
            self.lost += overflow

    def buffered(self) -> int:
        """Records currently awaiting shipment."""
        return len(self._buffer)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the periodic flush."""
        if self._running:
            return
        self._running = True
        self.clock.call_later(self.interval, self._tick)

    def _tick(self) -> None:
        if not self._running:
            return
        self.flush()
        self.clock.call_later(self.interval, self._tick)

    def stop(self) -> None:
        self._running = False

    def flush(self) -> int:
        """Ship the buffered batch now; returns records shipped.

        The buffer is swapped out before the sink call (the sink's own
        network traffic may emit events that land back here); on failure
        the batch is re-queued ahead of anything that arrived meanwhile,
        preserving record order for the SOC's detection windows.
        """
        if not self._buffer:
            return 0
        batch, self._buffer = self._buffer, []
        try:
            self.sink(batch)
        except ReproError as exc:
            self.sink_failures += 1
            self.last_sink_error = str(exc)
            if self.retain_on_failure:
                self._buffer = batch + self._buffer
                self._enforce_cap()
            else:
                self.lost += len(batch)
            return 0
        self.shipped += len(batch)
        if self.journal is not None:
            # a successful ship is the natural checkpoint: snapshot the
            # residual buffer and truncate the journal behind it
            self.journal.snapshot(self.durable_state())
        return len(batch)

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def durable_state(self) -> Dict[str, object]:
        # ``dropped`` is a statistic, not state: filtering an event is not
        # journaled, so a recovered count could only disagree with it
        return {
            "buffer": [dict(r) for r in self._buffer],
            "shipped": self.shipped,
            "lost": self.lost, "sink_failures": self.sink_failures,
        }

    def wipe_state(self) -> None:
        self._buffer = []
        self.shipped = 0
        self.dropped = 0
        self.lost = 0
        self.sink_failures = 0
        self._running = False

    def load_state(self, state: Dict[str, object]) -> None:
        self._buffer = [dict(r) for r in state["buffer"]]
        self.shipped = int(state["shipped"])
        self.lost = int(state["lost"])
        self.sink_failures = int(state["sink_failures"])

    def apply_entry(self, kind: str, data: Dict[str, object]) -> None:
        if kind == "fw.accept":
            self._buffer.append(data)
            self._enforce_cap()
