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

A forwarder keeps no copy of the trail: it is a *position* in its
domain's :class:`~repro.audit.AuditLog`, and a flush ships what the log
holds after it.  If the sink raises (SOC endpoint down, network
partition, or the SOC refusing the batch), the position stays put and the same records go on a later
flush, so an audit record is only ever lost when the backlog outgrows
the bound or a cold restart of the log wipes it unshipped — and then it
is *counted* (``lost``), never silently discarded.  The chaos ablation
(ABL6) rides a SIEM sink outage on this.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.audit import AuditLog
from repro.clock import SimClock
from repro.errors import ReproError
from repro.resilience.durability import Durable

__all__ = ["SHIPPED_ATTRS", "LogForwarder"]

# the attrs the security team agreed to receive; nothing else is shipped
# (a record on the wire is its fixed fields and these: AuditLog.read)
SHIPPED_ATTRS = frozenset({
    "reason", "rule", "port", "via", "node", "trace_id", "jti", "region",
    "lag", "bound", "spiffe_id"})


class LogForwarder(Durable):
    """Reads one audit log from a position and ships batches on a timer.

    ``position`` is the log position (see :attr:`AuditLog.position`) after
    the last record the forwarder has shipped or given up on.  A flush
    reads the log's accepted records after it, ships them as one batch,
    and commits the new position with its counters — one journal entry
    per shipped batch when a journal is attached, none for a flush that
    ships nothing or keeps a failed batch.  A restarted forwarder resumes
    from its journaled position, so it ships everything logged after it,
    including what was logged while it was down; a forwarder restarted
    without a journal reads on from the log's end.  While the log itself
    is down it yields nothing; that is a wait, not a loss.

    Parameters
    ----------
    sink:
        Callable receiving a list of records (the SOC's ingest, possibly
        via the network).  It raises :class:`ReproError` when the SOC is
        unreachable *or refuses the batch* (any reply but a 2xx): a batch
        the SOC did not accept is not shipped, so it stays in the log,
        counts in ``sink_failures`` and ships once on a later flush that
        the SOC accepts.
    interval:
        Flush period in seconds.
    actions_filter:
        If given, only events whose action starts with one of these
        prefixes are shipped (the "limited amount of data" agreement).
    max_buffer:
        Bound on the backlog of accepted records; when a sink outage
        outlasts it, the oldest are skipped (and counted in ``lost``).
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
        # every action starts with "": no list, no filter
        self.actions_filter = tuple(actions_filter or ("",))
        self.max_buffer = max_buffer
        self.retain_on_failure = retain_on_failure
        self._log: Optional[AuditLog] = None
        self.position = 0
        # volatile: every record from the position up to here was
        # filtered out, so the next flush need not read it again
        self._filtered_to = 0
        self._flushing = False
        self.shipped = 0
        self._lost = 0
        # statistics, not state (nothing journals them)
        self.dropped = 0        # filtered out by the agreed-actions list
        self.sink_failures = 0
        self.last_sink_error: Optional[str] = None
        self._running = False

    # ------------------------------------------------------------------
    def watch(self, log: AuditLog) -> None:
        """Read ``log`` (the one log this forwarder ships), from its end."""
        self._log = log
        self.position = log.position

    def _backlog(self) -> Tuple[List[Dict[str, object]], int, int, int]:
        """What a flush now takes: the wire records of the accepted
        records after the position (the newest ``max_buffer``), how many records after the
        position it gives up (wiped by a cold restart of the log, or over
        the bound), how many it reads and filters out, and the position
        it moves to."""
        log, start = self._log, max(self.position, self._filtered_to)
        if log is None or log.down:
            return [], 0, 0, start
        end = log.position
        first = end - len(log)  # the records before it were wiped
        records = log.read(start, self.actions_filter, SHIPPED_ATTRS)
        over = max(len(records) - self.max_buffer, 0)
        return (records[over:], over + max(first - self.position, 0),
                end - max(start, first) - len(records), end)

    def buffered(self) -> int:
        """Records currently awaiting shipment."""
        return len(self._backlog()[0])

    @property
    def lost(self) -> int:
        """Records that will never ship: those given up so far, and those
        the next flush gives up."""
        return self._lost + self._backlog()[1]

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
        """Ship the accepted records after the position now; returns
        records shipped.

        The batch ends where the log ended when it was read: records the
        sink's own traffic logs meanwhile go on the next flush, and a
        flush that fires inside the sink call (its hops advance the
        clock) ships nothing, so no record goes twice.
        """
        if self._flushing:
            return 0
        batch, gone, filtered, end = self._backlog()
        if batch:
            self._flushing = True
            try:
                self.sink(batch)
            except ReproError as exc:
                self.sink_failures += 1
                self.last_sink_error = str(exc)
                if self.retain_on_failure:
                    return 0
                gone, batch = gone + len(batch), []
            finally:
                self._flushing = False
            self.commit("fw.flush", {"position": end,
                                     "shipped": self.shipped + len(batch),
                                     "lost": self._lost + gone})
        self._filtered_to = end
        self.dropped += filtered
        return len(batch)

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def durable_state(self) -> Dict[str, object]:
        return {"position": self.position, "shipped": self.shipped,
                "lost": self._lost}

    def wipe_state(self) -> None:
        # the position is gone with the process: without a journal to
        # restore it, the forwarder reads on from the log's end
        self.load_state({"position": 0 if self._log is None
                         else self._log.position, "shipped": 0, "lost": 0})
        self._filtered_to = self.dropped = self.sink_failures = 0

    def load_state(self, state: Dict[str, object]) -> None:
        self.apply_entry("fw.flush", state)

    def apply_entry(self, kind: str, data: Dict[str, object]) -> None:
        if kind == "fw.flush":
            self.position, self.shipped, self._lost = (
                data["position"], data["shipped"], data["lost"])
