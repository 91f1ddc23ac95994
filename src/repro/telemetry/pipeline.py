"""The telemetry pipeline: observation that survives production scale.

PR 4's :class:`~repro.telemetry.tracing.SpanStore` retains every span
forever — correct for a 45-user RSECon story, hopeless for the
million-user federation the ROADMAP targets.  This module bounds it
without losing anything security-relevant, via **tail-based sampling**:
the keep/drop decision is taken per *trace*, after the trace has
finished, when its outcome is known.

Retention classes, in priority order:

1. **Protected** — any trace containing an ERROR / SHED / EXPIRED
   span, and any trace explicitly pinned via :meth:`BoundedSpanStore.
   protect` (the audit bridge pins every revocation-, containment- and
   fail-closed-linked trace).  Kept at 100%, always.
2. **Slowest-k** — per retention window, the k slowest completed OK
   traces (the tail the latency post-mortems need).
3. **Hash-sampled** — a deterministic fraction of ordinary OK traces,
   chosen by hashing the trace id (same trace id → same verdict on
   every run and every node; no RNG, no clock).
4. Everything else is evicted — but not silently: evicted spans roll
   up into RED aggregates per (service, status), so request counts,
   error counts and duration sums survive even when the spans do not.

In-flight traces (any unfinished span) are never evicted.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.telemetry.tracing import Span, SpanStatus, SpanStore

__all__ = ["PipelineConfig", "RedAggregate", "BoundedSpanStore",
           "trace_sampled"]

# span statuses that make a whole trace security/incident-relevant
_PROTECTED_STATUSES = (SpanStatus.ERROR, SpanStatus.SHED, SpanStatus.EXPIRED)


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for the bounded pipeline.  Frozen: retention policy must
    not drift mid-run or the keep/drop decisions stop being auditable."""

    max_spans: int = 4000        # span budget before compaction triggers
    target_fill: float = 0.8     # compact down to this fraction of budget
    window: float = 30.0         # slowest-k bucketing window (sim seconds)
    slowest_k: int = 3           # slowest OK traces kept per window
    sample_rate: float = 0.05    # fraction of ordinary OK traces kept
    max_series_per_family: int = 64   # metric cardinality budget
    max_decisions: int = 8192    # provenance ledger retention budget

    def __post_init__(self) -> None:
        if self.max_spans < 1:
            raise ValueError("max_spans must be at least 1")
        if not 0.0 < self.target_fill <= 1.0:
            raise ValueError("target_fill must be in (0, 1]")
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")
        if self.window <= 0:
            raise ValueError("window must be positive")


def trace_sampled(trace_id: str, rate: float) -> bool:
    """Deterministic keep/drop verdict for an ordinary OK trace.

    Hashes the trace id (sha256, first 8 hex digits) onto [0, 1); keeps
    it when that lands under ``rate``.  Every node that sees the trace
    reaches the same verdict with no coordination — the property that
    makes distributed tail sampling workable.
    """
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    h = int(hashlib.sha256(trace_id.encode("utf-8")).hexdigest()[:8], 16)
    return h / float(0x100000000) < rate


@dataclass
class RedAggregate:
    """Rate/Errors/Duration rollup of evicted spans for one
    (service, status) pair — what remains once the spans are gone."""

    count: int = 0
    duration_sum: float = 0.0
    max_duration: float = 0.0

    def fold(self, span: Span) -> None:
        self.count += 1
        self.duration_sum += span.duration
        if span.duration > self.max_duration:
            self.max_duration = span.duration


class BoundedSpanStore(SpanStore):
    """A :class:`SpanStore` with tail-sampled, bounded retention.

    Drop-in: the tracer, the SIEM trace correlation and the analysis
    helpers all see the normal store API; only retention changes.
    """

    def __init__(self, config: PipelineConfig) -> None:
        super().__init__()
        self.config = config
        self._protected: Set[str] = set()
        # ids of evicted traces: an audit record may reach the SOC after
        # its trace was compacted away, and must not read as forged
        self._evicted_ids: Set[str] = set()
        self.rollups: Dict[Tuple[str, str], RedAggregate] = {}
        self.evicted_spans = 0
        self.evicted_traces = 0
        self.compactions = 0

    # ---------------------------------------------------------- pinning
    def protect(self, trace_id: str) -> None:
        """Pin a trace against eviction (revocations, containments,
        fail-closed denials — anything a post-mortem will replay)."""
        if trace_id:
            self._protected.add(trace_id)

    def protected_ids(self) -> Set[str]:
        return set(self._protected)

    def trace_protected(self, trace_id: str) -> bool:
        if trace_id in self._protected:
            return True
        return any(s.status in _PROTECTED_STATUSES
                   for s in self._by_trace.get(trace_id, ()))

    def has_trace(self, trace_id: str) -> bool:
        """True for every trace id this store ever admitted, retained
        or evicted (``trace()`` returns the spans still held)."""
        return super().has_trace(trace_id) or trace_id in self._evicted_ids

    # --------------------------------------------------------- ingestion
    def add(self, span: Span) -> Span:
        super().add(span)
        if len(self._spans) > self.config.max_spans:
            self.compact()
        return span

    # --------------------------------------------------------- sampling
    def _trace_duration(self, spans: List[Span]) -> float:
        """Duration of the root span when present, else the envelope of
        the trace — the number slowest-k ranks by."""
        for s in spans:
            if s.parent_id is None:
                return s.duration
        start = min(s.start for s in spans)
        end = max(s.end for s in spans if s.end is not None)
        return end - start

    def compact(self) -> None:
        """Apply the retention classes and evict the remainder into RED
        rollups, oldest trace first, down to the target fill."""
        target = max(1, int(self.config.max_spans * self.config.target_fill))
        excess = len(self._spans) - target
        if excess <= 0:
            return
        # classify completed traces; unfinished traces are untouchable
        candidates: List[Tuple[float, str, List[Span]]] = []
        windows: Dict[int, List[Tuple[float, str]]] = {}
        for tid, spans in self._by_trace.items():
            if any(not s.finished for s in spans):
                continue
            if self.trace_protected(tid):
                continue
            if trace_sampled(tid, self.config.sample_rate):
                continue
            start = min(s.start for s in spans)
            duration = self._trace_duration(spans)
            candidates.append((start, tid, spans))
            windows.setdefault(int(start // self.config.window), []).append(
                (duration, tid))
        # slowest-k per window survive even though they sampled out
        slow: Set[str] = set()
        for bucket in windows.values():
            bucket.sort(reverse=True)
            slow.update(tid for _, tid in bucket[:self.config.slowest_k])
        doomed: List[str] = []
        evicting = 0
        for start, tid, spans in sorted(candidates,
                                        key=lambda c: (c[0], c[1])):
            if evicting >= excess:
                break
            if tid in slow:
                continue
            doomed.append(tid)
            evicting += len(spans)
            for span in spans:
                key = (span.service or span.name, span.status)
                agg = self.rollups.get(key)
                if agg is None:
                    agg = self.rollups[key] = RedAggregate()
                agg.fold(span)
        if doomed:
            self.evicted_spans += self._drop_traces(doomed)
            self._evicted_ids.update(doomed)
            self.evicted_traces += len(doomed)
        self.compactions += 1

    # ------------------------------------------------------------- stats
    def stats(self) -> Dict[str, object]:
        return {
            "retained_spans": len(self._spans),
            "retained_traces": len(self._by_trace),
            "evicted_spans": self.evicted_spans,
            "evicted_traces": self.evicted_traces,
            "protected_traces": len(self._protected),
            "compactions": self.compactions,
            "budget": self.config.max_spans,
            "rolled_up": sum(a.count for a in self.rollups.values()),
        }
