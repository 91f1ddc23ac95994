"""The telemetry pipeline: observation that survives production scale.

Retaining every span forever is correct for a 45-user RSECon story and
hopeless for the million-user federation the ROADMAP targets.  Given a
:class:`PipelineConfig` budget, the
:class:`~repro.telemetry.tracing.SpanStore` bounds itself without losing
anything security-relevant, via **tail-based sampling**: the keep/drop
decision is taken per *trace*, after the trace has finished, when its
outcome is known.  This module holds the policy — the budget, the
sampling verdict and the rollup of what gets evicted.

Retention classes, in priority order:

1. **Protected** — any trace containing an ERROR / SHED / EXPIRED
   span, and any trace explicitly pinned via ``SpanStore.protect`` (the
   audit bridge pins every revocation-, containment- and
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
from dataclasses import dataclass

__all__ = ["PipelineConfig", "RedAggregate", "trace_sampled"]

# metric cardinality budget (series per family) under a pipeline
MAX_SERIES_PER_FAMILY = 64
# compaction evicts down to this fraction of the span budget, keeping the
# SLOWEST_K slowest OK traces per window and a SAMPLE_RATE hash sample of
# the ordinary rest
TARGET_FILL = 0.8
SLOWEST_K = 3
SAMPLE_RATE = 0.05


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for the bounded pipeline.  Frozen: retention policy must
    not drift mid-run or the keep/drop decisions stop being auditable."""

    max_spans: int = 4000        # span budget before compaction triggers
    window: float = 30.0         # slowest-k bucketing window (sim seconds)
    max_decisions: int = 8192    # provenance ledger retention budget

    def __post_init__(self) -> None:
        if self.max_spans < 1:
            raise ValueError("max_spans must be at least 1")
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

    def fold(self, duration: float) -> None:
        """Roll one evicted span's duration in."""
        self.count += 1
        self.duration_sum += duration
        self.max_duration = max(self.max_duration, duration)
