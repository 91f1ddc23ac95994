"""In-system observability: distributed tracing, metrics, SLOs.

The paper's zero-trust posture requires the SEC domain to *see* every
cross-zone interaction (continuous monitoring, NIST SP 800-207 tenet 7).
This package supplies the in-system half of that visibility:

* :mod:`repro.telemetry.context` — the trace context: an object on the
  request between in-process hops, propagated like deadlines/priorities,
  and its W3C-traceparent header codec for the process edge;
* :mod:`repro.telemetry.tracing` — spans, the in-process span store, and
  the deterministic tracer;
* :mod:`repro.telemetry.metrics` — Counter/Gauge/Histogram with labelled
  series, exemplars, and Prometheus-style exposition;
* :mod:`repro.telemetry.slo` — multi-window burn-rate SLO monitors;
* :mod:`repro.telemetry.analysis` — span trees, critical paths;
* :mod:`repro.telemetry.provenance` — the decision provenance ledger:
  why every admission decision went the way it did, queryable by
  identity and by trace;
* :mod:`repro.telemetry.pipeline` — bounded retention at production
  scale: tail-based trace sampling, RED rollups of evicted spans, and
  per-family metric cardinality budgets;
* :mod:`repro.telemetry.runtime` — the per-deployment facade wiring the
  above into the network, resilience, durability and SIEM layers.
"""

from repro.telemetry.analysis import (
    PathStep,
    SpanTree,
    build_tree,
    critical_path,
    critical_path_breakdown,
    render_tree,
)
from repro.telemetry.context import (
    BAGGAGE_HEADER,
    TRACEPARENT_HEADER,
    TraceContext,
)
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Exemplar,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.pipeline import (
    PipelineConfig,
    RedAggregate,
    trace_sampled,
)
from repro.telemetry.provenance import (
    Decision,
    DecisionRecord,
    ProvenanceLedger,
)
from repro.telemetry.runtime import ERROR_OUTCOMES, Telemetry
from repro.telemetry.slo import BurnRateAlert, SloMonitor, burn_rate
from repro.telemetry.tracing import Span, SpanStatus, SpanStore, Tracer

__all__ = [
    "BAGGAGE_HEADER",
    "BurnRateAlert",
    "Counter",
    "DEFAULT_BUCKETS",
    "Decision",
    "DecisionRecord",
    "ERROR_OUTCOMES",
    "Exemplar",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PathStep",
    "PipelineConfig",
    "ProvenanceLedger",
    "RedAggregate",
    "Span",
    "SpanStatus",
    "SpanStore",
    "SpanTree",
    "SloMonitor",
    "Telemetry",
    "TraceContext",
    "TRACEPARENT_HEADER",
    "Tracer",
    "build_tree",
    "burn_rate",
    "critical_path",
    "critical_path_breakdown",
    "render_tree",
    "trace_sampled",
]
