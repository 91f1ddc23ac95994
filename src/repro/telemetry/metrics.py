"""Counter / Gauge / Histogram primitives with labelled series.

The registry is Prometheus-shaped: a metric has a name, a help string,
and a family of series keyed by sorted ``(label, value)`` tuples.
Histograms keep cumulative bucket counts plus an *exemplar* per bucket —
the trace id of the most recent observation that landed there — which is
what lets the exposition link a p99 tail bucket back to the exact slow
login that produced it.

Exposition follows the OpenMetrics text format closely enough to be
read by anyone who has scraped ``/metrics``:

    repro_http_request_duration_seconds_bucket{dst="broker",le="0.5"} 12 # {trace_id="00…"} 0.41 107.2
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "Exemplar", "DEFAULT_BUCKETS", "OVERFLOW_LABEL",
           "DROPPED_LABELS_METRIC"]

LabelKey = Tuple[Tuple[str, str], ...]

# label value that absorbs new series past a family's cardinality budget
OVERFLOW_LABEL = "__overflow__"
# registry-level counter of label sets folded into the overflow series
DROPPED_LABELS_METRIC = "repro_metrics_dropped_labels_total"

# Seconds-scale buckets sized for the simulated control plane: hops cost
# ~5-40 ms, a full federated login O(0.1-10 s) under load.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


def _label_key(labels: Mapping[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """OpenMetrics label-value escaping: backslash, double-quote and
    newline must be escaped or the exposition stops being parseable."""
    return (value.replace("\\", "\\\\")
                 .replace('"', '\\"')
                 .replace("\n", "\\n"))


def _render_labels(key: LabelKey, extra: Sequence[Tuple[str, str]] = ()) -> str:
    pairs = list(key) + list(extra)
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in pairs)
    return "{" + body + "}"


def _fmt(value: float) -> str:
    """Render a sample value the way Prometheus does: integers bare."""
    if value == int(value):
        return str(int(value))
    return repr(round(value, 9))


@dataclass(frozen=True)
class Exemplar:
    """A trace id attached to one histogram observation."""

    trace_id: str
    value: float
    time: float

    def render(self) -> str:
        return (f'# {{trace_id="{self.trace_id}"}} '
                f"{_fmt(self.value)} {_fmt(self.time)}")


class Metric:
    kind = "untyped"

    def __init__(self, name: str, help: str = "",
                 max_series: Optional[int] = None) -> None:
        self.name = name
        self.help = help
        # cardinality budget: past this many series, new label sets fold
        # into one OVERFLOW_LABEL series instead of growing the family
        # unboundedly (None = unbudgeted, the PR-4 behaviour)
        self.max_series = max_series
        self.dropped_labels = 0
        self.on_overflow: Optional[Callable[[str], None]] = None

    def _bound_key(self, key: LabelKey, series: Mapping[LabelKey, object]) -> LabelKey:
        """Fold a *new* label set into the overflow series when the
        family is at budget; existing series keep exact labels."""
        if (self.max_series is None or not key
                or key in series or len(series) < self.max_series):
            return key
        self.dropped_labels += 1
        if self.on_overflow is not None:
            self.on_overflow(self.name)
        return tuple((k, OVERFLOW_LABEL) for k, _ in key)

    def expose(self) -> List[str]:  # pragma: no cover - interface
        raise NotImplementedError


class Counter(Metric):
    """Monotonic count, one value per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str = "",
                 max_series: Optional[int] = None) -> None:
        super().__init__(name, help, max_series)
        self._series: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self._add(_label_key(labels), amount)

    def _add(self, labelled: LabelKey, amount: float) -> None:
        key = self._bound_key(labelled, self._series)
        self._series[key] = self._series.get(key, 0.0) + amount

    def bound(self, **labels: str) -> Callable[[], None]:
        """``inc()`` for one label set whose key is built here, once —
        for a hot path that keeps counting the same few series.  The
        series still appears (and meets the budget) on its first tick."""
        return partial(self._add, _label_key(labels), 1.0)

    def value(self, **labels: str) -> float:
        return self._series.get(_label_key(labels), 0.0)

    def total(self) -> float:
        return sum(self._series.values())

    def series(self) -> Dict[LabelKey, float]:
        return dict(self._series)

    def expose(self) -> List[str]:
        lines = [f"# HELP {self.name} {self.help}",
                 f"# TYPE {self.name} {self.kind}"]
        for key in sorted(self._series):
            lines.append(
                f"{self.name}{_render_labels(key)} {_fmt(self._series[key])}")
        return lines


class Gauge(Metric):
    """A value that can go up and down (breaker states, live sessions)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 max_series: Optional[int] = None) -> None:
        super().__init__(name, help, max_series)
        self._series: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: str) -> None:
        key = self._bound_key(_label_key(labels), self._series)
        self._series[key] = float(value)

    def value(self, **labels: str) -> float:
        return self._series.get(_label_key(labels), 0.0)

    def expose(self) -> List[str]:
        lines = [f"# HELP {self.name} {self.help}",
                 f"# TYPE {self.name} {self.kind}"]
        for key in sorted(self._series):
            lines.append(
                f"{self.name}{_render_labels(key)} {_fmt(self._series[key])}")
        return lines


@dataclass
class _HistogramSeries:
    buckets: List[int]
    count: int = 0
    total: float = 0.0
    exemplars: Dict[int, Exemplar] = field(default_factory=dict)


class Histogram(Metric):
    """Cumulative-bucket histogram with per-bucket exemplars."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Sequence[float] = DEFAULT_BUCKETS,
                 max_series: Optional[int] = None) -> None:
        super().__init__(name, help, max_series)
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self._series: Dict[LabelKey, _HistogramSeries] = {}

    def _get(self, key: LabelKey) -> _HistogramSeries:
        series = self._series.get(key)
        if series is None:
            series = _HistogramSeries(buckets=[0] * (len(self.buckets) + 1))
            self._series[key] = series
        return series

    def bucket_index(self, value: float) -> int:
        """Index of the first bucket whose bound holds ``value``
        (``len(buckets)`` means the +Inf overflow bucket)."""
        return bisect_left(self.buckets, value)

    def observe(self, value: float, *, trace_id: Optional[str] = None,
                time: float = 0.0, **labels: str) -> None:
        self._observe(_label_key(labels), value, trace_id, time)

    def _observe(self, labelled: LabelKey, value: float,
                 trace_id: Optional[str] = None, time: float = 0.0) -> None:
        series = self._get(self._bound_key(labelled, self._series))
        idx = self.bucket_index(value)
        series.buckets[idx] += 1
        series.count += 1
        series.total += value
        if trace_id:
            series.exemplars[idx] = Exemplar(trace_id, value, time)

    def bound(self, **labels: str) -> Callable[..., None]:
        """``observe(value, trace_id, time)`` for one label set whose key
        is built here, once — :meth:`Counter.bound`'s twin.  The series
        still appears (and meets the budget) on its first observation."""
        return partial(self._observe, _label_key(labels))

    def count(self, **labels: str) -> int:
        series = self._series.get(_label_key(labels))
        return series.count if series else 0

    def sum(self, **labels: str) -> float:
        series = self._series.get(_label_key(labels))
        return series.total if series else 0.0

    def cumulative_buckets(self, **labels: str) -> List[Tuple[str, int]]:
        """(le, cumulative count) pairs ending with +Inf — bucket math
        as the exposition renders it."""
        series = self._series.get(_label_key(labels))
        counts = series.buckets if series else [0] * (len(self.buckets) + 1)
        out: List[Tuple[str, int]] = []
        running = 0
        for bound, n in zip(self.buckets, counts):
            running += n
            out.append((_fmt(bound), running))
        out.append(("+Inf", running + counts[-1]))
        return out

    def quantile(self, q: float, **labels: str) -> float:
        """Bucket-interpolated quantile, Prometheus ``histogram_quantile``
        style — used by SLO latency checks, not the bench percentiles."""
        series = self._series.get(_label_key(labels))
        if series is None or series.count == 0:
            return 0.0
        rank = q * series.count
        running = 0
        lower = 0.0
        for bound, n in zip(self.buckets, series.buckets):
            if running + n >= rank:
                if n == 0:
                    return bound
                return lower + (bound - lower) * (rank - running) / n
            running += n
            lower = bound
        return self.buckets[-1]

    def tail_exemplars(self, **labels: str) -> List[Exemplar]:
        """Exemplars from the highest occupied buckets downward."""
        series = self._series.get(_label_key(labels))
        if series is None:
            return []
        return [series.exemplars[i]
                for i in sorted(series.exemplars, reverse=True)]

    def expose(self) -> List[str]:
        lines = [f"# HELP {self.name} {self.help}",
                 f"# TYPE {self.name} {self.kind}"]
        for key in sorted(self._series):
            series = self._series[key]
            running = 0
            for i, bound in enumerate(self.buckets):
                running += series.buckets[i]
                line = (f"{self.name}_bucket"
                        f"{_render_labels(key, [('le', _fmt(bound))])} "
                        f"{running}")
                exemplar = series.exemplars.get(i)
                if exemplar is not None:
                    line += f" {exemplar.render()}"
                lines.append(line)
            running += series.buckets[-1]
            line = (f"{self.name}_bucket"
                    f"{_render_labels(key, [('le', '+Inf')])} {running}")
            exemplar = series.exemplars.get(len(self.buckets))
            if exemplar is not None:
                line += f" {exemplar.render()}"
            lines.append(line)
            lines.append(
                f"{self.name}_sum{_render_labels(key)} {_fmt(series.total)}")
            lines.append(
                f"{self.name}_count{_render_labels(key)} {series.count}")
        return lines


class MetricsRegistry:
    """Namespace of metrics; one per deployment."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _register(self, metric: Metric) -> Metric:
        existing = self._metrics.get(metric.name)
        if existing is not None:
            if type(existing) is not type(metric):
                raise ValueError(
                    f"metric {metric.name!r} already registered "
                    f"as {existing.kind}")
            return existing
        metric.on_overflow = self._note_overflow
        self._metrics[metric.name] = metric
        return metric

    def _note_overflow(self, family: str) -> None:
        """Count a label set folded into a family's overflow series.
        The counter is created lazily so registries that never overflow
        expose exactly what they did before budgets existed."""
        counter = self._metrics.get(DROPPED_LABELS_METRIC)
        if counter is None:
            counter = self.counter(
                DROPPED_LABELS_METRIC,
                "Label sets folded into __overflow__ by per-family "
                "cardinality budgets")
        counter.inc(family=family)  # type: ignore[union-attr]

    def set_series_budget(self, max_series: Optional[int],
                          names: Optional[Iterable[str]] = None) -> None:
        """Apply a cardinality budget to families (default: all).  The
        dropped-labels counter itself stays unbudgeted — the meter must
        not saturate the thing it meters."""
        targets = list(names) if names is not None else list(self._metrics)
        for name in targets:
            metric = self._metrics.get(name)
            if metric is not None and name != DROPPED_LABELS_METRIC:
                metric.max_series = max_series

    def counter(self, name: str, help: str = "",
                max_series: Optional[int] = None) -> Counter:
        return self._register(Counter(name, help, max_series))  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "",
              max_series: Optional[int] = None) -> Gauge:
        return self._register(Gauge(name, help, max_series))  # type: ignore[return-value]

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS,
                  max_series: Optional[int] = None) -> Histogram:
        return self._register(Histogram(name, help, buckets, max_series))  # type: ignore[return-value]

    def dropped_labels(self) -> float:
        counter = self._metrics.get(DROPPED_LABELS_METRIC)
        return counter.total() if counter is not None else 0.0  # type: ignore[union-attr]

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def expose(self) -> str:
        """Full registry in OpenMetrics-style text, alphabetical."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            lines.extend(self._metrics[name].expose())
        lines.append("# EOF")
        return "\n".join(lines) + "\n"
