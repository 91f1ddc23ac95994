"""Measurement helpers for the benchmark harness.

Benches print paper-style tables; these helpers keep that formatting in
one place and provide latency statistics over simulated timings, in
plain Python.  The percentiles are numpy's default (linear) method bit
for bit, because the committed result tables were written with it.  The
mean is a sequential sum, not numpy's pairwise one, so from eight
samples on its last bit can differ; no result table prints the mean.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

__all__ = ["latency_stats", "format_table"]


def latency_stats(samples: Sequence[float],
                  exemplars: Optional[Sequence[Optional[str]]] = None,
                  ) -> Dict[str, object]:
    """min/p50/p95/p99/max/mean over a latency sample set (seconds).

    The tail percentiles are what the overload studies live on: a
    surge that keeps the median flat while p99 runs away is exactly
    the failure mode admission control is meant to prevent.

    ``exemplars``, when given, is a sequence of trace ids parallel to
    ``samples``; the result then carries an ``"exemplars"`` dict mapping
    each tail statistic (p50/p95/p99/max) to the trace id of the sample
    nearest that value, so a bench table row links straight to the span
    tree that produced it.
    """
    if not samples:
        stats: Dict[str, object] = {
            "n": 0, "min": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0,
            "max": 0.0, "mean": 0.0}
        if exemplars is not None:
            stats["exemplars"] = {}
        return stats
    values = [float(s) for s in samples]
    ordered = sorted(values)
    stats = {
        "n": len(values),
        "min": ordered[0],
        "p50": _percentile(ordered, 50),
        "p95": _percentile(ordered, 95),
        "p99": _percentile(ordered, 99),
        "max": ordered[-1],
        "mean": sum(values) / len(values),
    }
    if exemplars is not None:
        if len(exemplars) != len(samples):
            raise ValueError("exemplars must parallel samples")
        picked: Dict[str, str] = {}
        for key in ("p50", "p95", "p99", "max"):
            target = stats[key]
            idx = min(range(len(values)),
                      key=lambda i: abs(values[i] - target))
            trace_id = exemplars[idx]
            if trace_id:
                picked[key] = trace_id
        stats["exemplars"] = picked
    return stats


def _percentile(ordered: List[float], q: float) -> float:
    """``numpy.percentile(ordered, q)``: linear interpolation between the
    two order statistics around rank ``(n - 1) * q / 100``, written the
    way numpy writes it (from the nearer side of the gap)."""
    rank = (len(ordered) - 1) * (q / 100)
    below = int(rank)
    if below >= len(ordered) - 1:
        return ordered[-1]
    a, b = ordered[below], ordered[below + 1]
    t = rank - below
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 *, title: str = "") -> str:
    """Fixed-width text table (what the benches print for the reader)."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
