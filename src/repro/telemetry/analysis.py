"""Trace analysis: span trees, critical paths, and rendering.

A trace is a forest of spans linked by ``parent_id``.  The *critical
path* of a root is the chain of longest-duration children — the hops
that actually gate the end-to-end latency of a login.  The breakdown
reports each critical-path span's **self time** (its duration minus the
time covered by its own children on the path), which is what tells you
*where* a slow login was slow rather than just that it was.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.telemetry.tracing import Span, SpanStore

__all__ = ["SpanTree", "build_tree", "critical_path",
           "critical_path_breakdown", "PathStep", "render_tree"]


@dataclass
class SpanTree:
    """One span plus its resolved children, start-ordered."""

    span: Span
    children: List["SpanTree"]


def build_tree(spans: Sequence[Span]) -> List[SpanTree]:
    """Resolve parent links into a forest.  Orphans (parent missing from
    the set) surface as extra roots so nothing silently disappears."""
    nodes: Dict[str, SpanTree] = {
        s.span_id: SpanTree(span=s, children=[]) for s in spans
    }
    roots: List[SpanTree] = []
    for node in nodes.values():
        parent_id = node.span.parent_id
        if parent_id is not None and parent_id in nodes:
            nodes[parent_id].children.append(node)
        else:
            roots.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda n: (n.span.start, n.span.span_id))
    roots.sort(key=lambda n: (n.span.start, n.span.span_id))
    return roots


def critical_path(store: SpanStore, trace_id: str) -> List[Span]:
    """Longest-child chain from the trace's first root downward."""
    roots = build_tree(store.trace(trace_id))
    if not roots:
        return []
    path: List[Span] = []
    node: Optional[SpanTree] = roots[0]
    while node is not None:
        path.append(node.span)
        node = max(node.children, key=lambda n: n.span.duration, default=None)
    return path


@dataclass(frozen=True)
class PathStep:
    """One critical-path hop with its share of the end-to-end time."""

    name: str
    service: str
    kind: str
    status: str
    duration: float
    self_time: float
    share: float  # self_time / root duration


def critical_path_breakdown(store: SpanStore, trace_id: str) -> List[PathStep]:
    """Critical path with self-times: duration minus the on-path child's
    duration, i.e. the time this hop itself contributed."""
    path = critical_path(store, trace_id)
    if not path:
        return []
    total = path[0].duration or 1e-12
    steps: List[PathStep] = []
    for i, span in enumerate(path):
        child_time = path[i + 1].duration if i + 1 < len(path) else 0.0
        self_time = max(span.duration - child_time, 0.0)
        steps.append(PathStep(
            name=span.name, service=span.service, kind=span.kind,
            status=span.status, duration=span.duration,
            self_time=self_time, share=self_time / total,
        ))
    return steps


def render_tree(store: SpanStore, trace_id: str) -> str:
    """ASCII span tree for docs/debugging:

        story6 alice  [ok]  0.312s
        └─ call edge.isambard.example  [ok]  0.305s
           └─ GET edge.isambard.example /hub  [ok]  0.300s
    """
    roots = build_tree(store.trace(trace_id))
    lines: List[str] = []

    def visit(node: SpanTree, prefix: str, is_last: bool, top: bool) -> None:
        span = node.span
        label = (f"{span.name}  [{span.status}]  {span.duration:.3f}s"
                 + (f"  !{span.error}" if span.error else ""))
        if top:
            lines.append(label)
            child_prefix = ""
        else:
            joint = "└─ " if is_last else "├─ "
            lines.append(prefix + joint + label)
            child_prefix = prefix + ("   " if is_last else "│  ")
        for i, child in enumerate(node.children):
            visit(child, child_prefix, i == len(node.children) - 1, False)

    for root in roots:
        visit(root, "", True, True)
    return "\n".join(lines)
