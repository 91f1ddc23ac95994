"""Spans, the in-process span store, and the tracer that mints them.

Every observed unit of work — a network hop, a client call (including
its retries), a tunnel dispatch, a WAL replay, a failover promotion —
becomes one :class:`Span` with simulated-clock timestamps.  Spans land
in a :class:`SpanStore` indexed by trace id, which is what the SIEM's
trace↔audit correlation and the critical-path analysis read.

A span is mutable only while it is open.  When it ends, the store packs
it into one fixed-width binary *row* of its trace — its id, its
parent's, ``start``, ``end`` and the index of its *shape*, the tuple of
everything else, which the store holds once however many spans share it
— and every read (``trace()``, ``spans()``, ``orphans()``) hands out a
fresh :class:`Span` built from row and shape: a view, so changing one
changes nothing stored.  The one write after the end, a hedge loser
marked cancelled, goes through :meth:`Tracer.annotate`, which seals the
span again.

Determinism: span ids come from plain counters (``{n:032x}``), *not*
from the deployment's :class:`~repro.ids.IdFactory` or any RNG, and the
tracer only ever **reads** the clock.  Turning tracing on therefore
cannot shift a single identifier, secret, or simulated timestamp
anywhere else in the system — observation stays pure.
"""

from __future__ import annotations

import struct
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.clock import SimClock
from repro.errors import AttemptTimeout, DeadlineExceeded, RateLimited
from repro.telemetry.context import TraceContext
from repro.telemetry.pipeline import (SAMPLE_RATE, SLOWEST_K, TARGET_FILL,
                                      PipelineConfig, RedAggregate,
                                      trace_sampled)

__all__ = ["Span", "SpanStore", "Tracer", "SpanStatus"]


class SpanStatus:
    """Span terminal states.  ``SHED``/``EXPIRED`` mirror the audit
    outcome taxonomy so the two sides of the correlation agree."""

    UNSET = "unset"
    OK = "ok"
    ERROR = "error"
    SHED = "shed"
    EXPIRED = "expired"


def classify_error(exc: BaseException) -> str:
    """Map an exception to a span status using the error taxonomy."""
    if isinstance(exc, RateLimited):
        return SpanStatus.SHED
    # AttemptTimeout subclasses ServiceUnavailable (retryable), but as a
    # span outcome it is a deadline event — an attempt abandoned at its
    # adaptive per-attempt budget must land in the same status bucket as
    # an end-to-end deadline expiry, not generic ERROR
    if isinstance(exc, (DeadlineExceeded, AttemptTimeout)):
        return SpanStatus.EXPIRED
    return SpanStatus.ERROR


@dataclass(slots=True)
class Span:
    """One timed unit of work inside a trace.

    ``kind`` is ``"server"`` (a delivered network hop), ``"client"`` (an
    outbound call, spanning all its retry attempts), ``"tunnel"`` (a
    direct reverse-tunnel dispatch that bypasses the network), or
    ``"internal"`` (root flows, recoveries, promotions).  ``error`` holds
    the error-taxonomy class name (e.g. ``"CircuitOpen"``) when the work
    failed.
    """

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    service: str
    kind: str
    start: float
    end: Optional[float] = None
    status: str = SpanStatus.UNSET
    error: str = ""
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def context(self) -> TraceContext:
        """The context downstream work under this span should carry."""
        return TraceContext(
            trace_id=self.trace_id, span_id=self.span_id,
            parent_id=self.parent_id,
            baggage=dict(self.attrs.get("baggage", {})),  # type: ignore[arg-type]
        )


# A finished span is stored as one 36-byte row, ``(ids, start, end, shape
# index)``: ``ids`` is the 8 bytes the span id's 16 hex digits spell, then
# the parent's (all zero for none — W3C forbids an all-zero id), decoded
# in one ``bytes.fromhex`` (a third of the cost of two ``int(…, 16)``),
# and the times are exact doubles, so every view round-trips.  Its shape
# is the flat tuple ``(name, service, kind, status, error[, key …,
# value …])`` — its attr names, then their values, in insertion order, a
# ``baggage`` dict as a tuple of pairs — held once per store however many
# spans share it.  Rows are bytes and shapes flat tuples of atoms, so the
# cyclic collector never walks what a round's spans leave behind
# (docs/extending.md, "what you keep a million of must be flat, and what
# repeats is held once").
_ROW = struct.Struct("<16sddI")
_NO_PARENT = "0" * 16
_ATTRS = 5  # index of the first attr name in a shape


# span statuses that make a whole trace security/incident-relevant
_PROTECTED_STATUSES = (SpanStatus.ERROR, SpanStatus.SHED, SpanStatus.EXPIRED)


class SpanStore:
    """All recorded spans, indexed by trace id (the in-process backend).

    A trace holds its finished spans as the rows of one ``bytearray``
    over the store's table of shapes, and the store holds the open spans
    as themselves, by span id; every read returns views (module
    docstring), in span-id order unless it says otherwise.  Without a
    ``config`` every span is retained.  With a
    :class:`~repro.telemetry.pipeline.PipelineConfig` budget, retention
    is tail-sampled (the classes are listed in that module's docstring):
    crossing ``max_spans`` triggers :meth:`compact`, which evicts whole
    finished traces into RED :attr:`rollups`.

    A shape is interned by equality, so attr values that compare equal
    across types (``1``, ``1.0`` and ``True``) under one attr name of
    one shape read back as the first of them the store held.
    """

    def __init__(self, config: Optional[PipelineConfig] = None) -> None:
        self.config = config
        self._by_trace: Dict[str, bytearray] = defaultdict(bytearray)
        self._open: Dict[str, Span] = {}
        self._shapes: List[Tuple[object, ...]] = []
        self._shape_index: Dict[Tuple[object, ...], int] = {}
        self._held = 0
        self._protected: Set[str] = set()
        # ids of evicted traces: an audit record may reach the SOC after
        # its trace was compacted away, and must not read as forged
        self._evicted_ids: Set[str] = set()
        self.rollups: Dict[Tuple[str, str], RedAggregate] = {}
        self.evicted_spans = 0
        self.evicted_traces = 0
        self.compactions = 0

    def add(self, span: Span) -> Span:
        """Admit a span: an open one is held as itself until
        :meth:`seal`, a finished one (:meth:`Tracer.record`) as its
        row."""
        self._by_trace[span.trace_id]  # a trace is known from its first span
        self._open[span.span_id] = span
        if span.end is not None:
            self.seal(span)
        self._held += 1
        if self.config is not None and self._held > self.config.max_spans:
            self.compact()
        return span

    def seal(self, span: Span) -> None:
        """Hold an open span's row in place of the span (a span that
        was not open here is left alone).  The row's shape is interned
        on first sight."""
        if self._open.pop(span.span_id, None) is not span:
            return
        attrs = span.attrs
        if "baggage" in attrs:
            attrs = {**attrs, "baggage": tuple(attrs["baggage"].items())}
        shape = (span.name, span.service, span.kind, span.status,
                 span.error, *attrs, *attrs.values())
        index = self._shape_index.get(shape)
        if index is None:
            index = self._shape_index[shape] = len(self._shapes)
            self._shapes.append(shape)
        rows = self._by_trace[span.trace_id]
        rows += _ROW.pack(
            bytes.fromhex(span.span_id + (span.parent_id or _NO_PARENT)),
            span.start, span.end, index)

    def reshape(self, span: Span) -> None:
        """Seal an ended span again, as it is now (:meth:`Tracer.annotate`):
        its row is written anew, at the end of its trace's."""
        rows = self._by_trace.get(span.trace_id, bytearray())
        at = next((at for at in range(0, len(rows), _ROW.size)
                   if rows[at:at + 8].hex() == span.span_id), None)
        if at is not None:
            del rows[at:at + _ROW.size]
            self._open[span.span_id] = span
            self.seal(span)

    def _views(self, trace_id: str) -> List[Span]:
        """One trace's spans: its open ones as themselves, then a fresh
        :class:`Span` view of each row."""
        views = [s for s in self._open.values() if s.trace_id == trace_id]
        for ids, start, end, index in _ROW.iter_unpack(
                self._by_trace.get(trace_id, b"")):
            span_id, parent = ids[:8].hex(), ids[8:].hex()
            shape = self._shapes[index]
            values = (len(shape) + _ATTRS) // 2
            attrs = dict(zip(shape[_ATTRS:values], shape[values:]))
            if "baggage" in attrs:
                attrs["baggage"] = dict(attrs["baggage"])
            views.append(Span(
                trace_id, span_id, None if parent == _NO_PARENT else parent,
                *shape[:3], start, end, *shape[3:_ATTRS],
                attrs))  # type: ignore[arg-type]
        return views

    def spans(self) -> List[Span]:
        """Every span held, in the order they were opened (span ids
        count up)."""
        return sorted(chain.from_iterable(map(self._views, self._by_trace)),
                      key=attrgetter("span_id"))

    def trace(self, trace_id: str) -> List[Span]:
        """Spans of one trace still held, in start order."""
        return sorted(self._views(trace_id),
                      key=lambda s: (s.start, s.span_id))

    def has_trace(self, trace_id: str) -> bool:
        """True for every trace id this store ever admitted, retained
        or evicted (``trace()`` returns the spans still held)."""
        return trace_id in self._by_trace or trace_id in self._evicted_ids

    def orphans(self, trace_id: Optional[str] = None) -> List[Span]:
        """Spans whose parent never reached the store — the connectivity
        check the shed-attribution bugfix is verified against: a hop
        that drops context mid-flow shows up here.  Each trace's id set
        is built when that trace is read (a trace has about ten spans)."""
        out: List[Span] = []
        for tid in [trace_id] if trace_id is not None else list(self._by_trace):
            spans = sorted(self._views(tid), key=attrgetter("span_id"))
            ids = {s.span_id for s in spans}
            out.extend(s for s in spans
                       if s.parent_id is not None and s.parent_id not in ids)
        return out

    def unfinished(self) -> List[Span]:
        return sorted(self._open.values(), key=attrgetter("span_id"))

    def _drop_traces(self, trace_ids: Iterable[str]) -> int:
        """Remove whole finished traces; returns the number of spans
        dropped."""
        dropped = sum(len(self._by_trace.pop(tid, b""))
                      for tid in set(trace_ids)) // _ROW.size
        self._held -= dropped
        return dropped

    def __len__(self) -> int:
        return self._held

    # ---------------------------------------------------------- pinning
    def protect(self, trace_id: str) -> None:
        """Pin a trace against eviction (revocations, containments,
        fail-closed denials — anything a post-mortem will replay)."""
        if trace_id:
            self._protected.add(trace_id)

    def protected_ids(self) -> Set[str]:
        return set(self._protected)

    def trace_protected(self, trace_id: str) -> bool:
        return trace_id in self._protected or any(
            s.status in _PROTECTED_STATUSES for s in self.trace(trace_id))

    # --------------------------------------------------------- sampling
    def _trace_duration(self, spans: List[Span]) -> float:
        """Duration of the root span when present, else the envelope of
        the finished trace (``spans`` in start order) — the number
        slowest-k ranks by."""
        root = next((s for s in spans if s.parent_id is None), None)
        return (root.duration if root is not None
                else max(s.end for s in spans) - spans[0].start)

    def compact(self) -> None:
        """Apply the retention classes and evict the remainder into RED
        rollups, oldest trace first, down to the target fill."""
        target = max(1, int(self.config.max_spans * TARGET_FILL))
        excess = self._held - target
        if excess <= 0:
            return
        # classify completed traces; a trace with an open span is
        # untouchable
        candidates: List[Tuple[float, str, List[Span]]] = []
        windows: Dict[int, List[Tuple[float, str]]] = {}
        for tid in self._by_trace:
            if (any(s.trace_id == tid for s in self._open.values())
                    or self.trace_protected(tid)
                    or trace_sampled(tid, SAMPLE_RATE)):
                continue
            spans = self.trace(tid)
            start = spans[0].start
            candidates.append((start, tid, spans))
            windows.setdefault(int(start // self.config.window), []).append(
                (self._trace_duration(spans), tid))
        # slowest-k per window survive even though they sampled out
        slow: Set[str] = set()
        for bucket in windows.values():
            bucket.sort(reverse=True)
            slow.update(tid for _, tid in bucket[:SLOWEST_K])
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
                self.rollups.setdefault(
                    (span.service or span.name, span.status),
                    RedAggregate()).fold(span.duration)
        self.evicted_spans += self._drop_traces(doomed)
        self._evicted_ids.update(doomed)
        self.evicted_traces += len(doomed)
        self.compactions += 1

    # ------------------------------------------------------------- stats
    def stats(self) -> Dict[str, object]:
        return {
            "retained_spans": self._held,
            "retained_traces": len(self._by_trace),
            "evicted_spans": self.evicted_spans,
            "evicted_traces": self.evicted_traces,
            "protected_traces": len(self._protected),
            "compactions": self.compactions,
            "budget": (self.config.max_spans if self.config is not None
                       else None),
            "rolled_up": sum(a.count for a in self.rollups.values()),
        }


class Tracer:
    """Mints spans against the shared simulated clock.

    Ids are sequential counters rendered as hex — unique within the
    process, deterministic across runs, and never drawn from the
    deployment's seeded id/secret streams.
    """

    def __init__(self, clock: SimClock, store: Optional[SpanStore] = None) -> None:
        self.clock = clock
        self.store = store if store is not None else SpanStore()
        self._trace_n = 0
        self._span_n = 0

    # ------------------------------------------------------------- ids
    def new_trace_id(self) -> str:
        self._trace_n += 1
        return f"{self._trace_n:032x}"

    def new_span_id(self) -> str:
        self._span_n += 1
        return f"{self._span_n:016x}"

    # ----------------------------------------------------------- starts
    def start_trace(self, name: str, *, service: str = "", kind: str = "internal",
                    baggage: Optional[Dict[str, str]] = None,
                    **attrs: object) -> Span:
        """Open a new root span (a fresh trace id, no parent)."""
        # fields up to ``start`` positionally: half the cost of keywords
        span = Span(self.new_trace_id(), self.new_span_id(), None, name,
                    service, kind, self.clock.now(), attrs=attrs)
        if baggage:
            span.attrs["baggage"] = dict(baggage)
        return self.store.add(span)

    def start_span(self, name: str, ctx: TraceContext, *, service: str = "",
                   kind: str = "internal", **attrs: object) -> Span:
        """Open a span under an incoming context (its span becomes our
        parent, as traceparent semantics demand)."""
        span = Span(ctx.trace_id, self.new_span_id(), ctx.span_id, name,
                    service, kind, self.clock.now(), attrs=attrs)
        if ctx.baggage:
            span.attrs["baggage"] = dict(ctx.baggage)
        return self.store.add(span)

    # ------------------------------------------------------------- ends
    def end(self, span: Span, *, error: Optional[BaseException] = None,
            status: Optional[str] = None, **attrs: object) -> Span:
        """Close a span now; status defaults from the error taxonomy.
        The store keeps its row from here on."""
        span.end = self.clock.now()
        span.attrs.update(attrs)
        if status is not None:
            span.status = status
        elif error is not None:
            span.status = classify_error(error)
        else:
            span.status = SpanStatus.OK
        if error is not None:
            span.error = type(error).__name__
        self.store.seal(span)
        return span

    def annotate(self, span: Span, **attrs: object) -> None:
        """Add attrs to a span that has already ended — the one write
        after the end (a hedged call's abandoned attempt is marked the
        cancelled loser) — and seal it again."""
        span.attrs.update(attrs)
        self.store.reshape(span)

    # ------------------------------------------------------- retroactive
    def record(self, name: str, *, start: float, end: float, service: str = "",
               kind: str = "internal", status: str = SpanStatus.OK,
               ctx: Optional[TraceContext] = None, **attrs: object) -> Span:
        """Record an already-completed unit of work (WAL replays and
        failover promotions are measured by their reports, after the
        fact) as a finished span."""
        return self.store.add(Span(
            trace_id=ctx.trace_id if ctx is not None else self.new_trace_id(),
            span_id=self.new_span_id(),
            parent_id=ctx.span_id if ctx is not None else None,
            name=name, service=service, kind=kind,
            start=start, end=end, status=status, attrs=attrs,
        ))
