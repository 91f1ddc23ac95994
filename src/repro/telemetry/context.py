"""The trace context: an object between hops, W3C headers at the edge.

One login in the paper's system crosses four operating domains (device →
edge → broker/OIDC → MDC).  Every hop of it runs inside this process, so
— exactly like the deadline/priority plumbing — the position in the
trace rides on the request itself, as ``HttpRequest.trace``.  The context
is immutable; each hop derives a child context
(:meth:`TraceContext.child_of`) naming its own span as the parent of
whatever the handler calls next, and nothing is formatted or parsed on
the way.

The header form is the wire codec for a context that arrives from
outside the process's own hops: the W3C Trace Context shape
(``00-<32 hex trace id>-<16 hex span id>-01``) plus a W3C ``baggage``
header of percent-encoded ``key=value`` members.  ``Service.call`` reads
it once, when it is handed a request that carries the header and no
context object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional
from urllib.parse import quote, unquote

__all__ = ["TraceContext", "TRACEPARENT_HEADER", "BAGGAGE_HEADER"]

TRACEPARENT_HEADER = "traceparent"
BAGGAGE_HEADER = "baggage"

_HEX = set("0123456789abcdef")


def _is_hex(value: str, width: int) -> bool:
    return len(value) == width and set(value) <= _HEX


def _encode(text: str) -> str:
    return quote(text, safe="", errors="surrogatepass")


def _decode(text: str) -> str:
    return unquote(text, errors="surrogatepass")


@dataclass(frozen=True)
class TraceContext:
    """One position in a trace: (trace id, current span, its parent).

    ``trace_id`` is 32 lowercase hex chars, ``span_id`` 16; ``baggage``
    is small flow-scoped metadata (never secrets) that propagates to
    every downstream hop unchanged.
    """

    trace_id: str
    span_id: str
    parent_id: Optional[str] = None
    baggage: Dict[str, str] = field(default_factory=dict)

    # ------------------------------------------------------------ encode
    def to_traceparent(self) -> str:
        return f"00-{self.trace_id}-{self.span_id}-01"

    def inject(self, headers: Dict[str, str]) -> None:
        """Write this context onto a request's headers."""
        headers[TRACEPARENT_HEADER] = self.to_traceparent()
        if self.baggage:
            # percent-encoded, so a "," or "=" inside a key or value
            # cannot forge a second member on the way back in
            headers[BAGGAGE_HEADER] = ",".join(
                f"{_encode(k)}={_encode(v)}"
                for k, v in sorted(self.baggage.items())
            )

    # ------------------------------------------------------------ decode
    @classmethod
    def from_traceparent(
        cls, header: str, *, baggage: Optional[Mapping[str, str]] = None
    ) -> Optional["TraceContext"]:
        """Parse a traceparent value; ``None`` for anything malformed
        (a malformed header must degrade to "untraced", never raise)."""
        parts = header.strip().split("-")
        if len(parts) != 4:
            return None
        version, trace_id, span_id, _flags = parts
        if version != "00":
            return None
        if not _is_hex(trace_id, 32) or not _is_hex(span_id, 16):
            return None
        if trace_id == "0" * 32 or span_id == "0" * 16:
            return None
        return cls(trace_id=trace_id, span_id=span_id,
                   baggage=dict(baggage or {}))

    @classmethod
    def extract(cls, headers: Mapping[str, str]) -> Optional["TraceContext"]:
        """Read a context out of request headers (``None`` when absent)."""
        header = headers.get(TRACEPARENT_HEADER)
        if not header:
            return None
        baggage: Dict[str, str] = {}
        raw = headers.get(BAGGAGE_HEADER, "")
        if raw:
            for part in raw.split(","):
                key, sep, value = part.strip().partition("=")
                if not (sep and key):
                    continue
                try:
                    baggage[_decode(key)] = _decode(value)
                except UnicodeDecodeError:
                    continue  # a malformed member is dropped, not raised
        return cls.from_traceparent(header, baggage=baggage)

    # ------------------------------------------------------------- derive
    def child_of(self, span_id: str) -> "TraceContext":
        """The context downstream work should carry once ``span_id`` is
        the active span at this hop."""
        return TraceContext(trace_id=self.trace_id, span_id=span_id,
                            parent_id=self.span_id, baggage=self.baggage)

