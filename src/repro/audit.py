"""Structured audit/event stream.

Zero-trust tenet 7 ("collect as much information as possible about the
current state of assets...") is implemented by making *every* decision
point in the library emit an :class:`AuditEvent` into an :class:`AuditLog`.
The SIEM's log forwarders each read one domain's log from a position and
ship it to the SOC, exactly as §III.B/§III.D of the paper describe.

Events are append-only and queryable; tests and the NIST-tenet checker
treat the audit trail as ground truth for "did an access decision happen,
and was it observed".  A log stores each event as one flat tuple of atoms
(:func:`_stored`); ``events()``, ``query()``, ``at()`` and the chain
check hand out fresh :class:`AuditEvent` views of those records, and
``read()`` the forwarders' wire records, built off the same tuples.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from math import isfinite
from typing import AbstractSet, Callable, Dict, Iterator, List, Optional, Tuple

from repro.resilience.durability import Durable, RecoveryReport, _compact
from repro.errors import RecoveryError

__all__ = ["AuditEvent", "AuditLog", "CombinedAuditView", "Outcome"]

_JSON_SCALARS = frozenset({str, int, float, bool, type(None)})


def _sorted_object(pairs):
    # keys are strings by now; a stable sort keeps json's last-wins rule
    # for keys that only collide once coerced (1 and "1")
    return dict(sorted(pairs, key=lambda pair: pair[0]))


# built once: json.loads would construct a decoder per call for the hook
_decode_sorted = json.JSONDecoder(object_pairs_hook=_sorted_object).decode


class Outcome:
    """String constants for the ``outcome`` field of an event.

    ``SHED`` and ``EXPIRED`` are overload outcomes, deliberately distinct
    from ``DENIED``: a shed request was *not* refused by policy — the
    service was protecting itself — and incident timelines must not
    conflate the two.
    """

    SUCCESS = "success"
    DENIED = "denied"
    ERROR = "error"
    INFO = "info"
    SHED = "shed"          # dropped by admission control / load shedding
    EXPIRED = "expired"    # deadline passed before the work could be served
    CACHED = "cached"      # decision served from a cache, not fresh work

    ALL = (SUCCESS, DENIED, ERROR, INFO, SHED, EXPIRED, CACHED)


@dataclass(frozen=True, slots=True)
class AuditEvent:
    """One observed fact: who did what to which resource, and how it went.

    Attributes
    ----------
    time:
        Simulated timestamp (seconds) at which the event occurred.
    source:
        The component emitting the event, e.g. ``"broker"`` or
        ``"bastion-1"``.
    actor:
        The principal involved, if known (user id, admin id, ``"anonymous"``).
    action:
        Verb, e.g. ``"token.issue"``, ``"ssh.login"``, ``"firewall.deny"``.
    resource:
        What was acted on, e.g. ``"login-node-0"`` or a token ``jti``.
    outcome:
        One of :class:`Outcome`'s constants.
    domain:
        Operating domain the emitting component lives in (MDC/SWS/FDS/SEC).
    zone:
        Security zone of the emitting component.
    attrs:
        Free-form structured details (never secrets).
    """

    time: float
    source: str
    actor: str
    action: str
    resource: str
    outcome: str
    domain: str = ""
    zone: str = ""
    attrs: Dict[str, object] = field(default_factory=dict)
    # tamper-evidence: sha256 over (previous event's digest + this event's
    # canonical form), assigned by the log at emission
    digest: str = field(default="", compare=False)

    def _quoted(self) -> Optional[Iterator[str]]:
        """The usual event's seven string fields as JSON string literals,
        in key order (action, actor, domain, outcome, resource, source,
        zone), for the caller to unpack — or ``None`` unless the event
        *is* the usual one: exact ``str`` fields and attr names, a finite
        ``float`` time.  Only then may an encoding be written out directly
        with the encoder's own string and float forms.

        A lazy ``map``, not a tuple: ``tuple()`` of a ``map`` allocates a
        10-slot tuple and shrinks it to 7, and the 7-slot free list it is
        freed onto is not the one it came from — one more count towards
        the collector's next pass per event, which moved the collector's
        schedule."""
        strings = (self.action, self.actor, self.domain, self.outcome,
                   self.resource, self.source, self.zone)
        if (type(self.time) is not float or not isfinite(self.time)
                or {*map(type, strings), *map(type, self.attrs)} != {str}):
            return None
        return map(_quote, strings)

    def canonical(self) -> bytes:
        """Stable byte form of the event content (digest excluded): its
        compact sorted-key JSON, attr values as their ``repr``.

        The keys are known and already in order, so the usual event (see
        :meth:`_quoted`) is written out directly; anything else goes
        through the compact sorted-key encoder."""
        quoted = self._quoted()
        if quoted is None:
            return _compact({
                "time": self.time, "source": self.source,
                "actor": self.actor, "action": self.action,
                "resource": self.resource, "outcome": self.outcome,
                "domain": self.domain, "zone": self.zone,
                "attrs": {k: repr(v) for k, v in sorted(self.attrs.items())},
            }).encode()
        action, actor, domain, outcome, resource, source, zone = quoted
        pairs = ",".join([f"{_quote(k)}:{_quote(repr(self.attrs[k]))}"
                          for k in sorted(self.attrs)])
        return (f'{{"action":{action},"actor":{actor},"attrs":{{{pairs}}},'
                f'"domain":{domain},"outcome":{outcome},'
                f'"resource":{resource},"source":{source},'
                f'"time":{float.__repr__(self.time)},"zone":{zone}}}'
                ).encode()

    def matches(
        self,
        *,
        action: Optional[str] = None,
        actor: Optional[str] = None,
        outcome: Optional[str] = None,
        source: Optional[str] = None,
    ) -> bool:
        """Field-wise filter used by :meth:`AuditLog.query`."""
        return ((action is None or self.action == action)
                and (actor is None or self.actor == actor)
                and (outcome is None or self.outcome == outcome)
                and (source is None or self.source == source))


# A log holds an emitted event as one flat tuple of atoms, ``(time,
# source, actor, action, resource, outcome, domain, zone, digest[, key …,
# value …])`` — its attr names, then their values, in insertion order
# (the span store's layout, telemetry/tracing.py).  A tuple of strings and
# numbers leaves the cyclic collector's books at the first pass that sees
# it; only an attr that ``_plain`` left a list or dict keeps its record
# tracked.
# indices of the action, the digest and the first attr name
_ACTION, _DIGEST, _ATTRS = 3, 8, 9


def _stored(event: AuditEvent) -> Tuple[object, ...]:
    attrs = event.attrs
    return (event.time, event.source, event.actor, event.action,
            event.resource, event.outcome, event.domain, event.zone,
            event.digest, *attrs, *attrs.values())


def _view(record: Tuple[object, ...]) -> AuditEvent:
    """A fresh :class:`AuditEvent` read off a stored record."""
    values = (len(record) + _ATTRS) // 2
    return AuditEvent(*record[:_DIGEST],  # type: ignore[arg-type]
                      attrs=dict(zip(record[_ATTRS:values], record[values:])),
                      digest=record[_DIGEST])  # type: ignore[arg-type]


class AuditLog(Durable):
    """Append-only event store with live subscribers and positions.

    One log exists per operating domain in the deployment; the SIEM's
    forwarders each hold a *position* in one log and read on from it
    (:meth:`read`).  A position counts the records emitted into the log:
    a journaled recovery rebuilds the same count, and a cold restart
    (the store's records gone, no journal) keeps counting from where it
    stopped, so a reader's position never points at a different record.
    Live subscribers (the telemetry bridge) must not raise — a broken
    consumer must not take down the emitting service — so callbacks that
    raise are detached and counted.

    The log is :class:`~repro.resilience.durability.Durable`: when a
    journal is attached, every emitted event (content plus its chained
    digest) is journaled, so a crash of the log store recovers the full
    hash chain — including heads minted before the crash — and
    ``verify_chain`` still passes across the crash boundary.  Recovery
    does **not** re-fan-out replayed events to subscribers; a forwarder
    finds them again at their positions, so nothing is shipped twice.
    """

    GENESIS = "0" * 64

    def __init__(self, name: str = "audit") -> None:
        self.name = name
        self._events: List[Tuple[object, ...]] = []  # records, see _stored
        self._first = 0  # position of _events[0]; a cold restart moves it
        self._subscribers: List[Callable[[AuditEvent], None]] = []
        self.dropped_subscribers = 0
        self._head = self.GENESIS  # digest of the latest event
        # crash semantics: while the log store's process is down, emitters
        # fire-and-forget into the void — events are *counted* as lost,
        # never chained from a wiped head (which would fork the chain)
        self.down = False
        self.lost_while_down = 0

    # ------------------------------------------------------------------
    @staticmethod
    def _plain(value: object) -> object:
        """Coerce an attr value to plain JSON data (repr as a last resort)
        so the canonical form survives a journal round-trip unchanged.
        An exact JSON scalar is its own round-trip; subclasses (enums)
        and containers go through the encoder, and objects come back
        with their keys sorted — the order the journal stores them in."""
        if type(value) in _JSON_SCALARS:
            return value
        try:
            return _decode_sorted(json.dumps(value))
        except (TypeError, ValueError):
            return repr(value)

    def emit(self, event: AuditEvent) -> AuditEvent:
        """Record ``event``, chain its digest, and fan out to subscribers.

        The event keeps its attrs dict unless a value needs coercing to
        plain data (:meth:`_plain`); then it gets a coerced copy.  The log
        stores the event's record; the event itself is the caller's.

        A journaled log hands its journal the very record it stores when
        the event is the usual one (see :meth:`AuditEvent._quoted`) with
        every attr value a JSON scalar: an immutable row of atoms, whose
        text (its :meth:`row_payload`, encoded) is written only when the
        journal is read.  Any other event goes in as that payload, encoded
        at append — a container attr so that no edit through a view
        reaches the journal, an unusual field so that it meets the
        encoder's admission filter."""
        if event.outcome not in Outcome.ALL:
            raise ValueError(f"unknown outcome {event.outcome!r}")
        if self.down:
            self.lost_while_down += 1
            return event
        if not (scalar := _JSON_SCALARS.issuperset(
                map(type, event.attrs.values()))):
            object.__setattr__(event, "attrs", {
                k: self._plain(v) for k, v in event.attrs.items()})
        digest = hashlib.sha256(
            self._head.encode() + event.canonical()
        ).hexdigest()
        object.__setattr__(event, "digest", digest)
        row = _stored(event)
        if self.journal is not None:
            # write-ahead: a fenced emit raises here, chain untouched
            self._jpublish("audit.emit", row if scalar and event._quoted()
                           is not None else self.row_payload(row))
        self._head = digest
        self._events.append(row)
        dead: List[Callable[[AuditEvent], None]] = []
        for sub in self._subscribers:
            try:
                sub(event)
            except Exception:
                dead.append(sub)
        for sub in dead:
            self._subscribers.remove(sub)
            self.dropped_subscribers += 1
        return event

    def record(
        self,
        time: float,
        source: str,
        actor: str,
        action: str,
        resource: str,
        outcome: str,
        *,
        domain: str = "",
        zone: str = "",
        **attrs: object,
    ) -> AuditEvent:
        """Convenience wrapper building the event inline (positionally, in
        field order: a frozen dataclass's keyword init costs a third
        more, on every audit record)."""
        return self.emit(AuditEvent(time, source, actor, action, resource,
                                    outcome, domain, zone, attrs))

    # ------------------------------------------------------------------
    def subscribe(self, callback: Callable[[AuditEvent], None]) -> None:
        """Register a live consumer (the telemetry bridge)."""
        self._subscribers.append(callback)

    # ------------------------------------------------------------------
    @property
    def position(self) -> int:
        """Position the next record will take: records emitted so far.
        The records held are the last ``len(log)`` of them; those before
        were wiped by a cold restart."""
        return self._first + len(self._events)

    def read(self, position: int, prefixes: Tuple[str, ...],
             attrs: AbstractSet[str]) -> List[Dict[str, object]]:
        """The wire records of the held records from ``position`` on whose
        action starts with one of ``prefixes``, in emission order: the
        fixed fields, and the attrs named in ``attrs``.  Each is built
        straight off its stored record, in one pass; a record the filter
        keeps out is never built."""
        out: List[Dict[str, object]] = []
        for r in self._events[max(position - self._first, 0):]:
            if r[_ACTION].startswith(prefixes):
                values = (len(r) + _ATTRS) // 2
                out.append({
                    "time": r[0], "source": r[1], "actor": r[2],
                    "action": r[3], "resource": r[4], "outcome": r[5],
                    "domain": r[6], "zone": r[7],
                    "attrs": {k: v for k, v in zip(r[_ATTRS:values], r[values:])
                              if k in attrs}})
        return out

    def at(self, position: int) -> Optional[AuditEvent]:
        """A view of the record at ``position``; None once a cold restart
        wiped it."""
        return (_view(self._events[position - self._first])
                if position >= self._first else None)

    def events(self) -> List[AuditEvent]:
        """Views of all events in emission order."""
        return list(map(_view, self._events))

    def query(
        self,
        *,
        action: Optional[str] = None,
        actor: Optional[str] = None,
        outcome: Optional[str] = None,
        source: Optional[str] = None,
        since: float = float("-inf"),
    ) -> List[AuditEvent]:
        """Filtered view of the trail."""
        return [
            e
            for e in map(_view, self._events)
            if e.time >= since
            and e.matches(action=action, actor=actor, outcome=outcome, source=source)
        ]

    def count(self, **kwargs: object) -> int:
        return len(self.query(**kwargs))  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    def verify_chain(self) -> Tuple[bool, Optional[int]]:
        """Recompute the digest chain; returns (intact, first_bad_index).

        Any mutation of a stored event's content — or any removal or
        reordering — breaks every digest from that point on, so auditors
        can prove the trail was not rewritten after the fact (tenet 7
        with teeth).
        """
        head = self.GENESIS
        for i, event in enumerate(map(_view, self._events)):
            expected = hashlib.sha256(
                head.encode() + event.canonical()
            ).hexdigest()
            if event.digest != expected:
                return False, i
            head = expected
        return True, None

    def __len__(self) -> int:
        return len(self._events)

    # ------------------------------------------------------------------
    # durability (crash recovery of the log store itself)
    # ------------------------------------------------------------------
    @staticmethod
    def row_payload(record: Tuple[object, ...]) -> Dict[str, object]:
        """The ``audit.emit`` payload of a stored record, as
        ``durable_state()`` lists it: the event's fields, its attrs as an
        object and its digest (the journal writes a row's text from it)."""
        values = (len(record) + _ATTRS) // 2
        return {
            "time": record[0], "source": record[1], "actor": record[2],
            "action": record[3], "resource": record[4], "outcome": record[5],
            "domain": record[6], "zone": record[7],
            "attrs": dict(zip(record[_ATTRS:values], record[values:])),
            "digest": record[_DIGEST],
        }

    def durable_state(self) -> Dict[str, object]:
        return {"head": self._head,
                "events": list(map(self.row_payload, self._events))}

    def checkpoint(self) -> None:
        """Seal instead of re-encoding the trail: every pending entry is
        an ``audit.emit`` whose record *is* the next item of ``events``.
        Only the unfenced writer gets here, before its next append and
        with every journaled emit applied, so ``_head`` is the digest of
        the last record being sealed."""
        self.journal.snapshot({"head": self._head}, seal="events")

    def wipe_state(self) -> None:
        """Crash: the stored trail is gone, its positions are not (a cold
        restart counts on from here).  Live subscribers are separate
        infrastructure and stay subscribed."""
        self._first += len(self._events)
        self._events = []
        self._head = self.GENESIS

    def load_state(self, state: Dict[str, object]) -> None:
        # a journaled log holds its trail from its first record on (the
        # attach baseline snapshots all of it), so the count starts at 0
        self._events = [_stored(AuditEvent(**d)) for d in state["events"]]
        self._first = 0
        self._head = str(state["head"])

    def apply_entry(self, kind: str, data: Dict[str, object]) -> None:
        if kind == "audit.emit":
            self._events.append(_stored(AuditEvent(**data)))
            self._head = str(data["digest"])

    def verify_recovery(self, report: "RecoveryReport") -> None:
        intact, bad = self.verify_chain()
        if not intact:
            raise RecoveryError(
                f"audit log {self.name!r}: recovered hash chain breaks at "
                f"event {bad}")
        if self._events and self._events[-1][_DIGEST] != self._head:
            raise RecoveryError(
                f"audit log {self.name!r}: recovered head does not match "
                "the last event's digest")


class CombinedAuditView:
    """Read-only union over several domain logs (time-ordered).

    The deployment keeps one :class:`AuditLog` per operating domain (as
    the real system keeps per-domain log pipelines); compliance checkers
    and benches want one queryable trail — this view provides it without
    copying events at emission time.
    """

    def __init__(self, logs: Dict[str, AuditLog]) -> None:
        self._logs = dict(logs)

    def events(self) -> List[AuditEvent]:
        return self.query()

    def query(self, **kwargs) -> List[AuditEvent]:
        merged: List[AuditEvent] = []
        for log in self._logs.values():
            merged.extend(log.query(**kwargs))
        merged.sort(key=lambda e: e.time)
        return merged

    def count(self, **kwargs) -> int:
        return sum(log.count(**kwargs) for log in self._logs.values())

    def __len__(self) -> int:
        return sum(len(log) for log in self._logs.values())
