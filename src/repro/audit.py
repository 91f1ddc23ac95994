"""Structured audit/event stream.

Zero-trust tenet 7 ("collect as much information as possible about the
current state of assets...") is implemented by making *every* decision
point in the library emit an :class:`AuditEvent` into an :class:`AuditLog`.
The SIEM's log forwarders subscribe to the logs of each domain and ship
them to the SOC, exactly as §III.B/§III.D of the paper describe.

Events are append-only and queryable; tests and the NIST-tenet checker
treat the audit trail as ground truth for "did an access decision happen,
and was it observed".
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from math import isfinite
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.resilience.durability import Durable, RecoveryReport, _encode
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
        through ``json.dumps`` itself."""
        quoted = self._quoted()
        if quoted is None:
            return json.dumps(
                {
                    "time": self.time, "source": self.source,
                    "actor": self.actor, "action": self.action,
                    "resource": self.resource, "outcome": self.outcome,
                    "domain": self.domain, "zone": self.zone,
                    "attrs": {k: repr(v) for k, v in sorted(self.attrs.items())},
                },
                separators=(",", ":"), sort_keys=True,
            ).encode()
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


class AuditLog(Durable):
    """Append-only event store with live subscribers.

    One log exists per operating domain in the deployment; the SIEM's
    forwarders subscribe and relay into the SOC.  Subscribers must not
    raise — a broken forwarder must not take down the emitting service —
    so callbacks that raise are detached and counted.

    The log is :class:`~repro.resilience.durability.Durable`: when a
    journal is attached, every emitted event (content plus its chained
    digest) is journaled, so a crash of the log store recovers the full
    hash chain — including heads minted before the crash — and
    ``verify_chain`` still passes across the crash boundary.  Recovery
    does **not** re-fan-out replayed events to subscribers: the SIEM
    pipeline already accepted them pre-crash (its own durable buffer is
    responsible for delivery), so replay must not duplicate records.
    """

    GENESIS = "0" * 64

    def __init__(self, name: str = "audit") -> None:
        self.name = name
        self._events: List[AuditEvent] = []
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
        plain data (:meth:`_plain`); then it gets a coerced copy."""
        if event.outcome not in Outcome.ALL:
            raise ValueError(f"unknown outcome {event.outcome!r}")
        if self.down:
            self.lost_while_down += 1
            return event
        if not _JSON_SCALARS.issuperset(map(type, event.attrs.values())):
            object.__setattr__(event, "attrs", {
                k: self._plain(v) for k, v in event.attrs.items()})
        digest = hashlib.sha256(
            self._head.encode() + event.canonical()
        ).hexdigest()
        object.__setattr__(event, "digest", digest)
        if self.journal is not None:
            # write-ahead: a fenced emit raises here, chain untouched
            self._jpublish("audit.emit", self._record_of(event))
        self._head = digest
        self._events.append(event)
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
        """Convenience wrapper building the event inline."""
        return self.emit(
            AuditEvent(
                time=time,
                source=source,
                actor=actor,
                action=action,
                resource=resource,
                outcome=outcome,
                domain=domain,
                zone=zone,
                attrs=attrs,
            )
        )

    # ------------------------------------------------------------------
    def subscribe(self, callback: Callable[[AuditEvent], None]) -> None:
        """Register a live consumer (e.g. a SIEM log forwarder)."""
        self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[AuditEvent], None]) -> None:
        self._subscribers.remove(callback)

    # ------------------------------------------------------------------
    def events(self) -> List[AuditEvent]:
        """A copy of all events in emission order."""
        return list(self._events)

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
            for e in self._events
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
        for i, event in enumerate(self._events):
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
    def _record_of(event: AuditEvent) -> "str | Dict[str, object]":
        """The ``audit.emit`` record: for the usual event (see
        :meth:`AuditEvent._quoted`) its text, written out directly and byte
        for byte what ``json.dumps(_event_dict(event), sort_keys=True)``
        writes; for any other event that dict, for the journal to encode."""
        quoted = event._quoted()
        if quoted is None:
            return AuditLog._event_dict(event)
        action, actor, domain, outcome, resource, source, zone = quoted
        return (f'{{"action": {action}, "actor": {actor}, '
                f'"attrs": {_encode(event.attrs)}, "digest": "{event.digest}", '
                f'"domain": {domain}, "outcome": {outcome}, '
                f'"resource": {resource}, "source": {source}, '
                f'"time": {float.__repr__(event.time)}, "zone": {zone}}}')

    @staticmethod
    def _event_dict(event: AuditEvent) -> Dict[str, object]:
        return {
            "time": event.time, "source": event.source, "actor": event.actor,
            "action": event.action, "resource": event.resource,
            "outcome": event.outcome, "domain": event.domain,
            "zone": event.zone, "attrs": dict(event.attrs),
            "digest": event.digest,
        }

    @staticmethod
    def _event_from(data: Dict[str, object]) -> AuditEvent:
        digest = str(data.pop("digest"))
        event = AuditEvent(**data)  # type: ignore[arg-type]
        object.__setattr__(event, "digest", digest)
        return event

    def durable_state(self) -> Dict[str, object]:
        return {
            "head": self._head,
            "events": [self._event_dict(e) for e in self._events],
        }

    def checkpoint(self) -> None:
        """Seal instead of re-encoding the trail: every pending entry is
        an ``audit.emit`` whose record *is* the next item of ``events``.
        Only the unfenced writer gets here, before its next append and
        with every journaled emit applied, so ``_head`` is the digest of
        the last record being sealed."""
        self.journal.snapshot({"head": self._head}, seal="events")

    def wipe_state(self) -> None:
        """Crash: the stored trail is gone.  Live subscribers (the SIEM
        forwarders) are separate infrastructure and stay subscribed."""
        self._events = []
        self._head = self.GENESIS

    def load_state(self, state: Dict[str, object]) -> None:
        self._events = [self._event_from(dict(d)) for d in state["events"]]
        self._head = str(state["head"])

    def apply_entry(self, kind: str, data: Dict[str, object]) -> None:
        if kind == "audit.emit":
            event = self._event_from(dict(data))
            self._events.append(event)
            self._head = event.digest

    def verify_recovery(self, report: "RecoveryReport") -> None:
        intact, bad = self.verify_chain()
        if not intact:
            raise RecoveryError(
                f"audit log {self.name!r}: recovered hash chain breaks at "
                f"event {bad}")
        if self._events and self._events[-1].digest != self._head:
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
        merged: List[AuditEvent] = []
        for log in self._logs.values():
            merged.extend(log.events())
        merged.sort(key=lambda e: e.time)
        return merged

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
