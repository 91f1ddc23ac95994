"""Unit tests for the audit event stream."""

import enum
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import AuditEvent, AuditLog, Outcome
from repro.core import build_isambard


def make_event(**overrides):
    base = dict(
        time=1.0,
        source="broker",
        actor="alice",
        action="token.issue",
        resource="jti-1",
        outcome=Outcome.SUCCESS,
    )
    base.update(overrides)
    return AuditEvent(**base)


def test_emit_and_len():
    log = AuditLog()
    log.emit(make_event())
    log.emit(make_event(action="token.revoke"))
    assert len(log) == 2


def test_emit_rejects_unknown_outcome():
    log = AuditLog()
    with pytest.raises(ValueError):
        log.emit(make_event(outcome="maybe"))


def test_record_convenience_builds_event():
    log = AuditLog()
    ev = log.record(
        2.0, "portal", "bob", "project.create", "proj-1", Outcome.SUCCESS,
        domain="fds", zone="access", size=3,
    )
    assert ev.attrs == {"size": 3}
    assert ev.domain == "fds"
    # the log keeps a record; what it hands back is a fresh, equal view
    view = log.events()[-1]
    assert view == ev and view.digest == ev.digest
    assert view is not ev and view.attrs is not ev.attrs


def test_query_filters_by_fields():
    log = AuditLog()
    log.emit(make_event(actor="alice", action="login"))
    log.emit(make_event(actor="bob", action="login", outcome=Outcome.DENIED))
    log.emit(make_event(actor="alice", action="logout"))
    assert len(log.query(actor="alice")) == 2
    assert len(log.query(action="login")) == 2
    assert len(log.query(action="login", outcome=Outcome.DENIED)) == 1
    assert log.count(actor="carol") == 0


def test_query_since_timestamp():
    log = AuditLog()
    log.emit(make_event(time=1.0))
    log.emit(make_event(time=5.0))
    assert len(log.query(since=2.0)) == 1


def test_subscribers_receive_events_live():
    log = AuditLog()
    seen = []
    log.subscribe(seen.append)
    ev = make_event()
    log.emit(ev)
    assert seen == [ev]


def test_broken_subscriber_is_detached_not_fatal():
    log = AuditLog()

    def bad(_event):
        raise RuntimeError("forwarder crashed")

    good = []
    log.subscribe(bad)
    log.subscribe(good.append)
    log.emit(make_event())
    assert log.dropped_subscribers == 1
    # second emit no longer touches the dead subscriber
    log.emit(make_event())
    assert len(good) == 2


def test_events_returns_copy():
    log = AuditLog()
    log.emit(make_event())
    events = log.events()
    events.clear()
    assert len(log) == 1


def test_matches_helper():
    ev = make_event(actor="alice", action="login", source="idp")
    assert ev.matches(actor="alice", action="login")
    assert not ev.matches(actor="bob")
    assert not ev.matches(source="portal")


# ---------------------------------------------------------------------------
# canonical(): written out directly, byte for byte what json.dumps writes
# ---------------------------------------------------------------------------
def _reference_canonical(event: AuditEvent) -> bytes:
    """The definition: compact sorted-key JSON, attr values as ``repr``."""
    return json.dumps(
        {"time": event.time, "source": event.source, "actor": event.actor,
         "action": event.action, "resource": event.resource,
         "outcome": event.outcome, "domain": event.domain, "zone": event.zone,
         "attrs": {k: repr(v) for k, v in sorted(event.attrs.items())}},
        separators=(",", ":"), sort_keys=True).encode()


class _Zone(str, enum.Enum):
    ACCESS = "access"


_text = st.text(max_size=12)  # quotes, controls, non-ASCII, astral planes
_attr_values = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), _text,
    st.lists(st.integers(), max_size=3),
    st.dictionaries(_text, st.integers(), max_size=2))


@settings(max_examples=300, deadline=None)
@given(
    time=st.one_of(st.floats(), st.integers(-5, 5), st.booleans()),
    strings=st.lists(st.one_of(_text, st.just(_Zone.ACCESS)),
                     min_size=7, max_size=7),
    attrs=st.dictionaries(_text, _attr_values, max_size=5),
)
def test_canonical_is_byte_identical_to_the_json_definition(time, strings, attrs):
    source, actor, action, resource, outcome, domain, zone = strings
    event = AuditEvent(time=time, source=source, actor=actor, action=action,
                       resource=resource, outcome=outcome, domain=domain,
                       zone=zone, attrs=attrs)
    assert event.canonical() == _reference_canonical(event)


def test_canonical_of_the_usual_event_and_of_the_odd_ones():
    usual = make_event(time=12.5, domain="fds", zone="access",
                       attrs={"b": 1, "a": "x\"y", "é": [1, 2]})
    assert usual.canonical() == (
        b'{"action":"token.issue","actor":"alice","attrs":{"a":"\'x\\"y\'",'
        b'"b":"1","\\u00e9":"[1, 2]"},"domain":"fds","outcome":"success",'
        b'"resource":"jti-1","source":"broker","time":12.5,"zone":"access"}')
    # an int or non-finite time, an enum field, a non-str attr name: the
    # json encoder's own forms
    for odd in (make_event(time=3), make_event(time=float("inf")),
                make_event(time=float("nan")), make_event(zone=_Zone.ACCESS),
                make_event(attrs={1: "x", 2: "y"})):
        assert odd.canonical() == _reference_canonical(odd)


def test_combined_audit_accessors():
    dri = build_isambard(seed=134)
    dri.workflows.story1_pi_onboarding("kit")
    merged = dri.audit.events()
    assert merged == sorted(merged, key=lambda e: e.time)
    assert len(dri.audit) == sum(len(v) for v in dri.logs.values())
