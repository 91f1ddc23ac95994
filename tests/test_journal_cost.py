"""The journal is a write-ahead log: what durability costs, and that the
cheap form loses nothing.

``ServiceJournal`` holds encoded records — or, for the audit log, the
log's own rows, written as text when read — and an append-only service
checkpoints by sealing its pending records onto the snapshot.  The
differentials below pin that against the journal it replaced — live
dicts, every checkpoint the whole ``durable_state()`` through a JSON
round trip — kept here as a test-only reference.  The cost tests have no
clock in them: they count the bytes encoded.  A record is written from
the live object; the last differentials pin that text to what
``json.dumps`` wrote from the dicts it was once repacked into.
"""

import copy
import enum
import json
from collections import namedtuple
from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import _JSON_SCALARS, AuditEvent, AuditLog, Outcome
from repro.broker import Role, TokenService
from repro.clock import SimClock
from repro.crypto.keys import generate_signing_key
from repro.errors import ConfigurationError, EpochFenced
from repro.ids import IdFactory
from repro.resilience import durability
from repro.resilience.durability import Durable, DurabilityStore, ServiceJournal
from tests.test_oidc import full_flow, login
from tests.conftest import Wiring

pytestmark = pytest.mark.durability


# ---------------------------------------------------------------------------
# the reference: the journal as it was
# ---------------------------------------------------------------------------
RefEntry = namedtuple("RefEntry", "seq time epoch kind data")
FIELDS = ("time", "source", "actor", "action", "resource", "outcome",
          "domain", "zone", "digest")


def row_dict(row):
    """The event dict an audit log's row stands for, read off the row's
    layout — the fixed fields, the attr names, then their values."""
    names = (len(row) - len(FIELDS)) // 2
    attrs = row[len(FIELDS):]
    return {**dict(zip(FIELDS, row)),
            "attrs": dict(zip(attrs[:names], attrs[names:]))}


def jsonable(data):
    try:
        return json.loads(json.dumps(data, sort_keys=True))
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(str(exc)) from exc


class RoundTripJournal:
    """Entries and snapshot held as dicts; every write round-trips its
    payload, every read deep-copies it."""

    def __init__(self, store, name):
        self.store, self.name = store, name
        self._entries, self._snapshot = [], None
        self._snapshot_seq = self._seq = self._epoch = 0
        self.appends = self.snapshots = self.fenced_appends = 0

    epoch = property(lambda self: self._epoch)
    snapshot_seq = property(lambda self: self._snapshot_seq)

    def acquire_epoch(self):
        self._epoch += 1
        return self._epoch

    def append(self, kind, data, *, epoch=None):
        if epoch is not None and epoch != self._epoch:
            self.fenced_appends += 1
            raise EpochFenced(self.name)
        if type(data) is tuple:                 # an audit log's own row
            data = row_dict(data)
        self._seq += 1
        self._entries.append(RefEntry(self._seq, self.store.clock.now(),
                                      self._epoch, kind, jsonable(data)))
        self.appends += 1

    def snapshot(self, state):
        self._snapshot = jsonable(state)
        self._snapshot_seq = self._seq
        self._entries = []
        self.snapshots += 1

    def load(self):
        return copy.deepcopy(self._snapshot), copy.deepcopy(self._entries)

    def pending_entries(self):
        return len(self._entries)


class FullSnapshotLog(AuditLog):
    """An ``AuditLog`` that checkpoints the way every mutable service
    does: ``durable_state()``, whole, into the journal."""

    checkpoint = Durable.checkpoint


# ---------------------------------------------------------------------------
# differential: random histories, equal journals and equal recoveries
# ---------------------------------------------------------------------------
class Colour(enum.Enum):
    RED = "red"


class Level(enum.IntEnum):
    HIGH = 3


class Opaque:
    """Not JSON: the log stores its repr."""

    def __repr__(self):
        return "<opaque>"


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 6, 10 ** 6)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
attr_values = json_values | st.sampled_from(
    [Colour.RED, Level.HIGH, Opaque(), {1: "int key"}, {"nested": Opaque()}])
emits = st.tuples(
    st.just("emit"),
    st.dictionaries(st.sampled_from(["a", "b", "jti", "reason"]),
                    attr_values, max_size=3))
steps = st.lists(
    emits | st.sampled_from([("crash",), ("recover",), ("fence",),
                             ("promote",), ("tick",)]),
    max_size=40)


class Side:
    """One deployment of the log: its own clock, store, journal."""

    def __init__(self, log_cls, journal_cls, cadence, pre_attach):
        self.clock = SimClock()
        self.store = DurabilityStore(self.clock, Wiring(self.clock).telemetry)
        self.journal = journal_cls(self.store, "audit-test")
        self.store._streams["audit-test"] = self.journal
        self.log_cls, self.cadence = log_cls, cadence
        self.log = self.new_log()
        for attrs in pre_attach:
            self.emit(attrs)
        self.log.attach_journal(self.journal)

    def new_log(self):
        log = self.log_cls("test")
        log.snapshot_every = self.cadence
        return log

    def emit(self, attrs):
        try:
            event = self.log.record(self.clock.now(), "src", "alice", "act",
                                    "res", "info", **attrs)
        except EpochFenced:
            return "fenced"
        return event.digest

    def apply(self, step):
        kind = step[0]
        if kind == "emit":
            return self.emit(step[1])
        if kind == "tick":
            return self.clock.advance(0.5)
        if kind == "crash":
            self.log.down = True
            return self.log.wipe_state()
        if kind == "fence":
            return self.journal.acquire_epoch()
        if kind == "promote":
            # a standby follows the journal, then takes over; the old
            # primary keeps running, fenced (it is dropped here)
            self.log = self.new_log()
            self.log.adopt_journal(self.journal)
        report = asdict(self.log.recover())
        self.log.down = False
        return report

    def observe(self):
        snap, entries = self.journal.load()
        return {
            "snapshot": snap,
            "entries": [(e.seq, e.time, e.epoch, e.kind, e.data)
                        for e in entries],
            "snapshot_seq": self.journal.snapshot_seq,
            "pending": self.journal.pending_entries(),
            "stats": self.store.stats(),
            "log": (len(self.log), self.log._head, self.log.lost_while_down,
                    self.log.fencing_epoch),
        }


@settings(max_examples=150, deadline=None)
@given(cadence=st.integers(1, 6),
       pre_attach=st.lists(emits.map(lambda e: e[1]), max_size=3),
       history=steps)
def test_sealed_journal_equals_full_snapshot_reference(cadence, pre_attach,
                                                       history):
    new = Side(AuditLog, ServiceJournal, cadence, pre_attach)
    ref = Side(FullSnapshotLog, RoundTripJournal, cadence, pre_attach)
    assert new.observe() == ref.observe()
    for step in history:
        assert new.apply(step) == ref.apply(step), step
        assert new.observe() == ref.observe(), step
    # and what is in the journal is the log: a cold recovery reproduces it
    for side in (new, ref):
        side.apply(("crash",))
    assert new.apply(("recover",)) == ref.apply(("recover",))
    for side in (new, ref):
        assert side.log.verify_chain() == (True, None)
        snap, _ = side.journal.load()
        if snap["events"]:
            assert snap["head"] == snap["events"][-1]["digest"]


# ---------------------------------------------------------------------------
# differential: the log's rows in the journal, against the text it held
# ---------------------------------------------------------------------------
scalars = (st.none() | st.booleans() | st.integers(-10 ** 6, 10 ** 6)
           | st.floats(allow_nan=False) | st.text(max_size=4))
containers = (st.lists(st.integers(), max_size=2)
              | st.dictionaries(st.text(max_size=2), scalars, max_size=2))
row_emits = st.tuples(
    st.just("emit"),
    # usual; usual with a container attr; an int time; an enum field
    st.sampled_from(["usual", "usual", "container", "int-time", "enum"]),
    st.dictionaries(st.sampled_from(["a", "b", "jti"]), scalars, max_size=3),
    containers)
# mostly emits, so that most histories seal at the cadence of 4
row_steps = st.lists(st.one_of(row_emits, row_emits, row_emits, row_emits,
                               st.just(("fence",)), st.just(("tick",))),
                     min_size=8, max_size=24)


def emit_shaped(side, shape, attrs, container):
    now = side.clock.now()
    if shape == "container":
        attrs = {**attrs, "amr": container}
    time = int(now) if shape == "int-time" else now
    action = Tag.ACCESS if shape == "enum" else "act"
    try:
        return side.log.record(time, "src", "alice", action, "res",
                               "info", **attrs).digest
    except EpochFenced:
        return "fenced"


def journal_text(journal):
    """Every record of ``journal`` as text, through its text accessor."""
    return ([*map(journal.text, journal._sealed)],
            [(e.seq, e.time, e.epoch, e.kind, journal.text(e.body))
             for e in journal._entries])


def held(side):
    log = side.log
    return (log.events(), log._head, log.verify_chain(),
            log.state_hash(), journal_text(side.journal))


def is_row(event):
    return (event._quoted() is not None
            and _JSON_SCALARS.issuperset(map(type, event.attrs.values())))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(history=row_steps, crash_at=st.integers(0, 24))
def test_journaled_rows_read_as_the_text_did(history, crash_at):
    """A usual event with scalar attrs journals the log's own row; any
    other its text.  Through a crash at any point, the journal reads as
    the text-era reference does, and recovery rebuilds the live log."""
    new = Side(AuditLog, ServiceJournal, 4, [])
    ref = Side(FullSnapshotLog, RoundTripJournal, 4, [])
    for i, step in enumerate([*history[:crash_at], ("crash",),
                              *history[crash_at:]]):
        if step[0] == "emit":
            before = held(new)
            digests = [emit_shaped(side, *step[1:]) for side in (new, ref)]
            assert digests[0] == digests[1]
            if digests[0] == "fenced":
                assert held(new) == before
                for side in (new, ref):
                    side.apply(("recover",))
            else:
                entry, row = new.journal._entries[-1], new.log._events[-1]
                assert (entry.body is row) is is_row(new.log.events()[-1])
        elif step[0] == "crash":
            live = held(new)
            for side in (new, ref):
                side.apply(("crash",))
                side.apply(("recover",))
            assert held(new) == live
        else:
            assert new.apply(step) == ref.apply(step)
        snap, entries = new.journal.load()
        ref_snap, ref_entries = ref.journal.load()
        assert snap == ref_snap and new.observe() == ref.observe(), i
        assert [(e.record, e.data) for e in entries] == [
            (json.dumps(r.data, sort_keys=True), r.data) for r in ref_entries]
        assert new.log._events == ref.log._events


# ---------------------------------------------------------------------------
# cost shape: a checkpoint costs the pending records, not the history
# ---------------------------------------------------------------------------
@pytest.fixture
def encoded_bytes(monkeypatch):
    """Total length of every text ``json.dumps`` or the journal's own
    encoder (``_encode``, which only the journal calls) returned so far."""
    total = [0]

    def counting(real):
        def counted(*args, **kwargs):
            text = real(*args, **kwargs)
            total[0] += len(text)
            return text
        return counted

    monkeypatch.setattr(json, "dumps", counting(json.dumps))
    monkeypatch.setattr(durability, "_encode", counting(durability._encode))
    return lambda: total[0]


def test_audit_checkpoint_cost_does_not_grow_with_the_log(
        monkeypatch, encoded_bytes):
    clock = SimClock()
    log = AuditLog("cost")
    store = DurabilityStore(clock, Wiring(clock).telemetry)
    log.attach_journal(store.stream("audit-cost"))
    journal = log.journal
    full_states = []
    real_state = AuditLog.durable_state
    monkeypatch.setattr(
        AuditLog, "durable_state",
        lambda self: full_states.append(1) or real_state(self))
    in_checkpoints = []
    real_snapshot = ServiceJournal.snapshot

    def measured(self, state, **kwargs):
        before = encoded_bytes()
        real_snapshot(self, state, **kwargs)
        in_checkpoints.append(encoded_bytes() - before)

    monkeypatch.setattr(ServiceJournal, "snapshot", measured)

    per_block = []
    for _ in range(11):
        before = encoded_bytes()
        for _ in range(log.snapshot_every):
            log.record(1.5, "svc", "alice", "token.issue", "jti-1", "success",
                       scope=["a", "b"], attempt=1)
        per_block.append(encoded_bytes() - before)

    assert journal.snapshots == 1 + 10          # baseline + ten periodic
    assert len(log) == 11 * log.snapshot_every
    assert full_states == []                    # durable_state() never ran
    assert len(set(in_checkpoints)) == 1        # flat: only {"head": ...}
    assert in_checkpoints[0] < 100
    assert len(set(per_block[1:])) == 1         # emit + checkpoint, flat too
    # the cheap form still holds the whole trail
    monkeypatch.undo()
    before = log.state_hash()
    log.wipe_state()
    assert log.recover().state_hash == before
    assert len(log) == 11 * log.snapshot_every


def test_mutable_service_still_snapshots_full_state():
    """Sealing is opt-in per service; a Durable that does not override
    ``checkpoint`` hands the journal its whole ``durable_state()``."""

    class Counter(Durable):
        snapshot_every = 3

        def __init__(self):
            self.n = 0

        def bump(self):
            self.commit("bump", {"to": self.n + 1})

        def durable_state(self):
            return {"n": self.n}

        def load_state(self, state):
            self.n = state["n"]

        def apply_entry(self, kind, data):
            self.n = data["to"]

        def wipe_state(self):
            self.n = 0

    counter = Counter()
    clock = SimClock()
    counter.attach_journal(
        DurabilityStore(clock, Wiring(clock).telemetry).stream("counter"))
    for expected in range(1, 9):
        counter.bump()
        snap, entries = counter.journal.load()
        assert snap["n"] + len(entries) == expected
        assert entries[-1].data == {"to": expected}
        counter.wipe_state()
        assert counter.recover().entries_replayed == len(entries)
        assert counter.n == expected


# ---------------------------------------------------------------------------
# admission and isolation
# ---------------------------------------------------------------------------
def test_live_object_is_refused_at_append():
    clock = SimClock()
    journal = DurabilityStore(clock, Wiring(clock).telemetry).stream("svc")
    with pytest.raises(ConfigurationError):
        journal.append("bad", {"key": object()})
    with pytest.raises(ConfigurationError):
        journal.snapshot({"socket": object()})
    assert journal.load() == (None, [])
    assert (journal.appends, journal.snapshots) == (0, 0)


def test_append_normalises_keys_and_tuples_and_cuts_aliases():
    clock = SimClock()
    journal = DurabilityStore(clock, Wiring(clock).telemetry).stream("svc")
    payload = {"ids": (1, 2), "by_serial": {7: "seven"},
               "nested": {"list": [1]}}
    entry = journal.append("k", payload)
    payload["nested"]["list"].append(2)         # the caller's copy moves on
    assert entry.data == {"ids": [1, 2], "by_serial": {"7": "seven"},
                          "nested": {"list": [1]}}


def test_nothing_load_returns_aliases_the_journal():
    """``load()`` used to hand out the journal's own entry dicts: editing
    ``load()[1][0].data`` rewrote the write-ahead log.  A scalar-attr
    event's entry is the log's own row, so an edit there would reach the
    log too."""
    clock = SimClock()
    log = AuditLog("iso")
    log.snapshot_every = 4
    log.record(0.0, "svc", "alice", "act", "res", "info", tags=["pre"])
    log.attach_journal(
        DurabilityStore(clock, Wiring(clock).telemetry).stream("audit-iso"))
    for i in range(6):                          # one sealed checkpoint + tail
        log.record(float(i), "svc", "alice", "act", "res", "info", tags=[i])
        log.record(float(i), "svc", "alice", "act", "res", "info", n=i)
    pristine, rows = log.journal.load(), list(log._events)
    snap, entries = log.journal.load()
    assert len(snap["events"]) == 9 and len(entries) == 4
    assert sum(e.body is row for e, row in zip(log.journal._entries,
                                               rows[-4:])) == 2

    snap["head"] = "f" * 64
    for event in snap["events"]:
        event["actor"] = "mallory"
        event["attrs"].setdefault("tags", []).append("edited")
    snap["events"].clear()
    for entry in entries:
        entry.data["actor"] = "mallory"
        entry.data["attrs"]["n"] = "edited"
        entry.data["attrs"].setdefault("tags", []).append("edited")
    entries.clear()

    again = log.journal.load()
    assert again == pristine
    assert [e.data for e in again[1]] == [e.data for e in pristine[1]]
    assert log._events == rows
    before = log.state_hash()
    log.wipe_state()
    assert log.recover().state_hash == before
    assert {e.actor for e in log.events()} == {"alice"}


# ---------------------------------------------------------------------------
# written once, from the live object: the text the dict path wrote
# ---------------------------------------------------------------------------
class Tag(str, enum.Enum):
    SUCCESS = "success"
    ACCESS = "access"


# text draws non-ASCII, control characters and the empty string
event_fields = st.text(max_size=6) | st.sampled_from(list(Tag))
event_attrs = st.dictionaries(
    st.text(max_size=6),
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.lists(st.integers(), max_size=2)
    | st.dictionaries(st.text(max_size=3), st.floats(), max_size=2)
    | st.builds(Opaque),
    max_size=4)


@settings(max_examples=300, deadline=None)
@given(time=st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
       | st.floats() | st.integers(-5, 5) | st.booleans(),
       fields=st.lists(event_fields, min_size=6, max_size=6),
       outcome=st.sampled_from([*Outcome.ALL, Tag.SUCCESS]),
       attrs=event_attrs)
def test_emit_writes_what_json_dumps_wrote(time, fields, outcome, attrs):
    source, actor, action, resource, domain, zone = fields
    log = AuditLog("wire")
    clock = SimClock()
    log.attach_journal(
        DurabilityStore(clock, Wiring(clock).telemetry).stream("audit-wire"))
    event = log.emit(AuditEvent(
        time=time, source=source, actor=actor, action=action,
        resource=resource, outcome=outcome, domain=domain, zone=zone,
        attrs=attrs))
    (entry,) = log.journal.load()[1]
    assert entry.record == json.dumps(
        {**{f: getattr(event, f) for f in FIELDS}, "attrs": event.attrs},
        sort_keys=True)


def _dumped(value):
    return json.dumps(value, sort_keys=True)


def test_field_maps_encode_as_asdict_did(oidc_world):
    """A client (tuple fields) and a code (nested claims), appended and
    checkpointed: the same text ``asdict``'s deep copy encoded to."""
    clock, _, _, provider, app, agent = oidc_world
    provider.add_user("carol", "pw-carol", name="Cärol",
                      projects={"p1": {"roles": ["pi"], "gpu": [1.5, None]}})
    provider.attach_journal(
        DurabilityStore(clock, Wiring(clock).telemetry).stream("op"))
    client = provider.register_client(
        "cli", ["https://cli/cb", "https://cli/two"], confidential=True)
    assert login(agent, username="carol", password="pw-carol").ok
    assert full_flow(app, agent)[0].ok
    (code,) = provider._codes.values()
    records = {e.kind: e.record for e in provider.journal.load()[1]}
    assert records["oidc.client"] == _dumped(asdict(client))
    # appended at /authorize, before redemption marked it used
    assert records["oidc.code"] == _dumped(asdict(replace(code, used=False)))
    state = provider.durable_state()
    assert durability._encode(state) == _dumped(dict(
        state,
        clients={c: asdict(cfg) for c, cfg in provider._clients.items()},
        codes={code.code: asdict(code)}))


def test_issued_token_encodes_as_asdict_did():
    clock = SimClock()
    journal = DurabilityStore(clock, Wiring(clock).telemetry).stream("tokens")

    def commit(kind, data):
        journal.append(kind, data)
        return tokens.apply_entry(kind, data)

    tokens = TokenService(clock, IdFactory(seed=3),
                          generate_signing_key("EdDSA", kid="k"), "https://b",
                          commit=commit, **Wiring())
    issued = [tokens.mint("alice", "portal", Role.PI, project="p1")[1],
              tokens.mint("bob", "jupyter", Role.RESEARCHER)[1]]
    assert [e.record for e in journal.load()[1]] == [
        _dumped(asdict(rec)) for rec in issued]
    assert durability._encode(tokens.durable_state()) == _dumped(
        {"issued": {rec.jti: asdict(rec) for rec in issued}, "revoked": []})
