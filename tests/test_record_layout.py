"""What the telemetry and audit stores keep costs the collector nothing,
neither the SIEM, the provenance ledger nor the audit journal keeps a
second copy of the audit trail, and a kept span costs a row, not a
record.

A finished span is a 36-byte row of its trace's ``bytearray`` over a
table of interned shapes; an emitted audit event and a provenance ledger
entry are each one flat tuple of atoms.  CPython's cyclic collector
never tracks bytes and stops tracking such a tuple at the first pass
that sees it, so a round's trail adds nothing to a full collection.
After a relogin and a Jupyter session on a default and an all-tiers
build, and one ``gc.collect()``, every span is a row, every shape and
every stored record an exact, untracked tuple — except the audit records
whose attrs hold a list or dict (what ``AuditLog._plain`` leaves a
container), which are counted exactly below.
"""

from __future__ import annotations

import gc
import struct
import sys
from collections import Counter
from collections.abc import Collection

import pytest

from repro.audit import _JSON_SCALARS, _view
from repro.core import build_isambard
from repro.telemetry.tracing import _ROW
from tests.test_deployment_fingerprint import OPT_IN

BUILDS = {
    "default": {},
    "all-tiers": {flag: True for flag in OPT_IN},
}

# audit records holding a container attr, so still tracked: only an
# OIDC provider's ``session.create`` (its ``amr`` list), one per login
# session an IdP, MyAccessID or the broker opened on the way — nine on
# either build
CONTAINER_RECORDS = {"default": 9, "all-tiers": 9}

# bytes the span store alone holds per kept span after the story and 20
# relogins of its researcher (``_owned_bytes``), read in a process of its
# own (whatever else a process keeps alive can only share, and so lower,
# the count); lower these when a change lowers the count
MAX_BYTES_PER_SPAN = {
    "default": 122,    # 294 as flat-tuple records; a 36-byte row now
    "all-tiers": 104,  # 292 as flat-tuple records; a 36-byte row now
}
# before 3.11 a str-keyed dict takes 24 bytes an entry, not 16: the
# store's two (trace ids, open span ids) add about 2 bytes a span here,
# estimated from the two dicts' sizes on 3.10, not read off a 3.10 run
PRE_311_BYTES = 3
RELOGINS = 20
# bytes the ``audit-*`` journal streams own per journaled record after
# the all-tiers story and 20 relogins (``_journal_bytes``); lower it when
# a change lowers the count
MAX_JOURNAL_BYTES_PER_AUDIT_RECORD = 86  # 486.4 as JSON text; a row is the log's


def _story(dri, suffix=""):
    wf = dri.workflows
    pi, user = f"alice{suffix}", f"bob{suffix}"
    s1 = wf.story1_pi_onboarding(pi)
    assert s1.ok, s1.steps
    assert wf.story3_researcher_setup(s1.data["project_id"], pi, user).ok
    assert wf.story6_jupyter(user).ok
    assert wf.relogin(wf.personas[user]).ok


def _run(flags):
    dri = build_isambard(seed=42, **flags)
    _story(dri)
    gc.collect()
    return dri


def _held(obj):
    """The length of every container ``obj`` holds as an attribute."""
    return {name: len(value) for name, value in vars(obj).items()
            if isinstance(value, Collection) and not isinstance(value, str)}


@pytest.mark.parametrize("build", list(BUILDS))
def test_stored_records_are_untracked_flat_tuples(build):
    dri = _run(BUILDS[build])
    store = dri.telemetry.store
    rows = list(store._by_trace.values())
    assert not store._open
    assert sum(map(len, rows)) == _ROW.size * len(store) > _ROW.size * 100
    assert all(type(trace) is bytearray for trace in rows)
    assert all(type(shape) is tuple for shape in store._shapes)
    assert not any(map(gc.is_tracked, store._shapes))
    # the store keeps no per-trace id set (orphans() builds one per read)
    assert not any(isinstance(value, dict)
                   and any(isinstance(v, set) for v in value.values())
                   for value in vars(store).values())

    records = [rec for log in dri.logs.values() for rec in log._events]
    assert len(records) > 100
    assert all(type(rec) is tuple for rec in records)
    tracked = [rec for rec in records if gc.is_tracked(rec)]
    assert all(any(isinstance(v, (list, dict)) for v in rec) for rec in tracked)
    assert len(tracked) == CONTAINER_RECORDS[build], sorted(
        {rec[3] for rec in tracked})

    # the provenance ledger holds positions in those records, not copies
    entries = list(dri.telemetry.provenance._entries.values())
    assert len(entries) > 10
    assert all(type(entry) is tuple for entry in entries)
    assert not any(map(gc.is_tracked, entries))


@pytest.mark.parametrize("build", list(BUILDS))
def test_the_siem_holds_no_copy_of_the_trail(build):
    """The audit logs are the one copy of the trail: a forwarder is a
    position in its log and the SOC keeps what it derives, not what it
    ingests, so a second round adds nothing they hold (bar alerts)."""
    dri = build_isambard(seed=42, **BUILDS[build])
    held = []
    for suffix in ("1", "2"):
        _story(dri, suffix)
        dri.ship_logs()
        soc = {k: n for k, n in _held(dri.soc).items() if k != "alerts"}
        held.append((soc, [_held(fw) for fw in dri.forwarders]))
    assert dri.soc.records_ingested > 50
    assert held[1] == held[0], held


def _journal_bytes(dri):
    """``(bytes, records)`` of the ``audit-*`` journal streams: each
    pending entry's tuple, its ``seq``, ``time`` and record, and each
    sealed slot plus its item.  An item that is a log's own row is the
    log's, so the stream owns only its slot or entry."""
    rows = {id(row) for log in dri.logs.values() for row in log._events}

    def owned(item):
        return 0 if id(item) in rows else sys.getsizeof(item)

    total = records = 0
    for name, journal in dri.durability._streams.items():
        if name.startswith("audit-"):
            for e in journal._entries:
                total += (sys.getsizeof(e) + sys.getsizeof(e.seq)
                          + sys.getsizeof(e.time) + owned(e[4]))
            total += sum(struct.calcsize("P") + owned(item)
                         for item in journal._sealed)
            records += len(journal._entries) + len(journal._sealed)
    return total, records


@pytest.mark.durability
def test_the_journal_holds_no_second_copy_of_the_trail():
    """With durability on, each audit log journals its records: the
    stream holds what a replay needs, and no more than the budget per
    record beside the log's own rows.  A usual event with scalar attrs is
    journaled as the very row the log stores; any other as its text."""
    dri = _run(BUILDS["all-tiers"])
    wf = dri.workflows
    for _ in range(RELOGINS):
        assert wf.relogin(wf.personas["bob"]).ok
    total, records = _journal_bytes(dri)
    assert records > 300
    assert total <= MAX_JOURNAL_BYTES_PER_AUDIT_RECORD * records, (
        total / records)

    shared = 0
    for log in dri.logs.values():
        journal = log.journal
        assert {e.kind for e in journal._entries} <= {"audit.emit"}
        items = [*journal._sealed, *(e.body for e in journal._entries)]
        for item, row in zip(items, log._events[len(log) - len(items):]):
            event = _view(row)
            usual = (event._quoted() is not None and _JSON_SCALARS.issuperset(
                map(type, event.attrs.values())))
            assert (item is row) is usual, event.action
            shared += usual
    assert shared > 300


def _owned_bytes(obj):
    """``sys.getsizeof`` summed over what ``obj`` holds that nothing
    else refers to — what dropping it would free — each object once."""
    found, holders = _reach(obj)
    # besides its holders inside obj, each object is referred to by
    # ``found``, by the loop below and by getrefcount's argument
    return sum(sys.getsizeof(item) for item in found.values()
               if sys.getrefcount(item) - 3 == holders[id(item)])


def _reach(obj):
    """``({id: object}, {id: references from inside obj})`` over all
    that ``obj``'s attributes reach through dicts, lists, tuples and
    sets."""
    found, holders = {}, Counter()
    todo = list(vars(obj).values())
    while todo:
        item = todo.pop()
        holders[id(item)] += 1
        if id(item) not in found:
            found[id(item)] = item
            if isinstance(item, dict):
                todo.extend(item)
                todo.extend(item.values())
            elif isinstance(item, (list, tuple, set, frozenset)):
                todo.extend(item)
    return found, holders


def _shapes(store):
    """The distinct (name, service, kind, status, error, attrs) of the
    spans held, read off the views."""
    return {(s.name, s.service, s.kind, s.status, s.error,
             repr(sorted(s.attrs.items()))) for s in store.spans()}


@pytest.fixture(scope="module", params=list(BUILDS))
def relogged(request):
    """The story, then ``RELOGINS`` relogins of its researcher; yields
    ``(build, store, [(distinct shapes of the views, shapes the store
    holds)] after each relogin)``."""
    dri = _run(BUILDS[request.param])
    wf, store = dri.workflows, dri.telemetry.store
    shapes = []
    for _ in range(RELOGINS):
        assert wf.relogin(wf.personas["bob"]).ok
        shapes.append((len(_shapes(store)), len(store._shapes)))
    return request.param, store, shapes


def test_a_kept_span_costs_at_most_its_budget(relogged):
    build, store, _ = relogged
    assert not store.unfinished()
    budget = MAX_BYTES_PER_SPAN[build] + PRE_311_BYTES * (
        sys.version_info < (3, 11))
    assert _owned_bytes(store) <= budget * len(store)


def test_a_repeated_relogin_adds_no_shape(relogged):
    _, _, shapes = relogged
    assert shapes[1:] == [shapes[0]] * (RELOGINS - 1)
