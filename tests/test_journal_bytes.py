"""Refactor oracle for the write-ahead journal: every byte written, pinned.

Behavioural durability tests say a crash recovers; they do not say a
rewrite of how a payload becomes journal text wrote the same text.  For a
``durability=True`` build and an all-tiers build at seed 42 this runs
stories 1–6, a relogin, mint→introspect and mint→revoke→introspect, then
enough mints to cross the 256-entry snapshot cadence on the broker and on
the FDS audit log, ships the logs, and crashes and restarts every crash
target.  Before the crashes and after the restarts it pins, per journal
stream, a sha256 over every entry's ``(seq, time, epoch, kind, record)``,
the snapshot text, the seal and the sealed records; every journaled
service's ``state_hash()``; and every domain log's head.

Regenerate after an *intentional* change to a journaled form with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_journal_bytes.py

then read the diff before committing it: a moved stream hash with every
state hash unchanged means the text moved but not what it decodes to.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core import build_isambard
from repro.net import HttpRequest
from repro.resilience.durability import Durable
from tests.conftest import golden
from tests.test_deployment_fingerprint import OPT_IN

pytestmark = pytest.mark.durability

BUILDS = {
    "durability": {"durability": True},
    "all-tiers": {flag: True for flag in OPT_IN},
}

# mints after the stories: past the broker's and the FDS log's cadence
CADENCE_MINTS = 270


def _stream_hash(journal) -> str:
    digest = hashlib.sha256()
    for e in journal._entries:
        digest.update(repr((e.seq, e.time, e.epoch, e.kind,
                            journal.text(e.body))).encode())
    digest.update(repr((journal._snapshot, journal._seal,
                        [*map(journal.text, journal._sealed)])).encode())
    return digest.hexdigest()


def _cut(dri, durables) -> dict:
    state_hashes: dict = {}
    for svc in durables:
        state_hashes.setdefault(svc.journal.name, []).append(
            [type(svc).__name__, svc.fencing_epoch, svc.state_hash()])
    return {
        "streams": {name: _stream_hash(j)
                    for name, j in sorted(dri.durability._streams.items())},
        "stats": dri.durability.stats(),
        "state_hashes": state_hashes,
        "heads": {name: [log._head, len(log)]
                  for name, log in sorted(dri.logs.items())},
    }


def _introspect(persona, token: str) -> bool:
    resp = persona.agent.call("broker", HttpRequest(
        "POST", "/introspect", body={"token": token}))
    return resp.body["active"]


def journal_bytes(flags) -> dict:
    durables = []
    with pytest.MonkeyPatch.context() as mp:
        for method in ("attach_journal", "adopt_journal"):
            real = getattr(Durable, method)

            def recording(self, journal, _real=real):
                durables.append(self)
                _real(self, journal)

            mp.setattr(Durable, method, recording)
        dri = build_isambard(seed=42, **flags)
    wf = dri.workflows
    s1 = wf.story1_pi_onboarding("alice")
    assert s1.ok, s1.steps
    project_id = str(s1.data["project_id"])
    assert wf.story2_admin_registration("ops1").ok
    assert wf.story3_researcher_setup(project_id, "alice", "bob").ok
    assert wf.story4_ssh_session("bob").ok
    assert wf.story5_privileged_operation("ops1").ok
    assert wf.story6_jupyter("bob").ok
    bob = wf.personas["bob"]
    assert wf.relogin(bob).ok
    for revoke in (False, True):
        minted = wf.mint(bob, "jupyter", "researcher", project=project_id)
        assert minted.ok, minted.body
        if revoke:
            assert dri.broker.tokens.revoke_jti(str(minted.body["jti"]))
        assert _introspect(bob, str(minted.body["token"])) is (not revoke)
    for _ in range(CADENCE_MINTS):
        assert wf.mint(bob, "jupyter", "researcher", project=project_id).ok
    dri.ship_logs()
    stats = dri.durability.stats()
    # baseline snapshot plus at least one periodic checkpoint each
    assert stats["broker"]["snapshots"] >= 2
    assert stats["audit-fds"]["snapshots"] >= 2
    before = _cut(dri, durables)

    restarts = {}
    for name in sorted(dri.crash_targets):
        dri.crash(name)
        report = dri.restart(name)
        restarts[name] = None if report is None else [
            report.snapshot_seq, report.entries_replayed, report.epoch,
            report.state_hash]
    return {"before": before, "after": _cut(dri, durables),
            "restarts": restarts}


@pytest.fixture(scope="module")
def recorded() -> dict:
    return golden("journal_bytes.json", lambda: {
        name: journal_bytes(flags) for name, flags in BUILDS.items()})


@pytest.mark.parametrize("build", list(BUILDS))
def test_journal_bytes_match_the_recording(recorded, build):
    got = json.loads(json.dumps(journal_bytes(BUILDS[build])))
    want = recorded[build]
    for phase in ("before", "after"):
        for key in want[phase]:
            assert got[phase][key] == want[phase][key], \
                f"{build}: {phase}: {key} moved"
    assert got["restarts"] == want["restarts"]
    assert got.keys() == want.keys()
