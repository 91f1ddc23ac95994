"""What the telemetry and audit stores keep costs the collector nothing,
and neither the SIEM nor the provenance ledger keeps a second copy of the
audit trail.

A finished span, an emitted audit event and a provenance ledger entry are
each stored as one flat tuple of atoms; CPython's cyclic collector stops
tracking such a tuple at the first pass that sees it, so a round's trail
adds nothing to a full collection.  After a relogin and a Jupyter session on a default and an
all-tiers build, and one ``gc.collect()``, every stored record must be an
exact, untracked tuple — except the audit records whose attrs hold a list
or dict (what ``AuditLog._plain`` leaves a container), which are counted
exactly below.
"""

from __future__ import annotations

import gc
from collections.abc import Collection

import pytest

from repro.core import build_isambard
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
    spans = [held for trace in store._by_trace.values() for held in trace]
    assert len(spans) == len(store) > 100
    assert all(type(rec) is tuple for rec in spans)
    assert not any(map(gc.is_tracked, spans))
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
