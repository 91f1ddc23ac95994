"""Refactor oracle for ``build_isambard``: what it wires, pinned per flag set.

Behavioural tests say a tier *works*; they do not say a rewrite of the
builder attached the same endpoints in the same zones, registered the
same crash targets and kill-switch levers, armed the same number of
timers, or drew the seeded id stream in the same order.  For a dozen flag
combinations at seed 42 this pins the wiring itself — and, after one
canned story, every audit chain head (any reordered or missing emit moves
it), the next value of the id stream, and the journal counters.

Regenerate after an *intentional* wiring change with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_deployment_fingerprint.py

then read the diff before committing it: a moved audit head means some
emit changed, a moved probe id means something drew from ``dri.ids``.
"""

from __future__ import annotations

import json

import pytest

from repro.core import build_isambard
from repro.errors import ConfigurationError
from repro.oidc import make_url
from tests.conftest import golden

OPT_IN = ("resilience", "overload", "durability", "failover", "scale",
          "regions", "tail", "authz", "pipeline", "directory")

COMBOS = {
    "bare": {},
    **{flag: {flag: True} for flag in OPT_IN},
    "no-telemetry": {"telemetry": False},
    "all-eleven": {flag: True for flag in OPT_IN},
    "scale+overload": {"scale": True, "overload": True},
    "scale+failover": {"scale": True, "failover": True},
    "regions+failover+tail": {"regions": True, "failover": True,
                              "tail": True},
    "authz+directory+durability": {"authz": True, "directory": True,
                                   "durability": True},
}


def _story(dri) -> None:
    """PI onboarding, one SSH cert, one notebook, one portal revocation."""
    wf = dri.workflows
    onboarded = wf.story1_pi_onboarding("alice")
    assert onboarded.ok, onboarded.steps
    project_id = onboarded.data["project_id"]
    assert wf.story3_researcher_setup(project_id, "alice", "bob").ok
    assert wf.story4_ssh_session("bob").ok
    assert wf.story6_jupyter("bob").ok
    alice, bob = wf.personas["alice"], wf.personas["bob"]
    pi_token = wf.mint(alice, "portal", "pi", project=project_id).body["token"]
    revoked, _ = alice.agent.post(
        make_url("portal", "/revoke_member"),
        {"project_id": project_id, "uid": bob.broker_sub},
        headers={"Authorization": f"Bearer {pi_token}"},
    )
    assert revoked.ok, revoked.body
    dri.clock.advance(120)


def fingerprint(flags) -> dict:
    dri = build_isambard(seed=42, **flags)
    wiring = {
        "endpoints": [f"{ep.name} {ep.domain}/{ep.zone}"
                      for ep in dri.network.endpoints()],
        "firewall_rules": [r.name for r in dri.network.firewall.rules()],
        "crash_targets": list(dri.crash_targets),
        "soc_rules": [type(r).__name__ for r in dri.soc.rules],
        "killswitch": {"user": [f"{surface} {type(holder).__name__}"
                                for surface, holder in dri.surfaces()],
                       "stop": dri.killswitch.stop_levers()},
        "pack_version": dri.policy_engine.pack_version,
        "pending_events": dri.clock.pending_events(),
    }
    _story(dri)
    return {
        **wiring,
        "after_story": {
            "audit_heads": {name: log._head
                            for name, log in sorted(dri.logs.items())},
            "pending_events": dri.clock.pending_events(),
            # the per-prefix counters say how many ids of each kind were
            # minted, the secret says where the shared random stream stands
            "ids": {"counters": dict(sorted(dri.ids._counters.items())),
                    "next_id": dri.ids.next("probe"),
                    "next_secret": dri.ids.secret(8)},
            "journal": (dri.durability.stats()
                        if dri.durability is not None else None),
        },
    }


@pytest.fixture(scope="module")
def recorded() -> dict:
    return golden("deployment_fingerprints.json", lambda: {
        name: fingerprint(flags) for name, flags in COMBOS.items()})


@pytest.mark.parametrize("name", list(COMBOS))
def test_wiring_matches_the_recorded_fingerprint(recorded, name):
    got = json.loads(json.dumps(fingerprint(COMBOS[name])))
    want = recorded[name]
    for key in want:
        assert got[key] == want[key], f"{name}: {key} moved"
    assert got.keys() == want.keys()


@pytest.mark.parametrize("flag", OPT_IN)
def test_a_tier_needs_telemetry(flag):
    """``telemetry=False`` builds the base only (the ``no-telemetry``
    row above): every tier audits and counts into telemetry, so a tier
    flag beside it is refused rather than built half-observed."""
    with pytest.raises(ConfigurationError, match="telemetry"):
        build_isambard(seed=42, telemetry=False, **{flag: True})


def test_default_build_runs_the_one_store_with_the_tier_extras_off():
    """The account registry and metadata aggregate of a default build are
    the sharded stores ``directory=True`` sizes up — one shard each, with
    none of what the tier's install attaches (metrics, audit, handle)."""
    from repro.federation.directory import (
        ShardedAccountRegistry,
        ShardedMetadataStore,
    )

    dri = build_isambard(seed=42)
    accounts, metadata = dri.myaccessid.registry, dri.edugain
    assert type(accounts) is ShardedAccountRegistry
    assert type(metadata) is ShardedMetadataStore
    assert list(accounts.shards) == ["acct-00"]
    assert list(metadata.shards) == ["md-00"]
    assert dri.directory is None
    _story(dri)
    assert accounts.lookups > 0 and metadata.lookups > 0
    assert accounts.verify_invariants()["accounts"] == len(accounts) > 0
    assert metadata.verify_invariants()["entities"] == len(dri.idps)
    assert "\nrepro_directory_" not in dri.telemetry.exposition()
    assert not [e for e in dri.audit.events()
                if e.action.startswith("directory.")]
