"""Federation directory: sharded identity + metadata tier (PR 11).

Tier-1 coverage for ``repro.federation.directory`` and its deployment
wiring.  The invariants asserted here are the acceptance criteria of the
national-federation ablation (ABL14):

* the same external identity always resolves to the same account, and
  no two accounts ever share a uid — across shards, across migrations,
  across crash/recovery;
* a deprovisioned (retired) uid is *never* reassigned: re-registering
  any of the old identities mints a fresh account;
* identity linking works when the identity key and the account key hash
  to *different* shards (the cross-shard write path);
* shard add/remove migrates exactly the keys whose ring owner changed,
  and lookups stay correct mid-migration (bounded by one fallback probe);
* a downed shard fails its key range *closed* (ShardUnavailable), and a
  crashed shard recovers bit-identically from its own journal;
* metadata validity windows fail stale logins *closed* (MetadataStale),
  both at the store and as a 403 on the deployment's login path;
* signed feed deltas apply atomically per shard; a tampered delta is
  rejected without advancing the feed's sequence.
"""

import dataclasses
import gc
import hashlib
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.clock import SimClock
from repro.core import build_isambard
from repro.errors import (
    ConfigurationError,
    FederationError,
    MetadataStale,
    RecoveryError,
    ShardUnavailable,
)
from repro.federation.assurance import EntityCategory, LevelOfAssurance
from repro.federation.directory import (
    DirectoryConfig,
    FederationDirectory,
    MetadataFeed,
    MetadataIngestor,
    ShardedAccountRegistry,
    ShardedMetadataStore,
)
from repro.federation.directory.sharding import pack_account, unpack_account
from repro.federation.idp import InstitutionalIdP
from repro.federation.myaccessid import LinkedIdentity
from repro.ids import IdFactory
from repro.net.http import HttpRequest
from repro.oidc import make_url
from repro.resilience.durability import DurabilityStore
from tests.conftest import golden

pytestmark = pytest.mark.directory

LOA = LevelOfAssurance.CAPPUCCINO


def _registry(shards=4, **kw):
    clock = SimClock()
    return ShardedAccountRegistry(clock, IdFactory(seed=11), shards=shards,
                                  **kw), clock


def _register(reg, entity, sub, now=0.0):
    return reg.register_or_get(
        LinkedIdentity(entity, sub), display_name=sub.title(),
        email=f"{sub}@x.example", loa=LOA, now=now)


def _identity_on(reg, shard_name, entity="https://idp.x", avoid=None):
    """Deterministically find a sub whose identity key hashes to
    ``shard_name`` (and, with ``avoid``, whose account uid would not)."""
    for i in range(10_000):
        sub = f"probe-{i}"
        key = "id:" + f"{entity}\n{sub}"
        if reg.ring.locate(key) == shard_name:
            return LinkedIdentity(entity, sub)
    raise AssertionError(f"no identity found hashing to {shard_name}")


# ---------------------------------------------------------------------------
# account tier
# ---------------------------------------------------------------------------
def test_register_is_idempotent_across_shards():
    reg, _ = _registry()
    a = _register(reg, "https://idp.a", "alice")
    again = _register(reg, "https://idp.a", "alice")
    assert a.uid == again.uid
    assert len(reg) == 1
    b = _register(reg, "https://idp.b", "alice")
    assert b.uid != a.uid  # different IdP => different identity
    assert reg.verify_invariants()["accounts"] == 2


def test_uid_uniqueness_at_width():
    reg, _ = _registry(shards=8)
    uids = [_register(reg, f"https://idp.{i % 13}", f"s{i}").uid
            for i in range(600)]
    assert len(set(uids)) == 600
    stats = reg.verify_invariants()
    assert stats["accounts"] == 600
    # keys really spread over the ring, not one hot shard
    sizes = [s.key_count() for s in reg.shards.values()]
    assert all(n > 0 for n in sizes)


def test_register_batch_one_journal_entry_per_shard():
    reg, clock = _registry(shards=4)
    store = DurabilityStore(clock)
    for name, shard in reg.shards.items():
        shard.attach_journal(store.stream(f"dir-{name}"))
    entries = [{"entity_id": "https://idp.bulk", "sub": f"u{i}",
                "display_name": f"U{i}", "email": f"u{i}@x", "loa": int(LOA)}
               for i in range(200)]
    uids = reg.register_batch(entries, now=1.0)
    assert len(uids) == 200 and len(set(uids)) == 200
    # batched WAL: at most 2 entries per shard (idmap + account batches),
    # never one per user
    for name, shard in reg.shards.items():
        appended = store.stream(f"dir-{name}").appends
        assert appended <= 2, (name, appended)
    # batch is idempotent at the identity level
    again = reg.register_batch(entries[:50], now=2.0)
    assert again == uids[:50]
    reg.verify_invariants()


def test_cross_shard_identity_linking():
    reg, _ = _registry(shards=4)
    # find an account whose uid shard differs from a second identity's shard
    a = _register(reg, "https://idp.a", "alice")
    uid_shard = reg.ring.locate("uid:" + a.uid)
    other_shard = next(n for n in sorted(reg.shards) if n != uid_shard)
    second = _identity_on(reg, other_shard, entity="https://idp.b")
    linked = reg.link(a.uid, second)
    assert len(linked.linked) == 2
    # the new identity resolves to the same account, across shards
    assert reg.find(second).uid == a.uid
    # linking the same identity to a different account is refused
    b = _register(reg, "https://idp.c", "bob")
    with pytest.raises(FederationError):
        reg.link(b.uid, second)
    reg.verify_invariants()


def test_deprovision_retires_uid_and_reregister_mints_fresh():
    reg, _ = _registry()
    ident = LinkedIdentity("https://idp.a", "alice")
    a = reg.register_or_get(ident, display_name="A", email="a@x",
                            loa=LOA, now=0.0)
    uid_shard = reg.ring.locate("uid:" + a.uid)
    other = next(n for n in sorted(reg.shards) if n != uid_shard)
    second = _identity_on(reg, other, entity="https://idp.b")
    reg.link(a.uid, second)
    removed = reg.deprovision(a.uid)
    assert removed == 2
    assert reg.find(ident) is None and reg.find(second) is None
    assert reg.account(a.uid) is None
    assert reg.retired_count() == 1
    # every old identity now mints a *fresh* uid — the retired one is
    # never reassigned, so audit history stays unambiguous
    fresh = reg.register_or_get(ident, display_name="A", email="a@x",
                                loa=LOA, now=1.0)
    assert fresh.uid != a.uid
    fresh2 = reg.register_or_get(second, display_name="B", email="b@x",
                                 loa=LOA, now=1.0)
    assert fresh2.uid not in (a.uid, fresh.uid)
    reg.verify_invariants()


# ---------------------------------------------------------------------------
# migration
# ---------------------------------------------------------------------------
def test_add_shard_migrates_only_remapped_keys():
    reg, _ = _registry(shards=4)
    for i in range(300):
        _register(reg, f"https://idp.{i % 5}", f"s{i}")
    before = {n: s.key_count() for n, s in reg.shards.items()}
    reg.add_shard("acct-04")
    mig = reg._migration
    assert mig is not None and mig.total > 0
    # only keys whose ring owner is the new shard move
    assert all(dst == "acct-04" for _, _, dst in mig.moves)
    # mid-migration lookups still resolve (fallback probes to the source)
    reg.reset_lookup_stats()
    probe = _register(reg, "https://idp.0", "s0")  # idempotent hit
    assert probe.uid is not None
    while not mig.done:
        mig.step()
    assert mig.done and not mig.pending
    stats = reg.verify_invariants()
    assert stats["accounts"] == 300
    assert reg.shards["acct-04"].key_count() > 0
    total_before = sum(before.values())
    total_after = sum(s.key_count() for s in reg.shards.values())
    assert total_after == total_before


def test_mid_migration_lookup_bounded_by_one_fallback_probe():
    reg, _ = _registry(shards=4)
    idents = [LinkedIdentity(f"https://idp.{i % 3}", f"s{i}")
              for i in range(200)]
    for ident in idents:
        reg.register_or_get(ident, display_name="u", email="u@x",
                            loa=LOA, now=0.0)
    reg.add_shard("acct-04")
    reg.reset_lookup_stats()
    for ident in idents:
        assert reg.find(ident) is not None
    # every lookup costs probe_cost, plus at most one extra probe when
    # the key is still pending at its migration source
    assert reg.lookup_latencies
    assert max(reg.lookup_latencies) <= 2 * reg.probe_cost + 1e-12
    assert reg.fallback_probes > 0  # the window was actually exercised
    while not reg._migration.done:
        reg._migration.step()
    reg.reset_lookup_stats()
    for ident in idents:
        reg.find(ident)
    assert max(reg.lookup_latencies) <= reg.probe_cost + 1e-12


def test_lookup_accounting_does_not_grow_with_lookups():
    # the stores sit on every login's path: a per-lookup sample list
    # would be a leak in every long run
    reg, _ = _registry(shards=2)
    ghost = LinkedIdentity("https://idp.x", "nobody")

    def footprint():
        return {k: len(v) for k, v in vars(reg).items()
                if isinstance(v, (list, dict, set, tuple))}

    before = footprint()
    for _ in range(100_000):
        reg.find(ghost)
    assert footprint() == before
    assert reg.lookups == 100_000
    assert reg.lookup_latencies == [reg.probe_cost] * 100_000
    reg.reset_lookup_stats()
    assert reg.lookup_latencies == []


def test_remove_shard_drains_then_drops():
    reg, _ = _registry(shards=4)
    for i in range(200):
        _register(reg, "https://idp.x", f"s{i}")
    victim = sorted(reg.shards)[1]
    held = reg.shards[victim].key_count()
    reg.remove_shard(victim)
    assert victim in reg.shards  # still draining
    # a second topology change is refused while one is in flight
    with pytest.raises(ConfigurationError):
        reg.add_shard("acct-09")
    while not reg._migration.done:
        reg._migration.step()
    assert victim not in reg.shards
    stats = reg.verify_invariants()
    assert stats["accounts"] == 200
    assert reg.migrated_keys >= held
    with pytest.raises(ConfigurationError):
        for name in list(reg.shards):
            reg.remove_shard(name)  # refuses to remove the last shard


# ---------------------------------------------------------------------------
# shard health + durability
# ---------------------------------------------------------------------------
def test_downed_shard_fails_its_key_range_closed():
    reg, _ = _registry(shards=4)
    idents = [LinkedIdentity("https://idp.x", f"s{i}") for i in range(100)]
    for ident in idents:
        reg.register_or_get(ident, display_name="u", email="u@x",
                            loa=LOA, now=0.0)
    victim = sorted(reg.shards)[0]
    reg.shard_down(victim)
    denied = served = 0
    for ident in idents:
        try:
            assert reg.find(ident) is not None
            served += 1
        except ShardUnavailable:
            denied += 1
    assert denied > 0 and served > 0  # only the owned range fails
    assert reg.unavailable_denials == denied
    reg.shard_up(victim)
    assert all(reg.find(i) is not None for i in idents)


def test_shard_crash_recovers_bit_identically_from_its_own_journal():
    reg, clock = _registry(shards=4)
    store = DurabilityStore(clock)
    for name, shard in reg.shards.items():
        shard.attach_journal(store.stream(f"dir-{name}"))
    for i in range(120):
        _register(reg, "https://idp.x", f"s{i}")
    a = _register(reg, "https://idp.x", "s7")
    reg.deprovision(a.uid)
    hashes = {n: s.state_hash() for n, s in reg.shards.items()}
    victim = sorted(reg.shards)[2]
    reg.shards[victim].wipe_state()
    report = reg.shards[victim].recover()
    assert report.state_hash == hashes[victim]
    # the other shards were untouched — per-shard blast radius
    for name in reg.shards:
        assert reg.shards[name].state_hash() == hashes[name]
    reg.verify_invariants()


def test_retired_and_live_overlap_is_a_recovery_violation():
    reg, _ = _registry(shards=2)
    a = _register(reg, "https://idp.x", "alice")
    shard = reg.shards[reg.ring.locate("uid:" + a.uid)]
    shard.retired.add(a.uid)  # corrupt: retired uid still live
    with pytest.raises(RecoveryError):
        reg.verify_invariants()


# ---------------------------------------------------------------------------
# metadata tier
# ---------------------------------------------------------------------------
def _stage(feed, idp):
    """Stage a live IdP on a feed, as its registrar would publish it."""
    feed.add(entity_id=idp.entity_id, endpoint_name=idp.name,
             display_name=idp.name, loa=idp.loa, categories=idp.categories,
             verifier=idp.verifier())


def _md_store(shards=4):
    clock = SimClock()
    ids = IdFactory(seed=5)
    return ShardedMetadataStore(clock, shards=shards), clock, ids


def test_metadata_validity_window_fails_login_closed():
    store, clock, ids = _md_store()
    idp = InstitutionalIdP("idp-f", "https://idp-f.example", clock, ids)
    store.register_idp(idp, federation="fed-a", valid_for=100.0)
    assert store.get(idp.entity_id).version == 1
    clock.advance(150.0)
    with pytest.raises(MetadataStale):
        store.get(idp.entity_id)
    assert store.stale_denials == 1
    # stale IdPs are not offered by discovery either
    assert store.idps() == []
    assert len(store.idps(include_stale=True)) == 1
    # the operator peek bypasses enforcement (None only when absent)
    assert store.peek(idp.entity_id) is not None
    assert store.expired_count() == 1


def test_directly_registered_idps_never_expire():
    store, clock, ids = _md_store()
    idp = InstitutionalIdP("idp-anchor", "https://idp-anchor.example",
                           clock, ids)
    store.register_idp(idp, federation="fed-a")
    clock.advance(10 * 365 * 86400.0)
    assert store.get(idp.entity_id).valid_until is None


def test_refresh_idp_bumps_version_and_rotates_verifier():
    store, clock, ids = _md_store()
    idp = InstitutionalIdP("idp-r", "https://idp-r.example", clock, ids)
    store.register_idp(idp, federation="fed-a")
    old = store.get(idp.entity_id)
    idp.rotate_key()
    new = store.refresh_idp(idp, federation="fed-b")
    assert new.version == old.version + 1
    assert new.verifier.kid != old.verifier.kid
    assert [md.federation for md in store.idps()] == ["fed-b"]
    # refreshing an unknown entity is an error, not an implicit insert
    stranger = InstitutionalIdP("idp-s", "https://idp-s.example", clock, ids)
    with pytest.raises(FederationError):
        store.refresh_idp(stranger)


def test_stale_version_upsert_is_ignored():
    store, clock, ids = _md_store()
    idp = InstitutionalIdP("idp-v", "https://idp-v.example", clock, ids)
    store.register_idp(idp, federation="fed-a")
    store.refresh_idp(idp)  # version 2
    # a delayed replay of the version-1 row must not roll back
    skipped = store.upsert_record(
        entity_id=idp.entity_id, endpoint_name=idp.name, display_name="old",
        federation="fed-a", loa=idp.loa, categories=idp.categories,
        verifier=idp.verifier(), version=1)
    assert skipped is None
    assert store.get(idp.entity_id).version == 2
    store.verify_invariants()


# ---------------------------------------------------------------------------
# ingest pipeline
# ---------------------------------------------------------------------------
def test_signed_delta_applies_and_tampered_delta_is_rejected():
    store, clock, ids = _md_store()
    ing = MetadataIngestor(clock, store)
    feed = MetadataFeed("fed-aa", clock, valid_for=200.0)
    ing.register_feed(feed)
    idp = InstitutionalIdP("idp-aa-0", "https://idp-aa-0.example", clock, ids)
    _stage(feed, idp)
    feed.flush()
    assert ing.poll() == {"fed-aa": 1}
    assert store.get(idp.entity_id).valid_until == clock.now() + 200.0

    # tamper with the next delta: signature breaks, seq does not advance
    feed.rotate(idp.entity_id, idp.verifier())
    delta = feed.flush()
    feed._published[-1] = dataclasses.replace(delta, valid_for=10**9)
    seq_before = ing.stats()["last_seq"]["fed-aa"]
    ing.poll()
    assert ing.rejected_deltas == 1
    assert ing.stats()["last_seq"]["fed-aa"] == seq_before
    # the rotation never landed
    assert store.get(idp.entity_id).version == 1


def test_feed_outage_ages_entries_to_fail_closed_then_recovers():
    store, clock, ids = _md_store()
    ing = MetadataIngestor(clock, store)
    feed = MetadataFeed("fed-bb", clock, valid_for=100.0)
    ing.register_feed(feed)
    idp = InstitutionalIdP("idp-bb-0", "https://idp-bb-0.example", clock, ids)
    _stage(feed, idp)
    feed.flush()
    ing.poll()
    feed.down = True
    clock.advance(60.0)
    ing.poll()
    assert ing.failed_polls == 1
    assert store.get(idp.entity_id) is not None  # still inside validity
    clock.advance(60.0)  # now past issued_at + 100
    with pytest.raises(MetadataStale):
        store.get(idp.entity_id)
    # registrar recovers, republishes, logins resume
    feed.down = False
    feed.republish()
    ing.poll()
    assert store.get(idp.entity_id).valid_until == clock.now() + 100.0
    assert ing.feed_age("fed-bb") == 0.0


def test_feed_removals_and_batched_per_shard_commits():
    store, clock, ids = _md_store(shards=4)
    wal = DurabilityStore(clock)
    for name, shard in store.shards.items():
        shard.attach_journal(wal.stream(f"dir-{name}"))
    ing = MetadataIngestor(clock, store)
    feed = MetadataFeed("fed-cc", clock, valid_for=500.0)
    ing.register_feed(feed)
    for i in range(40):
        feed.add(entity_id=f"https://idp-cc-{i}.example",
                 endpoint_name=f"idp-cc-{i}", display_name=f"IdP {i}",
                 loa=LOA, categories=(EntityCategory.RESEARCH_AND_SCHOLARSHIP,),
                 verifier=f"vk-cc-{i}")
    feed.flush()
    ing.poll()
    assert len(store) == 40
    # one md.put_batch per touched shard, not one entry per IdP
    for name in store.shards:
        assert wal.stream(f"dir-{name}").appends <= 1
    feed.remove("https://idp-cc-3.example")
    feed.flush()
    ing.poll()
    assert len(store) == 39
    assert not store.has("https://idp-cc-3.example")
    store.verify_invariants()


def test_metadata_shard_migration_under_feed_load():
    store, clock, ids = _md_store(shards=3)
    ing = MetadataIngestor(clock, store)
    feed = MetadataFeed("fed-dd", clock, valid_for=1000.0)
    ing.register_feed(feed)
    for i in range(120):
        feed.add(entity_id=f"https://idp-dd-{i}.example",
                 endpoint_name=f"idp-dd-{i}", display_name=f"IdP {i}",
                 loa=LOA, categories=(), verifier=f"vk-dd-{i}")
    feed.flush()
    ing.poll()
    store.add_shard("md-03")
    mig = store._migration
    # interleave migration steps with reads and a fresh delta
    while not mig.done:
        mig.step(batch=16)
        assert store.get("https://idp-dd-7.example") is not None
    feed.republish()
    ing.poll()
    stats = store.verify_invariants()
    assert stats["entities"] == 120


def test_metadata_remove_shard_drains_then_drops():
    empty, _, _ = _md_store(shards=3)
    assert empty.remove_shard("md-02") is None  # nothing to move: dropped
    assert sorted(empty.shards) == ["md-00", "md-01"]
    store, clock, _ = _md_store(shards=3)
    for i in range(60):
        store.upsert_record(entity_id=f"https://idp-rm-{i}.example",
                            endpoint_name=f"idp-rm-{i}", display_name=f"IdP {i}",
                            federation="fed-rm", loa=LOA, categories=(),
                            verifier=f"vk-rm-{i}")
    held = store.shards["md-01"].key_count()
    mig = store.remove_shard("md-01")
    assert held > 0 and "md-01" in store.shards  # still draining
    while not mig.done:
        mig.step(batch=8)
        assert store.get("https://idp-rm-7.example") is not None
    assert "md-01" not in store.shards
    assert store.verify_invariants() == {"entities": 60, "shards": 2}
    assert store.migrated_keys == held


# ---------------------------------------------------------------------------
# deployment wiring
# ---------------------------------------------------------------------------
def test_build_isambard_directory_login_path():
    dri = build_isambard(directory=True, durability=True, authz=True)
    d = dri.directory
    assert isinstance(d, FederationDirectory)
    assert isinstance(dri.myaccessid.registry, ShardedAccountRegistry)
    assert isinstance(dri.edugain, ShardedMetadataStore)
    assert len(dri.edugain) == 4  # DEFAULT_IDPS landed on the shards

    wf = dri.workflows
    result = wf.story1_pi_onboarding("pi", project_name="dir-proj")
    assert result.ok, result.steps
    assert len(d.accounts) >= 1
    d.verify_invariants()

    # interactive registration minted a canonical principal in the graph
    uid = next(iter(next(s for s in d.accounts.shards.values()
                         if s.accounts).accounts))
    assert dri.authz.graph.accounts_of(uid) is not None

    # per-shard crash targets exist and recover from per-shard journals
    sname = sorted(d.accounts.shards)[0]
    h = d.accounts.shards[sname].state_hash()
    dri.crash(f"dir-{sname}")
    report = dri.restart(f"dir-{sname}")
    assert d.accounts.shards[sname].state_hash() == h
    assert report is not None


def test_metadata_shard_crash_recovers_rows_and_validity_windows():
    """Every *metadata* shard crashes and restarts in turn: rows come
    back bit-identically (baseline snapshot + the journaled feed delta)
    and so does the validity window — a recovered entry past
    ``valid_until`` still fails the login closed."""
    dri = build_isambard(directory=True, durability=True)
    md = dri.directory.metadata
    feed = MetadataFeed("fed-fresh", dri.clock, valid_for=3600.0)
    dri.directory.ingestor.register_feed(feed)
    idp = InstitutionalIdP("idp-fresh", "https://idp-fresh.example",
                           dri.clock, dri.ids, audit=dri.logs["external"])
    _stage(feed, idp)
    feed.flush()
    dri.directory.ingestor.poll()

    hashes = {n: s.state_hash() for n, s in md.shards.items()}
    replayed = {}
    for victim in sorted(md.shards):
        fed = idp.entity_id in md.shards[victim].rows
        dri.crash(f"dir-{victim}")
        assert not md.shards[victim].rows
        if fed:
            with pytest.raises(ShardUnavailable):
                md.get(idp.entity_id)
        report = dri.restart(f"dir-{victim}")
        assert report.state_hash == hashes[victim]
        replayed[fed] = replayed.get(fed, 0) + report.entries_replayed
    # the delta replays on top of the baseline snapshot; the builder's
    # directly registered IdPs come back from the snapshot alone
    assert replayed == {True: 1, False: 0}
    assert {n: s.state_hash() for n, s in md.shards.items()} == hashes
    dri.directory.verify_invariants()
    assert len(md) == 5 and md.get(idp.entity_id).verifier is not None
    assert dri.workflows.story1_pi_onboarding("pi").ok
    dri.clock.advance(2 * 3600.0)
    with pytest.raises(MetadataStale):
        md.get(idp.entity_id)


def test_deployment_stale_metadata_login_fails_closed_with_403():
    dri = build_isambard(directory=True)
    d = dri.directory
    # a feed-registered institution with a live network endpoint
    from repro.net import OperatingDomain, Zone

    idp = InstitutionalIdP("idp-fresh", "https://idp-fresh.example",
                           dri.clock, dri.ids, audit=dri.logs["external"])
    dri.network.attach(idp, OperatingDomain.EXTERNAL, Zone.INTERNET)
    dri.idps["idp-fresh"] = idp
    feed = MetadataFeed("fed-fresh", dri.clock, valid_for=3600.0)
    d.ingestor.register_feed(feed)
    _stage(feed, idp)
    feed.flush()
    d.ingestor.poll()

    wf = dri.workflows
    carol = wf.create_researcher("carol", idp="idp-fresh")
    # onboard through the portal so authorisation-led registration passes
    assert wf.story1_pi_onboarding("carol").ok
    assert wf.login(carol).ok  # inside the validity window

    # past the window, with the registrar silenced: 403 MetadataStale
    dri.faults.metadata_feed_stale("fed-fresh")
    dri.clock.advance(2 * 3600.0)
    carol.agent.clear_cookies("broker")
    carol.agent.clear_cookies("myaccessid")
    resp = wf.login(carol)
    assert resp.status == 403
    assert resp.body.get("error_type") == "MetadataStale"
    assert d.metadata.stale_denials >= 1


def test_chaos_shard_down_on_deployment_registry():
    dri = build_isambard(directory=DirectoryConfig(account_shards=4,
                                                   metadata_shards=2))
    wf = dri.workflows
    assert wf.story1_pi_onboarding("pi").ok
    reg = dri.myaccessid.registry
    owner = next(n for n in sorted(reg.shards) if reg.shards[n].idmap)
    dri.faults.shard_down("accounts", owner, restore_after=30.0)
    assert not reg.shards[owner].up
    ident = LinkedIdentity(*next(iter(
        reg.shards[owner].idmap)).split("\n"))
    with pytest.raises(ShardUnavailable):
        reg.find(ident)
    dri.clock.advance(31.0)
    assert reg.shards[owner].up
    assert reg.find(ident) is not None
    assert dri.faults.shards_downed == 1


# ---------------------------------------------------------------------------
# the stored account: one flat tuple of atoms
# ---------------------------------------------------------------------------
_names = st.text(max_size=10)  # "" and non-ASCII included


@given(
    uid=_names, display_name=_names, email=_names,
    created_at=st.one_of(st.integers(0, 10**9),
                         st.floats(0, 1e9, allow_nan=False)),
    loa=st.sampled_from([int(level) for level in LevelOfAssurance]),
    linked=st.lists(st.lists(_names, min_size=2, max_size=2),
                    min_size=1, max_size=4),
)
def test_account_record_round_trips_to_the_json_row(
        uid, display_name, email, created_at, loa, linked):
    row = {"uid": uid, "linked": linked, "display_name": display_name,
           "email": email, "created_at": created_at, "loa": loa}
    record = pack_account(row)
    assert len(record) == 5 + 2 * len(linked)
    back = unpack_account(record)
    assert back == row and list(back) == list(row)  # same keys, same order
    assert type(back["created_at"]) is type(created_at)
    # a fresh row each time: the caller may edit it, the record stays
    back["linked"].append(["https://idp.late", "x"])
    assert unpack_account(record) == row


def test_stored_records_are_flat_atoms_the_collector_lets_go_of():
    """No container inside a record, which rules out keeping ``linked``
    as nested pairs: a tuple of atoms is untracked by the first collection
    that sees it; one that holds tuples survives that collection tracked
    and ends up in the generation whose passes scan every account."""
    reg, _ = _registry(shards=4)
    uids = reg.register_batch(_wave(0, 120), now=1.5)
    reg.link(uids[3], LinkedIdentity("https://idp-late.example", "second"))
    reg.link(uids[3], LinkedIdentity("https://idp-late.example", "third"))
    gc.collect()
    records = [r for s in reg.shards.values() for r in s.accounts.values()]
    assert len(records) == 120
    assert sorted(len(r) for r in records)[-2:] == [7, 11]
    for record in records:
        assert type(record) is tuple and not gc.is_tracked(record)
        assert {type(atom) for atom in record} <= {str, int, float}
    # one string per IdP, however many accounts name it
    entities = [r[5] for r in records]
    assert len({id(e) for e in entities}) == len(set(entities)) == 7
    reg.verify_invariants()


# ---------------------------------------------------------------------------
# what leaves a shard is pinned: journal records, snapshots, state hashes
# ---------------------------------------------------------------------------
def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _wave(first: int, n: int):
    """Bulk-onboarding entries with the awkward values in: non-ASCII
    names, an empty name, an empty email."""
    names = ["Zoë Åström", "李 小龍", "", "Ωmega O'Neil \"q\""]
    return [{"entity_id": f"https://idp-{i % 7}.example", "sub": f"sub-{i:04d}",
             "display_name": names[i % 4] and f"{names[i % 4]} {i}",
             "email": "" if i % 5 == 0 else f"u{i}@x.example",
             "loa": int(LOA) if i % 3 else int(LevelOfAssurance.ESPRESSO)}
            for i in range(first, first + n)]


def _cut(dri, reg) -> dict:
    """Per shard: the snapshot and every pending record as the journal
    holds them, and the hash of the durable state."""
    out = {}
    for name in sorted(reg.shards):
        snap, entries = dri.durability.stream(f"dir-{name}").load()
        out[name] = {
            "snapshot": _sha(json.dumps(snap, sort_keys=True)),
            "journal": [f"{e.kind} {_sha(e.record)[:16]}" for e in entries],
            "state_hash": reg.shards[name].state_hash(),
        }
    return out


def _layout_scenario() -> dict:
    dri = build_isambard(seed=42, durability=True, directory=DirectoryConfig(
        account_shards=4, metadata_shards=2))
    reg = dri.directory.accounts
    uids = reg.register_batch(_wave(0, 90), now=dri.clock.now())
    dri.clock.advance(3.5)
    uids += reg.register_batch(_wave(90, 90), now=dri.clock.now())
    solo = reg.register_or_get(
        LinkedIdentity("https://idp-solo.example", "sólo"),
        display_name="Sólo Ünique", email="", loa=LOA, now=dri.clock.now())
    # one account ends with four identities, one with two, one is erased
    for k in range(3):
        reg.link(uids[5], LinkedIdentity(f"https://idp-x{k}.example", f"x{k}"))
    reg.link(uids[17], LinkedIdentity("https://idp-y.example", ""))
    reg.link(uids[40], LinkedIdentity("https://idp-z.example", "z"))
    assert reg.deprovision(uids[40]) == 2
    before_checkpoint = _cut(dri, reg)
    for name in sorted(reg.shards):
        reg.shards[name].checkpoint()  # restarts now go through load_state
    dri.clock.advance(1.25)
    uids += reg.register_batch(_wave(180, 60), now=dri.clock.now())
    mig = reg.add_shard("acct-04")
    plan = _sha(repr(mig.moves))
    while not mig.done:
        mig.step(batch=50)
    reg.link(solo.uid, LinkedIdentity("https://idp-y.example", "after"))
    uids += reg.register_batch(_wave(240, 30), now=dri.clock.now())
    final = _cut(dri, reg)

    replayed = {}
    for name in sorted(reg.shards):
        shard = reg.shards[name]
        if f"dir-{name}" in dri.crash_targets:
            dri.crash(f"dir-{name}")
            assert not shard.accounts and not shard.idmap
            report = dri.restart(f"dir-{name}")
        else:  # the shard added later has a journal but no crash target
            shard.wipe_state()
            report = shard.recover()
        assert report.state_hash == final[name]["state_hash"]
        replayed[name] = report.entries_replayed
    assert _cut(dri, reg) == final  # recovery rewrote nothing
    stats = reg.verify_invariants()
    assert stats["accounts"] == len(set(uids))  # solo in, the erased one out
    rows = {}
    for uid in (uids[5], uids[17], uids[2], solo.uid):
        shard = reg.shards[reg.ring.locate("uid:" + uid)]
        rows[uid] = shard.durable_state()["accounts"][uid]
        assert reg.account(uid).uid == uid
    return {"before_checkpoint": before_checkpoint, "final": final,
            "migration_plan": plan, "migrated_keys": reg.migrated_keys,
            "entries_replayed": replayed, "invariants": stats,
            "sample_rows": rows,
            "sample_account": dataclasses.asdict(reg.account(uids[5]))}


def test_what_leaves_a_shard_matches_the_recording():
    """Waves, links, an erasure, a checkpoint, a stepped ``add_shard``
    migration and a crash/restart of every account shard: every journal
    record, snapshot, ``durable_state()`` and ``state_hash()`` equals what
    was recorded before the in-memory row changed shape.  Regenerate
    (``REGEN_GOLDEN=1``) only for an intended change of a journaled form.
    """
    got = json.loads(json.dumps(_layout_scenario()))
    want = golden("directory_layout.json", got)
    for key in want:
        assert got[key] == want[key], f"{key} moved"
    assert got.keys() == want.keys()
