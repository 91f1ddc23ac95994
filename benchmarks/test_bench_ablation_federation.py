"""ABL14 — the national federation: 1M+ users, 10k IdPs, one semester.

The paper's infrastructure serves *national* research federations —
eduGAIN aggregates >8000 IdPs and MyAccessID's registry is sized for
every researcher in Europe — yet the repo's original scale headline was
a 45-user workshop.  This bench drives the federation directory
(`repro.federation.directory`) at national scale through a simulated
semester and reports what the sharded tier guarantees:

* **onboarding**: 1M+ users register through batched waves onto the
  consistent-hash account shards — zero cross-shard uid collisions,
  one WAL entry per shard per wave (not one per user);
* **metadata supply chain**: 10k IdPs arrive via signed registrar
  delta feeds; weekly republish cycles keep validity windows fresh and
  ~1%/week key-rotation churn lands as version bumps;
* **feed outage → fail closed**: one federation's registrar goes
  silent for three weeks; its entries serve until the 14-day validity
  window lapses, then logins through them are *denied stale* (never
  validated against possibly rotated keys) until the registrar
  recovers and republishes;
* **rebalancing**: a shard added mid-semester migrates exactly the
  remapped keys while lookups stay correct and bounded — p99 during
  migration ≤ 2× the steady-state probe cost (one fallback probe);
* **shard loss**: a downed shard fails its key range closed while the
  rest of the ring serves; a crashed shard recovers bit-identically
  from its own journal.

``BENCH_QUICK=1`` shrinks the federation (20k users, 400 IdPs, 6
weeks) for CI smoke runs.  Simulated time: only directory probe costs
and network hops — the latency columns count protocol work, not CPU.
"""

import os

from repro.core import build_isambard
from repro.core.metrics import format_table, latency_stats
from repro.errors import MetadataStale, ShardUnavailable
from repro.federation.assurance import LevelOfAssurance
from repro.federation.directory import (
    FEED_VALIDITY,
    PROBE_COST,
    DirectoryConfig,
    MetadataFeed,
)
from repro.federation.myaccessid import LinkedIdentity

QUICK = os.environ.get("BENCH_QUICK") == "1"

N_USERS = 20_000 if QUICK else 1_000_000
N_IDPS = 400 if QUICK else 10_000
N_FEEDS = 4 if QUICK else 20
WEEKS = 6 if QUICK else 18
WAVE = 10_000 if QUICK else 50_000
SAMPLE = 500 if QUICK else 2_000        # login probes per weekly sample
OUTAGE_START = 2 if QUICK else 8        # feed-00 silent from this week...
OUTAGE_WEEKS = 3 if QUICK else 3        # ...for this many weeks
ROTATIONS_PER_WEEK = max(2, N_IDPS // 100)   # ~1% weekly key churn

WEEK = 7 * 86400.0

CONFIG = DirectoryConfig(account_shards=8, metadata_shards=4)


def _entity(i: int) -> str:
    return f"https://idp-{i:05d}.example"


def _feed_of(i: int) -> int:
    return i % N_FEEDS


def _populate_feeds(dri):
    """10k synthetic IdPs across N_FEEDS federation registrars.

    Entries use opaque verifier tokens (the store vaults them by kid,
    exactly as it vaults live keys) — minting 10k real Ed25519 keypairs
    would measure OpenSSL, not the directory.
    """
    feeds = []
    for f in range(N_FEEDS):
        feed = MetadataFeed(f"feed-{f:02d}", dri.clock, valid_for=FEED_VALIDITY)
        dri.directory.ingestor.register_feed(feed)
        feeds.append(feed)
    for i in range(N_IDPS):
        feeds[_feed_of(i)].add(
            entity_id=_entity(i), endpoint_name=f"idp-{i:05d}",
            display_name=f"IdP {i:05d}", loa=LevelOfAssurance.CAPPUCCINO,
            categories=(), verifier=f"vk-{i:05d}-g1", version=1)
    for feed in feeds:
        feed.flush()
    return feeds


def _onboard(dri):
    """Register N_USERS in batched waves; every user belongs to one of
    the feed IdPs (spread round-robin)."""
    reg = dri.directory.accounts
    uids = []
    for start in range(0, N_USERS, WAVE):
        wave = [
            {"entity_id": _entity(i % N_IDPS), "sub": f"sub-{i:07d}",
             "display_name": f"user-{i:07d}", "email": f"u{i:07d}@x.example",
             "loa": int(LevelOfAssurance.CAPPUCCINO)}
            for i in range(start, min(start + WAVE, N_USERS))
        ]
        uids.extend(reg.register_batch(wave, now=dri.clock.now()))
    return uids


def _sample_logins(dri, week: int):
    """One weekly login cohort: metadata fetch + account resolution for
    a deterministic user sample.  Counts stale fail-closed denials and
    collects the directory's recorded probe latencies."""
    store = dri.directory.metadata
    reg = dri.directory.accounts
    reg.reset_lookup_stats()
    store.reset_lookup_stats()
    stale = down = ok = 0
    for k in range(SAMPLE):
        i = (week * 40_013 + k * 9_973) % N_USERS
        ident = LinkedIdentity(_entity(i % N_IDPS), f"sub-{i:07d}")
        try:
            store.get(ident.entity_id)
            account = reg.find(ident)
            assert account is not None
            ok += 1
        except MetadataStale:
            stale += 1
        except ShardUnavailable:
            down += 1
    return {"ok": ok, "stale": stale, "down": down,
            "latencies": list(reg.lookup_latencies)}


def test_ablation_national_federation(report):
    dri = build_isambard(directory=CONFIG, durability=True)
    d = dri.directory
    reg, store, ing = d.accounts, d.metadata, d.ingestor

    # --- phase A: metadata supply chain + bulk onboarding ---------------
    feeds = _populate_feeds(dri)
    ing.poll()
    assert len(store) == N_IDPS + len(dri.idps)  # + the bilateral anchors
    uids = _onboard(dri)
    assert len(uids) == N_USERS
    assert len(set(uids)) == N_USERS, "cross-shard uid collision"
    # batched WAL: onboarding cost O(waves × shards) journal entries,
    # never one per user
    waves = (N_USERS + WAVE - 1) // WAVE
    total_appends = sum(
        dri.durability.stream(f"dir-{n}").appends for n in reg.shards)
    assert total_appends <= 2 * waves * len(reg.shards) + len(reg.shards)

    # the full federated login dance stays green on the sharded tiers
    wf = dri.workflows
    assert wf.story1_pi_onboarding("pi", project_name="abl14-proj").ok

    # --- phase B: the semester -----------------------------------------
    # feed-00's registrar goes silent; validity (14d) outlasts the first
    # outage week, then its IdPs fail closed until the week-after heal
    dri.faults.metadata_feed_stale(
        feeds[0].name, at=OUTAGE_START * WEEK,
        duration=OUTAGE_WEEKS * WEEK)

    rows = []
    stale_total = 0
    migration_stats = None
    add_week = WEEKS // 2
    for week in range(1, WEEKS + 1):
        dri.clock.advance(WEEK)
        # registrar churn: ~1% of IdPs rotate keys (version bump); the
        # silent registrar stages but cannot publish
        for r in range(ROTATIONS_PER_WEEK):
            i = (week * 104_729 + r * 7_919) % N_IDPS
            gen = week + 1
            feeds[_feed_of(i)].rotate(_entity(i), f"vk-{i:05d}-g{gen}")
        for feed in feeds:
            if not feed.down:
                feed.republish()
        ing.poll()

        if week == add_week:
            # rebalance under load: one more account shard mid-semester
            mig = reg.add_shard(f"acct-{CONFIG.account_shards:02d}")
            assert mig is not None
            reg.reset_lookup_stats()
            step_lat = []
            k = 0
            while not mig.done:
                mig.step()
                for _ in range(20):  # interleave lookups with the moves
                    i = (k * 6_151) % N_USERS
                    k += 1
                    reg.find(LinkedIdentity(_entity(i % N_IDPS),
                                            f"sub-{i:07d}"))
                step_lat.extend(reg.lookup_latencies)
                reg.reset_lookup_stats()
            mig_stats = latency_stats(step_lat)
            assert mig_stats["max"] <= 2 * PROBE_COST + 1e-12, \
                "mid-migration lookup exceeded one fallback probe"
            migration_stats = (mig.total, mig_stats)

        sample = _sample_logins(dri, week)
        stale_total += sample["stale"]
        lat = latency_stats(sample["latencies"])
        rows.append([
            week,
            f"{len(store) - store.expired_count()}/{len(store)}",
            f"{ing.feed_age(feeds[0].name) / 86400.0:.0f}d",
            f"{sample['ok']}/{SAMPLE}",
            sample["stale"],
            f"{lat['p99'] * 1000:.2f}",
            "rebalance" if week == add_week else
            ("outage" if feeds[0].down else ""),
        ])

    # the outage produced real fail-closed denials once validity lapsed,
    # and the heal + republish cleared them
    assert stale_total > 0, "feed outage never aged past validity"
    assert rows[-1][4] == 0, "stale denials persisted after registrar heal"
    assert ing.rejected_deltas == 0 and ing.failed_polls >= OUTAGE_WEEKS - 1

    # --- phase C: shard loss + crash recovery ---------------------------
    victim = sorted(reg.shards)[3]
    dri.faults.shard_down("accounts", victim)
    denied = served = 0
    for k in range(SAMPLE):
        i = (k * 12_289) % N_USERS
        try:
            reg.find(LinkedIdentity(_entity(i % N_IDPS), f"sub-{i:07d}"))
            served += 1
        except ShardUnavailable:
            denied += 1
    reg.shard_up(victim)
    assert denied > 0 and served > 0, "shard loss must fail only its range"

    state_before = reg.shards[victim].state_hash()
    dri.crash(f"dir-{victim}")
    recovery = dri.restart(f"dir-{victim}")
    assert reg.shards[victim].state_hash() == state_before

    # --- final invariants: the headline claim ---------------------------
    inv = d.verify_invariants()
    assert inv["accounts"]["accounts"] >= N_USERS
    steady = latency_stats(
        _sample_logins(dri, WEEKS + 1)["latencies"])

    table = format_table(
        ["week", "fresh/total IdPs", "feed-00 age", "logins ok",
         "stale denials", "lookup p99 (sim ms)", "event"],
        rows,
        title=(f"ABL14: national federation — {N_USERS:,} users, "
               f"{N_IDPS:,} IdPs over {N_FEEDS} feeds, {WEEKS}-week "
               f"semester{' (QUICK)' if QUICK else ''}"),
    )
    mig_total, mig_lat = migration_stats
    summary = format_table(
        ["claim", "value"],
        [
            ["accounts registered", f"{inv['accounts']['accounts']:,}"],
            ["cross-shard uid collisions", 0],
            ["identity links resolved", f"{inv['accounts']['links']:,}"],
            ["metadata entities", f"{inv['metadata']['entities']:,}"],
            ["feed deltas applied / rejected",
             f"{ing.applied_deltas} / {ing.rejected_deltas}"],
            ["stale logins denied closed (semester)", stale_total],
            ["keys migrated by mid-semester rebalance", f"{mig_total:,}"],
            ["lookup p99 during migration (sim ms)",
             f"{mig_lat['p99'] * 1000:.2f} (bound {2 * PROBE_COST * 1000:.2f})"],
            ["steady-state lookup p99 (sim ms)",
             f"{steady['p99'] * 1000:.2f}"],
            ["shard-down denials (fail closed)", denied],
            ["crashed shard journal replay entries",
             recovery.entries_replayed],
        ],
        title="ABL14 summary: acceptance claims",
    )
    report("abl14_national_federation", table + "\n\n" + summary)
