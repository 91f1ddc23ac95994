"""Sharded identity tier: the account registry on a consistent-hash ring.

The paper's north star is a national federation — millions of users
across thousands of IdPs — and a single in-process dict is not a
substrate for that.  This module places the MyAccessID account registry
on the directory's consistent-hash ring
(:class:`~repro.federation.directory.ring.HashRing`):

* Two key spaces share one ring — identity keys (``id:<entity>\\n<sub>``)
  and uid keys (``uid:<uid>``) — so an account's identity links and its
  row may legitimately live on *different* shards, exactly as they would
  behind a real partitioned store.  Cross-shard invariants (uid
  uniqueness, identity-linking consistency, retired-uid-never-reassigned)
  are therefore properties of the registry's *protocol*, not of any one
  shard, and :meth:`ShardedAccountRegistry.verify_invariants` scans for
  them globally.
* Each shard is :class:`~repro.resilience.durability.Durable`: every
  mutation journals before it applies (WAL discipline), so a shard crash
  recovers losslessly through the deployment's
  :class:`~repro.resilience.DurabilityStore`, shard by shard.
* Adding a shard starts a *stepwise deterministic migration*: the plan
  is the sorted list of keys whose ring owner changed, and until a key's
  batch has moved, lookups probe the new owner, miss, and fall back to
  the source shard — one extra probe, which is what bounds the lookup
  p99 during a migration (at most ``2 × PROBE_COST``).  A shard never
  leaves: nothing in the federation retires one.
* A downed shard fails its key range *closed*
  (:class:`~repro.errors.ShardUnavailable`); the other shards keep
  serving theirs.

Probe costs are modelled as *recorded* simulated latencies
(``lookup_latencies``), not clock advances — a lookup is a read, and
advancing the shared clock per read would perturb every token lifetime
in the deployment.  Benches window the recorded samples instead.

This is the deployment's only account registry: every build runs it,
with one shard unless ``build_isambard(directory=...)`` sizes it up.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.audit import Outcome
from repro.errors import (
    ConfigurationError,
    FederationError,
    IdentityNotRegistered,
    RecoveryError,
    ShardUnavailable,
)
from repro.federation.assurance import LevelOfAssurance
from repro.federation.directory.ring import HashRing
from repro.federation.myaccessid import Account, LinkedIdentity
from repro.resilience.durability import Durable, ServiceJournal

__all__ = [
    "DirectoryConfig",
    "DirectoryShard",
    "AccountShard",
    "Migration",
    "ShardedTier",
    "ShardedAccountRegistry",
    "PROBE_COST",
    "pack_account",
    "unpack_account",
]

# simulated seconds one shard probe costs the caller (network hop +
# partition-local index read); a fallback during migration pays two
PROBE_COST = 0.0004
VNODES = 32             # ring vnodes per shard
MIGRATION_BATCH = 4096  # keys moved per migration step
UID_SUFFIX = "@myaccessid"  # MyAccessID's persistent identifier scope


@dataclass(frozen=True)
class DirectoryConfig:
    """Sizing knobs for the federation directory tier."""

    account_shards: int = 8
    metadata_shards: int = 4


class DirectoryShard(Durable):
    """Common journaled-shard machinery: migration payloads.

    Subclasses define the tables and implement the :class:`Durable`
    contract plus :meth:`ring_keys` / :meth:`extract` (and replay the
    ``migrate.in`` entry :meth:`install` journals).
    """

    snapshot_every = 512

    def __init__(self, name: str) -> None:
        self.name = name
        self.up = True

    # -------------------------------------------------- migration contract
    def ring_keys(self) -> Iterator[str]:
        raise NotImplementedError

    def extract(self, ring_keys: List[str]) -> Dict[str, object]:
        """Journal + remove the listed keys; return their payload."""
        raise NotImplementedError

    def install(self, payload: Dict[str, object]) -> None:
        """Journal + insert a payload extracted from another shard."""
        self.commit("migrate.in", payload)


# A stored account is one flat tuple of atoms,
# ``(uid, display_name, email, created_at, loa, entity, sub[, entity, sub …])``
# — the linked identities follow the five scalars pairwise.  Flat on
# purpose: a tuple that holds only strings and numbers is dropped from
# the cyclic collector's books by the first pass that sees it, so a
# shard of a million accounts adds nothing to a full collection.  A
# record with one nested pair per identity outlives that pass still
# tracked (the pass only untracks the pairs), is promoted, and makes
# full collections both frequent and long (docs/scaling.md, "What an
# account costs in memory").
Record = Tuple[object, ...]
_LINKS = 5  # index of the first (entity, sub) pair


def pack_account(row: Dict[str, object]) -> Record:
    """JSON row -> stored record.  Entity ids are interned: a federation
    has thousands of IdPs and millions of users, so each id is held once."""
    flat = [row["uid"], row["display_name"], row["email"],
            row["created_at"], row["loa"]]
    for entity_id, sub in row["linked"]:
        flat += (sys.intern(entity_id), sub)
    return tuple(flat)


def _links(record: Record) -> Iterator[Tuple[str, str]]:
    """The record's ``(entity_id, sub)`` pairs."""
    return zip(record[_LINKS::2], record[_LINKS + 1::2])


def _identity_key(entity_id: str, sub: str) -> str:
    """An external identity's ``idmap`` key (its ring key is ``id:`` + it)."""
    return f"{entity_id}\n{sub}"


def unpack_account(record: Record) -> Dict[str, object]:
    """Stored record -> the JSON row journals, snapshots and migration
    payloads carry (a fresh one: the caller owns it)."""
    uid, display_name, email, created_at, loa = record[:_LINKS]
    return {"uid": uid, "linked": [[e, s] for e, s in _links(record)],
            "display_name": display_name, "email": email,
            "created_at": created_at, "loa": loa}


def _new_row(uid: str, entity_id: str, sub: str, display_name: str,
             email: str, loa: int, now: float) -> Dict[str, object]:
    """The JSON row of a freshly minted account, as it is journaled."""
    return {"uid": uid, "linked": [[entity_id, sub]],
            "display_name": display_name, "email": email,
            "created_at": now, "loa": int(loa)}


class AccountShard(DirectoryShard):
    """One partition of the account registry.

    Tables: ``idmap`` (identity key -> uid), ``accounts`` (uid -> flat
    record, see :func:`pack_account`), ``retired`` (tombstoned uids —
    never reassigned).  JSON rows exist only where one crosses the shard
    boundary: packed as it enters (``apply_entry``, ``load_state``),
    unpacked as it leaves (``durable_state``, ``extract``);
    :class:`~repro.federation.myaccessid.Account` objects are
    materialised on read.
    """

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.wipe_state()

    # ----------------------------------------------------- Durable contract
    def durable_state(self) -> Dict[str, object]:
        return {
            "idmap": {k: self.idmap[k] for k in sorted(self.idmap)},
            "accounts": {u: unpack_account(self.accounts[u])
                         for u in sorted(self.accounts)},
            "retired": sorted(self.retired),
        }

    def load_state(self, state: Dict[str, object]) -> None:
        self.idmap = dict(state.get("idmap", {}))
        self.accounts = {}
        self._put(state.get("accounts", {}).values())
        self.retired = set(state.get("retired", []))

    def _put(self, rows: Iterable[Dict[str, object]]) -> None:
        """Pack ``rows`` into the table, each keyed by its record's own
        uid string (one object serves as key and as field)."""
        for record in map(pack_account, rows):
            self.accounts[record[0]] = record

    def wipe_state(self) -> None:
        self.idmap: Dict[str, str] = {}
        self.accounts: Dict[str, Record] = {}
        self.retired: Set[str] = set()

    def apply_entry(self, kind: str, data: Dict[str, object]) -> None:
        if kind == "idmap.put":
            self.idmap[data["key"]] = data["uid"]
        elif kind == "idmap.put_batch":
            self.idmap.update(data["pairs"])
        elif kind == "idmap.del":
            self.idmap.pop(data["key"], None)
        elif kind == "account.put":
            self._put([data["row"]])
        elif kind == "account.put_batch":
            self._put(data["rows"])
        elif kind == "account.del":
            self.accounts.pop(data["uid"], None)
        elif kind == "retire":
            self.retired.add(data["uid"])
        elif kind == "migrate.in":
            self.idmap.update(data["idmap"])
            self._put(data["accounts"])
            self.retired.update(data["retired"])
        elif kind == "migrate.out":
            for key in data["idmap"]:
                self.idmap.pop(key, None)
            for uid in data["accounts"]:
                self.accounts.pop(uid, None)
            self.retired.difference_update(data["retired"])
        else:
            raise ConfigurationError(
                f"account shard {self.name!r}: unknown journal kind {kind!r}")

    def verify_recovery(self, report) -> None:
        zombie = self.retired & set(self.accounts)
        if zombie:
            raise RecoveryError(
                f"shard {self.name!r} recovered retired uids with live "
                f"accounts: {sorted(zombie)[:3]}")

    # ------------------------------------------------------------ migration
    def ring_keys(self) -> Iterator[str]:
        for key in self.idmap:
            yield "id:" + key
        for uid in self.accounts:
            yield "uid:" + uid
        for uid in self.retired:
            yield "uid:" + uid  # disjoint from accounts (deprovision deletes)

    def extract(self, ring_keys: List[str]) -> Dict[str, object]:
        idmap: List[List[str]] = []
        accounts: List[Dict[str, object]] = []
        retired: List[str] = []
        for rk in ring_keys:
            if rk.startswith("id:"):
                key = rk[3:]
                if key in self.idmap:
                    idmap.append([key, self.idmap[key]])
            else:
                uid = rk[4:]
                if uid in self.accounts:
                    accounts.append(unpack_account(self.accounts[uid]))
                if uid in self.retired:
                    retired.append(uid)
        self.commit("migrate.out", {
            "idmap": [k for k, _ in idmap],
            "accounts": [row["uid"] for row in accounts],
            "retired": retired})
        return {"idmap": idmap, "accounts": accounts, "retired": retired}


class Migration:
    """One in-flight shard rebalance: a sorted move plan, stepped in batches.

    ``pending`` maps every not-yet-moved ring key to its *source* shard;
    tier lookups consult it to fall back (one extra probe) until the
    key's batch lands.  ``step`` drives the plan; each step
    journals a ``migrate.out`` on the source and a ``migrate.in`` on the
    destination per (source, destination) group, so a crash mid-migration
    recovers to a consistent cut.
    """

    def __init__(self, tier: "ShardedTier",
                 moves: List[Tuple[str, str, str]]) -> None:
        self.tier = tier
        self.moves = moves  # (ring_key, src, dst), sorted by ring_key
        self.pending: Dict[str, str] = {rk: src for rk, src, _ in moves}
        self.cursor = 0
        self.started_at = tier.clock.now()
        self.finished_at: Optional[float] = None

    @property
    def done(self) -> bool:
        return self.cursor >= len(self.moves)

    @property
    def total(self) -> int:
        return len(self.moves)

    def step(self, batch: Optional[int] = None) -> int:
        """Move the next ``batch`` keys; returns how many moved."""
        if self.done:
            return 0
        n = MIGRATION_BATCH if batch is None else batch
        chunk = self.moves[self.cursor:self.cursor + n]
        groups: Dict[Tuple[str, str], List[str]] = {}
        for rk, src, dst in chunk:
            groups.setdefault((src, dst), []).append(rk)
        for (src, dst) in sorted(groups):
            keys = groups[(src, dst)]
            payload = self.tier.shards[src].extract(keys)
            self.tier.shards[dst].install(payload)
            self.tier.note_migrated(len(keys))
        for rk, _, _ in chunk:
            del self.pending[rk]
        self.cursor += len(chunk)
        if self.done:
            self.finished_at = self.tier.clock.now()
        return len(chunk)


class ShardedTier:
    """Ring placement + health + stepwise migration, shared by both tiers."""

    tier = "tier"

    def __init__(self, clock, shard_names: List[str]) -> None:
        if not shard_names:
            raise ConfigurationError(f"{self.tier} tier needs >= 1 shard")
        self.clock = clock
        # the directory install sets both; a bare tier reports to nobody
        self.telemetry = None
        self.audit = None
        self.ring = HashRing(shard_names, vnodes=VNODES)
        self.shards: Dict[str, DirectoryShard] = {
            name: self._new_shard(name) for name in shard_names}
        # set by the deployment when durable: name -> ServiceJournal for
        # shards added after construction
        self.journal_factory: Optional[Callable[[str], ServiceJournal]] = None
        self._migration: Optional[Migration] = None
        # stats (recorded simulated latencies; never clock advances)
        self.lookups = 0
        self.fallback_probes = 0
        self.unavailable_denials = 0
        self.migrated_keys = 0
        # (lookups, fallback_probes) when the latency window last opened
        self._window_start = (0, 0)

    def _new_shard(self, name: str) -> DirectoryShard:
        raise NotImplementedError

    @property
    def telemetry(self):
        return self._telemetry

    @telemetry.setter
    def telemetry(self, telemetry) -> None:
        """Resolves the tier's ``directory_lookups{tier,result}`` series
        here, once, so that a probe ticks one without building labels
        (no telemetry: the ticks go nowhere)."""
        self._telemetry = telemetry
        self._count = {
            result: (lambda: None) if telemetry is None
            else telemetry.directory_lookups.bound(tier=self.tier,
                                                   result=result)
            for result in ("ok", "fallback", "unavailable")}

    # ------------------------------------------------------------ placement
    def _locate(self, ring_key: str, *, record: bool = True) -> DirectoryShard:
        """Resolve a ring key to its serving shard, modelling probe cost.

        During a migration an unmoved key costs one extra probe: the
        caller asks the new ring owner, misses, and falls back to the
        source shard the pending map still names.
        """
        owner = self.ring.locate(ring_key)
        result = "ok"
        mig = self._migration
        if mig is not None:
            src = mig.pending.get(ring_key)
            if src is not None and src != owner:
                owner, result = src, "fallback"
        shard = self.shards[owner]
        if record:
            self.lookups += 1
            self.fallback_probes += result == "fallback"
            self._count[result]()
        if not shard.up:
            self.unavailable_denials += 1
            self._count["unavailable"]()
            raise ShardUnavailable(
                f"{self.tier} shard {shard.name!r} is down "
                f"(key range fails closed)")
        return shard

    # --------------------------------------------------------- shard health
    def shard_down(self, name: str) -> None:
        """Chaos hook: the shard stops serving (state intact)."""
        self._shard(name).up = False

    def shard_up(self, name: str) -> None:
        self._shard(name).up = True

    def _shard(self, name: str) -> DirectoryShard:
        shard = self.shards.get(name)
        if shard is None:
            raise ConfigurationError(
                f"no {self.tier} shard named {name!r}")
        return shard

    # ----------------------------------------------------------- membership
    def add_shard(self, name: str) -> Optional[Migration]:
        """Join a shard and plan the deterministic key migration onto it."""
        if name in self.shards:
            raise ConfigurationError(f"{self.tier} shard {name!r} exists")
        self._check_no_migration()
        shard = self._new_shard(name)
        if self.journal_factory is not None:
            shard.attach_journal(self.journal_factory(name))
        self.shards[name] = shard
        self.ring.add(name)
        return self._plan_migration()

    def _check_no_migration(self) -> None:
        if self._migration is not None and not self._migration.done:
            raise ConfigurationError(
                f"a {self.tier} migration is already in flight "
                f"({self._migration.cursor}/{self._migration.total} moved)")

    def _plan_migration(self) -> Optional[Migration]:
        """Plan to move every stored key whose ring owner is not the
        shard holding it, sorted by ring key."""
        locate = self.ring.locate
        moves = sorted((rk, name, dst)
                       for name, shard in self.shards.items()
                       for rk in shard.ring_keys()
                       if (dst := locate(rk)) != name)
        self._migration = Migration(self, moves) if moves else None
        return self._migration

    @property
    def migration(self) -> Optional[Migration]:
        return self._migration

    def note_migrated(self, n: int) -> None:
        self.migrated_keys += n
        if self.telemetry is not None:
            self.telemetry.directory_migrated.inc(n, tier=self.tier)

    def _verify_placement(self) -> None:
        """Every key sits on its ring owner, or is still pending at its
        migration source."""
        mig = self._migration
        pending = mig.pending if mig is not None else {}
        for name in sorted(self.shards):
            for rk in self.shards[name].ring_keys():
                want = self.ring.locate(rk)
                if want != name and pending.get(rk) != name:
                    raise RecoveryError(
                        f"key {rk!r} on {name!r}, ring owner {want!r}")

    # ---------------------------------------------------------------- stats
    def reset_lookup_stats(self) -> None:
        """Start a fresh latency window (benches bracket phases with this)."""
        self._window_start = (self.lookups, self.fallback_probes)

    @property
    def lookup_latencies(self) -> List[float]:
        """Simulated cost of every lookup recorded in the current window.
        A lookup costs one probe, or two when it fell back mid-migration,
        so the window is two counts, not one float per lookup."""
        since_lookups, since_fallbacks = self._window_start
        fell_back = self.fallback_probes - since_fallbacks
        direct = self.lookups - since_lookups - fell_back
        return [PROBE_COST] * direct + [2 * PROBE_COST] * fell_back


class ShardedAccountRegistry(ShardedTier):
    """The MyAccessID account registry, partitioned across journaled shards.

    Guarantees uniqueness and persistence of user identifiers: the same
    external identity always resolves to the same account, an account
    may have several linked identities, and no two accounts ever share a
    uid (``register_or_get`` / ``link`` / ``find`` / ``deprovision`` /
    ``account`` / ``__len__``).  :meth:`register_batch` is bulk
    onboarding (one journal entry per touched shard per wave, not one
    per user) and :meth:`verify_invariants` checks the cross-shard
    guarantees.
    """

    tier = "accounts"

    def __init__(self, clock, ids, *, shards: int = 8) -> None:
        super().__init__(clock, [f"acct-{i:02d}" for i in range(shards)])
        self.ids = ids
        # optional repro.authz.IdentityGraph: interactively registered
        # accounts mint canonical principals (bulk waves stay lazy — the
        # graph mints on first live grant anyway)
        self.graph = None
        self.batched_registrations = 0

    # ---------------------------------------------------------------- keys
    def _identity_shard(self, identity: LinkedIdentity
                        ) -> Tuple[AccountShard, str]:
        """The shard serving ``identity``, and its ``idmap`` key there."""
        ikey = _identity_key(identity.entity_id, identity.sub)
        return self._locate("id:" + ikey), ikey

    def _uid_shard(self, uid: str) -> AccountShard:
        return self._locate("uid:" + uid)

    def _new_shard(self, name: str) -> AccountShard:
        return AccountShard(name)

    @staticmethod
    def _materialize(record: Record) -> Account:
        uid, display_name, email, created_at, loa = record[:_LINKS]
        return Account(
            uid=uid,
            linked=[LinkedIdentity(e, s) for e, s in _links(record)],
            display_name=display_name,
            email=email,
            created_at=created_at,
            loa=LevelOfAssurance(loa),
        )

    # ------------------------------------------------------------- registry
    def register_or_get(self, identity: LinkedIdentity, *, display_name: str,
                        email: str, loa: LevelOfAssurance,
                        now: float) -> Account:
        """Idempotently resolve an external identity to its account."""
        ishard, ikey = self._identity_shard(identity)
        uid = ishard.idmap.get(ikey)
        if uid is not None:
            return self._materialize(self._uid_shard(uid).accounts[uid])
        uid = self.ids.next("ma") + UID_SUFFIX
        ushard = self._uid_shard(uid)
        if uid in ushard.retired or uid in ushard.accounts:
            # IdFactory counters make minted uids globally fresh; a hit
            # here means the tombstone protocol was violated
            raise RecoveryError(f"minted uid {uid!r} already used")
        ishard.commit("idmap.put", {"key": ikey, "uid": uid})
        ushard.commit("account.put", {"uid": uid, "row": _new_row(
            uid, identity.entity_id, identity.sub, display_name, email, loa,
            now)})
        if self.graph is not None:
            self.graph.principal(uid)
        return self._materialize(ushard.accounts[uid])

    def register_batch(self, entries: Iterable[Dict[str, object]], *,
                       now: float) -> List[str]:
        """Bulk onboarding wave: entries are dicts with ``entity_id``,
        ``sub``, ``display_name``, ``email``, ``loa``.

        All placements resolve (and fail closed on a downed shard)
        *before* anything commits; then each touched shard gets one
        ``idmap.put_batch`` / ``account.put_batch`` journal entry — the
        WAL amplification of onboarding 1M users is per-shard-per-wave,
        not per-user.  Existing identities resolve to their current uid.
        """
        id_batches: Dict[str, List[List[str]]] = {}
        row_batches: Dict[str, List[Dict[str, object]]] = {}
        seen: Dict[str, str] = {}
        uids: List[str] = []
        locate = self._locate
        for entry in entries:
            entity_id, sub = str(entry["entity_id"]), str(entry["sub"])
            ikey = _identity_key(entity_id, sub)
            ishard = locate("id:" + ikey, record=False)
            if ikey in seen:
                uids.append(seen[ikey])
                continue
            existing = ishard.idmap.get(ikey)
            if existing is not None:
                seen[ikey] = existing
                uids.append(existing)
                continue
            uid = self.ids.next("ma") + UID_SUFFIX
            ushard = locate("uid:" + uid, record=False)
            id_batches.setdefault(ishard.name, []).append([ikey, uid])
            row_batches.setdefault(ushard.name, []).append(_new_row(
                uid, entity_id, sub, str(entry.get("display_name", "")),
                str(entry.get("email", "")),
                entry.get("loa", LevelOfAssurance.CAPPUCCINO), now))
            seen[ikey] = uid
            uids.append(uid)
        for name in sorted(id_batches):
            self.shards[name].commit("idmap.put_batch",
                                     {"pairs": id_batches[name]})
        for name in sorted(row_batches):
            self.shards[name].commit("account.put_batch",
                                     {"rows": row_batches[name]})
        fresh = sum(len(rows) for rows in row_batches.values())
        self.batched_registrations += fresh
        return uids

    def link(self, uid: str, identity: LinkedIdentity) -> Account:
        """Attach a second external identity to an existing account.

        The identity mapping lands on the *identity's* shard, the
        updated linked-list on the *uid's* shard — the canonical
        cross-shard write this tier must keep consistent.
        """
        ushard = self._uid_shard(uid)
        if uid not in ushard.accounts:
            raise IdentityNotRegistered(f"no account {uid!r}")
        ishard, ikey = self._identity_shard(identity)
        existing = ishard.idmap.get(ikey)
        if existing is not None and existing != uid:
            raise FederationError(
                f"identity {identity} is already linked to a different account")
        if existing is None:
            row = unpack_account(ushard.accounts[uid])
            row["linked"].append([identity.entity_id, identity.sub])
            ishard.commit("idmap.put", {"key": ikey, "uid": uid})
            ushard.commit("account.put", {"uid": uid, "row": row})
        return self._materialize(ushard.accounts[uid])

    def find(self, identity: LinkedIdentity) -> Optional[Account]:
        ikey = _identity_key(identity.entity_id, identity.sub)
        uid = self._locate("id:" + ikey).idmap.get(ikey)
        return None if uid is None else self.account(uid)

    def account(self, uid: str) -> Optional[Account]:
        record = self._uid_shard(uid).accounts.get(uid)
        return None if record is None else self._materialize(record)

    def deprovision(self, uid: str) -> int:
        """Erase an account; retire the uid forever.

        Every involved shard (the uid's, plus one per linked identity)
        is resolved and health-checked *before* the first commit, so a
        downed shard fails the whole erasure closed instead of leaving a
        half-severed account behind.
        """
        ushard = self._uid_shard(uid)
        record = ushard.accounts.get(uid)
        if record is None:
            raise IdentityNotRegistered(f"no account {uid!r}")
        targets = [self._identity_shard(LinkedIdentity(*link))
                   for link in _links(record)]
        ushard.commit("account.del", {"uid": uid})
        ushard.commit("retire", {"uid": uid})
        removed = 0
        for ishard, ikey in targets:
            if ishard.idmap.get(ikey) == uid:
                ishard.commit("idmap.del", {"key": ikey})
                removed += 1
        if self.audit is not None:
            self.audit.record(
                self.clock.now(), "directory", "operator",
                "directory.deprovision", uid, Outcome.INFO,
                links_removed=removed, shard=ushard.name,
            )
        return removed

    def __len__(self) -> int:
        return sum(len(s.accounts) for s in self.shards.values())

    def retired_count(self) -> int:
        return sum(len(s.retired) for s in self.shards.values())

    # ----------------------------------------------------------- invariants
    def verify_invariants(self) -> Dict[str, int]:
        """Full cross-shard scan; raises :class:`RecoveryError` on any
        violation.  Checks: no uid lives on two shards; no retired uid
        has a live account anywhere; every identity link points at an
        existing account that lists it; every key sits on its ring owner
        (or is still pending at its migration source).
        """
        owners: Dict[str, str] = {}
        for name in sorted(self.shards):
            for uid in self.shards[name].accounts:
                if uid in owners:
                    raise RecoveryError(
                        f"uid {uid!r} lives on both {owners[uid]!r} "
                        f"and {name!r}")
                owners[uid] = name
        for name in sorted(self.shards):
            shard = self.shards[name]
            for uid in shard.retired:
                if uid in owners:
                    raise RecoveryError(
                        f"retired uid {uid!r} has a live account "
                        f"on {owners[uid]!r}")
        links = 0
        for name in sorted(self.shards):
            shard = self.shards[name]
            for ikey, uid in shard.idmap.items():
                owner = owners.get(uid)
                if owner is None:
                    raise RecoveryError(
                        f"identity {ikey!r} maps to missing account {uid!r}")
                if tuple(ikey.split("\n", 1)) not in _links(
                        self.shards[owner].accounts[uid]):
                    raise RecoveryError(
                        f"account {uid!r} does not list identity {ikey!r}")
                links += 1
        self._verify_placement()
        return {
            "accounts": len(owners),
            "links": links,
            "retired": self.retired_count(),
            "shards": len(self.shards),
        }
