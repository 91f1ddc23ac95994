"""The eduGAIN metadata aggregate: sharded, with validity windows.

This is the aggregate every deployment's MyAccessID proxy consumes
(``register_idp`` / ``refresh_idp`` / ``get`` / ``has`` / ``idps`` /
``__len__``) — one shard unless
``build_isambard(directory=...)`` sizes it up.  Metadata is not static:
institutions rotate signing keys, rename their IdPs and move between
federations, and at national-federation scale it is a *feed* product:
entries are published with validity windows, refreshed on a cadence,
and a consumer cut off from its feed must eventually stop trusting what
it cached.  Hence:

* ring-sharded, journal-durable entry storage
  (:class:`MetadataShard` on the shared :class:`ShardedTier` machinery);
* **validity windows**: :meth:`get` on an entry past ``valid_until``
  raises :class:`~repro.errors.MetadataStale` — the login path fails
  closed on stale metadata rather than validating assertions against
  possibly rotated keys (directly registered IdPs default to no expiry,
  feed-ingested entries always carry one);
* **batched upserts** (:meth:`upsert_batch`): one journal entry per
  touched shard per delta, the write shape of the ingest pipeline;
* a store-level **verifier vault** keyed by ``(entity_id, version)`` —
  key objects never enter a journal (the same KMS discipline as every
  other durable service), and version-skewed replays cannot resurrect a
  rotated-away key.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, Iterator, List, Optional, Tuple

from repro.audit import Outcome
from repro.errors import (
    ConfigurationError,
    FederationError,
    MetadataStale,
    RecoveryError,
    ShardUnavailable,
)
from repro.federation.assurance import EntityCategory, LevelOfAssurance
from repro.federation.edugain import IdPMetadata
from repro.federation.directory.sharding import DirectoryShard, ShardedTier

__all__ = ["MetadataShard", "ShardedMetadataStore"]


class MetadataShard(DirectoryShard):
    """One partition of the metadata aggregate: entity id -> row."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.rows: Dict[str, Dict[str, object]] = {}

    # ----------------------------------------------------- Durable contract
    def durable_state(self) -> Dict[str, object]:
        return {"rows": {e: self.rows[e] for e in sorted(self.rows)}}

    def load_state(self, state: Dict[str, object]) -> None:
        self.rows = {e: dict(r) for e, r in state.get("rows", {}).items()}

    def wipe_state(self) -> None:
        self.rows = {}

    def apply_entry(self, kind: str, data: Dict[str, object]) -> None:
        if kind == "md.put":
            row = dict(data["row"])
            self.rows[row["entity_id"]] = row
        elif kind in ("md.put_batch", "migrate.in"):
            for row in data["rows"]:
                self.rows[row["entity_id"]] = dict(row)
        elif kind == "md.del":
            self.rows.pop(data["entity_id"], None)
        elif kind == "migrate.out":
            for entity_id in data["entity_ids"]:
                self.rows.pop(entity_id, None)
        else:
            raise ConfigurationError(
                f"metadata shard {self.name!r}: unknown journal kind {kind!r}")

    # ------------------------------------------------------------ migration
    def ring_keys(self) -> Iterator[str]:
        for entity_id in self.rows:
            yield "md:" + entity_id

    def extract(self, ring_keys: List[str]) -> Dict[str, object]:
        rows = [self.rows[rk[3:]] for rk in ring_keys if rk[3:] in self.rows]
        self.commit("migrate.out",
                    {"entity_ids": [row["entity_id"] for row in rows]})
        return {"rows": rows}


class ShardedMetadataStore(ShardedTier):
    """The metadata aggregate, keyed by entity id: sharded +
    validity-enforcing."""

    tier = "metadata"

    def __init__(self, clock, *, shards: int = 4) -> None:
        super().__init__(clock, [f"md-{i:02d}" for i in range(shards)])
        # KMS-modelled verifier vault: key objects live here by
        # reference, never in a journal; versioning means a replayed
        # stale row can never resolve a newer entry's key (or vice versa)
        self._verifiers: Dict[Tuple[str, int], object] = {}
        # incremental sorted index: discovery calls idps() on every
        # login, so it must not re-sort the world each time
        self._index: List[str] = []
        self.stale_denials = 0
        self.upserts = 0

    def _new_shard(self, name: str) -> MetadataShard:
        return MetadataShard(name)

    # -------------------------------------------------------------- upserts
    def _shard_for(self, entity_id: str, *, record: bool = True) -> MetadataShard:
        return self._locate("md:" + entity_id, record=record)

    def upsert_record(self, *, entity_id: str, endpoint_name: str,
                      display_name: str, federation: str,
                      loa, categories, verifier: object,
                      version: int = 1,
                      valid_until: Optional[float] = None,
                      registered_at: Optional[float] = None,
                      _shard: Optional[MetadataShard] = None,
                      _commit: bool = True) -> Optional[Dict[str, object]]:
        """Version-aware upsert of one entry.

        Older versions are ignored (idempotent delta replay); the *same*
        version refreshes the validity window only (a republish); a
        newer version replaces the row and vaults its verifier (a
        rotation).  Returns the row written, or ``None`` if skipped.
        """
        shard = self._shard_for(entity_id, record=False) if _shard is None else _shard
        existing = shard.rows.get(entity_id)
        if existing is not None:
            if version < existing["version"]:
                return None
            if version == existing["version"]:
                row = dict(existing)
                row["valid_until"] = valid_until
                if _commit:
                    shard.commit("md.put", {"row": row})
                return row
        else:
            insort(self._index, entity_id)
        row = {
            "entity_id": entity_id,
            "endpoint_name": endpoint_name,
            "display_name": display_name,
            "federation": federation,
            "loa": int(loa),
            "categories": [c.value if isinstance(c, EntityCategory) else str(c)
                           for c in categories],
            "version": int(version),
            "registered_at": (self.clock.now() if registered_at is None
                              else registered_at),
            "valid_until": valid_until,
        }
        self._verifiers[(entity_id, int(version))] = verifier
        self.upserts += 1
        if _commit:
            shard.commit("md.put", {"row": row})
        return row

    def upsert_batch(self, records: List[Dict[str, object]]) -> int:
        """Apply one delta's upserts: group rows per shard and commit a
        single ``md.put_batch`` journal entry per touched shard.

        Each record carries the :meth:`upsert_record` fields (with a
        live ``verifier`` object).  Returns how many rows were written.
        """
        staged: Dict[str, List[Dict[str, object]]] = {}
        for rec in records:
            shard = self._shard_for(rec["entity_id"], record=False)
            row = self.upsert_record(_shard=shard, _commit=False, **rec)
            if row is not None:
                staged.setdefault(shard.name, []).append(row)
        written = 0
        for name in sorted(staged):
            self.shards[name].commit("md.put_batch", {"rows": staged[name]})
            written += len(staged[name])
        return written

    # ------------------------------------------------------------ registry
    def register_idp(self, idp, *, federation: str,
                     display_name: Optional[str] = None,
                     valid_for: Optional[float] = None) -> IdPMetadata:
        """First publication of a directly registered IdP.

        Without ``valid_for`` the entry never expires — the bilateral
        trust anchors the deployment builder registers are not feed
        products and must not go stale when no feed refreshes them.
        """
        if self.has(idp.entity_id):
            raise ConfigurationError(
                f"entity {idp.entity_id!r} already registered "
                "(use refresh_idp to re-register)")
        now = self.clock.now()
        row = self.upsert_record(
            entity_id=idp.entity_id, endpoint_name=idp.name,
            display_name=display_name or idp.name, federation=federation,
            loa=idp.loa, categories=idp.categories, verifier=idp.verifier(),
            version=1, registered_at=now,
            valid_until=None if valid_for is None else now + valid_for,
        )
        return self._materialize(row)

    def refresh_idp(self, idp, *, federation: Optional[str] = None,
                    display_name: Optional[str] = None,
                    valid_for: Optional[float] = None) -> IdPMetadata:
        """Re-registration: version bump + fresh verifier read."""
        shard = self._shard_for(idp.entity_id, record=False)
        old = shard.rows.get(idp.entity_id)
        if old is None:
            raise FederationError(
                f"entity {idp.entity_id!r} not in eduGAIN metadata "
                "(register_idp it first)")
        now = self.clock.now()
        row = self.upsert_record(
            entity_id=idp.entity_id, endpoint_name=idp.name,
            display_name=display_name or old["display_name"],
            federation=federation or old["federation"],
            loa=idp.loa, categories=idp.categories, verifier=idp.verifier(),
            version=old["version"] + 1, registered_at=old["registered_at"],
            valid_until=None if valid_for is None else now + valid_for,
        )
        return self._materialize(row)

    def remove(self, entity_id: str) -> bool:
        """Drop an entry (IdP left the federation)."""
        shard = self._shard_for(entity_id, record=False)
        row = shard.rows.get(entity_id)
        if row is None:
            return False
        shard.commit("md.del", {"entity_id": entity_id})
        self._index.remove(entity_id)
        return True

    def _materialize(self, row: Dict[str, object]) -> IdPMetadata:
        return IdPMetadata(
            entity_id=row["entity_id"],
            endpoint_name=row["endpoint_name"],
            display_name=row["display_name"],
            federation=row["federation"],
            loa=LevelOfAssurance(row["loa"]),
            categories=tuple(EntityCategory(c) for c in row["categories"]),
            verifier=self._verifiers.get((row["entity_id"], row["version"])),
            version=row["version"],
            registered_at=row["registered_at"],
            valid_until=row["valid_until"],
        )

    def get(self, entity_id: str) -> IdPMetadata:
        """Login-path read: unknown entities and *expired* entries both
        refuse — stale metadata fails the login closed."""
        shard = self._shard_for(entity_id)
        row = shard.rows.get(entity_id)
        if row is None:
            raise FederationError(
                f"entity {entity_id!r} not in eduGAIN metadata")
        valid_until = row["valid_until"]
        if valid_until is not None and self.clock.now() > valid_until:
            self.stale_denials += 1
            if self.telemetry is not None:
                self.telemetry.metadata_stale_denials.inc(
                    federation=row["federation"])
            if self.audit is not None:
                self.audit.record(
                    self.clock.now(), "directory", entity_id,
                    "metadata.stale", row["federation"], Outcome.DENIED,
                    valid_until=valid_until, version=row["version"],
                )
            raise MetadataStale(
                f"metadata for {entity_id!r} expired at t={valid_until} "
                f"(now t={self.clock.now()}); login fails closed")
        return self._materialize(row)

    def peek(self, entity_id: str) -> Optional[IdPMetadata]:
        """Operator read: no staleness enforcement (``None`` if absent)."""
        shard = self._shard_for(entity_id, record=False)
        row = shard.rows.get(entity_id)
        return self._materialize(row) if row is not None else None

    def has(self, entity_id: str) -> bool:
        shard = self._shard_for(entity_id, record=False)
        return entity_id in shard.rows

    def idps(self, *, include_stale: bool = False) -> List[IdPMetadata]:
        """Discovery listing, sorted by entity id.

        Expired entries are omitted unless ``include_stale`` — stale
        IdPs must not be *offered* either.  Entries on a downed shard
        are skipped (discovery degrades; the login path still fails
        closed via :meth:`get`).
        """
        now = self.clock.now()
        out: List[IdPMetadata] = []
        for entity_id in self._index:
            try:
                shard = self._shard_for(entity_id, record=False)
            except ShardUnavailable:
                continue
            row = shard.rows.get(entity_id)
            if row is None:
                continue
            valid_until = row["valid_until"]
            if (not include_stale and valid_until is not None
                    and now > valid_until):
                continue
            out.append(self._materialize(row))
        return out

    def __len__(self) -> int:
        return sum(len(s.rows) for s in self.shards.values())

    def expired_count(self) -> int:
        now = self.clock.now()
        return sum(
            1 for s in self.shards.values() for row in s.rows.values()
            if row["valid_until"] is not None and now > row["valid_until"])

    # ----------------------------------------------------------- invariants
    def verify_invariants(self) -> Dict[str, int]:
        """No entity on two shards; every key on its ring owner (or
        pending at its migration source); index == union of shard rows."""
        owners: Dict[str, str] = {}
        for name in sorted(self.shards):
            for entity_id in self.shards[name].rows:
                if entity_id in owners:
                    raise RecoveryError(
                        f"entity {entity_id!r} on both {owners[entity_id]!r} "
                        f"and {name!r}")
                owners[entity_id] = name
        self._verify_placement()
        if sorted(owners) != self._index:
            raise RecoveryError("metadata index out of sync with shard rows")
        return {"entities": len(owners), "shards": len(self.shards)}
