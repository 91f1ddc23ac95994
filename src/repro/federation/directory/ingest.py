"""Batched metadata ingest: signed delta feeds from federation registrars.

National federations do not push entries into consumers one at a time —
each federation operates a *registrar* that publishes a signed metadata
feed, and consumers (here the Isambard directory tier) poll it, verify
the registrar signature, and apply the delta as one batch.  Three
classes model that supply chain:

* :class:`MetadataFeed` — a registrar endpoint: holds its federation's
  roster, stages changes (new IdPs, key rotations, departures), and
  publishes signed :class:`FeedDelta` documents with monotonically
  increasing sequence numbers.  A full :meth:`MetadataFeed.republish`
  re-signs the whole roster with a fresh validity window — the periodic
  refresh that keeps consumers' entries from expiring.
* :class:`FeedDelta` — one signed publication.  The signature covers a
  canonical-JSON digest of the wire payload; verifier key objects ride
  *out of band*, referenced by ``kid``, exactly as JWKS references keys
  — tampering with any row (say, swapping a verifier kid) breaks the
  signature and the whole delta is rejected.
* :class:`MetadataIngestor` — the consumer side: polls every registered
  feed, verifies signatures against the pinned registrar key, applies
  upserts/removals to the :class:`ShardedMetadataStore` in one
  per-shard-batched write, and tracks per-feed lag.  A feed outage is
  *absorbed*, not propagated: entries stay served until their validity
  window lapses, at which point logins through them fail closed
  (:class:`~repro.errors.MetadataStale`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.audit import Outcome
from repro.crypto.keys import generate_signing_key
from repro.errors import (
    ConfigurationError,
    FederationError,
    ServiceUnavailable,
    SignatureInvalid,
)
from repro.federation.assurance import EntityCategory
from repro.resilience.durability import _compact

__all__ = ["FeedDelta", "MetadataFeed", "MetadataIngestor", "FEED_VALIDITY"]

FEED_VALIDITY = 14 * 86400.0  # two-week validity window per publication


def _canonical_digest(payload: object) -> bytes:
    """sha256 over canonical JSON — the byte string registrars sign."""
    return hashlib.sha256(_compact(payload).encode("utf-8")).digest()


@dataclass(frozen=True)
class FeedDelta:
    """One signed feed publication (sequence-numbered)."""

    feed: str
    seq: int
    issued_at: float
    valid_for: float
    upserts: Tuple[Dict[str, object], ...]  # wire rows (verifier_kid refs)
    removals: Tuple[str, ...]  # entity ids that left the federation
    signature: bytes
    # out-of-band key material, kid -> verifier object (never signed,
    # never journaled; the signed rows only *name* kids)
    verifiers: Dict[str, object] = field(default_factory=dict)

    def signed_payload(self) -> Dict[str, object]:
        return {
            "feed": self.feed,
            "seq": self.seq,
            "issued_at": self.issued_at,
            "valid_for": self.valid_for,
            "upserts": list(self.upserts),
            "removals": list(self.removals),
        }


class MetadataFeed:
    """A federation registrar publishing signed deltas.

    ``add``/``rotate``/``remove`` stage changes; :meth:`flush` signs and
    publishes them as the next delta.  :meth:`republish` emits the whole
    roster (validity refresh).  ``down`` simulates a registrar outage:
    :meth:`fetch_since` raises until it is cleared.
    """

    def __init__(self, name: str, clock, *,
                 valid_for: float = FEED_VALIDITY,
                 signing_key=None) -> None:
        self.name = name
        self.clock = clock
        self.valid_for = valid_for
        self.key = (signing_key if signing_key is not None
                    else generate_signing_key("EdDSA", kid=f"feed-{name}-registrar"))
        self.down = False
        self.seq = 0
        # entity_id -> wire row (version, verifier_kid, ...)
        self.roster: Dict[str, Dict[str, object]] = {}
        self._verifiers: Dict[str, object] = {}  # kid -> verifier object
        self._staged_upserts: Dict[str, Dict[str, object]] = {}
        self._staged_removals: List[str] = []
        self._published: List[FeedDelta] = []

    def verifying_key(self):
        """The registrar public key consumers pin at registration time."""
        return self.key.public()

    # ------------------------------------------------------------- staging
    @staticmethod
    def _kid_of(verifier: object) -> str:
        return getattr(verifier, "kid", str(verifier))

    def add(self, *, entity_id: str, endpoint_name: str, display_name: str,
            federation: Optional[str] = None, loa, categories,
            verifier: object, version: int = 1) -> None:
        """Stage an IdP entry (new member, or a rotation/update when the
        version exceeds what was previously published)."""
        kid = self._kid_of(verifier)
        row = {
            "entity_id": entity_id,
            "endpoint_name": endpoint_name,
            "display_name": display_name,
            "federation": federation or self.name,
            "loa": int(loa),
            "categories": [c.value if isinstance(c, EntityCategory) else str(c)
                           for c in categories],
            "version": int(version),
            "verifier_kid": kid,
        }
        self._verifiers[kid] = verifier
        self.roster[entity_id] = row
        self._staged_upserts[entity_id] = row

    def rotate(self, entity_id: str, verifier: object) -> None:
        """Stage a key rotation: version bump + new verifier kid."""
        row = self.roster.get(entity_id)
        if row is None:
            raise ConfigurationError(
                f"feed {self.name!r} has no entity {entity_id!r}")
        kid = self._kid_of(verifier)
        new = dict(row)
        new["version"] = row["version"] + 1
        new["verifier_kid"] = kid
        self._verifiers[kid] = verifier
        self.roster[entity_id] = new
        self._staged_upserts[entity_id] = new

    def remove(self, entity_id: str) -> None:
        """Stage a departure (IdP left the federation)."""
        if self.roster.pop(entity_id, None) is None:
            raise ConfigurationError(
                f"feed {self.name!r} has no entity {entity_id!r}")
        self._staged_upserts.pop(entity_id, None)
        self._staged_removals.append(entity_id)

    # ---------------------------------------------------------- publishing
    def _publish(self, upserts: List[Dict[str, object]],
                 removals: List[str]) -> FeedDelta:
        self.seq += 1
        payload = {
            "feed": self.name,
            "seq": self.seq,
            "issued_at": self.clock.now(),
            "valid_for": self.valid_for,
            "upserts": upserts,
            "removals": removals,
        }
        signature = self.key.sign(_canonical_digest(payload))
        delta = FeedDelta(
            feed=self.name, seq=self.seq, issued_at=payload["issued_at"],
            valid_for=self.valid_for, upserts=tuple(upserts),
            removals=tuple(removals), signature=signature,
            verifiers={row["verifier_kid"]: self._verifiers[row["verifier_kid"]]
                       for row in upserts},
        )
        self._published.append(delta)
        return delta

    def flush(self) -> Optional[FeedDelta]:
        """Publish staged changes as one delta (``None`` if nothing staged)."""
        if not self._staged_upserts and not self._staged_removals:
            return None
        upserts = [self._staged_upserts[e] for e in sorted(self._staged_upserts)]
        removals = sorted(self._staged_removals)
        self._staged_upserts = {}
        self._staged_removals = []
        return self._publish(upserts, removals)

    def republish(self) -> FeedDelta:
        """Sign and publish the *entire* roster with a fresh validity
        window — the periodic refresh cycle.  Staged changes ride along."""
        self._staged_upserts = {}
        removals = sorted(self._staged_removals)
        self._staged_removals = []
        upserts = [self.roster[e] for e in sorted(self.roster)]
        return self._publish(upserts, removals)

    def fetch_since(self, seq: int) -> List[FeedDelta]:
        """Consumer poll: deltas newer than ``seq`` (outage-aware)."""
        if self.down:
            raise ServiceUnavailable(f"metadata feed {self.name!r} unreachable")
        return [d for d in self._published if d.seq > seq]


class MetadataIngestor:
    """Polls registered feeds and applies verified deltas to the store."""

    def __init__(self, clock, store, *, audit, telemetry) -> None:
        self.clock = clock
        self.store = store
        self.audit = audit
        self.telemetry = telemetry
        self.feeds: Dict[str, MetadataFeed] = {}
        self._pinned: Dict[str, object] = {}  # feed -> registrar verifier
        self._last_seq: Dict[str, int] = {}
        self._applied_at: Dict[str, float] = {}
        self.applied_deltas = 0
        self.applied_entries = 0
        self.rejected_deltas = 0
        self.failed_polls = 0

    def register_feed(self, feed: MetadataFeed) -> None:
        """Pin the registrar's verifying key (trust-on-first-registration,
        as consumers pin federation signing certs out of band)."""
        if feed.name in self.feeds:
            raise ConfigurationError(f"feed {feed.name!r} already registered")
        self.feeds[feed.name] = feed
        self._pinned[feed.name] = feed.verifying_key()
        self._last_seq[feed.name] = 0
        self._applied_at[feed.name] = self.clock.now()

    # -------------------------------------------------------------- polling
    def _count(self, feed: str, result: str, entries: int = 0) -> None:
        self.telemetry.metadata_ingest_batches.inc(feed=feed, result=result)
        if entries:
            self.telemetry.metadata_ingest_entries.inc(entries, feed=feed)

    def _apply(self, delta: FeedDelta) -> int:
        try:
            self._pinned[delta.feed].verify(
                _canonical_digest(delta.signed_payload()), delta.signature)
        except SignatureInvalid:
            self.rejected_deltas += 1
            self._count(delta.feed, "rejected")
            self.audit.record(
                self.clock.now(), "directory", delta.feed,
                "metadata.delta_rejected", f"seq={delta.seq}",
                Outcome.DENIED, reason="bad-signature")
            raise FederationError(
                f"delta seq={delta.seq} from feed {delta.feed!r} failed "
                "signature verification")
        valid_until = delta.issued_at + delta.valid_for
        records = []
        for row in delta.upserts:
            rec = {k: v for k, v in row.items() if k != "verifier_kid"}
            rec["verifier"] = delta.verifiers.get(row["verifier_kid"])
            rec["valid_until"] = valid_until
            records.append(rec)
        written = self.store.upsert_batch(records)
        for entity_id in delta.removals:
            self.store.remove(entity_id)
        self._last_seq[delta.feed] = delta.seq
        self._applied_at[delta.feed] = self.clock.now()
        self.applied_deltas += 1
        self.applied_entries += written + len(delta.removals)
        self._count(delta.feed, "applied", written + len(delta.removals))
        return written

    def poll(self) -> Dict[str, int]:
        """Poll every feed once; returns entries applied per feed.

        A downed feed is recorded and skipped (entries age toward their
        validity horizon); a bad signature stops *that feed's* delta
        stream without advancing its sequence — later deltas are not
        applied over an unverified gap.
        """
        applied: Dict[str, int] = {}
        for name in sorted(self.feeds):
            feed = self.feeds[name]
            try:
                deltas = feed.fetch_since(self._last_seq[name])
            except ServiceUnavailable:
                self.failed_polls += 1
                self._count(name, "unavailable")
                self._gauge_age(name)
                continue
            total = 0
            for delta in deltas:
                try:
                    total += self._apply(delta)
                except FederationError:
                    break  # do not apply past an unverifiable delta
            applied[name] = total
            self._gauge_age(name)
        return applied

    # ------------------------------------------------------------- health
    def _gauge_age(self, name: str) -> None:
        self.telemetry.metadata_feed_age.set(self.feed_age(name), feed=name)

    def feed_age(self, name: str) -> float:
        """Seconds since this feed's content was last applied."""
        if name not in self._applied_at:
            raise ConfigurationError(f"no feed {name!r} registered")
        return self.clock.now() - self._applied_at[name]

    def set_feed_down(self, name: str, down: bool) -> None:
        """Chaos hook target: force/clear a registrar outage."""
        feed = self.feeds.get(name)
        if feed is None:
            raise ConfigurationError(f"no feed {name!r} registered")
        feed.down = down

    def stats(self) -> Dict[str, object]:
        return {
            "feeds": len(self.feeds),
            "applied_deltas": self.applied_deltas,
            "applied_entries": self.applied_entries,
            "rejected_deltas": self.rejected_deltas,
            "failed_polls": self.failed_polls,
            "last_seq": dict(sorted(self._last_seq.items())),
        }
