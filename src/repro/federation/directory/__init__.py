"""Federation directory: the sharded identity + metadata stores.

The MyAccessID account registry and the eduGAIN metadata aggregate of
every deployment live here — one shard each for a 45-user RSECon
tutorial; a national federation is 1M+ users across 10k IdPs, and that
working set has to be *partitioned*, *durable per partition*, and
*refreshable in bulk*.  This package provides:

* :mod:`~repro.federation.directory.ring` — the sha256 consistent-hash
  ring both stores place their keys on;
* :mod:`~repro.federation.directory.sharding` — the generic
  consistent-hash shard tier (:class:`ShardedTier`), its journal-durable
  shard base, deterministic key migration when a shard joins, and the
  :class:`ShardedAccountRegistry`;
* :mod:`~repro.federation.directory.metadata` — the
  :class:`ShardedMetadataStore` with validity windows: stale metadata
  fails logins closed;
* :mod:`~repro.federation.directory.ingest` — signed delta feeds from
  federation registrars and the batched :class:`MetadataIngestor`.

``build_isambard(directory=True)`` sizes the two stores from
:class:`DirectoryConfig`, attaches feeds, journals, chaos hooks and
crash targets to them, and exposes the lot as the
:class:`FederationDirectory` runtime handle.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.federation.directory.ingest import (
    FEED_VALIDITY,
    FeedDelta,
    MetadataFeed,
    MetadataIngestor,
)
from repro.federation.directory.metadata import MetadataShard, ShardedMetadataStore
from repro.federation.directory.sharding import (
    PROBE_COST,
    AccountShard,
    DirectoryConfig,
    DirectoryShard,
    Migration,
    ShardedAccountRegistry,
    ShardedTier,
)

__all__ = [
    "PROBE_COST",
    "FEED_VALIDITY",
    "DirectoryConfig",
    "DirectoryShard",
    "AccountShard",
    "MetadataShard",
    "Migration",
    "ShardedTier",
    "ShardedAccountRegistry",
    "ShardedMetadataStore",
    "FeedDelta",
    "MetadataFeed",
    "MetadataIngestor",
    "FederationDirectory",
]


@dataclass
class FederationDirectory:
    """Runtime handle bundling the directory tier's moving parts."""

    config: DirectoryConfig
    accounts: ShardedAccountRegistry
    metadata: ShardedMetadataStore
    ingestor: MetadataIngestor

    def verify_invariants(self) -> dict:
        """Cross-shard invariant sweep over both tiers."""
        return {
            "accounts": self.accounts.verify_invariants(),
            "metadata": self.metadata.verify_invariants(),
        }
