"""Wire the federation directory into a built deployment.

``build_isambard`` calls :func:`sharded_stores` *before* MyAccessID and
the IdPs exist (they are constructed around the stores) and
:func:`install` last of all tiers, so it can journal its shards when the
durability tier is on and mint canonical principals when continuous
authorization is.  See ``docs/architecture.md``, "Federation directory".
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import ConfigurationError
from repro.federation.directory import FederationDirectory
from repro.federation.directory.ingest import MetadataIngestor
from repro.federation.directory.metadata import ShardedMetadataStore
from repro.federation.directory.sharding import ShardedAccountRegistry

__all__ = ["sharded_stores", "install"]


def sharded_stores(cfg, clock, ids, *, telemetry,
                   audit) -> Tuple[ShardedMetadataStore,
                                   ShardedAccountRegistry]:
    """The EduGain-shaped metadata store and the AccountRegistry-shaped
    account registry.  Bilateral trust anchors the builder registers in
    the store get no validity window; feed-ingested entries always do."""
    sizing = dict(vnodes=cfg.vnodes, probe_cost=cfg.probe_cost,
                  migration_batch=cfg.migration_batch,
                  telemetry=telemetry, audit=audit)
    return (ShardedMetadataStore(clock, shards=cfg.metadata_shards, **sizing),
            ShardedAccountRegistry(clock, ids, shards=cfg.account_shards,
                                   **sizing))


def install(dri, cfg) -> None:
    """The runtime handle, the batched feed ingestor, the ``shard_down``
    / ``metadata_feed_stale`` chaos kinds and one crash target per shard
    (``dri.crash("dir-acct-03")``)."""
    accounts, metadata = dri.myaccessid.registry, dri.edugain
    ingestor = MetadataIngestor(
        dri.clock, metadata, audit=dri.logs["external"],
        telemetry=dri.telemetry)
    dri.directory = FederationDirectory(
        config=cfg, accounts=accounts, metadata=metadata, ingestor=ingestor)
    tiers = {"accounts": accounts, "metadata": metadata}

    def tier(name: str):
        if name not in tiers:
            raise ConfigurationError(f"no directory tier {name!r}")
        return tiers[name]

    dri.faults.register_shard_hooks(
        lambda name, shard: tier(name).shard_down(shard),
        lambda name, shard: tier(name).shard_up(shard),
    )
    dri.faults.register_feed_hooks(
        lambda feed: ingestor.set_feed_down(feed, True),
        lambda feed: ingestor.set_feed_down(feed, False),
    )
    if dri.authz is not None:
        # interactive registrations mint canonical SPIFFE principals;
        # bulk onboarding batches stay out of the graph by design
        accounts.graph = dri.authz.graph
    for store in (accounts, metadata):
        for name in sorted(store.shards):
            shard = store.shards[name]
            if dri.durability is not None:
                # each shard journals independently — a single shard
                # crash replays only its own partition
                shard.attach_journal(dri.durability.stream(f"dir-{name}"))
            dri.add_crash_target(
                f"dir-{name}", lambda shard=shard: shard,
                lambda up, shard=shard: setattr(shard, "up", up))
        if dri.durability is not None:
            # shards added later (rebalancing) get streams of their own
            store.journal_factory = (
                lambda n, _s=dri.durability: _s.stream(f"dir-{n}"))
