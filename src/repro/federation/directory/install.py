"""Wire the federation directory tier around a deployment's stores.

Every deployment already runs the sharded account registry and metadata
aggregate (``build_isambard`` builds them bare, sized by
:class:`DirectoryConfig` when one is given); :func:`install` runs last
of all tiers and adds what the tier brings: telemetry and audit on the
stores, the feed ingestor, chaos hooks, per-shard journals when the
durability tier is on and canonical principals when continuous
authorization is.  See ``docs/architecture.md``, "Federation directory".
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.federation.directory import FederationDirectory
from repro.federation.directory.ingest import MetadataIngestor

__all__ = ["install"]


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
        store.telemetry, store.audit = dri.telemetry, dri.logs["external"]
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
