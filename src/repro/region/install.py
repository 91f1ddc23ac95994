"""Wire the multi-region tier into a built deployment.

``build_isambard`` calls :func:`install` after the scale tier moved the
broker's state backend to ``broker-origin`` and the durability tier
created the journal store: each named region gets its own replica pool,
journal and invalidation-bus shard, and a latency-aware geo-router takes
the public ``broker`` name.  See ``docs/scaling.md``, "Multi-region
active-active".
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..net.zones import OperatingDomain, Zone
from ..scale.balancer import pod_admission
from ..scale.cache import publish_on
from ..siem.detections import CacheStalenessRule
from . import (HEARTBEAT_INTERVAL, REGION_NAMES, REPLICATION_DELAY,
               STALENESS_BOUND)
from .bus import RegionBusAdapter, ReplicatedInvalidationBus
from .directory import RegionDirectory
from .region import Region
from .router import GeoRouter

__all__ = ["install"]

REPLICAS_PER_REGION = 2


def install(dri) -> None:
    clock, tele, scale = dri.clock, dri.telemetry, dri.scale
    if scale.autoscale:
        raise ConfigurationError(
            "the region tier sizes each region's pool itself; "
            "ScaleConfig(autoscale=True) applies to the single-region pool")
    # One bus shard per region: local publishes stay synchronous
    # (preserving the in-region guarantee) and fan out to peers after
    # replication_delay.  The home shard is the bus the shared caches
    # are already bound to, so they keep their synchronous eviction for
    # home-region traffic; the adapter routes every publish to whichever
    # region is serving the revoking request (falling back to home).
    rbus = dri.region_bus = ReplicatedInvalidationBus(
        clock, REGION_NAMES, replication_delay=REPLICATION_DELAY,
        local_buses={REGION_NAMES[0]: dri.invalidation_bus}, telemetry=tele,
    )
    publish_on(RegionBusAdapter(rbus, REGION_NAMES[0]), dri)

    directory = dri.region_directory = RegionDirectory(
        clock, rbus,
        heartbeat_interval=HEARTBEAT_INTERVAL,
        audit=dri.logs["fds"], telemetry=tele,
        # recovering regions resync their revocation view from the
        # *active* broker's authoritative token store
        revoked_source=lambda: dri.broker.tokens.revoked_jtis(),
    )
    for name in REGION_NAMES:
        region = Region(
            name, clock, dri.network, OperatingDomain.FDS, Zone.ACCESS,
            dri.broker, rbus, dri.durability.stream(f"region-{name}"),
            audit=dri.logs["fds"], telemetry=tele,
            replicas=REPLICAS_PER_REGION,
            staleness_bound=STALENESS_BOUND,
            admission_factory=pod_admission(clock, dri.overload),
            tail=dri.tail,
        )
        directory.add(region)
        if dri.caches:      # listed beside the shared ones; none with caching off
            dri.caches[f"introspection-{name}"] = region.introspection_cache
    # No MDC-side introspection cache here: bound to the home shard, it
    # would only see another region's revocation after replication — or
    # never, across a partition.  Introspections round-trip to the
    # geo-router and the per-region caches (TTL clamped to the bound)
    # absorb the load.
    dri.geo_router = GeoRouter(
        "broker", clock, directory,
        audit=dri.logs["fds"], telemetry=tele, tail=dri.tail,
    )
    dri.network.attach(dri.geo_router, OperatingDomain.FDS, Zone.ACCESS,
                       name="broker")
    dri.edge.register_origin("broker", dri.geo_router)
    dri.front_broker(directory)
    directory.register_fault_hooks(dri.faults)
    directory.start()
    # cached serves inside the advertised window are the contract, not
    # an incident: the staleness detector tolerates them and the
    # RegionLagRule takes over past the bound
    for rule in dri.soc.rules:
        if isinstance(rule, CacheStalenessRule):
            rule.tolerance = STALENESS_BOUND
