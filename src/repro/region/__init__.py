"""Multi-region active-active deployment tier (PR 6).

ROADMAP open item 5: compose the scale-out pool (PR 5) with the
failover machinery (PR 3) into N geographic regions.  Each region runs
its own replica pool, journal, cache and invalidation-bus shard; a
:class:`GeoRouter` fronts them on the public ``broker`` endpoint; the
:class:`ReplicatedInvalidationBus` carries revocations across regions
asynchronously with an **advertised staleness bound** — the global
weakening of ABL9's local guarantee that a cached ALLOW never outlives
a revocation.  See ``docs/scaling.md`` for the topology and the
contract; ``build_isambard(regions=True)`` wires it.
"""

from __future__ import annotations

from .bus import RegionBusAdapter, ReplicatedInvalidationBus
from .directory import RegionDirectory
from .region import ACTIVE, DOWN, STALE, Region, RegionRevocationView, RegionWorker
from .router import GeoRouter

__all__ = [
    "REGION_NAMES",
    "REPLICATION_DELAY",
    "STALENESS_BOUND",
    "HEARTBEAT_INTERVAL",
    "Region",
    "RegionWorker",
    "RegionRevocationView",
    "RegionDirectory",
    "GeoRouter",
    "ReplicatedInvalidationBus",
    "RegionBusAdapter",
    "ACTIVE",
    "STALE",
    "DOWN",
]

# The tier's regions.  The first is home: the origin state backend and
# the region-agnostic publishers (kill switch, portal hooks) live there.
REGION_NAMES = ("eu", "us")
# simulated seconds for a bus event to reach a peer region
REPLICATION_DELAY = 0.5
HEARTBEAT_INTERVAL = 1.0
# The advertised revocation-staleness contract (seconds): no region
# serves a revoked token from cache longer after the revocation instant,
# partition or not (region cache TTLs are clamped to it).  It sits well
# above the steady-state replication lag, REPLICATION_DELAY +
# HEARTBEAT_INTERVAL, or the lag watchdog would fail healthy regions
# closed.
STALENESS_BOUND = 5.0
