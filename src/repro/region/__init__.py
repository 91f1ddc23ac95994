"""Multi-region active-active deployment tier (PR 6).

ROADMAP open item 5: compose the scale-out pool (PR 5) with the
failover machinery (PR 3) into N geographic regions.  Each region runs
its own replica pool, journal, cache and invalidation-bus shard; a
:class:`GeoRouter` fronts them on the public ``broker`` endpoint; the
:class:`ReplicatedInvalidationBus` carries revocations across regions
asynchronously with an **advertised staleness bound** — the global
weakening of ABL9's local guarantee that a cached ALLOW never outlives
a revocation.  See ``docs/scaling.md`` for the topology and the
contract; ``build_isambard(regions=RegionConfig(...))`` wires it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..errors import ConfigurationError
from .bus import RegionBusAdapter, ReplicatedInvalidationBus
from .directory import RegionDirectory
from .region import ACTIVE, DOWN, STALE, Region, RegionRevocationView, RegionWorker
from .router import GeoRouter

__all__ = [
    "RegionConfig",
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


@dataclass
class RegionConfig:
    """Sizing and contract knobs for the multi-region tier.

    ``staleness_bound`` is the deployment's *advertised* revocation
    staleness: no region ever serves a revoked token from cache more
    than this many seconds after the revocation instant, partition or
    not (region cache TTLs are clamped to it).  It must sit comfortably
    above the steady-state replication lag
    (``replication_delay + heartbeat_interval``) or the lag watchdog
    would fail regions closed while the bus is healthy.
    """

    names: Tuple[str, ...] = ("eu", "us")
    # simulated seconds for a bus event to reach a peer region
    replication_delay: float = 0.5
    # the advertised revocation-staleness contract (seconds)
    staleness_bound: float = 5.0
    heartbeat_interval: float = 1.0
    # endpoint name -> region pin for the geo-router (unpinned callers
    # are assigned a stable hash of their endpoint name)
    client_regions: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.names) < 2:
            raise ConfigurationError(
                f"a multi-region deployment needs >= 2 regions, got {self.names!r}")
        if len(set(self.names)) != len(self.names):
            raise ConfigurationError(f"duplicate region names: {self.names!r}")
        steady = self.replication_delay + self.heartbeat_interval
        if self.staleness_bound <= steady:
            raise ConfigurationError(
                f"staleness_bound ({self.staleness_bound}s) must exceed the "
                f"steady-state replication lag (~{steady}s = replication_delay"
                f" + heartbeat_interval), or healthy regions would fail closed")
        for source, region in self.client_regions.items():
            if region not in self.names:
                raise ConfigurationError(
                    f"client {source!r} pinned to unknown region {region!r}")

    @property
    def home(self) -> str:
        """The first region: where the origin state backend and the
        region-agnostic publishers (kill switch, portal hooks) live."""
        return self.names[0]
