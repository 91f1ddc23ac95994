"""Horizontal scale-out subsystem: replica pools, load balancing and
revocation-safe distributed caching.

See ``docs/scaling.md`` for the design; the short version:

* :mod:`repro.scale.balancer` — run a stateless control-plane service
  as N :class:`ReplicaWorker` endpoints behind a :class:`LoadBalancer`
  that sends each request to the worker with the fewest in flight.
* :mod:`repro.scale.cache` — TTL + negative caching with single-flight
  coalescing, and the :class:`InvalidationBus` that carries token
  revocations and JWKS rotations to every replica before TTLs expire.
* :mod:`repro.scale.autoscaler` — grows/shrinks pools from the
  telemetry layer's RED metrics and SLO burn-rate pages.
"""

from dataclasses import dataclass

from .autoscaler import Autoscaler, ScaleDecision
from .balancer import LoadBalancer, ReplicaPool, ReplicaWorker
from .cache import CacheStats, InvalidationBus, LoadInFlight, TtlCache
from .hashring import BoundedLoadRing

__all__ = [
    "ScaleConfig",
    "Autoscaler",
    "ScaleDecision",
    "LoadBalancer",
    "ReplicaPool",
    "ReplicaWorker",
    "CacheStats",
    "InvalidationBus",
    "LoadInFlight",
    "TtlCache",
    "BoundedLoadRing",
]


@dataclass
class ScaleConfig:
    """Deployment knobs for the scale-out subsystem.

    Passed as ``build_isambard(scale=ScaleConfig(...))``; ``scale=True``
    selects these defaults.  The balancer runs least-outstanding, pools
    never shrink below one replica, and the cache TTLs are constants of
    :mod:`repro.scale.install`.
    """

    broker_replicas: int = 2
    caching: bool = True               # off = pool/LB only (ablation arm)
    autoscale: bool = False
    max_replicas: int = 8
    autoscale_interval: float = 5.0
