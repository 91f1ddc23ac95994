"""Horizontal scale-out subsystem: replica pools, load balancing and
revocation-safe distributed caching.

See ``docs/scaling.md`` for the design; the short version:

* :mod:`repro.scale.balancer` — run a stateless control-plane service
  as N :class:`ReplicaWorker` endpoints behind a :class:`LoadBalancer`
  (round-robin, least-outstanding, or bounded-load consistent hashing
  for session/tunnel affinity).
* :mod:`repro.scale.cache` — TTL + negative caching with single-flight
  coalescing, and the :class:`InvalidationBus` that carries token
  revocations and JWKS rotations to every replica before TTLs expire.
* :mod:`repro.scale.autoscaler` — grows/shrinks pools from the
  telemetry layer's RED metrics and SLO burn-rate pages.
"""

from dataclasses import dataclass

from .autoscaler import Autoscaler, ScaleDecision
from .balancer import (
    ConsistentHashPolicy,
    LeastOutstandingPolicy,
    LoadBalancer,
    ReplicaPool,
    ReplicaWorker,
    RoundRobinPolicy,
)
from .cache import CacheStats, InvalidationBus, LoadInFlight, TtlCache
from .hashring import BoundedLoadRing

__all__ = [
    "ScaleConfig",
    "Autoscaler",
    "ScaleDecision",
    "ConsistentHashPolicy",
    "LeastOutstandingPolicy",
    "LoadBalancer",
    "ReplicaPool",
    "ReplicaWorker",
    "RoundRobinPolicy",
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
    selects these defaults.  TTLs are deliberately generous because the
    invalidation bus — not expiry — is what bounds staleness for
    revocations and key rotations.
    """

    broker_replicas: int = 2
    policy: str = "least-outstanding"  # round-robin | consistent-hash
    caching: bool = True               # off = pool/LB only (ablation arm)
    negative_ttl: float = 10.0         # cached denials (revoked/forged)
    introspection_ttl: float = 30.0    # remote introspection verdicts
    cert_ttl: float = 300.0            # parsed+verified SSH certificates
    autoscale: bool = False
    min_replicas: int = 1
    max_replicas: int = 8
    autoscale_interval: float = 5.0
