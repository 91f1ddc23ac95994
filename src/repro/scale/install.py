"""Wire the scale-out tier into a built deployment.

Three entry points, called by ``build_isambard`` in this order:
:func:`shared_caches` *before* the resource servers exist (their
validators are constructed around the shared decision cache),
:func:`install` once the Fig. 1 base is up, and — unless the region tier
fronts the broker with one pool per region instead —
:func:`install_pool`.  See ``docs/scaling.md`` for the design.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..errors import (
    ClaimMissing,
    IssuerMismatch,
    SignatureInvalid,
    TokenExpired,
)
from ..net.zones import OperatingDomain, Zone
from .autoscaler import Autoscaler
from .balancer import LoadBalancer, ReplicaPool, pod_admission
from .cache import InvalidationBus, TtlCache, publish_on

__all__ = ["shared_caches", "install", "install_pool"]

# Cache TTLs, deliberately generous: the invalidation bus — not expiry —
# bounds staleness for revocations and key rotations
DECISION_TTL = 60.0        # cached token-validation verdicts
NEGATIVE_TTL = 10.0        # cached denials (revoked/forged)
JWKS_TTL = 600.0           # shared JWKS documents
INTROSPECTION_TTL = 30.0   # remote introspection verdicts
CERT_TTL = 300.0           # parsed+verified SSH certificates


def shared_caches(cfg, clock, telemetry) -> Tuple[InvalidationBus,
                                                  Dict[str, TtlCache]]:
    """The invalidation bus and the caches every resource server shares.

    Publication is synchronous and in-order (inside the revoking call),
    so a cached ALLOW can never outlive a revocation or a key rotation.
    ``caching=False`` is the pool-only ablation arm: a bus, no caches.
    """
    bus = InvalidationBus()
    if not cfg.caching:
        return bus, {}
    decisions = TtlCache(
        "token-decisions", clock, ttl=DECISION_TTL,
        negative_ttl=NEGATIVE_TTL,
        # only monotone verdicts are negative-cached: a forged or
        # expired token stays forged/expired; a not-yet-valid one
        # does not, so TokenNotYetValid is deliberately absent
        negative_errors=(SignatureInvalid, IssuerMismatch,
                         ClaimMissing, TokenExpired),
        telemetry=telemetry,
    )
    decisions.bind(bus, "token.revoked", by_tag=True)
    jwks = TtlCache("jwks", clock, ttl=JWKS_TTL, telemetry=telemetry)
    jwks.bind(bus, "jwks.rotated", by_tag=False)
    introspection = TtlCache(
        "introspection", clock, ttl=INTROSPECTION_TTL, telemetry=telemetry)
    introspection.bind(bus, "token.revoked", by_tag=True)
    certs = TtlCache("ssh-certs", clock, ttl=CERT_TTL, telemetry=telemetry)
    return bus, {"token-decisions": decisions, "jwks": jwks,
                 "introspection": introspection, "ssh-certs": certs}


def install(dri, cfg) -> None:
    """Every token/key authority publishes on the bus, every relying
    party and sshd reads through the shared caches, and the broker's
    state backend steps back to ``broker-origin`` so a fleet can take
    over the public name (every URL-based caller is then load-balanced
    untouched)."""
    dri.scale = cfg
    broker = dri.broker
    publish_on(dri.invalidation_bus, dri)
    # every RP's JWKS refresh rides the shared single-flight cache — N
    # concurrent verifications hitting a key rotation produce exactly
    # one upstream fetch
    jwks = dri.caches.get("jwks")
    for rp in (*(u.rp for u in broker._upstreams.values()), dri.zenith._rp):
        rp.jwks_cache = jwks
    for sshd in dri.login_nodes:
        sshd.cert_cache = dri.caches.get("ssh-certs")
    if dri.overload is not None:
        # capacity moves to the pods: each worker gets its own
        # broker-sized bucket, so fleet capacity is N x the rate
        broker.admission = None
    dri.network.detach("broker")
    dri.network.attach(broker, OperatingDomain.FDS, Zone.ACCESS,
                       name="broker-origin")


def install_pool(dri, cfg) -> None:
    """One replica pool behind one load balancer on the public ``broker``
    name, plus (opt-in) the metric-driven autoscaler."""
    tele = dri.telemetry
    # safe in one region only: the MDC-side cache is bound to this bus,
    # so every revocation evicts it synchronously
    dri.jupyter.introspection_cache = dri.caches.get("introspection")
    pool = dri.broker_pool = ReplicaPool(
        "broker", dri.network, OperatingDomain.FDS, Zone.ACCESS, dri.broker,
        admission_factory=pod_admission(dri.clock, dri.overload),
    )
    pool.scale_to(cfg.broker_replicas)
    dri.broker_lb = LoadBalancer(
        "broker", dri.clock, pool, audit=dri.logs["fds"], telemetry=tele,
        tail=dri.tail,
    )
    dri.network.attach(dri.broker_lb, OperatingDomain.FDS, Zone.ACCESS,
                       name="broker")
    dri.edge.register_origin("broker", dri.broker_lb)
    dri.front_broker(pool)
    if cfg.autoscale:
        dri.autoscaler = Autoscaler(
            dri.clock, pool, tele, interval=cfg.autoscale_interval,
            watch_services=("broker",), audit=dri.logs["fds"],
        )
        dri.autoscaler.start()
