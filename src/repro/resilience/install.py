"""Wire the resilience package's three tiers into a built deployment.

``build_isambard`` calls these on its :class:`~repro.core.deployment.
IsambardDeployment` handle once the Fig. 1 base exists: :func:`install`
(retry kits, plus admission control with ``overload`` and the tail
defences with ``tail``), :func:`install_durability` (write-ahead
journals) and :func:`install_failover` (warm standbys).  Each reads its
collaborators off the handle and leaves its own runtime on it.
"""

from __future__ import annotations

from typing import Optional

from repro.broker import IdentityBroker
from repro.net.zones import OperatingDomain, Zone
from repro.resilience.durability import DurabilityStore
from repro.resilience.failover import FailoverController
from repro.resilience.overload import (
    EDGE_ADMISSION,
    JUPYTER_ADMISSION,
    SSH_CA_ADMISSION,
    AdmissionController,
    OverloadConfig,
)
from repro.resilience.retry import ResilienceRuntime, RetryPolicy
from repro.resilience.tail import TailConfig
from repro.sshca import SshCertificateAuthority

__all__ = ["install", "install_durability", "install_failover"]


def install(dri, rng, *, policy: Optional[RetryPolicy] = None,
            overload: Optional[OverloadConfig] = None,
            tail: Optional[TailConfig] = None) -> None:
    """Per-client retry/backoff + circuit breakers on every control-plane
    client.  ``rng`` is the runtime's own seeded stream (jitter and hedge
    draws never touch the id/secret stream).  With ``overload`` the hot
    services also get token-bucket admission controllers and every kit
    AIMD pacing — the clients must honour ``retry_after`` for admission
    control to be backpressure rather than hard failure, which is why
    overload implies this runtime.  With ``tail`` the kits share one
    tail controller (adaptive deadlines, hedging, retry budgets)."""
    # retry-budget refusals audit into FDS, where the SOC's forwarders
    # already collect
    runtime = dri.resilience = ResilienceRuntime(
        dri.clock, rng, policy=policy, overload=overload, tail=tail,
        audit=dri.logs["fds"], telemetry=dri.telemetry)
    dri.overload, dri.tail = overload, tail
    for svc in (dri.broker, dri.portal, dri.zenith, dri.edge, dri.jupyter,
                dri.zenith_client,
                dri.network.endpoint("log-shipper").service,
                dri.bastion, dri.tailnet, dri.soc):
        svc.resilience = runtime.for_client(svc.name)
    if overload is not None:
        for svc, sizing in ((dri.broker, overload.broker),
                            (dri.jupyter, JUPYTER_ADMISSION),
                            (dri.ssh_ca, SSH_CA_ADMISSION),
                            (dri.edge, EDGE_ADMISSION)):
            svc.admission = AdmissionController(svc.name, dri.clock, sizing)


def install_durability(dri) -> None:
    """Crash-fault tolerance: every stateful control-plane service, the
    per-domain audit log stores and the SIEM forwarders commit each
    mutation to a write-ahead journal in one shared store (signing keys
    stay in its KMS-modelled vault, never in a journal), so
    ``dri.crash(name)`` / ``dri.restart(name)`` model pod kills with
    lossless recovery.  Journals attach *after* construction so every
    build-time registration (clients, upstreams, host certificates)
    lands in the baseline snapshot."""
    store = dri.durability = DurabilityStore(dri.clock, dri.telemetry)
    for domain, log in dri.logs.items():
        log.attach_journal(store.stream(f"audit-{domain}"))
    for svc in (dri.broker, dri.lastresort, dri.ssh_ca, dri.portal,
                *dri.forwarders):
        svc.attach_journal(store.stream(svc.name))
    # sshds consult the active CA's journaled issuance registry: a serial
    # a fenced ex-primary signed after deposition was never registered
    for sshd in dri.login_nodes:
        sshd.cert_registry = (
            lambda serial, key_id: dri.ssh_ca.cert_registered(serial, key_id))


def install_failover(dri) -> None:
    """Warm standbys for the broker and the SSH CA under a health-checked
    controller.  A standby carries its primary's *service* name (it
    becomes that service on promotion) parked under its own endpoint
    name; ``adopt_journal`` keeps it fenced (epoch 0) until promoted.
    Promotion replays the journal, acquires a fresh fencing epoch (the
    deposed primary can no longer commit) and takes over the primary's
    endpoint name and collaborators."""
    store, logs = dri.durability, dri.logs
    broker, ssh_ca = dri.broker, dri.ssh_ca
    broker_standby = IdentityBroker(
        "broker", dri.clock, dri.ids, audit=logs["fds"],
        rbac_default_ttl=broker.tokens.default_ttl,
        rbac_max_ttl=broker.tokens.max_ttl,
    )
    broker_standby.ssh_cert_ttl = broker.ssh_cert_ttl
    for u in broker._upstreams.values():
        broker_standby.add_upstream(
            u.upstream_id, u.label, u.endpoint, u.rp.client, kind=u.kind)
    broker_standby.adopt_journal(store.stream("broker"))
    dri.network.attach(broker_standby, OperatingDomain.FDS, Zone.ACCESS,
                       name="broker-standby")
    ca_standby = SshCertificateAuthority(
        "ssh-ca", dri.clock, dri.validator_for("ssh-ca"), audit=logs["fds"],
        cert_ttl=ssh_ca.cert_ttl,
    )
    ca_standby.adopt_journal(store.stream("ssh-ca"))
    dri.network.attach(ca_standby, OperatingDomain.FDS, Zone.ACCESS,
                       name="ssh-ca-standby")

    def promote_broker(standby) -> None:
        # the promoted instance keeps publishing invalidations, stamping
        # canonical identities, shedding and retrying where its
        # predecessor did, or caches would go quietly stale, tokens would
        # lose their spiffe_id and the overload and retry tiers would
        # drop out after a failover
        deposed = dri.broker
        standby.admission = deposed.admission
        standby.resilience = deposed.resilience
        standby.invalidation_bus = deposed.invalidation_bus
        standby.tokens.bus = deposed.tokens.bus
        standby.tokens.identity_graph = deposed.tokens.identity_graph
        standby.tokens.authz_guard = deposed.tokens.authz_guard
        dri.broker = standby
        if dri.broker_front is None:
            dri.edge.register_origin("broker", standby)
        else:
            # the public endpoint stays with the fleet, which re-points
            # at the promoted state backend.  The pods never died — they
            # went dark because the backend did — so they resume serving
            # immediately (regions under fresh epochs, caches cleared,
            # revocation views resynced from the promoted store)
            dri.broker_front.repoint(standby)
            dri.broker_front.set_serving(True)

    def promote_ca(standby) -> None:
        standby.admission = dri.ssh_ca.admission
        standby.identity_graph = dri.ssh_ca.identity_graph
        dri.ssh_ca = standby

    controller = dri.failover = FailoverController(
        dri.clock, dri.network, audit=logs["sec"], telemetry=dri.telemetry)
    # behind a fleet the supervised endpoint is the state backend's
    controller.register(
        broker.endpoint.name, broker, broker_standby,
        standby_name="broker-standby",
        domain=OperatingDomain.FDS, zone=Zone.ACCESS,
        on_promote=promote_broker)
    controller.register(
        "ssh-ca", ssh_ca, ca_standby, standby_name="ssh-ca-standby",
        domain=OperatingDomain.FDS, zone=Zone.ACCESS,
        on_promote=promote_ca)
    controller.start()
