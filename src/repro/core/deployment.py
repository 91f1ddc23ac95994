"""The full Fig. 1 deployment: every domain, zone, service and flow.

:func:`build_isambard` assembles the complete simulated Isambard DRI:

* **EXTERNAL** — institutional IdPs (eduGAIN), the MyAccessID proxy,
  user devices, and the Cloudflare-style edge;
* **FDS** (public cloud, Access zone) — identity broker, user/project
  portal, identity-of-last-resort IdP, admin IdP, SSH CA, Zenith server;
* **SWS** (NCC data centre) — HA bastion set (port 22 only), log
  shipper, tailnet coordinator;
* **MDC** — login-node sshd, Jupyter authenticator/spawner + Zenith
  client (HPC zone), management node (Management zone), compute pool,
  parallel filesystem (Data Storage zone);
* **SEC** (separate cloud account, Security zone) — the SOC, fed by the
  log forwarders, driving the externally managed kill switch.

The firewall opens exactly the flows the paper draws; everything else is
default-deny.  All cross-boundary traffic must be encrypted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.audit import AuditLog, CombinedAuditView
from repro.authz import SURFACES, AuthzRuntime, install as authz_tier
from repro.broker import IdentityBroker, RbacTokenValidator, Role
from repro.clock import SimClock
from repro.core.workflows import Workflows
from repro.cluster import (
    JupyterService,
    ManagementNode,
    NodePool,
    ParallelFilesystem,
    SlurmScheduler,
)
from repro.errors import ConfigurationError, ReproError
from repro.federation import (
    AssurancePolicy,
    CloudAdminIdP,
    EntityCategory,
    InstitutionalIdP,
    LastResortIdP,
    LevelOfAssurance,
    MyAccessID,
)
from repro.federation.directory import (
    DirectoryConfig,
    FederationDirectory,
    ShardedAccountRegistry,
    ShardedMetadataStore,
    install as directory_tier,
)
from repro.federation.spiffe import TrustDomainAuthority
from repro.ids import IdFactory
from repro.net import Firewall, Network, OperatingDomain, Service, Zone
from repro.net.http import HttpRequest
from repro.oidc import make_url
from repro.policy import PolicyEngine, standard_zero_trust_rules
from repro.portal import UserPortal
from repro.region import (
    GeoRouter,
    RegionDirectory,
    ReplicatedInvalidationBus,
    install as region_tier,
)
from repro.resilience import (
    DurabilityStore,
    FailoverController,
    FaultInjector,
    OverloadConfig,
    ResilienceRuntime,
    RetryPolicy,
    TailConfig,
    install as resilience_tier,
)
from repro.scale import (
    Autoscaler,
    InvalidationBus,
    LoadBalancer,
    ReplicaPool,
    ScaleConfig,
    TtlCache,
    install as scale_tier,
)
from repro.siem import (
    Alert,
    KillSwitchController,
    LogForwarder,
    SecurityOperationsCentre,
    TraceIntegrityRule,
    UnexplainedDecisionRule,
)
from repro.siem.configassess import standard_checks
from repro.sshca import BastionSet, LoginNodeSshd, SshCertificateAuthority
from repro.telemetry import PipelineConfig, Telemetry
from repro.tunnels import CloudflareEdge, TailnetCoordinator, ZenithClient, ZenithServer

__all__ = ["IsambardDeployment", "build_isambard", "DEFAULT_IDPS"]

# (endpoint, entity host, federation, display name, LoA, categories)
DEFAULT_IDPS = [
    ("idp-bristol", "idp.bristol.ac.uk", "UKAMF", "University of Bristol",
     LevelOfAssurance.CAPPUCCINO, (EntityCategory.RESEARCH_AND_SCHOLARSHIP,)),
    ("idp-tartu", "idp.ut.ee", "TAAT", "University of Tartu",
     LevelOfAssurance.CAPPUCCINO, (EntityCategory.RESEARCH_AND_SCHOLARSHIP,
                                   EntityCategory.SIRTFI)),
    ("idp-zurich", "idp.ethz.ch", "SWITCHaai", "ETH Zurich",
     LevelOfAssurance.ESPRESSO, (EntityCategory.RESEARCH_AND_SCHOLARSHIP,)),
    ("idp-webshop", "idp.webshop.example", "SomeFed", "Webshop Logins Inc",
     LevelOfAssurance.LOW, ()),  # filtered out by the assurance policy
]
AI_NODES = 168   # Isambard-AI phase 1 Grace-Hopper nodes
HPC_NODES = 368  # Isambard 3 Grace-Grace nodes


@dataclass
class IsambardDeployment:
    """Handle to the whole running system.

    :func:`build_isambard` creates it around the clock, the network and
    the audit logs and fills it in as Fig. 1 is assembled; each tier's
    ``install`` then reads its collaborators off it and adds its own."""

    clock: SimClock
    ids: IdFactory
    network: Network
    logs: Dict[str, AuditLog]
    audit: CombinedAuditView
    # federation
    edugain: ShardedMetadataStore = None
    idps: Dict[str, InstitutionalIdP] = field(default_factory=dict)
    myaccessid: MyAccessID = None
    lastresort: LastResortIdP = None
    admin_idp: CloudAdminIdP = None
    # FDS — ``broker`` and ``ssh_ca`` always name the *active* instance:
    # failover re-points them at the promoted standby
    broker: IdentityBroker = None
    portal: UserPortal = None
    ssh_ca: SshCertificateAuthority = None
    zenith: ZenithServer = None
    edge: CloudflareEdge = None
    # SWS
    bastion: BastionSet = None
    tailnet: TailnetCoordinator = None
    # MDC — Isambard-AI phase 1 (Grace-Hopper)
    pool: NodePool = None
    login_sshd: LoginNodeSshd = None
    jupyter: JupyterService = None
    zenith_client: ZenithClient = None
    mgmt_node: ManagementNode = None
    slurm: SlurmScheduler = None
    filesystem: ParallelFilesystem = None
    # SEC
    soc: SecurityOperationsCentre = None
    killswitch: KillSwitchController = None
    forwarders: List[LogForwarder] = field(default_factory=list)
    # cross-cutting
    policy_engine: PolicyEngine = None
    workflows: "object" = None  # set post-construction (core.workflows)
    # MDC — Isambard 3 (Grace-Grace CPU cluster)
    pool_i3: NodePool = None
    login_sshd_i3: LoginNodeSshd = None
    mgmt_node_i3: ManagementNode = None
    slurm_i3: SlurmScheduler = None
    # every cluster's login node / scheduler, Isambard-AI first: what
    # revocation, containment and the tiers iterate over
    login_nodes: List[LoginNodeSshd] = field(default_factory=list)
    schedulers: List[SlurmScheduler] = field(default_factory=list)
    # SPIRE-style workload identity authority for the trust domain
    spire: Optional["object"] = None
    # chaos harness (always attached; inert until faults are scheduled)
    faults: Optional[FaultInjector] = None
    # retry/breaker runtime; None when the deployment was built fail-fast
    resilience: Optional[ResilienceRuntime] = None
    # overload-protection sizing; None when admission control is off
    overload: Optional[OverloadConfig] = None
    # crash-fault tolerance: the WAL store; None when durability is off
    durability: Optional[DurabilityStore] = None
    # active-standby supervision; None unless built with failover=True
    failover: Optional[FailoverController] = None
    # tracing + metrics + SLO runtime; None when built telemetry=False
    # (the base only: every tier needs it)
    telemetry: Optional[Telemetry] = None
    # bounded-retention telemetry pipeline; None when pipeline off
    pipeline_config: Optional[PipelineConfig] = None
    # component name -> (crash_fn, restart_fn); see add_crash_target
    crash_targets: Dict[str, tuple] = field(default_factory=dict)
    # horizontal scale-out (repro.scale); all None/empty unless scale on
    scale: Optional[ScaleConfig] = None
    broker_pool: Optional[ReplicaPool] = None
    broker_lb: Optional[LoadBalancer] = None
    invalidation_bus: Optional[InvalidationBus] = None
    caches: Dict[str, TtlCache] = field(default_factory=dict)
    autoscaler: Optional[Autoscaler] = None
    # the fleet answering on the public ``broker`` name while the state
    # backend sits behind it as ``broker-origin`` (the replica pool, or
    # the region directory); None while the broker serves directly
    broker_front: Optional["object"] = None
    # multi-region tier (repro.region); all None/empty unless regions on
    region_directory: Optional[RegionDirectory] = None
    geo_router: Optional[GeoRouter] = None
    region_bus: Optional[ReplicatedInvalidationBus] = None
    # tail-tolerance layer (repro.resilience.tail); None unless tail on
    tail: Optional[TailConfig] = None
    # continuous authorization (repro.authz); None unless authz on
    authz: Optional[AuthzRuntime] = None
    # federation directory (repro.federation.directory); None unless on
    directory: Optional[FederationDirectory] = None

    # ------------------------------------------------------------------
    def validator_for(self, audience: str) -> RbacTokenValidator:
        """Resource-side RBAC validator against the broker's keys."""
        return RbacTokenValidator(
            self.clock, self.broker.issuer, audience, self.broker.jwks,
            self._revoked, cache=self.caches.get("token-decisions"),
        )

    def _revoked(self, jti: str) -> bool:
        tokens = self.broker.tokens
        # durability mode trusts only journaled facts: unknown jtis (e.g.
        # minted by a fenced zombie primary) are rejected outright
        return (tokens.is_invalid if self.durability is not None
                else tokens.is_revoked)(jti)

    def surfaces(self) -> Tuple[Tuple[str, object], ...]:
        """``(surface, holder)`` for every enforcement point that holds a
        grant, in SURFACES order, read off the deployment now (failover
        re-points ``broker`` and ``ssh_ca``).  A holder reads what it
        holds live with ``grants(now, skip)`` (the session registry) and
        ends a subject's grants with ``sever(subject, by, project)`` (the
        walk): ``by`` is the actor where a surface records one (a
        cancelled job), ``project`` narrows where a surface holds
        project-scoped grants (RBAC tokens); the rest ignore them."""
        return (("tokens", self.broker), ("ssh", self.ssh_ca),
                *(("ssh", sshd) for sshd in self.login_nodes),
                ("tunnels", self.zenith), ("compute", self.jupyter),
                *(("compute", slurm) for slurm in self.schedulers))

    def resolve(self, principal: str,
                project: Optional[str] = None) -> Tuple[str, List[str]]:
        """The uid behind ``principal`` (a uid or one of its UNIX
        accounts) and that uid's accounts (of ``project`` only, when
        given), tombstoned ones included.  A whole-user resolve reads the
        identity graph where there is one (authz): its aliases outlive a
        portal crash and a cold restart, which empty the portal's
        account registry."""
        if self.authz is not None and project is None:
            return self.authz.graph.resolve(principal)
        return self.portal.unix_accounts.resolve(principal, project)

    def sever(self, principal: str, project: Optional[str] = None, *,
              by: str, surface: Optional[str] = None) -> Dict[str, int]:
        """The one teardown: end every grant of ``principal`` (a uid or
        one of its UNIX accounts) on every surface, or on ``surface``
        only.  Every holder is called for the uid and for each of its
        accounts, tombstoned ones included.  ``project`` narrows the
        token surface to that project's RBAC tokens and the accounts to
        that project's; a grant keyed by uid (a certificate, a web
        session, a notebook) is severed whole.  Returns ``{surface:
        count}`` in SURFACES order."""
        uid, accounts = self.resolve(principal, project)
        severed = {name: 0 for name in SURFACES if surface in (None, name)}
        for name, holder in self.surfaces():
            if name in severed:
                for subject in (uid, *accounts):
                    severed[name] += holder.sever(subject, by, project)
        return severed

    # ------------------------------------------------------------------
    def add_crash_target(self, name: str, component, set_up) -> None:
        """Teach ``crash``/``restart`` (and the chaos harness's ``crash``
        faults) how to kill ``name``: ``set_up(False)`` takes it down and
        ``component()``'s in-memory state is wiped; restart recovers it
        from its journal when it has one (cold and empty otherwise) and
        brings it back up.  A later registration under the same name
        replaces the earlier one."""

        def crash_fn() -> None:
            set_up(False)
            component().wipe_state()

        def restart_fn():
            target = component()
            report = (target.recover()
                      if getattr(target, "journal", None) is not None else None)
            set_up(True)
            return report

        self.crash_targets[name] = (crash_fn, restart_fn)
        self.faults.register_crash_hooks(name, crash_fn, restart_fn)

    def add_service_crash_target(self, name: str, endpoint: str = "",
                                 fleet=None) -> None:
        """Crash target for whatever service is attached at ``endpoint``
        (default ``name``) when the crash lands — after a promotion that
        is the ex-standby.  A ``fleet`` goes dark and comes back with it."""
        endpoint = endpoint or name

        def set_up(up: bool) -> None:
            self.network.endpoint(endpoint).up = up
            if fleet is not None:
                fleet.set_serving(up)

        self.add_crash_target(
            name, lambda: self.network.endpoint(endpoint).service, set_up)

    def front_broker(self, fleet) -> None:
        """``fleet`` took over the public ``broker`` name.  "Crashing the
        broker" now kills the shared state backend and takes the whole
        fleet dark with it; whatever holds the public name (the balancer,
        the geo-router) keeps answering, so callers see unavailability,
        not a vanished endpoint.  For single-region loss use
        ``faults.region_down()`` instead."""
        self.broker_front = fleet
        self.add_service_crash_target("broker", "broker-origin", fleet)

    def crash(self, name: str) -> None:
        """Kill a component in place: its endpoint goes down and its
        in-memory state is wiped — exactly what a pod OOM-kill does.
        Targets: ``broker``, ``portal``, ``ssh-ca``, ``idp-lastresort``,
        ``audit-<domain>`` log stores and ``fw-*`` forwarders."""
        if name not in self.crash_targets:
            raise ConfigurationError(f"no crash hooks registered for {name!r}")
        self.crash_targets[name][0]()

    def restart(self, name: str):
        """Restart a crashed component.  With durability on it replays
        snapshot + journal (returning the RecoveryReport where there is
        one); journaling off restarts cold and empty.  If failover
        already promoted the standby, the ex-primary instead rejoins as
        the new standby."""
        if self.failover is not None:
            # scale/region deployments supervise the state backend under
            # its "<name>-origin" endpoint; restart of the public name
            # must still find the pair or the ex-primary never rejoins
            for pair_name in (name, f"{name}-origin"):
                pair = self.failover.pairs.get(pair_name)
                if pair is not None and pair.promoted:
                    return self.failover.rejoin(pair_name, pair.primary)
        if name not in self.crash_targets:
            raise ConfigurationError(f"no crash hooks registered for {name!r}")
        return self.crash_targets[name][1]()

    def refresh_tunnels(self) -> None:
        """Heartbeat the Zenith tunnel registrations (the deployment's
        periodic job; call after long simulated-time jumps or after an
        outage dropped the tunnel — re-enrollment presents a live token)."""
        if self.zenith_client.heartbeat() is None:
            # first registration: the client has nothing to re-enrol yet
            self.zenith_client.register_with(
                "zenith", "jupyter", self.zenith_client.token_source())

    def ship_logs(self) -> None:
        """Force-flush every forwarder (benches call this before reading
        SOC state instead of waiting for the timers)."""
        for fw in self.forwarders:
            fw.flush()

    def inventory_summary(self) -> Dict[str, int]:
        return {
            "endpoints": len(self.network.endpoints()),
            "firewall_rules": len(self.network.firewall.rules()),
            "assets": len(self.soc.inventory.assets()),
            "idps_in_edugain": len(self.edugain),
        }


def _open_fig1_flows(firewall: Firewall) -> None:
    """Exactly the inter-domain flows Fig. 1 draws; default-deny tail."""
    E, M, S, F, C = (OperatingDomain.EXTERNAL, OperatingDomain.MDC,
                     OperatingDomain.SWS, OperatingDomain.FDS,
                     OperatingDomain.SEC)
    # users and IdPs on the internet talk to each other (browser <-> IdP)
    firewall.allow("internet-https", src_domain=E, dst_domain=E, port=443)
    # users reach the Access zone (via the Cloudflare-protected endpoints)
    firewall.allow("internet-to-access-zone", src_domain=E, dst_domain=F,
                   dst_zone=Zone.ACCESS, port=443)
    # the broker dials out to external IdPs (MyAccessID token endpoint)
    firewall.allow("fds-to-external-idps", src_domain=F, dst_domain=E, port=443)
    # port 22 is the ONLY opening from the internet into SWS
    firewall.allow("internet-ssh-to-bastion", src_domain=E, dst_domain=S,
                   dst_zone=Zone.ACCESS, port=22)
    # bastion jumps into the MDC login plane
    firewall.allow("bastion-to-login-nodes", src_domain=S, src_zone=Zone.ACCESS,
                   dst_domain=M, dst_zone=Zone.HPC, port=22)
    # MDC services dial OUT to FDS (zenith reverse tunnel, introspection)
    firewall.allow("mdc-outbound-to-fds", src_domain=M, src_zone=Zone.HPC,
                   dst_domain=F, dst_zone=Zone.ACCESS, port=443)
    # admin devices reach the tailnet coordinator in SWS
    firewall.allow("internet-to-tailnet", src_domain=E, dst_domain=S,
                   dst_zone=Zone.MANAGEMENT, port=443)
    # the tailnet relay reaches MDC management plane
    firewall.allow("tailnet-to-mdc-mgmt", src_domain=S, src_zone=Zone.MANAGEMENT,
                   dst_domain=M, dst_zone=Zone.MANAGEMENT, port=443)
    # log shipping into the Security zone
    firewall.allow("sws-logs-to-sec", src_domain=S, dst_domain=C,
                   dst_zone=Zone.SECURITY, port=443)
    firewall.allow("fds-logs-to-sec", src_domain=F, dst_domain=C,
                   dst_zone=Zone.SECURITY, port=443)
    # security administrators reach the SOC only through the tailnet
    # relay ("access only via ... time-limited security roles", §III)
    firewall.allow("tailnet-to-soc", src_domain=S, src_zone=Zone.MANAGEMENT,
                   dst_domain=C, dst_zone=Zone.SECURITY, port=443)
    # nothing else: no internet->MDC, no FDS->MDC, no anything->SEC besides
    # logs, no MDC->SEC (MDC logs route via SWS), no SEC-> anywhere.


def _config(value, cls):
    """A tier argument as its config: an instance is itself, any other
    truthy value selects the defaults, falsy means the tier is off."""
    if isinstance(value, cls):
        return value
    return cls() if value else None


def build_isambard(
    seed: int = 42,
    *,
    segmented: bool = True,
    rbac_default_ttl: float = 900.0,
    rbac_max_ttl: float = 3600.0,
    ssh_cert_ttl: float = 4 * 3600.0,
    bastion_vms: int = 2,
    forward_interval: float = 5.0,
    auto_contain: bool = True,
    resilience: Union[bool, RetryPolicy] = False,
    overload: Union[bool, OverloadConfig] = False,
    staleness_window: float = 60.0,
    durability: bool = False,
    failover: bool = False,
    telemetry: bool = True,
    scale: Union[bool, ScaleConfig] = False,
    regions: bool = False,
    tail: Union[bool, TailConfig] = False,
    authz: bool = False,
    pipeline: Union[bool, PipelineConfig] = False,
    directory: Union[bool, DirectoryConfig] = False,
) -> IsambardDeployment:
    """Construct the full simulated Isambard DRI: the Fig. 1 base system,
    then one ``install`` per enabled tier, in the order below.

    The plain parameters are the benchmarks' ablation axes: ``segmented``
    off is the flat-network baseline, ``rbac_default_ttl`` the token-
    lifetime sweep, ``bastion_vms`` the HA study, ``forward_interval``
    the detection-latency study, ``staleness_window`` bounds Jupyter's
    degraded-mode acceptance of cached introspection verdicts.  A
    :class:`FaultInjector` is always attached as ``dri.faults``, inert
    until faults are scheduled.  Every tier flag takes ``True`` for its
    defaults or its config object (docs/architecture.md, "The builder",
    says what each one wires):

    * ``telemetry`` (default on, part of the base) — tracing, RED
      metrics, SLO pages; docs/architecture.md "Observability".  Every
      tier below needs it: ``telemetry=False`` builds the base only.
    * ``pipeline`` (:class:`PipelineConfig`) — bounded span/metric/
      ledger retention inside telemetry; docs/observability.md.
    * ``resilience`` (:class:`RetryPolicy`) — retry/breaker kits on every
      client; docs/architecture.md "Resilience & fault model".
    * ``overload`` (:class:`OverloadConfig`, implies a resilience
      runtime) — docs/architecture.md "Overload & backpressure".
    * ``tail`` (:class:`TailConfig`, implies resilience) —
      docs/scaling.md "Tail tolerance".
    * ``scale`` (:class:`ScaleConfig`) — replica pool, balancer, shared
      caches; docs/scaling.md "Replica pools and the load balancer".
    * ``durability`` / ``failover`` (implies durability) —
      docs/architecture.md "Crash recovery & failover".
    * ``regions`` (implies scale + durability) —
      docs/scaling.md "Multi-region active-active".
    * ``authz`` — docs/architecture.md "Continuous authorization".
    * ``directory`` (:class:`DirectoryConfig`) — docs/architecture.md
      "Federation directory".
    """
    # ---------------------------------------------------------- arguments
    # telemetry=False builds the base only: every tier counts into it
    if not telemetry and any((resilience, overload, durability, failover,
                              scale, regions, tail, authz, pipeline,
                              directory)):
        raise ConfigurationError(
            "telemetry=False builds the base only: every opt-in tier "
            "needs telemetry")
    # True selects a tier's defaults; a tier that needs another turns it on
    scale_cfg = _config(scale or regions, ScaleConfig)
    tail_cfg = _config(tail, TailConfig)
    overload_cfg = _config(overload, OverloadConfig)
    directory_cfg = _config(directory, DirectoryConfig)
    pipeline_cfg = _config(pipeline, PipelineConfig)

    # ---------------------------------------------------------- substrate
    clock = SimClock(start=0.0)
    ids = IdFactory(seed=seed)
    tele = Telemetry(clock, pipeline=pipeline_cfg) if telemetry else None
    logs = {
        domain: AuditLog(domain)
        for domain in ("external", "fds", "sws", "mdc", "sec", "network")
    }
    if tele is not None:
        for log in logs.values():
            tele.watch_audit(log)
    firewall = Firewall(segmented=segmented)
    _open_fig1_flows(firewall)
    # the chaos harness draws from its own seeded RNG, so arming it
    # never perturbs the identity/secret streams
    faults = FaultInjector(clock, random.Random(seed * 7919 + 13))
    network = Network(clock, firewall=firewall, audit=logs["network"],
                      faults=faults)
    network.telemetry = tele
    dri = IsambardDeployment(
        clock=clock, ids=ids, network=network, logs=logs,
        audit=CombinedAuditView(logs), faults=faults, telemetry=tele,
        pipeline_config=pipeline_cfg,
    )
    attach = network.attach
    E, M, S, F, C = (OperatingDomain.EXTERNAL, OperatingDomain.MDC,
                     OperatingDomain.SWS, OperatingDomain.FDS,
                     OperatingDomain.SEC)

    # ------------------------------------------------------------- federation
    # the metadata aggregate and the account registry are built bare: one
    # shard each unless the directory tier sizes them, and its install
    # attaches everything else.  The bilateral trust anchors registered
    # here get no validity window; feed-ingested entries always do.
    sizing = directory_cfg or DirectoryConfig(account_shards=1,
                                              metadata_shards=1)
    dri.edugain = ShardedMetadataStore(clock, shards=sizing.metadata_shards)
    for endpoint, host, federation, display, loa, categories in DEFAULT_IDPS:
        idp = InstitutionalIdP(
            endpoint, f"https://{host}", clock, ids,
            loa=loa, categories=categories, audit=logs["external"],
        )
        dri.edugain.register_idp(idp, federation=federation,
                                 display_name=display)
        attach(idp, E, Zone.INTERNET)
        dri.idps[endpoint] = idp
    dri.myaccessid = MyAccessID(
        "myaccessid", clock, ids, dri.edugain,
        ShardedAccountRegistry(clock, ids, shards=sizing.account_shards),
        policy=AssurancePolicy(), audit=logs["external"],
    )
    attach(dri.myaccessid, E, Zone.INTERNET)
    dri.lastresort = LastResortIdP("idp-lastresort", clock, ids,
                                   audit=logs["fds"])
    dri.admin_idp = CloudAdminIdP("idp-admin", clock, ids, audit=logs["fds"])
    attach(dri.lastresort, F, Zone.ACCESS)
    attach(dri.admin_idp, F, Zone.ACCESS)

    # ------------------------------------------------------------------ FDS
    broker = dri.broker = IdentityBroker(
        "broker", clock, ids, audit=logs["fds"],
        rbac_default_ttl=rbac_default_ttl, rbac_max_ttl=rbac_max_ttl,
    )
    broker.ssh_cert_ttl = ssh_cert_ttl
    attach(broker, F, Zone.ACCESS)
    callback = make_url("broker", "/login/callback")
    for upstream_id, label, provider, kind in [
        ("myaccessid", "University Login (MyAccessID)", dri.myaccessid,
         "federated"),
        ("lastresort", "Isambard Account (Identity of Last Resort)",
         dri.lastresort, "lastresort"),
        ("admin", "Isambard Team (Administrators)", dri.admin_idp, "admin"),
    ]:
        cfg = provider.register_client(
            f"isambard-broker-{upstream_id}", [callback], confidential=True
        )
        broker.add_upstream(upstream_id, label, provider.name, cfg, kind=kind)

    # the scale tier's invalidation bus and shared caches exist before
    # the validators below, so every resource server shares them
    if scale_cfg is not None:
        dri.invalidation_bus, dri.caches = scale_tier.shared_caches(
            scale_cfg, clock, tele)

    portal = dri.portal = UserPortal(
        "portal", clock, ids, dri.validator_for("portal"), audit=logs["fds"],
        on_revoke=lambda uid, project, account: dri.sever(
            uid, project, by="portal-revocation"),
    )
    attach(portal, F, Zone.ACCESS)

    ssh_ca = dri.ssh_ca = SshCertificateAuthority(
        "ssh-ca", clock, dri.validator_for("ssh-ca"), audit=logs["fds"],
        cert_ttl=ssh_cert_ttl,
    )
    attach(ssh_ca, F, Zone.ACCESS)

    zenith = dri.zenith = ZenithServer(
        "zenith", clock, ids, dri.validator_for("zenith"), audit=logs["fds"],
        heartbeat_ttl=24 * 3600.0,
    )
    attach(zenith, F, Zone.ACCESS)
    zenith.configure_rp(broker.register_client(
        "zenith-auth", [make_url("zenith", "/callback")], confidential=True
    ))

    edge = dri.edge = CloudflareEdge("edge", clock, audit=logs["external"])
    attach(edge, E, Zone.INTERNET)
    edge.register_origin("zenith", zenith)
    edge.register_origin("broker", broker)
    edge.register_origin("portal", portal)

    # ------------------------------------------------------------------ SWS
    bastion = dri.bastion = BastionSet(
        "bastion", clock, audit=logs["sws"], vm_count=bastion_vms)
    attach(bastion, S, Zone.ACCESS)
    tailnet = dri.tailnet = TailnetCoordinator(
        "tailnet", clock, ids, dri.validator_for("tailnet"), audit=logs["sws"]
    )
    attach(tailnet, S, Zone.MANAGEMENT)
    shipper = Service("log-shipper")
    attach(shipper, S, Zone.ACCESS)

    # dynamic policy (tenet 4): posture rules enforced at the management
    # plane on top of token validation; the continuous-authorization
    # floor must precede the pack's capability allow or it never fires
    dri.policy_engine = PolicyEngine()
    if authz:
        authz_tier.add_assurance_floor(dri.policy_engine)
    standard_zero_trust_rules(dri.policy_engine)

    def flag(principal: str) -> List[str]:
        # the principal as named and every account of its uid are
        # refused at the bastion
        _, accounts = dri.resolve(principal)
        flagged = sorted({principal, *accounts})
        for subject in flagged:
            bastion.flag_principal(subject)
        return flagged

    # the kill switch severs one principal everywhere through the walk
    killswitch = dri.killswitch = KillSwitchController(
        clock, audit=logs["sec"], flag=flag,
        sever=lambda principal: dri.sever(principal, by="killswitch"))

    # ------------------------------------------------------------------ MDC
    def login_node(suffix: str) -> LoginNodeSshd:
        sshd = LoginNodeSshd(
            f"login-node{suffix}", clock, ssh_ca.ca_public_key(),
            lambda user: portal.unix_accounts.lookup(user) is not None,
            audit=logs["mdc"],
        )
        sshd.install_host_certificate(ssh_ca.provision_host_certificate(
            sshd.name, sshd.host_keypair.public_jwk()))
        attach(sshd, M, Zone.HPC)
        dri.login_nodes.append(sshd)
        return sshd

    def management_plane(suffix: str, pool: NodePool, **slurm_kwargs):
        mgmt = ManagementNode(
            f"mgmt-node{suffix}", clock,
            dri.validator_for(f"mgmt-node{suffix}"), pool,
            audit=logs["mdc"], policy=dri.policy_engine,
        )
        attach(mgmt, M, Zone.MANAGEMENT)
        tailnet.expose_endpoint(mgmt.name, "mgmt")
        slurm = SlurmScheduler(clock, ids, pool, portal.record_usage,
                               audit=logs["mdc"], **slurm_kwargs)
        dri.schedulers.append(slurm)
        return mgmt, slurm

    dri.pool = NodePool("gh", "grace-hopper", AI_NODES, gpus_per_node=4)
    dri.login_sshd = login_node("")
    # the authenticator runs in the MDC: it cannot share the broker's
    # in-memory revocation set, so its *local* validation is JWKS-only
    # and revocation is caught by the introspection round-trip (§IV.A.6)
    jupyter = dri.jupyter = JupyterService(
        "jupyter", clock, ids,
        RbacTokenValidator(
            clock, broker.issuer, "jupyter", broker.jwks, lambda jti: False,
            cache=dri.caches.get("token-decisions")),
        dri.pool, audit=logs["mdc"], broker_endpoint="broker",
        staleness_window=staleness_window,
    )
    attach(jupyter, M, Zone.HPC)
    dri.zenith_client = ZenithClient("zenith-client", "jupyter")
    attach(dri.zenith_client, M, Zone.HPC)
    # re-enrollment after a drop presents the held service token
    dri.zenith_client.token_source = lambda: dri.broker.tokens.held(
        "mdc-zenith-client", "zenith", Role.SERVICE, ttl=300
    )[0]
    dri.mgmt_node, dri.slurm = management_plane("", dri.pool)
    tailnet.acl.allow("admin-device", "mgmt", 443)
    # the security path: security-role devices reach the SOC, and only it
    tailnet.expose_endpoint("soc", "soc")
    tailnet.acl.allow("security-device", "soc", 443)

    def account_project(username: str):
        account = portal.unix_accounts.lookup(username)
        return account.project_id if account else None

    dri.filesystem = ParallelFilesystem(account_project)

    # Isambard 3, the Grace-Grace national tier-2 HPC platform: the same
    # IAM fabric (one CA, one broker, one portal) protecting a second
    # cluster in the same MDC compound — exactly the paper's deployment
    dri.pool_i3 = NodePool("gg", "grace-grace", HPC_NODES, gpus_per_node=0)
    dri.login_sshd_i3 = login_node("-i3")
    dri.mgmt_node_i3, dri.slurm_i3 = management_plane(
        "-i3", dri.pool_i3,
        charge_units_per_node=1)  # node-hours on the CPU machine

    # ------------------------------------------------------------------ SEC
    soc = dri.soc = SecurityOperationsCentre(
        "soc", clock, dri.validator_for("soc"), audit=logs["sec"],
        killswitch=killswitch, auto_contain=auto_contain,
    )
    attach(soc, C, Zone.SECURITY)

    # workload identity: attest the internal service workloads so
    # machine-to-machine calls can carry SVIDs alongside RBAC tokens
    spire = dri.spire = TrustDomainAuthority("isambard.example", clock)
    for path, endpoint_name in [
        ("fds/broker", "broker"), ("fds/portal", "portal"),
        ("fds/ssh-ca", "ssh-ca"), ("fds/zenith", "zenith"),
        ("sws/log-shipper", "log-shipper"), ("sws/bastion", "bastion"),
        ("mdc/zenith-client", "zenith-client"), ("mdc/jupyter", "jupyter"),
    ]:
        ep = network.endpoint(endpoint_name)
        spire.register_workload(
            path, f"endpoint:{ep.name}", f"domain:{ep.domain}",
            f"zone:{ep.zone}",
        )

    def soc_sink(records):
        # the shipper presents the token and the SVID it holds; a batch
        # the SOC does not accept raises, so it stays in the log
        token, _ = dri.broker.tokens.held(
            "log-shipper", "soc", Role.SERVICE, ttl=120, audit_issue=False
        )
        reply = shipper.call("soc", HttpRequest(
            "POST", "/ingest",
            headers={
                "Authorization": f"Bearer {token}",
                "X-Workload-SVID": spire.held("sws/log-shipper"),
            },
            body={"records": records},
        ))
        if not reply.ok:
            raise ReproError(
                f"soc refused the batch: {reply.status} {reply.body}")

    # network-device logs ship only denials/violations — the delivered-
    # message firehose stays local (and would otherwise echo the log
    # shipping itself back into the pipeline)
    for domain, actions_filter in [
        ("mdc", None), ("sws", None), ("fds", None), ("external", None),
        ("network", ["firewall.", "transport.", "endpoint."]),
    ]:
        fw = LogForwarder(f"fw-{domain}", clock, soc_sink,
                          interval=forward_interval,
                          actions_filter=actions_filter)
        fw.watch(logs[domain])
        fw.start()
        dri.forwarders.append(fw)

    # the ingest pipeline authenticates twice: service RBAC token AND a
    # workload SVID from the attested log shipper
    soc.require_workload_identity(
        spire, "spiffe://isambard.example/sws/log-shipper"
    )
    for name, stop, restore in [
        ("bastion", bastion.kill_service, bastion.restore_service),
        ("tailnet", tailnet.kill_tailnet, tailnet.restore_tailnet),
        ("zenith", zenith.kill_all_tunnels, zenith.restore_all_tunnels),
    ]:
        killswitch.register_stop_action(name, stop, restore)

    # inventory (SOC task 2)
    for vm in bastion.vms:
        soc.inventory.register(vm.vm_id, "bastion-vm", vm.image_version, "sws")
    for name, kind, domain in [
        ("broker", "k8s-service", "fds"), ("portal", "k8s-service", "fds"),
        ("ssh-ca", "k8s-service", "fds"), ("zenith", "k8s-service", "fds"),
        ("idp-admin", "managed-idp", "fds"),
        ("idp-lastresort", "managed-idp", "fds"),
        ("tailnet", "coordination-server", "sws"),
    ]:
        soc.inventory.register(name, kind, "1.0", domain)

    # configuration assessment (SOC task 3)
    standard_checks(soc.assessment, firewall, bastion, broker, dri.filesystem)
    if tele is not None:
        _bridge_telemetry_into_soc(dri)

    # crash/restart hooks (chaos `crash` faults + dri.crash/restart)
    for name in ("portal", "ssh-ca", "idp-lastresort", "broker"):
        dri.add_service_crash_target(name)
    for domain, log in logs.items():
        # emitters to a downed log store fire into the void (counted)
        dri.add_crash_target(
            f"audit-{domain}", lambda log=log: log,
            lambda up, log=log: setattr(log, "down", not up))
    for fw in dri.forwarders:
        dri.add_crash_target(
            fw.name, lambda fw=fw: fw,
            lambda up, fw=fw: fw.start() if up else fw.stop())

    # -------------------------------------------------------------- the tiers
    # Each install reads only what the base and the tiers above it put
    # on the handle (docs/extending.md, "Add or remove a tier").
    if resilience or overload_cfg is not None or tail_cfg is not None:
        resilience_tier.install(
            dri, random.Random(seed * 104729 + 7),
            policy=_config(resilience, RetryPolicy),
            overload=overload_cfg, tail=tail_cfg)
    if scale_cfg is not None:
        scale_tier.install(dri, scale_cfg)
        if not regions:
            scale_tier.install_pool(dri, scale_cfg)
    if durability or failover or regions:
        resilience_tier.install_durability(dri)
    if failover:
        resilience_tier.install_failover(dri)
    if regions:
        region_tier.install(dri)
    if authz:
        authz_tier.install(dri)
    if directory_cfg is not None:
        directory_tier.install(dri, directory_cfg)

    dri.refresh_tunnels()
    dri.workflows = Workflows(dri)
    return dri


def _bridge_telemetry_into_soc(dri: IsambardDeployment) -> None:
    """SOC-side trace correlation, decision provenance and SLO pages."""
    tele, soc = dri.telemetry, dri.soc
    # an audit record whose trace id the span store never saw is a
    # forged/replayed log entry — runs inside the standard rule pack
    soc.rules.append(TraceIntegrityRule(tele.store))
    # decision provenance: the SOC reads the ledger for the
    # scoreboard/explain views and cross-checks every shipped decision
    # against it (a decision without provenance is the ledger-side
    # sibling of an unknown trace id)
    soc.attach_provenance(tele.provenance, tele.store)
    soc.rules.append(UnexplainedDecisionRule(tele.provenance))
    # every decision carries the policy pack version it ran under (the
    # authz tier attaches a richer enricher)
    tele.provenance.enricher = (
        lambda subject: {"pack_version": dri.policy_engine.pack_version})
    # availability SLOs over the hops the RSECon story stresses
    tele.slo("broker-availability", service="broker")
    tele.slo("jupyter-availability", service="jupyter")

    def page_soc(alert) -> None:
        # actor is deliberately empty: an SLO page is not attributable
        # to a principal and must never trigger auto-containment
        soc.raise_alert(Alert(
            time=alert.time, rule=f"slo-burn-{alert.slo}",
            severity="high", actor="", summary=alert.summary(),
            evidence_count=alert.events_in_slow_window,
        ))

    tele.on_slo_alert(page_soc)
