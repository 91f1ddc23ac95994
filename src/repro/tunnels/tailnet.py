"""Tailscale-style tailnet for the management plane (WireGuard mesh model).

§III.A/B: "Access to the management network is routed via SWS using
Tailscale tailnets ... Access to the tailnet is gated via RBAC tokens
generated in FDS via a separate administrator account identity provider"
and "there is an externally managed kill switch for the management
tailnets".

Modelled pieces:

* **enrolment** — a device joins by presenting a broker RBAC token with
  the ``tailnet.join`` capability; it receives a node identity with an
  expiring key (re-enrolment required, matching time-limited admin roles);
* **ACLs** — tag-based allow rules decide which nodes may talk on which
  ports (admin-device → mgmt-bastion only, by default);
* **relay** — all tailnet traffic enters the protected networks through
  the coordinator's relay in SWS, so the firewall still sees and
  constrains it (SWS/management → MDC/management);
* **kill switch** — per node or the whole tailnet, effective immediately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional

from repro.audit import AuditLog, Outcome
from repro.broker.rbac import require_capability
from repro.broker.tokens import RbacTokenValidator
from repro.clock import SimClock
from repro.errors import (
    AuthenticationError,
    AuthorizationError,
    ConnectionBlocked,
    KillSwitchActive,
)
from repro.ids import IdFactory
from repro.net.http import HttpRequest, HttpResponse, Service, route

__all__ = ["TailnetNode", "TailnetAcl", "TailnetCoordinator"]

NODE_HEADER = "X-Tailnet-Node"


@dataclass
class TailnetNode:
    """A device enrolled in the mesh."""

    node_id: str
    owner: str            # broker subject that enrolled it
    hostname: str
    tags: FrozenSet[str]
    enrolled_at: float
    key_expiry: float
    disabled: bool = False

    def usable(self, now: float) -> bool:
        return not self.disabled and now < self.key_expiry


@dataclass(frozen=True)
class AclRule:
    src_tag: str
    dst_tag: str
    port: int


class TailnetAcl:
    """Allow-only, tag-based access rules (deny is the default)."""

    def __init__(self) -> None:
        self._rules: List[AclRule] = []

    def allow(self, src_tag: str, dst_tag: str, port: int) -> None:
        self._rules.append(AclRule(src_tag, dst_tag, port))

    def permits(self, src_tags: FrozenSet[str], dst_tags: FrozenSet[str], port: int) -> bool:
        return any(
            r.src_tag in src_tags and r.dst_tag in dst_tags and r.port == port
            for r in self._rules
        )

    def rules(self) -> List[AclRule]:
        return list(self._rules)


class TailnetCoordinator(Service):
    """Coordination server + relay, hosted in SWS.

    Parameters
    ----------
    validator:
        RBAC validator for audience ``"tailnet"``.
    key_ttl:
        Node key lifetime; expired nodes must re-enrol (with a fresh
        RBAC token, i.e. a fresh admin authentication).
    """

    def __init__(
        self,
        name: str,
        clock: SimClock,
        ids: IdFactory,
        validator: RbacTokenValidator,
        *,
        audit: AuditLog,
        key_ttl: float = 24 * 3600.0,
    ) -> None:
        super().__init__(name)
        self.clock = clock
        self.ids = ids
        self.validator = validator
        self.audit = audit
        self.key_ttl = key_ttl
        self.acl = TailnetAcl()
        self._nodes: Dict[str, TailnetNode] = {}
        # tailnet-exposed internal endpoints: endpoint name -> tags
        self._exposed: Dict[str, FrozenSet[str]] = {}
        self.tailnet_killed = False
        self.relayed = 0
        self.reenrolments = 0

    # ------------------------------------------------------------------
    # topology (deployment steps)
    # ------------------------------------------------------------------
    def expose_endpoint(self, endpoint_name: str, *tags: str) -> None:
        """Make an internal endpoint reachable through the tailnet."""
        self._exposed[endpoint_name] = frozenset(tags)

    # ------------------------------------------------------------------
    # enrolment
    # ------------------------------------------------------------------
    @route("POST", "/enrol")
    def enrol(self, request: HttpRequest) -> HttpResponse:
        """Join a device to the mesh with a broker RBAC token."""
        if self.tailnet_killed:
            raise KillSwitchActive("the management tailnet is shut down")
        token = request.bearer_token()
        if token is None:
            raise AuthenticationError("tailnet enrolment requires an RBAC token")
        claims = self.validator.validate(token)
        require_capability(claims, "tailnet.join")
        hostname = str(request.body.get("hostname", "device"))
        now = self.clock.now()
        # tags derive from the authenticated role, so the ACL can keep
        # infrastructure and security administrators on separate paths
        role = str(claims.get("role", ""))
        tags = {"security-device"} if role == "admin-security" \
            else {"admin-device"}
        node = TailnetNode(
            node_id=self.ids.next("tnode"),
            owner=str(claims["sub"]),
            hostname=hostname,
            tags=frozenset(tags),
            enrolled_at=now,
            key_expiry=now + self.key_ttl,
        )
        self._nodes[node.node_id] = node
        self.log_event(node.owner, "tailnet.enrol", node.node_id,
            Outcome.SUCCESS, hostname=hostname,
        )
        return HttpResponse.json(
            {"node_id": node.node_id, "key_expiry": node.key_expiry,
             "tags": sorted(node.tags)}
        )

    @route("POST", "/reenrol")
    def reenrol(self, request: HttpRequest) -> HttpResponse:
        """Rotate an existing node's key after an expiry or drop.

        Requires a *fresh* RBAC token (a new admin authentication, same
        bar as first enrolment) plus the node id; the device keeps its
        identity and tags, so ACL state and audit continuity survive the
        outage.  Disabled (kill-switched) nodes stay disabled.
        """
        if self.tailnet_killed:
            raise KillSwitchActive("the management tailnet is shut down")
        token = request.bearer_token()
        if token is None:
            raise AuthenticationError("tailnet re-enrolment requires an RBAC token")
        claims = self.validator.validate(token)
        require_capability(claims, "tailnet.join")
        node_id = str(request.body.get("node_id", ""))
        node = self._nodes.get(node_id)
        if node is None:
            raise AuthenticationError(f"unknown tailnet node {node_id!r}")
        if node.disabled:
            self.log_event(str(claims["sub"]), "tailnet.reenrol", node_id,
                Outcome.DENIED, reason="node-disabled",
            )
            raise KillSwitchActive(f"node {node_id} was disabled by the kill switch")
        if node.owner != str(claims["sub"]):
            raise AuthenticationError("only the enrolling subject may rotate a node key")
        node.key_expiry = self.clock.now() + self.key_ttl
        self.reenrolments += 1
        self.log_event(node.owner, "tailnet.reenrol", node_id,
            Outcome.SUCCESS,
        )
        return HttpResponse.json(
            {"node_id": node.node_id, "key_expiry": node.key_expiry}
        )

    def node(self, node_id: str) -> Optional[TailnetNode]:
        return self._nodes.get(node_id)

    # ------------------------------------------------------------------
    # kill switches
    # ------------------------------------------------------------------
    def disable_node(self, node_id: str) -> None:
        node = self._nodes.get(node_id)
        if node is not None:
            node.disabled = True
            self.log_event("killswitch", "tailnet.disable_node",
                node_id, Outcome.INFO,
            )

    def kill_tailnet(self) -> None:
        """Externally managed emergency stop for the whole mesh."""
        self.tailnet_killed = True
        self.log_event("killswitch", "tailnet.kill", "*",
            Outcome.INFO,
        )

    def restore_tailnet(self) -> None:
        self.tailnet_killed = False

    # ------------------------------------------------------------------
    # the relay: how tailnet traffic reaches protected endpoints
    # ------------------------------------------------------------------
    @route("POST", "/relay")
    def relay_route(self, request: HttpRequest) -> HttpResponse:
        """Wire form of :meth:`relay` for device-originated traffic."""
        node_id = str(request.body.get("node_id", ""))
        target = str(request.body.get("target", ""))
        port = int(request.body.get("port", 443))
        inner_body = request.body.get("request", {})
        inner = HttpRequest(
            method=str(inner_body.get("method", "GET")),  # type: ignore[union-attr]
            path=str(inner_body.get("path", "/")),  # type: ignore[union-attr]
            headers=dict(inner_body.get("headers", {})),  # type: ignore[union-attr]
            body=dict(inner_body.get("body", {})),  # type: ignore[union-attr]
        )
        return self.relay(node_id, target, inner, port=port)

    def relay(
        self, node_id: str, target: str, request: HttpRequest, *, port: int = 443
    ) -> HttpResponse:
        """Carry ``request`` from an enrolled node to an exposed endpoint.

        Enforces, in order: tailnet kill switch, node key validity, the
        target being exposed, and the ACL.  Then the relay forwards over
        the segmented network (so firewall policy still applies).
        """
        now = self.clock.now()
        if self.tailnet_killed:
            self.log_event(node_id, "tailnet.relay", target,
                              Outcome.DENIED, reason="tailnet-killed")
            raise KillSwitchActive("the management tailnet is shut down")
        node = self._nodes.get(node_id)
        if node is None or not node.usable(now):
            self.log_event(node_id, "tailnet.relay", target,
                              Outcome.DENIED, reason="node-invalid")
            raise AuthenticationError(
                "tailnet node unknown, disabled or key-expired; re-enrol"
            )
        dst_tags = self._exposed.get(target)
        if dst_tags is None:
            raise AuthorizationError(f"{target!r} is not exposed on the tailnet")
        if not self.acl.permits(node.tags, dst_tags, port):
            self.log_event(node_id, "tailnet.relay", target,
                              Outcome.DENIED, reason="acl")
            raise ConnectionBlocked(
                f"tailnet ACL denies {sorted(node.tags)} -> {sorted(dst_tags)}:{port}"
            )
        request.headers[NODE_HEADER] = node_id
        request.headers["X-Tailnet-Owner"] = node.owner
        self.relayed += 1
        self.log_event(node.owner, "tailnet.relay", target,
                          Outcome.SUCCESS, node=node_id, port=port)
        return self.call(target, request, port=port)
