"""Cluster hardware model and the management-plane node service.

Isambard-AI phase 1 is 168 Grace-Hopper superchips; Isambard 3 is 384
Grace-Grace superchips.  The simulation models nodes as schedulable
resources (for Slurm and the Jupyter spawner) plus a management node in
the Management zone that accepts privileged operations **only** from the
tailnet, with an admin RBAC token, per user story 5: "it establishes
segmentation and enforces policies at each level for accessing the
management plane of a cluster".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.audit import AuditLog, Outcome
from repro.broker.rbac import require_capability
from repro.broker.tokens import RbacTokenValidator
from repro.clock import SimClock
from repro.errors import AuthenticationError, AuthorizationError, SchedulerError
from repro.net.http import HttpRequest, HttpResponse, Service, route
from repro.tunnels.tailnet import NODE_HEADER

__all__ = ["ComputeNode", "NodePool", "ManagementNode"]


@dataclass
class ComputeNode:
    """One superchip node."""

    node_id: str
    kind: str  # "grace-hopper" (AI) or "grace-grace" (HPC)
    gpus: int
    up: bool = True
    allocated_to: Optional[str] = None  # job or jupyter session id

    @property
    def free(self) -> bool:
        return self.up and self.allocated_to is None


class NodePool:
    """The cluster's node inventory with allocate/release bookkeeping."""

    def __init__(self, prefix: str, kind: str, count: int, *, gpus_per_node: int = 4) -> None:
        self._nodes: Dict[str, ComputeNode] = {
            f"{prefix}-{i:04d}": ComputeNode(
                node_id=f"{prefix}-{i:04d}", kind=kind, gpus=gpus_per_node
            )
            for i in range(count)
        }

    def nodes(self) -> List[ComputeNode]:
        return list(self._nodes.values())

    def node(self, node_id: str) -> Optional[ComputeNode]:
        return self._nodes.get(node_id)

    def free_nodes(self) -> List[ComputeNode]:
        return [n for n in self._nodes.values() if n.free]

    def allocate(self, count: int, owner: str) -> List[ComputeNode]:
        """Grab ``count`` free nodes for ``owner`` or raise SchedulerError."""
        free = self.free_nodes()
        if len(free) < count:
            raise SchedulerError(
                f"requested {count} nodes, only {len(free)} free"
            )
        taken = free[:count]
        for node in taken:
            node.allocated_to = owner
        return taken

    def release(self, owner: str) -> int:
        n = 0
        for node in self._nodes.values():
            if node.allocated_to == owner:
                node.allocated_to = None
                n += 1
        return n

    def set_up(self, node_id: str, up: bool) -> None:
        node = self._nodes.get(node_id)
        if node is None:
            raise SchedulerError(f"no node {node_id!r}")
        node.up = up

    def utilisation(self) -> float:
        nodes = self.nodes()
        busy = sum(1 for n in nodes if n.allocated_to is not None)
        return busy / len(nodes) if nodes else 0.0


class ManagementNode(Service):
    """The cluster's admin plane.

    Requests must (a) arrive via the tailnet relay — the segmented
    network makes any other path impossible, and the relay header proves
    which enrolled device originated it — and (b) carry an admin RBAC
    token with ``mgmt.access`` scoped to this node's audience.  Two
    independent layers, per the paper's "separate access control list on
    the cluster level and additional controls".
    """

    def __init__(
        self,
        name: str,
        clock: SimClock,
        validator: RbacTokenValidator,
        pool: NodePool,
        *,
        audit: AuditLog,
        policy=None,
    ) -> None:
        super().__init__(name)
        self.clock = clock
        self.validator = validator
        self.pool = pool
        self.audit = audit
        # optional dynamic-policy engine (tenet 4): evaluated on top of
        # token validation, so posture rules can deny a formally valid token
        self.policy = policy
        self.operations_log: List[Dict[str, object]] = []

    def _authorise(self, request: HttpRequest) -> Dict[str, object]:
        node = request.headers.get(NODE_HEADER)
        if not node:
            self.log_event("unknown", "mgmt.access", "",
                Outcome.DENIED, reason="not-via-tailnet",
            )
            raise AuthenticationError(
                "management plane is reachable only through the admin tailnet"
            )
        token = request.bearer_token()
        if token is None:
            raise AuthenticationError("management operations require an RBAC token")
        claims = self.validator.validate(token)
        require_capability(claims, "mgmt.access")
        if self.policy is not None:
            from repro.policy.engine import AccessContext

            self.policy.enforce(AccessContext(
                subject=str(claims["sub"]),
                role=str(claims.get("role", "")),
                capability="mgmt.access",
                resource=self.name,
                zone="management",
                domain="mdc",
                device_trusted=bool(node),
                mfa_methods=tuple(claims.get("amr", []) or ()),
                loa=int(claims.get("loa", 0) or 0),
                time=self.clock.now(),
            ))
        return claims

    @route("POST", "/operate")
    def operate(self, request: HttpRequest) -> HttpResponse:
        """Perform a privileged operation (drain/resume a node, etc.)."""
        claims = self._authorise(request)
        operation = str(request.body.get("operation", ""))
        target = str(request.body.get("target", ""))
        actor = str(claims["sub"])
        if operation == "drain_node":
            self.pool.set_up(target, False)
        elif operation == "resume_node":
            self.pool.set_up(target, True)
        elif operation == "status":
            pass
        else:
            raise AuthorizationError(f"unknown privileged operation {operation!r}")
        entry = {
            "time": self.clock.now(), "actor": actor,
            "operation": operation, "target": target,
            "via_node": request.headers.get(NODE_HEADER, ""),
        }
        self.operations_log.append(entry)
        self.log_event(actor, f"mgmt.{operation}",
            target or "*", Outcome.SUCCESS,
            via=request.headers.get(NODE_HEADER, ""),
        )
        return HttpResponse.json(
            {
                "operation": operation,
                "target": target,
                "nodes_up": sum(1 for n in self.pool.nodes() if n.up),
                "nodes_total": len(self.pool.nodes()),
                "utilisation": self.pool.utilisation(),
            }
        )
