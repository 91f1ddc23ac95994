"""Roles and capabilities for role-based access control.

The paper introduces "three levels of RBAC ... at the identity management
layer depending on the level of access: Researcher, Principle
Investigator (PI), and Administrator", plus an Allocator role in user
story 1 and distinct administrator roles for infrastructure and security
(§III: "access is only via authenticated Administrator identities
adopting time-limited administrator/security roles").

Crucially, "RBAC is not global and is managed per service": a role maps
to *capabilities*, tokens carry capabilities scoped to one audience
(service), and there is "no such concept as a global admin or root on all
services".
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet

from repro.errors import AuthorizationError

__all__ = ["Role", "capabilities_for", "require_capability", "CAPABILITIES"]


class Role(str, enum.Enum):
    """The access roles of the Isambard IAM design."""

    RESEARCHER = "researcher"
    PI = "pi"
    ALLOCATOR = "allocator"
    ADMIN_INFRA = "admin-infra"      # management-plane operations
    ADMIN_SECURITY = "admin-security"  # SOC / kill-switch operations
    SERVICE = "service"              # server-to-server (broker <-> portal)
    INVITEE = "invitee"              # authorised to register, nothing else

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_RESEARCHER_CAPS = frozenset(
    {"cluster.login", "jupyter.use", "job.submit", "storage.use"}
)

CAPABILITIES: Dict[Role, FrozenSet[str]] = {
    Role.RESEARCHER: _RESEARCHER_CAPS,
    Role.PI: _RESEARCHER_CAPS
    | frozenset({"project.invite", "project.revoke_member", "project.view_usage"}),
    Role.ALLOCATOR: frozenset(
        {"project.create", "project.close", "allocation.set", "project.view_all"}
    ),
    Role.ADMIN_INFRA: frozenset(
        {"tailnet.join", "mgmt.access", "cluster.admin", "inventory.read"}
    ),
    Role.ADMIN_SECURITY: frozenset(
        {"soc.view", "logs.read", "killswitch.trigger", "inventory.read",
         "tailnet.join"}
    ),
    Role.SERVICE: frozenset({"authz.query", "token.revoke", "ca.sign"}),
    Role.INVITEE: frozenset({"invitation.accept"}),
}


def capabilities_for(role: Role | str) -> FrozenSet[str]:
    """The capability set a role grants.  Unknown roles grant nothing."""
    if not isinstance(role, Role):
        try:
            role = Role(role)
        except ValueError:
            return frozenset()
    return CAPABILITIES.get(role, frozenset())


def require_capability(claims: Dict[str, object], capability: str) -> None:
    """Assert that validated token claims grant ``capability``.

    Services call this after JWT validation — the enforcement point for
    least privilege.  Raises :class:`AuthorizationError` otherwise.
    """
    caps = claims.get("caps", [])
    if not isinstance(caps, (list, tuple)) or capability not in caps:
        raise AuthorizationError(
            f"token for {claims.get('sub')!r} lacks capability {capability!r} "
            f"(role={claims.get('role')!r})"
        )
