"""Domain model of the user and project management portal.

Projects are "time and resource limited" (user story 1): every project
carries an :class:`Allocation` with a hard end time and GPU-hour budget.
Memberships bind a user (by their federated uid) to a project in a role;
invitations are the *pre-authorisation* objects that make
authorisation-led registration possible — the ACL entry exists before the
user has ever logged in.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.broker.rbac import Role

__all__ = [
    "Allocation",
    "ProjectStatus",
    "Membership",
    "Invitation",
    "Project",
    "PortalUser",
]


@dataclass
class Allocation:
    """Time- and resource-limited grant backing a project."""

    gpu_hours: float
    start: float
    end: float
    gpu_hours_used: float = 0.0

    def remaining(self) -> float:
        return max(0.0, self.gpu_hours - self.gpu_hours_used)


class ProjectStatus(str, enum.Enum):
    ACTIVE = "active"
    EXPIRED = "expired"
    CLOSED = "closed"


@dataclass
class Membership:
    """A user's role in one project, itself time-limited."""

    uid: str
    project_id: str
    role: Role
    unix_account: str
    granted_by: str
    granted_at: float
    revoked: bool = False


@dataclass
class Invitation:
    """Pre-authorisation for an email address to join a project in a role."""

    code: str
    project_id: str
    role: Role
    email: str
    invited_by: str
    created_at: float
    expires_at: float
    accepted_by: Optional[str] = None  # uid once redeemed

    def pending(self, now: float) -> bool:
        return self.accepted_by is None and now < self.expires_at


@dataclass
class Project:
    """A research project with its allocation and membership list."""

    project_id: str
    name: str
    allocation: Allocation
    created_by: str
    created_at: float
    status: ProjectStatus = ProjectStatus.ACTIVE
    members: Dict[str, Membership] = field(default_factory=dict)  # uid -> membership

    def active_members(self) -> List[Membership]:
        return [m for m in self.members.values() if not m.revoked]

    def member(self, uid: str) -> Optional[Membership]:
        m = self.members.get(uid)
        return m if m is not None and not m.revoked else None


@dataclass
class PortalUser:
    """A user known to the portal (first seen at invitation redemption)."""

    uid: str
    email: str
    name: str
    first_seen: float
    active: bool = True
