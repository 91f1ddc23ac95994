"""The session registry: every live grant, keyed by canonical identity.

The paper's zero-trust co-design demands that trust be *continuously*
verified — which is only possible if the system knows what it has
granted.  :class:`SessionRegistry` is that ledger: RBAC tokens, issued
SSH certificates, open SSH sessions, Zenith tunnel routes and web
sessions, Jupyter servers and Slurm jobs are all tracked as
:class:`Grant` records keyed by the owning principal's (or workload's)
SPIFFE id, grouped under the four enforcement surfaces the revocation
pipeline fans out to.

The registry is intentionally *not* durable: it is a cached index of
state the enforcement points themselves own durably (the broker journals
its tokens, the CA its serials, the portal its memberships).  What must
survive a crash is the revocation *intent*, and that lives in the
pipeline's journaled outbox.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.clock import SimClock
from repro.errors import ConfigurationError

from repro.authz.config import SURFACES
from repro.authz.identity import IdentityGraph

__all__ = ["Grant", "SessionRegistry"]


@dataclass
class Grant:
    """One live authorisation artefact at one enforcement surface."""

    grant_id: str
    kind: str          # rbac-token | ssh-cert | ssh-session | tunnel |
                       # web-session | jupyter | slurm-job
    surface: str       # tokens | ssh | tunnels | compute
    spiffe_id: str
    subject: str       # the surface's own subject dialect (uid/account/...)
    resource: str      # jti, serial, session id, service name, job id
    project: Optional[str] = None
    granted_at: float = 0.0
    expires_at: Optional[float] = None
    revoked_at: Optional[float] = None
    revoke_reason: str = ""

    def live(self, now: float) -> bool:
        if self.revoked_at is not None:
            return False
        return self.expires_at is None or now < self.expires_at


class SessionRegistry:
    """Tracks every live grant; the revocation pipeline's working set."""

    def __init__(self, clock: SimClock, *,
                 graph: Optional[IdentityGraph] = None,
                 trust_domain: str = "isambard.example") -> None:
        self.clock = clock
        self.graph = graph if graph is not None else IdentityGraph(trust_domain)
        self._grants: Dict[str, Grant] = {}
        # (kind, resource) -> grant_id, so re-registrations (tunnel
        # heartbeats) update in place instead of duplicating
        self._by_resource: Dict[Tuple[str, str], str] = {}
        self._next = 0
        self.tracked = 0
        self.closed = 0

    # ------------------------------------------------------------- tracking
    def track(self, kind: str, surface: str, subject: str, resource: str, *,
              project: Optional[str] = None,
              expires_at: Optional[float] = None,
              workload: bool = False) -> Grant:
        """Record (or refresh) one grant.  ``subject`` may be any dialect
        the surface speaks — the graph resolves it to the canonical id."""
        if surface not in SURFACES:
            raise ConfigurationError(
                f"unknown enforcement surface {surface!r}; "
                f"expected one of {SURFACES}")
        spiffe = self.graph.identity_of(subject, workload=workload)
        existing_id = self._by_resource.get((kind, resource))
        if existing_id is not None:
            grant = self._grants[existing_id]
            # refresh, and un-revoke only if re-granted by a new actor
            # flow (a heartbeat after a kill stays dead until restored)
            if grant.revoked_at is None:
                grant.expires_at = expires_at
                return grant
        self._next += 1
        grant = Grant(
            grant_id=f"grant-{self._next}",
            kind=kind, surface=surface, spiffe_id=spiffe, subject=subject,
            resource=resource, project=project,
            granted_at=self.clock.now(), expires_at=expires_at,
        )
        self._grants[grant.grant_id] = grant
        self._by_resource[(kind, resource)] = grant.grant_id
        self.tracked += 1
        return grant

    # ------------------------------------------------------------- closing
    def close(self, kind: str, resource: str, *, reason: str = "") -> bool:
        """Mark one grant revoked (idempotent)."""
        grant_id = self._by_resource.get((kind, resource))
        if grant_id is None:
            return False
        grant = self._grants[grant_id]
        if grant.revoked_at is not None:
            return False
        grant.revoked_at = self.clock.now()
        grant.revoke_reason = reason
        self.closed += 1
        return True

    def close_surface(self, spiffe_id: str, surface: str, *,
                      reason: str = "", project: Optional[str] = None) -> int:
        """Mark every live grant of an identity at one surface revoked."""
        now = self.clock.now()
        n = 0
        for grant in self._grants.values():
            if grant.spiffe_id != spiffe_id or grant.surface != surface:
                continue
            if project is not None and grant.project != project:
                continue
            if not grant.live(now):
                continue
            grant.revoked_at = now
            grant.revoke_reason = reason
            self.closed += 1
            n += 1
        return n

    # -------------------------------------------------------------- queries
    def live_grants(self, spiffe_id: Optional[str] = None, *,
                    surface: Optional[str] = None,
                    project: Optional[str] = None) -> List[Grant]:
        now = self.clock.now()
        return [
            g for g in self._grants.values()
            if g.live(now)
            and (spiffe_id is None or g.spiffe_id == spiffe_id)
            and (surface is None or g.surface == surface)
            and (project is None or g.project == project)
        ]

    def identities_with_live_grants(self) -> List[str]:
        """Sorted for deterministic re-evaluation order."""
        now = self.clock.now()
        return sorted({g.spiffe_id for g in self._grants.values()
                       if g.live(now)})

    def surfaces_of(self, spiffe_id: str) -> List[str]:
        """Which surfaces hold live grants for an identity (SURFACES order)."""
        live = {g.surface for g in self.live_grants(spiffe_id)}
        return [s for s in SURFACES if s in live]
