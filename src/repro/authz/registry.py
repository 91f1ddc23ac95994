"""The session registry: every live grant, keyed by canonical identity.

The paper's zero-trust co-design demands that trust be *continuously*
verified — which is only possible if the system knows what it has
granted.  :class:`SessionRegistry` is that index: RBAC tokens, issued
SSH certificates, open SSH sessions, Zenith tunnel routes and web
sessions, Jupyter servers and Slurm jobs are each held as a
:class:`Grant` under the owning principal's (or workload's) SPIFFE id,
grouped under the four enforcement surfaces the revocation pipeline
fans out to.

It holds a grant only while the grant is live.  The surface that issued
a grant ends it (``close`` when it revokes, kills, cancels or finishes
one), and a query drops the grants it finds expired, so after every
re-evaluation sweep the registry holds exactly what the surfaces hold.

The registry is intentionally *not* durable: it is a cached index of
state the enforcement points themselves own durably (the broker journals
its tokens, the CA its serials, the portal its memberships).  What must
survive a crash is the revocation *intent*, and that lives in the
pipeline's journaled outbox.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.clock import SimClock
from repro.errors import ConfigurationError

from repro.authz.config import SURFACES
from repro.authz.identity import IdentityGraph

__all__ = ["Grant", "SessionRegistry"]


@dataclass
class Grant:
    """One live authorisation artefact at one enforcement surface."""

    kind: str          # rbac-token | ssh-cert | ssh-session | tunnel |
                       # web-session | jupyter | slurm-job
    surface: str       # tokens | ssh | tunnels | compute
    spiffe_id: str
    subject: str       # the surface's own subject dialect (uid/account/...)
    resource: str      # jti, serial, session id, service name, job id
    expires_at: Optional[float] = None

    def live(self, now: float) -> bool:
        return self.expires_at is None or now < self.expires_at


class SessionRegistry:
    """Holds every live grant; the revocation pipeline's working set."""

    def __init__(self, clock: SimClock, *,
                 graph: Optional[IdentityGraph] = None,
                 trust_domain: str = "isambard.example") -> None:
        self.clock = clock
        self.graph = graph if graph is not None else IdentityGraph(trust_domain)
        # (kind, resource) -> grant, so re-registrations (tunnel
        # heartbeats) refresh in place instead of duplicating
        self._grants: Dict[Tuple[str, str], Grant] = {}

    def track(self, kind: str, surface: str, subject: str, resource: str, *,
              expires_at: Optional[float] = None,
              workload: bool = False) -> Grant:
        """Hold (or refresh) one grant.  ``subject`` may be any dialect
        the surface speaks — the graph resolves it to the canonical id."""
        if surface not in SURFACES:
            raise ConfigurationError(
                f"unknown enforcement surface {surface!r}; "
                f"expected one of {SURFACES}")
        spiffe = self.graph.identity_of(subject, workload=workload)
        grant = self._grants.get((kind, resource))
        if grant is None:
            grant = self._grants[(kind, resource)] = Grant(
                kind=kind, surface=surface, spiffe_id=spiffe,
                subject=subject, resource=resource)
        grant.expires_at = expires_at
        return grant

    def close(self, kind: str, resource: str) -> bool:
        """Drop one grant its surface ended; False if none was held."""
        return self._grants.pop((kind, resource), None) is not None

    def live_grants(self, spiffe_id: Optional[str] = None) -> List[Grant]:
        """Every live grant (of one identity), dropping the expired."""
        now = self.clock.now()
        for key in [k for k, g in self._grants.items() if not g.live(now)]:
            del self._grants[key]
        return [g for g in self._grants.values()
                if spiffe_id is None or g.spiffe_id == spiffe_id]

    def identities_with_live_grants(self) -> List[str]:
        """Sorted for deterministic re-evaluation order."""
        return sorted({g.spiffe_id for g in self.live_grants()})

    def surfaces_of(self, spiffe_id: str) -> List[str]:
        """Which surfaces hold live grants for an identity (SURFACES order)."""
        live = {g.surface for g in self.live_grants(spiffe_id)}
        return [s for s in SURFACES if s in live]
