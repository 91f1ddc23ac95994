"""The session registry: every live grant, keyed by canonical identity.

The paper's zero-trust co-design demands that trust be *continuously*
verified — which is only possible if the system knows what it has
granted.  :class:`SessionRegistry` answers that question by reading the
enforcement surfaces themselves: RBAC tokens, issued SSH certificates,
open SSH sessions, Zenith tunnel routes and web sessions, Jupyter
servers and Slurm jobs are each read as a :class:`Grant` under the
owning principal's (or workload's) SPIFFE id, grouped under the four
enforcement surfaces the revocation pipeline fans out to.

It keeps no copy.  Each surface says what it holds live (``grants``,
next to the state it reads, and next to the ``sever`` every teardown
calls), and every query walks ``dri.surfaces()`` as it is at call time
— the list the deployment's one sever walks too — so a revoked,
killed, cancelled or expired grant is gone the moment its surface lets
it go, and a standby promoted by failover is read the moment it serves.
What must survive a crash is the surfaces' own journaled state and the
revocation *intent* in the pipeline's outbox; there is nothing here to
recover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.authz.config import SURFACES
from repro.authz.identity import IdentityGraph

__all__ = ["Grant", "SessionRegistry"]


@dataclass(frozen=True)
class Grant:
    """One live authorisation artefact at one enforcement surface."""

    kind: str          # rbac-token | sso-session | access-token |
                       # ssh-cert | ssh-session | tunnel | web-session |
                       # jupyter | slurm-job
    surface: str       # tokens | ssh | tunnels | compute
    spiffe_id: str
    subject: str       # the surface's own subject dialect (uid/account/...)
    resource: str      # jti, serial, session id, service name, job id
    expires_at: Optional[float] = None


class SessionRegistry:
    """Reads every live grant off the deployment's enforcement surfaces;
    the revocation pipeline's working set.

    A surface's ``grants(now, skip=())`` yields ``(kind, resource,
    subject, expires_at, workload)`` for every grant it holds live at
    ``now``, passing over a user grant whose subject is in ``skip``.
    The re-evaluation sweep passes the set of subjects it is filling, so
    a subject holding many grants costs one tuple and one resolution.
    """

    def __init__(self, dri, graph: IdentityGraph) -> None:
        self.dri = dri
        self.graph = graph

    def live_grants(self, spiffe_id: Optional[str] = None) -> List[Grant]:
        """Every live grant (of one identity)."""
        now, out = self.dri.clock.now(), []
        for surface, holder in self.dri.surfaces():
            for kind, resource, subject, expires_at, workload in (
                    holder.grants(now)):
                spiffe = self.graph.identity_of(subject, workload=workload)
                if spiffe_id is None or spiffe == spiffe_id:
                    out.append(Grant(kind, surface, spiffe, subject,
                                     resource, expires_at))
        return out

    def identities_with_live_grants(self) -> List[str]:
        """Sorted for deterministic re-evaluation order.  Each distinct
        subject is resolved once, and no :class:`Grant` is built."""
        now, users, workloads = self.dri.clock.now(), set(), set()
        # the token service last: most of its holders are seen by then
        for _, holder in reversed(self.dri.surfaces()):
            for _, _, subject, _, workload in holder.grants(now, users):
                (workloads if workload else users).add(subject)
        return sorted(self.graph.identities(users, workloads))

    def surfaces_of(self, spiffe_id: str) -> List[str]:
        """Which surfaces hold live grants for an identity (SURFACES order)."""
        live = {g.surface for g in self.live_grants(spiffe_id)}
        return [s for s in SURFACES if s in live]

    # perf/trace.py attributes registry time by these two names; nothing
    # writes the registry any more, so they name nothing until its
    # target list names the reads above
    track = close = None
