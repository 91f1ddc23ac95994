"""The Isambard user and project management portal.

§III.C: "FDS also hosts the Isambard user and project management portal
... a user in the Principle Investigator (PI) role can invite other users
to join a project in Researcher roles ... The user portal provides an API
to query the roles and level of access of a user.  This is used as part
of the identity broker's login flows."

Every route requires a broker-minted RBAC token with the right
capability; the portal is itself just another zero-trust resource server.
Revocations (member removal, project closure/expiry) propagate to the
broker through an injected ``on_revoke`` hook, so live tokens and
sessions die with the authorisation that backed them.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.audit import AuditLog, Outcome
from repro.broker.rbac import Role, require_capability
from repro.broker.tokens import RbacTokenValidator
from repro.clock import SimClock
from repro.errors import (
    AuthenticationError,
    AuthorizationError,
    QuotaExceeded,
    RegistrationError,
)
from repro.ids import IdFactory
from repro.net.http import HttpRequest, HttpResponse, Service, route
from repro.portal.accounts import UnixAccount, UnixAccountRegistry
from repro.resilience.durability import Durable, RecoveryReport
from repro.portal.models import (
    Allocation,
    Invitation,
    Membership,
    PortalUser,
    Project,
    ProjectStatus,
)

__all__ = ["UserPortal"]

INVITATION_TTL = 14 * 24 * 3600.0  # two weeks to accept an invitation


class UserPortal(Service, Durable):
    """User/project management portal and the broker's authorisation API.

    The portal's authorisation database — projects, memberships,
    invitations, users, UNIX accounts — is durable: every mutation is
    committed to the write-ahead journal, and recovery replays it without
    re-firing the ``on_revoke`` fan-out (the broker journals its own
    revocations).  Project expiry timers are re-armed after recovery;
    allocations that lapsed while the portal was down are expired
    immediately on recovery.

    Parameters
    ----------
    validator:
        RBAC token validator for audience ``"portal"`` (broker-issued).
    on_revoke:
        Callback ``(uid, project_id, unix_account)`` the deployment wires
        to the broker's token/session revocation and the cluster's
        session/job teardown, so removing authorisation also severs live
        access everywhere.
    """

    def __init__(
        self,
        name: str,
        clock: SimClock,
        ids: IdFactory,
        validator: RbacTokenValidator,
        *,
        audit: AuditLog,
        on_revoke: Optional[Callable[[str, str, str], None]] = None,
    ) -> None:
        super().__init__(name)
        self.clock = clock
        self.ids = ids
        self.validator = validator
        self.audit = audit
        self.on_revoke = on_revoke or (lambda uid, project, account: None)
        self.unix_accounts = UnixAccountRegistry()
        self.wipe_state()
        # continuous authorization: the identity graph mints the user's
        # canonical SPIFFE id at onboarding and aliases their per-project
        # UNIX accounts to it; authz_resync(uid, project, account) is the
        # idempotent re-drive verify_recovery calls for every revoked
        # membership, closing the crash window between the teardown
        # journal entry and enforcement reaching the surfaces
        self.identity_graph = None
        self.authz_resync: Optional[Callable[[str, str, str], None]] = None

    # ------------------------------------------------------------------
    # auth plumbing
    # ------------------------------------------------------------------
    def _claims(self, request: HttpRequest, capability: str) -> Dict[str, object]:
        token = request.bearer_token()
        if token is None:
            raise AuthenticationError("portal requires a bearer RBAC token")
        claims = self.validator.validate(token)
        require_capability(claims, capability)
        return claims

    def _record(self, actor: str, action: str, resource: str, outcome: str, **attrs) -> None:
        domain = zone = ""
        if self.endpoint is not None:
            domain, zone = self.endpoint.domain_label, self.endpoint.zone_label
        self.audit.record(
            self.clock.now(), self.name, actor, action, resource, outcome,
            domain=domain, zone=zone, **attrs,
        )

    # ------------------------------------------------------------------
    # allocator workflows (user story 1, first half)
    # ------------------------------------------------------------------
    @route("POST", "/projects")
    def create_project(self, request: HttpRequest) -> HttpResponse:
        """Allocator creates a project and pre-authorises the PI by email."""
        claims = self._claims(request, "project.create")
        name = str(request.body.get("name", ""))
        pi_email = str(request.body.get("pi_email", ""))
        gpu_hours = float(request.body.get("gpu_hours", 0))
        duration = float(request.body.get("duration", 90 * 24 * 3600.0))
        if not name or not pi_email or gpu_hours <= 0:
            return HttpResponse.error(400, "name, pi_email and gpu_hours required")
        now = self.clock.now()
        project_id = self.ids.next("proj")
        self.commit("portal.project", {
            "project_id": project_id, "name": name,
            "gpu_hours": gpu_hours, "start": now, "end": now + duration,
            "gpu_hours_used": 0.0, "created_by": str(claims["sub"]),
            "created_at": now, "status": ProjectStatus.ACTIVE.value,
            "members": [],
        })
        project = self._projects[project_id]
        invite_code = self._make_invitation(
            project_id, Role.PI, pi_email, invited_by=str(claims["sub"])
        )
        # the project is time-limited by construction: expiry is scheduled now
        self.clock.call_at(
            project.allocation.end, lambda pid=project.project_id: self._expire(pid)
        )
        self._record(
            str(claims["sub"]), "project.create", project.project_id, Outcome.SUCCESS,
            name=name, gpu_hours=gpu_hours,
        )
        return HttpResponse.json(
            {
                "project_id": project.project_id,
                "invite_code": invite_code,
                "expires_at": project.allocation.end,
            }
        )

    @route("POST", "/close_project")
    def close_project(self, request: HttpRequest) -> HttpResponse:
        """Allocator closes a project on demand; all access is revoked."""
        claims = self._claims(request, "project.close")
        project = self._projects.get(str(request.body.get("project_id", "")))
        if project is None:
            return HttpResponse.error(404, "no such project")
        removed = self._teardown(project, ProjectStatus.CLOSED, actor=str(claims["sub"]))
        return HttpResponse.json({"closed": project.project_id, "members_removed": removed})

    # ------------------------------------------------------------------
    # PI workflows (user stories 1 and 3)
    # ------------------------------------------------------------------
    @route("POST", "/invite")
    def invite_member(self, request: HttpRequest) -> HttpResponse:
        """A PI invites a researcher to their project.

        Only PIs hold ``project.invite`` — a researcher's token cannot
        reach this route (user story 3: "a researcher cannot invite other
        researchers"), and a PI can only invite into projects where they
        actually hold the PI role.
        """
        claims = self._claims(request, "project.invite")
        project = self._projects.get(str(request.body.get("project_id", "")))
        email = str(request.body.get("email", ""))
        if project is None:
            return HttpResponse.error(404, "no such project")
        uid = str(claims["sub"])
        member = project.member(uid)
        if member is None or member.role != Role.PI:
            self._record(uid, "project.invite", project.project_id, Outcome.DENIED)
            raise AuthorizationError(f"{uid} is not a PI of {project.project_id}")
        if project.status != ProjectStatus.ACTIVE:
            raise AuthorizationError(f"project {project.project_id} is not active")
        role = Role(str(request.body.get("role", Role.RESEARCHER.value)))
        if role != Role.RESEARCHER:
            raise AuthorizationError("PIs may only invite researchers")
        invite_code = self._make_invitation(project.project_id, role, email,
                                            invited_by=uid)
        self._record(uid, "project.invite", project.project_id, Outcome.SUCCESS, email=email)
        return HttpResponse.json({"invite_code": invite_code})

    @route("POST", "/revoke_member")
    def revoke_member(self, request: HttpRequest) -> HttpResponse:
        """PI removes a researcher; their authorisation and access die."""
        claims = self._claims(request, "project.revoke_member")
        project = self._projects.get(str(request.body.get("project_id", "")))
        target = str(request.body.get("uid", ""))
        if project is None:
            return HttpResponse.error(404, "no such project")
        actor = str(claims["sub"])
        actor_m = project.member(actor)
        if actor_m is None or actor_m.role != Role.PI:
            raise AuthorizationError(f"{actor} is not a PI of {project.project_id}")
        target_m = project.member(target)
        if target_m is None:
            return HttpResponse.error(404, "no such member")
        if target_m.role == Role.PI and target == actor:
            raise AuthorizationError("a PI cannot remove themselves; ask the allocator")
        self._remove_member(project, target)
        self._record(actor, "project.revoke_member", project.project_id,
                     Outcome.SUCCESS, target=target)
        return HttpResponse.json({"revoked": target, "project_id": project.project_id})

    # ------------------------------------------------------------------
    # invitation redemption (authorisation-led registration, second half)
    # ------------------------------------------------------------------
    @route("POST", "/invitations/accept")
    def accept_invitation(self, request: HttpRequest) -> HttpResponse:
        """Redeem an invitation; bind the federated identity to the project.

        The caller's token proves who they are (authenticated uid + email
        from the broker); the invitation proves they were authorised in
        advance.  The email in the invitation must match the identity.
        """
        claims = self._claims(request, "invitation.accept")
        code = str(request.body.get("code", ""))
        preferred = str(request.body.get("preferred_username", "user"))
        invitation = self._invitations.get(code)
        now = self.clock.now()
        uid = str(claims["sub"])
        if invitation is None or not invitation.pending(now):
            self._record(uid, "invitation.accept", code, Outcome.DENIED,
                         reason="unknown-or-expired")
            raise RegistrationError("invitation is unknown, expired or already used")
        email = str(claims.get("email", ""))
        if email.lower() != invitation.email.lower():
            self._record(uid, "invitation.accept", code, Outcome.DENIED,
                         reason="email-mismatch")
            raise RegistrationError(
                "invitation was issued to a different email address"
            )
        project = self._projects[invitation.project_id]
        if project.status != ProjectStatus.ACTIVE:
            raise RegistrationError(f"project {project.project_id} is not active")
        account = self.unix_accounts.allocate(uid, project.project_id, preferred)
        username = account["username"]
        self.commit("portal.accept", {
            "code": code,
            "membership": {
                "uid": uid, "project_id": project.project_id,
                "role": invitation.role.value, "unix_account": username,
                "granted_by": invitation.invited_by, "granted_at": now,
                "revoked": False,
            },
            "account": account,
            "user": {"uid": uid, "email": email,
                     "name": str(claims.get("name", "")), "first_seen": now},
        })
        extra_audit: Dict[str, object] = {}
        if self.identity_graph is not None:
            # onboarding mints the canonical identity and binds the new
            # UNIX account as an alias, so revocation by federated uid
            # reaches sessions opened under the per-project account
            extra_audit["spiffe_id"] = self.identity_graph.principal(uid)
            self.identity_graph.bind_account(username, uid)
        self._record(uid, "invitation.accept", project.project_id, Outcome.SUCCESS,
                     role=str(invitation.role), unix_account=username,
                     **extra_audit)
        return HttpResponse.json(
            {
                "project_id": project.project_id,
                "role": invitation.role.value,
                "unix_account": username,
            }
        )

    # ------------------------------------------------------------------
    # the broker's authorisation API
    # ------------------------------------------------------------------
    @route("GET", "/authz")
    def authz(self, request: HttpRequest) -> HttpResponse:
        """Roles and level of access of a user — the identity broker calls
        this during every login flow (service token required)."""
        self._claims(request, "authz.query")
        uid = request.query.get("uid", "")
        email = request.query.get("email", "").lower()
        roles: List[Dict[str, object]] = []
        now = self.clock.now()
        for project_id in self._projects_of.get(uid, ()):
            project = self._projects[project_id]
            if project.status != ProjectStatus.ACTIVE:
                continue
            m = project.member(uid)
            if m is not None:
                roles.append(
                    {
                        "project_id": project.project_id,
                        "project_name": project.name,
                        "role": m.role.value,
                        "unix_account": m.unix_account,
                        "expires_at": project.allocation.end,
                    }
                )
        pending = [
            {"project_id": inv.project_id, "role": inv.role.value}
            for inv in self._invitations_for.get(email, {}).values()
            if inv.pending(now)
        ]
        return HttpResponse.json(
            {"uid": uid, "roles": roles, "pending_invitations": pending}
        )

    @route("GET", "/project")
    def project_detail(self, request: HttpRequest) -> HttpResponse:
        """Project view for its PI (usage visibility, member list)."""
        claims = self._claims(request, "project.view_usage")
        project = self._projects.get(request.query.get("project_id", ""))
        if project is None:
            return HttpResponse.error(404, "no such project")
        uid = str(claims["sub"])
        m = project.member(uid)
        if m is None or m.role != Role.PI:
            raise AuthorizationError("only the project PI may view project detail")
        return HttpResponse.json(
            {
                "project_id": project.project_id,
                "name": project.name,
                "status": project.status.value,
                "gpu_hours": project.allocation.gpu_hours,
                "gpu_hours_used": project.allocation.gpu_hours_used,
                "expires_at": project.allocation.end,
                "members": [
                    {"uid": mm.uid, "role": mm.role.value, "unix_account": mm.unix_account}
                    for mm in project.active_members()
                ],
            }
        )

    @route("GET", "/usage")
    def usage_report(self, request: HttpRequest) -> HttpResponse:
        """Allocator-wide usage report across all projects (the Waldur /
        Puhuri reporting surface backing national allocation reviews)."""
        self._claims(request, "project.view_all")
        now = self.clock.now()
        projects = []
        for p in sorted(self._projects.values(), key=lambda x: x.project_id):
            alloc = p.allocation
            projects.append(
                {
                    "project_id": p.project_id,
                    "name": p.name,
                    "status": p.status.value,
                    "gpu_hours": alloc.gpu_hours,
                    "gpu_hours_used": alloc.gpu_hours_used,
                    "utilisation": (alloc.gpu_hours_used / alloc.gpu_hours
                                    if alloc.gpu_hours else 0.0),
                    "members": len(p.active_members()),
                    "days_remaining": max(0.0, (alloc.end - now) / 86_400.0),
                }
            )
        return HttpResponse.json(
            {
                "projects": projects,
                "totals": {
                    "active_projects": sum(
                        1 for p in self._projects.values()
                        if p.status == ProjectStatus.ACTIVE),
                    "gpu_hours_allocated": sum(
                        p.allocation.gpu_hours for p in self._projects.values()),
                    "gpu_hours_used": sum(
                        p.allocation.gpu_hours_used
                        for p in self._projects.values()),
                    "registered_users": len(self._users),
                },
            }
        )

    # ------------------------------------------------------------------
    # programmatic API (used by the scheduler and the deployment)
    # ------------------------------------------------------------------
    def project(self, project_id: str) -> Optional[Project]:
        return self._projects.get(project_id)

    def projects(self) -> List[Project]:
        return list(self._projects.values())

    def record_usage(self, project_id: str, gpu_hours: float) -> None:
        """Charge usage to the allocation; raises when exhausted."""
        project = self._projects.get(project_id)
        if project is None or project.status != ProjectStatus.ACTIVE:
            raise QuotaExceeded(f"project {project_id} is not active")
        if project.allocation.remaining() < gpu_hours:
            raise QuotaExceeded(
                f"project {project_id} allocation exhausted "
                f"({project.allocation.remaining():.1f}h left, {gpu_hours:.1f}h asked)"
            )
        self.commit("portal.usage", {"project_id": project_id,
                                     "gpu_hours": gpu_hours})

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _make_invitation(
        self, project_id: str, role: Role, email: str, *, invited_by: str
    ) -> str:
        """Commit a new invitation; returns its code."""
        now = self.clock.now()
        code = self.ids.secret(20)
        self.commit("portal.invitation", {
            "code": code, "project_id": project_id, "role": role.value,
            "email": email, "invited_by": invited_by, "created_at": now,
            "expires_at": now + INVITATION_TTL, "accepted_by": None,
        })
        return code

    # GET /authz runs on every login, so it reads two indices instead of
    # scanning: a user's projects and an email's invitations, each in the
    # order ``_projects`` / ``_invitations`` hold them.
    def _reset_authz_index(self) -> None:
        self._project_seq: Dict[str, int] = {}
        self._projects_of: Dict[str, List[str]] = {}
        self._invitations_for: Dict[str, Dict[str, Invitation]] = {}

    def _add_project(self, project: Project) -> None:
        self._projects[project.project_id] = project
        self._project_seq.setdefault(project.project_id, len(self._project_seq))
        for membership in project.members.values():
            self._index_member(membership)

    def _index_member(self, membership: Membership) -> None:
        mine = self._projects_of.setdefault(membership.uid, [])
        if membership.project_id not in mine:
            mine.append(membership.project_id)
            mine.sort(key=self._project_seq.__getitem__)

    def _add_invitation(self, invitation: Invitation) -> None:
        self._invitations[invitation.code] = invitation
        self._invitations_for.setdefault(
            invitation.email.lower(), {})[invitation.code] = invitation

    def _drop_invitations(self, project_id: str) -> None:
        for code in [c for c, inv in self._invitations.items()
                     if inv.project_id == project_id]:
            invitation = self._invitations.pop(code)
            del self._invitations_for[invitation.email.lower()][code]

    def _remove_member(self, project: Project, uid: str) -> None:
        membership = project.members.get(uid)
        if membership is None or membership.revoked:
            return
        self.commit("portal.member_revoked", {
            "project_id": project.project_id, "uid": uid,
            "unix_account": membership.unix_account})
        self.on_revoke(uid, project.project_id, membership.unix_account)

    def _teardown(self, project: Project, status: ProjectStatus, *, actor: str) -> int:
        members = [m.uid for m in project.active_members()]
        for uid in members:
            self._remove_member(project, uid)
        # the teardown also drops pending invitations — "all information
        # related to the project ... is removed from the authorisation list"
        self.commit("portal.teardown", {"project_id": project.project_id,
                                        "status": status.value})
        self._record(actor, f"project.{status.value}", project.project_id,
                     Outcome.INFO, members_removed=len(members))
        return len(members)

    def _expire(self, project_id: str) -> None:
        project = self._projects.get(project_id)
        if project is None or project.status != ProjectStatus.ACTIVE:
            return
        self._teardown(project, ProjectStatus.EXPIRED, actor="scheduler")

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    @staticmethod
    def _membership_dict(m: Membership) -> Dict[str, object]:
        return {
            "uid": m.uid, "project_id": m.project_id, "role": m.role.value,
            "unix_account": m.unix_account, "granted_by": m.granted_by,
            "granted_at": m.granted_at, "revoked": m.revoked,
        }

    @staticmethod
    def _membership_from(d: Dict[str, object]) -> Membership:
        return Membership(
            uid=str(d["uid"]), project_id=str(d["project_id"]),
            role=Role(d["role"]), unix_account=str(d["unix_account"]),
            granted_by=str(d["granted_by"]),
            granted_at=float(d["granted_at"]), revoked=bool(d["revoked"]),
        )

    @staticmethod
    def _invitation_dict(inv: Invitation) -> Dict[str, object]:
        return {
            "code": inv.code, "project_id": inv.project_id,
            "role": inv.role.value, "email": inv.email,
            "invited_by": inv.invited_by, "created_at": inv.created_at,
            "expires_at": inv.expires_at, "accepted_by": inv.accepted_by,
        }

    @staticmethod
    def _invitation_from(d: Dict[str, object]) -> Invitation:
        return Invitation(
            code=str(d["code"]), project_id=str(d["project_id"]),
            role=Role(d["role"]), email=str(d["email"]),
            invited_by=str(d["invited_by"]),
            created_at=float(d["created_at"]),
            expires_at=float(d["expires_at"]),
            accepted_by=d["accepted_by"],
        )

    def _project_dict(self, project: Project) -> Dict[str, object]:
        alloc = project.allocation
        return {
            "project_id": project.project_id, "name": project.name,
            "gpu_hours": alloc.gpu_hours, "start": alloc.start,
            "end": alloc.end, "gpu_hours_used": alloc.gpu_hours_used,
            "created_by": project.created_by, "created_at": project.created_at,
            "status": project.status.value,
            "members": [self._membership_dict(m)
                        for m in project.members.values()],
        }

    def _project_from(self, d: Dict[str, object]) -> Project:
        project = Project(
            project_id=str(d["project_id"]), name=str(d["name"]),
            allocation=Allocation(
                gpu_hours=float(d["gpu_hours"]), start=float(d["start"]),
                end=float(d["end"]),
                gpu_hours_used=float(d["gpu_hours_used"]),
            ),
            created_by=str(d["created_by"]),
            created_at=float(d["created_at"]),
            status=ProjectStatus(d["status"]),
        )
        for md in d["members"]:
            m = self._membership_from(md)
            project.members[m.uid] = m
        return project

    def durable_state(self) -> Dict[str, object]:
        return {
            "projects": [self._project_dict(p)
                         for p in self._projects.values()],
            "invitations": [self._invitation_dict(i)
                            for i in self._invitations.values()],
            "users": [
                {"uid": u.uid, "email": u.email, "name": u.name,
                 "first_seen": u.first_seen, "active": u.active}
                for u in self._users.values()
            ],
            "accounts": self.unix_accounts.durable_state(),
        }

    def wipe_state(self) -> None:
        self._projects: Dict[str, Project] = {}
        self._invitations: Dict[str, Invitation] = {}
        self._users: Dict[str, PortalUser] = {}
        self._reset_authz_index()
        self.unix_accounts.wipe()

    def load_state(self, state: Dict[str, object]) -> None:
        for d in state["projects"]:
            self._add_project(self._project_from(d))
        for d in state["invitations"]:
            self._add_invitation(self._invitation_from(d))
        for d in state["users"]:
            self._users[str(d["uid"])] = PortalUser(
                uid=str(d["uid"]), email=str(d["email"]),
                name=str(d["name"]), first_seen=float(d["first_seen"]),
                active=bool(d["active"]),
            )
        self.unix_accounts.load_state(state["accounts"])

    def apply_entry(self, kind: str, data: Dict[str, object]) -> None:
        """Apply one mutation, live or replayed.  It never calls
        ``on_revoke`` — the live caller does, and the broker journals its
        own revocations."""
        if kind == "portal.project":
            self._add_project(self._project_from(data))
        elif kind == "portal.invitation":
            self._add_invitation(self._invitation_from(data))
        elif kind == "portal.accept":
            membership = self._membership_from(data["membership"])
            project = self._projects.get(membership.project_id)
            if project is not None:
                project.members[membership.uid] = membership
                self._index_member(membership)
            inv = self._invitations.get(data["code"])
            if inv is not None:
                inv.accepted_by = membership.uid
            self.unix_accounts.restore_account(UnixAccount(**data["account"]))
            ud = data["user"]
            if ud["uid"] not in self._users:
                self._users[ud["uid"]] = PortalUser(**ud)
        elif kind == "portal.member_revoked":
            project = self._projects.get(data["project_id"])
            if project is not None:
                membership = project.members.get(data["uid"])
                if membership is not None:
                    membership.revoked = True
            self.unix_accounts.revoke(data["uid"], data["project_id"],
                                      data["unix_account"])
        elif kind == "portal.teardown":
            project = self._projects.get(data["project_id"])
            if project is not None:
                project.status = ProjectStatus(data["status"])
            self._drop_invitations(data["project_id"])
        elif kind == "portal.usage":
            project = self._projects.get(data["project_id"])
            if project is not None:
                project.allocation.gpu_hours_used += data["gpu_hours"]

    def verify_recovery(self, report: RecoveryReport) -> None:
        """Re-arm project expiry timers (crash-restart loses scheduled
        callbacks); allocations that lapsed while the portal was down
        expire immediately."""
        now = self.clock.now()
        for project in list(self._projects.values()):
            if project.status != ProjectStatus.ACTIVE:
                continue
            if project.allocation.end > now:
                self.clock.call_at(
                    project.allocation.end,
                    lambda pid=project.project_id: self._expire(pid))
            else:
                self._expire(project.project_id)
        # continuous authorization resync: journal replay restores the
        # *facts* (membership revoked, project closed) but deliberately
        # never re-fires on_revoke.  If the pre-crash process died after
        # publishing the teardown entry but before enforcement ran, those
        # sessions are orphans — re-drive every revoked membership
        # through the pipeline now; teardown is idempotent, so members
        # already revoked everywhere are a no-op.
        if self.authz_resync is not None:
            for project in self._projects.values():
                closed = project.status != ProjectStatus.ACTIVE
                for m in project.members.values():
                    if m.revoked or closed:
                        self.authz_resync(m.uid, project.project_id,
                                          m.unix_account)
