"""The identity broker — the central service of the Access zone.

§III.C: "The central service running in FDS is an identity broker.  It
authenticates users via external Identity Providers (IdPs), and then
generates RBAC tokens using those authenticated identities."

Concretely the broker is:

* a downstream **relying party** of every upstream IdP (MyAccessID, the
  last-resort IdP, the cloud admin IdP);
* an **OIDC provider** to every Isambard application (portal web UI,
  SSH certificate client, Zenith auth shim);
* the minting point for audience-scoped **RBAC tokens** via its
  :class:`~repro.broker.tokens.TokenService`;
* the enforcement point for **authorisation-led registration**: after an
  upstream authentication succeeds, the broker queries the portal's
  authz API, and an identity with neither a role nor a pending
  invitation is refused a session outright.

The ``/login`` route is Fig. 2: the provider-choice page with the policy
links.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.audit import AuditLog, Outcome
from repro.broker.rbac import Role
from repro.broker.tokens import TokenService
from repro.clock import SimClock
from repro.errors import (
    AuthenticationError,
    AuthorizationError,
    RegistrationError,
    TokenRevoked,
)
from repro.ids import IdFactory
from repro.net.http import HttpRequest, HttpResponse, route
from repro.oidc.client import RelyingParty
from repro.oidc.messages import ClientConfig, make_url
from repro.oidc.provider import OidcProvider

__all__ = ["UpstreamIdP", "IdentityBroker"]


@dataclass
class UpstreamIdP:
    """One entry on the Fig. 2 login page."""

    upstream_id: str       # short id, e.g. "myaccessid"
    label: str             # e.g. "University Login (MyAccessID)"
    endpoint: str          # network endpoint name of the provider
    kind: str              # "federated" | "lastresort" | "admin"
    rp: RelyingParty


class IdentityBroker(OidcProvider):
    """Identity broker for the Isambard DRIs (see module docstring)."""

    POLICY_LINKS = {
        "privacy_policy": "https://docs.isambard.example/privacy",
        "terms_of_use": "https://docs.isambard.example/terms",
        "information_security": "https://docs.isambard.example/infosec",
        "help": "https://docs.isambard.example/help/logins",
        "contact": "mailto:support@isambard.example",
    }

    def __init__(
        self,
        name: str,
        clock: SimClock,
        ids: IdFactory,
        *,
        audit: AuditLog,
        portal_endpoint: str = "portal",
        session_ttl: float = 3600.0,
        rbac_default_ttl: float = 900.0,
        rbac_max_ttl: float = 3600.0,
        admin_max_auth_age: float = 1800.0,
    ) -> None:
        super().__init__(name, clock, ids, audit=audit, session_ttl=session_ttl)
        self.portal_endpoint = portal_endpoint
        self.ssh_ca_endpoint = "ssh-ca"
        self.ssh_cert_ttl = 4 * 3600.0
        # §II.C: re-authentication is enforced "as per the policy
        # (time-based, new resource requested...)" — administrative
        # tokens require an authentication no older than this.
        self.admin_max_auth_age = admin_max_auth_age
        # the token service commits through the broker's journal; a
        # fenced ex-primary therefore aborts mints before registering them
        self.tokens = TokenService(
            clock, ids, self.key, self.issuer, commit=self.commit,
            audit=self.audit, default_ttl=rbac_default_ttl, max_ttl=rbac_max_ttl,
        )
        self._upstreams: Dict[str, UpstreamIdP] = {}
        self._login_states: Dict[str, str] = {}  # oauth state -> upstream_id
        self._admin_roles: Dict[str, Set[Role]] = {}  # upstream sub -> roles

    # ------------------------------------------------------------------
    # wiring (done by the deployment builder)
    # ------------------------------------------------------------------
    def add_upstream(
        self,
        upstream_id: str,
        label: str,
        endpoint: str,
        client_cfg: ClientConfig,
        *,
        kind: str = "federated",
    ) -> None:
        """Register an upstream IdP the broker can authenticate against.

        ``client_cfg`` is this broker's client registration *at* that
        upstream (its redirect URI must be our ``/login/callback``).
        """
        rp = RelyingParty(self, endpoint, client_cfg, self.clock, self.ids)
        self._upstreams[upstream_id] = UpstreamIdP(
            upstream_id=upstream_id, label=label, endpoint=endpoint, kind=kind, rp=rp
        )

    def grant_admin_role(self, upstream_sub: str, role: Role) -> None:
        """Authorise an admin-IdP identity for a time-limited admin role.

        This is the per-service access-control list of user story 2 —
        being in the admin IdP alone grants nothing.
        """
        if role not in (Role.ADMIN_INFRA, Role.ADMIN_SECURITY, Role.ALLOCATOR):
            raise AuthorizationError(f"{role} is not an administrative role")
        self.commit("broker.admin_grant", {"sub": upstream_sub, "role": role.value})

    def revoke_admin_role(self, upstream_sub: str, role: Optional[Role] = None) -> None:
        if upstream_sub not in self._admin_roles:
            return
        self.commit("broker.admin_revoke", {
            "sub": upstream_sub, "role": None if role is None else role.value})
        self.sever(upstream_sub, "broker")

    # ------------------------------------------------------------------
    # Fig. 2: the login page and upstream brokering
    # ------------------------------------------------------------------
    @route("GET", "/login")
    def login_page(self, request: HttpRequest) -> HttpResponse:
        """The provider-choice page (Fig. 2 of the paper)."""
        return HttpResponse.json(
            {
                "providers": [
                    {"id": u.upstream_id, "label": u.label, "kind": u.kind}
                    for u in self._upstreams.values()
                ],
                "links": dict(self.POLICY_LINKS),
                "terms_acceptance_required": True,
            }
        )

    @route("GET", "/login/start")
    def login_start(self, request: HttpRequest) -> HttpResponse:
        """Begin the brokered flow against the chosen upstream IdP."""
        upstream = self._upstreams.get(request.query.get("idp", ""))
        if upstream is None:
            return HttpResponse.error(400, "unknown identity provider")
        if request.query.get("accept_terms") != "true":
            return HttpResponse.error(
                400, "terms and conditions must be accepted before login"
            )
        url, flow = upstream.rp.begin(
            make_url(self.name, "/login/callback"), scope="openid profile"
        )
        self._login_states[flow.state] = upstream.upstream_id
        return HttpResponse.redirect(url)

    @route("GET", "/login/callback")
    def login_callback(self, request: HttpRequest) -> HttpResponse:
        """Upstream authentication finished — run authorisation-led
        registration and (only then) establish the broker session."""
        if "error" in request.query:
            return HttpResponse.error(403, f"upstream error: {request.query['error']}")
        state = request.query.get("state", "")
        upstream_id = self._login_states.pop(state, None)
        if upstream_id is None:
            return HttpResponse.error(400, "unknown login state")
        upstream = self._upstreams[upstream_id]
        tokens = upstream.rp.redeem(request.query.get("code", ""), state)
        id_claims = tokens["id_claims"]
        sub = str(id_claims["sub"])
        email = str(id_claims.get("email", ""))

        if upstream.kind == "admin":
            roles = self._admin_roles.get(sub, set())
            if not roles:
                self._audit(sub, "login.denied", upstream_id, Outcome.DENIED,
                            reason="no-admin-role")
                raise RegistrationError(
                    f"{sub} authenticated but holds no administrative role"
                )
            session_claims: Dict[str, object] = {
                "name": id_claims.get("name", ""),
                "email": email,
                "idp": upstream_id,
                "loa": id_claims.get("loa", 0),
                "admin_roles": sorted(r.value for r in roles),
                "roles": [],
            }
        else:
            authz = self._query_portal_authz(sub, email)
            roles_list = authz.get("roles", [])
            invitations = authz.get("pending_invitations", [])
            if not roles_list and not invitations:
                self._audit(sub, "login.denied", upstream_id, Outcome.DENIED,
                            reason="authorisation-led-registration")
                raise RegistrationError(
                    "authorisation-led registration: this identity has no "
                    "granted role and no pending invitation on Isambard"
                )
            session_claims = {
                "name": id_claims.get("name", ""),
                "email": email,
                "idp": upstream_id,
                "loa": id_claims.get("loa", 0),
                "roles": roles_list,
                "pending_invitations": invitations,
                "admin_roles": [],
            }

        amr = list(id_claims.get("amr", [])) or [upstream.kind]
        session = self.create_session(sub, session_claims, amr=amr)
        self._audit(sub, "login.success", upstream_id, Outcome.SUCCESS,
                    roles=len(session_claims.get("roles", [])),
                    admin=bool(session_claims.get("admin_roles")))
        resp = HttpResponse.json(
            {"authenticated": True, "sub": sub,
             "roles": session_claims.get("roles", []),
             "admin_roles": session_claims.get("admin_roles", [])}
        )
        return self.set_session_cookie(resp, session)

    # ------------------------------------------------------------------
    # RBAC token minting
    # ------------------------------------------------------------------
    @route("POST", "/tokens")
    def mint_token(self, request: HttpRequest) -> HttpResponse:
        """Mint an audience-scoped RBAC token for the authenticated caller.

        Auth is either the broker session cookie (interactive) or a
        broker-issued access token (services acting with a user's
        delegation).  The requested (role, project) must be one the
        caller actually holds — least privilege, no blanket authorisation.
        """
        identity = self._requester_identity(request)
        sub = str(identity["sub"])
        audience = str(request.body.get("audience", ""))
        role_req = str(request.body.get("role", ""))
        project = request.body.get("project")
        project = str(project) if project else None
        ttl = request.body.get("ttl")
        ttl = float(ttl) if ttl is not None else None
        if not audience or not role_req:
            return HttpResponse.error(400, "audience and role are required")

        extra: Dict[str, object] = {
            "name": identity.get("name", ""),
            "email": identity.get("email", ""),
            # authentication methods and assurance travel with the token
            # so resources can apply posture policy (hardware MFA, LoA)
            "amr": list(identity.get("amr", []) or []),
            "loa": int(identity.get("loa", 0) or 0),
        }
        # Dynamic policy (ZTA tenets 4 & 6): authorisation is re-checked at
        # every mint against the live ACLs, never against session-cached
        # role claims — a role revoked a second ago is gone *now*.
        if identity.get("admin_roles") is not None and role_req in {
            r.value for r in self._admin_roles.get(sub, set())
        }:
            if project is not None:
                raise AuthorizationError("administrative roles are not project-scoped")
            auth_time = float(identity.get("_auth_time", 0.0))
            age = self.clock.now() - auth_time
            if age > self.admin_max_auth_age:
                self._audit(sub, "rbac.stepup_required", audience, Outcome.DENIED,
                            auth_age=age, reason="admin step-up required")
                raise AuthorizationError(
                    f"administrative token requires re-authentication: last "
                    f"authentication was {age:.0f}s ago "
                    f"(policy: {self.admin_max_auth_age:.0f}s)"
                )
        elif role_req == Role.INVITEE.value:
            # authorised-to-register: only valid when an invitation is pending,
            # and only towards the portal (to accept it)
            authz = self._query_portal_authz(sub, str(identity.get("email", "")))
            if not authz.get("pending_invitations"):
                raise AuthorizationError(f"{sub} has no pending invitation")
            if audience != self.portal_endpoint:
                raise AuthorizationError("invitee tokens are portal-only")
        else:
            authz = self._query_portal_authz(sub, str(identity.get("email", "")))
            match = None
            for r in authz.get("roles", []) or []:
                if r.get("role") == role_req and (
                    project is None or r.get("project_id") == project
                ):
                    match = r
                    break
            if match is None:
                self._audit(sub, "rbac.denied", audience, Outcome.DENIED,
                            role=role_req, project=project or "",
                            reason=f"role {role_req!r} not held")
                raise AuthorizationError(
                    f"{sub} does not hold role {role_req!r}"
                    + (f" on project {project}" if project else "")
                )
            project = project or str(match.get("project_id"))
            extra["unix_account"] = match.get("unix_account", "")

        token, record = self.tokens.mint(
            sub, audience, role_req, project=project, ttl=ttl, extra_claims=extra
        )
        return HttpResponse.json(
            {
                "token": token,
                "jti": record.jti,
                "expires_at": record.expires_at,
                "audience": audience,
                "role": role_req,
            }
        )

    # ------------------------------------------------------------------
    # SSH certificate flow (user story 4)
    # ------------------------------------------------------------------
    @route("POST", "/ssh/certificate")
    def ssh_certificate(self, request: HttpRequest) -> HttpResponse:
        """Obtain a time-limited SSH certificate for all active projects.

        The caller (the SSH certificate client app) authenticates with a
        broker session or access token; the broker asserts authorisation
        with the portal, collects the project-specific Linux accounts,
        and routes them to the SSH CA for signing.
        """
        identity = self._requester_identity(request)
        sub = str(identity["sub"])
        public_key_jwk = request.body.get("public_key_jwk")
        if not isinstance(public_key_jwk, dict):
            return HttpResponse.error(400, "public_key_jwk required")
        authz = self._query_portal_authz(sub, str(identity.get("email", "")))
        principals = [
            str(r["unix_account"])
            for r in authz.get("roles", [])
            if r.get("role") in (Role.RESEARCHER.value, Role.PI.value)
            and r.get("unix_account")
        ]
        if not principals:
            self._audit(sub, "ssh.cert_denied", "", Outcome.DENIED,
                        reason="no-cluster-roles")
            raise AuthorizationError(
                f"{sub} has no active project with cluster access"
            )
        service_token, _ = self.tokens.held(
            f"{self.name}-service", self.ssh_ca_endpoint, Role.SERVICE, ttl=60
        )
        resp = self.call(
            self.ssh_ca_endpoint,
            HttpRequest(
                "POST", "/sign",
                headers={"Authorization": f"Bearer {service_token}"},
                body={
                    "key_id": sub,
                    "public_key_jwk": public_key_jwk,
                    "principals": principals,
                    "ttl": self.ssh_cert_ttl,
                },
            ),
        )
        if not resp.ok:
            return resp
        out = dict(resp.body)
        # alias -> unix account map for the client's ssh-config rewrite
        out["projects"] = {
            str(r["project_id"]): str(r["unix_account"])
            for r in authz.get("roles", [])
            if r.get("unix_account")
        }
        self._audit(sub, "ssh.cert_issued", f"serial-{resp.body.get('serial')}",
                    Outcome.SUCCESS, principals=principals)
        return HttpResponse.json(out)

    def _requester_identity(self, request: HttpRequest) -> Dict[str, object]:
        session = self.session_from_request(request)
        if session is not None:
            out: Dict[str, object] = {"sub": session.subject}
            out.update(session.claims)
            out["_auth_time"] = session.auth_time
            out.setdefault("amr", list(session.amr))
            return out
        bearer = request.bearer_token()
        if bearer is not None:
            claims = self._validate_access(bearer)
            jti = str(claims.get("jti", ""))
            record = self._issued.get(jti)
            out = {"sub": claims["sub"]}
            if record is not None:
                out.update(record["claims"])  # type: ignore[arg-type]
            out["_auth_time"] = float(
                (record or {}).get("claims", {}).get("auth_time", 0.0)
                if record else 0.0
            )
            return out
        raise AuthenticationError("token minting requires a session or bearer token")

    # ------------------------------------------------------------------
    # portal authz (server-to-server, service token)
    # ------------------------------------------------------------------
    def _query_portal_authz(self, uid: str, email: str) -> Dict[str, object]:
        token, _ = self.tokens.held(
            f"{self.name}-service", self.portal_endpoint, Role.SERVICE, ttl=600)
        resp = self.call(
            self.portal_endpoint,
            HttpRequest(
                "GET", "/authz",
                headers={"Authorization": f"Bearer {token}"},
                query={"uid": uid, "email": email},
            ),
        )
        if not resp.ok:
            raise AuthenticationError(
                f"portal authz query failed: {resp.body.get('error', resp.status)}"
            )
        return resp.body

    # ------------------------------------------------------------------
    # the token surface (``IsambardDeployment.surfaces``)
    # ------------------------------------------------------------------
    def grants(self, now: float, skip=()):
        """The token surface's live grants: its RBAC tokens (see
        ``TokenService.grants``), SSO sessions and OIDC access tokens."""
        yield from self.tokens.grants(now, skip)
        yield from self.sessions.grants(now, skip)
        yield from self._granted.grants("access-token", now, skip)

    def sever(self, uid: str, by: str, project: Optional[str] = None) -> int:
        """Sever a user's live access: RBAC tokens (of ``project`` only,
        when given) and, for a whole-user sever, SSO sessions and OIDC
        access tokens — what ``grants`` lists.  Returns how many were
        ended; a sever that ends nothing journals and records nothing, as
        on every surface (the walk also calls it for UNIX accounts, which
        hold no grant here)."""
        revoked_tokens = self.tokens.revoke_subject(uid, project=project)
        revoked_sessions = revoked_access = 0
        if project is None:
            sids = self.sessions.live_sids(uid)
            if sids:
                revoked_sessions = self.commit("oidc.session_revoke_subject",
                                               {"subject": uid, "sids": sids})
            hit = [e[0] for e in self._granted.of(uid, self.clock.now())]
            revoked_access = len(hit)
            if hit:
                self.commit("broker.revoke_access", {"subject": uid, "jtis": hit})
            if self.invalidation_bus is not None:
                for jti in hit:
                    self.invalidation_bus.publish("token.revoked", key=jti,
                                                  subject=uid)
        severed = revoked_tokens + revoked_sessions + revoked_access
        if severed:
            self._audit("system", "access.revoked", uid, Outcome.INFO,
                        project=project or "*", rbac=revoked_tokens,
                        sessions=revoked_sessions, oidc=revoked_access)
        return severed

    # ------------------------------------------------------------------
    # unified access-token validation (OIDC + RBAC)
    # ------------------------------------------------------------------
    def _recognises(self, token: str) -> bool:
        return super()._recognises(token) or self.tokens.recognises(token)

    def _validate_access(self, token: str) -> Dict[str, object]:
        claims = self._validator.validate(
            token, vouched=self._recognises(token))
        jti = str(claims.get("jti", ""))
        if jti in self._issued:
            if jti in self._revoked_jtis:
                raise TokenRevoked(f"token {jti} is revoked")
            return claims
        if self.tokens.issued(jti) is not None:
            if self.tokens.is_revoked(jti):
                raise TokenRevoked(f"token {jti} is revoked")
            return claims
        raise TokenRevoked(f"token {jti} is unknown to this broker")

    # ------------------------------------------------------------------
    # durability: broker state = base provider + RBAC registry + ACLs
    # ------------------------------------------------------------------
    def durable_state(self) -> Dict[str, object]:
        state = super().durable_state()
        state["admin_roles"] = {
            sub: sorted(r.value for r in roles)
            for sub, roles in self._admin_roles.items()
        }
        state["tokens"] = self.tokens.durable_state()
        return state

    def wipe_state(self) -> None:
        super().wipe_state()
        self.tokens.wipe_state()
        self._admin_roles = {}
        self._login_states = {}

    def load_state(self, state: Dict[str, object]) -> None:
        super().load_state(state)
        self.tokens.key = self.key  # one signing identity post-adoption
        self._admin_roles = {
            sub: {Role(v) for v in values}
            for sub, values in state["admin_roles"].items()
        }
        self.tokens.load_state(state["tokens"])

    def apply_entry(self, kind: str, data: Dict[str, object]) -> object:
        if self.tokens.apply_entry(kind, data):
            return None
        if kind == "broker.admin_grant":
            self._admin_roles.setdefault(
                data["sub"], set()).add(Role(data["role"]))
        elif kind == "broker.admin_revoke":
            roles = self._admin_roles.get(data["sub"])
            if roles is not None:
                if data["role"] is None:
                    roles.clear()
                else:
                    roles.discard(Role(data["role"]))
        elif kind == "broker.revoke_access":
            self._revoke_access(data["jtis"])
        else:
            result = super().apply_entry(kind, data)
            if kind == "oidc.key_rotated":
                # one signing identity for the whole broker
                self.tokens.key = self.key
            return result
        return None
