"""The paper's six user stories (§IV.A) as executable workflows.

Each method drives the deployed system exactly the way a person would:
through the user agent, the login pages, the client applications — no
back-door object pokes.  They are used by the integration tests, the
examples, and the per-story benchmarks, and they return structured
:class:`StoryResult` records so benches can print the steps a reader can
match against the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.broker import Role
from repro.errors import ReproError
from repro.federation import HardwareKey, TotpDevice
from repro.net.http import HttpResponse
from repro.oidc import UserAgent, make_url
from repro.net import OperatingDomain, Zone
from repro.sshca import SshCertClient

__all__ = ["Persona", "StoryResult", "Workflows"]


@dataclass
class Persona:
    """One human and their devices."""

    name: str
    agent: UserAgent
    kind: str                       # "federated" | "lastresort" | "admin"
    idp_endpoint: Optional[str] = None
    username: str = ""
    password: str = ""
    totp: Optional[TotpDevice] = None
    hardware_key: Optional[HardwareKey] = None
    ssh_client: Optional[SshCertClient] = None
    broker_sub: Optional[str] = None


@dataclass
class StoryResult:
    """Outcome of one user story run."""

    story: str
    ok: bool
    steps: List[str] = field(default_factory=list)
    data: Dict[str, object] = field(default_factory=dict)
    elapsed: float = 0.0


class Workflows:
    """Persona registry + the six user stories against one deployment."""

    def __init__(self, dri) -> None:
        self.dri = dri
        self.personas: Dict[str, Persona] = {}
        self._bootstrap_admin_granted = False

    # ==================================================================
    # persona management
    # ==================================================================
    def _new_agent(self, name: str) -> UserAgent:
        agent = UserAgent(f"{name}-laptop")
        self.dri.network.attach(agent, OperatingDomain.EXTERNAL, Zone.INTERNET)
        if self.dri.resilience is not None:
            # browsers retry too: give each device its own breaker/metrics
            agent.resilience = self.dri.resilience.for_client(agent.name)
        if self.dri.telemetry is not None:
            # every flow this device drives becomes one end-to-end trace
            agent.tracer = self.dri.telemetry.tracer
        return agent

    def create_researcher(
        self, name: str, *, idp: str = "idp-bristol", email: Optional[str] = None
    ) -> Persona:
        """A federated academic: an account at their institutional IdP."""
        if name in self.personas:
            return self.personas[name]
        idp_service = self.dri.idps[idp]
        email = email or f"{name}@{idp_service.scope}"
        idp_service.add_user(name, f"pw-{name}", name.title(), email)
        persona = Persona(
            name=name, agent=self._new_agent(name), kind="federated",
            idp_endpoint=idp, username=name, password=f"pw-{name}",
        )
        persona.ssh_client = SshCertClient(persona.agent)
        persona.ssh_client.clock = self.dri.clock
        self.personas[name] = persona
        return persona

    def create_external_user(self, name: str, email: str) -> Persona:
        """A vendor/government user: invited into the last-resort IdP."""
        if name in self.personas:
            return self.personas[name]
        code = self.dri.lastresort.invite(email)
        agent = self._new_agent(name)
        resp, _ = agent.post(
            make_url("idp-lastresort", "/register"),
            {"invite_code": code, "username": name,
             "password": f"a-long-password-{name}", "display_name": name.title()},
        )
        if not resp.ok:
            raise ReproError(f"last-resort registration failed: {resp.body}")
        persona = Persona(
            name=name, agent=agent, kind="lastresort",
            username=name, password=f"a-long-password-{name}",
            totp=TotpDevice(secret=bytes.fromhex(str(resp.body["totp_secret"]))),
        )
        persona.ssh_client = SshCertClient(persona.agent)
        persona.ssh_client.clock = self.dri.clock
        self.personas[name] = persona
        return persona

    def create_admin(
        self, name: str, *roles: Role, approver: str = "bootstrap"
    ) -> Persona:
        """User story 2: invite, hardware-key enrolment, registration,
        human-check approval, and the per-service role grants."""
        if name in self.personas:
            return self.personas[name]
        dri = self.dri
        code = dri.admin_idp.invite_admin(
            f"{name}@{dri.admin_idp.institution}", invited_by=approver
        )
        agent = self._new_agent(name)
        device = HardwareKey(f"hwk-{name}")
        dri.admin_idp.enrol_hardware_key(device)
        resp, _ = agent.post(
            make_url("idp-admin", "/register"),
            {"invite_code": code, "username": name,
             "password": "p" * 20, "device_id": device.device_id},
        )
        if not resp.ok:
            raise ReproError(f"admin registration failed: {resp.body}")
        dri.admin_idp.approve_admin(name, approver=approver)
        for role in roles:
            dri.broker.grant_admin_role(f"idp-admin:{name}", role)
        persona = Persona(
            name=name, agent=agent, kind="admin",
            username=name, password="p" * 20, hardware_key=device,
        )
        self.personas[name] = persona
        return persona

    # ==================================================================
    # login building blocks
    # ==================================================================
    def login(self, persona: Persona) -> HttpResponse:
        """Fig. 2 -> chosen IdP -> broker session, per persona kind."""
        if persona.kind == "federated":
            return self._federated_login(persona)
        if persona.kind == "lastresort":
            return self._lastresort_login(persona)
        return self._admin_login(persona)

    def _federated_login(self, persona: Persona) -> HttpResponse:
        agent = persona.agent
        resp, final = agent.get(
            make_url("broker", "/login/start", idp="myaccessid", accept_terms="true")
        )
        if resp.status == 401 and resp.body.get("login_required"):
            idp_resp, _ = agent.post(
                make_url(persona.idp_endpoint, "/login"),
                {"username": persona.username, "password": persona.password,
                 "sp": self.dri.myaccessid.entity_id},
            )
            if not idp_resp.ok:
                return idp_resp
            assert_resp, _ = agent.post(
                make_url("myaccessid", "/assert"),
                {"entity_id": self.dri.idps[persona.idp_endpoint].entity_id,
                 "assertion": idp_resp.body["assertion"]},
            )
            if not assert_resp.ok:
                return assert_resp
            resp, _ = agent.get(final)
        if resp.ok and "sub" in resp.body:
            persona.broker_sub = str(resp.body["sub"])
        return resp

    def _lastresort_login(self, persona: Persona) -> HttpResponse:
        agent = persona.agent
        resp, final = agent.get(
            make_url("broker", "/login/start", idp="lastresort", accept_terms="true")
        )
        if resp.status == 401 and resp.body.get("login_required"):
            login, _ = agent.post(
                make_url("idp-lastresort", "/login"),
                {"username": persona.username, "password": persona.password,
                 "otp": persona.totp.code_at(self.dri.clock.now())},
            )
            if not login.ok:
                return login
            resp, _ = agent.get(final)
        if resp.ok and "sub" in resp.body:
            persona.broker_sub = str(resp.body["sub"])
        return resp

    def _admin_login(self, persona: Persona) -> HttpResponse:
        agent = persona.agent
        resp, final = agent.get(
            make_url("broker", "/login/start", idp="admin", accept_terms="true")
        )
        if resp.status == 401 and resp.body.get("login_required"):
            r1, _ = agent.post(
                make_url("idp-admin", "/login"),
                {"username": persona.username, "password": persona.password},
            )
            if not r1.ok:
                return r1
            challenge = bytes.fromhex(str(r1.body["challenge"]))
            r2, _ = agent.post(
                make_url("idp-admin", "/login/mfa"),
                {"username": persona.username,
                 "assertion": persona.hardware_key.sign_challenge(challenge)},
            )
            if not r2.ok:
                return r2
            resp, _ = agent.get(final)
        if resp.ok and "sub" in resp.body:
            persona.broker_sub = str(resp.body["sub"])
        return resp

    def relogin(self, persona: Persona) -> HttpResponse:
        """Drop the broker session and authenticate again (role refresh)."""
        persona.agent.clear_cookies("broker")
        return self.login(persona)

    def mint(self, persona: Persona, audience: str, role: str,
             *, project: Optional[str] = None, ttl: Optional[float] = None
             ) -> HttpResponse:
        body: Dict[str, object] = {"audience": audience, "role": role}
        if project:
            body["project"] = project
        if ttl:
            body["ttl"] = ttl
        resp, _ = persona.agent.post(make_url("broker", "/tokens"), body)
        return resp

    # ==================================================================
    # user story 1 — allocator + PI onboarding
    # ==================================================================
    def story1_pi_onboarding(
        self,
        pi_name: str = "alice",
        *,
        via: str = "myaccessid",
        project_name: str = "proj-llm-safety",
        gpu_hours: float = 10_000.0,
        duration: float = 90 * 24 * 3600.0,
    ) -> StoryResult:
        dri = self.dri
        t0 = dri.clock.now()
        steps: List[str] = []

        allocator = self.create_admin("allocator", Role.ALLOCATOR)
        login = self.login(allocator)
        if not login.ok:
            return StoryResult("story1", False, steps + [f"allocator login failed: {login.body}"])
        steps.append("allocator authenticated via admin IdP (hardware-key MFA)")

        if via == "myaccessid":
            pi = self.create_researcher(pi_name)
            pi_email = f"{pi_name}@{dri.idps[pi.idp_endpoint].scope}"
        else:
            pi_email = f"{pi_name}@vendor.example"
            pi = self.create_external_user(pi_name, pi_email)

        token = self.mint(allocator, "portal", "allocator").body["token"]
        created, _ = allocator.agent.post(
            make_url("portal", "/projects"),
            {"name": project_name, "pi_email": pi_email,
             "gpu_hours": gpu_hours, "duration": duration},
            headers={"Authorization": f"Bearer {token}"},
        )
        if not created.ok:
            return StoryResult("story1", False, steps + [f"project creation failed: {created.body}"])
        project_id = str(created.body["project_id"])
        invite = str(created.body["invite_code"])
        steps.append(f"allocator created {project_id} with {gpu_hours} GPU-hours "
                     f"and invited the PI ({pi_email})")

        pi_login = self.login(pi)
        if not pi_login.ok:
            return StoryResult("story1", False, steps + [f"PI login failed: {pi_login.body}"])
        steps.append(f"PI authenticated via {via}; authorisation-led registration "
                     "passed (pending invitation found)")

        invitee_token = self.mint(pi, "portal", "invitee").body["token"]
        accepted, _ = pi.agent.post(
            make_url("portal", "/invitations/accept"),
            {"code": invite, "preferred_username": pi_name},
            headers={"Authorization": f"Bearer {invitee_token}"},
        )
        if not accepted.ok:
            return StoryResult("story1", False, steps + [f"acceptance failed: {accepted.body}"])
        steps.append(f"PI accepted T&Cs and joined as {accepted.body['unix_account']} "
                     f"(role {accepted.body['role']})")
        self.relogin(pi)
        steps.append("PI re-authenticated; session now carries the PI role")
        return StoryResult(
            "story1", True, steps,
            data={"project_id": project_id, "pi": pi_name,
                  "unix_account": accepted.body["unix_account"]},
            elapsed=dri.clock.now() - t0,
        )

    # ==================================================================
    # user story 2 — admin registration
    # ==================================================================
    def story2_admin_registration(self, name: str = "ops1") -> StoryResult:
        dri = self.dri
        t0 = dri.clock.now()
        steps: List[str] = []
        admin = self.create_admin(name, Role.ADMIN_INFRA)
        steps.append("invitation issued (institutional email enforced), "
                     "hardware key enrolled, account registered pending")
        steps.append("human check: an existing admin approved the account")
        login = self.login(admin)
        if not login.ok:
            return StoryResult("story2", False, steps + [f"login failed: {login.body}"])
        steps.append("admin authenticated with password + hardware-key MFA")
        # per-service RBAC, not global: the infra admin cannot mint a
        # security-role token
        denied = self.mint(admin, "soc", Role.ADMIN_SECURITY.value)
        steps.append(
            "admin access is per-service: security-role mint was "
            + ("DENIED (correct)" if denied.status == 403 else "allowed (WRONG)")
        )
        ok = login.ok and denied.status == 403
        return StoryResult("story2", ok, steps,
                           data={"admin": name, "active_admins":
                                 dri.admin_idp.active_admins()},
                           elapsed=dri.clock.now() - t0)

    # ==================================================================
    # user story 3 — researcher setup
    # ==================================================================
    def story3_researcher_setup(
        self, project_id: str, pi_name: str, researcher_name: str = "bob"
    ) -> StoryResult:
        dri = self.dri
        t0 = dri.clock.now()
        steps: List[str] = []
        pi = self.personas[pi_name]
        researcher = self.create_researcher(researcher_name)
        email = f"{researcher_name}@{dri.idps[researcher.idp_endpoint].scope}"

        pi_token = self.mint(pi, "portal", "pi", project=project_id)
        if not pi_token.ok:
            return StoryResult("story3", False, [f"PI token mint failed: {pi_token.body}"])
        invited, _ = pi.agent.post(
            make_url("portal", "/invite"),
            {"project_id": project_id, "email": email},
            headers={"Authorization": f"Bearer {pi_token.body['token']}"},
        )
        if not invited.ok:
            return StoryResult("story3", False, [f"invite failed: {invited.body}"])
        steps.append(f"PI invited {email} as researcher")

        login = self.login(researcher)
        if not login.ok:
            return StoryResult("story3", False, steps + [f"researcher login failed: {login.body}"])
        invitee = self.mint(researcher, "portal", "invitee").body["token"]
        accepted, _ = researcher.agent.post(
            make_url("portal", "/invitations/accept"),
            {"code": invited.body["invite_code"],
             "preferred_username": researcher_name},
            headers={"Authorization": f"Bearer {invitee}"},
        )
        if not accepted.ok:
            return StoryResult("story3", False, steps + [f"acceptance failed: {accepted.body}"])
        steps.append(f"researcher registered as {accepted.body['unix_account']}")
        self.relogin(researcher)
        steps.append("researcher re-authenticated with the researcher role")
        return StoryResult(
            "story3", True, steps,
            data={"researcher": researcher_name,
                  "unix_account": accepted.body["unix_account"],
                  "project_id": project_id},
            elapsed=dri.clock.now() - t0,
        )

    # ==================================================================
    # user story 4 — SSH to the AI platform
    # ==================================================================
    def story4_ssh_session(self, researcher_name: str) -> StoryResult:
        dri = self.dri
        t0 = dri.clock.now()
        steps: List[str] = []
        persona = self.personas[researcher_name]
        client = persona.ssh_client
        assert client is not None

        cert = client.request_certificate()
        if not cert.ok:
            return StoryResult("story4", False, [f"certificate denied: {cert.body}"])
        steps.append(
            f"SSH certificate issued (serial {cert.body['serial']}) for "
            f"principals {cert.body['principals']}, "
            f"valid until t={cert.body['valid_before']:.0f}"
        )
        steps.append("client rewrote ssh config with ProxyJump aliases:\n"
                     + client.rendered_config())

        alias = sorted(client.ssh_config)[0]
        session = client.ssh(alias)
        if not session.ok:
            return StoryResult("story4", False, steps + [f"ssh failed: {session.body}"])
        steps.append(f"ssh {alias}: connected via transparent jump host as "
                     f"{session.body['principal']} "
                     f"(session {session.body['session_id']})")
        return StoryResult(
            "story4", True, steps,
            data={"alias": alias, "session_id": session.body["session_id"],
                  "principal": session.body["principal"]},
            elapsed=dri.clock.now() - t0,
        )

    # ==================================================================
    # user story 5 — privileged administrator operation
    # ==================================================================
    def story5_privileged_operation(
        self, admin_name: str = "ops1", *, operation: str = "status",
        target: str = "",
    ) -> StoryResult:
        dri = self.dri
        t0 = dri.clock.now()
        steps: List[str] = []
        admin = self.personas.get(admin_name) or self.create_admin(
            admin_name, Role.ADMIN_INFRA
        )
        login = self.login(admin)
        if not login.ok:
            return StoryResult("story5", False, [f"admin login failed: {login.body}"])
        steps.append("layer 1: admin IdP authentication (password + hardware key)")

        tailnet_token = self.mint(admin, "tailnet", Role.ADMIN_INFRA.value)
        if not tailnet_token.ok:
            return StoryResult("story5", False, steps + [f"tailnet token denied: {tailnet_token.body}"])
        enrol, _ = admin.agent.post(
            make_url("tailnet", "/enrol"),
            {"hostname": admin.agent.name},
            headers={"Authorization": f"Bearer {tailnet_token.body['token']}"},
        )
        if not enrol.ok:
            return StoryResult("story5", False, steps + [f"enrolment failed: {enrol.body}"])
        node_id = str(enrol.body["node_id"])
        steps.append(f"layer 2: device enrolled in the admin tailnet ({node_id})")

        mgmt_token = self.mint(admin, "mgmt-node", Role.ADMIN_INFRA.value)
        if not mgmt_token.ok:
            return StoryResult("story5", False, steps + [f"mgmt token denied: {mgmt_token.body}"])
        steps.append("layer 3: per-service RBAC token for the management node")

        relay, _ = admin.agent.post(
            make_url("tailnet", "/relay"),
            {"node_id": node_id, "target": "mgmt-node", "port": 443,
             "request": {
                 "method": "POST", "path": "/operate",
                 "headers": {"Authorization": f"Bearer {mgmt_token.body['token']}"},
                 "body": {"operation": operation, "target": target},
             }},
        )
        if not relay.ok:
            return StoryResult("story5", False, steps + [f"operation failed: {relay.body}"])
        steps.append(
            f"layer 4: management node validated token + tailnet origin and "
            f"executed {operation!r} ({relay.body['nodes_up']}/"
            f"{relay.body['nodes_total']} nodes up)"
        )
        return StoryResult(
            "story5", True, steps,
            data={"node_id": node_id, "operation": operation,
                  "result": dict(relay.body)},
            elapsed=dri.clock.now() - t0,
        )

    # ==================================================================
    # user story 6 — Jupyter notebook via Zenith
    # ==================================================================
    def story6_jupyter(self, researcher_name: str) -> StoryResult:
        dri = self.dri
        t0 = dri.clock.now()
        steps: List[str] = []
        persona = self.personas[researcher_name]
        url = make_url("edge", "/zenith/app", service="jupyter", path="/")

        # the whole notebook flow — broker login, portal check, tunnel
        # dispatch — runs under one root span, so a slow login has one
        # trace id to pull its critical path by
        with persona.agent.trace(f"story6 {researcher_name}") as ctx:
            trace_id = ctx.trace_id if ctx is not None else None
            resp, final = persona.agent.get(url)
            if resp.status == 401 and resp.body.get("login_required"):
                # the broker needs an authenticated session first
                login = self.login(persona)
                if not login.ok:
                    return StoryResult(
                        "story6", False, [f"login failed: {login.body}"])
                steps.append("identity broker login flow completed")
                resp, final = persona.agent.get(url)
            if not resp.ok:
                return StoryResult(
                    "story6", False, steps + [f"jupyter denied: {resp.body}"])
            steps.append(
                "portal asserted access; time-limited RBAC token minted and "
                "passed as an HTTP header through the Zenith reverse tunnel")
            steps.append(
                f"Jupyter authenticator validated the token against the "
                f"broker's OIDC endpoint; session {resp.body['session_id']} "
                f"spawned on {resp.body['node']}"
            )
            data = dict(resp.body)
            data["trace_id"] = trace_id
            return StoryResult(
                "story6", True, steps,
                data=data, elapsed=dri.clock.now() - t0,
            )

    # ==================================================================
    # §IV.B — the RSECon24 workshop at scale
    # ==================================================================
    def rsecon_workshop(self, n_trainees: int = 45,
                        *, project_name: str = "rsecon24") -> StoryResult:
        """Onboard ``n_trainees`` and have all of them log in and open
        notebooks; success means every notebook session is live at once."""
        dri = self.dri
        t0 = dri.clock.now()
        result = self.story1_pi_onboarding(
            "trainer", project_name=project_name, gpu_hours=100_000.0
        )
        if not result.ok:
            return StoryResult("rsecon", False, result.steps)
        project_id = str(result.data["project_id"])
        latencies: List[float] = []
        trace_ids: List[Optional[str]] = []  # parallel to latencies
        failures: List[str] = []
        for i in range(n_trainees):
            name = f"trainee{i:02d}"
            onboard = self.story3_researcher_setup(project_id, "trainer", name)
            if not onboard.ok:
                failures.append(f"{name}: onboarding — {onboard.steps[-1]}")
                continue
            start = dri.clock.now()
            notebook = self.story6_jupyter(name)
            if not notebook.ok:
                failures.append(f"{name}: notebook — {notebook.steps[-1]}")
                continue
            latencies.append(dri.clock.now() - start)
            trace_ids.append(notebook.data.get("trace_id"))
        live = len(dri.jupyter.sessions())
        ok = not failures and live >= n_trainees
        return StoryResult(
            "rsecon", ok,
            steps=[f"{n_trainees - len(failures)}/{n_trainees} trainees running "
                   f"notebooks simultaneously ({live} live sessions)"]
            + failures[:5],
            data={"n": n_trainees, "live_sessions": live,
                  "latencies": latencies, "trace_ids": trace_ids,
                  "failures": len(failures),
                  "project_id": project_id},
            elapsed=dri.clock.now() - t0,
        )
