"""Cross-cutting scenario tests: logout, DDoS-during-workshop, session
hygiene, and long-horizon operation."""

import pytest

from repro.core import build_isambard
from repro.net import HttpRequest, OperatingDomain, Service, Zone
from repro.oidc import make_url


# ---------------------------------------------------------------------------
# logout
# ---------------------------------------------------------------------------
def test_logout_ends_sso(oidc_world):
    from tests.test_oidc import full_flow, login

    clock, _, _, provider, app, agent = oidc_world
    login(agent)
    resp1, _, _ = full_flow(app, agent)
    assert resp1.ok
    out, _ = agent.post(make_url("op", "/logout"), {})
    assert out.body["logged_out"] is True
    resp2, _, _ = full_flow(app, agent)
    assert resp2.status == 401 and resp2.body["login_required"]


def test_logout_without_session_is_noop(oidc_world):
    *_, agent = oidc_world
    out, _ = agent.post(make_url("op", "/logout"), {})
    assert out.body["logged_out"] is False


def test_broker_logout_forces_full_relogin():
    dri = build_isambard(seed=88)
    dri.workflows.story1_pi_onboarding("zed")
    zed = dri.workflows.personas["zed"]
    out, _ = zed.agent.post(make_url("broker", "/logout"), {})
    assert out.body["logged_out"] is True
    mint = dri.workflows.mint(zed, "portal", "pi")
    assert mint.status == 403  # no session anymore
    # MyAccessID SSO session survives: re-login needs no IdP password
    idp_logins = dri.idps["idp-bristol"].audit.count(action="idp.login")
    relogin = dri.workflows.login(zed)
    assert relogin.ok
    assert dri.idps["idp-bristol"].audit.count(action="idp.login") == idp_logins


# ---------------------------------------------------------------------------
# the workshop keeps running while an attacker floods the edge
# ---------------------------------------------------------------------------
def test_workshop_survives_ddos_at_the_edge():
    dri = build_isambard(seed=89)
    edge = dri.edge

    # a botnet host floods the edge path
    bot = Service("botnet-host")
    dri.network.attach(bot, OperatingDomain.EXTERNAL, Zone.INTERNET)
    blocked = 0
    for _ in range(200):
        req = HttpRequest("GET", "/zenith/app",
                          query={"service": "jupyter", "path": "/"})
        req.source = "botnet-host"
        if edge.handle(req).status == 429:
            blocked += 1
    assert blocked > 100
    assert "botnet-host" in edge.blocked_sources

    # trainees still get their notebooks (distinct sources, normal rates)
    result = dri.workflows.rsecon_workshop(10)
    assert result.ok, result.steps
    assert result.data["failures"] == 0


# ---------------------------------------------------------------------------
# session hygiene
# ---------------------------------------------------------------------------
def test_cookies_are_scoped_per_service():
    """The broker never sees the MyAccessID session cookie and vice versa."""
    dri = build_isambard(seed=90)
    dri.workflows.story1_pi_onboarding("pax")
    agent = dri.workflows.personas["pax"].agent
    assert set(agent.cookies) >= {"broker", "myaccessid"}
    assert agent.cookies["broker"] != agent.cookies["myaccessid"]


def test_session_cookie_is_unguessable_and_unique():
    dri = build_isambard(seed=91)
    dri.workflows.story1_pi_onboarding("ana")
    sids = [grant[1] for grant in dri.broker.sessions.grants(dri.clock.now())]
    assert len(sids) == len(set(sids))
    assert all(len(sid) >= 20 for sid in sids)


# ---------------------------------------------------------------------------
# long-horizon operation: a quarter of simulated time
# ---------------------------------------------------------------------------
def test_quarter_of_operations_stays_consistent():
    """Three months of simulated operations: projects created and expiring
    in waves, with the audit chains and invariants intact throughout."""
    dri = build_isambard(seed=92, forward_interval=3600.0)
    wf = dri.workflows
    month = 30 * 24 * 3600.0
    for wave in range(3):
        s1 = wf.story1_pi_onboarding(
            f"pi-w{wave}", project_name=f"wave-{wave}",
            duration=month, gpu_hours=1000.0,
        )
        wf.story4_ssh_session(f"pi-w{wave}")
        dri.clock.advance(month + 3600)
        assert dri.portal.project(s1.data["project_id"]).status.value == "expired"
    # nothing lingers: no active members anywhere, no live sessions
    for project in dri.portal.projects():
        assert project.active_members() == []
    assert dri.login_sshd.sessions() == []
    tokens, now = dri.broker.tokens, dri.clock.now()
    user_tokens = [t for jti, t in tokens._issued.items()
                   if t.role != "service" and t.expires_at > now
                   and not tokens.is_revoked(jti)]
    assert user_tokens == []
    for name, log in dri.logs.items():
        intact, bad = log.verify_chain()
        assert intact, (name, bad)