"""Integration tests: broker login flows, authorisation-led registration,
RBAC minting, portal project lifecycle.  These exercise user stories 1-3."""

import pytest

from repro.broker import Role
from repro.core import build_isambard
from repro.errors import AuthorizationError
from repro.oidc import make_url


# ---------------------------------------------------------------------------
# Fig. 2 login page
# ---------------------------------------------------------------------------
def test_login_page_lists_three_provider_kinds(world):
    resp, _ = world.agent.get(make_url("broker", "/login"))
    kinds = {p["kind"] for p in resp.body["providers"]}
    assert kinds == {"federated", "lastresort", "admin"}
    assert "privacy_policy" in resp.body["links"]


def test_login_requires_terms_acceptance(world):
    resp, _ = world.agent.get(make_url("broker", "/login/start", idp="myaccessid"))
    assert resp.status == 400 and "terms" in resp.body["error"]


def test_unknown_idp_rejected(world):
    resp, _ = world.agent.get(
        make_url("broker", "/login/start", idp="evil", accept_terms="true")
    )
    assert resp.status == 400


# ---------------------------------------------------------------------------
# authorisation-led registration
# ---------------------------------------------------------------------------
def test_unauthorised_identity_cannot_register(world):
    """MyAccessID authentication succeeds, broker registration fails:
    no role, no invitation (the paper's core registration rule)."""
    resp = world.federated_login()
    assert resp.status == 403
    assert resp.body["error_type"] == "RegistrationError"
    assert "authorisation-led" in resp.body["error"]
    denials = world.broker.audit.query(action="login.denied")
    assert denials and denials[-1].attrs["reason"] == "authorisation-led-registration"


def test_invited_pi_can_register_and_login(world):
    project_id, invite = world.create_project(pi_email="alice@bristol.ac.uk")
    resp = world.federated_login()
    assert resp.ok, resp.body
    assert resp.body["authenticated"] is True
    accept = world.accept_invitation(world.agent, invite, preferred="alice")
    assert accept.ok, accept.body
    assert accept.body["role"] == "pi"
    assert accept.body["unix_account"].startswith("alice.")


def test_invitation_for_other_email_rejected(world):
    project_id, invite = world.create_project(pi_email="someoneelse@other.org")
    # alice can login (invitation pending for a *different* email won't show)
    resp = world.federated_login()
    assert resp.status == 403  # alice has no invitation under her email


def test_wrong_invite_code_rejected(world):
    project_id, invite = world.create_project(pi_email="alice@bristol.ac.uk")
    world.federated_login()
    resp = world.accept_invitation(world.agent, "bogus-code")
    assert resp.status == 403


def test_admin_without_granted_role_denied(world):
    """Being in the admin IdP grants nothing without an ACL entry."""
    from repro.federation import HardwareKey

    agent = world.new_agent("rogue-admin-laptop")
    code = world.admin_idp.invite_admin("mallory@bristol.ac.uk", invited_by="boot")
    device = HardwareKey("hwk-mallory")
    world.admin_idp.enrol_hardware_key(device)
    agent.post(make_url("idp-admin", "/register"),
               {"invite_code": code, "username": "mallory",
                "password": "p" * 20, "device_id": device.device_id})
    world.admin_idp.approve_admin("mallory", approver="boot")
    resp = world.admin_login(agent, "mallory", "p" * 20, device)
    assert resp.status == 403
    assert resp.body["error_type"] == "RegistrationError"


# ---------------------------------------------------------------------------
# RBAC minting rules
# ---------------------------------------------------------------------------
def full_pi_setup(world):
    project_id, invite = world.create_project(pi_email="alice@bristol.ac.uk")
    world.federated_login()
    world.accept_invitation(world.agent, invite, preferred="alice")
    # re-login to refresh role claims in the broker session
    world.agent.clear_cookies("broker")
    world.federated_login()
    return project_id


def test_mint_role_user_actually_holds(world):
    project_id = full_pi_setup(world)
    resp = world.mint(world.agent, "portal", "pi", project=project_id)
    assert resp.ok
    assert resp.body["role"] == "pi"


def test_mint_role_user_lacks_denied(world):
    project_id = full_pi_setup(world)
    resp = world.mint(world.agent, "tailnet", "admin-infra")
    assert resp.status == 403


def test_mint_for_foreign_project_denied(world):
    project_id = full_pi_setup(world)
    resp = world.mint(world.agent, "portal", "pi", project="proj-9999")
    assert resp.status == 403


def test_mint_requires_authentication(world):
    agent = world.new_agent("anon-laptop")
    resp = world.mint(agent, "portal", "pi")
    assert resp.status == 403


def test_invitee_token_is_portal_only(world):
    project_id, invite = world.create_project(pi_email="alice@bristol.ac.uk")
    world.federated_login()
    resp = world.mint(world.agent, "login-node", "invitee")
    assert resp.status == 403


# ---------------------------------------------------------------------------
# user story 3: researcher lifecycle
# ---------------------------------------------------------------------------
def onboard_researcher(world, project_id, pi_agent):
    """PI invites bob; bob logs in and accepts."""
    pi_token = world.mint(pi_agent, "portal", "pi", project=project_id).body["token"]
    invite_resp, _ = pi_agent.post(
        make_url("portal", "/invite"),
        {"project_id": project_id, "email": "bob@bristol.ac.uk"},
        headers={"Authorization": f"Bearer {pi_token}"},
    )
    assert invite_resp.ok, invite_resp.body
    bob = world.new_agent("bob-laptop")
    login = world.federated_login(bob, username="bob", password="pw-bob")
    assert login.ok, login.body
    accept = world.accept_invitation(bob, invite_resp.body["invite_code"],
                                     preferred="bob")
    assert accept.ok, accept.body
    bob.clear_cookies("broker")
    world.federated_login(bob, username="bob", password="pw-bob")
    return bob, accept.body


def test_pi_invites_researcher(world):
    project_id = full_pi_setup(world)
    bob, details = onboard_researcher(world, project_id, world.agent)
    assert details["role"] == "researcher"
    resp = world.mint(bob, "login-node", "researcher", project=project_id)
    assert resp.ok


def test_researcher_cannot_invite(world):
    project_id = full_pi_setup(world)
    bob, _ = onboard_researcher(world, project_id, world.agent)
    token = world.mint(bob, "portal", "researcher", project=project_id).body["token"]
    resp, _ = bob.post(
        make_url("portal", "/invite"),
        {"project_id": project_id, "email": "carol@bristol.ac.uk"},
        headers={"Authorization": f"Bearer {token}"},
    )
    assert resp.status == 403  # researcher token lacks project.invite


def test_pi_revokes_researcher_and_tokens_die(world):
    project_id = full_pi_setup(world)
    bob, _ = onboard_researcher(world, project_id, world.agent)
    bob_token = world.mint(bob, "login-node", "researcher",
                           project=project_id).body
    bob_sub = world.broker.tokens.issued(bob_token["jti"]).subject

    pi_token = world.mint(world.agent, "portal", "pi", project=project_id).body["token"]
    revoke, _ = world.agent.post(
        make_url("portal", "/revoke_member"),
        {"project_id": project_id, "uid": bob_sub},
        headers={"Authorization": f"Bearer {pi_token}"},
    )
    assert revoke.ok, revoke.body
    # bob's live project tokens are revoked
    assert world.broker.tokens.is_revoked(bob_token["jti"])
    # and bob can no longer mint for the project
    resp = world.mint(bob, "login-node", "researcher", project=project_id)
    assert resp.status == 403


def test_deaffiliated_user_cannot_authenticate(world):
    project_id = full_pi_setup(world)
    bob, _ = onboard_researcher(world, project_id, world.agent)
    world.idp.deactivate_user("bob")
    bob.clear_cookies("broker")
    bob.clear_cookies("myaccessid")
    resp = world.federated_login(bob, username="bob", password="pw-bob")
    assert resp.status == 403  # fails at the institutional IdP


# ---------------------------------------------------------------------------
# user story 1: expiry and closure
# ---------------------------------------------------------------------------
def test_project_expiry_revokes_everything(world):
    project_id, invite = world.create_project(
        pi_email="alice@bristol.ac.uk", duration=3600.0
    )
    world.federated_login()
    world.accept_invitation(world.agent, invite)
    world.agent.clear_cookies("broker")
    world.federated_login()
    token = world.mint(world.agent, "portal", "pi", project=project_id).body
    world.clock.advance(3700)  # cross the allocation end
    project = world.portal.project(project_id)
    assert project.status.value == "expired"
    assert project.active_members() == []
    # the minted token is dead (revoked by teardown or already expired —
    # either way it no longer validates)
    from repro.broker import RbacTokenValidator
    from repro.errors import TokenError

    v = RbacTokenValidator(world.clock, world.broker.issuer, "portal",
                           world.broker.jwks, world.broker.tokens.is_revoked)
    with pytest.raises(TokenError):
        v.validate(token["token"])
    # authz for alice is now empty -> next login fails registration
    world.agent.clear_cookies("broker")
    resp = world.federated_login()
    assert resp.status == 403


def test_allocator_closes_project_on_demand(world):
    project_id = full_pi_setup(world)
    alloc_agent = [a for a in [world.network.endpoint("alloc1-laptop")]][0].service
    token = world.mint(alloc_agent, "portal", "allocator").body["token"]
    resp, _ = alloc_agent.post(
        make_url("portal", "/close_project"), {"project_id": project_id},
        headers={"Authorization": f"Bearer {token}"},
    )
    assert resp.ok and resp.body["members_removed"] == 1
    assert world.portal.project(project_id).status.value == "closed"


def test_project_usage_accounting(world):
    from repro.errors import QuotaExceeded

    project_id, _ = world.create_project(gpu_hours=10.0)
    world.portal.record_usage(project_id, 6.0)
    world.portal.record_usage(project_id, 3.0)
    with pytest.raises(QuotaExceeded):
        world.portal.record_usage(project_id, 2.0)


def test_pi_views_project_detail(world):
    project_id = full_pi_setup(world)
    token = world.mint(world.agent, "portal", "pi", project=project_id).body["token"]
    resp, _ = world.agent.get(
        make_url("portal", "/project", project_id=project_id),
        headers={"Authorization": f"Bearer {token}"},
    )
    assert resp.ok
    assert resp.body["status"] == "active"
    assert len(resp.body["members"]) == 1


# ---------------------------------------------------------------------------
# administrative role revocation (the ACL side of user story 2)
# ---------------------------------------------------------------------------
def test_revoke_admin_role_severs_access():
    dri = build_isambard(seed=131)
    wf = dri.workflows
    ops = wf.create_admin("ops1", Role.ADMIN_INFRA)
    assert wf.login(ops).ok
    assert wf.mint(ops, "tailnet", "admin-infra").ok

    dri.broker.revoke_admin_role("idp-admin:ops1", Role.ADMIN_INFRA)
    # live access is gone (tokens + sessions revoked with the role)
    resp = wf.mint(ops, "tailnet", "admin-infra")
    assert resp.status == 403
    # and a fresh authentication no longer yields a broker session at all
    relogin = wf.relogin(ops)
    assert relogin.status == 403  # no admin role -> registration denied


def test_revoke_one_of_two_admin_roles():
    dri = build_isambard(seed=132)
    wf = dri.workflows
    dual = wf.create_admin("dual", Role.ADMIN_INFRA, Role.ADMIN_SECURITY)
    wf.login(dual)
    dri.broker.revoke_admin_role("idp-admin:dual", Role.ADMIN_SECURITY)
    wf.relogin(dual)
    assert wf.mint(dual, "tailnet", "admin-infra").ok
    assert wf.mint(dual, "soc", "admin-security").status == 403


# ---------------------------------------------------------------------------
# step-up re-authentication for administrative tokens
# ---------------------------------------------------------------------------
def test_admin_token_requires_fresh_authentication():
    dri = build_isambard(seed=31)
    dri.broker.admin_max_auth_age = 600.0
    wf = dri.workflows
    admin = wf.create_admin("ops1", Role.ADMIN_INFRA)
    wf.login(admin)
    assert wf.mint(admin, "tailnet", "admin-infra").ok
    dri.clock.advance(700)  # session still alive (1h) but auth is stale
    stale = wf.mint(admin, "tailnet", "admin-infra")
    assert stale.status == 403 and "re-authentication" in stale.body["error"]
    wf.relogin(admin)
    assert wf.mint(admin, "tailnet", "admin-infra").ok


def test_researcher_tokens_not_subject_to_stepup():
    dri = build_isambard(seed=37)
    dri.broker.admin_max_auth_age = 600.0
    s1 = dri.workflows.story1_pi_onboarding("pat")
    pat = dri.workflows.personas["pat"]
    dri.clock.advance(700)
    resp = dri.workflows.mint(pat, "portal", "pi",
                              project=s1.data["project_id"])
    assert resp.ok  # dynamic portal check suffices for user roles


def test_grant_admin_role_validates_role():
    dri = build_isambard(seed=133)
    with pytest.raises(AuthorizationError):
        dri.broker.grant_admin_role("idp-admin:x", Role.RESEARCHER)
