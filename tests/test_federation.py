"""Tests for institutional IdPs, eduGAIN, MyAccessID, last-resort and admin IdPs."""

import json

import pytest

from repro.core import build_isambard
from repro.crypto import JwkSet, JwtValidator
from repro.crypto.jws import b64url_decode
from repro.errors import (
    AssuranceTooLow,
    AuthenticationError,
    ConfigurationError,
    FederationError,
    MFAFailed,
    RegistrationError,
)
from repro.federation import (
    CloudAdminIdP,
    EntityCategory,
    HardwareKey,
    InstitutionalIdP,
    LastResortIdP,
    LevelOfAssurance,
    MyAccessID,
)
from repro.federation.directory import (
    ShardedAccountRegistry,
    ShardedMetadataStore,
)
from repro.net import HttpRequest, OperatingDomain, Zone
from repro.oidc import UserAgent, make_url
from tests.conftest import Wiring


@pytest.fixture()
def fed_world(sim):
    """An institutional IdP + eduGAIN + MyAccessID, attached to the network."""
    clock, ids, network = sim
    network.firewall.allow(
        "internet-to-external-idps",
        src_domain=OperatingDomain.EXTERNAL,
        dst_domain=OperatingDomain.EXTERNAL,
    )
    idp = InstitutionalIdP("idp-bristol", "https://idp.bristol.ac.uk", clock, ids,
                           **Wiring())
    idp.add_user("alice", "pw", "Alice Smith", "alice@bristol.ac.uk")
    edugain = ShardedMetadataStore(clock, shards=1)
    edugain.register_idp(idp, federation="UKAMF", display_name="University of Bristol")
    ma = MyAccessID("myaccessid", clock, ids, edugain,
                    ShardedAccountRegistry(clock, ids, shards=1), **Wiring())
    agent = UserAgent("laptop")
    network.attach(idp, OperatingDomain.EXTERNAL, Zone.INTERNET)
    network.attach(ma, OperatingDomain.EXTERNAL, Zone.INTERNET)
    network.attach(agent, OperatingDomain.EXTERNAL, Zone.INTERNET)
    return clock, ids, network, idp, edugain, ma, agent


def idp_assertion(agent, idp_name="idp-bristol", sp="https://myaccessid",
                  username="alice", password="pw"):
    resp, _ = agent.post(
        make_url(idp_name, "/login"),
        {"username": username, "password": password, "sp": sp},
    )
    return resp


# ---------------------------------------------------------------------------
# institutional IdP
# ---------------------------------------------------------------------------
def test_idp_login_returns_signed_assertion(fed_world):
    clock, ids, network, idp, edugain, ma, agent = fed_world
    resp = idp_assertion(agent)
    assert resp.ok
    validator = JwtValidator(
        clock, "https://idp.bristol.ac.uk", "https://myaccessid",
        JwkSet([idp.verifier()]),
    )
    claims = validator.validate(resp.body["assertion"])
    assert claims["name"] == "Alice Smith"
    assert claims["eduperson_scoped_affiliation"] == "member@idp.bristol.ac.uk"


def test_idp_bad_password_denied(fed_world):
    *_, agent = fed_world
    resp = idp_assertion(agent, password="wrong")
    assert resp.status == 403


def test_idp_deaffiliated_user_denied(fed_world):
    _, _, _, idp, _, _, agent = fed_world
    idp.deactivate_user("alice")
    resp = idp_assertion(agent)
    assert resp.status == 403 and "no longer affiliated" in resp.body["error"]


def test_idp_requires_sp_audience(fed_world):
    *_, agent = fed_world
    resp = idp_assertion(agent, sp="")
    assert resp.status == 403


def test_non_rns_idp_releases_only_sub(sim):
    clock, ids, network = sim
    idp = InstitutionalIdP(
        "idp-min", "https://idp.min.example", clock, ids, categories=(),
        **Wiring()
    )
    idp.add_user("bob", "pw", "Bob", "bob@min.example")
    resp = idp.handle(HttpRequest(
        "POST", "/login", body={"username": "bob", "password": "pw", "sp": "x"}
    ))
    claims = json.loads(b64url_decode(resp.body["assertion"].split(".")[1]))
    assert "name" not in claims and "email" not in claims
    assert claims["sub"].startswith("idp-min-sub")


def test_idp_duplicate_user_rejected(fed_world):
    _, _, _, idp, *_ = fed_world
    with pytest.raises(ConfigurationError):
        idp.add_user("alice", "x", "A", "a@b")


# ---------------------------------------------------------------------------
# eduGAIN
# ---------------------------------------------------------------------------
def test_edugain_metadata_lookup(fed_world):
    _, _, _, idp, edugain, *_ = fed_world
    md = edugain.get("https://idp.bristol.ac.uk")
    assert md.federation == "UKAMF"
    assert md.display_name == "University of Bristol"
    assert [md.federation for md in edugain.idps()] == ["UKAMF"]


def test_edugain_unknown_entity_raises(fed_world):
    _, _, _, _, edugain, *_ = fed_world
    with pytest.raises(FederationError):
        edugain.get("https://unknown.example")


def test_edugain_duplicate_registration_rejected(fed_world):
    _, _, _, idp, edugain, *_ = fed_world
    with pytest.raises(ConfigurationError):
        edugain.register_idp(idp, federation="UKAMF")


# ---------------------------------------------------------------------------
# MyAccessID proxy
# ---------------------------------------------------------------------------
def test_discovery_lists_acceptable_idps(fed_world):
    clock, ids, network, idp, edugain, ma, agent = fed_world
    low = InstitutionalIdP(
        "idp-low", "https://idp.low.example", clock, ids,
        loa=LevelOfAssurance.LOW, categories=(), **Wiring(),
    )
    network.attach(low, OperatingDomain.EXTERNAL, Zone.INTERNET)
    edugain.register_idp(low, federation="SomeFed")
    resp, _ = agent.get(make_url("myaccessid", "/discovery"))
    by_entity = {c["entity_id"]: c for c in resp.body["idps"]}
    assert by_entity["https://idp.bristol.ac.uk"]["acceptable"] is True
    assert by_entity["https://idp.low.example"]["acceptable"] is False


def test_assert_establishes_account_and_session(fed_world):
    clock, ids, network, idp, edugain, ma, agent = fed_world
    assertion = idp_assertion(agent).body["assertion"]
    resp, _ = agent.post(
        make_url("myaccessid", "/assert"),
        {"entity_id": "https://idp.bristol.ac.uk", "assertion": assertion},
    )
    assert resp.ok and resp.body["uid"].endswith("@myaccessid")
    assert "sid" in agent.cookies["myaccessid"]


def test_account_uid_is_persistent_across_logins(fed_world):
    clock, ids, network, idp, edugain, ma, agent = fed_world
    uids = []
    for _ in range(2):
        assertion = idp_assertion(agent).body["assertion"]
        resp, _ = agent.post(
            make_url("myaccessid", "/assert"),
            {"entity_id": "https://idp.bristol.ac.uk", "assertion": assertion},
        )
        uids.append(resp.body["uid"])
    assert uids[0] == uids[1]
    assert len(ma.registry) == 1


def test_distinct_users_get_distinct_uids(fed_world):
    clock, ids, network, idp, edugain, ma, agent = fed_world
    idp.add_user("carol", "pw2", "Carol", "carol@bristol.ac.uk")
    a1 = idp_assertion(agent).body["assertion"]
    r1, _ = agent.post(make_url("myaccessid", "/assert"),
                       {"entity_id": idp.entity_id, "assertion": a1})
    agent.clear_cookies("myaccessid")
    a2 = idp_assertion(agent, username="carol", password="pw2").body["assertion"]
    r2, _ = agent.post(make_url("myaccessid", "/assert"),
                       {"entity_id": idp.entity_id, "assertion": a2})
    assert r1.body["uid"] != r2.body["uid"]


def test_low_assurance_idp_rejected_at_assert(fed_world):
    clock, ids, network, idp, edugain, ma, agent = fed_world
    low = InstitutionalIdP(
        "idp-low", "https://idp.low.example", clock, ids,
        loa=LevelOfAssurance.LOW, categories=(), **Wiring(),
    )
    low.add_user("eve", "pw", "Eve", "eve@low.example")
    network.attach(low, OperatingDomain.EXTERNAL, Zone.INTERNET)
    edugain.register_idp(low, federation="SomeFed")
    assertion = idp_assertion(agent, idp_name="idp-low", username="eve").body["assertion"]
    resp, _ = agent.post(
        make_url("myaccessid", "/assert"),
        {"entity_id": "https://idp.low.example", "assertion": assertion},
    )
    assert resp.status == 403 and resp.body["error_type"] == "AssuranceTooLow"


def test_assertion_from_unregistered_idp_rejected(fed_world):
    clock, ids, network, idp, edugain, ma, agent = fed_world
    rogue = InstitutionalIdP("idp-rogue", "https://rogue.example", clock, ids,
                             **Wiring())
    rogue.add_user("eve", "pw", "Eve", "eve@rogue.example")
    network.attach(rogue, OperatingDomain.EXTERNAL, Zone.INTERNET)
    assertion = idp_assertion(agent, idp_name="idp-rogue", username="eve").body["assertion"]
    resp, _ = agent.post(
        make_url("myaccessid", "/assert"),
        {"entity_id": "https://rogue.example", "assertion": assertion},
    )
    assert resp.status == 403


def test_tampered_assertion_rejected(fed_world):
    clock, ids, network, idp, edugain, ma, agent = fed_world
    assertion = idp_assertion(agent).body["assertion"]
    parts = assertion.split(".")
    tampered = parts[0] + "." + parts[1] + "." + parts[2][:-4] + "AAAA"
    resp, _ = agent.post(
        make_url("myaccessid", "/assert"),
        {"entity_id": idp.entity_id, "assertion": tampered},
    )
    assert resp.status == 403


def test_expired_assertion_rejected(fed_world):
    clock, ids, network, idp, edugain, ma, agent = fed_world
    assertion = idp_assertion(agent).body["assertion"]
    clock.advance(600)
    resp, _ = agent.post(
        make_url("myaccessid", "/assert"),
        {"entity_id": idp.entity_id, "assertion": assertion},
    )
    assert resp.status == 403


def test_identity_linking(fed_world):
    clock, ids, network, idp, edugain, ma, agent = fed_world
    second = InstitutionalIdP("idp-tartu", "https://idp.ut.ee", clock, ids,
                              **Wiring())
    second.add_user("alice2", "pw", "Alice Smith", "alice@ut.ee")
    network.attach(second, OperatingDomain.EXTERNAL, Zone.INTERNET)
    edugain.register_idp(second, federation="TAAT")

    a1 = idp_assertion(agent).body["assertion"]
    r1, _ = agent.post(make_url("myaccessid", "/assert"),
                       {"entity_id": idp.entity_id, "assertion": a1})
    a2 = idp_assertion(agent, idp_name="idp-tartu", username="alice2").body["assertion"]
    r2, _ = agent.post(make_url("myaccessid", "/link"),
                       {"entity_id": "https://idp.ut.ee", "assertion": a2})
    assert r2.ok
    assert set(r2.body["linked"]) == {idp.entity_id, "https://idp.ut.ee"}
    # logging in later via the linked IdP resolves to the same account
    agent.clear_cookies("myaccessid")
    a3 = idp_assertion(agent, idp_name="idp-tartu", username="alice2").body["assertion"]
    r3, _ = agent.post(make_url("myaccessid", "/assert"),
                       {"entity_id": "https://idp.ut.ee", "assertion": a3})
    assert r3.body["uid"] == r1.body["uid"]


def test_link_requires_session(fed_world):
    clock, ids, network, idp, edugain, ma, agent = fed_world
    a = idp_assertion(agent).body["assertion"]
    resp, _ = agent.post(make_url("myaccessid", "/link"),
                         {"entity_id": idp.entity_id, "assertion": a})
    assert resp.status == 403


def test_link_already_owned_identity_rejected(fed_world):
    clock, ids, network, idp, edugain, ma, agent = fed_world
    idp.add_user("carol", "pw2", "Carol", "carol@bristol.ac.uk")
    a1 = idp_assertion(agent).body["assertion"]
    agent.post(make_url("myaccessid", "/assert"),
               {"entity_id": idp.entity_id, "assertion": a1})
    # carol registers her own account
    other = UserAgent("laptop2")
    network.attach(other, OperatingDomain.EXTERNAL, Zone.INTERNET)
    a2 = idp_assertion(other, username="carol", password="pw2").body["assertion"]
    other.post(make_url("myaccessid", "/assert"),
               {"entity_id": idp.entity_id, "assertion": a2})
    # alice tries to link carol's identity to her account
    a3 = idp_assertion(agent, username="carol", password="pw2").body["assertion"]
    resp, _ = agent.post(make_url("myaccessid", "/link"),
                         {"entity_id": idp.entity_id, "assertion": a3})
    assert resp.status == 403


# ---------------------------------------------------------------------------
# Identity Provider of Last Resort
# ---------------------------------------------------------------------------
@pytest.fixture()
def last_resort(sim):
    clock, ids, network = sim
    lr = LastResortIdP("idp-lastresort", clock, ids, **Wiring())
    agent = UserAgent("vendor-laptop")
    network.firewall.allow(
        "internet-to-lr",
        src_domain=OperatingDomain.EXTERNAL,
        dst_domain=OperatingDomain.FDS,
    )
    network.attach(lr, OperatingDomain.FDS, Zone.ACCESS)
    network.attach(agent, OperatingDomain.EXTERNAL, Zone.INTERNET)
    return clock, ids, network, lr, agent


def register_lr(lr, agent, code, username="vendor1", password="a-long-password!"):
    resp, _ = agent.post(
        make_url("idp-lastresort", "/register"),
        {"invite_code": code, "username": username, "password": password},
    )
    return resp


def test_last_resort_invite_register_login(last_resort):
    clock, ids, network, lr, agent = last_resort
    code = lr.invite("vendor@aisi.gov.uk")
    resp = register_lr(lr, agent, code)
    assert resp.ok
    from repro.federation.mfa import TotpDevice

    totp = TotpDevice(secret=bytes.fromhex(resp.body["totp_secret"]))
    login, _ = agent.post(
        make_url("idp-lastresort", "/login"),
        {"username": "vendor1", "password": "a-long-password!",
         "otp": totp.code_at(clock.now())},
    )
    assert login.ok and login.body["authenticated"]


def test_last_resort_invite_single_use(last_resort):
    _, _, _, lr, agent = last_resort
    code = lr.invite("v@e.com")
    assert register_lr(lr, agent, code).ok
    assert register_lr(lr, agent, code, username="other").status == 403


def test_last_resort_login_without_otp_fails(last_resort):
    clock, _, _, lr, agent = last_resort
    code = lr.invite("v@e.com")
    register_lr(lr, agent, code)
    resp, _ = agent.post(
        make_url("idp-lastresort", "/login"),
        {"username": "vendor1", "password": "a-long-password!"},
    )
    assert resp.status == 403 and resp.body["error_type"] == "MFARequired"


def test_last_resort_wrong_otp_fails(last_resort):
    clock, _, _, lr, agent = last_resort
    code = lr.invite("v@e.com")
    register_lr(lr, agent, code)
    resp, _ = agent.post(
        make_url("idp-lastresort", "/login"),
        {"username": "vendor1", "password": "a-long-password!", "otp": "000000"},
    )
    assert resp.status == 403


def test_last_resort_weak_password_rejected(last_resort):
    _, _, _, lr, agent = last_resort
    code = lr.invite("v@e.com")
    assert register_lr(lr, agent, code, password="short").status == 403


def test_last_resort_deactivation_blocks_login(last_resort):
    clock, _, _, lr, agent = last_resort
    code = lr.invite("v@e.com")
    resp = register_lr(lr, agent, code)
    lr.deactivate("vendor1")
    from repro.federation.mfa import TotpDevice

    totp = TotpDevice(secret=bytes.fromhex(resp.body["totp_secret"]))
    login, _ = agent.post(
        make_url("idp-lastresort", "/login"),
        {"username": "vendor1", "password": "a-long-password!",
         "otp": totp.code_at(clock.now())},
    )
    assert login.status == 403


# ---------------------------------------------------------------------------
# Cloud admin IdP (user story 2)
# ---------------------------------------------------------------------------
@pytest.fixture()
def admin_world(sim):
    clock, ids, network = sim
    idp = CloudAdminIdP("idp-admin", clock, ids, max_admins=3, **Wiring())
    agent = UserAgent("admin-laptop")
    network.attach(idp, OperatingDomain.FDS, Zone.ACCESS)
    network.attach(agent, OperatingDomain.EXTERNAL, Zone.INTERNET)
    return clock, ids, network, idp, agent


def onboard_admin(idp, agent, username="ops1", approver="bootstrap",
                  email=None, approve=True):
    email = email or f"{username}@bristol.ac.uk"
    code = idp.invite_admin(email, invited_by="bootstrap")
    device = HardwareKey(f"hwk-{username}")
    idp.enrol_hardware_key(device)
    resp, _ = agent.post(
        make_url("idp-admin", "/register"),
        {"invite_code": code, "username": username,
         "password": "x" * 20, "device_id": device.device_id},
    )
    if approve and resp.ok:
        idp.approve_admin(username, approver=approver)
    return resp, device


def admin_login(idp, agent, device, username="ops1"):
    resp, _ = agent.post(
        make_url("idp-admin", "/login"),
        {"username": username, "password": "x" * 20},
    )
    if not resp.ok:
        return resp
    challenge = bytes.fromhex(resp.body["challenge"])
    assertion = device.sign_challenge(challenge)
    resp2, _ = agent.post(
        make_url("idp-admin", "/login/mfa"),
        {"username": username, "assertion": assertion},
    )
    return resp2


def test_admin_onboarding_and_hwk_login(admin_world):
    clock, ids, network, idp, agent = admin_world
    resp, device = onboard_admin(idp, agent)
    assert resp.ok and resp.body["pending_approval"]
    login = admin_login(idp, agent, device)
    assert login.ok and login.body["authenticated"]
    assert idp.active_admins() == 1


def test_admin_unapproved_cannot_login(admin_world):
    clock, ids, network, idp, agent = admin_world
    _, device = onboard_admin(idp, agent, approve=False)
    resp = admin_login(idp, agent, device)
    assert resp.status == 403 and "approval" in resp.body["error"]


def test_admin_cannot_self_approve(admin_world):
    from repro.errors import AuthorizationError

    clock, ids, network, idp, agent = admin_world
    onboard_admin(idp, agent, approve=False)
    with pytest.raises(AuthorizationError):
        idp.approve_admin("ops1", approver="ops1")


def test_admin_requires_institutional_email(admin_world):
    _, _, _, idp, _ = admin_world
    with pytest.raises(RegistrationError):
        idp.invite_admin("mallory@gmail.com", invited_by="bootstrap")


def test_admin_group_size_capped(admin_world):
    clock, ids, network, idp, agent = admin_world
    for i in range(3):
        onboard_admin(idp, agent, username=f"ops{i}")
    with pytest.raises(RegistrationError):
        idp.invite_admin("ops9@bristol.ac.uk", invited_by="bootstrap")


def test_admin_registration_requires_enrolled_hardware_key(admin_world):
    _, _, _, idp, agent = admin_world
    code = idp.invite_admin("ops1@bristol.ac.uk", invited_by="bootstrap")
    resp, _ = agent.post(
        make_url("idp-admin", "/register"),
        {"invite_code": code, "username": "ops1",
         "password": "x" * 20, "device_id": "not-enrolled"},
    )
    assert resp.status == 403


def test_admin_login_wrong_device_rejected(admin_world):
    clock, ids, network, idp, agent = admin_world
    _, device = onboard_admin(idp, agent)
    # a second admin's key cannot answer for ops1
    other = HardwareKey("hwk-other")
    idp.enrol_hardware_key(other)
    resp, _ = agent.post(make_url("idp-admin", "/login"),
                         {"username": "ops1", "password": "x" * 20})
    challenge = bytes.fromhex(resp.body["challenge"])
    resp2, _ = agent.post(
        make_url("idp-admin", "/login/mfa"),
        {"username": "ops1", "assertion": other.sign_challenge(challenge)},
    )
    assert resp2.status == 403


def test_admin_removal_severs_sessions_and_blocks_login(admin_world):
    clock, ids, network, idp, agent = admin_world
    _, device = onboard_admin(idp, agent)
    assert admin_login(idp, agent, device).ok
    severed = idp.remove_admin("ops1", removed_by="ops-lead")
    assert severed == 1
    assert admin_login(idp, agent, device).status == 403


def test_admin_no_password_only_path(admin_world):
    """Even a correct password never yields a session directly."""
    clock, ids, network, idp, agent = admin_world
    onboard_admin(idp, agent)
    resp, _ = agent.post(make_url("idp-admin", "/login"),
                         {"username": "ops1", "password": "x" * 20})
    assert resp.ok and resp.body.get("mfa_required") is True
    assert "Set-Cookie" not in resp.headers


def test_lastresort_user_full_ssh_journey():
    dri = build_isambard(seed=95)
    s1 = dri.workflows.story1_pi_onboarding(
        "vendor-pi", via="lastresort", project_name="proj-aisi")
    assert s1.ok, s1.steps
    s4 = dri.workflows.story4_ssh_session("vendor-pi")
    assert s4.ok, s4.steps
    assert s4.data["principal"].startswith("vendorpi.")
    # and Jupyter works for them too
    s6 = dri.workflows.story6_jupyter("vendor-pi")
    assert s6.ok, s6.steps


def test_institution_change_with_identity_linking():
    """A researcher moves from Bristol to Tartu mid-project.  Linking the
    new institutional identity to their MyAccessID account preserves the
    persistent uid — projects, unix accounts and roles survive the move.
    """
    dri = build_isambard(seed=96)
    s1 = dri.workflows.story1_pi_onboarding("remy")
    remy = dri.workflows.personas["remy"]
    uid = remy.broker_sub

    # new identity at Tartu
    tartu = dri.idps["idp-tartu"]
    tartu.add_user("remy.t", "pw-new", "Remy", "remy@idp.ut.ee")

    # while still logged in at MyAccessID, link the Tartu identity
    login, _ = remy.agent.post(
        make_url("idp-tartu", "/login"),
        {"username": "remy.t", "password": "pw-new",
         "sp": dri.myaccessid.entity_id},
    )
    link, _ = remy.agent.post(
        make_url("myaccessid", "/link"),
        {"entity_id": tartu.entity_id, "assertion": login.body["assertion"]},
    )
    assert link.ok, link.body

    # Bristol de-affiliates them; fresh login via Tartu still maps to the
    # same account, so the project role is intact
    dri.idps["idp-bristol"].deactivate_user("remy")
    remy.agent.clear_cookies("broker")
    remy.agent.clear_cookies("myaccessid")
    remy.idp_endpoint = "idp-tartu"
    remy.username, remy.password = "remy.t", "pw-new"
    resp = dri.workflows.login(remy)
    assert resp.ok, resp.body
    assert resp.body["sub"] == uid
    mint = dri.workflows.mint(remy, "portal", "pi",
                              project=s1.data["project_id"])
    assert mint.ok
