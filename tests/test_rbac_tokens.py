"""Tests for roles/capabilities and the RBAC token service."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker.rbac import CAPABILITIES, Role, capabilities_for, require_capability
from repro.broker.tokens import RbacTokenValidator, TokenService
from repro.clock import SimClock
from repro.crypto import JwkSet, JwtValidator, encode_jwt
from repro.crypto.jws import b64url_decode
from repro.crypto.keys import VerifyingKey, generate_signing_key
from repro.errors import (
    AudienceMismatch,
    AuthorizationError,
    EpochFenced,
    ReproError,
    TokenExpired,
    TokenRevoked,
)
from repro.ids import IdFactory
from repro.net import HttpRequest
from tests.conftest import BrokerWorld, Wiring
from tests.test_hot_path_bookkeeping import count_real_verifications

ISS = "https://broker"


def _payload(token):
    """A token's claims, read without checking its signature."""
    return json.loads(b64url_decode(token.split(".")[1]))


@pytest.fixture()
def svc():
    clock = SimClock(start=0.0)
    key = generate_signing_key("EdDSA", kid="b1")
    service = TokenService(clock, IdFactory(1), key, ISS,
                           default_ttl=900, max_ttl=3600, **Wiring())
    return clock, key, service


def validator(clock, key, audience, service):
    return RbacTokenValidator(
        clock, ISS, audience, JwkSet([key.public()]), service.is_revoked
    )


# ---------------------------------------------------------------------------
# roles
# ---------------------------------------------------------------------------
def test_every_role_has_capabilities():
    for role in Role:
        assert capabilities_for(role), f"{role} grants nothing"


def test_pi_is_superset_of_researcher():
    assert capabilities_for(Role.RESEARCHER) < capabilities_for(Role.PI)


def test_researcher_cannot_invite():
    assert "project.invite" not in capabilities_for(Role.RESEARCHER)
    assert "project.invite" in capabilities_for(Role.PI)


def test_admin_roles_are_disjoint_from_user_roles():
    """No blanket authorisation: infra admins hold no researcher caps."""
    assert not capabilities_for(Role.ADMIN_INFRA) & capabilities_for(Role.RESEARCHER)
    assert not capabilities_for(Role.ADMIN_SECURITY) & capabilities_for(Role.PI)


def test_unknown_role_grants_nothing():
    assert capabilities_for("superuser") == frozenset()


def test_require_capability_enforces():
    claims = {"sub": "alice", "role": "researcher",
              "caps": sorted(capabilities_for(Role.RESEARCHER))}
    require_capability(claims, "cluster.login")
    with pytest.raises(AuthorizationError):
        require_capability(claims, "project.invite")
    with pytest.raises(AuthorizationError):
        require_capability({"sub": "x"}, "cluster.login")


# ---------------------------------------------------------------------------
# token service
# ---------------------------------------------------------------------------
def test_mint_and_validate(svc):
    clock, key, service = svc
    token, record = service.mint("alice", "login-node", Role.RESEARCHER,
                                 project="proj-1")
    claims = validator(clock, key, "login-node", service).validate(token)
    assert claims["sub"] == "alice"
    assert claims["role"] == "researcher"
    assert claims["project"] == "proj-1"
    assert "cluster.login" in claims["caps"]


def test_token_rejected_at_wrong_audience(svc):
    clock, key, service = svc
    token, _ = service.mint("alice", "login-node", Role.RESEARCHER)
    with pytest.raises(AudienceMismatch):
        validator(clock, key, "jupyter", service).validate(token)


def test_token_expires(svc):
    clock, key, service = svc
    token, _ = service.mint("alice", "login-node", Role.RESEARCHER, ttl=100)
    clock.advance(110)
    with pytest.raises(TokenExpired):
        validator(clock, key, "login-node", service).validate(token)


def test_ttl_clamped_to_max(svc):
    clock, key, service = svc
    _, record = service.mint("alice", "login-node", Role.RESEARCHER, ttl=10**9)
    assert record.expires_at - record.issued_at == service.max_ttl


def test_revoke_jti(svc):
    clock, key, service = svc
    token, record = service.mint("alice", "login-node", Role.RESEARCHER)
    assert service.revoke_jti(record.jti)
    with pytest.raises(TokenRevoked):
        validator(clock, key, "login-node", service).validate(token)
    assert not service.revoke_jti("nonexistent")


def test_revoke_subject_all_projects(svc):
    clock, key, service = svc
    t1, _ = service.mint("alice", "login-node", Role.RESEARCHER, project="p1")
    t2, _ = service.mint("alice", "jupyter", Role.RESEARCHER, project="p2")
    t3, _ = service.mint("bob", "login-node", Role.RESEARCHER, project="p1")
    assert service.revoke_subject("alice") == 2
    with pytest.raises(TokenRevoked):
        validator(clock, key, "login-node", service).validate(t1)
    assert validator(clock, key, "login-node", service).validate(t3)["sub"] == "bob"


def test_revoke_subject_scoped_to_project(svc):
    clock, key, service = svc
    t1, _ = service.mint("alice", "login-node", Role.RESEARCHER, project="p1")
    t2, _ = service.mint("alice", "login-node", Role.RESEARCHER, project="p2")
    assert service.revoke_subject("alice", project="p1") == 1
    with pytest.raises(TokenRevoked):
        validator(clock, key, "login-node", service).validate(t1)
    assert validator(clock, key, "login-node", service).validate(t2)["project"] == "p2"


def test_role_without_capabilities_cannot_be_minted(svc):
    _, _, service = svc
    with pytest.raises(AuthorizationError):
        service.mint("alice", "anywhere", "nonexistent-role")


def test_token_carries_exact_role_caps(svc):
    """Least privilege: caps in the token == caps of the role, never more."""
    clock, key, service = svc
    for role in (Role.RESEARCHER, Role.PI, Role.ADMIN_INFRA):
        token, _ = service.mint("x", "aud", role)
        claims = validator(clock, key, "aud", service).validate(token)
        assert set(claims["caps"]) == set(capabilities_for(role))


@given(ttl=st.floats(min_value=1, max_value=10_000))
def test_property_expiry_never_exceeds_max_ttl(ttl):
    clock = SimClock()
    key = generate_signing_key("EdDSA", kid="p")
    service = TokenService(clock, IdFactory(1), key, ISS, max_ttl=3600,
                           **Wiring())
    _, record = service.mint("s", "a", Role.RESEARCHER, ttl=ttl)
    assert record.expires_at - record.issued_at <= 3600


# ---------------------------------------------------------------------------
# the issuer recognises the tokens it minted — and nothing else
# ---------------------------------------------------------------------------
def test_service_recognises_only_the_exact_string_it_signed(svc):
    clock, key, service = svc
    token, record = service.mint("alice", "portal", Role.RESEARCHER, ttl=60)
    assert service.recognises(token)
    for other in (token + "A", token[:-1], token.replace(".", ".A", 1),
                  token.upper(), "", "a.b.c", "\udcff"):
        assert not service.recognises(other)
    # a fact about bytes, not about validity: revocation does not touch it
    service.revoke_jti(record.jti)
    assert service.recognises(token)
    # nothing durable mentions it, and neither wipe nor reload keeps it
    state = service.durable_state()
    assert set(state) == {"issued", "revoked"}
    service.load_state(state)
    assert not service.recognises(token) and service.issued(record.jti)
    token2, _ = service.mint("alice", "portal", Role.RESEARCHER, ttl=60)
    service.wipe_state()
    assert not service.recognises(token2)


def test_recognition_goes_when_the_issued_record_goes(svc):
    clock, key, service = svc
    old, _ = service.mint("alice", "portal", Role.RESEARCHER, ttl=60)
    clock.advance(4000.0)
    live, _ = service.mint("alice", "portal", Role.RESEARCHER, ttl=60)
    assert service.purge_expired() == 1
    assert not service.recognises(old) and service.recognises(live)
    assert set(service._minted.values()) == set(service._issued)
    # replaying a purge (a standby catching up) drops it the same way
    service.apply_entry("rbac.purge", {"jtis": list(service._issued)})
    assert not service._minted and not service._issued


def test_a_fenced_mint_registers_nothing(svc):
    clock, key, service = svc

    def fenced(kind, data):
        raise EpochFenced("deposed")

    service.commit = fenced
    with pytest.raises(EpochFenced):
        service.mint("zombie", "portal", Role.RESEARCHER)
    assert not service._issued and not service._minted


def always_verify(broker, token):
    """``IdentityBroker._validate_access`` as it was before the broker
    recognised its own tokens, kept as the reference: the signature is
    checked for real, by key objects that remember nothing."""
    keys = JwkSet([
        VerifyingKey(key.alg, kid, getattr(key._public, "inner", key._public))
        for kid in broker.jwks.kids() for key in [broker.jwks.get(kid)]])
    claims = JwtValidator(broker.clock, broker.issuer, None, keys).validate(token)
    jti = str(claims.get("jti", ""))
    if jti in broker._issued:
        revoked = jti in broker._revoked_jtis
    elif broker.tokens.issued(jti) is not None:
        revoked = broker.tokens.is_revoked(jti)
    else:
        raise TokenRevoked(f"token {jti} is unknown to this broker")
    if revoked:
        raise TokenRevoked(f"token {jti} is revoked")
    return claims


def introspect(world, token):
    return world.agent.call(
        "broker", HttpRequest("POST", "/introspect", body={"token": token}))


def mint_as_bearer(world, bearer, project_id):
    """POST /tokens authenticated by ``bearer`` alone (no session cookie)."""
    return world.new_agent(f"svc-{world.ids.next('agent')}").call(
        "broker", HttpRequest(
            "POST", "/tokens", headers={"Authorization": f"Bearer {bearer}"},
            body={"audience": "portal", "role": "pi", "project": project_id}))


def pi_world(seed=7):
    """A mini-deployment whose user holds the PI role on one project."""
    world = BrokerWorld(seed)
    world.project_id, invite = world.create_project(
        pi_email="alice@bristol.ac.uk")
    world.federated_login()
    assert world.accept_invitation(world.agent, invite).ok
    world.agent.clear_cookies("broker")
    world.federated_login()
    return world


def pi_token(world, **kw):
    resp = world.mint(world.agent, "portal", "pi", project=world.project_id,
                      **kw)
    assert resp.ok, resp.body
    return str(resp.body["token"])


@pytest.fixture(scope="module")
def shared_world():
    return pi_world()


def test_own_token_shown_back_costs_no_verification(shared_world):
    world = shared_world
    token = pi_token(world)
    expected = always_verify(world.broker, token)
    real = count_real_verifications(world.broker.jwks)
    for _ in range(2):
        resp = introspect(world, token)
        assert resp.body == {"active": True, **expected}
        assert mint_as_bearer(world, token, world.project_id).status == 200
    assert real() == 0


def test_revoked_or_expired_is_refused_on_the_very_next_presentation(
        shared_world):
    world = shared_world
    real = count_real_verifications(world.broker.jwks)
    revoked, expiring = pi_token(world), pi_token(world, ttl=30)
    assert introspect(world, revoked).body["active"] is True
    assert introspect(world, expiring).body["active"] is True
    world.broker.tokens.revoke_jti(str(_payload(revoked)["jti"]))
    world.clock.advance(30 + 5 + 1)  # ttl + the validator's leeway
    for token in (revoked, expiring):
        assert world.broker._recognises(token)  # and refused all the same
        assert introspect(world, token).body == {"active": False}
        assert mint_as_bearer(world, token, world.project_id).status == 403
    assert real() == 0


_B64URL = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"


@settings(max_examples=120, deadline=None)
@given(where=st.floats(0.0, 1.0, exclude_max=True),
       segment=st.integers(0, 2),
       char=st.one_of(st.sampled_from(_B64URL), st.sampled_from(".=+/ \n"),
                      st.characters()))
def test_an_altered_token_is_judged_exactly_as_without_recognition(
        shared_world, where, segment, char):
    """One changed character, anywhere in any of the three segments: the
    broker answers what a broker that checks every signature answers
    (nearly always a refusal; a changed last character can decode to the
    same bytes) — on every presentation, and never remembers it."""
    world = shared_world
    token = pi_token(world)
    parts = token.split(".")
    at = sum(len(p) + 1 for p in parts[:segment]) + int(
        where * len(parts[segment]))
    if token[at] == char:
        return
    altered = token[:at] + char + token[at + 1:]
    try:
        expected = {"active": True, **always_verify(world.broker, altered)}
    except (ReproError, ValueError):
        expected = {"active": False}
    for _ in range(2):
        assert not world.broker._recognises(altered)
        assert introspect(world, altered).body == expected
        refused = mint_as_bearer(world, altered, world.project_id).status == 403
        assert refused is (expected == {"active": False})
    assert world.broker._recognises(token)


def test_same_payload_resigned_under_the_same_kid_is_checked_and_refused(
        shared_world):
    world = shared_world
    token = pi_token(world)
    impostor = generate_signing_key("EdDSA", kid=world.broker.key.kid)
    forged = encode_jwt(_payload(token), impostor)
    assert forged.split(".")[:2] == token.split(".")[:2]  # only the signature
    real = count_real_verifications(world.broker.jwks)
    for presentation in (1, 2):
        assert introspect(world, forged).body == {"active": False}
        assert mint_as_bearer(world, forged, world.project_id).status == 403
        assert real() == 2 * presentation  # every time, never remembered
    assert not world.broker._recognises(forged)


def test_a_second_brokers_token_is_refused(shared_world):
    """Same seed, so the same issuer, kid, jti and claims — minted by
    another instance with its own key."""
    world, other = shared_world, pi_world()
    foreign = pi_token(other)
    assert other.broker._recognises(foreign)
    assert not world.broker._recognises(foreign)
    real = count_real_verifications(world.broker.jwks)
    assert introspect(world, foreign).body == {"active": False}
    assert mint_as_bearer(world, foreign, world.project_id).status == 403
    assert real() == 2


def test_relying_parties_gain_nothing_from_the_issuers_memory():
    """Recognition never leaves the issuer: each surface pays one real
    verification on first sight of a freshly minted token."""
    from repro.core import build_isambard

    dri = build_isambard(seed=21)
    real = count_real_verifications(dri.broker.jwks)
    surfaces = {"jupyter": dri.jupyter, "ssh-ca": dri.ssh_ca,
                "portal": dri.portal, "soc": dri.soc}
    for seen, (audience, service) in enumerate(surfaces.items(), start=1):
        token, _ = dri.broker.tokens.mint("alice", audience, Role.RESEARCHER)
        assert dri.broker._recognises(token)
        assert service.validator.validate(token)["aud"] == audience
        assert real() == seen
