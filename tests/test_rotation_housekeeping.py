"""Tests for signing-key rotation, JWKS refresh, token housekeeping, and
broker edge paths."""

import pytest

from repro.core import build_isambard
from repro.errors import ConfigurationError, TokenError
from repro.net import HttpRequest
from repro.oidc import make_url


# ---------------------------------------------------------------------------
# key rotation
# ---------------------------------------------------------------------------
def test_rotation_old_tokens_survive_grace(world):
    """Tokens minted before rotation verify until the old key retires."""
    project_id, invite = world.create_project(pi_email="alice@bristol.ac.uk")
    world.federated_login()
    world.accept_invitation(world.agent, invite)
    world.agent.clear_cookies("broker")
    world.federated_login()
    old_token = world.mint(world.agent, "portal", "pi",
                           project=project_id).body["token"]
    old_kid = world.broker.key.kid

    new_kid = world.broker.rotate_key()
    assert new_kid != old_kid

    from repro.broker import RbacTokenValidator

    validator = RbacTokenValidator(
        world.clock, world.broker.issuer, "portal",
        world.broker.jwks, world.broker.tokens.is_revoked)
    assert validator.validate(old_token)["role"] == "pi"  # grace window

    new_token = world.mint(world.agent, "portal", "pi",
                           project=project_id).body["token"]
    assert validator.validate(new_token)["role"] == "pi"
    import json

    from repro.crypto.jws import b64url_decode

    header = json.loads(b64url_decode(new_token.split(".")[0]))
    assert header["kid"] == new_kid

    # end of grace: the old key retires, old tokens die
    world.broker.retire_key(old_kid)
    with pytest.raises(TokenError):
        validator.validate(old_token)
    assert validator.validate(new_token)


def test_recognised_or_not_a_token_lives_exactly_as_long_as_its_kid(world):
    """The broker skips the signature maths for its own tokens, never
    the ``kid`` lookup: rotation keeps an old-kid token valid, retirement
    kills it — whether or not the broker remembers minting it."""
    from repro.broker import Role
    from repro.crypto import compact_digest
    from tests.test_hot_path_bookkeeping import count_real_verifications

    broker = world.broker
    old_kid = broker.key.kid
    remembered, _ = broker.tokens.mint("alice", "portal", Role.RESEARCHER)
    forgotten, _ = broker.tokens.mint("bob", "portal", Role.RESEARCHER)
    # as on a restarted broker: the issued record is there, the bytes are not
    del broker.tokens._minted[compact_digest(forgotten)]
    broker.rotate_key()

    real = count_real_verifications(broker.jwks)
    assert broker._validate_access(remembered)["sub"] == "alice"
    assert real() == 0
    assert broker._validate_access(forgotten)["sub"] == "bob"
    assert real() == 1  # the old key is still published: checked for real

    broker.retire_key(old_kid)
    for token in (remembered, forgotten):
        assert broker._recognises(token) is (token is remembered)
        with pytest.raises(TokenError):
            broker._validate_access(token)
    current, _ = broker.tokens.mint("alice", "portal", Role.RESEARCHER)
    assert broker._validate_access(current)["sub"] == "alice"
    assert real() == 1


def test_cannot_retire_active_key(world):
    with pytest.raises(ConfigurationError):
        world.broker.retire_key(world.broker.key.kid)


def test_rotation_mid_session_login_still_works():
    """A full federated login succeeds right after a broker rotation —
    relying parties refresh the JWKS transparently."""
    dri = build_isambard(seed=107)
    s1 = dri.workflows.story1_pi_onboarding("rhea")
    dri.broker.rotate_key()
    dri.workflows.relogin(dri.workflows.personas["rhea"])
    resp = dri.workflows.mint(dri.workflows.personas["rhea"], "portal", "pi",
                              project=s1.data["project_id"])
    assert resp.ok
    # the whole SSH path still works under the new key
    s4 = dri.workflows.story4_ssh_session("rhea")
    assert s4.ok, s4.steps


def test_upstream_rotation_handled_by_broker():
    """MyAccessID rotates; the broker's RP re-fetches the JWKS and the
    next federated login succeeds."""
    dri = build_isambard(seed=108)
    s1 = dri.workflows.story1_pi_onboarding("sol")
    dri.myaccessid.rotate_key()
    sol = dri.workflows.personas["sol"]
    sol.agent.clear_cookies("broker")
    sol.agent.clear_cookies("myaccessid")
    resp = dri.workflows.login(sol)
    assert resp.ok, resp.body


# ---------------------------------------------------------------------------
# token-store housekeeping
# ---------------------------------------------------------------------------
def test_purge_expired_tokens(world):
    from repro.broker import Role

    svc = world.broker.tokens
    live, _ = svc.mint("alice", "a", Role.RESEARCHER, ttl=3600)
    dead, dead_rec = svc.mint("bob", "a", Role.RESEARCHER, ttl=60)
    svc.revoke_jti(dead_rec.jti)
    world.clock.advance(60 + 3600 + 10)  # dead is long past grace
    purged = svc.purge_expired(grace=3600)
    assert purged == 1
    assert svc.issued(dead_rec.jti) is None
    assert not svc.is_revoked(dead_rec.jti)  # mark dropped with the record
    # and so is the broker's memory of the bytes: bounded by the records
    assert not svc.recognises(dead) and svc.recognises(live)
    assert set(svc._minted.values()) <= set(svc._issued)


def test_purge_keeps_recent_and_live(world):
    from repro.broker import Role

    svc = world.broker.tokens
    _, rec = svc.mint("alice", "a", Role.RESEARCHER, ttl=60)
    world.clock.advance(120)  # expired but within grace
    assert svc.purge_expired(grace=3600) == 0
    assert svc.issued(rec.jti) is not None


# ---------------------------------------------------------------------------
# broker edge paths
# ---------------------------------------------------------------------------
def test_callback_with_upstream_error(world):
    resp, _ = world.agent.get(
        make_url("broker", "/login/callback", error="access_denied",
                 state="whatever"))
    assert resp.status == 403


def test_callback_unknown_state(world):
    resp, _ = world.agent.get(
        make_url("broker", "/login/callback", code="x", state="forged"))
    assert resp.status == 400


def test_ssh_certificate_requires_authentication(world):
    from repro.sshca import SshKeyPair

    resp, _ = world.agent.post(
        make_url("broker", "/ssh/certificate"),
        {"public_key_jwk": SshKeyPair.generate().public_jwk()})
    assert resp.status == 403


def test_ssh_certificate_requires_public_key(world):
    project_id, invite = world.create_project(pi_email="alice@bristol.ac.uk")
    world.federated_login()
    resp, _ = world.agent.post(make_url("broker", "/ssh/certificate"), {})
    assert resp.status == 400


def test_tokens_route_rejects_missing_fields(world):
    project_id, invite = world.create_project(pi_email="alice@bristol.ac.uk")
    world.federated_login()
    resp, _ = world.agent.post(make_url("broker", "/tokens"), {})
    assert resp.status == 400
