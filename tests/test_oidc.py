"""Tests for the OIDC provider, relying party and user agent."""

import pytest

from repro.errors import AuthenticationError, ConfigurationError, TokenRevoked
from repro.net import HttpRequest
from repro.oidc import make_url, parse_url, pkce_challenge


def login(agent, provider_name="op", username="alice", password="pw-alice"):
    resp, _ = agent.post(
        make_url(provider_name, "/login"),
        {"username": username, "password": password},
    )
    return resp


def full_flow(app, agent):
    url, flow = app.begin()
    resp, final = agent.get(url)
    return resp, final, flow


# ---------------------------------------------------------------------------
# URL helpers
# ---------------------------------------------------------------------------
def test_url_roundtrip():
    url = make_url("op", "/authorize", a="1", b="x y")
    endpoint, path, params = parse_url(url)
    assert (endpoint, path) == ("op", "/authorize")
    assert params == {"a": "1", "b": "x y"}


def test_make_url_requires_leading_slash():
    with pytest.raises(ConfigurationError):
        make_url("op", "authorize")


# ---------------------------------------------------------------------------
# discovery
# ---------------------------------------------------------------------------
def test_discovery_document(oidc_world):
    _, _, network, provider, app, agent = oidc_world
    resp, _ = agent.get(make_url("op", "/.well-known/openid-configuration"))
    assert resp.ok
    assert resp.body["issuer"] == "https://op"
    assert "S256" in resp.body["code_challenge_methods_supported"]


def test_jwks_served(oidc_world):
    *_, agent = oidc_world
    resp, _ = agent.get(make_url("op", "/jwks"))
    assert resp.ok and len(resp.body["keys"]) == 1


# ---------------------------------------------------------------------------
# the happy path
# ---------------------------------------------------------------------------
def test_authorize_without_session_demands_login(oidc_world):
    _, _, _, provider, app, agent = oidc_world
    resp, _, _ = full_flow(app, agent)
    assert resp.status == 401 and resp.body["login_required"] is True


def test_full_code_flow(oidc_world):
    clock, _, _, provider, app, agent = oidc_world
    login(agent)
    resp, final, _ = full_flow(app, agent)
    assert resp.ok, resp.body
    assert resp.body["sub"] == "alice"
    tokens = app.last_tokens
    assert tokens["id_claims"]["name"] == "Alice"
    assert tokens["id_claims"]["auth_time"] == pytest.approx(clock.now(), abs=5)
    assert "access_token" in tokens


def test_sso_second_app_needs_no_relogin(oidc_world):
    clock, ids, network, provider, app, agent = oidc_world
    from tests.conftest import CallbackApp
    from repro.net import OperatingDomain, Zone

    cfg2 = provider.register_client("app2-client", [make_url("app2", "/callback")])
    app2 = CallbackApp("app2", "op", cfg2, clock, ids)
    network.attach(app2, OperatingDomain.FDS, Zone.ACCESS)

    login(agent)
    resp1, _, _ = full_flow(app, agent)
    url2, _ = app2.begin()
    resp2, _ = agent.get(url2)  # no second login needed: SSO
    assert resp1.ok and resp2.ok
    assert app2.last_tokens["id_claims"]["sub"] == "alice"


def test_session_expiry_forces_reauthentication(oidc_world):
    clock, _, _, provider, app, agent = oidc_world
    login(agent)
    clock.advance(provider.sessions.ttl + 1)
    resp, _, _ = full_flow(app, agent)
    assert resp.status == 401 and resp.body["login_required"]


def test_bad_password_rejected(oidc_world):
    *_, agent = oidc_world
    resp = login(agent, password="wrong")
    assert resp.status == 403


# ---------------------------------------------------------------------------
# token endpoint hardening
# ---------------------------------------------------------------------------
def token_request(provider, app, agent, **overrides):
    """Drive authorize manually to capture the raw code."""
    url, flow = app.begin()
    endpoint, path, params = parse_url(url)
    sid = agent.cookies["op"]["sid"]
    resp = agent.call(
        "op",
        HttpRequest("GET", path, headers={"Cookie": f"sid={sid}"}, query=params),
    )
    assert resp.status == 302
    _, _, cb = parse_url(resp.headers["Location"])
    body = {
        "grant_type": "authorization_code",
        "code": cb["code"],
        "redirect_uri": flow.redirect_uri,
        "client_id": "app-client",
        "code_verifier": flow.verifier,
    }
    body.update(overrides)
    return cb, body


def test_code_is_single_use_and_replay_revokes(oidc_world):
    clock, _, _, provider, app, agent = oidc_world
    login(agent)
    cb, body = token_request(provider, app, agent)
    first = agent.call("op", HttpRequest("POST", "/token", body=body))
    assert first.ok
    replay = agent.call("op", HttpRequest("POST", "/token", body=body))
    assert replay.status == 400
    # the originally issued access token is now revoked
    introspect = agent.call(
        "op", HttpRequest("POST", "/introspect", body={"token": first.body["access_token"]})
    )
    assert introspect.body["active"] is False


def test_pkce_wrong_verifier_rejected(oidc_world):
    _, _, _, provider, app, agent = oidc_world
    login(agent)
    cb, body = token_request(provider, app, agent, code_verifier="wrong-verifier")
    resp = agent.call("op", HttpRequest("POST", "/token", body=body))
    assert resp.status == 400 and "PKCE" in resp.body["error"]


def test_redirect_uri_mismatch_rejected(oidc_world):
    _, _, _, provider, app, agent = oidc_world
    login(agent)
    cb, body = token_request(
        provider, app, agent, redirect_uri=make_url("evil", "/callback")
    )
    resp = agent.call("op", HttpRequest("POST", "/token", body=body))
    assert resp.status == 400


def test_expired_code_rejected(oidc_world):
    clock, _, _, provider, app, agent = oidc_world
    login(agent)
    cb, body = token_request(provider, app, agent)
    clock.advance(provider.code_ttl + 1)
    resp = agent.call("op", HttpRequest("POST", "/token", body=body))
    assert resp.status == 400 and "expired" in resp.body["error"]


def test_code_bound_to_client(oidc_world):
    clock, ids, _, provider, app, agent = oidc_world
    provider.register_client("other-client", [make_url("other", "/cb")])
    login(agent)
    cb, body = token_request(provider, app, agent, client_id="other-client")
    resp = agent.call("op", HttpRequest("POST", "/token", body=body))
    assert resp.status == 400


def test_unregistered_redirect_uri_never_redirected(oidc_world):
    _, _, _, provider, app, agent = oidc_world
    login(agent)
    url = make_url(
        "op", "/authorize",
        client_id="app-client",
        redirect_uri=make_url("evil", "/phish"),
        response_type="code",
        scope="openid",
        code_challenge=pkce_challenge("v" * 43),
        code_challenge_method="S256",
    )
    resp, _ = agent.get(url)
    assert resp.status == 400  # direct error, not a redirect to evil


def test_public_client_requires_pkce(oidc_world):
    _, _, _, provider, app, agent = oidc_world
    login(agent)
    url = make_url(
        "op", "/authorize",
        client_id="app-client",
        redirect_uri=app.redirect_uri,
        response_type="code",
        scope="openid",
    )
    resp, final = agent.get(url)
    # error delivered via redirect back to the registered callback
    assert "pkce_required" in final or resp.body.get("error") == "pkce_required"


def test_confidential_client_secret_checked(oidc_world):
    clock, ids, network, provider, app, agent = oidc_world
    cfg = provider.register_client(
        "conf-client", [make_url("app", "/callback")], confidential=True
    )
    login(agent)
    resp = agent.call(
        "op",
        HttpRequest("POST", "/token", body={
            "grant_type": "authorization_code",
            "code": "whatever",
            "redirect_uri": make_url("app", "/callback"),
            "client_id": "conf-client",
            "client_secret": "wrong",
        }),
    )
    assert resp.status == 401


def test_duplicate_client_registration_rejected(oidc_world):
    *_, provider, app, agent = oidc_world[2:] if False else oidc_world[2:]
    provider = oidc_world[3]
    with pytest.raises(ConfigurationError):
        provider.register_client("app-client", ["https://x/cb"])


# ---------------------------------------------------------------------------
# userinfo / introspection / revocation
# ---------------------------------------------------------------------------
def test_userinfo_returns_claims(oidc_world):
    _, _, _, provider, app, agent = oidc_world
    login(agent)
    full_flow(app, agent)
    token = app.last_tokens["access_token"]
    resp = agent.call(
        "op", HttpRequest("GET", "/userinfo", headers={"Authorization": f"Bearer {token}"})
    )
    assert resp.ok and resp.body["email"] == "alice@example.org"


def test_userinfo_requires_bearer(oidc_world):
    *_, agent = oidc_world
    resp = agent.call("op", HttpRequest("GET", "/userinfo"))
    assert resp.status == 401


def test_introspect_active_then_revoked(oidc_world):
    _, _, _, provider, app, agent = oidc_world
    login(agent)
    full_flow(app, agent)
    token = app.last_tokens["access_token"]
    resp = agent.call("op", HttpRequest("POST", "/introspect", body={"token": token}))
    assert resp.body["active"] is True
    provider.revoke_jti(str(resp.body["jti"]))
    resp2 = agent.call("op", HttpRequest("POST", "/introspect", body={"token": token}))
    assert resp2.body["active"] is False


def test_expired_access_token_inactive(oidc_world):
    clock, _, _, provider, app, agent = oidc_world
    login(agent)
    full_flow(app, agent)
    token = app.last_tokens["access_token"]
    clock.advance(provider.access_ttl + 10)
    resp = agent.call("op", HttpRequest("POST", "/introspect", body={"token": token}))
    assert resp.body["active"] is False


def test_revoke_endpoint_requires_confidential_client(oidc_world):
    _, _, _, provider, app, agent = oidc_world
    resp = agent.call(
        "op", HttpRequest("POST", "/revoke", body={"client_id": "app-client", "jti": "x"})
    )
    assert resp.status == 401


def test_revoke_endpoint_checks_the_secret_then_revokes(oidc_world):
    """RFC 7009: a wrong client secret leaves the token active, the right
    one revokes it."""
    _, _, _, provider, app, agent = oidc_world
    cfg = provider.register_client(
        "soc-client", [make_url("app", "/callback")], confidential=True
    )
    login(agent)
    full_flow(app, agent)
    token = app.last_tokens["access_token"]

    def introspect():
        return agent.call(
            "op", HttpRequest("POST", "/introspect", body={"token": token})).body

    def revoke(secret):
        return agent.call("op", HttpRequest("POST", "/revoke", body={
            "client_id": "soc-client", "client_secret": secret, "jti": jti}))

    jti = introspect()["jti"]
    assert revoke("wrong").status == 401
    assert introspect()["active"] is True
    resp = revoke(cfg.client_secret)
    assert resp.ok and resp.body == {"revoked": jti}
    assert introspect()["active"] is False


def test_rp_state_replay_rejected(oidc_world):
    _, _, _, provider, app, agent = oidc_world
    login(agent)
    full_flow(app, agent)
    with pytest.raises(AuthenticationError):
        app.rp.redeem("some-code", "unknown-state")


def test_audit_trail_records_issuance(oidc_world):
    _, _, _, provider, app, agent = oidc_world
    login(agent)
    full_flow(app, agent)
    assert provider.audit.count(action="token.issued") == 1
    assert provider.audit.count(action="session.create") == 1
    assert provider.audit.count(action="authorize.code_issued") == 1


# ---------------------------------------------------------------------------
# the provider recognises the access tokens it minted
# ---------------------------------------------------------------------------
def _access_token(provider, app, agent):
    login(agent)
    resp, _, _ = full_flow(app, agent)
    assert resp.ok, resp.body
    return app.last_tokens["access_token"]


def _present(agent, token):
    """(introspection body, userinfo status) for one presentation each."""
    active = agent.call(
        "op", HttpRequest("POST", "/introspect", body={"token": token}))
    info = agent.call("op", HttpRequest(
        "GET", "/userinfo", headers={"Authorization": f"Bearer {token}"}))
    return active.body, info.status


def test_provider_checks_no_signature_on_its_own_access_token(oidc_world):
    from repro.crypto import JwtValidator
    from tests.test_hot_path_bookkeeping import count_real_verifications

    clock, _, _, provider, app, agent = oidc_world
    token = _access_token(provider, app, agent)
    # what a full verification returns, by a key that remembers nothing
    claims = JwtValidator(
        clock, provider.issuer, None, provider.key.public()).validate(token)
    real = count_real_verifications(provider.jwks)
    for _ in range(2):
        assert _present(agent, token) == ({"active": True, **claims}, 200)
    assert real() == 0
    # one changed character: checked for real and refused, every time
    for at in (3, len(token) // 2, len(token) - 2):
        altered = token[:at] + ("A" if token[at] != "A" else "B") + token[at + 1:]
        assert not provider._recognises(altered)
        for _ in range(2):
            assert _present(agent, altered) == ({"active": False}, 403)
    # revoked, then expired: recognised bytes, refused all the same
    provider.revoke_jti(str(claims["jti"]))
    assert provider._recognises(token)
    assert _present(agent, token) == ({"active": False}, 403)
    fresh = _access_token(provider, app, agent)
    assert _present(agent, fresh)[1] == 200
    clock.advance(provider.access_ttl + 10)
    assert _present(agent, fresh) == ({"active": False}, 403)


def test_provider_recognition_is_private_and_volatile(oidc_world):
    from repro.errors import SignatureInvalid
    from tests.conftest import PasswordProvider
    from tests.test_hot_path_bookkeeping import count_real_verifications

    clock, ids, network, provider, app, agent = oidc_world
    token = _access_token(provider, app, agent)
    assert "_minted" not in str(provider.durable_state())
    # another instance under the same name, issuer and kid: not its bytes
    twin = PasswordProvider("op", clock, ids)
    assert twin.issuer == provider.issuer and twin.key.kid == provider.key.kid
    assert not twin._recognises(token)
    with pytest.raises(SignatureInvalid):
        twin._validate_access(token)
    # a reload (what recovery does) keeps the record and forgets the bytes:
    # the token still validates, at the price of one real verification
    state = provider.durable_state()
    provider.wipe_state()
    provider.load_state(state)
    assert not provider._recognises(token)
    real = count_real_verifications(provider.jwks)
    assert provider._validate_access(token)["sub"] == "alice"
    assert real() == 1


def test_relying_party_builds_its_validator_once_per_key_set(oidc_world):
    _, _, _, provider, app, agent = oidc_world
    login(agent)
    assert full_flow(app, agent)[0].ok
    validator = app.rp._validator
    assert full_flow(app, agent)[0].ok
    assert app.rp._validator is validator
    # a rotation surfaces as SignatureInvalid: one refresh, a validator
    # over the new key set, and the same redemption succeeds
    provider.rotate_key()
    assert full_flow(app, agent)[0].ok
    assert app.rp._validator is not validator
    assert app.rp._validator.keys is app.rp._jwks
