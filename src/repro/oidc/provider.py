"""A from-scratch OpenID Connect provider (authorization-code + PKCE).

This is the open-protocol workhorse of the reproduction: MyAccessID, the
identity broker, the Identity-Provider-of-Last-Resort and the cloud admin
IdP are all subclasses.  Implemented endpoints:

* ``GET  /.well-known/openid-configuration`` — discovery document
* ``GET  /jwks``          — verification keys (JWKS)
* ``GET  /authorize``     — authorization endpoint (code flow only)
* ``POST /token``         — code exchange, with PKCE and client auth
* ``GET  /userinfo``      — claims for a bearer access token
* ``POST /introspect``    — RFC 7662 token introspection
* ``POST /revoke``        — revocation by ``jti``

Subclasses provide the *login experience*: routes that authenticate the
user however that provider does (federated assertion, password+TOTP,
hardware key) and then call :meth:`OidcProvider.create_session`.  The
``/authorize`` endpoint answers ``401 login_required`` until a session
cookie exists — mirroring the redirect-to-login dance of real OIDC.

Security behaviours implemented because the paper's design depends on
them: single-use codes (replay revokes previously issued tokens), exact
``redirect_uri`` matching, S256 PKCE for public clients, short token
lifetimes, per-session expiry, and audit events for every decision.
"""

from __future__ import annotations

import hmac as _hmac
from typing import Dict, List, Optional

from repro.audit import AuditLog, Outcome
from repro.clock import SimClock
from repro.crypto import JwkSet, JwtValidator, compact_digest, encode_jwt
from repro.crypto.keys import generate_signing_key
from repro.errors import ConfigurationError, TokenRevoked
from repro.ids import IdFactory
from repro.net.http import HttpRequest, HttpResponse, Service, route
from repro.oidc.messages import (
    AuthorizationCode,
    ClientConfig,
    DeviceAuthorization,
    make_url,
    pkce_challenge,
)
from repro.oidc.session import Session, SessionStore
from repro.resilience.durability import Durable, ServiceJournal

__all__ = ["OidcProvider"]


def _parse_cookie(header: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for part in header.split(";"):
        if "=" in part:
            k, _, v = part.strip().partition("=")
            out[k] = v
    return out


class OidcProvider(Service, Durable):
    """Base OIDC provider.  See module docstring for the endpoint map.

    When the deployment attaches a journal (``durability=True``), every
    durable mutation — client registrations, SSO sessions, authorization
    codes, issued/revoked token ids, key generations — is committed to
    the write-ahead journal, so a crash recovers losslessly.  Device
    flows and other in-flight login scratch state are deliberately
    transient: a crash aborts them and the user simply retries.
    Signing keys are never serialized — they live in the journal's
    KMS-modelled vault and are re-adopted on recovery.

    Parameters
    ----------
    name:
        Service/endpoint name; the issuer defaults to ``https://<name>``.
    clock, ids, audit:
        Shared simulation plumbing.
    session_ttl:
        SSO session lifetime (seconds).
    code_ttl, access_ttl, id_ttl:
        Authorization-code and token lifetimes.  The paper's design keeps
        these short; defaults are 60 s / 300 s / 300 s.
    """

    def __init__(
        self,
        name: str,
        clock: SimClock,
        ids: IdFactory,
        *,
        audit: Optional[AuditLog] = None,
        issuer: Optional[str] = None,
        session_ttl: float = 3600.0,
        code_ttl: float = 60.0,
        access_ttl: float = 300.0,
        id_ttl: float = 300.0,
    ) -> None:
        super().__init__(name)
        self.clock = clock
        self.ids = ids
        self.audit = audit if audit is not None else AuditLog(f"{name}-audit")
        self.issuer = issuer or f"https://{name}"
        self._key_generation = 1
        self.key = generate_signing_key("EdDSA", kid=f"{name}-k1")
        self._adopt_jwks(JwkSet([self.key.public()]))
        self.sessions = SessionStore(clock, ids, ttl=session_ttl)
        self.code_ttl = code_ttl
        self.access_ttl = access_ttl
        self.id_ttl = id_ttl
        self._clients: Dict[str, ClientConfig] = {}
        self._codes: Dict[str, AuthorizationCode] = {}
        # jti -> (subject, claims dict, expiry); doubles as the userinfo store
        self._issued: Dict[str, Dict[str, object]] = {}
        # digest of each access token this very instance signed -> its
        # jti: the strings _validate_access accepts without re-running
        # the signature maths.  Private and volatile — never journaled,
        # snapshotted, hashed or handed to a standby; a restarted or
        # promoted instance starts empty and verifies for real
        self._minted: Dict[bytes, str] = {}
        self._revoked_jtis: set[str] = set()
        self._code_tokens: Dict[str, List[str]] = {}  # code -> jtis minted from it
        self._device_flows: Dict[str, DeviceAuthorization] = {}  # device_code ->
        self._device_by_user_code: Dict[str, str] = {}
        self.device_code_ttl = 600.0
        # scale-out hooks: the deployment's InvalidationBus (key rotations
        # and revocations fan out to replica caches through it) and the
        # upstream-call counters the cache-efficacy benches read
        self.invalidation_bus = None
        self.jwks_serves = 0
        self.introspections = 0

    # ------------------------------------------------------------------
    # client registry
    # ------------------------------------------------------------------
    def register_client(
        self,
        client_id: str,
        redirect_uris: List[str],
        *,
        confidential: bool = False,
        require_pkce: Optional[bool] = None,
    ) -> ClientConfig:
        """Register a relying party.  Returns its configuration (including
        the generated secret for confidential clients)."""
        if client_id in self._clients:
            raise ConfigurationError(f"client {client_id!r} already registered")
        secret = self.ids.secret(32) if confidential else None
        return self.commit("oidc.client", {
            "client_id": client_id,
            "redirect_uris": tuple(redirect_uris),
            "client_secret": secret,
            "require_pkce": (not confidential) if require_pkce is None else require_pkce,
            "allowed_scopes": ClientConfig.allowed_scopes,
        })

    # ------------------------------------------------------------------
    # key rotation
    # ------------------------------------------------------------------
    def rotate_key(self) -> str:
        """Rotate the signing key: new tokens use the new kid, tokens
        signed before rotation keep verifying (the old public key stays
        in the published JWKS until :meth:`retire_key`).  Returns the new
        kid.  Relying parties that cache the JWKS must re-fetch; local
        validators sharing ``self.jwks`` see the new key immediately.
        """
        new_key = generate_signing_key(
            "EdDSA", kid=f"{self.name}-k{self._key_generation + 1}"
        )
        if self.journal is None:
            self.key = new_key
        else:
            # the key object itself goes to the KMS-modelled vault, where
            # apply_entry adopts it from; only the generation/kid facts
            # enter the journal
            self.journal.seal(f"signing-key:{new_key.kid}", new_key)
        self.commit("oidc.key_rotated", {
            "generation": self._key_generation + 1, "kid": new_key.kid})
        if self.invalidation_bus is not None:
            self.invalidation_bus.publish("jwks.rotated", key=self.name,
                                          kid=new_key.kid)
        self._audit("operator", "key.rotated", new_key.kid, Outcome.INFO)
        return new_key.kid

    def retire_key(self, kid: str) -> None:
        """Drop an old key from the JWKS (end of the grace window):
        anything still signed under it stops verifying."""
        if kid == self.key.kid:
            raise ConfigurationError("cannot retire the active signing key")
        self.commit("oidc.key_retired", {"kid": kid})
        self._audit("operator", "key.retired", kid, Outcome.INFO)

    # ------------------------------------------------------------------
    # session plumbing for subclasses
    # ------------------------------------------------------------------
    def create_session(
        self,
        subject: str,
        claims: Dict[str, object],
        *,
        amr: List[str],
        ttl: Optional[float] = None,
    ) -> Session:
        session = self.commit("oidc.session", self.sessions.create(
            subject, claims, amr=amr, ttl=ttl))
        self._audit(subject, "session.create", session.sid, Outcome.SUCCESS, amr=amr)
        return session

    def session_from_request(self, request: HttpRequest) -> Optional[Session]:
        cookies = _parse_cookie(request.headers.get("Cookie", ""))
        return self.sessions.get(cookies.get("sid"))

    @staticmethod
    def set_session_cookie(response: HttpResponse, session: Session) -> HttpResponse:
        response.headers["Set-Cookie"] = f"sid={session.sid}"
        return response

    # ------------------------------------------------------------------
    # discovery
    # ------------------------------------------------------------------
    @route("GET", "/.well-known/openid-configuration")
    def discovery_document(self, request: HttpRequest) -> HttpResponse:
        return HttpResponse.json(
            {
                "issuer": self.issuer,
                "authorization_endpoint": make_url(self.name, "/authorize"),
                "token_endpoint": make_url(self.name, "/token"),
                "userinfo_endpoint": make_url(self.name, "/userinfo"),
                "jwks_uri": make_url(self.name, "/jwks"),
                "introspection_endpoint": make_url(self.name, "/introspect"),
                "revocation_endpoint": make_url(self.name, "/revoke"),
                "response_types_supported": ["code"],
                "code_challenge_methods_supported": ["S256"],
                "id_token_signing_alg_values_supported": [self.key.alg],
            }
        )

    @route("GET", "/jwks")
    def jwks_endpoint(self, request: HttpRequest) -> HttpResponse:
        self.jwks_serves += 1
        return HttpResponse.json(self.jwks.to_jwks())

    # ------------------------------------------------------------------
    # authorization endpoint
    # ------------------------------------------------------------------
    @route("GET", "/authorize")
    def authorize(self, request: HttpRequest) -> HttpResponse:
        q = request.query
        client = self._clients.get(q.get("client_id", ""))
        if client is None:
            return HttpResponse.error(400, "unknown client_id")
        redirect_uri = q.get("redirect_uri", "")
        if not client.redirect_uri_valid(redirect_uri):
            # Never redirect to an unregistered URI — open-redirect hardening.
            self._audit(
                q.get("client_id", "?"), "authorize.bad_redirect", redirect_uri,
                Outcome.DENIED,
            )
            return HttpResponse.error(400, "redirect_uri not registered")
        if q.get("response_type") != "code":
            return self._authz_error(redirect_uri, q, "unsupported_response_type")
        scope = q.get("scope", "openid")
        if client.require_pkce and not q.get("code_challenge"):
            return self._authz_error(redirect_uri, q, "pkce_required")
        if q.get("code_challenge") and q.get("code_challenge_method", "S256") != "S256":
            return self._authz_error(redirect_uri, q, "invalid_code_challenge_method")

        session = self.session_from_request(request)
        if session is None:
            return HttpResponse(
                status=401,
                body={
                    "login_required": True,
                    "provider": self.name,
                    "resume": dict(q),
                },
            )

        session_claims = dict(session.claims)
        session_claims.setdefault("amr", list(session.amr))
        code = self.ids.secret(24)
        self.commit("oidc.code", {
            "code": code,
            "client_id": client.client_id,
            "redirect_uri": redirect_uri,
            "subject": session.subject,
            "claims": session_claims,
            "scope": scope,
            "nonce": q.get("nonce"),
            "code_challenge": q.get("code_challenge"),
            "auth_time": session.auth_time,
            "expires_at": self.clock.now() + self.code_ttl,
            "used": False,
        })
        self._audit(
            session.subject, "authorize.code_issued", client.client_id, Outcome.SUCCESS,
            scope=scope,
        )
        location = redirect_uri + (
            ("&" if "?" in redirect_uri else "?")
            + f"code={code}"
            + (f"&state={q['state']}" if q.get("state") else "")
        )
        return HttpResponse.redirect(location)

    def _authz_error(self, redirect_uri: str, q: Dict[str, str], err: str) -> HttpResponse:
        self._audit(q.get("client_id", "?"), "authorize.error", err, Outcome.DENIED)
        location = redirect_uri + (
            ("&" if "?" in redirect_uri else "?") + f"error={err}"
            + (f"&state={q['state']}" if q.get("state") else "")
        )
        return HttpResponse.redirect(location)

    # ------------------------------------------------------------------
    # device authorization grant (RFC 8628) — headless clients
    # ------------------------------------------------------------------
    @route("POST", "/device_authorization")
    def device_authorization(self, request: HttpRequest) -> HttpResponse:
        """Start a device flow: the headless client shows the user code;
        the user approves it from a browser that *can* log in."""
        client = self._clients.get(str(request.body.get("client_id", "")))
        if client is None:
            return HttpResponse.error(401, "unknown client")
        now = self.clock.now()
        user_code = "-".join(
            self.ids.secret(4).upper() for _ in range(2)
        )
        flow = DeviceAuthorization(
            device_code=self.ids.secret(32),
            user_code=user_code,
            client_id=client.client_id,
            scope=str(request.body.get("scope", "openid")),
            created_at=now,
            expires_at=now + self.device_code_ttl,
        )
        self._device_flows[flow.device_code] = flow
        self._device_by_user_code[flow.user_code] = flow.device_code
        self._audit(client.client_id, "device.start", flow.user_code, Outcome.INFO)
        return HttpResponse.json(
            {
                "device_code": flow.device_code,
                "user_code": flow.user_code,
                "verification_uri": make_url(self.name, "/device"),
                "expires_in": self.device_code_ttl,
                "interval": flow.interval,
            }
        )

    @route("POST", "/device")
    def device_verify(self, request: HttpRequest) -> HttpResponse:
        """The verification page: an authenticated user approves (or
        denies) the code shown on their headless device."""
        session = self.session_from_request(request)
        if session is None:
            return HttpResponse(
                status=401,
                body={"login_required": True, "provider": self.name},
            )
        user_code = str(request.body.get("user_code", "")).strip().upper()
        device_code = self._device_by_user_code.get(user_code)
        flow = self._device_flows.get(device_code or "")
        now = self.clock.now()
        if flow is None or now > flow.expires_at or flow.redeemed:
            self._audit(session.subject, "device.verify", user_code,
                        Outcome.DENIED, reason="unknown-or-expired")
            return HttpResponse.error(400, "unknown or expired user code")
        if request.body.get("approve") is False:
            flow.denied = True
            self._audit(session.subject, "device.deny", user_code, Outcome.INFO)
            return HttpResponse.json({"approved": False})
        flow.subject = session.subject
        flow.claims = dict(session.claims)
        flow.claims.setdefault("amr", list(session.amr))
        flow.auth_time = session.auth_time
        self._audit(session.subject, "device.approve", user_code,
                    Outcome.SUCCESS, client=flow.client_id)
        return HttpResponse.json({"approved": True, "client_id": flow.client_id})

    def _device_token(self, b: Dict[str, str], client: ClientConfig) -> HttpResponse:
        flow = self._device_flows.get(b.get("device_code", ""))
        now = self.clock.now()
        if flow is None or flow.client_id != client.client_id:
            return HttpResponse.error(400, "invalid device_code")
        if now > flow.expires_at:
            return HttpResponse.error(400, "expired_token")
        if flow.denied:
            return HttpResponse.error(403, "access_denied")
        if now - flow.last_poll < flow.interval:
            flow.last_poll = now
            return HttpResponse.error(400, "slow_down")
        flow.last_poll = now
        if not flow.approved:
            return HttpResponse.error(400, "authorization_pending")
        if flow.redeemed:
            return HttpResponse.error(400, "device_code already redeemed")
        flow.redeemed = True
        # mint exactly as the code grant does, via a synthetic AuthorizationCode
        code = AuthorizationCode(
            code=f"device:{flow.device_code}",
            client_id=client.client_id,
            redirect_uri="",
            subject=str(flow.subject),
            claims=dict(flow.claims),
            scope=flow.scope,
            nonce=None,
            code_challenge=None,
            auth_time=flow.auth_time,
            expires_at=now + 1,
        )
        return self._issue_tokens(code, client)

    # ------------------------------------------------------------------
    # token endpoint
    # ------------------------------------------------------------------
    @route("POST", "/token")
    def token(self, request: HttpRequest) -> HttpResponse:
        b = {k: str(v) for k, v in request.body.items()}
        grant = b.get("grant_type")
        if grant == "urn:ietf:params:oauth:grant-type:device_code":
            client = self._clients.get(b.get("client_id", ""))
            if client is None:
                return HttpResponse.error(401, "unknown client")
            if client.confidential and not _hmac.compare_digest(
                b.get("client_secret", ""), client.client_secret or ""
            ):
                return HttpResponse.error(401, "client authentication failed")
            return self._device_token(b, client)
        if grant != "authorization_code":
            return HttpResponse.error(400, "unsupported grant_type")
        client = self._clients.get(b.get("client_id", ""))
        if client is None:
            return HttpResponse.error(401, "unknown client")
        if client.confidential:
            supplied = b.get("client_secret", "")
            if not _hmac.compare_digest(supplied, client.client_secret or ""):
                self._audit(client.client_id, "token.bad_client_secret", "", Outcome.DENIED)
                return HttpResponse.error(401, "client authentication failed")

        code = self._codes.get(b.get("code", ""))
        if code is None:
            return HttpResponse.error(400, "invalid code")
        if code.used:
            # Replay: revoke everything minted from this code (RFC 6749 §4.1.2).
            self.commit("oidc.code_replayed", {"code": code.code})
            self._audit(code.subject, "token.code_replayed", client.client_id, Outcome.DENIED)
            return HttpResponse.error(400, "code already used; issued tokens revoked")
        if self.clock.now() > code.expires_at:
            return HttpResponse.error(400, "code expired")
        if code.client_id != client.client_id:
            return HttpResponse.error(400, "code issued to a different client")
        if code.redirect_uri != b.get("redirect_uri", ""):
            return HttpResponse.error(400, "redirect_uri mismatch")
        if code.code_challenge is not None:
            verifier = b.get("code_verifier", "")
            if not verifier or pkce_challenge(verifier) != code.code_challenge:
                self._audit(code.subject, "token.pkce_failed", client.client_id, Outcome.DENIED)
                return HttpResponse.error(400, "PKCE verification failed")
        elif client.require_pkce:
            return HttpResponse.error(400, "PKCE required for this client")

        return self._issue_tokens(code, client)

    def _issue_tokens(self, code: AuthorizationCode, client: ClientConfig) -> HttpResponse:
        """Shared token-minting tail for the code and device grants."""
        now = self.clock.now()
        jti = self.ids.jti()
        access_claims: Dict[str, object] = {
            "iss": self.issuer,
            "sub": code.subject,
            "aud": client.client_id,
            "iat": now,
            "exp": now + self.access_ttl,
            "jti": jti,
            "scope": code.scope,
        }
        access_claims.update(self.extra_access_claims(code, client))
        access_token = encode_jwt(access_claims, self.key)
        issued_claims = dict(code.claims)
        issued_claims.setdefault("auth_time", code.auth_time)
        record = {
            "subject": code.subject,
            "claims": issued_claims,
            "scope": code.scope,
            "exp": now + self.access_ttl,
        }
        # WAL: the grant is committed before any local state changes, so
        # a fenced ex-primary aborts here with nothing half-issued
        self.commit("oidc.tokens_issued",
                    {"code": code.code, "jti": jti, "record": record})
        self._minted[compact_digest(access_token)] = jti

        id_claims: Dict[str, object] = {
            "iss": self.issuer,
            "sub": code.subject,
            "aud": client.client_id,
            "iat": now,
            "exp": now + self.id_ttl,
            "auth_time": code.auth_time,
        }
        if code.nonce:
            id_claims["nonce"] = code.nonce
        id_claims.update(code.claims)
        id_token = encode_jwt(id_claims, self.key)

        self._audit(code.subject, "token.issued", client.client_id, Outcome.SUCCESS, jti=jti)
        return HttpResponse.json(
            {
                "access_token": access_token,
                "id_token": id_token,
                "token_type": "Bearer",
                "expires_in": self.access_ttl,
                "scope": code.scope,
            }
        )

    def extra_access_claims(self, code: AuthorizationCode, client: ClientConfig) -> Dict[str, object]:
        """Hook for subclasses (the broker adds roles/projects here)."""
        return {}

    # ------------------------------------------------------------------
    # logout
    # ------------------------------------------------------------------
    @route("POST", "/logout")
    def logout(self, request: HttpRequest) -> HttpResponse:
        """End the SSO session (the cookie's session is revoked server-side;
        later ``/authorize`` calls demand a fresh login)."""
        session = self.session_from_request(request)
        if session is None:
            return HttpResponse.json({"logged_out": False,
                                      "reason": "no active session"})
        self.commit("oidc.session_revoked", {"sid": session.sid})
        self._audit(session.subject, "session.logout", session.sid, Outcome.INFO)
        resp = HttpResponse.json({"logged_out": True})
        resp.headers["Set-Cookie"] = "sid="
        return resp

    # ------------------------------------------------------------------
    # userinfo / introspection / revocation
    # ------------------------------------------------------------------
    def _recognises(self, token: str) -> bool:
        """Did this instance sign exactly this string?  A fact about
        bytes, not about validity: a yes spares the signature maths and
        nothing else."""
        return compact_digest(token) in self._minted

    def _validate_access(self, token: str) -> Dict[str, object]:
        """Every presentation: segments, ``alg``/``kid`` against our own
        JWKS, ``exp``/``nbf``/``iss``, jti known and not revoked.  Only
        the Ed25519 check is skipped, and only for our own bytes."""
        claims = self._validator.validate(
            token, vouched=self._recognises(token))
        jti = str(claims.get("jti", ""))
        if jti in self._revoked_jtis or jti not in self._issued:
            raise TokenRevoked(f"token {jti} is revoked or unknown")
        return claims

    @route("GET", "/userinfo")
    def userinfo(self, request: HttpRequest) -> HttpResponse:
        token = request.bearer_token()
        if token is None:
            return HttpResponse.error(401, "bearer token required")
        claims = self._validate_access(token)  # raises -> 403 via Service.handle
        record = self._issued.get(str(claims.get("jti", "")))
        if record is None:
            # token minted outside the OIDC store (e.g. an RBAC token from
            # a broker subclass): echo its claims
            return HttpResponse.json(dict(claims))
        body = {"sub": record["subject"]}
        body.update(record["claims"])  # type: ignore[arg-type]
        return HttpResponse.json(body)

    @route("POST", "/introspect")
    def introspect(self, request: HttpRequest) -> HttpResponse:
        self.introspections += 1
        token = str(request.body.get("token", ""))
        try:
            claims = self._validate_access(token)
        except Exception:
            return HttpResponse.json({"active": False})
        out: Dict[str, object] = {"active": True}
        out.update(claims)
        return HttpResponse.json(out)

    @route("POST", "/revoke")
    def revoke(self, request: HttpRequest) -> HttpResponse:
        """Revoke by jti (RFC 7009).  Requires a confidential client's
        credentials.  No service in the deployment calls it: the kill
        switch revokes broker tokens and sessions, not OIDC token ids."""
        b = request.body
        client = self._clients.get(str(b.get("client_id", "")))
        if client is None or not client.confidential:
            return HttpResponse.error(401, "confidential client required")
        if not _hmac.compare_digest(
            str(b.get("client_secret", "")), client.client_secret or ""
        ):
            return HttpResponse.error(401, "client authentication failed")
        jti = str(b.get("jti", ""))
        self.revoke_jti(jti)
        return HttpResponse.json({"revoked": jti})

    def revoke_jti(self, jti: str) -> None:
        self.commit("oidc.jti_revoked", {"jti": jti})
        if self.invalidation_bus is not None:
            self.invalidation_bus.publish("token.revoked", key=jti)
        self._audit("system", "token.revoked", jti, Outcome.INFO, jti=jti)

    # ------------------------------------------------------------------
    # durability: the base provider's durable state and replay
    # ------------------------------------------------------------------
    def seal_keys(self, journal: ServiceJournal) -> None:
        journal.seal(f"signing-key:{self.key.kid}", self.key)
        journal.seal("jwks", self.jwks)

    def adopt_keys(self, journal: ServiceJournal) -> None:
        jwks = journal.unseal("jwks")
        if jwks is not None:
            self._adopt_jwks(jwks)

    def _adopt_jwks(self, jwks: JwkSet) -> None:
        """``jwks`` is this provider's key set from now on, and the one
        validator of its own tokens is built over it."""
        self.jwks = jwks
        self._validator = JwtValidator(self.clock, self.issuer, None, jwks)

    def _adopt_active_key(self, kid: str) -> None:
        if self.journal is None:
            return
        sealed = self.journal.unseal(f"signing-key:{kid}")
        if sealed is not None:
            self.key = sealed

    def durable_state(self) -> Dict[str, object]:
        # a client's, a session's and a code's fields by reference, not
        # copied: every caller encodes the state at once
        return {
            "key_generation": self._key_generation,
            "active_kid": self.key.kid,
            "clients": {cid: vars(cfg) for cid, cfg in self._clients.items()},
            "sessions": [vars(s) for s in self.sessions.export_sessions()],
            "codes": {c: vars(code) for c, code in self._codes.items()},
            "issued": dict(self._issued),
            "revoked_jtis": sorted(self._revoked_jtis),
            "code_tokens": {c: list(jtis)
                            for c, jtis in self._code_tokens.items()},
        }

    def wipe_state(self) -> None:
        """Crash: all in-memory state is gone.  Key material survives in
        the vault (KMS model); without a journal the keys also survive in
        this object — real pods re-fetch them from the secret store."""
        self.sessions.wipe()
        self._clients = {}
        self._codes = {}
        self._issued = {}
        self._minted = {}
        self._revoked_jtis = set()
        self._code_tokens = {}
        self._device_flows = {}
        self._device_by_user_code = {}

    def load_state(self, state: Dict[str, object]) -> None:
        self._key_generation = int(state["key_generation"])
        self._adopt_active_key(str(state["active_kid"]))
        self._clients = {cid: self._client_from(d)
                         for cid, d in state["clients"].items()}
        for d in state["sessions"]:
            self.sessions.restore(Session(**d))
        self._codes = {
            c: AuthorizationCode(**d) for c, d in state["codes"].items()
        }
        self._issued = dict(state["issued"])
        self._minted = {}
        self._revoked_jtis = set(state["revoked_jtis"])
        self._code_tokens = {c: list(j) for c, j in state["code_tokens"].items()}

    @staticmethod
    def _client_from(data: Dict[str, object]) -> ClientConfig:
        return ClientConfig(
            client_id=data["client_id"],
            redirect_uris=tuple(data["redirect_uris"]),
            client_secret=data["client_secret"],
            require_pkce=data["require_pkce"],
            allowed_scopes=tuple(data["allowed_scopes"]),
        )

    def apply_entry(self, kind: str, data: Dict[str, object]) -> object:
        """Returns the client for ``oidc.client``, the session for
        ``oidc.session`` and the count for ``oidc.session_revoke_subject``."""
        if kind == "oidc.session":
            session = Session(**data)
            self.sessions.restore(session)
            return session
        if kind == "oidc.session_revoke_subject":
            return self.sessions.revoke_subject(data["subject"])
        if kind == "oidc.client":
            cfg = self._client_from(data)
            self._clients[cfg.client_id] = cfg
            return cfg
        if kind == "oidc.session_revoked":
            self.sessions.revoke(data["sid"])
        elif kind == "oidc.code":
            code = AuthorizationCode(**data)
            self._codes[code.code] = code
        elif kind == "oidc.tokens_issued":
            code = self._codes.get(data["code"])
            if code is not None:
                code.used = True
            self._issued[data["jti"]] = data["record"]
            self._code_tokens.setdefault(data["code"], []).append(data["jti"])
        elif kind == "oidc.code_replayed":
            self._revoked_jtis.update(self._code_tokens.get(data["code"], []))
        elif kind == "oidc.jti_revoked":
            self._revoked_jtis.add(data["jti"])
        elif kind == "oidc.key_rotated":
            self._key_generation = data["generation"]
            self._adopt_active_key(data["kid"])
            if self.key.kid == data["kid"]:
                self.jwks.add(self.key.public())
        elif kind == "oidc.key_retired":
            self.jwks.retire(data["kid"])
        return None

    # ------------------------------------------------------------------
    def _audit(self, actor: str, action: str, resource: str, outcome: str, **attrs) -> None:
        domain = zone = ""
        if self.endpoint is not None:
            domain = self.endpoint.domain_label
            zone = self.endpoint.zone_label
        self.audit.record(
            self.clock.now(), self.name, actor, action, resource, outcome,
            domain=domain, zone=zone, **attrs,
        )
