"""OIDC relying-party helper and a browser-like user agent.

:class:`UserAgent` models the user's device: it keeps a cookie jar per
endpoint, follows 302 redirects across services, and is the thing that
physically carries authorization codes between providers — exactly the
role a browser plays in the paper's login flows.

:class:`RelyingParty` is the server-side half used by the portal, the
Zenith auth shim and the SSH CA's web flow: it builds authorization URLs
(with PKCE + nonce + state), redeems codes at the token endpoint over the
simulated network, and validates ID tokens against the provider's JWKS.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from repro.clock import SimClock
from repro.crypto import JwkSet, JwtValidator
from repro.errors import (
    AuthenticationError,
    ConfigurationError,
    ServiceUnavailable,
    SignatureInvalid,
)
from repro.net.http import HttpRequest, HttpResponse, Service
from repro.oidc.messages import ClientConfig, make_url, parse_url, pkce_challenge
from repro.resilience.overload import Priority
from repro.telemetry.context import TRACEPARENT_HEADER, TraceContext

__all__ = ["UserAgent", "RelyingParty", "FlowState"]


class UserAgent(Service):
    """A simulated browser / native client on a user's device.

    Attach it to the network in the EXTERNAL domain; drive flows with
    :meth:`get` / :meth:`post`.  Redirects are followed automatically
    (up to ``max_hops``) and cookies are scoped per endpoint, so two
    providers cannot see each other's sessions.
    """

    def __init__(self, name: str, *, max_hops: int = 15,
                 priority: str = Priority.INTERACTIVE) -> None:
        super().__init__(name)
        self.cookies: Dict[str, Dict[str, str]] = {}
        self.max_hops = max_hops
        # the last flow's worth of hops ("METHOD url"), newest last
        self.history: deque[str] = deque(maxlen=max_hops)
        # traffic class this agent's requests carry by default (a human at
        # a browser is interactive; automation agents set batch)
        self.priority = priority
        # optional default absolute deadline applied to every request this
        # agent sends (surge drivers set it to "arrival + patience")
        self.deadline: Optional[float] = None
        # optional repro.telemetry.Tracer: when set, every flow this agent
        # drives runs under a root span and all hops carry its context
        self.tracer = None
        self._trace_ctx: Optional[TraceContext] = None

    # ------------------------------------------------------------------
    @contextmanager
    def trace(self, name: str, **baggage: str) -> Iterator[Optional[TraceContext]]:
        """Run a user flow under one root span.

        Everything the agent sends inside the ``with`` block carries the
        root's context, so a whole login — redirects, broker hops, tunnel
        dispatches — lands in one connected trace.  Nesting is flat: an
        inner ``trace()`` joins the outer trace rather than starting a
        new one.  A no-op when no tracer is attached.
        """
        if self.tracer is None or self._trace_ctx is not None:
            yield self._trace_ctx
            return
        span = self.tracer.start_trace(
            name, service=self.name, kind="internal",
            baggage=baggage or None,
        )
        self._trace_ctx = span.context()
        try:
            yield self._trace_ctx
        except BaseException as exc:
            self.tracer.end(span, error=exc)
            raise
        else:
            self.tracer.end(span)
        finally:
            self._trace_ctx = None

    def call(self, dst: str, request: HttpRequest, **kwargs) -> HttpResponse:
        # the device end of context propagation: requests minted outside
        # any serving stack (this *is* the user's device) join the active
        # flow trace unless the caller already set a context
        if (self._trace_ctx is not None and not self._serving
                and request.trace is None
                and TRACEPARENT_HEADER not in request.headers):
            request.trace = self._trace_ctx
        return super().call(dst, request, **kwargs)

    # ------------------------------------------------------------------
    def _headers_for(self, endpoint: str) -> Dict[str, str]:
        jar = self.cookies.get(endpoint, {})
        if not jar:
            return {}
        return {"Cookie": "; ".join(f"{k}={v}" for k, v in jar.items())}

    def _store_cookies(self, endpoint: str, response: HttpResponse) -> None:
        set_cookie = response.headers.get("Set-Cookie")
        if set_cookie:
            k, _, v = set_cookie.partition("=")
            self.cookies.setdefault(endpoint, {})[k.strip()] = v.strip()

    def navigate(
        self,
        url: str,
        *,
        method: str = "GET",
        body: Optional[Dict[str, object]] = None,
        headers: Optional[Dict[str, str]] = None,
        priority: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> Tuple[HttpResponse, str]:
        """Issue a request and follow redirects; returns (response, final_url).

        Only the first hop carries ``body`` (redirects become GETs, as
        browsers do for 302).  ``priority`` defaults to the agent's own
        traffic class; ``deadline`` (absolute simulated time) rides on
        every hop of the flow, so a multi-redirect login expires as a
        whole rather than per hop.

        With a tracer attached, a navigation outside any explicit
        :meth:`trace` block gets its own root span, so ad-hoc requests
        are traced too.
        """
        if self.tracer is not None and self._trace_ctx is None:
            with self.trace(f"{method} {url}"):
                return self._navigate(
                    url, method=method, body=body, headers=headers,
                    priority=priority, deadline=deadline,
                )
        return self._navigate(
            url, method=method, body=body, headers=headers,
            priority=priority, deadline=deadline,
        )

    def _navigate(
        self,
        url: str,
        *,
        method: str = "GET",
        body: Optional[Dict[str, object]] = None,
        headers: Optional[Dict[str, str]] = None,
        priority: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> Tuple[HttpResponse, str]:
        current, current_method, current_body = url, method, body
        for _hop in range(self.max_hops):
            endpoint, path, params = parse_url(current)
            req_headers = self._headers_for(endpoint)
            req_headers.update(headers or {})
            request = HttpRequest(
                method=current_method,
                path=path,
                headers=req_headers,
                query=params,
                body=dict(current_body or {}),
                priority=priority if priority is not None else self.priority,
                deadline=deadline if deadline is not None else self.deadline,
            )
            response = self.call(endpoint, request)
            self.history.append(f"{current_method} {current}")
            self._store_cookies(endpoint, response)
            if response.status == 302 and "Location" in response.headers:
                current = response.headers["Location"]
                current_method, current_body = "GET", None
                continue
            return response, current
        raise ConfigurationError(f"redirect loop after {self.max_hops} hops at {current}")

    def get(self, url: str, **kwargs) -> Tuple[HttpResponse, str]:
        return self.navigate(url, method="GET", **kwargs)

    def post(self, url: str, body: Dict[str, object], **kwargs) -> Tuple[HttpResponse, str]:
        return self.navigate(url, method="POST", body=body, **kwargs)

    def clear_cookies(self, endpoint: Optional[str] = None) -> None:
        if endpoint is None:
            self.cookies.clear()
        else:
            self.cookies.pop(endpoint, None)


@dataclass
class FlowState:
    """Per-login state a relying party must hold between the redirect out
    and the code coming back (CSRF ``state``, PKCE verifier, nonce)."""

    state: str
    verifier: str
    nonce: str
    redirect_uri: str
    scope: str


class RelyingParty:
    """Server-side OIDC client bound to one provider.

    Parameters
    ----------
    owner:
        The service making network calls (portal, Zenith auth, SSH CA).
    provider_endpoint:
        Network endpoint name of the OIDC provider.
    client:
        This RP's registration at the provider.
    clock, ids:
        Simulation plumbing (ids generate state/verifier/nonce).
    jwks_max_age:
        Bounded-staleness window for the cached provider metadata/JWKS.
        ``None`` (default) trusts the cache until a signature failure
        forces a refresh; a number makes :meth:`_discover` re-fetch once
        the cache is older — falling back to the stale cache (degraded
        mode) if the provider is unreachable at that moment.
    jwks_cache:
        Optional shared :class:`repro.scale.cache.TtlCache` keyed by
        provider endpoint.  When set, *all* discovery/JWKS refreshes go
        through its single-flight coalescer: on a key rotation, N
        relying parties demanding a refresh at the same simulated
        instant produce exactly one upstream fetch instead of a fan-out
        of N, and the deployment's invalidation bus can evict the entry
        the moment the provider rotates.
    """

    def __init__(
        self,
        owner: Service,
        provider_endpoint: str,
        client: ClientConfig,
        clock: SimClock,
        ids,
        *,
        jwks_max_age: Optional[float] = None,
        jwks_cache=None,
    ) -> None:
        self.owner = owner
        self.provider = provider_endpoint
        self.client = client
        self.clock = clock
        self.ids = ids
        self.jwks_max_age = jwks_max_age
        self.jwks_cache = jwks_cache
        self._issuer: Optional[str] = None
        self._jwks: Optional[JwkSet] = None
        self._jwks_fetched_at: float = 0.0
        # the ID-token validator, rebuilt only when discovery hands over
        # a new (issuer, key set) — not once per redeemed code
        self._validator: Optional[JwtValidator] = None
        self._pending: Dict[str, FlowState] = {}
        self.degraded_discoveries = 0

    # ------------------------------------------------------------------
    def _fetch_metadata(self):
        """One upstream round: discovery document + JWKS."""
        resp = self.owner.call(
            self.provider,
            HttpRequest("GET", "/.well-known/openid-configuration"),
        )
        if not resp.ok:
            raise AuthenticationError(
                f"OIDC discovery at {self.provider} failed")
        issuer = str(resp.body["issuer"])
        jwks_resp = self.owner.call(
            self.provider, HttpRequest("GET", "/jwks"))
        jwks = JwkSet.from_jwks(jwks_resp.body)  # type: ignore[arg-type]
        return issuer, jwks, self.clock.now()

    def _discover(self, *, force: bool = False) -> None:
        """Make sure provider metadata is held and fresh enough.

        With a shared ``jwks_cache`` the read goes through its
        single-flight coalescer: ``force`` demands an entry at least as
        fresh as *now* — which an entry installed by another RP's refresh
        at this same instant already is, so a rotation storm coalesces to
        one fetch — and the per-RP ``jwks_max_age`` maps onto the same
        freshness floor.
        """
        now = self.clock.now()
        max_age = self.jwks_max_age
        try:
            if self.jwks_cache is not None:
                min_fresh = now if force else (
                    None if max_age is None else now - max_age)
                issuer, jwks, fetched_at = self.jwks_cache.get_or_load(
                    self.provider, self._fetch_metadata,
                    min_fresh_at=min_fresh)
            elif (self._issuer is None or force or (
                    max_age is not None
                    and now - self._jwks_fetched_at > max_age)):
                issuer, jwks, fetched_at = self._fetch_metadata()
            else:
                return
        except ServiceUnavailable:
            if self._issuer is not None:
                # degraded mode: keep validating against the cached JWKS
                # (bounded staleness); key rotation during the outage will
                # surface as SignatureInvalid and force a retry later
                self.degraded_discoveries += 1
                return
            raise
        if jwks is not self._jwks or issuer != self._issuer:
            self._validator = JwtValidator(
                self.clock, issuer, self.client.client_id, jwks)
        self._issuer = issuer
        self._jwks = jwks
        self._jwks_fetched_at = fetched_at

    # ------------------------------------------------------------------
    def begin(self, redirect_uri: str, *, scope: str = "openid profile") -> Tuple[str, FlowState]:
        """Create flow state and the authorization URL to send the agent to."""
        flow = FlowState(
            state=self.ids.secret(16),
            verifier=self.ids.secret(43),
            nonce=self.ids.secret(16),
            redirect_uri=redirect_uri,
            scope=scope,
        )
        self._pending[flow.state] = flow
        url = make_url(
            self.provider,
            "/authorize",
            client_id=self.client.client_id,
            redirect_uri=redirect_uri,
            response_type="code",
            scope=scope,
            state=flow.state,
            nonce=flow.nonce,
            code_challenge=pkce_challenge(flow.verifier),
            code_challenge_method="S256",
        )
        return url, flow

    def redeem(self, code: str, state: str) -> Dict[str, object]:
        """Exchange ``code`` for tokens; validates state, PKCE and ID token.

        Returns ``{"access_token", "id_token", "id_claims", ...}``.
        """
        flow = self._pending.pop(state, None)
        if flow is None:
            raise AuthenticationError("unknown or replayed state (CSRF check failed)")
        self._discover()
        body: Dict[str, object] = {
            "grant_type": "authorization_code",
            "code": code,
            "redirect_uri": flow.redirect_uri,
            "client_id": self.client.client_id,
            "code_verifier": flow.verifier,
        }
        if self.client.confidential:
            body["client_secret"] = self.client.client_secret
        resp = self.owner.call(self.provider, HttpRequest("POST", "/token", body=body))
        if not resp.ok:
            raise AuthenticationError(
                f"token exchange failed: {resp.body.get('error', resp.status)}"
            )
        id_token = str(resp.body["id_token"])
        try:
            id_claims = self._validator.validate(id_token)
        except SignatureInvalid:
            # the provider may have rotated its keys: refresh the cached
            # JWKS once and retry before treating it as a forgery
            self._discover(force=True)
            id_claims = self._validator.validate(id_token)
        if id_claims.get("nonce") != flow.nonce:
            raise AuthenticationError("ID token nonce mismatch (replay?)")
        out = dict(resp.body)
        out["id_claims"] = id_claims
        return out
