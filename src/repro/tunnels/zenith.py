"""Zenith-style authenticated reverse tunnels for web services.

§III.C: web services in the MDCs (e.g. Jupyter) are published through a
Zenith server in FDS.  The Zenith *client* runs next to the service in
the MDC and dials **out** to the server (MDC→FDS is an allowed outbound
flow; FDS→MDC inbound stays closed) — after registration, traffic rides
that client-initiated connection back in.

The server is also the authentication shim: a user navigating to the
service URL "triggers an identity broker login flow that authenticates
their identity, and connects to the user portal to verify access to the
web service.  If successful, this generates a time-limited RBAC token
that is passed as a HTTP header" to the service's authenticator inside
the MDC.

Registration requires a broker-issued service token; tunnels expire
unless heartbeated, and the kill switch closes them instantly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.audit import AuditLog, Outcome
from repro.broker.rbac import require_capability
from repro.broker.tokens import RbacTokenValidator
from repro.clock import SimClock
from repro.errors import (
    AuthenticationError,
    KillSwitchActive,
    ServiceUnavailable,
)
from repro.grants import GrantTable
from repro.ids import IdFactory
from repro.net.http import HttpRequest, HttpResponse, Service, route
from repro.oidc.client import RelyingParty
from repro.oidc.messages import ClientConfig, make_url

__all__ = ["ZenithClient", "ZenithServer", "TunnelRecord"]

TOKEN_HEADER = "X-Isambard-Token"


class ZenithClient(Service):
    """Runs inside the MDC next to one web service; dials out to the server.

    ``token_source`` (optional) lets the deployment wire a callable that
    hands out a live service token, so :meth:`heartbeat` can re-enroll the
    tunnel on its own after a drop — the resilience layer's re-enrollment
    seam.  Without it, heartbeats replay the last token used.
    """

    def __init__(self, name: str, upstream_endpoint: str) -> None:
        super().__init__(name)
        self.upstream_endpoint = upstream_endpoint
        self.token_source = None  # Optional[Callable[[], str]]
        self._registration: Optional[Dict[str, str]] = None
        self.reenrollments = 0

    def register_with(self, server_endpoint: str, service_name: str, token: str) -> HttpResponse:
        """Dial out and (re-)register the tunnel; also the heartbeat."""
        resp = self.call(
            server_endpoint,
            HttpRequest(
                "POST", "/register",
                headers={"Authorization": f"Bearer {token}"},
                body={"service": service_name},
            ),
        )
        if resp.ok:
            self._registration = {
                "server": server_endpoint,
                "service": service_name,
                "token": token,
            }
        return resp

    def heartbeat(self) -> Optional[HttpResponse]:
        """Re-register the last tunnel, with a live token if wired.

        Returns ``None`` when the client has never registered.  This is
        what the deployment's tunnel-refresh loop calls, so a tunnel that
        expired or was dropped during an outage comes back on its own
        once the path heals.
        """
        if self._registration is None:
            return None
        token = self._registration["token"]
        if self.token_source is not None:
            token = self.token_source()
        self.reenrollments += 1
        return self.register_with(
            self._registration["server"], self._registration["service"], token
        )

    def deliver(self, request: HttpRequest) -> HttpResponse:
        """Traffic arriving over the established tunnel → local service."""
        return self.call(self.upstream_endpoint, request)


@dataclass
class TunnelRecord:
    service: str
    client: ZenithClient
    registered_by: str
    expires_at: float
    killed: bool = False

    def usable(self, now: float) -> bool:
        return not self.killed and now < self.expires_at


class ZenithServer(Service):
    """The FDS-side tunnel terminus and web-auth shim.

    Parameters
    ----------
    validator:
        RBAC validator for audience ``"zenith"`` (tunnel registrations).
    heartbeat_ttl:
        Tunnel lifetime after each registration/heartbeat.
    """

    def __init__(
        self,
        name: str,
        clock: SimClock,
        ids: IdFactory,
        validator: RbacTokenValidator,
        *,
        audit: AuditLog,
        heartbeat_ttl: float = 120.0,
        broker_endpoint: str = "broker",
    ) -> None:
        super().__init__(name)
        self.clock = clock
        self.ids = ids
        self.validator = validator
        self.audit = audit
        self.heartbeat_ttl = heartbeat_ttl
        self.broker_endpoint = broker_endpoint
        self.tunnels: Dict[str, TunnelRecord] = {}
        self._rp: Optional[RelyingParty] = None
        # state -> (service, original path) while the login flow runs
        self._pending: Dict[str, Dict[str, str]] = {}
        # zenith session cookie -> {token, expires_at, sub}, and the
        # unexpired ones by sub.  Tunnels keep their own dict: few, keyed
        # by service, and revived by a heartbeat or restore_tunnel
        self._web_sessions: Dict[str, Dict[str, object]] = {}
        self._granted = GrantTable()
        self.requests_routed = 0
        # continuous authorization: routing fails closed when the PDP is
        # unreachable past the staleness bound
        self.authz_guard = None

    def configure_rp(self, client_cfg: ClientConfig) -> None:
        """Wire the broker relying-party registration (deployment step)."""
        self._rp = RelyingParty(self, self.broker_endpoint, client_cfg,
                                self.clock, self.ids)

    # ------------------------------------------------------------------
    # tunnel registration (MDC side dialing out)
    # ------------------------------------------------------------------
    @route("POST", "/register")
    def register(self, request: HttpRequest) -> HttpResponse:
        token = request.bearer_token()
        if token is None:
            raise AuthenticationError("tunnel registration requires a service token")
        claims = self.validator.validate(token)
        require_capability(claims, "authz.query")  # service-role tokens only
        service = str(request.body.get("service", ""))
        if not service:
            return HttpResponse.error(400, "service name required")
        if self.network is None:
            raise ServiceUnavailable("zenith server not attached")
        client = self.network.endpoint(request.source).service
        if not isinstance(client, ZenithClient):
            raise AuthenticationError("only zenith clients may register tunnels")
        if self.authz_guard is not None:
            self.authz_guard.check("tunnels", actor=str(claims["sub"]))
        existing = self.tunnels.get(service)
        if existing is not None and existing.killed:
            raise KillSwitchActive(f"tunnel {service!r} is killed")
        self.tunnels[service] = TunnelRecord(
            service=service,
            client=client,
            registered_by=str(claims["sub"]),
            expires_at=self.clock.now() + self.heartbeat_ttl,
        )
        # scale mode: a heartbeat re-registration whose token signature
        # was served from the replica cache is stamped CACHED (with the
        # jti) so the SOC's staleness oracle can cross-check it against
        # revocation events
        cached_hit = getattr(self.validator, "last_hit", False)
        self.log_event(str(claims["sub"]), "zenith.register",
            service, Outcome.CACHED if cached_hit else Outcome.SUCCESS,
            client=request.source, jti=str(claims["jti"]),
        )
        return HttpResponse.json({"registered": service,
                                  "expires_at": self.tunnels[service].expires_at})

    def kill_tunnel(self, service: str) -> None:
        """Kill switch for one published service."""
        record = self.tunnels.get(service)
        if record is not None:
            record.killed = True
            self.log_event("killswitch", "zenith.kill", service,
                Outcome.INFO,
            )

    def sever(self, subject: str, by: str,
              project: Optional[str] = None) -> int:
        """Drop every authenticated web session of ``subject`` — their
        browser is back to the login redirect on the next request — and
        kill every tunnel ``subject`` itself registered (a workload).  A
        user's sever never reaches a tunnel a service account
        registered, so tearing down one researcher does not sever the
        shared Jupyter tunnel.  Only what ``grants`` lists is counted and
        audited: an expired tunnel is killed uncounted (a heartbeat would
        revive it)."""
        hit = self._granted.of(subject, self.clock.now())
        for sid, *_ in hit:
            self._granted.end(sid)
            del self._web_sessions[sid]
        n = len(hit)
        if n:
            self.log_event("authz-pipeline", "zenith.sessions_revoked",
                subject, Outcome.INFO, count=n,
            )
        for service, record in sorted(self.tunnels.items()):
            if record.registered_by == subject and record.usable(
                    self.clock.now()):
                self.kill_tunnel(service)
                n += 1
            # an expired one is killed too, uncounted: a heartbeat would
            # revive it
            record.killed |= record.registered_by == subject
        return n

    def kill_all_tunnels(self) -> None:
        for service in list(self.tunnels):
            self.kill_tunnel(service)

    def restore_tunnel(self, service: str) -> None:
        """Lift the kill.  A tunnel whose last registration has not
        expired is usable again at once; an expired one waits for the
        client's next heartbeat."""
        record = self.tunnels.get(service)
        if record is not None:
            record.killed = False

    def grants(self, now: float, skip=()):
        """Every tunnel usable and every web session unexpired at
        ``now``, as the session registry reads them (see
        ``SessionRegistry``): a tunnel is the registering workload's."""
        for service, t in self.tunnels.items():
            if t.usable(now):
                yield "tunnel", service, t.registered_by, t.expires_at, True
        yield from self._granted.grants("web-session", now, skip)

    def restore_all_tunnels(self) -> None:
        for service in list(self.tunnels):
            self.restore_tunnel(service)

    # ------------------------------------------------------------------
    # the authenticated web path
    # ------------------------------------------------------------------
    @route("GET", "/app")
    def app(self, request: HttpRequest) -> HttpResponse:
        """``https://.../app?service=jupyter&path=/`` — the user-facing URL."""
        service = request.query.get("service", "")
        path = request.query.get("path", "/")
        record = self.tunnels.get(service)
        now = self.clock.now()
        if record is None or not record.usable(now):
            return HttpResponse.error(
                503 if record is None or record.killed is False else 403,
                f"service {service!r} is not reachable via Zenith",
            )

        session = self._session_from(request)
        if session is not None and self.authz_guard is not None:
            self.authz_guard.check("tunnels", actor=str(session["sub"]))
        if session is None:
            if self._rp is None:
                raise ServiceUnavailable("zenith auth shim not configured")
            url, flow = self._rp.begin(make_url(self.name, "/callback"))
            self._pending[flow.state] = {"service": service, "path": path}
            return HttpResponse.redirect(url)

        # the tunnel-dispatched inner request must keep the originating
        # request's context: the zenith client delivers it from an empty
        # serving stack, so nothing downstream can re-inherit priority,
        # deadline or trace — dropping them here made shed/expired
        # outcomes on the upstream hop lose their attribution entirely
        inner = HttpRequest(
            "GET", path,
            headers={TOKEN_HEADER: str(session["token"])},
            query={k: v for k, v in request.query.items()
                   if k not in ("service", "path")},
            priority=request.priority,
            deadline=request.deadline,
            trace=request.trace,
        )
        self.requests_routed += 1
        self.log_event(str(session["sub"]), "zenith.route", service,
            Outcome.SUCCESS, path=path,
            # the grant basis on the tunnels surface: the live registered
            # tunnel the authenticated session was routed through
            rule=f"tunnel:{service}",
        )
        return record.client.deliver(inner)

    @route("GET", "/callback")
    def callback(self, request: HttpRequest) -> HttpResponse:
        """Broker login finished: obtain the RBAC token for the service."""
        state = request.query.get("state", "")
        pending = self._pending.pop(state, None)
        if pending is None:
            return HttpResponse.error(400, "unknown login state")
        if "error" in request.query:
            return HttpResponse.error(403, f"login failed: {request.query['error']}")
        assert self._rp is not None
        tokens = self._rp.redeem(request.query.get("code", ""), state)
        service = pending["service"]
        # portal check + time-limited RBAC token, via the broker; both
        # cluster roles (researcher, PI) carry the notebook capability
        mint = None
        for role in ("researcher", "pi"):
            mint = self.call(
                self.broker_endpoint,
                HttpRequest(
                    "POST", "/tokens",
                    headers={"Authorization": f"Bearer {tokens['access_token']}"},
                    body={"audience": service, "role": role},
                ),
            )
            if mint.ok:
                break
        if mint is None or not mint.ok:
            self.log_event(str(tokens["id_claims"]["sub"]),
                "zenith.denied", service, Outcome.DENIED,
                reason=str(mint.body.get("error", "")),
            )
            return HttpResponse.error(
                403, f"portal denied access to {service}: {mint.body.get('error')}"
            )
        sid = self.ids.secret(24)
        session = self._web_sessions[sid] = {
            "token": mint.body["token"],
            "expires_at": mint.body["expires_at"],
            "sub": tokens["id_claims"]["sub"],
        }
        self._granted.add(sid, session["sub"], session["expires_at"], session)
        resp = HttpResponse.redirect(
            make_url(self.name, "/app", service=service, path=pending["path"])
        )
        resp.headers["Set-Cookie"] = f"zsid={sid}"
        return resp

    def _session_from(self, request: HttpRequest) -> Optional[Dict[str, object]]:
        cookie = request.headers.get("Cookie", "")
        for part in cookie.split(";"):
            k, _, v = part.strip().partition("=")
            if k == "zsid":
                session = self._web_sessions.get(v)
                if session and self.clock.now() < float(session["expires_at"]):
                    return session
        return None
