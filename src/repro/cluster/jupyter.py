"""Jupyter authenticator and spawner on the cluster (user story 6).

"The Jupyter authenticator validates this token against the OpenID
Connect endpoint from the identity broker in FDS.  If successful, a
Jupyter user session is spawned on a compute node."

The authenticator therefore performs **two** checks on the RBAC token it
receives in the ``X-Isambard-Token`` header:

1. local validation — signature (broker JWKS provisioned at build time),
   issuer, audience, expiry, capability;
2. a live round-trip to the broker's introspection endpoint (MDC → FDS,
   an allowed outbound flow), which also catches revocation — per-session
   enforcement, tenet 6.

The spawner then places the session on a free compute node.

**Graceful degradation** (resilience layer): when the broker is
unreachable, the authenticator falls back to its local cached-JWKS
validation *plus* the most recent introspection verdict for that exact
token — accepted only while the verdict is younger than
``staleness_window``.  A token never introspected, or whose cached
verdict has gone stale, is refused (fail closed).  The window bounds the
security cost: a token revoked at time *T* can be accepted in degraded
mode only until *T + staleness_window*, because any introspection after
*T* caches the revocation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.audit import AuditLog, Outcome
from repro.broker.rbac import require_capability
from repro.broker.tokens import RbacTokenValidator
from repro.clock import SimClock
from repro.cluster.nodes import NodePool
from repro.errors import (
    AuthenticationError,
    SchedulerError,
    ServiceUnavailable,
    TokenRevoked,
)
from repro.grants import GrantTable
from repro.ids import IdFactory
from repro.net.http import HttpRequest, HttpResponse, Service, route
from repro.tunnels.zenith import TOKEN_HEADER

__all__ = ["JupyterSession", "JupyterService"]


@dataclass
class JupyterSession:
    session_id: str
    subject: str
    unix_account: str
    node_id: str
    started_at: float
    expires_at: float
    closed: bool = False


class JupyterService(Service):
    """Authenticator + spawner, fronted by the Zenith tunnel.

    Parameters
    ----------
    validator:
        Local RBAC validator for this service's audience.
    broker_endpoint:
        Where to introspect tokens (set to ``None`` to disable the
        round-trip — used by the ablation bench to show what it buys).
    staleness_window:
        How long a cached per-token introspection verdict may substitute
        for a live round-trip while the broker is unreachable.  The
        documented availability/security trade-off: larger windows ride
        longer broker outages but widen the post-revocation acceptance
        bound by the same amount.
    """

    def __init__(
        self,
        name: str,
        clock: SimClock,
        ids: IdFactory,
        validator: RbacTokenValidator,
        pool: NodePool,
        *,
        audit: AuditLog,
        broker_endpoint: Optional[str] = "broker",
        session_ttl: float = 4 * 3600.0,
        staleness_window: float = 60.0,
    ) -> None:
        super().__init__(name)
        self.clock = clock
        self.ids = ids
        self.validator = validator
        self.pool = pool
        self.audit = audit
        self.broker_endpoint = broker_endpoint
        self.session_ttl = session_ttl
        self.staleness_window = staleness_window
        self._sessions: Dict[str, JupyterSession] = {}
        # the live sessions by subject: at most one each, since a new one
        # is spawned only when none is live
        self._granted = GrantTable()
        # jti -> (introspection time, active?) for degraded-mode validation
        self._introspection_cache: Dict[str, Tuple[float, bool]] = {}
        self.spawns = 0
        self.degraded_validations = 0
        self.degraded_rejections = 0
        # scale mode: a repro.scale.cache.TtlCache of *positive*
        # introspection verdicts, keyed and tagged by jti and bound to
        # the deployment's "token.revoked" invalidation topic.  Unlike
        # the local-validation caches, the network round-trip being
        # amortised here IS the revocation check — safety rests on the
        # bus evicting the jti synchronously inside the revocation call,
        # plus the short TTL as a backstop for unsubscribed operation.
        # Negative verdicts are never cached: TokenRevoked propagates
        # uncached so a refusal is always a fresh broker verdict.
        self.introspection_cache = None
        self.introspection_hit = False
        # continuous authorization: the repro.authz.IdentityGraph whose
        # canonical SPIFFE id each spawn is audited under; spawns fail
        # closed when the PDP is unreachable too long
        self.identity_graph = None
        self.authz_guard = None

    # ------------------------------------------------------------------
    def _introspect(self, token: str, jti: str, subject: str) -> None:
        """Round-trip to the broker's OIDC endpoint (catches revocation).

        Falls back to the cached verdict for this ``jti`` — bounded by
        ``staleness_window`` — when the broker is unreachable.
        """
        if self.broker_endpoint is None:
            return
        self.introspection_hit = False
        if self.introspection_cache is not None:
            try:
                self.introspection_cache.get_or_load(
                    jti,
                    lambda: self._introspect_upstream(token, jti),
                    tags_of=lambda _verdict: (jti,),
                )
            except ServiceUnavailable as exc:
                self._validate_degraded(jti, subject, exc)
                return
            self.introspection_hit = self.introspection_cache.last_hit
            return
        try:
            self._introspect_upstream(token, jti)
        except ServiceUnavailable as exc:
            self._validate_degraded(jti, subject, exc)

    def _introspect_upstream(self, token: str, jti: str) -> bool:
        """The actual broker round-trip; also feeds the degraded-mode
        verdict store so stale-window fallback keeps working when the
        scale cache is in front."""
        resp = self.call(
            self.broker_endpoint,
            HttpRequest("POST", "/introspect", body={"token": token}),
        )
        active = resp.ok and resp.body.get("active") is True
        self._introspection_cache[jti] = (self.clock.now(), active)
        if not active:
            raise TokenRevoked("broker introspection reports token inactive")
        return True

    def _validate_degraded(self, jti: str, subject: str,
                           cause: ServiceUnavailable) -> None:
        """Broker unreachable: accept only a fresh cached 'active' verdict."""
        now = self.clock.now()
        cached = self._introspection_cache.get(jti)
        if cached is not None:
            verdict_at, active = cached
            if active and now - verdict_at <= self.staleness_window:
                self.degraded_validations += 1
                self.log_event(subject, "jupyter.introspect.degraded", jti,
                               Outcome.INFO, reason=str(cause),
                               verdict_age=round(now - verdict_at, 6))
                return
        self.degraded_rejections += 1
        self.log_event(subject, "jupyter.introspect.unavailable", jti,
                       Outcome.DENIED, reason=str(cause))
        raise ServiceUnavailable(
            "broker introspection unreachable and no fresh cached verdict "
            f"for this token (staleness window {self.staleness_window:.0f}s)"
        ) from cause

    @route("GET", "/")
    def open_notebook(self, request: HttpRequest) -> HttpResponse:
        """The authenticated entry point: validate the header token and
        spawn (or reuse) the user's notebook session."""
        token = request.headers.get(TOKEN_HEADER)
        now = self.clock.now()
        if not token:
            self.log_event("anonymous", "jupyter.auth", "",
                              Outcome.DENIED, reason="no-token")
            raise AuthenticationError(
                "Jupyter requires the broker token header via Zenith"
            )
        claims = self.validator.validate(token)
        require_capability(claims, "jupyter.use")
        subject = str(claims["sub"])
        if self.authz_guard is not None:
            self.authz_guard.check("compute", actor=subject)
        self._introspect(token, str(claims["jti"]), subject)
        account = str(claims.get("unix_account", ""))
        # scale mode: flag decisions that rode a replica cache (local
        # signature cache or the shared introspection-verdict cache) so
        # the SOC staleness oracle can cross-check them; seed mode never
        # emits this event
        if getattr(self.validator, "last_hit", False) or self.introspection_hit:
            self.log_event(subject, "jupyter.auth", str(claims["jti"]),
                           Outcome.CACHED, jti=str(claims["jti"]))

        # the subject's live session, if any: at most one
        session = next((e[3] for e in self._granted.of(subject, now)), None)
        if session is None:
            node = next((n for n in self.pool.nodes() if n.free), None)
            if node is None:
                self.log_event(subject, "jupyter.spawn", "",
                                  Outcome.ERROR, reason="no-free-nodes")
                raise SchedulerError("no free compute node for the notebook")
            session = JupyterSession(
                session_id=self.ids.next("jup"),
                subject=subject,
                unix_account=account,
                node_id=node.node_id,
                started_at=now,
                expires_at=min(now + self.session_ttl, float(claims["exp"])
                               + self.session_ttl),
            )
            node.allocated_to = session.session_id
            self._sessions[session.session_id] = session
            self._granted.add(session.session_id, subject,
                              session.expires_at, session)
            # the node goes back to the pool at expiry, as a job's does
            # at its walltime (a closed session's is already back)
            self.clock.call_at(session.expires_at,
                               lambda sid=session.session_id:
                               self.pool.release(sid))
            self.spawns += 1
            extra_audit: Dict[str, object] = {}
            if self.identity_graph is not None:
                extra_audit["spiffe_id"] = self.identity_graph.identity_of(
                    subject)
            self.log_event(subject, "jupyter.spawn",
                              session.session_id, Outcome.SUCCESS,
                              node=node.node_id, account=account,
                              **extra_audit)
        return HttpResponse.json(
            {
                "notebook": "ready",
                "session_id": session.session_id,
                "node": session.node_id,
                "unix_account": session.unix_account,
                "expires_at": session.expires_at,
            }
        )

    # ------------------------------------------------------------------
    def sessions(self, *, active_only: bool = True) -> List[JupyterSession]:
        """The live sessions, or every session ever spawned."""
        return ([e[3] for e in self._granted.live(self.clock.now())]
                if active_only else list(self._sessions.values()))

    def grants(self, now: float, skip=()):
        """Every notebook session live at ``now``, as the session
        registry reads it (see ``SessionRegistry``)."""
        return self._granted.grants("jupyter", now, skip)

    def close_session(self, session_id: str) -> bool:
        s = self._sessions.get(session_id)
        if s is None or s.closed:
            return False
        s.closed = True
        self._granted.end(session_id)
        self.pool.release(s.session_id)
        return True

    def sever(self, subject: str, by: str,
              project: Optional[str] = None) -> int:
        """Close ``subject``'s live notebook session."""
        return sum(self.close_session(session_id) for session_id, *_ in
                   self._granted.of(subject, self.clock.now()))
