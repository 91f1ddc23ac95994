"""The short-lived RBAC token service.

"All authentication and access is based on short-lived role-based access
tokens" (§III).  :class:`TokenService` is the single minting point: every
token is audience-scoped to exactly one service, carries a role and its
capability list, is bounded by a maximum TTL, and is revocable by ``jti``
or by subject (the per-user kill switch).

Resource servers validate tokens *locally* (signature, expiry, audience,
issuer via the broker's JWKS) and then consult a revocation oracle —
either the broker's introspection endpoint over the network or a direct
callable in-process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Set, Tuple

from repro.audit import AuditLog, Outcome
from repro.clock import SimClock
from repro.crypto import JwtValidator, compact_digest, encode_jwt
from repro.crypto.keys import HmacKey, SigningKey
from repro.broker.rbac import Role, capabilities_for
from repro.errors import (
    AudienceMismatch,
    AuthorizationError,
    TokenExpired,
    TokenRevoked,
)
from repro.grants import GrantTable
from repro.ids import IdFactory

__all__ = ["IssuedToken", "TokenService", "RbacTokenValidator"]

# a held token is handed out again only while at least this much of its
# lifetime is left, so a presentation never races its expiry
HOLD_MARGIN = 30.0


@dataclass(frozen=True)
class IssuedToken:
    """Record of one minted token (never the token string itself)."""

    jti: str
    subject: str
    audience: str
    role: str
    project: Optional[str]
    issued_at: float
    expires_at: float
    # an infrastructure mint (audit_issue=False): never a grant.  The
    # fact is journaled with the mint, so it outlives a crash, a restart
    # and a failover promotion
    infra: bool = False


class TokenService:
    """Mints and revokes audience-scoped RBAC JWTs.

    Parameters
    ----------
    default_ttl, max_ttl:
        Token lifetimes in seconds.  Requests above ``max_ttl`` are
        clamped — short-lived tokens are a design invariant, not a hint.
    """

    def __init__(
        self,
        clock: SimClock,
        ids: IdFactory,
        key: SigningKey | HmacKey,
        issuer: str,
        *,
        commit: Optional[Callable[[str, Dict[str, object]], object]] = None,
        audit: AuditLog,
        default_ttl: float = 900.0,
        max_ttl: float = 3600.0,
    ) -> None:
        self.clock = clock
        self.ids = ids
        self.key = key
        self.issuer = issuer
        self.audit = audit
        self.default_ttl = default_ttl
        self.max_ttl = max_ttl
        self.wipe_state()
        # every mint/revoke/purge goes through commit(kind, data): the
        # owning broker's Durable.commit (journal, then apply_entry), or,
        # for a service of its own, apply_entry alone
        self.commit = commit or self.apply_entry
        # invalidation hook: when the deployment runs the scale-out
        # subsystem this is its repro.scale.cache.InvalidationBus; every
        # revocation is published (synchronously, before the revocation
        # call returns) so no replica cache still holds the token by the
        # time anyone observes the revocation
        self.bus = None
        # continuous authorization: the repro.authz.IdentityGraph whose
        # canonical SPIFFE id every token carries, and an AuthzGuard that
        # fails minting closed when the policy decision point has been
        # unreachable past the staleness bound
        self.identity_graph = None
        self.authz_guard = None

    # ------------------------------------------------------------------
    # minting
    # ------------------------------------------------------------------
    def mint(
        self,
        subject: str,
        audience: str,
        role: Role | str,
        *,
        project: Optional[str] = None,
        ttl: Optional[float] = None,
        extra_claims: Optional[Dict[str, object]] = None,
        audit_issue: bool = True,
    ) -> Tuple[str, IssuedToken]:
        """Mint a token for ``subject`` to use at ``audience`` as ``role``.

        Capabilities are derived from the role — callers cannot ask for
        capabilities the role does not grant (least privilege).

        ``audit_issue=False`` suppresses the issuance audit event; it is
        reserved for the log-shipping infrastructure itself, whose mint
        events would otherwise feed back into the very stream being
        shipped (an audit-loop).
        """
        role_value = role.value if isinstance(role, Role) else str(role)
        if self.authz_guard is not None and audit_issue:
            # fail closed past the staleness bound (infrastructure mints
            # with audit_issue=False — the log shipper — are exempt so
            # losing the PDP cannot also sever the audit pipeline)
            self.authz_guard.check("tokens", actor=subject)
        caps = sorted(capabilities_for(role_value))
        if not caps:
            raise AuthorizationError(f"role {role_value!r} grants no capabilities")
        now = self.clock.now()
        effective_ttl = min(ttl if ttl is not None else self.default_ttl, self.max_ttl)
        jti = self.ids.jti()
        claims: Dict[str, object] = {
            "iss": self.issuer,
            "sub": subject,
            "aud": audience,
            "iat": now,
            "exp": now + effective_ttl,
            "jti": jti,
            "role": role_value,
            "caps": caps,
        }
        if project is not None:
            claims["project"] = project
        claims.update(extra_claims or {})
        spiffe = ""
        if self.identity_graph is not None:
            # stamp the canonical identity into the token itself, so
            # every downstream surface agrees who this credential is
            spiffe = self.identity_graph.identity_of(
                subject, workload=role_value == Role.SERVICE.value)
            claims.setdefault("spiffe_id", spiffe)
        token = encode_jwt(claims, self.key)
        self.commit("rbac.mint", {
            "jti": jti,
            "subject": subject,
            "audience": audience,
            "role": role_value,
            "project": project,
            "issued_at": now,
            "expires_at": now + effective_ttl,
            # the log shipper re-mints for as long as logs flow: were its
            # tokens grants, the session registry would never drain
            "infra": not audit_issue,
        })
        record = self._issued[jti]
        self._minted[compact_digest(token)] = jti
        if audit_issue:
            extra_audit = {"spiffe_id": spiffe} if spiffe else {}
            self.audit.record(
                now, "token-service", subject, "rbac.mint", jti, Outcome.SUCCESS,
                audience=audience, role=role_value, project=project or "",
                ttl=effective_ttl, **extra_audit,
            )
        return token, record

    def held(
        self,
        subject: str,
        audience: str,
        role: Role | str,
        *,
        ttl: float,
        audit_issue: bool = True,
    ) -> Tuple[str, IssuedToken]:
        """The service token an infrastructure caller presents over and
        over (the broker at the SSH CA and the portal, the log shipper at
        the SOC, ...): the one held for ``(subject, audience, role)``
        while it has ``HOLD_MARGIN`` seconds left and its jti is issued
        and unrevoked, else a fresh :meth:`mint`, held from then on.

        Handing out a held audited token re-runs the PDP guard, so a
        caller fails closed exactly when a per-call mint would.
        """
        held = self._held.get((subject, audience, role))
        if (held is None
                or self.clock.now() > held[1].expires_at - HOLD_MARGIN
                or held[1].jti not in self._issued
                or held[1].jti in self._revoked):
            held = self._held[subject, audience, role] = self.mint(
                subject, audience, role, ttl=ttl, audit_issue=audit_issue)
        elif self.authz_guard is not None and audit_issue:
            self.authz_guard.check("tokens", actor=subject)
        return held

    # ------------------------------------------------------------------
    # revocation
    # ------------------------------------------------------------------
    def revoke_jti(self, jti: str, *, trace_id: str = "") -> bool:
        if jti not in self._issued:
            return False
        self.commit("rbac.revoke", {"jti": jti})
        if self.bus is not None:
            self.bus.publish("token.revoked", key=jti)
        # trace_id correlates the revocation with the containment action
        # that ordered it — the telemetry pipeline pins that trace
        # against tail-sampling eviction for post-mortem replay
        extra = {"trace_id": trace_id} if trace_id else {}
        self.audit.record(
            self.clock.now(), "token-service", "system", "rbac.revoke", jti,
            Outcome.INFO, jti=jti, **extra,
        )
        return True

    def revoke_subject(self, subject: str, *, project: Optional[str] = None) -> int:
        """Revoke every live token of ``subject`` (optionally one project)
        that is a grant: an infrastructure mint is not one.

        Returns the number of tokens revoked — the kill switch reports it.
        """
        now = self.clock.now()
        hit = [jti for jti, _, _, rec in self._granted.of(subject, now)
               if project is None or rec.project == project]
        if hit:
            self.commit("rbac.revoke_subject", {"subject": subject, "jtis": hit})
            if self.bus is not None:
                for jti in hit:
                    self.bus.publish("token.revoked", key=jti, subject=subject)
            self.audit.record(
                now, "token-service", "system", "rbac.revoke_subject", subject,
                Outcome.INFO, count=len(hit), project=project or "",
            )
        return len(hit)

    def grants(self, now: float, skip=()):
        """Every token live at ``now`` — unrevoked, unexpired, not an
        infrastructure mint — as the session registry reads it (see
        ``SessionRegistry``); a service token is a workload's grant."""
        for jti, subject, expires_at, rec in self._granted.live(now):
            workload = rec.role == Role.SERVICE.value
            if workload or subject not in skip:
                yield "rbac-token", jti, subject, expires_at, workload

    def is_revoked(self, jti: str) -> bool:
        return jti in self._revoked

    def revoked_jtis(self) -> frozenset:
        """Snapshot of every revoked jti — the resync source for a
        recovering region's revocation view (a region that was down
        missed the bus traffic; it reloads the full set on rejoin)."""
        return frozenset(self._revoked)

    def is_invalid(self, jti: str) -> bool:
        """Durability-mode revocation oracle: revoked OR simply unknown.

        A durable broker trusts only journaled facts — a jti absent from
        the issued registry (e.g. minted by a fenced zombie primary on
        the wrong side of a partition) is rejected outright.  Validators
        check expiry *before* consulting this, so purged-expired records
        never cause false rejections.
        """
        return jti in self._revoked or jti not in self._issued

    def issued(self, jti: str) -> Optional[IssuedToken]:
        return self._issued.get(jti)

    def recognises(self, token: str) -> bool:
        """Did this very instance sign exactly this string?  The owning
        broker asks before re-running the signature maths on a token it
        is shown; whether the token is still *good* — expiry, issuer,
        jti known and unrevoked — stays its check on every presentation.
        """
        return compact_digest(token) in self._minted

    def purge_expired(self, *, grace: float = 3600.0) -> int:
        """Housekeeping: drop records of tokens expired more than
        ``grace`` seconds ago (they can never validate again, so keeping
        them only grows memory on a long-lived broker).  Returns the
        number purged.  Revocation marks for purged jtis are dropped too.
        """
        cutoff = self.clock.now() - grace
        stale = [jti for jti, rec in self._issued.items()
                 if rec.expires_at < cutoff]
        if stale:
            self.commit("rbac.purge", {"jtis": stale})
        return len(stale)

    # ------------------------------------------------------------------
    # durability (driven by the owning broker's journal)
    # ------------------------------------------------------------------
    def durable_state(self) -> Dict[str, object]:
        return {
            "issued": {jti: vars(rec) for jti, rec in self._issued.items()},
            "revoked": sorted(self._revoked),
        }

    def load_state(self, state: Dict[str, object]) -> None:
        self.wipe_state()
        self._issued = {
            jti: IssuedToken(**rec) for jti, rec in state["issued"].items()
        }
        self._revoked = set(state["revoked"])
        for rec in self._issued.values():
            if not rec.infra and rec.jti not in self._revoked:
                self._granted.add(rec.jti, rec.subject, rec.expires_at, rec)

    def wipe_state(self) -> None:
        self._issued: Dict[str, IssuedToken] = {}
        # digest of each token this very instance signed -> its jti (see
        # recognises); volatile, bounded by _issued: an entry goes when
        # its record does and nothing durable ever mentions it
        self._minted: Dict[bytes, str] = {}
        self._revoked: Set[str] = set()
        # the live tokens that are grants (not infrastructure mints) by
        # subject; volatile like _minted, rebuilt from _issued
        self._granted = GrantTable()
        # (subject, audience, role) -> the token held for that repeat
        # infrastructure caller (see held); volatile like _minted
        self._held: Dict[Tuple[str, str, str], Tuple[str, IssuedToken]] = {}

    def apply_entry(self, kind: str, data: Dict[str, object]) -> bool:
        """Apply one mutation, live or replayed; returns False for
        foreign kinds."""
        if kind == "rbac.mint":
            record = IssuedToken(**data)
            self._issued[record.jti] = record
            if not record.infra:
                self._granted.add(record.jti, record.subject,
                                  record.expires_at, record)
        elif kind in ("rbac.revoke", "rbac.revoke_subject"):
            jtis = data["jtis"] if "jtis" in data else [data["jti"]]
            self._revoked.update(jtis)
            self._granted.end(*jtis)
        elif kind == "rbac.purge":
            for jti in data["jtis"]:
                self._issued.pop(jti, None)
                self._revoked.discard(jti)
                self._granted.end(jti)
            self._minted = {digest: jti for digest, jti in self._minted.items()
                            if jti in self._issued}
        else:
            return False
        return True


class RbacTokenValidator:
    """Resource-server-side validation of RBAC tokens.

    Wraps :class:`~repro.crypto.jwt.JwtValidator` (signature, expiry,
    issuer, audience) and adds the revocation check via ``revocation``,
    a callable ``jti -> bool``.  In the deployment that callable is either
    ``token_service.is_revoked`` (co-located) or a network introspection
    round-trip (remote resources).

    With a ``cache`` (a :class:`repro.scale.cache.TtlCache`, usually
    shared by every resource server of a deployment), the *signature*
    verification is amortised: a token seen before is served from the
    cache, and the validator sets ``last_hit`` so the caller can stamp
    the decision with the ``CACHED`` audit outcome.  The cache only ever
    amortises the crypto — expiry, audience and **revocation** are
    re-checked on every call, cached or not, so a cached ALLOW can never
    outlive a revocation even before the invalidation bus evicts it.
    Entries are tagged with the token's ``jti`` for exactly that bus
    eviction.
    """

    REQUIRED_CLAIMS = ("sub", "role", "caps", "jti")

    def __init__(
        self,
        clock: SimClock,
        issuer: str,
        audience: str,
        keys,
        revocation: Callable[[str], bool],
        *,
        leeway: float = 5.0,
        cache=None,
    ) -> None:
        self.clock = clock
        self.audience = audience
        self.leeway = leeway
        self.cache = cache
        self.last_hit = False
        self._jwt = JwtValidator(
            clock, issuer, audience, keys, leeway=leeway,
            required_claims=self.REQUIRED_CLAIMS,
        )
        # audience-free variant for the cached path: one shared cache
        # serves every resource server, so the audience binding must be
        # re-checked per validator, not baked into the cached claims
        self._sig = JwtValidator(
            clock, issuer, None, keys, leeway=leeway,
            required_claims=self.REQUIRED_CLAIMS,
        )
        self._revocation = revocation

    def validate(self, token: str) -> Dict[str, object]:
        self.last_hit = False
        if self.cache is None:
            claims = self._jwt.validate(token)
        else:
            now = self.clock.now()
            claims = self.cache.get_or_load(
                token,
                lambda: self._sig.validate(token),
                ttl_of=lambda c: float(c["exp"]) + self.leeway - now,
                tags_of=lambda c: (str(c["jti"]),),
            )
            self.last_hit = self.cache.last_hit
            # continuous verification: only the signature crypto was
            # amortised — time and audience are policy, re-checked fresh
            if now > float(claims["exp"]) + self.leeway:
                raise TokenExpired(
                    f"token expired at t={claims['exp']}, now t={now:.1f}")
            aud = claims.get("aud")
            auds = (aud,) if isinstance(aud, str) else (aud or ())
            if self.audience not in auds:
                raise AudienceMismatch(
                    f"token audience {aud!r} does not include "
                    f"{self.audience!r}")
        jti = str(claims["jti"])
        if self._revocation(jti):
            raise TokenRevoked(f"token {jti} has been revoked")
        return claims
